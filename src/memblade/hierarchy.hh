/**
 * @file
 * Two-level inclusive/exclusive cache hierarchy with a small
 * sequential prefetch buffer.
 *
 * The paper's memory blade is a strict two-level exclusive hierarchy
 * (local frames front a remote blade; a local victim swaps out to the
 * blade). Modern tiered setups — CXL memory tiers, flash-backed page
 * caches — also run inclusive configurations and lean on prefetching,
 * so this module models both containment policies explicitly:
 *
 *  - Inclusive: L1 contents are always a subset of L2. An L2
 *    eviction back-invalidates the page from L1; demand fills
 *    populate both levels. Requires l2Frames >= l1Frames.
 *  - Exclusive: L1 and L2 are disjoint. An L2 hit promotes the page
 *    to L1 (removing it from L2); the L1 victim demotes to the L2
 *    MRU position — the paper's DMA-swap, generalized.
 *
 * The optional prefetch buffer is a tiny FIFO of next-sequential
 * pages: every demand fill of page p enqueues p+1 .. p+depth (those
 * not already resident anywhere); a hit in the buffer promotes the
 * page into the hierarchy like a fill but counts as a prefetch hit
 * rather than a miss. This is the drcachesim caching_device idiom —
 * the buffer sits beside L1, not in the miss path's capacity.
 *
 * Both levels run exact LRU. Victim visibility (who got evicted, for
 * back-invalidation and demotion) is what the ReplacementPolicy /
 * kernel interfaces deliberately do not expose, so the hierarchy
 * keeps its own list+map levels; it is a fidelity model, not a
 * throughput kernel, and test_hierarchy pins its invariants.
 */

#ifndef WSC_MEMBLADE_HIERARCHY_HH
#define WSC_MEMBLADE_HIERARCHY_HH

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "memblade/trace.hh"

namespace wsc {
namespace memblade {

class PageSource;

/** Containment policy between the two levels. */
enum class HierarchyMode { Inclusive, Exclusive };

std::string to_string(HierarchyMode mode);

/** Parse "inclusive" / "exclusive"; fatal() on anything else. */
HierarchyMode hierarchyModeFromString(const std::string &name);

struct HierarchyParams {
    std::size_t l1Frames = 0;
    std::size_t l2Frames = 0;
    HierarchyMode mode = HierarchyMode::Exclusive;
    /** Sequential prefetch distance per demand fill (0 = off). */
    std::size_t prefetchDepth = 0;
    /** Prefetch FIFO capacity; 0 with depth > 0 defaults to
     * 4 * prefetchDepth. */
    std::size_t prefetchFrames = 0;
};

struct HierarchyStats {
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t prefetchHits = 0; //!< served from the prefetch FIFO
    std::uint64_t misses = 0;       //!< missed every level

    double
    missRate() const
    {
        return accesses ? double(misses) / double(accesses) : 0.0;
    }
};

/** The hierarchy model. See the file comment for semantics. */
class TwoLevelHierarchy
{
  public:
    explicit TwoLevelHierarchy(const HierarchyParams &params);

    /** Run one access through L1 -> prefetch buffer -> L2. */
    void access(PageId page);

    const HierarchyStats &stats() const { return stats_; }
    const HierarchyParams &params() const { return params_; }

    bool inL1(PageId page) const { return l1.map.count(page) != 0; }
    bool inL2(PageId page) const { return l2.map.count(page) != 0; }
    bool
    inPrefetch(PageId page) const
    {
        return buf.map.count(page) != 0;
    }
    std::size_t l1Resident() const { return l1.map.size(); }
    std::size_t l2Resident() const { return l2.map.size(); }
    std::size_t prefetchResident() const { return buf.map.size(); }

    /**
     * Walk every resident page and panic() on a containment
     * violation: inclusive L1 not a subset of L2, exclusive L1/L2
     * overlap, or the prefetch buffer overlapping either level.
     * O(resident); meant for tests.
     */
    void checkInvariants() const;

  private:
    /** One LRU level: recency list (front = MRU) + iterator map. */
    struct Level {
        std::list<PageId> order;
        std::unordered_map<PageId, std::list<PageId>::iterator> map;

        bool
        touch(PageId page) // -> true when present (moved to MRU)
        {
            auto it = map.find(page);
            if (it == map.end())
                return false;
            order.splice(order.begin(), order, it->second);
            return true;
        }

        void
        insertMru(PageId page)
        {
            order.push_front(page);
            map[page] = order.begin();
        }

        void
        erase(PageId page)
        {
            auto it = map.find(page);
            if (it == map.end())
                return;
            order.erase(it->second);
            map.erase(it);
        }

        PageId
        popLru()
        {
            PageId victim = order.back();
            order.pop_back();
            map.erase(victim);
            return victim;
        }
    };

    /** Demand-fill @p page into the hierarchy (not counted here). */
    void fill(PageId page);
    void fillL2Inclusive(PageId page);
    void demoteToL2(PageId victim);
    void issuePrefetches(PageId page);

    HierarchyParams params_;
    HierarchyStats stats_;
    Level l1, l2;
    Level buf; //!< prefetch FIFO (insertMru + popLru = FIFO; no touch)
};

/** Replay every page of @p src through a fresh hierarchy. */
HierarchyStats replayHierarchy(PageSource &src,
                               const HierarchyParams &params);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_HIERARCHY_HH
