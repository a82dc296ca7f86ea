/**
 * @file
 * High-throughput trace-replay engine: allocation-free cache kernels.
 *
 * The trace studies (paper Sections 3.4 and 3.5) replay millions of
 * page accesses per design-space cell, and the seed implementation —
 * virtual dispatch per access, a std::list + unordered_map LRU, a
 * node allocation per miss — was the slowest kernel in the repo. This
 * module provides drop-in-equivalent kernels built for throughput:
 *
 *  - PageSlotMap: a flat open-addressing (linear-probe, backshift-
 *    delete) page -> frame-slot hash table sized at construction; no
 *    per-access allocation, one or two cache lines per probe.
 *  - LruKernel: an intrusive index-linked LRU list over a
 *    preallocated frame arena (no list nodes, splice = 6 index
 *    writes).
 *  - RandomKernel / ClockKernel: the same flat table over a slot
 *    vector / clock ring.
 *  - ColdTracker: first-touch accounting via a footprint-sized bitset
 *    instead of an unordered_map per page.
 *
 * Every replay entry point runs one loop: policy dispatch is
 * devirtualized (one switch per replay, the loop instantiated per
 * kernel) and page ids arrive in batches from a PageSource, whatever
 * their source — generator, page array or streaming trace.
 *
 * Determinism contract: each kernel makes bit-identical hit/miss
 * decisions to its legacy ReplacementPolicy counterpart (the legacy
 * classes are kept as the per-access validation oracle), and
 * RandomKernel draws its Rng in exactly the same order as
 * RandomPolicy.
 */

#ifndef WSC_MEMBLADE_REPLAY_HH
#define WSC_MEMBLADE_REPLAY_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "memblade/page_source.hh"
#include "memblade/replacement.hh"
#include "memblade/trace.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace wsc {
namespace memblade {

class TraceStream;

/** Aggregate statistics of one trace replay. */
struct ReplayStats {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0; //!< remote-blade page fetches
    std::uint64_t coldMisses = 0; //!< first-touch (not remote fetches)

    double
    missRate() const
    {
        return accesses ? double(misses) / double(accesses) : 0.0;
    }

    /** Miss rate excluding cold (first-touch) misses. */
    double
    warmMissRate() const
    {
        return accesses
                   ? double(misses - coldMisses) / double(accesses)
                   : 0.0;
    }
};

/**
 * Page -> frame-slot map with two representations picked at
 * construction:
 *
 *  - Direct-mapped: when the caller declares a bounded id space
 *    (pageBound in (0, kDirectLimit]), a flat slot-per-page array.
 *    Lookup is a single indexed load — no hashing, no probing — and
 *    the array (4 bytes/page) is smaller than a hash table would be
 *    whenever the footprint is within ~8x of the frame count.
 *  - Open-addressing hash: for sparse or unbounded id spaces, linear
 *    probing over a power-of-two table held at <= 50% load; deletion
 *    uses backward-shift (no tombstones), so probe chains never
 *    degrade over a long replay.
 *
 * Both are sized once at construction and never rehash or allocate
 * afterwards, and both implement exactly the same map, so replay
 * decisions cannot depend on the representation.
 *
 * The all-ones page id is reserved as the empty marker; synthetic
 * traces never produce it (ids are < footprintPages) and a page
 * array's PageSource asserts it away for user traces.
 */
class PageSlotMap
{
  public:
    static constexpr PageId kEmptyKey = ~PageId(0);
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /** Largest declared bound served direct-mapped: 16M pages = a
     * 64 MiB slot array. Every synthetic profile is far below it. */
    static constexpr std::uint64_t kDirectLimit = std::uint64_t(1)
                                                  << 24;

    /**
     * @param maxEntries Most entries ever resident (the frame count).
     * @param pageBound All ids are < pageBound (0 = unbounded); a
     *        small bound selects the direct-mapped representation.
     */
    explicit PageSlotMap(std::size_t maxEntries,
                         std::uint64_t pageBound = 0);

    /** Slot of @p page, or kNoSlot. */
    std::uint32_t
    find(PageId page) const
    {
        if (!direct.empty())
            return page < direct.size() ? direct[std::size_t(page)]
                                        : kNoSlot;
        std::size_t i = idealIndex(page);
        for (;;) {
            const Entry &e = table[i];
            if (e.key == page)
                return e.slot;
            if (e.key == kEmptyKey)
                return kNoSlot;
            i = (i + 1) & mask;
        }
    }

    /** Insert @p page (must not be present). */
    void
    insert(PageId page, std::uint32_t slot)
    {
        ++count;
        if (!direct.empty()) {
            WSC_ASSERT(page < direct.size(),
                       "page id beyond the declared bound");
            direct[std::size_t(page)] = slot;
            return;
        }
        std::size_t i = idealIndex(page);
        while (table[i].key != kEmptyKey)
            i = (i + 1) & mask;
        table[i] = Entry{page, slot};
    }

    /** Remove @p page (must be present). */
    void erase(PageId page);

    /** Pull @p page's lookup line toward the cache ahead of find(). */
    void
    prefetch(PageId page) const
    {
#if defined(__GNUC__) || defined(__clang__)
        if (!direct.empty()) {
            if (page < direct.size())
                __builtin_prefetch(direct.data() + page);
            return;
        }
        __builtin_prefetch(table.data() + idealIndex(page));
#else
        (void)page;
#endif
    }

    std::size_t size() const { return count; }

  private:
    struct Entry {
        PageId key;
        std::uint32_t slot;
    };

    std::size_t
    idealIndex(PageId page) const
    {
        return std::size_t(hashMix(page)) & mask;
    }

    std::vector<std::uint32_t> direct; //!< slot per page, or empty
    std::vector<Entry> table;
    std::size_t mask = 0;
    std::size_t count = 0;
};

/**
 * Exact LRU over a preallocated frame arena: the recency order is an
 * intrusive doubly-linked list of frame indices, so a hit costs one
 * table probe plus an index splice and a miss never allocates.
 *
 * Bit-identical decisions to LruPolicy.
 */
class LruKernel
{
  public:
    /** @param pageBound See PageSlotMap (0 = unbounded ids). */
    explicit LruKernel(std::size_t frames, std::uint64_t pageBound = 0);

    /** Touch @p page; returns true if it was resident (hit). */
    bool
    access(PageId page)
    {
        std::uint32_t slot = map.find(page);
        if (slot != PageSlotMap::kNoSlot) {
            moveToFront(slot);
            return true;
        }
        if (size_ < frames_) {
            slot = std::uint32_t(size_++);
        } else {
            slot = tail;
            map.erase(pages[slot]);
            // Unlink the tail; it becomes the new frame.
            tail = links[slot].prev;
            if (tail != kNull)
                links[tail].next = kNull;
            else
                head = kNull; // single-frame cache emptied
        }
        pages[slot] = page;
        linkFront(slot);
        map.insert(page, slot);
        return false;
    }

    /** See PageSlotMap::prefetch. */
    void prefetch(PageId page) const { map.prefetch(page); }

    std::size_t resident() const { return map.size(); }
    std::size_t frames() const { return frames_; }

  private:
    static constexpr std::uint32_t kNull = ~std::uint32_t(0);

    /** Recency links only: the hit path (find + splice) never reads
     * the frame's page, so links stay 8 bytes — eight frames per
     * cache line — and the pages array is touched only on eviction
     * and refill. */
    struct Link {
        std::uint32_t prev, next;
    };

    void
    linkFront(std::uint32_t slot)
    {
        links[slot].prev = kNull;
        links[slot].next = head;
        if (head != kNull)
            links[head].prev = slot;
        head = slot;
        if (tail == kNull)
            tail = slot;
    }

    void
    moveToFront(std::uint32_t slot)
    {
        if (slot == head)
            return;
        // Unlink.
        std::uint32_t p = links[slot].prev, n = links[slot].next;
        links[p].next = n;
        if (n != kNull)
            links[n].prev = p;
        else
            tail = p;
        // Relink at head.
        links[slot].prev = kNull;
        links[slot].next = head;
        links[head].prev = slot;
        head = slot;
    }

    std::size_t frames_;
    std::size_t size_ = 0;
    std::uint32_t head = kNull, tail = kNull;
    std::vector<Link> links;
    std::vector<PageId> pages;
    PageSlotMap map;
};

/**
 * Random replacement over a flat slot vector. Draws its Rng in
 * exactly the same order as RandomPolicy (one uniformInt per
 * miss-when-full), so replays are bit-identical to the legacy policy.
 */
class RandomKernel
{
  public:
    /** @param pageBound See PageSlotMap (0 = unbounded ids). */
    RandomKernel(std::size_t frames, Rng rng,
                 std::uint64_t pageBound = 0);

    bool
    access(PageId page)
    {
        if (map.find(page) != PageSlotMap::kNoSlot)
            return true;
        if (slots.size() < frames_) {
            map.insert(page, std::uint32_t(slots.size()));
            slots.push_back(page);
            return false;
        }
        auto idx =
            std::uint32_t(rng.uniformInt(0, std::uint64_t(frames_) - 1));
        map.erase(slots[idx]);
        slots[idx] = page;
        map.insert(page, idx);
        return false;
    }

    /** See PageSlotMap::prefetch. */
    void prefetch(PageId page) const { map.prefetch(page); }

    std::size_t resident() const { return map.size(); }

  private:
    std::size_t frames_;
    Rng rng;
    std::vector<PageId> slots;
    PageSlotMap map;
};

/** Clock (second chance) over a flat ring; bit-identical to
 * ClockPolicy. */
class ClockKernel
{
  public:
    /** @param pageBound See PageSlotMap (0 = unbounded ids). */
    explicit ClockKernel(std::size_t frames,
                         std::uint64_t pageBound = 0);

    bool
    access(PageId page)
    {
        std::uint32_t slot = map.find(page);
        if (slot != PageSlotMap::kNoSlot) {
            referenced[slot] = 1;
            return true;
        }
        if (ring.size() < frames_) {
            map.insert(page, std::uint32_t(ring.size()));
            ring.push_back(page);
            referenced.push_back(1);
            return false;
        }
        while (referenced[hand]) {
            referenced[hand] = 0;
            hand = (hand + 1 == frames_) ? 0 : hand + 1;
        }
        map.erase(ring[hand]);
        ring[hand] = page;
        referenced[hand] = 1;
        map.insert(page, std::uint32_t(hand));
        hand = (hand + 1 == frames_) ? 0 : hand + 1;
        return false;
    }

    /** See PageSlotMap::prefetch. */
    void prefetch(PageId page) const { map.prefetch(page); }

    std::size_t resident() const { return map.size(); }

  private:
    std::size_t frames_;
    std::size_t hand = 0;
    std::vector<PageId> ring;
    std::vector<std::uint8_t> referenced;
    PageSlotMap map;
};

/**
 * First-touch (cold-miss) tracker. For bounded id spaces — synthetic
 * traces are bounded by the profile footprint — a bitset of one bit
 * per page; for sparse/unbounded spaces it falls back to a hash set.
 */
class ColdTracker
{
  public:
    /** @param pageBound Ids are < pageBound (0 = unbounded/sparse). */
    explicit ColdTracker(std::uint64_t pageBound);

    /** Mark @p page touched; returns true on first touch. */
    bool
    firstTouch(PageId page)
    {
        if (!bits.empty()) {
            std::uint64_t &word = bits[std::size_t(page >> 6)];
            std::uint64_t m = std::uint64_t(1) << (page & 63);
            if (word & m)
                return false;
            word |= m;
            return true;
        }
        return sparse.insert(page).second;
    }

  private:
    /** Largest bound served by the bitset: 1 << 28 pages = 32 MiB. */
    static constexpr std::uint64_t kBitsetLimit = std::uint64_t(1) << 28;

    std::vector<std::uint64_t> bits;
    std::unordered_set<PageId> sparse;
};

/** A replay split into a warmup prefix and a measured remainder. */
struct WindowedReplay {
    ReplayStats total;    //!< whole replay, warmup included
    ReplayStats measured; //!< accesses at index >= warmup only
};

/**
 * Batched, devirtualized replay of every page of @p src through one
 * kernel of @p kind with @p frames frames: the one policy replay
 * every other entry point below runs.
 *
 * Serves the memory-blade replays (warmup = 0, use .total) and the
 * flash-cache steady-state measurement (warmup = accesses/2, use
 * .measured); cold misses are tracked across the whole replay, sized
 * by the source's page bound. The measured window is the running
 * total less a snapshot taken at page index @p warmup, so it costs
 * nothing per access.
 *
 * @param kernelRng Consumed only by PolicyKind::Random, in the same
 *        order as the legacy policy.
 */
WindowedReplay replayWindowed(PageSource &src, PolicyKind kind,
                              std::size_t frames, std::uint64_t warmup,
                              Rng kernelRng);

/** replayWindowed over the next @p accesses pages of @p gen, ids
 * < @p pageBound. */
WindowedReplay replayWindowed(TraceGenerator &gen, PolicyKind kind,
                              std::size_t frames,
                              std::uint64_t pageBound,
                              std::uint64_t accesses,
                              std::uint64_t warmup, Rng kernelRng);

/**
 * Replay an explicit page sequence through one kernel (the fast path
 * behind trace_io's replayTrace).
 *
 * @param pageBound Ids are < pageBound (0 = sparse cold tracking).
 */
ReplayStats replayPages(const PageId *pages, std::size_t n,
                        PolicyKind kind, std::size_t frames,
                        std::uint64_t pageBound, Rng kernelRng);

/**
 * Replay the rest of a streaming trace through one kernel of @p kind
 * with @p frames frames, batched straight off the mapping. The kernel
 * and cold tracker are sized from the header page bound — no
 * pre-scan.
 *
 * @param kernelRng Consumed only by PolicyKind::Random.
 */
ReplayStats replayStream(TraceStream &ts, PolicyKind kind,
                         std::size_t frames, Rng kernelRng);

/**
 * Miss rate of a profile at a given local fraction: a two-level
 * memory (local DRAM + remote blade) whose local level holds
 * ceil(footprint * localFraction) frames, replaying the trace of
 * profileTrace(profile, seed).
 *
 * @param profile Trace profile.
 * @param localFraction Local memory as a fraction of the footprint.
 * @param kind Replacement policy.
 * @param accesses Trace length.
 * @param seed RNG seed.
 */
ReplayStats replayProfile(const TraceProfile &profile,
                          double localFraction, PolicyKind kind,
                          std::uint64_t accesses, std::uint64_t seed);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_REPLAY_HH
