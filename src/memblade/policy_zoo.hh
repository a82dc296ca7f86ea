/**
 * @file
 * Replacement-policy zoo: ARC, SLRU, 2Q, and LFUDA beyond the paper's
 * LRU/Random/Clock trio.
 *
 * The paper expected an implementable policy to land between LRU and
 * random (Section 3.4); modern tiered-memory and flash-cache stacks
 * ship adaptive policies instead, so the zoo lets the memory-blade and
 * remote-disk studies ask whether the 2008 conclusions survive better
 * replacement. Each policy comes in two forms, the replay.hh oracle
 * idiom:
 *
 *  - a *reference* per-access implementation (ReplacementPolicy
 *    subclass over std::list/unordered_map, readable and obviously
 *    faithful to the published algorithm), and
 *  - a *kernel* (flat arenas, intrusive index-linked lists, a
 *    PageSlotMap directory; no per-access allocation) used by the
 *    batched replay drivers.
 *
 * Determinism contract: kernel and reference make exactly the same
 * hit/miss decision on every access of every trace — both implement
 *  the same algorithm with the same deterministic tie-breaks, and
 * test_policy_zoo + bench_trace_replay enforce the identity across
 * workloads and capacities. None of the four policies consumes
 * randomness.
 *
 * Algorithms (deterministic tie-breaks spelled out):
 *
 *  - ARC (Megiddo & Modha, FAST'03 Fig. 4): cache lists T1 (seen
 *    once) and T2 (seen twice+), ghost lists B1/B2, integer target p
 *    adapted on ghost hits by max(1, |Bother|/|Bhit|). REPLACE demotes
 *    the T1 LRU when |T1| > p (or |T1| == p on a B2 hit), else the T2
 *    LRU; if the chosen side is empty it demotes from the other
 *    (defensive, identical in both forms).
 *  - SLRU (Karedla et al.): protected segment of floor(frames/2)
 *    frames, the rest probationary. Misses enter the probationary
 *    MRU; a probationary hit promotes to the protected MRU, demoting
 *    the protected LRU back to the probationary MRU when over
 *    capacity; eviction is the probationary LRU.
 *  - 2Q full version (Johnson & Shasha, VLDB'94): FIFO A1in of
 *    Kin = max(1, frames/4), ghost FIFO A1out of Kout = max(1,
 *    frames/2), LRU Am for the rest of the cache. A1in hits do not
 *    reorder; an A1out ghost hit admits to Am.
 *  - LFUDA (Arlitt et al.): key = in-cache reference count + global
 *    age L; L is set to the victim's key on every eviction; the
 *    victim is the minimum (key, insertion-sequence) pair, so ties
 *    break FIFO.
 */

#ifndef WSC_MEMBLADE_POLICY_ZOO_HH
#define WSC_MEMBLADE_POLICY_ZOO_HH

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "memblade/replacement.hh"
#include "memblade/replay.hh"

namespace wsc {
namespace memblade {

// --------------------------------------------------------------------
// Reference implementations (the per-access oracles).
// --------------------------------------------------------------------

/** ARC reference: four std::lists plus an iterator map. */
class ArcPolicy : public ReplacementPolicy
{
  public:
    explicit ArcPolicy(std::size_t frames);

    bool access(PageId page) override;
    std::size_t resident() const override { return t1.size() + t2.size(); }
    std::string name() const override { return "arc"; }

  private:
    enum List : std::uint8_t { T1, T2, B1, B2 };
    struct Where {
        List list;
        std::list<PageId>::iterator it;
    };

    std::list<PageId> &listOf(List l);
    void replace(bool inB2);

    std::size_t c;      //!< cache capacity (frames)
    std::size_t target = 0; //!< p: adaptive T1 target size
    std::list<PageId> t1, t2, b1, b2; //!< front = MRU
    std::unordered_map<PageId, Where> map;
};

/** SLRU reference: probationary + protected segment lists. */
class SlruPolicy : public ReplacementPolicy
{
  public:
    explicit SlruPolicy(std::size_t frames);

    bool access(PageId page) override;
    std::size_t
    resident() const override
    {
        return prob.size() + prot.size();
    }
    std::string name() const override { return "slru"; }

  private:
    struct Where {
        bool isProtected;
        std::list<PageId>::iterator it;
    };

    std::size_t probCap, protCap;
    std::list<PageId> prob, prot; //!< front = MRU
    std::unordered_map<PageId, Where> map;
};

/** 2Q (full version) reference: A1in/A1out FIFOs + Am LRU. */
class TwoQPolicy : public ReplacementPolicy
{
  public:
    explicit TwoQPolicy(std::size_t frames);

    bool access(PageId page) override;
    std::size_t
    resident() const override
    {
        return a1in.size() + am.size();
    }
    std::string name() const override { return "2q"; }

  private:
    enum List : std::uint8_t { A1in, A1out, Am };
    struct Where {
        List list;
        std::list<PageId>::iterator it;
    };

    void reclaimFor();

    std::size_t frames, kin, kout;
    std::list<PageId> a1in, a1out, am; //!< front = newest/MRU
    std::unordered_map<PageId, Where> map;
};

/** LFU-with-dynamic-aging reference: an ordered (key, seq) victim map. */
class LfudaPolicy : public ReplacementPolicy
{
  public:
    explicit LfudaPolicy(std::size_t frames);

    bool access(PageId page) override;
    std::size_t resident() const override { return map.size(); }
    std::string name() const override { return "lfuda"; }

  private:
    struct Entry {
        std::uint64_t count;
        std::uint64_t key; //!< count + age at last touch
        std::uint64_t seq; //!< insertion sequence (FIFO tie-break)
    };

    std::size_t frames;
    std::uint64_t age = 0;  //!< L: key of the last eviction victim
    std::uint64_t nextSeq = 0;
    std::unordered_map<PageId, Entry> map;
    /** (key, seq) -> page, ordered; begin() is the victim. */
    std::map<std::pair<std::uint64_t, std::uint64_t>, PageId> order;
};

// --------------------------------------------------------------------
// Kernels (flat arenas, no per-access allocation).
// --------------------------------------------------------------------

namespace zoo_detail {

constexpr std::uint32_t kNull = ~std::uint32_t(0);

/** A node of an intrusive list over a shared arena. */
struct Node {
    PageId page = 0;
    std::uint32_t prev = kNull, next = kNull;
    std::uint8_t tag = 0; //!< which list the node is on
};

/** Intrusive list endpoints; nodes live in the owner's arena. */
struct NodeList {
    std::uint32_t head = kNull, tail = kNull; //!< head = MRU/front
    std::size_t size = 0;
};

void pushFront(std::vector<Node> &nodes, NodeList &list,
               std::uint32_t i);
void unlink(std::vector<Node> &nodes, NodeList &list, std::uint32_t i);

} // namespace zoo_detail

/** ARC kernel: T1/T2/B1/B2 as intrusive lists over one 2c-node arena. */
class ArcKernel
{
  public:
    /** @param pageBound See PageSlotMap (0 = unbounded ids). */
    explicit ArcKernel(std::size_t frames, std::uint64_t pageBound = 0);

    /** Touch @p page; returns true if it was resident (hit). */
    bool access(PageId page);

    /** See PageSlotMap::prefetch. */
    void prefetch(PageId page) const { map.prefetch(page); }

    std::size_t resident() const { return t1.size + t2.size; }

  private:
    enum Tag : std::uint8_t { T1, T2, B1, B2 };

    zoo_detail::NodeList &listOf(std::uint8_t tag);
    void moveTo(std::uint32_t i, Tag to);
    void dropLru(Tag tag);
    std::uint32_t allocNode(PageId page, Tag tag);
    void replace(bool inB2);

    std::size_t c;
    std::size_t target = 0;
    std::vector<zoo_detail::Node> nodes; //!< 2c-node arena
    std::vector<std::uint32_t> freeNodes;
    zoo_detail::NodeList t1, t2, b1, b2;
    PageSlotMap map; //!< page -> node index (cache + ghosts)
};

/** SLRU kernel: two intrusive segments over one frame arena. */
class SlruKernel
{
  public:
    /** @param pageBound See PageSlotMap (0 = unbounded ids). */
    explicit SlruKernel(std::size_t frames,
                        std::uint64_t pageBound = 0);

    bool access(PageId page);
    void prefetch(PageId page) const { map.prefetch(page); }
    std::size_t resident() const { return prob.size + prot.size; }

  private:
    enum Tag : std::uint8_t { Prob, Prot };

    std::size_t probCap, protCap;
    std::size_t used = 0;
    std::vector<zoo_detail::Node> nodes;
    zoo_detail::NodeList prob, prot;
    PageSlotMap map;
};

/** 2Q kernel: A1in/A1out/Am intrusive lists over one arena. */
class TwoQKernel
{
  public:
    /** @param pageBound See PageSlotMap (0 = unbounded ids). */
    explicit TwoQKernel(std::size_t frames,
                        std::uint64_t pageBound = 0);

    bool access(PageId page);
    void prefetch(PageId page) const { map.prefetch(page); }
    std::size_t resident() const { return a1in.size + am.size; }

  private:
    enum Tag : std::uint8_t { A1in, A1out, Am };

    void reclaimFor();
    std::uint32_t allocNode(PageId page, Tag tag);
    void dropTail(zoo_detail::NodeList &list);

    std::size_t frames_, kin, kout;
    std::vector<zoo_detail::Node> nodes; //!< frames + kout nodes
    std::vector<std::uint32_t> freeNodes;
    zoo_detail::NodeList a1in, a1out, am;
    PageSlotMap map;
};

/** LFUDA kernel: indexed binary min-heap over a flat slot arena. */
class LfudaKernel
{
  public:
    /** @param pageBound See PageSlotMap (0 = unbounded ids). */
    explicit LfudaKernel(std::size_t frames,
                         std::uint64_t pageBound = 0);

    bool access(PageId page);
    void prefetch(PageId page) const { map.prefetch(page); }
    std::size_t resident() const { return used; }

  private:
    bool less(std::uint32_t a, std::uint32_t b) const;
    void siftUp(std::size_t heapPos);
    void siftDown(std::size_t heapPos);

    std::size_t frames_;
    std::size_t used = 0;
    std::uint64_t age = 0;
    std::uint64_t nextSeq = 0;
    std::vector<PageId> pages;
    std::vector<std::uint64_t> counts, keys, seqs;
    std::vector<std::uint32_t> heap; //!< heap of slot indices
    std::vector<std::uint32_t> pos;  //!< slot -> heap position
    PageSlotMap map;
};

/**
 * Devirtualized policy dispatch shared by every batched replay driver:
 * construct the kernel for @p kind and invoke @p fn on it. The Rng is
 * consumed only by PolicyKind::Random (in RandomPolicy's draw order);
 * every other kernel is deterministic.
 */
template <typename Fn>
auto
withPolicyKernel(PolicyKind kind, std::size_t frames,
                 std::uint64_t pageBound, Rng kernelRng, Fn &&fn)
{
    switch (kind) {
      case PolicyKind::Lru: {
        LruKernel k(frames, pageBound);
        return fn(k);
      }
      case PolicyKind::Random: {
        RandomKernel k(frames, kernelRng, pageBound);
        return fn(k);
      }
      case PolicyKind::Clock: {
        ClockKernel k(frames, pageBound);
        return fn(k);
      }
      case PolicyKind::Arc: {
        ArcKernel k(frames, pageBound);
        return fn(k);
      }
      case PolicyKind::Slru: {
        SlruKernel k(frames, pageBound);
        return fn(k);
      }
      case PolicyKind::TwoQ: {
        TwoQKernel k(frames, pageBound);
        return fn(k);
      }
      case PolicyKind::Lfuda: {
        LfudaKernel k(frames, pageBound);
        return fn(k);
      }
    }
    panic("unknown policy kind");
}

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_POLICY_ZOO_HH
