/**
 * @file
 * Two-level (local DRAM + remote memory blade) reference simulator.
 *
 * The seed's per-access replay: a virtual ReplacementPolicy for the
 * local level and an unordered_map for cold-miss accounting. Misses
 * are remote-blade accesses. Mirrors the paper's trace-driven
 * methodology (Section 3.4): exclusive hierarchy, the victim
 * writeback decoupled from the critical-path fetch. The allocation-
 * free kernels in memblade/replay.hh must match it hit for hit.
 */

#ifndef WSC_ORACLES_TWO_LEVEL_HH
#define WSC_ORACLES_TWO_LEVEL_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "memblade/replacement.hh"
#include "memblade/replay.hh"
#include "memblade/trace.hh"

namespace wsc {
namespace memblade {

/**
 * Two-level memory simulator over one replacement policy.
 */
class TwoLevelMemory
{
  public:
    /**
     * @param localFrames Local DRAM size in pages.
     * @param kind Replacement policy for the local level.
     * @param rng Used by randomized policies.
     */
    TwoLevelMemory(std::size_t localFrames, PolicyKind kind, Rng rng);

    /** Touch one page, updating statistics. */
    void access(PageId page);

    const ReplayStats &stats() const { return stats_; }

    /** Replay @p n accesses from @p gen. */
    void replay(TraceGenerator &gen, std::uint64_t n);

  private:
    std::unique_ptr<ReplacementPolicy> policy;
    ReplayStats stats_;
    std::unordered_map<PageId, bool> seen; //!< for cold-miss accounting
};

} // namespace memblade
} // namespace wsc

#endif // WSC_ORACLES_TWO_LEVEL_HH
