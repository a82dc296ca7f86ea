/**
 * @file
 * Hybrid DRAM/flash memory-blade organization.
 *
 * Section 3.4 lists "DRAM/flash hybrid memory organizations" among
 * the optimizations the blade architecture opens up: back the blade
 * with a small DRAM tier (hot remote pages) and a large flash tier
 * (the cold tail), trading fetch latency for capacity cost.
 *
 * The simulator stacks a second replacement level behind the local
 * memory: local miss -> blade DRAM (LRU over dramFrames) -> blade
 * flash. Slowdown combines the two stall magnitudes; cost and power
 * replace the remote DRAM with the DRAM-tier + flash-tier mix.
 */

#ifndef WSC_MEMBLADE_HYBRID_HH
#define WSC_MEMBLADE_HYBRID_HH

#include "memblade/blade.hh"
#include "memblade/latency.hh"
#include "memblade/replay.hh"

namespace wsc {
namespace memblade {

/** Hybrid-blade configuration. */
struct HybridParams {
    /** Blade DRAM tier as a fraction of the remote footprint. */
    double dramTierFraction = 0.25;
    /** Stall for a DRAM-tier hit (the plain remote stall). */
    RemoteLink dramLink = RemoteLink::pcieX4();
    /** Stall for a flash-tier hit: flash read + transfer. */
    double flashStallSeconds = 25.0e-6;
    /** Flash is this much cheaper per GB than the remote DRAM. */
    double flashCostRatio = 0.1;
    /** Flash tier power per GB relative to powered-down DRAM. */
    double flashPowerRatio = 0.5;
};

/** Replay statistics for the three-level hierarchy. */
struct HybridStats {
    ReplayStats local;          //!< local-tier statistics
    std::uint64_t dramHits = 0; //!< local misses served by blade DRAM
    std::uint64_t flashHits = 0; //!< ... by blade flash

    /** Fraction of local warm misses absorbed by the DRAM tier. */
    double
    dramHitRate() const
    {
        auto total = dramHits + flashHits;
        return total ? double(dramHits) / double(total) : 0.0;
    }
};

/**
 * Replay a profile through local memory + hybrid blade.
 *
 * @param profile Trace profile.
 * @param localFraction Local memory as a fraction of the footprint.
 * @param params Hybrid configuration (DRAM tier sized as a fraction
 *        of the *remote* portion of the footprint).
 * @param kind Replacement policy used at both levels.
 * @param accesses Trace length.
 * @param seed RNG seed.
 */
HybridStats replayHybrid(const TraceProfile &profile,
                         double localFraction,
                         const HybridParams &params, PolicyKind kind,
                         std::uint64_t accesses, std::uint64_t seed);

/** Execution slowdown of the hybrid configuration. */
double hybridSlowdown(const HybridStats &stats,
                      const TraceProfile &profile,
                      const HybridParams &params);

/**
 * Memory cost/power outcome with a hybrid blade: the remote tier's
 * DRAM is reduced to the DRAM-tier fraction and the rest becomes
 * flash.
 */
SharedMemoryOutcome applyHybridSharing(
    const platform::ServerConfig &server, const BladeParams &blade,
    Provisioning scheme, const HybridParams &params);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_HYBRID_HH
