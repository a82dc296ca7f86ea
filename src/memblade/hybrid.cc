#include "memblade/hybrid.hh"

#include <cmath>

#include "memblade/page_source.hh"
#include "memblade/policy_zoo.hh"
#include "memblade/replay.hh"
#include "util/logging.hh"

namespace wsc {
namespace memblade {

namespace {

template <typename LocalKernel, typename DramKernel>
HybridStats
hybridLoop(LocalKernel &local, DramKernel &dram_tier, PageSource &src)
{
    HybridStats out;
    ColdTracker seen(src.pageBound());
    for (auto b = src.next(); !b.empty(); b = src.next()) {
        for (PageId page : b) {
            ++out.local.accesses;
            if (local.access(page)) {
                ++out.local.hits;
                continue;
            }
            ++out.local.misses;
            if (seen.firstTouch(page)) {
                ++out.local.coldMisses;
                // First touch populates the hierarchy; it is not a
                // blade swap, but the page enters the DRAM tier's
                // history.
                dram_tier.access(page);
                continue;
            }
            // Exclusive swap with the blade: DRAM tier first, flash
            // tail.
            if (dram_tier.access(page))
                ++out.dramHits;
            else
                ++out.flashHits;
        }
    }
    return out;
}

} // namespace

HybridStats
replayHybrid(const TraceProfile &profile, double localFraction,
             const HybridParams &params, PolicyKind kind,
             std::uint64_t accesses, std::uint64_t seed)
{
    WSC_ASSERT(localFraction > 0.0 && localFraction < 1.0,
               "local fraction out of (0, 1)");
    WSC_ASSERT(params.dramTierFraction > 0.0 &&
                   params.dramTierFraction <= 1.0,
               "DRAM tier fraction out of (0, 1]");

    auto local_frames = std::size_t(
        std::ceil(double(profile.footprintPages) * localFraction));
    double remote_pages =
        double(profile.footprintPages) * (1.0 - localFraction);
    auto dram_frames = std::size_t(
        std::ceil(remote_pages * params.dramTierFraction));

    // Same split order as the original policy-based implementation
    // (local, DRAM tier, generator) keeps results bit-identical.
    Rng rng(seed);
    Rng local_rng = rng.split();
    Rng dram_rng = rng.split();
    TraceGenerator gen(profile, rng.split());

    std::uint64_t bound = profile.footprintPages;
    PageSource src(gen, accesses, bound);
    // Both tiers run the same policy kind; the nested dispatch keeps
    // the kernel construction order (local, then DRAM tier) identical
    // to the original switch so Random stays bit-identical.
    return withPolicyKernel(
        kind, local_frames, bound, local_rng, [&](auto &local) {
            return withPolicyKernel(
                kind, dram_frames, bound, dram_rng,
                [&](auto &dram_tier) {
                    return hybridLoop(local, dram_tier, src);
                });
        });
}

double
hybridSlowdown(const HybridStats &stats, const TraceProfile &profile,
               const HybridParams &params)
{
    double warm = double(stats.dramHits + stats.flashHits);
    if (stats.local.accesses == 0 || warm == 0.0)
        return 0.0;
    double per_access_warm = warm / double(stats.local.accesses);
    double mean_stall =
        (double(stats.dramHits) *
             params.dramLink.stallSecondsPerMiss +
         double(stats.flashHits) * params.flashStallSeconds) /
        warm;
    return per_access_warm * profile.touchesPerSecond * mean_stall;
}

SharedMemoryOutcome
applyHybridSharing(const platform::ServerConfig &server,
                   const BladeParams &blade, Provisioning scheme,
                   const HybridParams &params)
{
    auto base = applyMemorySharing(server, blade, scheme);

    double base_cost = server.memory.dollars;
    double base_watts = server.memory.watts;
    double remote_fraction = (scheme == Provisioning::Static)
                                 ? 1.0 - blade.localFraction
                                 : 0.85 - blade.localFraction;
    double remote_cost =
        base_cost * remote_fraction * (1.0 - blade.remoteCostDiscount);
    double remote_watts =
        base_watts * remote_fraction * (1.0 - blade.remotePowerSaving);

    // Keep dramTierFraction of the remote tier as DRAM; the rest
    // becomes flash at the configured cost/power ratios.
    double flash_share = 1.0 - params.dramTierFraction;
    SharedMemoryOutcome out = base;
    out.memoryDollars -=
        remote_cost * flash_share * (1.0 - params.flashCostRatio);
    out.memoryWatts -=
        remote_watts * flash_share * (1.0 - params.flashPowerRatio);
    return out;
}

} // namespace memblade
} // namespace wsc
