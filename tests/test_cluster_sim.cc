/**
 * @file
 * Tests for the multi-server cluster simulation (the paper's
 * aggregation-assumption validation).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <ios>

#include "perfsim/cluster_sim.hh"
#include "perfsim/perf_eval.hh"
#include "platform/catalog.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "workloads/webmail.hh"
#include "workloads/websearch.hh"
#include "workloads/ytube.hh"

namespace {

using namespace wsc;
using namespace wsc::perfsim;

StationConfig
stations()
{
    PerfEvaluator ev;
    workloads::Ytube yt;
    return ev.stationsFor(platform::makeSystem(
                              platform::SystemClass::Emb1),
                          yt.traits(), {});
}

SimWindow
fastWindow()
{
    SimWindow w;
    w.warmupSeconds = 3.0;
    w.measureSeconds = 15.0;
    return w;
}

std::uint64_t
mix(std::uint64_t h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return hashCombine(h, bits);
}

/** Digest of every SimResult field plus the caller's next RNG draw
 * (which pins the run's draw count). */
std::uint64_t
digest(const SimResult &r, Rng &rng)
{
    std::uint64_t h = mix(0, r.offeredRps);
    for (std::uint64_t v : {r.offered, r.completed,
                            std::uint64_t(r.saturated),
                            std::uint64_t(r.peakInFlight)})
        h = hashCombine(h, v);
    for (double v : {r.p50Latency, r.p95Latency, r.p99Latency,
                     r.meanLatency, r.qosViolationFraction,
                     r.cpuUtilization, r.diskUtilization,
                     r.nicUtilization})
        h = mix(h, v);
    for (const auto &s : r.stations) {
        h = hashCombine(h, s.name);
        h = mix(mix(h, s.utilization), s.meanDepth);
        h = hashCombine(hashCombine(h, s.completed),
                        std::uint64_t(s.peakDepth));
    }
    for (std::uint64_t v :
         {r.kernel.scheduled, r.kernel.dispatched, r.kernel.cancelled,
          r.kernel.compactions, std::uint64_t(r.kernel.peakHeap)})
        h = hashCombine(h, v);
    return hashCombine(h, rng.uniformInt(0, ~std::uint64_t(0)));
}

/** Digest of every ClusterSimResult field plus the next RNG draw. */
std::uint64_t
digest(const ClusterSimResult &r, Rng &rng)
{
    std::uint64_t h = mix(0, r.offeredRps);
    h = hashCombine(hashCombine(h, r.completed),
                    std::uint64_t(r.saturated));
    for (double v : {r.p95Latency, r.qosViolationFraction,
                     r.meanCpuUtilization, r.maxCpuUtilization})
        h = mix(h, v);
    return hashCombine(h, rng.uniformInt(0, ~std::uint64_t(0)));
}

SimWindow
pinWindow()
{
    SimWindow w;
    w.warmupSeconds = 2.0;
    w.measureSeconds = 10.0;
    return w;
}

TEST(ClusterSim, LowLoadPassesOnAllPolicies)
{
    workloads::Ytube yt;
    auto st = stations();
    for (auto policy :
         {DispatchPolicy::RoundRobin, DispatchPolicy::Random,
          DispatchPolicy::LeastOutstanding,
          DispatchPolicy::TwoChoices}) {
        Rng rng(41);
        auto r = simulateCluster(yt, st, 4, policy, 40.0, fastWindow(),
                                 rng);
        EXPECT_TRUE(r.passes(yt.qos())) << to_string(policy);
        EXPECT_GT(r.completed, 300u);
        EXPECT_FALSE(r.saturated);
    }
}

TEST(ClusterSim, OverloadFailsQos)
{
    workloads::Ytube yt;
    auto st = stations();
    Rng rng(42);
    // Single emb1 sustains ~85 rps on ytube; 4 servers cannot do 800.
    auto r = simulateCluster(yt, st, 4, DispatchPolicy::RoundRobin,
                             800.0, fastWindow(), rng);
    EXPECT_FALSE(r.passes(yt.qos()));
}

TEST(ClusterSim, LoadSpreadAcrossServers)
{
    workloads::Ytube yt;
    auto st = stations();
    Rng rng(43);
    auto r = simulateCluster(yt, st, 4, DispatchPolicy::RoundRobin,
                             100.0, fastWindow(), rng);
    // Utilization roughly even: the max is close to the mean.
    EXPECT_GT(r.meanCpuUtilization, 0.0);
    EXPECT_LT(r.maxCpuUtilization,
              2.0 * r.meanCpuUtilization + 0.05);
}

TEST(ClusterSim, ScalingNearLinearWithGoodDispatch)
{
    // The paper's aggregation assumption: a 4-node cluster sustains
    // close to 4x the single-node rate under sensible dispatch.
    workloads::Ytube yt;
    auto st = stations();
    Rng rng(44);
    SearchParams sp;
    sp.iterations = 6;
    sp.window = fastWindow();
    auto scaling = measureClusterScaling(
        yt, st, 4, DispatchPolicy::LeastOutstanding, sp, rng);
    EXPECT_GT(scaling.scalingEfficiency, 0.85);
    EXPECT_LE(scaling.scalingEfficiency, 1.1);
}

TEST(ClusterSim, RandomDispatchNoBetterThanLeastOutstanding)
{
    workloads::Ytube yt;
    auto st = stations();
    SearchParams sp;
    sp.iterations = 5;
    sp.window = fastWindow();
    Rng r1(45), r2(45);
    auto lo = measureClusterScaling(
        yt, st, 4, DispatchPolicy::LeastOutstanding, sp, r1);
    auto rnd = measureClusterScaling(yt, st, 4,
                                     DispatchPolicy::Random, sp, r2);
    EXPECT_LE(rnd.scalingEfficiency, lo.scalingEfficiency + 0.08);
}

TEST(ClusterSim, SingleServerClusterMatchesSingleSearch)
{
    workloads::Ytube yt;
    auto st = stations();
    SearchParams sp;
    sp.iterations = 6;
    sp.window = fastWindow();
    Rng rng(46);
    auto scaling = measureClusterScaling(
        yt, st, 1, DispatchPolicy::RoundRobin, sp, rng);
    EXPECT_NEAR(scaling.scalingEfficiency, 1.0, 0.15);
}

// Every SimResult field at a moderate and an overloaded rate,
// recorded before simulateInteractive became the one-server run of
// the cluster engine.
TEST(SimulateInteractive, ResultBytesPinned)
{
    const std::array<std::uint64_t, 2> want = {0x6f20479c24b99513ULL,
                                               0xa91b44305bb823a0ULL};
    auto st = stations();
    std::size_t i = 0;
    for (double rps : {60.0, 400.0}) {
        workloads::Ytube yt;
        Rng rng(60 + i);
        auto r = simulateInteractive(yt, st, rps, pinWindow(), rng);
        std::uint64_t d = digest(r, rng);
        EXPECT_EQ(d, want[i]) << "case " << i << ": 0x" << std::hex << d;
        ++i;
    }
}

// Every ClusterSimResult field for all four dispatch policies at a
// moderate and an overloaded rate.
TEST(ClusterSim, ResultBytesPinned)
{
    const std::array<std::uint64_t, 8> want = {
        0x0c418a422aaa71abULL, 0x3989542a7a69c66eULL,
        0x885147be1f357aedULL, 0x768365251ea02ff3ULL,
        0x36871ec1bc9e0dcfULL, 0xa7eb6c7d27c2a8a7ULL,
        0xf95255bc7052e7bfULL, 0xd9ed1c5d88523229ULL};
    auto st = stations();
    std::size_t i = 0;
    for (double rps : {200.0, 800.0})
        for (auto policy :
             {DispatchPolicy::RoundRobin, DispatchPolicy::Random,
              DispatchPolicy::LeastOutstanding,
              DispatchPolicy::TwoChoices}) {
            workloads::Ytube yt;
            Rng rng(70 + i);
            auto r = simulateCluster(yt, st, 4, policy, rps, pinWindow(),
                                     rng);
            std::uint64_t d = digest(r, rng);
            EXPECT_EQ(d, want[i]) << "case " << i << " ("
                                  << to_string(policy) << "): 0x"
                                  << std::hex << d;
            ++i;
        }
}

// The aggregation check's base case: a one-server round-robin cluster
// is simulateInteractive, field for field, and leaves the caller's RNG
// in the same state.
TEST(ClusterSim, SingleServerEqualsSimulateInteractive)
{
    PerfEvaluator ev;
    workloads::Ytube yt;
    workloads::Websearch ws;
    workloads::Webmail wm;
    std::uint64_t seed = 79;
    for (workloads::InteractiveWorkload *w :
         {static_cast<workloads::InteractiveWorkload *>(&yt),
          static_cast<workloads::InteractiveWorkload *>(&ws),
          static_cast<workloads::InteractiveWorkload *>(&wm)})
        for (auto sys : {platform::SystemClass::Srvr1,
                         platform::SystemClass::Emb1}) {
            auto st = ev.stationsFor(platform::makeSystem(sys),
                                     w->traits(), {});
            double bound = analyticBound(*w, st);
            for (double load : {0.3, 0.7, 0.95, 1.3}) {
                SCOPED_TRACE(w->name() + " load " +
                             std::to_string(load));
                // Odd seeds 81, 83, ...: the seeds these cases were
                // first recorded with.
                seed += 2;
                Rng r1(seed), r2(seed);
                auto one = simulateInteractive(*w, st, load * bound,
                                               pinWindow(), r1);
                auto c = simulateCluster(*w, st, 1,
                                         DispatchPolicy::RoundRobin,
                                         load * bound, pinWindow(), r2);
                EXPECT_EQ(c.offeredRps, one.offeredRps);
                EXPECT_EQ(c.completed, one.completed);
                EXPECT_EQ(c.p95Latency, one.p95Latency);
                EXPECT_EQ(c.qosViolationFraction,
                          one.qosViolationFraction);
                EXPECT_EQ(c.meanCpuUtilization, one.cpuUtilization);
                EXPECT_EQ(c.maxCpuUtilization, one.cpuUtilization);
                EXPECT_EQ(c.saturated,
                          one.saturated ||
                              double(one.completed) <
                                  0.97 * double(one.offered));
                EXPECT_EQ(c.passes(w->qos()), one.passes(w->qos()));
                EXPECT_EQ(r1.uniformInt(0, ~std::uint64_t(0)),
                          r2.uniformInt(0, ~std::uint64_t(0)));
            }
        }
}

TEST(ClusterSim, InvalidArgsPanic)
{
    workloads::Ytube yt;
    auto st = stations();
    Rng rng(47);
    EXPECT_THROW(simulateCluster(yt, st, 0, DispatchPolicy::RoundRobin,
                                 10.0, fastWindow(), rng),
                 PanicError);
    EXPECT_THROW(simulateCluster(yt, st, 2, DispatchPolicy::RoundRobin,
                                 0.0, fastWindow(), rng),
                 PanicError);
}

// The open-loop engine checks its window before simulating: a zero or
// negative measurement window used to run and leave a zero metric
// denominator for the caller to trip over.
TEST(ClusterSim, InvalidWindowPanics)
{
    workloads::Ytube yt;
    auto st = stations();
    for (int bad = 0; bad < 4; ++bad) {
        SimWindow w = fastWindow();
        if (bad == 0)
            w.measureSeconds = 0.0;
        else if (bad == 1)
            w.measureSeconds = -5.0;
        else if (bad == 2)
            w.warmupSeconds = -20.0;
        else
            w.maxInFlight = 0;
        Rng rng(51);
        EXPECT_THROW(simulateCluster(yt, st, 2,
                                     DispatchPolicy::RoundRobin, 10.0,
                                     w, rng),
                     PanicError)
            << "case " << bad;
        EXPECT_THROW(simulateInteractive(yt, st, 10.0, w, rng),
                     PanicError)
            << "case " << bad;
    }
}

TEST(ClusterSim, ScalingSearchRejectsEmptyClusterEarly)
{
    // Regression: the servers == 0 config default used to survive all
    // the way into pick(), dividing by zero (RoundRobin) or
    // underflowing uniformInt's bounds (Random), and only after the
    // expensive single-server search had already run. The entry
    // assert must fire immediately.
    workloads::Ytube yt;
    auto st = stations();
    SearchParams sp;
    sp.iterations = 2;
    sp.window = fastWindow();
    Rng rng(48);
    EXPECT_THROW(measureClusterScaling(
                     yt, st, 0, DispatchPolicy::RoundRobin, sp, rng),
                 PanicError);
}

TEST(ClusterSim, TwoChoicesTracksLeastOutstanding)
{
    // Power of two choices should land within a whisker of the exact
    // full scan at this scale while doing O(1) work per arrival.
    workloads::Ytube yt;
    auto st = stations();
    SearchParams sp;
    sp.iterations = 5;
    sp.window = fastWindow();
    Rng r1(49), r2(49);
    auto lo = measureClusterScaling(
        yt, st, 4, DispatchPolicy::LeastOutstanding, sp, r1);
    auto p2c = measureClusterScaling(
        yt, st, 4, DispatchPolicy::TwoChoices, sp, r2);
    EXPECT_GT(p2c.scalingEfficiency, 0.8);
    EXPECT_LE(p2c.scalingEfficiency, lo.scalingEfficiency + 0.08);
}

TEST(ClusterSim, TwoChoicesDeterministic)
{
    workloads::Ytube yt;
    auto st = stations();
    Rng r1(50), r2(50);
    auto a = simulateCluster(yt, st, 6, DispatchPolicy::TwoChoices,
                             120.0, fastWindow(), r1);
    auto b = simulateCluster(yt, st, 6, DispatchPolicy::TwoChoices,
                             120.0, fastWindow(), r2);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p95Latency, b.p95Latency);
    EXPECT_DOUBLE_EQ(a.qosViolationFraction, b.qosViolationFraction);
}

TEST(ClusterSim, DispatchPolicyNames)
{
    EXPECT_EQ(to_string(DispatchPolicy::LeastOutstanding),
              "least-outstanding");
    EXPECT_EQ(to_string(DispatchPolicy::TwoChoices), "two-choices");
}

} // namespace
