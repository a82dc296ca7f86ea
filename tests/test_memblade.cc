/**
 * @file
 * Unit tests for the memory-blade subsystem: traces, replacement
 * policies, two-level simulation, latency/slowdown, provisioning.
 */

#include <gtest/gtest.h>

#include "memblade/blade.hh"
#include "memblade/latency.hh"
#include "memblade/replacement.hh"
#include "memblade/replay.hh"
#include "memblade/trace.hh"
#include "platform/catalog.hh"

namespace {

using namespace wsc;
using namespace wsc::memblade;

TEST(Trace, ProfilesExistForAllBenchmarks)
{
    for (auto b : workloads::allBenchmarks) {
        auto p = profileFor(b);
        EXPECT_FALSE(p.name.empty());
        EXPECT_GT(p.footprintPages, 0u);
        EXPECT_GT(p.touchesPerSecond, 0.0);
    }
}

TEST(Trace, PagesWithinFootprint)
{
    auto p = profileFor(workloads::Benchmark::Websearch);
    Rng rng(1);
    TraceGenerator gen(p, rng);
    for (int i = 0; i < 100000; ++i)
        ASSERT_LT(gen.next(), p.footprintPages);
}

TEST(Trace, HotSetDominatesTouches)
{
    auto p = profileFor(workloads::Benchmark::Webmail);
    auto hot_pages = PageId(double(p.footprintPages) * p.hotSetFraction);
    Rng rng(2);
    TraceGenerator gen(p, rng);
    std::uint64_t hot = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        if (gen.next() < hot_pages)
            ++hot;
    // Hot probability plus sequential spillover: clearly a majority.
    EXPECT_GT(double(hot) / n, 0.7);
}

TEST(Trace, DeterministicWithSeed)
{
    auto p = profileFor(workloads::Benchmark::Ytube);
    auto t1 = generateTrace(p, 10000, Rng(3));
    auto t2 = generateTrace(p, 10000, Rng(3));
    EXPECT_EQ(t1, t2);
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy lru(2);
    EXPECT_FALSE(lru.access(1));
    EXPECT_FALSE(lru.access(2));
    EXPECT_TRUE(lru.access(1));  // 1 now MRU
    EXPECT_FALSE(lru.access(3)); // evicts 2
    EXPECT_TRUE(lru.access(1));
    EXPECT_FALSE(lru.access(2)); // 2 was evicted
}

TEST(Lru, ResidentNeverExceedsFrames)
{
    LruPolicy lru(16);
    Rng rng(4);
    for (int i = 0; i < 10000; ++i) {
        lru.access(rng.uniformInt(0, 99));
        ASSERT_LE(lru.resident(), 16u);
    }
}

TEST(Random, ResidentNeverExceedsFrames)
{
    RandomPolicy rp(16, Rng(5));
    Rng rng(6);
    for (int i = 0; i < 10000; ++i) {
        rp.access(rng.uniformInt(0, 99));
        ASSERT_LE(rp.resident(), 16u);
    }
}

TEST(Random, HitsOnResidentPages)
{
    RandomPolicy rp(4, Rng(7));
    rp.access(1);
    EXPECT_TRUE(rp.access(1));
    EXPECT_TRUE(rp.access(1));
}

TEST(Clock, SecondChanceBehaviour)
{
    ClockPolicy clock(2);
    EXPECT_FALSE(clock.access(1));
    EXPECT_FALSE(clock.access(2));
    EXPECT_TRUE(clock.access(1));
    // 2's bit is also set (insertion); the hand clears bits and evicts
    // the first unreferenced frame.
    EXPECT_FALSE(clock.access(3));
    EXPECT_EQ(clock.resident(), 2u);
}

TEST(Policies, FactoryProducesAllKinds)
{
    for (auto kind :
         {PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock}) {
        auto p = makePolicy(kind, 8, Rng(8));
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->name(), to_string(kind));
        EXPECT_FALSE(p->access(42));
        EXPECT_TRUE(p->access(42));
    }
}

TEST(TwoLevel, FullLocalMemoryNeverMissesWarm)
{
    auto p = profileFor(workloads::Benchmark::Webmail);
    auto st = replayProfile(p, 1.0, PolicyKind::Lru, 200000, 9);
    // With local = footprint every miss is a cold (first-touch) miss.
    EXPECT_EQ(st.misses, st.coldMisses);
    EXPECT_DOUBLE_EQ(st.warmMissRate(), 0.0);
}

TEST(TwoLevel, SmallerLocalMemoryMissesMore)
{
    auto p = profileFor(workloads::Benchmark::Websearch);
    auto at25 = replayProfile(p, 0.25, PolicyKind::Random, 400000, 10);
    auto at12 = replayProfile(p, 0.125, PolicyKind::Random, 400000, 10);
    EXPECT_GT(at12.warmMissRate(), at25.warmMissRate());
}

TEST(TwoLevel, StatsAreConsistent)
{
    auto p = profileFor(workloads::Benchmark::Ytube);
    auto st = replayProfile(p, 0.25, PolicyKind::Lru, 100000, 11);
    EXPECT_EQ(st.hits + st.misses, st.accesses);
    EXPECT_LE(st.coldMisses, st.misses);
    EXPECT_GE(st.missRate(), st.warmMissRate());
}

TEST(Latency, LinkPresets)
{
    EXPECT_DOUBLE_EQ(RemoteLink::pcieX4().stallSecondsPerMiss, 4.0e-6);
    EXPECT_DOUBLE_EQ(RemoteLink::cbf().stallSecondsPerMiss, 0.5e-6);
    EXPECT_DOUBLE_EQ(RemoteLink::cbfWithSetup().stallSecondsPerMiss,
                     0.75e-6);
}

TEST(Latency, SlowdownScalesWithLink)
{
    auto p = profileFor(workloads::Benchmark::Websearch);
    auto st = replayProfile(p, 0.25, PolicyKind::Random, 400000, 12);
    double pcie = slowdown(st, p, RemoteLink::pcieX4());
    double cbf = slowdown(st, p, RemoteLink::cbf());
    EXPECT_NEAR(cbf / pcie, 0.125, 1e-9);
    EXPECT_GT(pcie, 0.0);
}

TEST(Latency, PaperFigure4bWebsearchSlowdown)
{
    // Paper Figure 4(b): websearch 4.7% at 25% local, random, PCIe x4.
    auto p = profileFor(workloads::Benchmark::Websearch);
    auto st = replayProfile(p, 0.25, PolicyKind::Random, 2000000, 42);
    double sd = slowdown(st, p, RemoteLink::pcieX4());
    EXPECT_NEAR(sd, 0.047, 0.012);
}

TEST(Latency, PaperFigure4bOrdering)
{
    // websearch suffers most; webmail is negligible (paper Fig. 4b).
    auto sd_of = [](workloads::Benchmark b) {
        auto p = profileFor(b);
        auto st = replayProfile(p, 0.25, PolicyKind::Random, 1000000, 42);
        return slowdown(st, p, RemoteLink::pcieX4());
    };
    double ws = sd_of(workloads::Benchmark::Websearch);
    double wm = sd_of(workloads::Benchmark::Webmail);
    double yt = sd_of(workloads::Benchmark::Ytube);
    EXPECT_GT(ws, yt);
    EXPECT_GT(yt, wm);
    EXPECT_LT(wm, 0.005);
}

TEST(Blade, StaticSchemeCostMath)
{
    // emb1 memory: $180 / 12 W. Static: 25% local + 75% remote at 24%
    // discount + $10 PCIe; power: 25% + 75% at 10% + 1.45 W.
    auto server = platform::makeSystem(platform::SystemClass::Emb1);
    auto out = applyMemorySharing(server, BladeParams{},
                                  Provisioning::Static);
    EXPECT_NEAR(out.memoryDollars,
                180.0 * 0.25 + 180.0 * 0.75 * 0.76 + 10.0, 1e-9);
    EXPECT_NEAR(out.memoryWatts, 12.0 * 0.25 + 12.0 * 0.75 * 0.1 + 1.45,
                1e-9);
    EXPECT_DOUBLE_EQ(out.slowdown, 0.02);
}

TEST(Blade, DynamicSchemeUsesLessDram)
{
    auto server = platform::makeSystem(platform::SystemClass::Emb1);
    auto stat = applyMemorySharing(server, BladeParams{},
                                   Provisioning::Static);
    auto dyn = applyMemorySharing(server, BladeParams{},
                                  Provisioning::Dynamic);
    EXPECT_LT(dyn.memoryDollars, stat.memoryDollars);
    EXPECT_LT(dyn.memoryWatts, stat.memoryWatts);
}

TEST(Blade, SharingReducesCostAndPower)
{
    // The whole point (Figure 4c): memory line item shrinks.
    auto server = platform::makeSystem(platform::SystemClass::Emb1);
    for (auto scheme : {Provisioning::Static, Provisioning::Dynamic}) {
        auto cfg = withMemorySharing(server, BladeParams{}, scheme);
        EXPECT_LT(cfg.memory.dollars, server.memory.dollars)
            << to_string(scheme);
        EXPECT_LT(cfg.memory.watts, server.memory.watts);
        EXPECT_DOUBLE_EQ(cfg.memory.capacityGB, 1.0); // 25% of 4 GB
    }
}


TEST(Latency, TrapCostsOrdered)
{
    EXPECT_DOUBLE_EQ(trapCostSeconds(TrapHandling::None), 0.0);
    EXPECT_GT(trapCostSeconds(TrapHandling::SoftwareTrap),
              trapCostSeconds(TrapHandling::HardwareTlb));
}

TEST(Latency, WithTrapCostAddsPerMissStall)
{
    auto base = RemoteLink::cbf();
    auto sw = withTrapCost(base, TrapHandling::SoftwareTrap);
    auto hw = withTrapCost(base, TrapHandling::HardwareTlb);
    auto none = withTrapCost(base, TrapHandling::None);
    EXPECT_NEAR(sw.stallSecondsPerMiss, 0.9e-6, 1e-12);
    EXPECT_NEAR(hw.stallSecondsPerMiss, 0.55e-6, 1e-12);
    EXPECT_DOUBLE_EQ(none.stallSecondsPerMiss,
                     base.stallSecondsPerMiss);
    EXPECT_NE(sw.name, base.name);
}

TEST(Latency, SoftwareTrapComparableToCbfStall)
{
    // The Section 4 motivation: with CBF the software trap handler is
    // of the same order as the stall it accompanies (it nearly
    // doubles the miss cost), so hardware TLB handling pays off.
    auto base = RemoteLink::cbf();
    double trap = trapCostSeconds(TrapHandling::SoftwareTrap);
    EXPECT_GT(trap, 0.5 * base.stallSecondsPerMiss);
    EXPECT_LT(trapCostSeconds(TrapHandling::HardwareTlb),
              0.2 * base.stallSecondsPerMiss);
}

/** Local-fraction sweep: warm miss rate decreases monotonically. */
class LocalFractionSweep : public ::testing::TestWithParam<double>
{};

TEST_P(LocalFractionSweep, MoreLocalMemoryNeverHurts)
{
    auto p = profileFor(workloads::Benchmark::Ytube);
    double f = GetParam();
    auto lo = replayProfile(p, f, PolicyKind::Lru, 300000, 13);
    auto hi = replayProfile(p, std::min(1.0, f * 2.0), PolicyKind::Lru,
                            300000, 13);
    EXPECT_GE(lo.warmMissRate() + 1e-6, hi.warmMissRate());
}

INSTANTIATE_TEST_SUITE_P(Fractions, LocalFractionSweep,
                         ::testing::Values(0.0625, 0.125, 0.25, 0.5));

} // namespace
