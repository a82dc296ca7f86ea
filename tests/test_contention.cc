/**
 * @file
 * Unit tests for the memory-blade contention model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "memblade/contention.hh"
#include "memblade/replay.hh"
#include "util/logging.hh"

namespace {

using namespace wsc;
using namespace wsc::memblade;

TEST(Contention, ZeroLoadHasNoWait)
{
    auto r = analyzeContention(0.0, BladeLinkParams{},
                               RemoteLink::pcieX4());
    EXPECT_DOUBLE_EQ(r.meanWaitSeconds, 0.0);
    EXPECT_DOUBLE_EQ(r.effectiveStallSeconds, 4.0e-6);
    EXPECT_TRUE(r.stable);
}

TEST(Contention, MD1WaitFormula)
{
    BladeLinkParams p;
    p.serviceSecondsPerFetch = 2.0e-6;
    // rho = 0.5 at 250k fetches/s: W = 0.5 * S / (2 * 0.5) = S/2.
    auto r = analyzeContention(250000.0, p, RemoteLink::pcieX4());
    EXPECT_NEAR(r.utilization, 0.5, 1e-12);
    EXPECT_NEAR(r.meanWaitSeconds, 1.0e-6, 1e-12);
    EXPECT_TRUE(r.stable);
}

TEST(Contention, OverloadUnstable)
{
    BladeLinkParams p;
    p.serviceSecondsPerFetch = 2.0e-6;
    auto r = analyzeContention(600000.0, p, RemoteLink::pcieX4());
    EXPECT_FALSE(r.stable);
    EXPECT_TRUE(std::isinf(r.meanWaitSeconds));
}

TEST(Contention, ChannelsSplitLoad)
{
    BladeLinkParams one;
    one.serviceSecondsPerFetch = 2.0e-6;
    BladeLinkParams two = one;
    two.channels = 2;
    auto r1 = analyzeContention(300000.0, one, RemoteLink::pcieX4());
    auto r2 = analyzeContention(300000.0, two, RemoteLink::pcieX4());
    EXPECT_NEAR(r2.utilization, r1.utilization / 2.0, 1e-12);
    EXPECT_LT(r2.meanWaitSeconds, r1.meanWaitSeconds);
}

TEST(Contention, SlowdownGrowsWithSharers)
{
    auto prof = profileFor(workloads::Benchmark::Websearch);
    auto st = replayProfile(prof, 0.25, PolicyKind::Random, 400000, 1);
    BladeLinkParams p;
    auto link = RemoteLink::pcieX4();
    double s1 = contendedSlowdown(st, prof, link, 1, p);
    double s16 = contendedSlowdown(st, prof, link, 16, p);
    EXPECT_GT(s16, s1);
    // A single sharer adds only its own queueing, so it is close to
    // the uncontended slowdown.
    double uncontended = slowdown(st, prof, link);
    EXPECT_NEAR(s1, uncontended, 0.2 * uncontended);
}

TEST(Contention, MaxServersRespectsBudget)
{
    auto prof = profileFor(workloads::Benchmark::Websearch);
    auto st =
        replayProfile(prof, 0.25, PolicyKind::Random, 1500000, 1);
    BladeLinkParams p;
    auto link = RemoteLink::pcieX4();
    // Budget slightly above the single-server slowdown: the blade
    // saturates once the aggregate fetch rate approaches 1/S.
    double budget = 1.5 * contendedSlowdown(st, prof, link, 1, p);
    unsigned n = maxServersPerBlade(st, prof, link, budget, p, 4096);
    ASSERT_GE(n, 1u);
    ASSERT_LT(n, 4096u);
    EXPECT_LE(contendedSlowdown(st, prof, link, n, p), budget);
    EXPECT_GT(contendedSlowdown(st, prof, link, n + 1, p), budget);
}

TEST(Contention, LowTrafficWorkloadSharesWidely)
{
    // webmail's near-zero miss traffic should allow many sharers;
    // websearch far fewer.
    BladeLinkParams p;
    auto link = RemoteLink::pcieX4();
    auto ws_prof = profileFor(workloads::Benchmark::Websearch);
    auto ws = replayProfile(ws_prof, 0.25, PolicyKind::Random, 400000, 1);
    auto wm_prof = profileFor(workloads::Benchmark::Webmail);
    auto wm = replayProfile(wm_prof, 0.25, PolicyKind::Random, 400000, 1);
    unsigned n_ws =
        maxServersPerBlade(ws, ws_prof, link, 0.06, p, 1024);
    unsigned n_wm =
        maxServersPerBlade(wm, wm_prof, link, 0.06, p, 1024);
    EXPECT_GT(n_wm, n_ws);
}

TEST(Contention, InvalidArgsPanic)
{
    EXPECT_THROW(analyzeContention(-1.0, BladeLinkParams{},
                                   RemoteLink::pcieX4()),
                 PanicError);
    BladeLinkParams bad;
    bad.serviceSecondsPerFetch = 0.0;
    EXPECT_THROW(analyzeContention(1.0, bad, RemoteLink::pcieX4()),
                 PanicError);
}

/** Utilization sweep: wait time grows convexly toward saturation. */
class WaitConvexityTest : public ::testing::TestWithParam<double>
{};

TEST_P(WaitConvexityTest, WaitIncreasesWithUtilization)
{
    BladeLinkParams p;
    p.serviceSecondsPerFetch = 2.0e-6;
    double rho = GetParam();
    double rate_lo = rho / p.serviceSecondsPerFetch;
    double rate_hi = (rho + 0.1) / p.serviceSecondsPerFetch;
    auto lo = analyzeContention(rate_lo, p, RemoteLink::pcieX4());
    auto hi = analyzeContention(rate_hi, p, RemoteLink::pcieX4());
    EXPECT_LT(lo.meanWaitSeconds, hi.meanWaitSeconds);
}

INSTANTIATE_TEST_SUITE_P(Utilizations, WaitConvexityTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.85));

} // namespace
