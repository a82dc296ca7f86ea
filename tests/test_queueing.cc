/**
 * @file
 * Queueing-theory validation: closed forms, and the DES resources
 * against them under matching assumptions.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "oracles/queueing.hh"
#include "sim/resources.hh"
#include "stats/summary.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using namespace wsc;
using namespace wsc::sim;
using namespace wsc::sim::queueing;

TEST(ClosedForms, Mm1Basics)
{
    // rho = 0.5: T = 1/(mu - lambda) = 2/mu; L = 1.
    EXPECT_DOUBLE_EQ(mm1MeanSojourn(0.5, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(mm1MeanInSystem(0.5, 1.0), 1.0);
    // Little's law: L = lambda * T.
    double lambda = 0.7, mu = 1.0;
    EXPECT_NEAR(mm1MeanInSystem(lambda, mu),
                lambda * mm1MeanSojourn(lambda, mu), 1e-12);
}

TEST(ClosedForms, Mm1QuantileMedianBelowMean)
{
    double t50 = mm1SojournQuantile(0.5, 1.0, 0.5);
    double mean = mm1MeanSojourn(0.5, 1.0);
    EXPECT_LT(t50, mean); // exponential: median < mean
    EXPECT_NEAR(mm1SojournQuantile(0.5, 1.0, 1.0 - std::exp(-1.0)),
                mean, 1e-12);
}

TEST(ClosedForms, ErlangCSingleServerIsRho)
{
    // With c = 1 the waiting probability equals rho.
    EXPECT_NEAR(erlangC(0.3, 1.0, 1), 0.3, 1e-12);
    EXPECT_NEAR(erlangC(0.8, 1.0, 1), 0.8, 1e-12);
}

TEST(ClosedForms, ErlangCDropsWithServers)
{
    // Same per-server load, more servers: economy of scale.
    double c2 = erlangC(1.6, 1.0, 2);
    double c4 = erlangC(3.2, 1.0, 4);
    EXPECT_LT(c4, c2);
}

TEST(ClosedForms, MmcReducesToMm1)
{
    EXPECT_NEAR(mmcMeanSojourn(0.6, 1.0, 1), mm1MeanSojourn(0.6, 1.0),
                1e-12);
}

TEST(ClosedForms, Md1WaitIsHalfOfMm1Wait)
{
    // P-K: deterministic service halves the waiting time.
    double lambda = 0.7, mu = 1.0;
    double mm1_wait = mm1MeanSojourn(lambda, mu) - 1.0 / mu;
    EXPECT_NEAR(md1MeanWait(lambda, mu), 0.5 * mm1_wait, 1e-12);
}

TEST(ClosedForms, UnstableQueuePanics)
{
    EXPECT_THROW(mm1MeanSojourn(1.0, 1.0), PanicError);
    EXPECT_THROW(mmcMeanSojourn(4.0, 1.0, 4), PanicError);
}

/**
 * DES validation: the PS resource with one slot fed by Poisson
 * arrivals of exponential work is an M/M/1-PS queue, whose mean
 * sojourn matches FIFO M/M/1.
 */
class PsAgainstMm1 : public ::testing::TestWithParam<double>
{};

TEST_P(PsAgainstMm1, MeanSojournMatchesTheory)
{
    double rho = GetParam();
    double mu = 1.0;      // service rate: capacity 1, mean work 1
    double lambda = rho;  // arrival rate
    EventQueue eq;
    PsResource server(eq, "srv", 1.0, 1);
    Rng rng(777);
    stats::Summary sojourns;
    const double horizon = 60000.0;
    const double warmup = 2000.0;

    std::function<void()> arrive = [&] {
        double now = eq.now();
        if (now >= horizon)
            return;
        bool measured = now >= warmup;
        double t0 = now;
        server.submit(rng.exponential(1.0 / mu),
                      [&, t0, measured] {
                          if (measured)
                              sojourns.add(eq.now() - t0);
                      });
        eq.scheduleAfter(rng.exponential(1.0 / lambda), arrive);
    };
    eq.scheduleAfter(rng.exponential(1.0 / lambda), arrive);
    eq.runAll();

    double expected = mm1PsMeanSojourn(lambda, mu);
    ASSERT_GT(sojourns.count(), 10000u);
    EXPECT_NEAR(sojourns.mean(), expected, 0.08 * expected)
        << "rho = " << rho;
}

INSTANTIATE_TEST_SUITE_P(Loads, PsAgainstMm1,
                         ::testing::Values(0.3, 0.5, 0.7));

/**
 * DES validation: the FIFO resource with deterministic service fed by
 * Poisson arrivals is M/D/1.
 */
class FifoAgainstMd1 : public ::testing::TestWithParam<double>
{};

TEST_P(FifoAgainstMd1, MeanWaitMatchesPollaczekKhinchine)
{
    double rho = GetParam();
    double mu = 2.0; // deterministic service 0.5 s
    double lambda = rho * mu;
    EventQueue eq;
    FifoResource server(eq, "disk", 1);
    Rng rng(888);
    stats::Summary waits;
    const double horizon = 40000.0;
    const double warmup = 1000.0;

    std::function<void()> arrive = [&] {
        double now = eq.now();
        if (now >= horizon)
            return;
        bool measured = now >= warmup;
        double t0 = now;
        server.submit(1.0 / mu, [&, t0, measured] {
            if (measured)
                waits.add(eq.now() - t0 - 1.0 / mu);
        });
        eq.scheduleAfter(rng.exponential(1.0 / lambda), arrive);
    };
    eq.scheduleAfter(rng.exponential(1.0 / lambda), arrive);
    eq.runAll();

    double expected = md1MeanWait(lambda, mu);
    ASSERT_GT(waits.count(), 10000u);
    EXPECT_NEAR(waits.mean(), expected,
                0.10 * expected + 0.002)
        << "rho = " << rho;
}

INSTANTIATE_TEST_SUITE_P(Loads, FifoAgainstMd1,
                         ::testing::Values(0.3, 0.5, 0.7, 0.85));

/**
 * DES validation: PS with c slots at per-slot rate mu, fed below
 * per-slot saturation, leaves jobs unaffected by each other until
 * more than c are present; mean sojourn sits between 1/mu (no
 * interference) and the M/M/c value (FIFO pooling differs from PS,
 * but both bound the regime).
 */
TEST(PsMultiSlot, SojournBracketedAtModerateLoad)
{
    EventQueue eq;
    PsResource server(eq, "cpu", 4.0, 4); // 4 slots, mu = 1 each
    Rng rng(999);
    stats::Summary sojourns;
    double lambda = 2.0; // rho = 0.5
    const double horizon = 30000.0;

    std::function<void()> arrive = [&] {
        double now = eq.now();
        if (now >= horizon)
            return;
        double t0 = now;
        server.submit(rng.exponential(1.0),
                      [&, t0] { sojourns.add(eq.now() - t0); });
        eq.scheduleAfter(rng.exponential(1.0 / lambda), arrive);
    };
    eq.scheduleAfter(rng.exponential(1.0 / lambda), arrive);
    eq.runAll();

    double lower = 1.0; // pure service, no sharing
    double upper = 1.8 * mmcMeanSojourn(lambda, 1.0, 4);
    EXPECT_GT(sojourns.mean(), lower * 0.98);
    EXPECT_LT(sojourns.mean(), upper);
}

} // namespace
