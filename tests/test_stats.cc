/**
 * @file
 * Unit tests for the stats module.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/means.hh"
#include "stats/percentile.hh"
#include "stats/summary.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using namespace wsc;
using namespace wsc::stats;

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsSafe)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesSequential)
{
    Rng r(3);
    Summary all, a, b;
    for (int i = 0; i < 1000; ++i) {
        double x = r.normal(10.0, 2.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty)
{
    Summary a, b;
    a.add(1.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Percentile, NearestRankSemantics)
{
    PercentileTracker p;
    for (int i = 1; i <= 100; ++i)
        p.add(double(i));
    EXPECT_DOUBLE_EQ(p.quantile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
}

TEST(Percentile, FractionAbove)
{
    PercentileTracker p;
    for (int i = 1; i <= 10; ++i)
        p.add(double(i));
    EXPECT_DOUBLE_EQ(p.fractionAbove(8.0), 0.2);
    EXPECT_DOUBLE_EQ(p.fractionAbove(10.0), 0.0);
    EXPECT_DOUBLE_EQ(p.fractionAbove(0.0), 1.0);
}

TEST(Percentile, QosBoundaryIsStrict)
{
    // The paper's QoS is "95% of requests complete in < limit": a
    // sample exactly at the limit violates. fractionAbove() (strict >)
    // must exclude it; fractionAtLeast() (>=) must include it.
    PercentileTracker p;
    p.add(0.4);
    p.add(0.5);
    p.add(0.5);
    p.add(0.6);
    EXPECT_DOUBLE_EQ(p.fractionAbove(0.5), 0.25);
    EXPECT_DOUBLE_EQ(p.fractionAtLeast(0.5), 0.75);
    // Away from any sample the two agree.
    EXPECT_DOUBLE_EQ(p.fractionAbove(0.45), p.fractionAtLeast(0.45));
    // Degenerate cases.
    EXPECT_DOUBLE_EQ(p.fractionAtLeast(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.fractionAtLeast(0.7), 0.0);
    PercentileTracker empty;
    EXPECT_DOUBLE_EQ(empty.fractionAtLeast(1.0), 0.0);
}

TEST(Percentile, InterleavedAddAndQuery)
{
    PercentileTracker p;
    p.add(5.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.5), 5.0);
    p.add(1.0);
    p.add(9.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.5), 5.0);
    p.clear();
    EXPECT_EQ(p.count(), 0u);
}

TEST(Percentile, SelectionMatchesSortedNearestRank)
{
    // Random samples on a coarse grid (many duplicates), queried at
    // the QoS quantiles between bursts of inserts: every answer must
    // equal the nearest-rank element of a fully sorted copy.
    wsc::Rng rng(2024);
    PercentileTracker p;
    std::vector<double> all;
    const double qs[] = {0.0, 0.5, 0.95, 0.99, 1.0};
    for (int round = 0; round < 40; ++round) {
        int burst = 1 + int(rng.uniformInt(0, 300));
        for (int i = 0; i < burst; ++i) {
            double x = double(rng.uniformInt(0, 50)) * 0.125;
            p.add(x);
            all.push_back(x);
        }
        std::vector<double> sorted = all;
        std::sort(sorted.begin(), sorted.end());
        for (double q : qs) {
            std::size_t rank =
                std::size_t(std::ceil(q * double(sorted.size())));
            rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
            ASSERT_EQ(p.quantile(q), sorted[rank - 1])
                << "round " << round << " q " << q;
            double threshold = double(rng.uniformInt(0, 52)) * 0.125;
            double atLeast =
                double(sorted.end() - std::lower_bound(sorted.begin(),
                                                       sorted.end(),
                                                       threshold)) /
                double(sorted.size());
            double above =
                double(sorted.end() - std::upper_bound(sorted.begin(),
                                                       sorted.end(),
                                                       threshold)) /
                double(sorted.size());
            ASSERT_EQ(p.fractionAtLeast(threshold), atLeast);
            ASSERT_EQ(p.fractionAbove(threshold), above);
        }
        ASSERT_EQ(p.count(), all.size());
    }
    // Long runs of equal values in insertion order.
    PercentileTracker inOrder;
    for (int i = 0; i < 1000; ++i)
        inOrder.add(double(i / 3));
    EXPECT_EQ(inOrder.quantile(0.95), 316.0);
    EXPECT_EQ(inOrder.quantile(0.0), 0.0);
    EXPECT_EQ(inOrder.fractionAtLeast(333.0), 0.001);
}

TEST(Percentile, EmptyQuantilePanics)
{
    PercentileTracker p;
    EXPECT_THROW(p.quantile(0.5), PanicError);
}

TEST(Means, Harmonic)
{
    // HM(1,2,4) = 3 / (1 + 0.5 + 0.25) = 12/7.
    EXPECT_NEAR(harmonicMean({1.0, 2.0, 4.0}), 12.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({5.0}), 5.0);
}

TEST(Means, HarmonicIsBelowArithmetic)
{
    std::vector<double> v{0.3, 0.9, 2.0, 5.0};
    EXPECT_LT(harmonicMean(v), arithmeticMean(v));
    EXPECT_LT(harmonicMean(v), geometricMean(v));
    EXPECT_LT(geometricMean(v), arithmeticMean(v));
}

TEST(Means, RejectsNonPositive)
{
    EXPECT_THROW(harmonicMean({1.0, 0.0}), PanicError);
    EXPECT_THROW(harmonicMean({}), PanicError);
    EXPECT_THROW(geometricMean({-1.0}), PanicError);
}

TEST(Means, WeightedHarmonic)
{
    // Equal weights reduce to the plain harmonic mean.
    EXPECT_NEAR(weightedHarmonicMean({1.0, 2.0, 4.0}, {1.0, 1.0, 1.0}),
                harmonicMean({1.0, 2.0, 4.0}), 1e-12);
    // All weight on one element returns that element.
    EXPECT_DOUBLE_EQ(weightedHarmonicMean({3.0, 7.0}, {0.0, 2.0}), 7.0);
}

/** Property sweep: harmonic mean of identical values is that value. */
class MeansIdentityTest : public ::testing::TestWithParam<double>
{};

TEST_P(MeansIdentityTest, AllMeansAgreeOnConstantVectors)
{
    double v = GetParam();
    std::vector<double> vec(7, v);
    EXPECT_NEAR(harmonicMean(vec), v, 1e-9 * v);
    EXPECT_NEAR(geometricMean(vec), v, 1e-9 * v);
    EXPECT_NEAR(arithmeticMean(vec), v, 1e-9 * v);
}

INSTANTIATE_TEST_SUITE_P(ConstantVectors, MeansIdentityTest,
                         ::testing::Values(0.01, 0.5, 1.0, 3.25, 1000.0));

} // namespace
