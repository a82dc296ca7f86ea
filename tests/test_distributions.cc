/**
 * @file
 * Unit and property tests for the workload distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "sim/distributions.hh"
#include "util/logging.hh"

namespace {

using namespace wsc;
using namespace wsc::sim;

TEST(Constant, AlwaysSameValue)
{
    Rng r(1);
    ConstantDist d(4.2);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(d.sample(r), 4.2);
    EXPECT_DOUBLE_EQ(d.mean(), 4.2);
}

TEST(Uniform, InRangeAndMean)
{
    Rng r(2);
    UniformDist d(2.0, 6.0);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double x = d.sample(r);
        ASSERT_GE(x, 2.0);
        ASSERT_LT(x, 6.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, d.mean(), 0.02);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
}

TEST(Exponential, SampleMeanMatches)
{
    Rng r(3);
    ExponentialDist d(0.25);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += d.sample(r);
    EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(Lognormal, MeanAndCovRecovered)
{
    Rng r(4);
    LognormalDist d(10.0, 0.5);
    double sum = 0, sumsq = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        double x = d.sample(r);
        ASSERT_GT(x, 0.0);
        sum += x;
        sumsq += x * x;
    }
    double mean = sum / n;
    double var = sumsq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var) / mean, 0.5, 0.02);
}

TEST(BoundedPareto, RespectsBounds)
{
    Rng r(5);
    BoundedParetoDist d(1.0, 100.0, 1.3);
    for (int i = 0; i < 50000; ++i) {
        double x = d.sample(r);
        ASSERT_GE(x, 1.0);
        ASSERT_LE(x, 100.0);
    }
}

TEST(BoundedPareto, SampleMeanMatchesClosedForm)
{
    Rng r(6);
    BoundedParetoDist d(1.0, 1000.0, 1.5);
    double sum = 0;
    const int n = 500000;
    for (int i = 0; i < n; ++i)
        sum += d.sample(r);
    EXPECT_NEAR(sum / n, d.mean(), d.mean() * 0.03);
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfDist d(1000, 0.9);
    double total = 0;
    for (std::uint64_t k = 1; k <= 1000; ++k)
        total += d.pmf(k);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, RankOneIsMostPopular)
{
    ZipfDist d(100, 1.0);
    EXPECT_GT(d.pmf(1), d.pmf(2));
    EXPECT_GT(d.pmf(2), d.pmf(50));
    EXPECT_GT(d.pmf(50), d.pmf(100));
}

TEST(Zipf, EmpiricalFrequencyTracksPmf)
{
    Rng r(7);
    ZipfDist d(50, 0.8);
    std::map<std::uint64_t, int> counts;
    const int n = 300000;
    for (int i = 0; i < n; ++i)
        ++counts[d.sampleRank(r)];
    for (std::uint64_t k : {1ull, 2ull, 10ull, 50ull}) {
        double expected = d.pmf(k);
        double observed = double(counts[k]) / n;
        EXPECT_NEAR(observed, expected, 0.15 * expected + 0.001)
            << "rank " << k;
    }
}

TEST(Zipf, SamplesInRange)
{
    Rng r(8);
    ZipfDist d(10, 1.2);
    for (int i = 0; i < 10000; ++i) {
        auto k = d.sampleRank(r);
        ASSERT_GE(k, 1u);
        ASSERT_LE(k, 10u);
    }
}

TEST(Zipf, SingleRankDegenerate)
{
    Rng r(9);
    ZipfDist d(1, 1.0);
    EXPECT_EQ(d.sampleRank(r), 1u);
    EXPECT_DOUBLE_EQ(d.mean(), 1.0);
    EXPECT_DOUBLE_EQ(d.pmf(1), 1.0);
}

TEST(Zipf, InvalidArgsPanic)
{
    EXPECT_THROW(ZipfDist(0, 1.0), PanicError);
    EXPECT_THROW(ZipfDist(10, 0.0), PanicError);
}

/** Zipf tables built serially from scratch: the reference the shared
 * and retained tables must equal bit for bit. */
struct ZipfReference {
    std::vector<double> cdf;
    std::vector<std::uint32_t> guide;
    double mean = 0.0;

    ZipfReference(std::uint64_t n, double s) : cdf(n), guide(n)
    {
        double acc = 0.0, mean_acc = 0.0;
        for (std::uint64_t k = 1; k <= n; ++k) {
            double p = std::pow(double(k), -s);
            acc += p;
            mean_acc += double(k) * p;
            cdf[k - 1] = acc;
        }
        for (auto &c : cdf)
            c /= acc;
        cdf.back() = 1.0;
        mean = mean_acc / acc;
        std::size_t k = 0;
        for (std::size_t b = 0; b < n; ++b) {
            double edge = double(b) / double(n);
            while (k < n && cdf[k] < edge)
                ++k;
            guide[b] = std::uint32_t(k);
        }
    }

    /** True when @p d's tables are exactly these. */
    bool
    matches(const ZipfDist &d) const
    {
        const auto &got = d.cdfTable();
        if (got.size() != cdf.size() ||
            std::memcmp(got.data(), cdf.data(),
                        cdf.size() * sizeof(double)) != 0)
            return false;
        for (std::size_t b = 0; b < guide.size(); ++b)
            if (d.guideTable().startOf(b) != guide[b])
                return false;
        double m = d.mean();
        return std::memcmp(&m, &mean, sizeof m) == 0;
    }
};

TEST(Zipf, LargeTableRetainedForSameKey)
{
    const std::uint64_t large = (1ull << 18) + 1;

    // Back-to-back constructions of one large key share one table.
    {
        ZipfDist a(large, 0.9);
        ZipfDist b(large, 0.9);
        EXPECT_EQ(a.cdfTable().data(), b.cdfTable().data());
    }

    // Shared and retained tables both equal a serial build.
    const std::uint64_t sizes[] = {1000, large, 422400};
    for (std::uint64_t n : sizes)
        for (double s : {0.5, 0.9, 1.1}) {
            ZipfReference ref(n, s);
            EXPECT_TRUE(ref.matches(ZipfDist(n, s)))
                << "n " << n << " s " << s;
        }

    // Building a different key drops the retained table but not a
    // live owner's.
    {
        ZipfDist a(large, 0.9);
        std::vector<double> before = a.cdfTable();
        ZipfDist b(large + 2, 0.9);
        EXPECT_NE(a.cdfTable().data(), b.cdfTable().data());
        ASSERT_EQ(a.cdfTable().size(), before.size());
        EXPECT_EQ(std::memcmp(a.cdfTable().data(), before.data(),
                              before.size() * sizeof(double)),
                  0);
        EXPECT_TRUE(ZipfReference(large, 0.9).matches(a));
    }

    // Threads alternating two large keys race on the one slot; every
    // table they get is still exact.
    const ZipfReference refs[] = {ZipfReference(large, 0.9),
                                  ZipfReference(large + 6, 1.1)};
    const std::pair<std::uint64_t, double> keys[] = {{large, 0.9},
                                                     {large + 6, 1.1}};
    std::vector<int> exact(4, 0);
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w)
        threads.emplace_back([&, w] {
            for (int i = 0; i < 6; ++i) {
                int which = (w + i) % 2;
                ZipfDist d(keys[which].first, keys[which].second);
                exact[w] += refs[which].matches(d);
            }
        });
    for (auto &t : threads)
        t.join();
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(exact[w], 6) << "thread " << w;
}

TEST(Empirical, FrequenciesMatchWeights)
{
    Rng r(10);
    EmpiricalDist d({1.0, 2.0, 3.0}, {1.0, 2.0, 7.0});
    std::map<double, int> counts;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[d.sample(r)];
    EXPECT_NEAR(double(counts[1.0]) / n, 0.1, 0.01);
    EXPECT_NEAR(double(counts[2.0]) / n, 0.2, 0.01);
    EXPECT_NEAR(double(counts[3.0]) / n, 0.7, 0.01);
    EXPECT_NEAR(d.mean(), 0.1 + 0.4 + 2.1, 1e-12);
}

TEST(Empirical, ZeroWeightOutcomeNeverDrawn)
{
    Rng r(11);
    EmpiricalDist d({5.0, 6.0}, {0.0, 1.0});
    for (int i = 0; i < 1000; ++i)
        EXPECT_DOUBLE_EQ(d.sample(r), 6.0);
}

TEST(Empirical, InvalidArgsPanic)
{
    EXPECT_THROW(EmpiricalDist({}, {}), PanicError);
    EXPECT_THROW(EmpiricalDist({1.0}, {1.0, 2.0}), PanicError);
    EXPECT_THROW(EmpiricalDist({1.0}, {0.0}), PanicError);
    EXPECT_THROW(EmpiricalDist({1.0, 2.0}, {1.0, -1.0}), PanicError);
}

/**
 * Property sweep over Zipf exponents: the head of the distribution
 * (top 10% of ranks) must hold a share of mass that grows with s.
 */
class ZipfSkewTest : public ::testing::TestWithParam<double>
{};

TEST_P(ZipfSkewTest, HeadMassGrowsWithExponent)
{
    double s = GetParam();
    ZipfDist d(1000, s);
    double head = 0;
    for (std::uint64_t k = 1; k <= 100; ++k)
        head += d.pmf(k);
    ZipfDist d_flatter(1000, s * 0.5);
    double head_flatter = 0;
    for (std::uint64_t k = 1; k <= 100; ++k)
        head_flatter += d_flatter.pmf(k);
    EXPECT_GT(head, head_flatter);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfSkewTest,
                         ::testing::Values(0.6, 0.8, 1.0, 1.2, 1.5));

} // namespace
