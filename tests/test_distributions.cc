/**
 * @file
 * Unit and property tests for the workload distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
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

/** Bitwise equality of two doubles. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Zipf tables built serially from scratch: the reference the shared,
 * retained and lazily filled tables must equal bit for bit. */
struct ZipfReference {
    std::vector<double> cdf;
    double mean = 0.0;

    ZipfReference(std::uint64_t n, double s) : cdf(n)
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
    }

    /** The rank a uniform inverts to: first index with cdf >= u. */
    std::uint64_t
    rankFor(double u) const
    {
        return std::uint64_t(std::lower_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin()) +
               1;
    }

    /** True when every rank's cdfAt and the mean are these bits. */
    bool
    cdfMatches(const ZipfDist &d) const
    {
        if (d.size() != cdf.size() || !sameBits(d.mean(), mean))
            return false;
        for (std::uint64_t k = 1; k <= cdf.size(); ++k)
            if (!sameBits(d.cdfAt(k), cdf[k - 1]))
                return false;
        return true;
    }

    /**
     * True when @p d's table is exactly this one: cdfMatches, and the
     * inversion agrees at every guide-bucket edge b / n and both its
     * neighbours, the values a per-rank guide table over this CDF is
     * built from.
     */
    bool
    matches(const ZipfDist &d) const
    {
        if (!cdfMatches(d))
            return false;
        const double n = double(cdf.size());
        for (std::size_t b = 0; b < cdf.size(); ++b) {
            double edge = double(b) / n;
            for (double u : {std::nextafter(edge, -1.0), edge,
                             std::nextafter(edge, 2.0)})
                if (u >= 0.0 && u < 1.0 &&
                    d.rankForUniform(u) != rankFor(u))
                    return false;
        }
        return true;
    }
};

TEST(Zipf, LargeTableRetainedForSameKey)
{
    const std::uint64_t large = (1ull << 18) + 1;

    // Back-to-back constructions of one large key share one table.
    {
        ZipfDist a(large, 0.9);
        ZipfDist b(large, 0.9);
        EXPECT_TRUE(a.sharesTableWith(b));
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
        std::vector<double> before(large);
        for (std::uint64_t k = 1; k <= large; ++k)
            before[k - 1] = a.cdfAt(k);
        ZipfDist b(large + 2, 0.9);
        EXPECT_FALSE(a.sharesTableWith(b));
        bool unchanged = true;
        for (std::uint64_t k = 1; k <= large; ++k)
            unchanged = unchanged && sameBits(a.cdfAt(k), before[k - 1]);
        EXPECT_TRUE(unchanged);
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

TEST(Zipf, LazyBlocksMatchSerialBuild)
{
    const std::uint64_t sizes[] = {1,    511,  512,
                                   513,  1025, (1ull << 18) + 1,
                                   4800000};
    for (std::uint64_t n : sizes)
        for (double s : {0.5, 0.9, 1.1}) {
            SCOPED_TRACE("n " + std::to_string(n) + " s " +
                         std::to_string(s));
            ZipfReference ref(n, s);
            ZipfDist d(n, s);

            // Draws first, so blocks fill through the inversion path:
            // random uniforms, both ends of [0, 1), and every block's
            // last CDF entry with its neighbours.
            Rng rng(n * 31 + std::uint64_t(s * 10));
            std::uint64_t mismatches = 0;
            for (int i = 0; i < (1 << 20); ++i) {
                double u = rng.uniform();
                mismatches += d.rankForUniform(u) != ref.rankFor(u);
            }
            std::vector<double> edges = {0.0, std::nextafter(1.0, 0.0)};
            for (std::uint64_t i = ZipfDist::kBlockRanks - 1; i < n;
                 i += ZipfDist::kBlockRanks)
                edges.push_back(ref.cdf[i]);
            edges.push_back(ref.cdf[n - 1]);
            for (double e : edges)
                for (double u : {std::nextafter(e, 0.0), e,
                                 std::nextafter(e, 2.0)})
                    if (u >= 0.0 && u < 1.0)
                        mismatches +=
                            d.rankForUniform(u) != ref.rankFor(u);
            EXPECT_EQ(mismatches, 0u);

            // Then every rank's cdfAt and pmf, and the mean.
            EXPECT_TRUE(ref.cdfMatches(d));
            std::uint64_t pmfMismatches = 0;
            for (std::uint64_t k = 1; k <= n; ++k) {
                double p = ref.cdf[k - 1] - (k == 1 ? 0.0 : ref.cdf[k - 2]);
                pmfMismatches += !sameBits(d.pmf(k), p);
            }
            EXPECT_EQ(pmfMismatches, 0u);
        }

    // Four threads drawing from one fresh shared table (a key no other
    // test builds) race to fill its blocks and get the serial ranks.
    const std::uint64_t n = 200003;
    const double s = 0.85;
    ZipfReference ref(n, s);
    std::vector<std::uint64_t> mismatches(4, 0);
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w)
        threads.emplace_back([&, w] {
            ZipfDist d(n, s);
            Rng rng(100 + w);
            for (int i = 0; i < (1 << 18); ++i) {
                double u = rng.uniform();
                mismatches[w] += d.rankForUniform(u) != ref.rankFor(u);
            }
        });
    for (auto &t : threads)
        t.join();
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(mismatches[w], 0u) << "thread " << w;
}

TEST(Zipf, BatchedRanksMatchScalarRanks)
{
    // rankForUniforms against rankForUniform: random uniforms first,
    // so blocks fill through the batched path, then every block's
    // last CDF entry with its nextafter neighbours, both ends of
    // [0, 1), and batches of zero and one.
    const std::uint64_t sizes[] = {1, 511, 512, 513, 24000, 422401};
    for (std::uint64_t n : sizes)
        for (double s : {0.6, 1.1}) {
            SCOPED_TRACE("n " + std::to_string(n) + " s " +
                         std::to_string(s));
            ZipfDist d(n, s);
            Rng rng(n + 7);
            std::vector<double> u(20000);
            for (double &x : u)
                x = rng.uniform();
            std::vector<double> edges = {0.0, std::nextafter(1.0, 0.0)};
            for (std::uint64_t k = ZipfDist::kBlockRanks; k < n;
                 k += ZipfDist::kBlockRanks)
                edges.push_back(d.cdfAt(k));
            edges.push_back(d.cdfAt(n));
            for (double e : edges)
                for (double x : {std::nextafter(e, 0.0), e,
                                 std::nextafter(e, 2.0)})
                    if (x >= 0.0 && x < 1.0)
                        u.push_back(x);
            std::vector<std::uint64_t> ranks(u.size());
            d.rankForUniforms(u.data(), ranks.data(), u.size());
            std::uint64_t mismatches = 0;
            for (std::size_t i = 0; i < u.size(); ++i)
                mismatches += ranks[i] != d.rankForUniform(u[i]);
            EXPECT_EQ(mismatches, 0u);

            std::uint64_t one = 0;
            d.rankForUniforms(u.data(), &one, 1);
            EXPECT_EQ(one, d.rankForUniform(u[0]));
            d.rankForUniforms(u.data(), nullptr, 0);
        }
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
