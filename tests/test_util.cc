/**
 * @file
 * Unit tests for the util module: logging, tables, strings, units.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <sstream>

#include "util/logging.hh"
#include "util/random.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace {

using namespace wsc;

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom"), PanicError);
    try {
        panic("specific message");
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("specific message"),
                  std::string::npos);
    }
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, FatalIsNotPanic)
{
    // The two error classes must stay distinguishable for callers.
    EXPECT_THROW(
        {
            try {
                fatal("x");
            } catch (const PanicError &) {
                FAIL() << "fatal() must not throw PanicError";
            }
        },
        FatalError);
}

TEST(Logging, WarnCountsAndRespectsLevel)
{
    Logger::resetWarnCount();
    Logger::setLevel(LogLevel::Silent);
    warn("suppressed but counted");
    EXPECT_EQ(Logger::warnCount(), 1u);
    Logger::setLevel(LogLevel::Warn);
}

TEST(Logging, AssertMacroPanicsWithMessage)
{
    EXPECT_THROW(WSC_ASSERT(1 == 2, "math broke: " << 42), PanicError);
    EXPECT_NO_THROW(WSC_ASSERT(1 == 1, "fine"));
}

TEST(Table, AlignsAndCounts)
{
    Table t({"System", "Watt"});
    t.addRow({"srvr1", "340"});
    t.addRow({"emb2", "35"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::string s = t.str();
    EXPECT_NE(s.find("srvr1"), std::string::npos);
    EXPECT_NE(s.find("340"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), PanicError);
}

TEST(Table, CsvOutputQuotesCommas)
{
    Table t({"name", "value"});
    t.addRow({"a,b", "1"});
    std::ostringstream ss;
    t.printCsv(ss);
    EXPECT_NE(ss.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, SeparatorExcludedFromRowCount)
{
    Table t({"x"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableFormat, Percent)
{
    EXPECT_EQ(fmtPct(1.33), "133%");
    EXPECT_EQ(fmtPct(0.675, 1), "67.5%");
}

TEST(TableFormat, Dollars)
{
    EXPECT_EQ(fmtDollars(5758.0), "$5,758");
    EXPECT_EQ(fmtDollars(120.4), "$120");
    EXPECT_EQ(fmtDollars(1234567.0), "$1,234,567");
    EXPECT_EQ(fmtDollars(-42.0), "-$42");
}

TEST(TableFormat, Fixed)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtF(2.0, 0), "2");
}

TEST(Strings, SplitJoinRoundTrip)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(Strings, SplitTrailingDelimiter)
{
    auto parts = split("a,", ',');
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[1], "");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, LowerAndPrefix)
{
    EXPECT_EQ(toLower("WebSearch"), "websearch");
    EXPECT_TRUE(startsWith("websearch", "web"));
    EXPECT_FALSE(startsWith("web", "websearch"));
}

TEST(Units, EnergyConversions)
{
    // 1 kW sustained for a year is 8.76 MWh.
    EXPECT_NEAR(units::energyMWh(1000.0, 1.0), 8.76, 1e-9);
    EXPECT_NEAR(units::wattHoursToMWh(500.0, 2.0), 0.001, 1e-12);
}

TEST(Rng, DeterministicWithSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitDecorrelates)
{
    Rng a(42);
    Rng child = a.split();
    // The child stream must differ from the parent's continuation.
    bool any_diff = false;
    Rng parent_copy(42);
    (void)parent_copy.raw()(); // consume the split draw
    for (int i = 0; i < 10; ++i)
        any_diff |= (child.uniform() != parent_copy.uniform());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, ExponentialMeanApproximation)
{
    Rng r(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(2.5);
    EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, DrawsAreBitEqualToStdDistributions)
{
#if !defined(__GLIBCXX__)
    GTEST_SKIP() << "Rng follows libstdc++'s distribution bodies";
#endif
    // The inline draws must be the std:: distributions' exact values
    // over a std engine with the same seed, and leave both engines at
    // the same point of the stream.
    // normal and lognormal build a fresh distribution per draw, as
    // Rng did, so no second polar variate carries over.
    const int n = 1 << 20;
    for (std::uint64_t seed : {1ull, 42ull, 0x5DEECE66Dull, ~0ull}) {
        Rng r(seed);
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        for (int i = 0; i < n; ++i) {
            double got = r.uniform();
            double want = unit(ref);
            ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                << "uniform draw " << i << " seed " << seed;
        }
        std::uniform_real_distribution<double> span(-3.0, 7.5);
        for (int i = 0; i < n; ++i) {
            double got = r.uniform(-3.0, 7.5);
            double want = span(ref);
            ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                << "uniform(lo, hi) draw " << i << " seed " << seed;
        }
        for (double mean : {0.01, 1.0, 2.5}) {
            std::exponential_distribution<double> expo(1.0 / mean);
            for (int i = 0; i < n; ++i) {
                double got = r.exponential(mean);
                double want = expo(ref);
                ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                    << "exponential(" << mean << ") draw " << i
                    << " seed " << seed;
            }
        }
        for (int i = 0; i < n / 4; ++i) {
            double got = r.normal(-1.5, 0.3);
            double want = std::normal_distribution<double>(-1.5, 0.3)(ref);
            ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                << "normal draw " << i << " seed " << seed;
        }
        for (int i = 0; i < n / 4; ++i) {
            double got = r.lognormal(0.2, 0.8);
            double want =
                std::lognormal_distribution<double>(0.2, 0.8)(ref);
            ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                << "lognormal draw " << i << " seed " << seed;
        }
        // Same position in the same stream: a full state's worth of
        // raw outputs still agrees.
        for (int i = 0; i < 312; ++i)
            ASSERT_EQ(r.raw()(), ref()) << "raw draw " << i << " seed "
                                        << seed << " after the draws";
    }
}

TEST(Rng, EngineMatchesStdMt19937_64)
{
    // The in-house engine is the standard's MT19937-64: same seeding,
    // twist and tempering, so the same outputs for every seed, across
    // thousands of twists.
    const int n = 1 << 20;
    for (std::uint64_t seed :
         {0ull, 1ull, 42ull, 5489ull, 0x5DEECE66Dull, ~0ull}) {
        Rng r(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < n; ++i)
            ASSERT_EQ(r.raw()(), ref()) << "draw " << i << " seed " << seed;

        // A copy carries the whole state, mid-block included.
        for (int i = 0; i < 100; ++i)
            (void)r.raw()();
        Rng copy = r;
        EXPECT_TRUE(copy.raw() == r.raw());
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(copy.raw()(), r.raw()()) << "copy draw " << i;
        EXPECT_TRUE(copy.raw() == r.raw());
        (void)copy.raw()();
        EXPECT_FALSE(copy.raw() == r.raw());
    }

    // uniformInt is std::uniform_int_distribution over the engine, so
    // it matches the same distribution over a std engine, including
    // the rejection paths of ranges that do not divide 2^64.
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {0, 0}, {3, 9}, {0, 1}, {0, 1023}, {5, 1000003},
        {0, (1ull << 63) + 12345}, {1, ~0ull}, {0, ~0ull}};
    for (std::uint64_t seed : {7ull, 0x5DEECE66Dull}) {
        Rng r(seed);
        std::mt19937_64 ref(seed);
        for (auto [lo, hi] : ranges) {
            std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
            for (int i = 0; i < 20000; ++i)
                ASSERT_EQ(r.uniformInt(lo, hi), dist(ref))
                    << "[" << lo << ", " << hi << "] draw " << i;
        }
        EXPECT_EQ(r.raw()(), ref());
    }
}

/** Engine stub returning one fixed 64-bit value, for probing
 * std::generate_canonical at chosen inputs. */
struct FixedBits {
    using result_type = std::uint64_t;
    std::uint64_t bits;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }
    result_type operator()() { return bits; }
};

TEST(Rng, CanonicalMatchesGenerateCanonicalAndClampsBelowOne)
{
#if !defined(__GLIBCXX__)
    GTEST_SKIP() << "Rng follows libstdc++'s generate_canonical";
#endif
    // 2^64 - 1 rounds up to 2^64, so the quotient is 1 and clamps.
    EXPECT_EQ(Rng::canonical(~0ull), std::nextafter(1.0, 0.0));
    const std::uint64_t probes[] = {
        0ull, 1ull, 2047ull, 2048ull, 1ull << 52, 1ull << 63,
        (1ull << 63) + 1, ~0ull - 2048, ~0ull - 1024, ~0ull - 1023,
        ~0ull - 1, ~0ull};
    // Round-half-even ties and near-ties that only the low 32 bits
    // decide, since Rng::canonical converts the two halves apart and
    // rounds their sum once.
    const std::uint64_t ties[] = {
        (1ull << 53) + 1, (1ull << 54) + 2, (1ull << 63) + (1ull << 10),
        (1ull << 63) + (3ull << 10), (1ull << 63) + (1ull << 10) + 1,
        (1ull << 32) - 1, 1ull << 32, (1ull << 32) + 1};
    auto check = [](std::uint64_t x) {
        FixedBits stub{x};
        double want = std::generate_canonical<double, 53>(stub);
        double got = Rng::canonical(x);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "bits " << x;
        EXPECT_LT(got, 1.0) << "bits " << x;
    };
    for (std::uint64_t x : probes)
        check(x);
    for (std::uint64_t x : ties)
        check(x);

    // Random bit patterns, which mostly set the top bit or leave
    // more than 53 significant bits to round.
    std::mt19937_64 patterns(99);
    for (int i = 0; i < (1 << 20); ++i) {
        std::uint64_t x = patterns();
        FixedBits stub{x};
        double want = std::generate_canonical<double, 53>(stub);
        double got = Rng::canonical(x);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "bits " << x;
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(SplitMix64Engine, DeterministicPerSeed)
{
    SplitMix64 a(123), b(123), c(124);
    bool anyDiff = false;
    for (int i = 0; i < 100; ++i) {
        double ua = a.uniform();
        EXPECT_EQ(ua, b.uniform());
        EXPECT_GE(ua, 0.0);
        EXPECT_LT(ua, 1.0);
        anyDiff = anyDiff || ua != c.uniform();
    }
    EXPECT_TRUE(anyDiff);
}

TEST(SplitMix64, PoissonMatchesLaw)
{
    // Mean 3 takes Knuth's product loop, mean 50 the PTRS rejection
    // sampler; a Poisson's variance equals its mean. Tolerances are
    // about four standard errors of the 200k-draw estimates.
    struct Case {
        double mean, meanTol, varTol;
    };
    for (Case c : {Case{3.0, 0.02, 0.05}, Case{50.0, 0.07, 0.65}}) {
        SplitMix64 g(2024);
        constexpr int n = 200000;
        double sum = 0.0, sumSq = 0.0;
        for (int i = 0; i < n; ++i) {
            double k = double(g.poisson(c.mean));
            sum += k;
            sumSq += k * k;
        }
        double mean = sum / n;
        double var = (sumSq - n * mean * mean) / (n - 1);
        EXPECT_NEAR(mean, c.mean, c.meanTol) << "mean " << c.mean;
        EXPECT_NEAR(var, c.mean, c.varTol) << "mean " << c.mean;
    }

    SplitMix64 g(7);
    EXPECT_EQ(g.poisson(0.0), 0u);
    EXPECT_EQ(g.poisson(std::nan("")), 0u);
}

} // namespace
