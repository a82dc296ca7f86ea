/**
 * @file
 * Replay-engine correctness: the allocation-free kernels against the
 * legacy policies (the per-access oracle), batched generation against
 * the seed's scalar generator, the stack-distance curve against direct
 * LRU replays, and sharded-replay determinism across thread counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <unordered_map>

#include "flashcache/io_trace.hh"
#include "memblade/replay.hh"
#include "memblade/stack_distance.hh"
#include "memblade/trace_io.hh"
#include "oracles/two_level.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace {

using namespace wsc;
using namespace wsc::memblade;

void
expectSameStats(const ReplayStats &a, const ReplayStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.coldMisses, b.coldMisses);
    // Integer identity implies the derived doubles are bit-identical
    // too; spot-check the arithmetic anyway.
    EXPECT_EQ(a.missRate(), b.missRate());
    EXPECT_EQ(a.warmMissRate(), b.warmMissRate());
}

/** The seed implementation of replayProfile, kept as the oracle. */
ReplayStats
legacyReplayProfile(const TraceProfile &profile, double f,
                    PolicyKind kind, std::uint64_t accesses,
                    std::uint64_t seed)
{
    auto frames = std::size_t(
        std::ceil(double(profile.footprintPages) * f));
    Rng rng(seed);
    TwoLevelMemory mem(frames, kind, rng.split());
    TraceGenerator gen(profile, rng.split());
    mem.replay(gen, accesses);
    return mem.stats();
}

TEST(ReplayKernels, MatchLegacyPoliciesBitForBit)
{
    for (auto b : {workloads::Benchmark::Websearch,
                   workloads::Benchmark::Webmail,
                   workloads::Benchmark::MapredWc}) {
        auto profile = profileFor(b);
        for (auto kind : {PolicyKind::Lru, PolicyKind::Random,
                          PolicyKind::Clock}) {
            SCOPED_TRACE(profile.name + "/" + to_string(kind));
            auto fast =
                replayProfile(profile, 0.25, kind, 200000, 7);
            auto oracle =
                legacyReplayProfile(profile, 0.25, kind, 200000, 7);
            expectSameStats(fast, oracle);
        }
    }
}

TEST(ReplayKernels, SingleFrameCacheMatchesLegacy)
{
    // frames == 1 exercises the LRU eviction path where the list
    // empties completely on every miss.
    auto profile = profileFor(workloads::Benchmark::Websearch);
    auto trace = generateTrace(profile, 20000, Rng(11));
    for (auto kind :
         {PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock}) {
        SCOPED_TRACE(to_string(kind));
        TwoLevelMemory mem(1, kind, Rng(5));
        for (PageId p : trace)
            mem.access(p);
        auto fast = replayPages(trace.data(), trace.size(), kind, 1,
                                profile.footprintPages, Rng(5));
        expectSameStats(mem.stats(), fast);
    }
}

TEST(ReplayKernels, ReplayTraceMatchesLegacyPath)
{
    auto profile = profileFor(workloads::Benchmark::Ytube);
    auto trace = generateTrace(profile, 50000, Rng(21));
    for (auto kind :
         {PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock}) {
        SCOPED_TRACE(to_string(kind));
        TwoLevelMemory mem(20000, kind, Rng(9));
        for (PageId p : trace)
            mem.access(p);
        expectSameStats(mem.stats(),
                        replayTrace(trace, 20000, kind, 9));
    }
}

/**
 * The seed's scalar trace generator, kept as the oracle for
 * TraceGenerator: one page per call, every draw through Rng's
 * bernoulli and ZipfDist's sampleRank, run lengths by the draw loop.
 */
class ScalarTraceGenerator
{
  public:
    ScalarTraceGenerator(const TraceProfile &profile, Rng rng)
        : p(profile), rng(rng),
          hotPages(std::uint64_t(double(p.footprintPages) *
                                 p.hotSetFraction)),
          hotDist(std::max<std::uint64_t>(1, hotPages), p.zipfS),
          coldDist(std::max<std::uint64_t>(1, p.footprintPages - hotPages),
                   p.zipfS)
    {
    }

    PageId
    next()
    {
        if (runLeft > 0) {
            --runLeft;
            runPage = (runPage + 1) % p.footprintPages;
            return runPage;
        }
        if (rng.bernoulli(p.hotProb))
            runPage = hotDist.sampleRank(rng) - 1;
        else
            runPage = hotPages + (coldDist.sampleRank(rng) - 1);
        if (p.seqRunMean > 1.0) {
            double continue_prob = 1.0 - 1.0 / p.seqRunMean;
            std::uint64_t len = 0;
            while (rng.bernoulli(continue_prob) && len < 4096)
                ++len;
            runLeft = len;
        }
        return runPage;
    }

    const Rng &drawStream() const { return rng; }

  private:
    TraceProfile p;
    Rng rng;
    std::uint64_t hotPages;
    sim::ZipfDist hotDist;
    sim::ZipfDist coldDist;
    PageId runPage = 0;
    std::uint64_t runLeft = 0;
};

/** A synthetic profile for the generator's edge cases. */
TraceProfile
edgeProfile(std::string name, std::uint64_t footprint, double hotProb,
            double seqRunMean)
{
    TraceProfile p;
    p.name = std::move(name);
    p.footprintPages = footprint;
    p.hotSetFraction = 0.1;
    p.hotProb = hotProb;
    p.zipfS = 0.9;
    p.seqRunMean = seqRunMean;
    return p;
}

TEST(TraceBatch, NextBatchMatchesScalarNext)
{
    std::vector<TraceProfile> profiles;
    for (auto b : workloads::allBenchmarks) {
        profiles.push_back(profileFor(b));
        profiles.push_back(flashcache::ioProfileFor(b));
    }
    // Runs that nearly always reach the 4096-page cap (and every one
    // of them, when the continue probability rounds to 1), runs that
    // wrap at the footprint's end, no runs at all, and one region only.
    profiles.push_back(edgeProfile("cap", 50000, 0.8, 1.0e6));
    profiles.push_back(edgeProfile("cap-always", 50000, 0.8,
                                   std::numeric_limits<double>::infinity()));
    profiles.push_back(edgeProfile("wrap", 1000, 0.5, 50.0));
    profiles.push_back(edgeProfile("mean-one", 20000, 0.8, 1.0));
    profiles.push_back(edgeProfile("mean-half", 20000, 0.8, 0.5));
    profiles.push_back(edgeProfile("mean-zero", 20000, 0.8, 0.0));
    profiles.push_back(edgeProfile("all-cold", 20000, 0.0, 3.0));
    profiles.push_back(edgeProfile("all-hot", 20000, 1.0, 3.0));

    // Ragged batch sizes: empty, single pages, sizes that hold more
    // runs than one plan block (256 runs), and sizes that end runs
    // part way.
    const std::size_t sizes[] = {1, 2, 3, 0, 7, 64, 300, 1000, 4096, 5,
                                 5000, 20000, 4097};
    std::vector<PageId> buf(20000);
    for (const auto &profile : profiles) {
        SCOPED_TRACE(profile.name);
        ScalarTraceGenerator scalar(profile, Rng(33));
        TraceGenerator batched(profile, Rng(33));
        std::uint64_t checked = 0;
        for (std::size_t si = 0; checked < 120000; ++si) {
            std::size_t n = sizes[si % std::size(sizes)];
            batched.nextBatch(buf.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(buf[i], scalar.next())
                    << "at access " << checked + i;
            checked += n;
            // Both have taken exactly the same draws.
            ASSERT_TRUE(batched.drawStream().raw() ==
                        scalar.drawStream().raw())
                << "after access " << checked;
        }
        // And left the same pending run: interleave single pages.
        for (int i = 0; i < 100; ++i)
            ASSERT_EQ(batched.next(), scalar.next());
    }
}

TEST(TraceBatch, ProfileValidationRejectsBadProbabilities)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto make = [](double hotProb, double seqRunMean) {
        TraceGenerator gen(edgeProfile("bad", 1000, hotProb, seqRunMean),
                           Rng(1));
    };
    EXPECT_THROW(make(-0.1, 2.0), PanicError);
    EXPECT_THROW(make(1.5, 2.0), PanicError);
    EXPECT_THROW(make(nan, 2.0), PanicError);
    EXPECT_THROW(make(0.5, nan), PanicError);
    EXPECT_THROW(make(0.5, -1.0), PanicError);
    // The edges themselves are valid.
    EXPECT_NO_THROW(make(0.0, 0.0));
    EXPECT_NO_THROW(make(1.0, 1.0));
}

TEST(StackDistance, CurveMatchesDirectLruReplayEverywhere)
{
    const double fractions[] = {0.05, 0.1, 0.25, 0.5, 1.0};
    for (auto b : workloads::allBenchmarks) {
        auto profile = profileFor(b);
        SCOPED_TRACE(profile.name);
        const std::uint64_t n = 100000;
        auto curve = lruCurveForProfile(profile, n, 13);
        for (double f : fractions) {
            SCOPED_TRACE(f);
            auto frames = std::size_t(
                std::ceil(double(profile.footprintPages) * f));
            expectSameStats(
                curve.statsAt(frames),
                replayProfile(profile, f, PolicyKind::Lru, n, 13));
        }
    }
}

TEST(StackDistance, LongTraceMatchesDirectLruReplay)
{
    // Past 2^20 accesses the count structure has five levels, the top
    // two with 32-bit counts; the curve must still equal direct LRU
    // replays at every capacity it is asked for.
    auto profile = edgeProfile("long", 200000, 0.7, 4.0);
    const std::uint64_t n = (1u << 20) + 150001;
    auto curve = lruCurveForProfile(profile, n, 29);
    for (double f : {0.002, 0.02, 0.1, 0.3, 0.7, 1.0}) {
        SCOPED_TRACE(f);
        auto frames = std::size_t(
            std::ceil(double(profile.footprintPages) * f));
        expectSameStats(curve.statsAt(frames),
                        replayProfile(profile, f, PolicyKind::Lru, n, 29));
    }
}

TEST(StackDistance, SweepMatchesIndividualReplays)
{
    auto profile = profileFor(workloads::Benchmark::Webmail);
    const std::vector<double> fractions{0.0625, 0.125, 0.25, 0.5,
                                        0.9};
    auto swept = replayProfileSweep(profile, fractions, 80000, 17);
    ASSERT_EQ(swept.size(), fractions.size());
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        SCOPED_TRACE(fractions[i]);
        expectSameStats(swept[i],
                        replayProfile(profile, fractions[i],
                                      PolicyKind::Lru, 80000, 17));
    }
}

TEST(StackDistance, MeasuredWindowMatchesWindowedReplay)
{
    auto profile = profileFor(workloads::Benchmark::Websearch);
    const std::uint64_t n = 60000, warm = n / 2;
    TraceGenerator curveGen(profile, Rng(23));
    auto curve = lruCurve(curveGen, profile.footprintPages, n, warm);
    auto frames = std::size_t(
        std::ceil(double(profile.footprintPages) * 0.25));

    TraceGenerator replayGen(profile, Rng(23));
    auto w = replayWindowed(replayGen, PolicyKind::Lru, frames,
                            profile.footprintPages, n, warm, Rng(0));
    expectSameStats(curve.statsAt(frames), w.total);
    EXPECT_EQ(curve.measuredAccesses, w.measured.accesses);
    EXPECT_EQ(curve.measuredHitsAt(frames), w.measured.hits);
    EXPECT_EQ(curve.measuredColdMisses, w.measured.coldMisses);
}

TEST(ShardedReplay, IdenticalAcrossThreadCounts)
{
    auto profile = profileFor(workloads::Benchmark::Websearch);
    for (auto kind : {PolicyKind::Lru, PolicyKind::Random}) {
        SCOPED_TRACE(to_string(kind));
        ThreadPool one(1);
        auto ref = shardedReplayProfile(profile, 0.25, kind, 100001,
                                        42, 8, &one);
        // 100001 accesses over 8 shards: the remainder spreads over
        // the first shard, so uneven splits are covered too.
        for (unsigned threads : {2u, 8u}) {
            SCOPED_TRACE(threads);
            ThreadPool pool(threads);
            auto got = shardedReplayProfile(profile, 0.25, kind,
                                            100001, 42, 8, &pool);
            expectSameStats(ref, got);
        }
    }
}

TEST(PageSlotMap, ChurnMatchesUnorderedMapReference)
{
    // Randomized insert/erase/find churn against std::unordered_map,
    // in both representations: hash mode (pageBound 0) with a working
    // set near the table's load limit so backshift deletion runs
    // constantly, and direct-mapped mode with the same operations.
    for (std::uint64_t pageBound : {std::uint64_t(0),
                                    std::uint64_t(1001)}) {
        SCOPED_TRACE(pageBound);
        const std::size_t entries = 300;
        PageSlotMap map(entries, pageBound);
        std::unordered_map<PageId, std::uint32_t> ref;
        Rng rng(99);
        for (int op = 0; op < 20000; ++op) {
            PageId page = rng.uniformInt(0, 1000);
            auto it = ref.find(page);
            ASSERT_EQ(map.find(page), it == ref.end()
                                          ? PageSlotMap::kNoSlot
                                          : it->second)
                << "op " << op;
            if (it != ref.end()) {
                map.erase(page);
                ref.erase(it);
            } else if (ref.size() < entries) {
                auto slot = std::uint32_t(op);
                map.insert(page, slot);
                ref.emplace(page, slot);
            }
            ASSERT_EQ(map.size(), ref.size());
        }
    }
}

TEST(ColdTracker, BitsetAndSparseAgree)
{
    ColdTracker dense(4096); // bitset path
    ColdTracker sparse(0);   // hash-set path
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        PageId page = rng.uniformInt(0, 4095);
        ASSERT_EQ(dense.firstTouch(page), sparse.firstTouch(page));
    }
}

TEST(ReplayWindowed, ZeroWarmupMeasuresEverything)
{
    auto profile = profileFor(workloads::Benchmark::Webmail);
    TraceGenerator gen(profile, Rng(3));
    auto w = replayWindowed(gen, PolicyKind::Lru, 10000,
                            profile.footprintPages, 30000, 0, Rng(0));
    expectSameStats(w.total, w.measured);
}

} // namespace
