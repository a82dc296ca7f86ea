/**
 * @file
 * Replay-engine correctness: the allocation-free kernels against the
 * legacy policies (the per-access oracle), batched generation against
 * the seed's scalar generator, the stack-distance curve against direct
 * LRU replays, every page source against every analysis, and the
 * pinned results of every replay entry point.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "flashcache/io_trace.hh"
#include "memblade/hierarchy.hh"
#include "memblade/hybrid.hh"
#include "memblade/replay.hh"
#include "memblade/stack_distance.hh"
#include "memblade/trace_io.hh"
#include "memblade/trace_stream.hh"
#include "oracles/two_level.hh"
#include "util/hash.hh"
#include "util/logging.hh"

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

// One curve read at every fraction of a sweep (as the Figure 4
// tables read it) equals a replay per fraction.
TEST(StackDistance, SweepMatchesIndividualReplays)
{
    auto profile = profileFor(workloads::Benchmark::Webmail);
    auto curve = lruCurveForProfile(profile, 80000, 17);
    for (double f : {0.0625, 0.125, 0.25, 0.5, 0.9}) {
        SCOPED_TRACE(f);
        auto frames = std::size_t(
            std::ceil(double(profile.footprintPages) * f));
        expectSameStats(curve.statsAt(frames),
                        replayProfile(profile, f, PolicyKind::Lru,
                                      80000, 17));
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

// The 2^32-access limit of the engine's timestamps is refused before
// the source hands out a single page, whatever the source.
TEST(StackDistance, CurveRejectsTracesOf2To32PagesBeforeReading)
{
    auto profile = profileFor(workloads::Benchmark::Websearch);
    TraceGenerator gen(profile, Rng(3));
    const Rng before = gen.drawStream();
    PageSource src(gen, std::uint64_t(1) << 32, profile.footprintPages);
    EXPECT_THROW(lruCurve(src, 0), FatalError);
    EXPECT_TRUE(gen.drawStream().raw() == before.raw());
}

// Every source hands every analysis the same pages: the generator,
// the page array, and the streaming file mapped and buffered give
// the same counts for every policy, flat and windowed, for the LRU
// curve with its measured window, and for the hierarchy in both
// modes. The warmups sit at the start, inside a batch, on a batch
// boundary and at the end.
TEST(PageSource, EverySourceFeedsEveryAnalysisAlike)
{
    auto profile = profileFor(workloads::Benchmark::Ytube);
    const std::uint64_t n = 3 * PageSource::kChunk + 1234;
    const std::uint64_t warmups[] = {0, 5000, 2 * PageSource::kChunk, n};
    const std::size_t frames = 2000;
    const std::string path = testing::TempDir() + "wsc_matrix.strace";
    auto trace = generateTrace(profile, n, Rng(19));
    writeTraceStream(path, trace);

    const char *names[] = {"generator", "array", "mmap", "buffered"};
    // Run @p fn on a fresh source of the trace, of kind @p s.
    auto withSource = [&](int s, auto &&fn) {
        if (s == 0) {
            TraceGenerator gen(profile, Rng(19));
            PageSource src(gen, n, profile.footprintPages);
            return fn(src);
        }
        if (s == 1) {
            PageSource src(trace.data(), trace.size(),
                           profile.footprintPages);
            return fn(src);
        }
        TraceStream ts(path, /*forceBuffered=*/s == 3);
        if (s == 3) {
            EXPECT_FALSE(ts.mapped());
        }
        PageSource src(ts);
        return fn(src);
    };
    // The source's own flat-replay entry point.
    auto flatEntry = [&](int s, PolicyKind kind) {
        if (s == 0) {
            TraceGenerator gen(profile, Rng(19));
            return replayWindowed(gen, kind, frames,
                                  profile.footprintPages, n, 0, Rng(4))
                .total;
        }
        if (s == 1)
            return replayPages(trace.data(), trace.size(), kind, frames,
                               profile.footprintPages, Rng(4));
        TraceStream ts(path, /*forceBuffered=*/s == 3);
        return replayStream(ts, kind, frames, Rng(4));
    };

    auto analyses = [&](int s) {
        std::vector<std::uint64_t> out;
        auto put = [&](std::initializer_list<std::uint64_t> v) {
            out.insert(out.end(), v);
        };
        auto putStats = [&](const ReplayStats &st) {
            put({st.accesses, st.hits, st.misses, st.coldMisses});
        };
        ReplayStats lruFlat;
        std::vector<ReplayStats> lruMeasured;
        for (PolicyKind kind : allPolicyKinds) {
            SCOPED_TRACE(to_string(kind));
            auto flat = withSource(s, [&](PageSource &src) {
                return replayWindowed(src, kind, frames, 0, Rng(4));
            });
            expectSameStats(flat.total, flat.measured);
            expectSameStats(flat.total, flatEntry(s, kind));
            putStats(flat.total);
            for (std::uint64_t warm : warmups) {
                SCOPED_TRACE(warm);
                auto w = withSource(s, [&](PageSource &src) {
                    return replayWindowed(src, kind, frames, warm,
                                          Rng(4));
                });
                expectSameStats(w.total, flat.total);
                EXPECT_EQ(w.measured.accesses, n - warm);
                putStats(w.measured);
                if (kind == PolicyKind::Lru)
                    lruMeasured.push_back(w.measured);
            }
            if (kind == PolicyKind::Lru)
                lruFlat = flat.total;
        }
        for (std::size_t i = 0; i < std::size(warmups); ++i) {
            SCOPED_TRACE(warmups[i]);
            auto c = withSource(s, [&](PageSource &src) {
                return lruCurve(src, warmups[i]);
            });
            expectSameStats(c.statsAt(frames), lruFlat);
            EXPECT_EQ(c.measuredAccesses, lruMeasured[i].accesses);
            EXPECT_EQ(c.measuredHitsAt(frames), lruMeasured[i].hits);
            EXPECT_EQ(c.measuredColdMisses, lruMeasured[i].coldMisses);
            put({c.accesses, c.coldMisses, c.measuredAccesses,
                 c.measuredColdMisses});
            out.insert(out.end(), c.cumHits.begin(), c.cumHits.end());
            out.insert(out.end(), c.measuredCumHits.begin(),
                       c.measuredCumHits.end());
        }
        for (auto mode :
             {HierarchyMode::Inclusive, HierarchyMode::Exclusive}) {
            HierarchyParams p;
            p.l1Frames = 150;
            p.l2Frames = 600;
            p.mode = mode;
            p.prefetchDepth = 4;
            auto h = withSource(s, [&](PageSource &src) {
                return replayHierarchy(src, p);
            });
            put({h.accesses, h.l1Hits, h.l2Hits, h.prefetchHits,
                 h.misses});
        }
        return out;
    };

    auto ref = analyses(0);
    for (int s = 1; s < 4; ++s) {
        SCOPED_TRACE(names[s]);
        EXPECT_EQ(analyses(s), ref);
    }
    std::remove(path.c_str());
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

std::uint64_t
mix(std::uint64_t h, const ReplayStats &s)
{
    for (std::uint64_t v : {s.accesses, s.hits, s.misses, s.coldMisses})
        h = hashCombine(h, v);
    return h;
}

std::uint64_t
mix(std::uint64_t h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return hashCombine(h, bits);
}

std::uint64_t
mix(std::uint64_t h, const std::vector<std::uint64_t> &v)
{
    h = hashCombine(h, std::uint64_t(v.size()));
    for (std::uint64_t x : v)
        h = hashCombine(h, x);
    return h;
}

// The ResultBytesPinned tests hold every replay entry point's counts
// as recorded before the replays read their pages through one page
// source: a change to batching, warmup accounting or Rng derivation
// that moves any count fails here. The hierarchy replays are pinned
// through wsc_memblade in test_trace_io.

TEST(ReplayProfile, ResultBytesPinned)
{
    const std::array<std::uint64_t, 7> want = {
        0x2f1056c3071ff95dULL, 0x544e3f57c36956d7ULL,
        0x4fa95937563c0b55ULL, 0x3490560e3745f2c1ULL,
        0xc7ac93d8264f90eeULL, 0xc66ea997c92f631eULL,
        0xb3cb98c3f92f7620ULL};
    auto profile = profileFor(workloads::Benchmark::Websearch);
    for (std::size_t i = 0; i < std::size(allPolicyKinds); ++i) {
        PolicyKind kind = allPolicyKinds[i];
        std::uint64_t d =
            mix(0, replayProfile(profile, 0.02, kind, 50000, 7));
        EXPECT_EQ(d, want[i]) << to_string(kind) << ": 0x" << std::hex
                              << d;
    }
}

TEST(ReplayWindowed, ResultBytesPinned)
{
    // The warmup ends inside the third 4096-page batch, and exactly
    // at the end of the second.
    const std::uint64_t warmups[] = {10000, 8192};
    const std::array<std::uint64_t, 2> want = {0x69aafd700049e502ULL,
                                               0xe9596bfba75dfe9fULL};
    auto profile = profileFor(workloads::Benchmark::Ytube);
    for (std::size_t i = 0; i < std::size(warmups); ++i) {
        std::uint64_t d = 0;
        for (PolicyKind kind : allPolicyKinds) {
            TraceGenerator gen(profile, Rng(23));
            auto w = replayWindowed(gen, kind, 3000,
                                    profile.footprintPages, 30000,
                                    warmups[i], Rng(5));
            d = mix(mix(d, w.total), w.measured);
        }
        EXPECT_EQ(d, want[i]) << "warmup " << warmups[i] << ": 0x"
                              << std::hex << d;
    }
}

TEST(LruCurve, ResultBytesPinned)
{
    const std::uint64_t warmups[] = {30001, 12288};
    const std::array<std::uint64_t, 2> want = {0x62a21ca8af4388e4ULL,
                                               0xf2b795cce0107140ULL};
    auto profile = profileFor(workloads::Benchmark::Websearch);
    for (std::size_t i = 0; i < std::size(warmups); ++i) {
        TraceGenerator gen(profile, Rng(31));
        auto c = lruCurve(gen, profile.footprintPages, 60000,
                          warmups[i]);
        std::uint64_t d = 0;
        for (std::uint64_t v : {c.accesses, c.coldMisses,
                                c.measuredAccesses,
                                c.measuredColdMisses})
            d = hashCombine(d, v);
        d = mix(mix(d, c.cumHits), c.measuredCumHits);
        EXPECT_EQ(d, want[i]) << "warmup " << warmups[i] << ": 0x"
                              << std::hex << d;
    }
}

TEST(FlashCacheSweep, ResultBytesPinned)
{
    const std::array<std::uint64_t, 2> want = {0x8f8dbb2e0d06e81dULL,
                                               0x8724cef841018923ULL};
    std::vector<flashcache::FlashSpec> specs(3);
    specs[0].capacityGB = 0.25;
    specs[2].capacityGB = 4.0;
    std::size_t i = 0;
    for (auto b : {workloads::Benchmark::Websearch,
                   workloads::Benchmark::Ytube}) {
        std::uint64_t d = 0;
        for (const auto &o : flashcache::evaluateFlashCacheSweep(
                 b, specs, 100000, 5.0e6, 3))
            d = mix(mix(mix(d, o.hitRate), o.wearCyclesPerBlock),
                    o.lifetimeYears);
        EXPECT_EQ(d, want[i]) << workloads::to_string(b) << ": 0x"
                              << std::hex << d;
        ++i;
    }
}

TEST(ReplayHybrid, ResultBytesPinned)
{
    const std::array<std::uint64_t, 4> want = {
        0x56a2a825df2ed59dULL, 0x39bb437a5f6383f8ULL,
        0x1429848326203c4aULL, 0xec4aeadd1fba691dULL};
    auto profile = profileFor(workloads::Benchmark::Webmail);
    std::size_t i = 0;
    for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Random,
                            PolicyKind::Clock, PolicyKind::Arc}) {
        auto s = replayHybrid(profile, 0.02, HybridParams{}, kind,
                              60000, 9);
        std::uint64_t d = hashCombine(
            hashCombine(mix(0, s.local), s.dramHits), s.flashHits);
        EXPECT_EQ(d, want[i]) << to_string(kind) << ": 0x" << std::hex
                              << d;
        ++i;
    }
}

TEST(ReplayStream, ResultBytesPinned)
{
    const std::uint64_t want = 0xeac0a799c3ad0379ULL;
    const std::string path =
        testing::TempDir() + "wsc_replay_pinned.strace";
    auto profile = profileFor(workloads::Benchmark::MapredWc);
    writeTraceStream(path, generateTrace(profile, 40000, Rng(17)));
    for (bool forceBuffered : {false, true}) {
        std::uint64_t d = 0;
        for (PolicyKind kind : allPolicyKinds) {
            TraceStream ts(path, forceBuffered);
            d = mix(d, replayStream(ts, kind, 3000, Rng(4)));
        }
        EXPECT_EQ(d, want) << "forceBuffered " << forceBuffered
                           << ": 0x" << std::hex << d;
    }
    std::remove(path.c_str());
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
