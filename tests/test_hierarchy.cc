/**
 * @file
 * Unit tests for the two-level inclusive/exclusive hierarchy and its
 * sequential prefetch buffer: containment invariants, back-
 * invalidation, promotion/demotion, and the exclusive-equals-big-LRU
 * equivalence that pins the paper's DMA-swap semantics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "memblade/hierarchy.hh"
#include "memblade/page_source.hh"
#include "memblade/replay.hh"
#include "memblade/trace_stream.hh"
#include "util/logging.hh"

namespace {

using namespace wsc;
using namespace wsc::memblade;

HierarchyParams
params(std::size_t l1, std::size_t l2, HierarchyMode mode,
       std::size_t depth = 0)
{
    HierarchyParams p;
    p.l1Frames = l1;
    p.l2Frames = l2;
    p.mode = mode;
    p.prefetchDepth = depth;
    return p;
}

std::vector<PageId>
sampleTrace(std::uint64_t n = 20000)
{
    auto profile = profileFor(workloads::Benchmark::Webmail);
    return generateTrace(profile, n, Rng(42));
}

HierarchyStats
hierarchyReplay(const std::vector<PageId> &trace, const HierarchyParams &p)
{
    PageSource src(trace.data(), trace.size(), 0);
    return replayHierarchy(src, p);
}

TEST(Hierarchy, RejectsInvalidParams)
{
    EXPECT_THROW(TwoLevelHierarchy(
                     params(0, 8, HierarchyMode::Exclusive)),
                 FatalError);
    EXPECT_THROW(TwoLevelHierarchy(
                     params(8, 0, HierarchyMode::Exclusive)),
                 FatalError);
    // Inclusive needs L1 to fit inside L2.
    EXPECT_THROW(TwoLevelHierarchy(
                     params(16, 8, HierarchyMode::Inclusive)),
                 FatalError);
    // The same shape is fine exclusively (capacities add).
    EXPECT_NO_THROW(TwoLevelHierarchy(
        params(16, 8, HierarchyMode::Exclusive)));
}

TEST(Hierarchy, ModeNamesRoundTrip)
{
    for (auto mode :
         {HierarchyMode::Inclusive, HierarchyMode::Exclusive})
        EXPECT_EQ(hierarchyModeFromString(to_string(mode)), mode);
    EXPECT_THROW(hierarchyModeFromString("victim"), FatalError);
}

TEST(Hierarchy, InclusiveBackInvalidatesL1OnL2Eviction)
{
    TwoLevelHierarchy h(params(2, 2, HierarchyMode::Inclusive));
    h.access(1);
    h.access(2);
    EXPECT_TRUE(h.inL1(1));
    EXPECT_TRUE(h.inL2(1));
    // Page 3 evicts L2's LRU (page 1), which must leave L1 too.
    h.access(3);
    EXPECT_FALSE(h.inL2(1));
    EXPECT_FALSE(h.inL1(1));
    EXPECT_TRUE(h.inL1(3));
    EXPECT_TRUE(h.inL2(3));
    h.checkInvariants();
    EXPECT_EQ(h.stats().misses, 3u);
}

TEST(Hierarchy, ExclusivePromotesAndDemotes)
{
    TwoLevelHierarchy h(params(1, 2, HierarchyMode::Exclusive));
    h.access(1); // fill L1
    EXPECT_TRUE(h.inL1(1));
    EXPECT_FALSE(h.inL2(1));
    h.access(2); // 1 demotes to L2
    EXPECT_TRUE(h.inL1(2));
    EXPECT_TRUE(h.inL2(1));
    EXPECT_FALSE(h.inL2(2));
    h.access(1); // L2 hit: promote 1, demote 2
    EXPECT_EQ(h.stats().l2Hits, 1u);
    EXPECT_TRUE(h.inL1(1));
    EXPECT_FALSE(h.inL2(1));
    EXPECT_TRUE(h.inL2(2));
    h.checkInvariants();
}

TEST(Hierarchy, InvariantsHoldAcrossWorkloadReplays)
{
    auto trace = sampleTrace();
    for (auto mode :
         {HierarchyMode::Inclusive, HierarchyMode::Exclusive}) {
        for (std::size_t depth : {std::size_t(0), std::size_t(4)}) {
            TwoLevelHierarchy h(params(200, 800, mode, depth));
            for (PageId p : trace)
                h.access(p);
            h.checkInvariants();
            const auto &st = h.stats();
            EXPECT_EQ(st.accesses, trace.size());
            EXPECT_EQ(st.l1Hits + st.l2Hits + st.prefetchHits +
                          st.misses,
                      st.accesses)
                << to_string(mode) << " depth " << depth;
        }
    }
}

// An exclusive two-level LRU hierarchy with promote-on-hit and
// demote-on-evict is exactly one big LRU of l1 + l2 frames: the two
// recency lists concatenate into a single global recency order. This
// is the paper's DMA-swap setup, and it pins the hierarchy against
// the flat replay kernels.
TEST(Hierarchy, ExclusiveEqualsSingleLruOfCombinedCapacity)
{
    auto profile = profileFor(workloads::Benchmark::Ytube);
    auto trace = generateTrace(profile, 40000, Rng(7));
    const std::size_t l1 = 300, l2 = 1200;

    auto hs =
        hierarchyReplay(trace, params(l1, l2, HierarchyMode::Exclusive));
    auto flat = replayPages(trace.data(), trace.size(),
                            PolicyKind::Lru, l1 + l2,
                            profile.footprintPages, Rng(4));
    EXPECT_EQ(hs.misses, flat.misses);
    EXPECT_EQ(hs.l1Hits + hs.l2Hits, flat.hits);
}

// Inclusive duplicates L1 inside L2, so at equal frame counts it can
// never beat exclusive (which adds capacities) on misses.
TEST(Hierarchy, InclusiveNeverBeatsExclusiveAtEqualFrames)
{
    auto trace = sampleTrace(40000);
    auto inc = hierarchyReplay(trace,
                               params(200, 800, HierarchyMode::Inclusive));
    auto exc = hierarchyReplay(trace,
                               params(200, 800, HierarchyMode::Exclusive));
    EXPECT_GE(inc.misses, exc.misses);
}

TEST(Hierarchy, PrefetchBufferServesSequentialStreams)
{
    TwoLevelHierarchy h(params(8, 32, HierarchyMode::Exclusive, 4));
    h.access(100); // miss; prefetches 101..104
    EXPECT_TRUE(h.inPrefetch(101));
    EXPECT_TRUE(h.inPrefetch(104));
    for (PageId p = 101; p <= 120; ++p)
        h.access(p); // buffer hits keep the stream ramped
    const auto &st = h.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.prefetchHits, 20u);
    h.checkInvariants();

    // A random-ish workload must not be hurt into incorrectness:
    // invariants hold and prefetch frames default to 4 * depth.
    EXPECT_EQ(h.params().prefetchFrames, 16u);
}

TEST(Hierarchy, PrefetchBufferStaysDisjointFromLevels)
{
    TwoLevelHierarchy h(params(4, 8, HierarchyMode::Inclusive, 2));
    // Touch pages so prefetch candidates overlap resident pages.
    for (PageId p : {PageId(1), PageId(2), PageId(3), PageId(1),
                     PageId(4), PageId(2), PageId(5)})
        h.access(p);
    h.checkInvariants();
    for (PageId p = 0; p < 16; ++p)
        EXPECT_FALSE(h.inPrefetch(p) && (h.inL1(p) || h.inL2(p)))
            << p;
}

TEST(Hierarchy, StreamReplayMatchesPagesReplay)
{
    const char *path = "/tmp/wsc_hier.strace";
    auto trace = sampleTrace(30000);
    writeTraceStream(path, trace);

    for (auto mode :
         {HierarchyMode::Inclusive, HierarchyMode::Exclusive}) {
        auto p = params(150, 600, mode, 4);
        auto fromPages = hierarchyReplay(trace, p);
        TraceStream ts(path);
        PageSource src(ts);
        auto fromStream = replayHierarchy(src, p);
        EXPECT_EQ(fromStream.accesses, fromPages.accesses);
        EXPECT_EQ(fromStream.l1Hits, fromPages.l1Hits);
        EXPECT_EQ(fromStream.l2Hits, fromPages.l2Hits);
        EXPECT_EQ(fromStream.prefetchHits, fromPages.prefetchHits);
        EXPECT_EQ(fromStream.misses, fromPages.misses);
    }
    std::remove(path);
}

TEST(Hierarchy, ProfileReplayIsDeterministic)
{
    auto profile = profileFor(workloads::Benchmark::MapredWc);
    auto p = params(100, 400, HierarchyMode::Exclusive, 2);
    auto replayProfile = [&](std::uint64_t seed) {
        auto gen = profileTrace(profile, seed).second;
        PageSource src(gen, 25000, profile.footprintPages);
        return replayHierarchy(src, p);
    };
    auto a = replayProfile(11);
    auto b = replayProfile(11);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.prefetchHits, b.prefetchHits);
    EXPECT_EQ(a.misses, b.misses);
    auto c = replayProfile(12);
    EXPECT_TRUE(a.misses != c.misses || a.l1Hits != c.l1Hits ||
                a.prefetchHits != c.prefetchHits)
        << "different seeds produced identical stats";
}

} // namespace
