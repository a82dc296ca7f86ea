/**
 * @file
 * Unit tests for the benchmark-suite workload models (Table 1).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "workloads/mapreduce.hh"
#include "workloads/suite.hh"
#include "workloads/webmail.hh"
#include "workloads/websearch.hh"
#include "workloads/ytube.hh"

namespace {

using namespace wsc;
using namespace wsc::workloads;

TEST(Suite, AllFiveBenchmarksInstantiable)
{
    for (auto b : allBenchmarks) {
        auto w = makeBenchmark(b);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), to_string(b));
    }
}

TEST(Suite, KindsMatchPaperTable1)
{
    EXPECT_EQ(makeBenchmark(Benchmark::Websearch)->kind(),
              WorkloadKind::Interactive);
    EXPECT_EQ(makeBenchmark(Benchmark::Webmail)->kind(),
              WorkloadKind::Interactive);
    EXPECT_EQ(makeBenchmark(Benchmark::Ytube)->kind(),
              WorkloadKind::Interactive);
    EXPECT_EQ(makeBenchmark(Benchmark::MapredWc)->kind(),
              WorkloadKind::Batch);
    EXPECT_EQ(makeBenchmark(Benchmark::MapredWr)->kind(),
              WorkloadKind::Batch);
}

TEST(Websearch, QosMatchesTable1)
{
    Websearch ws;
    EXPECT_DOUBLE_EQ(ws.qos().quantile, 0.95);
    EXPECT_DOUBLE_EQ(ws.qos().latencyLimit, 0.5);
}

TEST(Websearch, SampleMeanTracksMeanDemand)
{
    Websearch ws;
    Rng rng(5);
    ServiceDemand acc;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        auto d = ws.nextRequest(rng);
        acc.cpuWork += d.cpuWork;
        acc.diskReadBytes += d.diskReadBytes;
        acc.netBytes += d.netBytes;
    }
    auto mean = ws.meanDemand();
    EXPECT_NEAR(acc.cpuWork / n, mean.cpuWork, 0.10 * mean.cpuWork);
    EXPECT_NEAR(acc.diskReadBytes / n, mean.diskReadBytes,
                0.15 * mean.diskReadBytes);
    EXPECT_DOUBLE_EQ(acc.netBytes / n, mean.netBytes);
}

TEST(Websearch, PopularTermsAreCached)
{
    Websearch ws;
    EXPECT_TRUE(ws.termIsCached(1));
    EXPECT_FALSE(ws.termIsCached(ws.params().vocabularyTerms));
}

TEST(Websearch, KeywordCountsInObservedRange)
{
    Websearch ws;
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
        unsigned k = ws.sampleKeywordCount(rng);
        EXPECT_GE(k, 1u);
        EXPECT_LE(k, 5u);
    }
}

TEST(Websearch, DiskReadsOnlyForColdTerms)
{
    // With everything cached there must be no disk demand.
    WebsearchParams p;
    p.cachedTermFraction = 1.0;
    Websearch ws(p);
    Rng rng(7);
    for (int i = 0; i < 200; ++i)
        EXPECT_DOUBLE_EQ(ws.nextRequest(rng).diskReadBytes, 0.0);
    EXPECT_DOUBLE_EQ(ws.meanDemand().diskReadOps, 0.0);
}

TEST(Webmail, QosMatchesTable1)
{
    Webmail wm;
    EXPECT_DOUBLE_EQ(wm.qos().quantile, 0.95);
    EXPECT_DOUBLE_EQ(wm.qos().latencyLimit, 0.8);
}

TEST(Webmail, ActionMixCoversAllActions)
{
    Webmail wm;
    Rng rng(8);
    int counts[8] = {};
    for (int i = 0; i < 20000; ++i)
        ++counts[int(wm.sampleAction(rng))];
    for (int i = 0; i < 8; ++i)
        EXPECT_GT(counts[i], 0) << "action " << i << " never drawn";
    // ReadMessage dominates the heavy-usage mix.
    EXPECT_GT(counts[int(MailAction::ReadMessage)],
              counts[int(MailAction::Login)]);
}

TEST(Webmail, MeanDemandConsistentWithSamples)
{
    Webmail wm;
    Rng rng(9);
    double cpu = 0, net = 0;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        auto d = wm.nextRequest(rng);
        cpu += d.cpuWork;
        net += d.netBytes;
    }
    auto mean = wm.meanDemand();
    EXPECT_NEAR(cpu / n, mean.cpuWork, 0.10 * mean.cpuWork);
    EXPECT_NEAR(net / n, mean.netBytes, 0.10 * mean.netBytes);
}

TEST(Webmail, BackendTrafficIncluded)
{
    // Network bytes must exceed the raw body size: IMAP/SMTP backend
    // chatter is part of the workload (paper Section 2.1).
    Webmail wm;
    auto mean = wm.meanDemand();
    EXPECT_GT(mean.netBytes,
              (mean.diskReadBytes + mean.diskWriteBytes));
}

TEST(Ytube, StreamingTraits)
{
    Ytube yt;
    auto t = yt.traits();
    EXPECT_GT(t.streamPacingCapMBs, 0.0);
    EXPECT_GT(t.diskCacheHitRate, 0.5); // Zipf head cached
    EXPECT_DOUBLE_EQ(t.cpuScalingGamma, 1.0);
}

TEST(Ytube, TransferSizesHeavyTailed)
{
    Ytube yt;
    Rng rng(10);
    double max_mb = 0, sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        auto d = yt.nextRequest(rng);
        double mb = d.netBytes / 1e6;
        max_mb = std::max(max_mb, mb);
        sum += mb;
    }
    double mean = sum / n;
    EXPECT_NEAR(mean, yt.params().meanTransferMB,
                0.15 * yt.params().meanTransferMB);
    // Heavy tail: the max is many times the mean.
    EXPECT_GT(max_mb, 5.0 * mean);
}

TEST(Ytube, DiskDemandEqualsNetworkDemand)
{
    // Whole objects are read and streamed.
    Ytube yt;
    Rng rng(11);
    auto d = yt.nextRequest(rng);
    EXPECT_DOUBLE_EQ(d.diskReadBytes, d.netBytes);
}

TEST(Ytube, PopularityRanksValid)
{
    Ytube yt;
    Rng rng(12);
    for (int i = 0; i < 2000; ++i) {
        auto r = yt.sampleVideoRank(rng);
        EXPECT_GE(r, 1u);
        EXPECT_LE(r, yt.params().catalogSize);
    }
}

// Test-local references that walk the Zipf table: they invert every
// rank uniform (ZipfDist::sampleRank) and test the rank, the walk
// nextRequest skips.

bool
sameDemand(const ServiceDemand &a, const ServiceDemand &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

ServiceDemand
websearchByRank(Websearch &ws, sim::ZipfDist &terms,
                sim::LognormalDist &shape, Rng &rng)
{
    const auto &p = ws.params();
    unsigned keywords = ws.sampleKeywordCount(rng);
    ServiceDemand d;
    d.cpuWork = (p.cpuWorkBase + p.cpuWorkPerTerm * double(keywords)) *
                shape.sampleImpl(rng);
    for (unsigned i = 0; i < keywords; ++i)
        if (!ws.termIsCached(terms.sampleRank(rng)))
            d.diskReadBytes += p.postingListBytes;
    d.netBytes = p.responseBytes;
    return d;
}

TEST(Websearch, ThresholdDrawsMatchRankWalk)
{
    // The 16-term vocabulary gives every rank enough mass that an
    // off-by-one threshold shows within a few draws.
    const std::pair<std::uint64_t, double> configs[] = {
        {200000, 0.0}, {200000, 0.25}, {200000, 1.0}, {16, 0.25},
        {16, 0.5}};
    for (auto [vocabulary, cached] : configs) {
        WebsearchParams p;
        p.vocabularyTerms = vocabulary;
        p.cachedTermFraction = cached;
        Websearch ws(p), ref(p);
        sim::ZipfDist terms(p.vocabularyTerms, p.termZipfExponent);
        sim::LognormalDist shape(1.0, p.covCpu);
        for (std::uint64_t seed : {3ull, 77ull}) {
            Rng a(seed), b(seed);
            for (int i = 0; i < 20000; ++i)
                ASSERT_TRUE(sameDemand(ws.nextRequest(a),
                                       websearchByRank(ref, terms, shape, b)))
                    << vocabulary << " terms, cached " << cached
                    << ", request " << i;
            EXPECT_TRUE(a.raw() == b.raw()) << "cached " << cached;
        }
    }
}

TEST(Ytube, DiscardedPopularityDrawMatchesRankWalk)
{
    Ytube yt, ref;
    const auto &p = yt.params();
    sim::LognormalDist size(p.meanTransferMB, p.covTransfer);
    auto byRank = [&](Rng &rng) {
        (void)ref.sampleVideoRank(rng);
        double mb = size.sampleImpl(rng);
        ServiceDemand d;
        d.cpuWork = p.cpuWorkBase + p.cpuWorkPerMB * mb;
        d.diskReadBytes = mb * 1.0e6;
        d.netBytes = mb * 1.0e6;
        return d;
    };
    for (std::uint64_t seed : {5ull, 91ull}) {
        Rng a(seed), b(seed);
        for (int i = 0; i < 20000; ++i)
            ASSERT_TRUE(sameDemand(yt.nextRequest(a), byRank(b)))
                << "request " << i;
        EXPECT_TRUE(a.raw() == b.raw());
    }
}

TEST(MapReduce, WordCountTaskStructure)
{
    MapReduce wc(MapReduceApp::WordCount);
    Rng rng(13);
    auto tasks = wc.tasks(rng);
    // 5 GB in 64 MB splits = 80 maps, plus 8 reduces.
    EXPECT_EQ(wc.mapTaskCount(), 80u);
    EXPECT_EQ(tasks.size(), 88u);
    unsigned reduces = 0;
    for (const auto &t : tasks) {
        if (t.isReduce) {
            ++reduces;
            EXPECT_GT(t.diskWriteBytes, 0.0);
            EXPECT_DOUBLE_EQ(t.diskReadBytes, 0.0);
        } else {
            EXPECT_GT(t.diskReadBytes, 0.0);
            EXPECT_DOUBLE_EQ(t.diskWriteBytes, 0.0);
            EXPECT_GT(t.cpuWork, 0.0);
        }
    }
    EXPECT_EQ(reduces, 8u);
}

TEST(MapReduce, FileWriteTaskStructure)
{
    MapReduce wr(MapReduceApp::FileWrite);
    Rng rng(14);
    auto tasks = wr.tasks(rng);
    // 2 GB in 64 MB splits = 32 write maps, no reduces.
    EXPECT_EQ(tasks.size(), 32u);
    for (const auto &t : tasks) {
        EXPECT_FALSE(t.isReduce);
        EXPECT_GT(t.diskWriteBytes, 0.0);
        EXPECT_DOUBLE_EQ(t.diskReadBytes, 0.0);
    }
}

TEST(MapReduce, FourThreadsPerCore)
{
    MapReduce wc(MapReduceApp::WordCount);
    EXPECT_EQ(wc.threadsPerCore(), 4u); // paper: Hadoop, 4 per CPU
}

TEST(MapReduce, JitterPreservesMeanWork)
{
    MapReduce wc(MapReduceApp::WordCount);
    Rng rng(15);
    double total = 0;
    unsigned maps = 0;
    for (int rep = 0; rep < 20; ++rep) {
        for (const auto &t : wc.tasks(rng)) {
            if (!t.isReduce) {
                total += t.cpuWork;
                ++maps;
            }
        }
    }
    EXPECT_NEAR(total / maps, wc.params().wcCpuPerTask,
                0.05 * wc.params().wcCpuPerTask);
}

/** All interactive workloads expose positive mean demands. */
class MeanDemandTest
    : public ::testing::TestWithParam<Benchmark>
{};

TEST_P(MeanDemandTest, PositiveAndFinite)
{
    auto w = makeBenchmark(GetParam());
    auto &iw = dynamic_cast<InteractiveWorkload &>(*w);
    auto mean = iw.meanDemand();
    EXPECT_GT(mean.cpuWork, 0.0);
    EXPECT_GT(mean.netBytes, 0.0);
    EXPECT_GE(mean.diskReadBytes, 0.0);
    EXPECT_LT(mean.cpuWork, 10.0); // sanity: under 10 GHz-seconds
}

INSTANTIATE_TEST_SUITE_P(Interactive, MeanDemandTest,
                         ::testing::Values(Benchmark::Websearch,
                                           Benchmark::Webmail,
                                           Benchmark::Ytube));

} // namespace
