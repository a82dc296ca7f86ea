/**
 * @file
 * Unit tests for the streaming trace format (WSCS v1): round trips,
 * header validation against adversarial files, the mapped and
 * buffered readers, writing through a page source, and streaming
 * replay against the materialized page array (test_replay's
 * PageSource matrix crosses every source with every analysis).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "memblade/page_source.hh"
#include "memblade/stack_distance.hh"
#include "memblade/trace_io.hh"
#include "memblade/trace_stream.hh"
#include "util/logging.hh"

namespace {

using namespace wsc;
using namespace wsc::memblade;

/** Temp file that cleans up after itself. */
struct ScopedPath {
    std::string path;
    explicit ScopedPath(std::string p) : path(std::move(p)) {}
    ~ScopedPath() { std::remove(path.c_str()); }
};

std::string
readAll(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::string &data)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(data.data(), std::streamsize(data.size()));
}

std::vector<PageId>
sampleTrace(std::uint64_t n = 5000)
{
    auto profile = profileFor(workloads::Benchmark::Webmail);
    return generateTrace(profile, n, Rng(42));
}

TEST(TraceStream, RoundTripsEmptySingleAndLarge)
{
    for (std::uint64_t n : {std::uint64_t(0), std::uint64_t(1),
                            std::uint64_t(20000)}) {
        ScopedPath f("/tmp/wsc_ts_rt.strace");
        auto trace = sampleTrace(n);
        writeTraceStream(f.path, trace);
        EXPECT_EQ(readTraceStreamPages(f.path), trace) << n;

        auto info = traceStreamInfo(f.path);
        EXPECT_EQ(info.count, n);
        EXPECT_FALSE(info.hasTimestamps);
        std::uint64_t bound = 0;
        for (PageId p : trace)
            bound = std::max(bound, p + 1);
        EXPECT_EQ(info.pageBound, bound) << n;
    }
}

TEST(TraceStream, WriterCarriesWriteFlagsAndTimestamps)
{
    ScopedPath f("/tmp/wsc_ts_flags.strace");
    {
        TraceStreamWriter w(f.path, /*withTimestamps=*/true);
        w.append(10, false, 100);
        w.append(20, true, 200);
        w.append(30, true, 300);
        EXPECT_EQ(w.count(), 3u);
        w.close();
        w.close(); // idempotent
    }

    auto info = traceStreamStats(f.path);
    EXPECT_EQ(info.count, 3u);
    EXPECT_EQ(info.pageBound, 31u);
    EXPECT_EQ(info.writes, 2u);
    EXPECT_TRUE(info.hasTimestamps);

    TraceStream ts(f.path);
    TraceRecord recs[4];
    ASSERT_EQ(ts.fillRecords(recs, 4), 3u);
    EXPECT_EQ(recs[0].page, 10u);
    EXPECT_FALSE(recs[0].write);
    EXPECT_EQ(recs[0].timestamp, 100u);
    EXPECT_EQ(recs[1].page, 20u);
    EXPECT_TRUE(recs[1].write);
    EXPECT_EQ(recs[1].timestamp, 200u);
    EXPECT_EQ(recs[2].page, 30u);
    EXPECT_EQ(ts.fillRecords(recs, 4), 0u);
}

TEST(TraceStream, WriterRejectsPageIdsAboveFlagBit)
{
    ScopedPath f("/tmp/wsc_ts_big.strace");
    TraceStreamWriter w(f.path);
    EXPECT_THROW(w.append(std::uint64_t(1) << 63), PanicError);
}

TEST(TraceStream, RejectsMissingAndTruncatedHeader)
{
    EXPECT_THROW(TraceStream("/tmp/wsc_ts_nonexistent.strace"),
                 FatalError);

    ScopedPath f("/tmp/wsc_ts_short.strace");
    writeAll(f.path, "WSCS\x01");
    EXPECT_THROW(TraceStream(f.path), FatalError);
}

TEST(TraceStream, RejectsBadMagicVersionAndFlags)
{
    ScopedPath f("/tmp/wsc_ts_hdr.strace");
    writeTraceStream(f.path, sampleTrace(100));
    std::string good = readAll(f.path);

    std::string bad = good;
    bad[0] = 'X';
    writeAll(f.path, bad);
    EXPECT_THROW(TraceStream(f.path), FatalError);

    bad = good;
    bad[4] = 9; // future version
    writeAll(f.path, bad);
    EXPECT_THROW(TraceStream(f.path), FatalError);

    bad = good;
    bad[5] = char(0x80); // unknown flag bit
    writeAll(f.path, bad);
    EXPECT_THROW(TraceStream(f.path), FatalError);
}

TEST(TraceStream, RejectsOversizedOrInconsistentCount)
{
    ScopedPath f("/tmp/wsc_ts_count.strace");
    writeTraceStream(f.path, sampleTrace(100));
    std::string good = readAll(f.path);

    // Claim ~2^61 records in a 100-record file: the reader must fatal
    // on the capacity check, never allocate.
    std::string bad = good;
    std::uint64_t huge = std::uint64_t(1) << 61;
    std::memcpy(&bad[8], &huge, sizeof(huge));
    writeAll(f.path, bad);
    EXPECT_THROW(TraceStream(f.path), FatalError);

    // Undercounting (body larger than count * stride) is corruption
    // too: the reader demands an exact match.
    bad = good;
    std::uint64_t fewer = 99;
    std::memcpy(&bad[8], &fewer, sizeof(fewer));
    writeAll(f.path, bad);
    EXPECT_THROW(TraceStream(f.path), FatalError);

    // Truncated body.
    bad = good.substr(0, good.size() - 4);
    writeAll(f.path, bad);
    EXPECT_THROW(TraceStream(f.path), FatalError);
}

TEST(TraceStream, RejectsRecordsBreakingTheHeaderBound)
{
    ScopedPath f("/tmp/wsc_ts_bound.strace");
    writeTraceStream(f.path, {1, 2, 3, 4});
    std::string bad = readAll(f.path);
    // Patch the page-id bound below the records it governs.
    std::uint64_t bound = 2;
    std::memcpy(&bad[16], &bound, sizeof(bound));
    writeAll(f.path, bad);

    TraceStream ts(f.path); // header itself is consistent
    PageId buf[8];
    EXPECT_THROW(ts.fillPages(buf, 8), FatalError);
}

TEST(TraceStream, RewindRestartsTheRecordStream)
{
    ScopedPath f("/tmp/wsc_ts_rewind.strace");
    auto trace = sampleTrace(3000);
    writeTraceStream(f.path, trace);

    TraceStream ts(f.path);
    std::vector<PageId> first(trace.size());
    std::size_t got = 0;
    while (got < first.size())
        got += ts.fillPages(first.data() + got, 777); // odd batch size
    EXPECT_EQ(ts.remaining(), 0u);

    ts.rewind();
    EXPECT_EQ(ts.remaining(), trace.size());
    std::vector<PageId> second(trace.size());
    got = 0;
    while (got < second.size())
        got += ts.fillPages(second.data() + got, 4096);
    EXPECT_EQ(first, trace);
    EXPECT_EQ(second, trace);
}

// The mapped reader releases consumed MBs of its mapping as it goes;
// a rewound pass re-faults them from the file. A trace of several MB
// consumed to the end twice, on the pages and the records paths, must
// read the same both times and equal the buffered reader.
TEST(TraceStream, RewoundPassAfterReleaseReadsTheSameRecords)
{
    ScopedPath f("/tmp/wsc_ts_release.strace");
    auto trace = sampleTrace(600000); // 9.6 MB with timestamps
    {
        TraceStreamWriter w(f.path, /*withTimestamps=*/true);
        for (std::size_t i = 0; i < trace.size(); ++i)
            w.append(trace[i], i % 5 == 0, i * 3 + 1);
    }

    auto readPages = [](TraceStream &ts) {
        std::vector<PageId> out(ts.remaining());
        std::size_t done = 0;
        while (done < out.size())
            done += ts.fillPages(out.data() + done,
                                 std::min<std::size_t>(100003,
                                                       out.size() - done));
        EXPECT_EQ(ts.fillPages(out.data(), 1), 0u);
        return out;
    };
    auto readRecords = [](TraceStream &ts) {
        std::vector<TraceRecord> out(ts.remaining());
        std::size_t done = 0;
        while (done < out.size())
            done += ts.fillRecords(out.data() + done,
                                   std::min<std::size_t>(
                                       70001, out.size() - done));
        EXPECT_EQ(ts.fillRecords(out.data(), 1), 0u);
        return out;
    };
    auto sameRecords = [](const std::vector<TraceRecord> &a,
                          const std::vector<TraceRecord> &b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].page != b[i].page || a[i].write != b[i].write ||
                a[i].timestamp != b[i].timestamp)
                return false;
        return true;
    };

    TraceStream buffered(f.path, /*forceBuffered=*/true);
    auto refRecords = readRecords(buffered);
    buffered.rewind();
    auto refPages = readPages(buffered);
    EXPECT_EQ(refPages, trace);

    TraceStream mapped(f.path);
    ASSERT_TRUE(mapped.mapped());
    auto pages1 = readPages(mapped);
    mapped.rewind();
    auto pages2 = readPages(mapped);
    EXPECT_EQ(pages1, refPages);
    EXPECT_EQ(pages2, refPages);

    mapped.rewind();
    auto records1 = readRecords(mapped);
    mapped.rewind();
    auto records2 = readRecords(mapped);
    EXPECT_TRUE(sameRecords(records1, refRecords));
    EXPECT_TRUE(sameRecords(records2, refRecords));
}

TEST(TraceStream, UsesMmapOnThisPlatform)
{
#if defined(__unix__) || defined(__APPLE__)
    ScopedPath f("/tmp/wsc_ts_mmap.strace");
    writeTraceStream(f.path, sampleTrace(100));
    TraceStream ts(f.path);
    EXPECT_TRUE(ts.mapped());
#else
    GTEST_SKIP() << "no mmap on this platform";
#endif
}

// The buffered-ifstream fallback normally runs only where mmap is
// missing or fails; the forceBuffered hook drags it into CI and pins
// it to the mapped path's exact outputs — pages, full records, rewind
// behavior, and replay counters.
TEST(TraceStream, BufferedFallbackMatchesMappedPath)
{
    ScopedPath f("/tmp/wsc_ts_buf.strace");
    auto trace = sampleTrace(30000);
    {
        TraceStreamWriter w(f.path, /*withTimestamps=*/true);
        for (std::size_t i = 0; i < trace.size(); ++i)
            w.append(trace[i], i % 3 == 0, i * 7);
    }

    TraceStream mapped(f.path);
    TraceStream buffered(f.path, /*forceBuffered=*/true);
    ASSERT_TRUE(mapped.mapped());
    ASSERT_FALSE(buffered.mapped());
    EXPECT_EQ(buffered.count(), mapped.count());
    EXPECT_EQ(buffered.pageBound(), mapped.pageBound());
    EXPECT_TRUE(buffered.hasTimestamps());

    // Identical record streams, batch boundaries intentionally
    // misaligned with the reader's internal io batch.
    std::vector<TraceRecord> a(777), b(777);
    for (;;) {
        std::size_t na = mapped.fillRecords(a.data(), a.size());
        std::size_t nb = buffered.fillRecords(b.data(), b.size());
        ASSERT_EQ(na, nb);
        if (na == 0)
            break;
        for (std::size_t i = 0; i < na; ++i) {
            EXPECT_EQ(a[i].page, b[i].page);
            EXPECT_EQ(a[i].write, b[i].write);
            EXPECT_EQ(a[i].timestamp, b[i].timestamp);
        }
    }

    // rewind() resets the fallback's stream position too.
    mapped.rewind();
    buffered.rewind();
    std::vector<PageId> pa(trace.size()), pb(trace.size());
    std::size_t da = 0, db = 0;
    while (da < pa.size())
        da += mapped.fillPages(pa.data() + da, pa.size() - da);
    while (db < pb.size())
        db += buffered.fillPages(pb.data() + db, pb.size() - db);
    EXPECT_EQ(pa, pb);
    EXPECT_EQ(pa, trace);
}

// Generating straight into the writer through a page source writes
// the same bytes as materializing the trace first.
TEST(TraceStream, WriterFromPageSourceMatchesWriterFromTrace)
{
    ScopedPath streamed("/tmp/wsc_ts_src.strace");
    ScopedPath materialized("/tmp/wsc_ts_vec.strace");
    auto profile = profileFor(workloads::Benchmark::Ytube);
    const std::uint64_t n = 2 * PageSource::kChunk + 77;
    TraceGenerator gen(profile, Rng(5));
    PageSource src(gen, n, profile.footprintPages);
    writeTraceStream(streamed.path, src);
    writeTraceStream(materialized.path,
                     generateTrace(profile, n, Rng(5)));
    EXPECT_EQ(readAll(streamed.path), readAll(materialized.path));
    EXPECT_EQ(traceStreamInfo(streamed.path).count, n);
}

// Stream-vs-pages identity holds through the fallback: replaying via
// forceBuffered produces the same counters as the materialized replay.
TEST(TraceStream, BufferedFallbackReplayMatchesMaterialized)
{
    ScopedPath f("/tmp/wsc_ts_bufreplay.strace");
    auto profile = profileFor(workloads::Benchmark::Webmail);
    auto trace = generateTrace(profile, 40000, Rng(11));
    writeTraceStream(f.path, trace);
    std::uint64_t bound = traceStreamInfo(f.path).pageBound;
    auto frames = std::size_t(double(profile.footprintPages) * 0.25);

    for (PolicyKind kind : allPolicyKinds) {
        TraceStream ts(f.path, /*forceBuffered=*/true);
        auto streamed = replayStream(ts, kind, frames, Rng(4));
        auto materialized = replayPages(trace.data(), trace.size(),
                                        kind, frames, bound, Rng(4));
        EXPECT_EQ(streamed.accesses, materialized.accesses)
            << to_string(kind);
        EXPECT_EQ(streamed.hits, materialized.hits)
            << to_string(kind);
        EXPECT_EQ(streamed.misses, materialized.misses)
            << to_string(kind);
        EXPECT_EQ(streamed.coldMisses, materialized.coldMisses)
            << to_string(kind);
    }
}

TEST(TraceStream, ReplayStreamMatchesMaterializedReplay)
{
    ScopedPath f("/tmp/wsc_ts_replay.strace");
    auto profile = profileFor(workloads::Benchmark::Ytube);
    auto trace = generateTrace(profile, 60000, Rng(9));
    writeTraceStream(f.path, trace);
    std::uint64_t bound = traceStreamInfo(f.path).pageBound;
    auto frames =
        std::size_t(double(profile.footprintPages) * 0.25);

    for (PolicyKind kind : allPolicyKinds) {
        TraceStream ts(f.path);
        auto streamed = replayStream(ts, kind, frames, Rng(4));
        auto materialized = replayPages(trace.data(), trace.size(),
                                        kind, frames, bound, Rng(4));
        EXPECT_EQ(streamed.accesses, materialized.accesses)
            << to_string(kind);
        EXPECT_EQ(streamed.hits, materialized.hits)
            << to_string(kind);
        EXPECT_EQ(streamed.misses, materialized.misses)
            << to_string(kind);
        EXPECT_EQ(streamed.coldMisses, materialized.coldMisses)
            << to_string(kind);
    }
}

// A windowed replay of a stream source keeps the whole-trace totals
// and measures exactly the accesses past the warmup index.
TEST(TraceStream, WindowedStreamReplaySplitsAtTheWarmupBoundary)
{
    ScopedPath f("/tmp/wsc_ts_warm.strace");
    auto trace = sampleTrace(20000);
    writeTraceStream(f.path, trace);

    TraceStream whole(f.path);
    auto total = replayStream(whole, PolicyKind::Lru, 500, Rng(4));

    TraceStream ts(f.path);
    PageSource src(ts);
    auto win = replayWindowed(src, PolicyKind::Lru, 500, 5000, Rng(4));
    EXPECT_EQ(win.total.accesses, total.accesses);
    EXPECT_EQ(win.total.hits, total.hits);
    EXPECT_EQ(win.total.misses, total.misses);
    EXPECT_EQ(win.measured.accesses, trace.size() - 5000);
    EXPECT_LE(win.measured.hits, win.total.hits);
    EXPECT_LE(win.measured.misses, win.total.misses);
}

TEST(TraceStream, LruCurveMatchesDirectReplays)
{
    ScopedPath f("/tmp/wsc_ts_curve.strace");
    auto profile = profileFor(workloads::Benchmark::Websearch);
    auto trace = generateTrace(profile, 30000, Rng(6));
    writeTraceStream(f.path, trace);
    std::uint64_t bound = traceStreamInfo(f.path).pageBound;

    TraceStream ts(f.path);
    PageSource src(ts);
    auto curve = lruCurve(src, src.size());
    for (double f10 : {0.01, 0.1, 0.5}) {
        auto frames = std::size_t(
            std::max(1.0, double(profile.footprintPages) * f10));
        auto direct = replayPages(trace.data(), trace.size(),
                                  PolicyKind::Lru, frames, bound,
                                  Rng(4));
        auto fromCurve = curve.statsAt(frames);
        EXPECT_EQ(fromCurve.hits, direct.hits) << frames;
        EXPECT_EQ(fromCurve.misses, direct.misses) << frames;
        EXPECT_EQ(fromCurve.coldMisses, direct.coldMisses) << frames;
    }
}

TEST(TraceStream, LoadSaveTraceDispatchOnStraceExtension)
{
    ScopedPath f("/tmp/wsc_ts_dispatch.strace");
    auto trace = sampleTrace(500);
    saveTrace(f.path, trace);
    EXPECT_EQ(loadTrace(f.path), trace);
    EXPECT_EQ(traceStreamInfo(f.path).count, trace.size());
}

} // namespace
