/**
 * @file
 * Unit tests for trace persistence (text and streaming round trips)
 * and for wsc_memblade's and wsc_trace's option checks, run on the
 * built tools.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "memblade/trace_io.hh"
#include "memblade/trace_stream.hh"
#include "oracles/two_level.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace {

using namespace wsc;
using namespace wsc::memblade;

std::vector<PageId>
sampleTrace()
{
    auto profile = profileFor(workloads::Benchmark::Webmail);
    return generateTrace(profile, 5000, Rng(42));
}

TEST(TraceIo, TextRoundTrip)
{
    auto trace = sampleTrace();
    std::stringstream ss;
    writeTraceText(ss, trace);
    auto back = readTraceText(ss);
    EXPECT_EQ(back, trace);
}

TEST(TraceIo, TextSkipsCommentsAndBlanks)
{
    std::stringstream ss;
    ss << "# header\n\n12\n# mid comment\n 34 \n";
    auto t = readTraceText(ss);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0], 12u);
    EXPECT_EQ(t[1], 34u);
}

TEST(TraceIo, TextRejectsGarbage)
{
    std::stringstream ss;
    ss << "12\nnot-a-number\n";
    EXPECT_THROW(readTraceText(ss), FatalError);
    std::stringstream ss2;
    ss2 << "12x\n";
    EXPECT_THROW(readTraceText(ss2), FatalError);
}

TEST(TraceIo, FileRoundTripBothFormats)
{
    auto trace = sampleTrace();
    std::string text_path = "/tmp/wsc_test_trace.trace";
    std::string stream_path = "/tmp/wsc_test_trace.strace";
    saveTrace(text_path, trace);
    saveTrace(stream_path, trace);
    EXPECT_EQ(loadTrace(text_path), trace);
    EXPECT_EQ(loadTrace(stream_path), trace);
    std::remove(text_path.c_str());
    std::remove(stream_path.c_str());
}

TEST(TraceIo, UnknownExtensionFatal)
{
    for (const char *name : {"/tmp/x.csv", "/tmp/x.btrace"}) {
        EXPECT_THROW(saveTrace(name, sampleTrace()), FatalError)
            << name;
        EXPECT_THROW(loadTrace(name), FatalError) << name;
    }
}

TEST(TraceIo, RoundTripsEmptyAndSingleAcrossFormats)
{
    for (const auto &trace :
         {std::vector<PageId>{}, std::vector<PageId>{123456789}}) {
        for (const char *name :
              {"/tmp/wsc_edge.trace", "/tmp/wsc_edge.strace"}) {
            saveTrace(name, trace);
            EXPECT_EQ(loadTrace(name), trace) << name;
            std::remove(name);
        }
    }
}

TEST(TraceIo, CrossFormatRoundTripIsExact)
{
    // text -> streaming -> text must be the identity.
    auto trace = sampleTrace();
    saveTrace("/tmp/wsc_x.trace", trace);
    saveTrace("/tmp/wsc_x.strace", loadTrace("/tmp/wsc_x.trace"));
    saveTrace("/tmp/wsc_x2.trace", loadTrace("/tmp/wsc_x.strace"));
    EXPECT_EQ(loadTrace("/tmp/wsc_x2.trace"), trace);
    for (const char *name :
         {"/tmp/wsc_x.trace", "/tmp/wsc_x.strace", "/tmp/wsc_x2.trace"})
        std::remove(name);
}

TEST(TraceIo, ReplayTraceHonorsDeclaredBound)
{
    // Passing the known page bound must not change the statistics
    // (it only skips the O(n) bound scan).
    auto profile = profileFor(workloads::Benchmark::Webmail);
    auto trace = generateTrace(profile, 20000, Rng(13));
    std::size_t frames =
        std::size_t(double(profile.footprintPages) * 0.2);
    auto scanned = replayTrace(trace, frames, PolicyKind::Lru, 5);
    auto declared = replayTrace(trace, frames, PolicyKind::Lru, 5,
                                profile.footprintPages);
    EXPECT_EQ(scanned.accesses, declared.accesses);
    EXPECT_EQ(scanned.hits, declared.hits);
    EXPECT_EQ(scanned.misses, declared.misses);
    EXPECT_EQ(scanned.coldMisses, declared.coldMisses);
}

TEST(TraceIo, ReplayMatchesGeneratorPath)
{
    // Replaying a materialized trace gives identical statistics to
    // streaming the same generator directly.
    auto profile = profileFor(workloads::Benchmark::Ytube);
    auto trace = generateTrace(profile, 50000, Rng(9));
    std::size_t frames =
        std::size_t(double(profile.footprintPages) * 0.25);

    auto from_file = replayTrace(trace, frames, PolicyKind::Lru, 5);

    TwoLevelMemory direct(frames, PolicyKind::Lru, Rng(5));
    TraceGenerator gen(profile, Rng(9));
    direct.replay(gen, 50000);

    EXPECT_EQ(from_file.accesses, direct.stats().accesses);
    EXPECT_EQ(from_file.misses, direct.stats().misses);
    EXPECT_EQ(from_file.coldMisses, direct.stats().coldMisses);
}

/** Run the built @p tool with @p args; returns its exit code and
 * output. */
int
runTool(const std::string &tool, const std::string &args,
        std::string &output)
{
    // ctest runs each test in its own process, in parallel: name the
    // capture after the test.
    std::string out =
        testing::TempDir() + "wsc_tool_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".out";
    std::string cmd = tool + " " + args + " > " + out + " 2>&1";
    int status = std::system(cmd.c_str());
    std::ifstream in(out);
    std::stringstream text;
    text << in.rdbuf();
    output = text.str();
    std::remove(out.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int
runMemblade(const std::string &args, std::string &output)
{
    return runTool(WSC_MEMBLADE, args, output);
}

TEST(MembladeTool, CurveOnStreamIsLruWhateverThePolicy)
{
    // --policy defaults to random; the curve is LRU regardless.
    std::string path = testing::TempDir() + "wsc_curve.strace";
    saveTrace(path, sampleTrace());
    std::string out;
    EXPECT_EQ(runMemblade("--trace " + path +
                              " --frames 100000 --curve 10",
                          out),
              0)
        << out;
    EXPECT_NE(out.find("LRU miss-rate curve"), std::string::npos)
        << out;
    std::remove(path.c_str());
}

TEST(MembladeTool, CurveRejectsTextTrace)
{
    std::string path = testing::TempDir() + "wsc_curve.trace";
    saveTrace(path, sampleTrace());
    std::string out;
    EXPECT_EQ(runMemblade("--trace " + path +
                              " --policy lru --frames 400 --curve 4",
                          out),
              1);
    EXPECT_NE(out.find("--curve needs a .strace trace file"),
              std::string::npos)
        << out;
    std::remove(path.c_str());
}

TEST(MembladeTool, CurveRejectsHierarchy)
{
    std::string out;
    EXPECT_EQ(runMemblade("--hierarchy exclusive --curve 4", out), 1);
    EXPECT_NE(out.find("--curve cannot be combined with --hierarchy"),
              std::string::npos)
        << out;
}

// The stack-distance engine's 32-bit timestamps cap a curve below
// 2^32 accesses: a longer synthetic curve is refused with a message
// before any page is generated, as a longer .strace file is.
TEST(MembladeTool, CurveRejectsTracesOf2To32Accesses)
{
    std::string out;
    EXPECT_EQ(runMemblade("--benchmark websearch --curve 4 "
                          "--accesses 5e9",
                          out),
              1)
        << out;
    EXPECT_NE(out.find("stack-distance sweep supports traces below "
                       "2^32 accesses"),
              std::string::npos)
        << out;
}

// --generate writes the trace and exits: a replay mode beside it
// would silently do nothing, so the tool refuses the combination
// before writing anything.
TEST(MembladeTool, GenerateRejectsReplayModes)
{
    std::string path = testing::TempDir() + "wsc_generate.strace";
    const std::pair<const char *, const char *> cases[] = {
        {" --curve 4", "--generate cannot be combined with --curve"},
        {" --hierarchy inclusive",
         "--generate cannot be combined with --hierarchy"},
        {" --trace other.strace",
         "--generate cannot be combined with --trace"},
    };
    for (const auto &[extra, message] : cases) {
        std::string out;
        EXPECT_EQ(runMemblade("--accesses 1000 --generate " + path +
                                  extra,
                              out),
                  1)
            << extra;
        EXPECT_NE(out.find(message), std::string::npos) << out;
        std::ifstream written(path);
        EXPECT_FALSE(written.good()) << extra << " wrote " << path;
    }
}

TEST(MembladeTool, FramesRejectedInSyntheticMode)
{
    std::string out;
    EXPECT_EQ(runMemblade("--benchmark ytube --accesses 1000 "
                          "--frames 5000",
                          out),
              1);
    EXPECT_NE(out.find("--frames sizes --trace replays"),
              std::string::npos)
        << out;
}

// The hierarchy replays of a synthetic profile, a text trace and a
// streaming trace, inclusive and exclusive with prefetching, as
// recorded before they read their pages through one page source.
TEST(MembladeTool, HierarchyResultBytesPinned)
{
    const std::array<std::uint64_t, 6> want = {
        0x9d9af437698b2970ULL, 0x194da685c1ae0ae5ULL,
        0x194da685c1ae0ae5ULL, 0x160fae7ae49aa095ULL,
        0x0cca324bd7200139ULL, 0x0cca324bd7200139ULL};
    std::string dir = testing::TempDir();
    auto trace = generateTrace(profileFor(workloads::Benchmark::MapredWc),
                               40000, Rng(8));
    saveTrace(dir + "wsc_hier_pin.trace", trace);
    saveTrace(dir + "wsc_hier_pin.strace", trace);
    const std::string sources[] = {
        "--benchmark mapred-wc --accesses 60000 --local 0.005 "
        "--l2-frames 6000",
        "--trace " + dir + "wsc_hier_pin.trace --frames 300 "
        "--l2-frames 1500",
        "--trace " + dir + "wsc_hier_pin.strace --frames 300 "
        "--l2-frames 1500",
    };
    std::size_t i = 0;
    for (const char *mode : {"inclusive", "exclusive"})
        for (const std::string &source : sources) {
            std::string out;
            EXPECT_EQ(runMemblade(source + " --hierarchy " + mode +
                                      " --prefetch-depth 4",
                                  out),
                      0)
                << out;
            std::uint64_t d = hashCombine(0, out);
            EXPECT_EQ(d, want[i]) << mode << " " << source << ": 0x"
                                  << std::hex << d << "\n" << out;
            ++i;
        }
    std::remove((dir + "wsc_hier_pin.trace").c_str());
    std::remove((dir + "wsc_hier_pin.strace").c_str());
}

// wsc_trace checks the --out format before it reads --in (or runs
// the generator): the input here does not even exist, so any attempt
// to read it would fail with a different error.
TEST(TraceTool, OutFormatCheckedBeforeInputIsRead)
{
    std::string dir = testing::TempDir();
    const std::string sources[] = {
        "--in " + dir + "wsc_no_such_input.trace",
        "--in " + dir + "wsc_no_such_input.strace",
        "--accesses 1000",
    };
    for (const std::string &source : sources) {
        std::string out;
        EXPECT_EQ(runTool(WSC_TRACE,
                          source + " --out " + dir + "x.btrace", out),
                  1)
            << source;
        EXPECT_NE(out.find("unknown trace extension on '" + dir +
                           "x.btrace'"),
                  std::string::npos)
            << source << ": " << out;
        EXPECT_EQ(out.find("cannot open"), std::string::npos)
            << source << ": " << out;
    }
}

} // namespace
