/**
 * @file
 * wsc_memblade: trace-driven memory-blade analysis tool.
 *
 * Replays a page trace — either a synthetic trace for one of the
 * benchmark profiles or a user-supplied trace file (.trace text /
 * .strace streaming) — through the two-level memory simulator and
 * reports miss rates, slowdowns per link, and blade-sharing limits.
 * Streaming traces replay straight off an mmap without materializing
 * the access sequence; the full policy zoo
 * (lru|random|clock|arc|slru|2q|lfuda) is available everywhere, and
 * --hierarchy models an inclusive/exclusive two-level setup with an
 * optional sequential prefetch buffer. --curve prints an exact LRU
 * miss-rate curve (whatever --policy says) for a synthetic profile
 * or a .strace file.
 *
 * Examples:
 *   wsc_memblade --benchmark websearch --local 0.25 --policy arc
 *   wsc_memblade --trace /path/app.strace --frames 120000 --policy 2q
 *   wsc_memblade --trace /path/app.strace --frames 100000 --curve 10
 *   wsc_memblade --benchmark ytube --generate /tmp/ytube.strace
 *   wsc_memblade --trace app.strace --frames 50000 --hierarchy \
 *       exclusive --l2-frames 200000 --prefetch-depth 4
 */

#include <cmath>
#include <iostream>

#include "memblade/contention.hh"
#include "memblade/hierarchy.hh"
#include "memblade/page_source.hh"
#include "memblade/stack_distance.hh"
#include "memblade/trace_io.hh"
#include "memblade/trace_stream.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace wsc;
using namespace wsc::memblade;

namespace {

workloads::Benchmark
parseBenchmark(const std::string &name)
{
    for (auto b : workloads::allBenchmarks)
        if (workloads::to_string(b) == name)
            return b;
    fatal("unknown benchmark '" + name +
          "' (websearch|webmail|ytube|mapred-wc|mapred-wr)");
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

void
printHierarchy(const HierarchyStats &hs, const HierarchyParams &hp)
{
    Table t({"Statistic", "Value"});
    t.addRow({"Mode", to_string(hp.mode)});
    t.addRow({"L1 / L2 frames", std::to_string(hp.l1Frames) + " / " +
                                    std::to_string(hp.l2Frames)});
    t.addRow({"Accesses", std::to_string(hs.accesses)});
    t.addRow({"L1 hits", std::to_string(hs.l1Hits)});
    t.addRow({"L2 hits", std::to_string(hs.l2Hits)});
    t.addRow({"Prefetch-buffer hits",
              std::to_string(hs.prefetchHits)});
    t.addRow({"Misses", std::to_string(hs.misses)});
    t.addRow({"Miss rate", fmtPct(hs.missRate(), 2)});
    t.print(std::cout);
}

/** Print an N-point LRU miss-rate curve over capacity fractions. */
void
printStreamCurve(TraceStream &ts, unsigned points)
{
    PageSource src(ts);
    auto curve = lruCurve(src, src.size());
    std::uint64_t footprint = ts.pageBound();
    std::cout << "LRU miss-rate curve (" << ts.count()
              << " accesses, page bound " << footprint
              << ", single pass):\n";
    Table c({"Capacity fraction", "Frames", "Miss rate"});
    for (unsigned i = 1; i <= points; ++i) {
        double f = double(i) / double(points);
        auto frames =
            std::size_t(std::ceil(double(footprint) * f));
        auto st = curve.statsAt(frames);
        c.addRow({fmtPct(f, 2), std::to_string(frames),
                  fmtPct(st.missRate(), 2)});
    }
    c.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("wsc_memblade",
                   "trace-driven two-level memory analysis");
    args.addOption("benchmark",
                   "synthetic profile to replay "
                   "(websearch|webmail|ytube|mapred-wc|mapred-wr)",
                   "websearch")
        .addOption("trace", "replay this trace file instead", "")
        .addOption("frames",
                   "local frames when replaying a trace file (--trace "
                   "only)",
                   "100000")
        .addOption("local",
                   "local fraction of the footprint (synthetic mode)",
                   "0.25")
        .addOption("policy", "lru|random|clock|arc|slru|2q|lfuda",
                   "random")
        .addOption("accesses", "synthetic trace length", "2000000")
        .addOption("seed", "RNG seed", "42")
        .addOption("generate",
                   "write the synthetic trace to this file and exit "
                   "(not with --trace, --curve or --hierarchy)",
                   "")
        .addOption("curve",
                   "print an N-point local-fraction LRU miss-rate "
                   "curve from one stack-distance pass and exit "
                   "(LRU whatever --policy says; synthetic or .strace "
                   "input, not with --hierarchy)",
                   "0")
        .addOption("hierarchy",
                   "two-level mode: inclusive|exclusive (replaces the "
                   "flat replay)",
                   "")
        .addOption("l2-frames",
                   "L2 frames in --hierarchy mode", "400000")
        .addOption("prefetch-depth",
                   "sequential prefetch distance in --hierarchy mode "
                   "(0 = off)",
                   "0")
        .addOption("prefetch-frames",
                   "prefetch FIFO capacity (0 = 4x depth)", "0");

    try {
        if (!args.parse(argc, argv))
            return 0;

        auto policy = policyFromString(args.get("policy"));
        auto seed = std::uint64_t(args.getDouble("seed"));

        // getDouble + unsigned cast wraps on negatives; range-check
        // every count-like option before converting.
        auto countOption = [&](const char *name, double lo, double hi) {
            double v = args.getDouble(name);
            if (v < lo || v > hi)
                fatal(std::string("--") + name + " must be in [" +
                      fmtF(lo, 0) + ", " + fmtF(hi, 0) + "]");
            return std::size_t(v);
        };

        // Checked once up front: the synthetic replays size local
        // memory from it, and NaN fails every comparison.
        double local = args.getDouble("local");
        if (!(local > 0.0 && local <= 1.0))
            fatal("--local must be in (0, 1]");

        HierarchyParams hp;
        bool hierarchical = !args.get("hierarchy").empty();
        if (hierarchical) {
            hp.mode = hierarchyModeFromString(args.get("hierarchy"));
            hp.l2Frames = countOption("l2-frames", 1, 1e12);
            hp.prefetchDepth = countOption("prefetch-depth", 0, 1e6);
            hp.prefetchFrames = countOption("prefetch-frames", 0, 1e9);
        }

        double curve_pts = args.getDouble("curve");
        if (curve_pts < 0.0 || curve_pts > 1e6)
            fatal("--curve must be in [0, 1e6]");
        auto points = unsigned(curve_pts);
        const std::string path = args.get("trace");
        if (points > 0 && hierarchical)
            fatal("--curve cannot be combined with --hierarchy");
        if (points > 0 && !path.empty() && !endsWith(path, ".strace"))
            fatal("--curve needs a .strace trace file (or a synthetic "
                  "--benchmark)");
        // --generate writes the synthetic trace and exits, so every
        // replay mode beside it would be ignored.
        if (!args.get("generate").empty()) {
            if (points > 0)
                fatal("--generate cannot be combined with --curve");
            if (hierarchical)
                fatal("--generate cannot be combined with --hierarchy");
            if (!path.empty())
                fatal("--generate cannot be combined with --trace");
        }
        if (path.empty() && args.given("frames"))
            fatal("--frames sizes --trace replays; synthetic replays "
                  "take --local");

        ReplayStats stats;
        double touch_rate = 0.0;
        std::string label;

        if (!path.empty()) {
            auto frames = countOption("frames", 1, 1e12);
            bool streaming = endsWith(path, ".strace");
            if (hierarchical) {
                hp.l1Frames = frames;
                HierarchyStats hs;
                if (streaming) {
                    TraceStream ts(path);
                    PageSource src(ts);
                    hs = replayHierarchy(src, hp);
                } else {
                    auto trace = loadTrace(path);
                    PageSource src(trace.data(), trace.size(), 0);
                    hs = replayHierarchy(src, hp);
                }
                printHierarchy(hs, hp);
                return 0;
            }
            if (streaming) {
                TraceStream ts(path);
                if (points > 0) {
                    printStreamCurve(ts, points);
                    return 0;
                }
                stats = replayStream(ts, policy, frames, Rng(seed));
                label = path;
                std::cout << "Streamed " << stats.accesses
                          << " accesses from " << label << " ("
                          << (ts.mapped() ? "mmap" : "buffered")
                          << ")\n";
            } else {
                auto trace = loadTrace(path);
                stats = replayTrace(trace, frames, policy, seed);
                label = path;
                std::cout << "Replayed " << trace.size()
                          << " accesses from " << label << "\n";
            }
        } else {
            auto b = parseBenchmark(args.get("benchmark"));
            auto profile = profileFor(b);
            auto n = std::uint64_t(countOption("accesses", 0, 1e12));
            if (!args.get("generate").empty()) {
                auto trace = generateTrace(profile, n, Rng(seed));
                saveTrace(args.get("generate"), trace);
                std::cout << "Wrote " << trace.size()
                          << " accesses to " << args.get("generate")
                          << "\n";
                return 0;
            }
            if (hierarchical) {
                hp.l1Frames = std::size_t(std::ceil(
                    double(profile.footprintPages) * local));
                auto gen = profileTrace(profile, seed).second;
                PageSource src(gen, n, profile.footprintPages);
                printHierarchy(replayHierarchy(src, hp), hp);
                return 0;
            }
            if (points > 0) {
                // Exact LRU at every capacity from one replay pass.
                auto curve = lruCurveForProfile(profile, n, seed);
                std::cout << "LRU miss-rate curve for " << profile.name
                          << " (" << n << " accesses, single pass):\n";
                Table c({"Local fraction", "Miss rate",
                         "Warm miss rate", "PCIe x4 slowdown"});
                for (unsigned i = 1; i <= points; ++i) {
                    double f = double(i) / double(points);
                    auto frames = std::size_t(std::ceil(
                        double(profile.footprintPages) * f));
                    auto st = curve.statsAt(frames);
                    c.addRow({fmtPct(f, 2), fmtPct(st.missRate(), 2),
                              fmtPct(st.warmMissRate(), 2),
                              fmtPct(slowdown(st, profile,
                                              RemoteLink::pcieX4()),
                                     2)});
                }
                c.print(std::cout);
                return 0;
            }
            stats = replayProfile(profile, local, policy, n, seed);
            touch_rate = profile.touchesPerSecond;
            label = profile.name;
        }

        Table t({"Statistic", "Value"});
        t.addRow({"Accesses", std::to_string(stats.accesses)});
        t.addRow({"Misses (remote fetches)",
                  std::to_string(stats.misses)});
        t.addRow({"Cold (first-touch) misses",
                  std::to_string(stats.coldMisses)});
        t.addRow({"Miss rate", fmtPct(stats.missRate(), 2)});
        t.addRow({"Warm miss rate", fmtPct(stats.warmMissRate(), 2)});
        t.print(std::cout);

        if (touch_rate > 0.0) {
            auto profile =
                profileFor(parseBenchmark(args.get("benchmark")));
            std::cout << "\nSlowdowns (touch rate "
                      << fmtF(touch_rate, 0) << "/s):\n";
            Table s({"Link", "Slowdown"});
            for (auto link :
                 {RemoteLink::pcieX4(), RemoteLink::cbf(),
                  RemoteLink::cbfWithSetup()}) {
                s.addRow({link.name,
                          fmtPct(slowdown(stats, profile, link), 2)});
            }
            s.print(std::cout);

            double base = contendedSlowdown(stats, profile,
                                            RemoteLink::pcieX4(), 1,
                                            BladeLinkParams{});
            if (base > 0.0) {
                unsigned max_share = maxServersPerBlade(
                    stats, profile, RemoteLink::pcieX4(), 1.5 * base,
                    BladeLinkParams{}, 4096);
                std::cout << "\nServers per blade at <=1.5x the "
                             "uncontended slowdown: "
                          << max_share << "\n";
            }
        }
        return 0;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
