/**
 * @file
 * wsc_trace: trace conversion and inspection.
 *
 * Converts page traces between the two on-disk formats — .trace
 * (text) and .strace (streaming, mmap-ready, page bound in the
 * header) — or synthesizes one from a benchmark generator, and prints
 * stats. Conversions from a generator to .strace stream straight
 * through the incremental writer, so arbitrarily long traces convert
 * in constant memory.
 *
 * Examples:
 *   wsc_trace --in app.trace --out app.strace
 *   wsc_trace --benchmark ytube --accesses 100000000 --out big.strace
 *   wsc_trace --in big.strace --stats
 */

#include <iostream>
#include <vector>

#include "memblade/page_source.hh"
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
printStats(const std::string &label, std::uint64_t count,
           std::uint64_t pageBound, const std::string &extra)
{
    Table t({"Statistic", "Value"});
    t.addRow({"Trace", label});
    t.addRow({"Accesses", std::to_string(count)});
    t.addRow({"Page-id bound", std::to_string(pageBound)});
    if (!extra.empty())
        t.addRow({"Details", extra});
    t.print(std::cout);
}

std::uint64_t
boundOf(const std::vector<PageId> &trace)
{
    std::uint64_t bound = 0;
    for (PageId p : trace)
        bound = std::max(bound, p + 1);
    return bound;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("wsc_trace", "page-trace conversion and stats");
    args.addOption("in",
                   "input trace (.trace|.strace); omit to use "
                   "the generator",
                   "")
        .addOption("out",
                   "output trace (.trace|.strace); omit for "
                   "--stats only",
                   "")
        .addOption("benchmark",
                   "generator profile when --in is omitted "
                   "(websearch|webmail|ytube|mapred-wc|mapred-wr)",
                   "websearch")
        .addOption("accesses", "generator trace length", "2000000")
        .addOption("seed", "generator RNG seed", "42");
    args.addFlag("stats", "print trace statistics");

    try {
        if (!args.parse(argc, argv))
            return 0;

        const std::string in = args.get("in");
        const std::string out = args.get("out");
        bool wantStats = args.flag("stats") || out.empty();
        // Reject an unwritable format before generating or reading
        // a possibly large input.
        if (!out.empty())
            checkTraceExtension(out);

        if (in.empty()) {
            // Generator source.
            auto b = parseBenchmark(args.get("benchmark"));
            auto profile = profileFor(b);
            // getDouble + unsigned cast wraps on negatives; reject
            // out-of-range counts before converting.
            double nd = args.getDouble("accesses");
            if (nd < 0.0 || nd > 1e12)
                fatal("--accesses must be in [0, 1e12]");
            auto n = std::uint64_t(nd);
            auto seed = std::uint64_t(args.getDouble("seed"));
            if (out.empty() && !args.flag("stats"))
                fatal("generator mode needs --out (or --stats)");
            if (!out.empty() && endsWith(out, ".strace")) {
                // Constant-memory conversion: generate in batches
                // straight into the streaming writer.
                TraceGenerator gen(profile, Rng(seed));
                PageSource src(gen, n, profile.footprintPages);
                writeTraceStream(out, src);
                std::cout << "Wrote " << n << " accesses to " << out
                          << "\n";
                if (wantStats && args.flag("stats")) {
                    auto info = traceStreamInfo(out);
                    printStats(out, info.count, info.pageBound,
                               "streaming v1");
                }
                return 0;
            }
            auto trace = generateTrace(profile, n, Rng(seed));
            if (!out.empty()) {
                saveTrace(out, trace);
                std::cout << "Wrote " << trace.size()
                          << " accesses to " << out << "\n";
            }
            if (wantStats)
                printStats(profile.name, trace.size(),
                           boundOf(trace), "generator");
            return 0;
        }

        // File source. Streaming inputs with no conversion never
        // materialize; everything else goes through a vector (the
        // text format is not streamable anyway).
        if (endsWith(in, ".strace") && out.empty()) {
            auto info = traceStreamStats(in);
            printStats(in, info.count, info.pageBound,
                       std::to_string(info.writes) + " writes, " +
                           (info.hasTimestamps ? "timestamped"
                                               : "no timestamps"));
            return 0;
        }

        auto trace = loadTrace(in);
        if (!out.empty()) {
            saveTrace(out, trace);
            std::cout << "Converted " << trace.size()
                      << " accesses: " << in << " -> " << out << "\n";
        }
        if (wantStats)
            printStats(in, trace.size(), boundOf(trace), "");
        return 0;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
