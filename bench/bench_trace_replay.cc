/**
 * @file
 * Streaming-trace replay throughput and the replacement-policy zoo.
 *
 * Two questions, both answered with gates:
 *
 *  1. Does the mmap streaming path keep up with a fully-materialized
 *     replay? A large .strace file is generated once, then replayed
 *     (a) straight off the mapping via replayStream and (b) from an
 *     in-RAM vector via replayPages. Target: streaming >= 0.8x the
 *     materialized throughput; the two replays must be bit-identical.
 *
 *  2. Do the zoo kernels (ARC/SLRU/2Q/LFUDA, plus the original trio)
 *     match their per-access reference policies? Every workload x
 *     policy cell replays through both and the exit code is the
 *     identity verdict — a kernel that got fast by getting wrong
 *     fails CI here. The same pass prints the policy-zoo hit-rate
 *     table that EXPERIMENTS.md quotes.
 *
 * Emits BENCH_trace_replay.json.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "harness.hh"
#include "memblade/replacement.hh"
#include "memblade/replay.hh"
#include "memblade/trace_stream.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace wsc;
using namespace wsc::memblade;

namespace {

bool
sameStats(const ReplayStats &a, const ReplayStats &b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.coldMisses == b.coldMisses;
}

struct ZooCell {
    std::string workload;
    std::string policy;
    double hitRate = 0.0;
    bool oracleIdentical = false;
};

/**
 * One workload x policy cell: the batched kernel via replayPages vs
 * the per-access reference policy, on the same pregenerated trace
 * with the same kernel seed. Identity is hits+misses exact.
 */
ZooCell
zooCell(const std::string &workload, const std::vector<PageId> &trace,
        std::uint64_t pageBound, PolicyKind kind, std::size_t frames)
{
    ZooCell cell;
    cell.workload = workload;
    cell.policy = to_string(kind);

    auto fast = replayPages(trace.data(), trace.size(), kind, frames,
                            pageBound, Rng(7));

    auto ref = makePolicy(kind, frames, Rng(7));
    std::uint64_t refHits = 0;
    for (PageId p : trace)
        refHits += ref->access(p);

    cell.hitRate = trace.empty()
                       ? 0.0
                       : double(fast.hits) / double(trace.size());
    cell.oracleIdentical = fast.hits == refHits &&
                           fast.misses == trace.size() - refHits;
    return cell;
}

} // namespace

int
run(int argc, char **argv)
{
    ArgParser args("bench_trace_replay",
                   "streaming vs materialized replay throughput and "
                   "the policy-zoo oracle gate");
    args.addOption("accesses",
                   "streaming-trace length for the throughput race",
                   "100000000")
        .addOption("zoo-accesses",
                   "trace length per policy-zoo cell", "2000000")
        .addOption("trace-file", "scratch .strace path",
                   "bench_trace_replay.strace")
        .addOption("out", "JSON output path",
                   "BENCH_trace_replay.json");
    args.addFlag("keep-trace", "do not delete the scratch trace");
    if (!args.parse(argc, argv))
        return 0;

    double accessesArg = args.getDouble("accesses");
    if (accessesArg < 1.0 || accessesArg > 2e9)
        fatal("--accesses must be in [1, 2e9]");
    const auto accesses = std::uint64_t(accessesArg);
    double zooArg = args.getDouble("zoo-accesses");
    if (zooArg < 1.0 || zooArg > 1e8)
        fatal("--zoo-accesses must be in [1, 1e8]");
    const auto zooAccesses = std::uint64_t(zooArg);
    const std::string tracePath = args.get("trace-file");
    bench::Report report("trace_replay", 1);

    // ----------------------------------------------------------------
    // 1. Streaming vs materialized throughput.
    // ----------------------------------------------------------------
    auto profile = profileFor(workloads::Benchmark::Websearch);
    auto frames =
        std::size_t(std::ceil(double(profile.footprintPages) * 0.25));

    std::cout << "=== Streaming-trace replay (websearch, " << accesses
              << " accesses, 25% local) ===\n\n";

    {
        // Constant-memory generation straight into the stream writer.
        TraceGenerator gen(profile, Rng(3));
        TraceStreamWriter w(tracePath);
        std::vector<PageId> buf(4096);
        std::uint64_t done = 0;
        while (done < accesses) {
            auto n = std::size_t(
                std::min<std::uint64_t>(buf.size(), accesses - done));
            gen.nextBatch(buf.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                w.append(buf[i]);
            done += n;
        }
        w.close();
    }

    ReplayStats streamStats;
    bool usedMmap = false;
    double streamSec = bench::bestOf([&] {
        TraceStream ts(tracePath);
        usedMmap = ts.mapped();
        streamStats = replayStream(ts, PolicyKind::Lru, frames, Rng(4));
    });

    double matSec = 0.0;
    ReplayStats matStats;
    {
        auto trace = readTraceStreamPages(tracePath);
        std::uint64_t bound = traceStreamInfo(tracePath).pageBound;
        matSec = bench::bestOf([&] {
            matStats = replayPages(trace.data(), trace.size(),
                                   PolicyKind::Lru, frames, bound,
                                   Rng(4));
        });
    }

    bool streamIdentical = sameStats(streamStats, matStats);
    report.identity("stream_vs_materialized", streamIdentical);
    double streamRate = double(accesses) / streamSec;
    double matRate = double(accesses) / matSec;
    double ratio = matRate > 0.0 ? streamRate / matRate : 0.0;
    bool throughputTarget = ratio >= 0.8;

    std::cout << "Streaming (" << (usedMmap ? "mmap" : "buffered")
              << "): " << fmtF(streamRate / 1e6, 2)
              << " Mpages/s; materialized: " << fmtF(matRate / 1e6, 2)
              << " Mpages/s; ratio " << fmtF(ratio, 3) << " ("
              << (streamIdentical ? "bit-identical" : "MISMATCH")
              << ")\n";
    std::cout << "Target: streaming >= 0.8x materialized "
              << (throughputTarget ? "met" : "NOT MET") << "\n";

    if (!args.flag("keep-trace"))
        std::remove(tracePath.c_str());

    // ----------------------------------------------------------------
    // 2. Policy zoo: hit-rate table + oracle identity gate.
    // ----------------------------------------------------------------
    std::cout << "\n=== Policy zoo (" << zooAccesses
              << " accesses per cell, 25% local) ===\n\n";

    const workloads::Benchmark benches[] = {
        workloads::Benchmark::Websearch,
        workloads::Benchmark::Webmail,
        workloads::Benchmark::Ytube,
        workloads::Benchmark::MapredWc,
        workloads::Benchmark::MapredWr,
    };

    std::vector<ZooCell> cells;
    std::vector<std::string> header{"Workload"};
    for (PolicyKind kind : allPolicyKinds)
        header.push_back(to_string(kind));
    Table zoo(header);
    for (auto b : benches) {
        auto p = profileFor(b);
        auto trace = generateTrace(p, zooAccesses, Rng(11));
        auto zf = std::size_t(
            std::ceil(double(p.footprintPages) * 0.25));
        std::vector<std::string> row{p.name};
        for (PolicyKind kind : allPolicyKinds) {
            auto cell =
                zooCell(p.name, trace, p.footprintPages, kind, zf);
            report.identity(p.name + " " + cell.policy,
                            cell.oracleIdentical);
            row.push_back(fmtPct(cell.hitRate, 2) +
                          (cell.oracleIdentical ? "" : " (MISMATCH)"));
            cells.push_back(cell);
        }
        zoo.addRow(row);
    }
    zoo.print(std::cout);
    bool allIdentical = report.passed();
    std::cout << "\nOracle gate: every kernel vs per-access reference "
              << (allIdentical ? "identical" : "MISMATCH") << "\n";

    auto &w = report.json();
    w.key("streaming").beginObject()
        .key("accesses").value(accesses)
        .key("mmap").value(usedMmap)
        .key("stream_pages_per_sec").value(streamRate)
        .key("materialized_pages_per_sec").value(matRate)
        .key("ratio").value(ratio)
        .key("target_0p8").value(throughputTarget)
        .key("bit_identical").value(streamIdentical)
        .endObject();
    w.key("zoo").beginObject()
        .key("accesses_per_cell").value(zooAccesses)
        .key("cells").beginArray();
    for (const auto &c : cells)
        w.beginObject()
            .key("workload").value(c.workload)
            .key("policy").value(c.policy)
            .key("hit_rate").value(c.hitRate)
            .key("oracle_identical").value(c.oracleIdentical)
            .endObject();
    w.endArray().endObject();
    w.key("all_identical").value(allIdentical);
    return report.finish(args.get("out"));
}

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, run);
}
