/**
 * @file
 * Closed-loop driver throughput: the seed lambda-chain driver (kept
 * compiled as runClosedLoopOracle) vs the pooled request-arena driver
 * (runClosedLoop), across the interactive workloads with both the
 * classic and the timeout/retry client protocols.
 *
 * Every comparison is gated on a bit-identical ClosedLoopResult —
 * same sustained throughput, same per-epoch traces, same protocol
 * counters, same DES kernel counters — and the bench exits nonzero on
 * any mismatch, so CI catches a driver that got fast by getting
 * wrong. Timings land in BENCH_closed_loop.json for the perf
 * trajectory.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness.hh"
#include "perfsim/closed_loop.hh"
#include "perfsim/perf_eval.hh"
#include "platform/catalog.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workloads/suite.hh"

using namespace wsc;
using namespace wsc::perfsim;

namespace {

bool
sameKernel(const sim::EventQueue::Counters &a,
           const sim::EventQueue::Counters &b)
{
    return a.scheduled == b.scheduled && a.dispatched == b.dispatched &&
           a.cancelled == b.cancelled &&
           a.compactions == b.compactions && a.peakHeap == b.peakHeap;
}

/** Field-by-field bit comparison (doubles compared exactly). */
bool
sameResult(const ClosedLoopResult &a, const ClosedLoopResult &b)
{
    return a.sustainedRps == b.sustainedRps &&
           a.clientsAtBest == b.clientsAtBest &&
           a.finalClients == b.finalClients &&
           a.finalLiveClients == b.finalLiveClients &&
           a.p95AtBest == b.p95AtBest && a.epochRps == b.epochRps &&
           a.epochPassed == b.epochPassed &&
           a.epochCompleted == b.epochCompleted &&
           a.epochViolations == b.epochViolations &&
           a.epochGiveups == b.epochGiveups &&
           a.epochP95 == b.epochP95 && a.timeouts == b.timeouts &&
           a.retries == b.retries && a.giveups == b.giveups &&
           a.lateCompletions == b.lateCompletions &&
           sameKernel(a.kernel, b.kernel);
}

std::uint64_t
totalCompleted(const ClosedLoopResult &r)
{
    std::uint64_t n = 0;
    for (auto c : r.epochCompleted)
        n += c;
    return n;
}

struct Comparison {
    std::string name;
    double oracleSec = 0.0;
    double pooledSec = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    bool identical = false;

    double speedup() const { return bench::ratio(oracleSec, pooledSec); }
    double oracleReqPerSec() const { return bench::ratio(requests, oracleSec); }
    double pooledReqPerSec() const { return bench::ratio(requests, pooledSec); }
    double
    pooledEventsPerSec() const { return bench::ratio(events, pooledSec); }
};

Comparison
compareDrivers(workloads::Benchmark b, const StationConfig &st,
               const ClosedLoopParams &params, std::uint64_t seed,
               const std::string &tag)
{
    Comparison c;
    c.name = workloads::to_string(b) + " " + tag;

    auto wl = workloads::makeBenchmark(b);
    auto *iw = dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
    WSC_ASSERT(iw, "closed-loop bench needs an interactive workload");

    ClosedLoopResult oracle, pooled;
    c.oracleSec = bench::bestOf([&] {
        Rng rng(seed);
        oracle = runClosedLoopOracle(*iw, st, params, rng);
    });
    c.pooledSec = bench::bestOf([&] {
        Rng rng(seed);
        pooled = runClosedLoop(*iw, st, params, rng);
    });

    c.requests = totalCompleted(pooled);
    c.events = pooled.kernel.dispatched;
    c.identical = sameResult(oracle, pooled);
    return c;
}

} // namespace

int
run(int argc, char **argv)
{
    ArgParser args("bench_closed_loop",
                   "oracle (lambda-chain) vs pooled (request-arena) "
                   "closed-loop drivers, classic and timeout paths");
    args.addOption("epochs", "adaptation epochs per run", "14")
        .addOption("epoch-seconds", "simulated seconds per epoch", "15")
        .addOption("out", "JSON output path", "BENCH_closed_loop.json");
    if (!args.parse(argc, argv))
        return 0;

    double epochsArg = args.getDouble("epochs");
    if (epochsArg < 1.0 || epochsArg > 1000.0)
        fatal("--epochs must be in [1, 1000]");
    double epochSecArg = args.getDouble("epoch-seconds");
    if (epochSecArg <= 0.0 || epochSecArg > 1e6)
        fatal("--epoch-seconds must be in (0, 1e6]");

    PerfEvaluator ev;
    auto srvr2 = platform::makeSystem(platform::SystemClass::Srvr2);

    ClosedLoopParams classic;
    classic.epochs = unsigned(epochsArg);
    classic.epochSeconds = epochSecArg;

    ClosedLoopParams timeout = classic;
    timeout.requestTimeoutSeconds = 0.05;
    timeout.maxRetries = 2;
    timeout.retryBackoffSeconds = 0.01;

    const std::vector<workloads::Benchmark> benches{
        workloads::Benchmark::Websearch, workloads::Benchmark::Webmail,
        workloads::Benchmark::Ytube};

    std::cout << "=== Closed-loop driver throughput (srvr2, "
              << classic.epochs << " epochs x " << classic.epochSeconds
              << "s) ===\n\n";

    // Bit-identity to the oracle is the correctness contract; any
    // mismatch fails the bench.
    bench::Report report("closed_loop", 4);
    std::vector<Comparison> rows;
    for (auto b : benches) {
        auto st = ev.stationsFor(
            srvr2, workloads::makeBenchmark(b)->traits(), {});
        rows.push_back(
            compareDrivers(b, st, classic, 101, "classic"));
        rows.push_back(
            compareDrivers(b, st, timeout, 202, "timeout"));
    }
    for (const auto &c : rows)
        report.identity(c.name, c.identical);

    Table t({"Driver run", "Requests", "Oracle req/s", "Pooled req/s",
             "Pooled Mev/s", "Speedup", "Result"});
    for (const auto &c : rows) {
        t.addRow({c.name, std::to_string(c.requests),
                  fmtF(c.oracleReqPerSec() / 1e3, 1) + "k",
                  fmtF(c.pooledReqPerSec() / 1e3, 1) + "k",
                  fmtF(c.pooledEventsPerSec() / 1e6, 2),
                  fmtF(c.speedup(), 2) + "x",
                  c.identical ? "bit-identical" : "MISMATCH"});
    }
    t.print(std::cout);

    auto &w = report.json();
    w.key("config").beginObject()
        .key("system").value("srvr2")
        .key("epochs").value(std::uint64_t(classic.epochs))
        .key("epoch_seconds").value(classic.epochSeconds)
        .key("timeout_seconds").value(timeout.requestTimeoutSeconds)
        .endObject();
    w.key("runs").beginArray();
    for (const auto &c : rows)
        w.beginObject()
            .key("run").value(c.name)
            .key("requests").value(c.requests)
            .key("events").value(c.events)
            .key("oracle_seconds").value(c.oracleSec)
            .key("pooled_seconds").value(c.pooledSec)
            .key("oracle_req_per_sec").value(c.oracleReqPerSec())
            .key("pooled_req_per_sec").value(c.pooledReqPerSec())
            .key("pooled_events_per_sec").value(c.pooledEventsPerSec())
            .key("speedup").value(c.speedup())
            .key("bit_identical").value(c.identical)
            .endObject();
    w.endArray();
    return report.finish(args.get("out"));
}

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, run);
}
