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
 *
 * The --fast-mode half of the bench compares the exact pooled driver
 * against the batched fast path (sim/fast_mode.hh). Fast mode gives
 * up bit-identity by construction, so its gate is statistical
 * (stats/equivalence.hh): two-sample KS on service-demand and latency
 * distributions plus CI-overlap on per-seed sustained-RPS/p95 across
 * several seeds, and the gate's verdict joins bit-identity in the
 * exit code.
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

/** Exact pooled vs fast pooled timing for one workload. */
struct FastRow {
    std::string name;
    double exactSec = 0.0;
    double fastSec = 0.0;
    std::uint64_t exactRequests = 0;
    std::uint64_t fastRequests = 0;

    double
    exactReqPerSec() const { return bench::ratio(exactRequests, exactSec); }
    double fastReqPerSec() const { return bench::ratio(fastRequests, fastSec); }
    /** Requests/sec ratio (request counts differ between the modes). */
    double
    speedup() const { return bench::ratio(fastReqPerSec(), exactReqPerSec()); }
};

FastRow
compareFastMode(workloads::Benchmark b, const StationConfig &st,
                const ClosedLoopParams &params, std::uint64_t seed)
{
    FastRow row;
    row.name = workloads::to_string(b);

    auto wl = workloads::makeBenchmark(b);
    auto *iw = dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
    WSC_ASSERT(iw, "closed-loop bench needs an interactive workload");

    ClosedLoopParams exact = params;
    ClosedLoopParams fast = params;
    fast.fastMode.enabled = true;

    // One run is only ~15 ms of wall time — too close to scheduler
    // noise for a stable ratio — so each timed sample is a burst of
    // identical runs and the best-of-kTimedReps picks the cleanest.
    constexpr int kBurst = 6;
    ClosedLoopResult er, fr;
    row.exactSec = bench::bestOf([&] {
        for (int i = 0; i < kBurst; ++i) {
            Rng rng(seed);
            er = runClosedLoop(*iw, st, exact, rng);
        }
    }) / kBurst;
    row.fastSec = bench::bestOf([&] {
        for (int i = 0; i < kBurst; ++i) {
            Rng rng(seed);
            fr = runClosedLoop(*iw, st, fast, rng);
        }
    }) / kBurst;
    row.exactRequests = totalCompleted(er);
    row.fastRequests = totalCompleted(fr);
    return row;
}

/** Thin every sample set to at most @p cap points (uniform stride).
 * Latency sequences are autocorrelated through the queues, so the KS
 * test runs on thinned sets: the reduced count keeps the test's
 * effective-sample-size assumption honest and the threshold lenient
 * against realization noise, while real distribution shifts still
 * drive D far past it. */
std::vector<double>
thinned(const std::vector<double> &xs, std::size_t cap)
{
    if (xs.size() <= cap)
        return xs;
    std::vector<double> out;
    out.reserve(cap);
    double stride = double(xs.size()) / double(cap);
    for (std::size_t i = 0; i < cap; ++i)
        out.push_back(xs[std::size_t(double(i) * stride)]);
    return out;
}

/**
 * The statistical-equivalence gate for one workload: across
 * @p seeds seeds, run exact and fast closed loops, then compare
 *  - KS: i.i.d. service-demand draws (cpuWork, diskReadBytes) from
 *    the scalar vs the batched generator,
 *  - KS: pooled (thinned) request-latency samples,
 *  - CI-overlap: per-seed sustained RPS and p95-at-best.
 */
stats::GateVerdict
equivalenceGateFor(workloads::Benchmark b, const StationConfig &st,
                   const ClosedLoopParams &params,
                   const std::vector<std::uint64_t> &seeds)
{
    auto wl = workloads::makeBenchmark(b);
    auto *iw = dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
    WSC_ASSERT(iw, "closed-loop bench needs an interactive workload");
    std::string name = workloads::to_string(b);

    // Demand-law check on i.i.d. draws: scalar path vs batched path,
    // independent streams, no queueing in the way.
    constexpr std::size_t kDemandDraws = 20000;
    std::vector<workloads::ServiceDemand> ed(kDemandDraws),
        fd(kDemandDraws);
    {
        Rng er(seeds.front() ^ 0xE0E0E0E0ULL);
        for (auto &d : ed)
            d = iw->nextRequest(er);
        workloads::BatchStream fr(Rng(seeds.front() ^ 0xF0F0F0F0ULL));
        iw->nextRequestBatch(fr, fd.data(), fd.size());
    }
    auto field = [](const std::vector<workloads::ServiceDemand> &v,
                    double workloads::ServiceDemand::*m) {
        std::vector<double> out;
        out.reserve(v.size());
        for (const auto &d : v)
            out.push_back(d.*m);
        return out;
    };

    stats::NamedSamples cpuWork{
        name + " demand.cpuWork",
        field(ed, &workloads::ServiceDemand::cpuWork),
        field(fd, &workloads::ServiceDemand::cpuWork)};
    stats::NamedSamples diskBytes{
        name + " demand.diskReadBytes",
        field(ed, &workloads::ServiceDemand::diskReadBytes),
        field(fd, &workloads::ServiceDemand::diskReadBytes)};

    // Closed-loop runs per seed, both modes, retaining latencies.
    stats::NamedSamples latency{name + " latency", {}, {}};
    stats::NamedSamples rps{name + " sustainedRps", {}, {}};
    stats::NamedSamples p95{name + " p95AtBest", {}, {}};
    constexpr std::size_t kLatencyCapPerSeed = 400;
    for (auto seed : seeds) {
        ClosedLoopParams exact = params;
        exact.collectLatencySamples = true;
        ClosedLoopParams fast = exact;
        fast.fastMode.enabled = true;

        Rng er(seed);
        auto exactRun = runClosedLoop(*iw, st, exact, er);
        Rng fr(seed);
        auto fastRun = runClosedLoop(*iw, st, fast, fr);

        auto el = thinned(exactRun.latencySamples, kLatencyCapPerSeed);
        auto fl = thinned(fastRun.latencySamples, kLatencyCapPerSeed);
        latency.exact.insert(latency.exact.end(), el.begin(), el.end());
        latency.fast.insert(latency.fast.end(), fl.begin(), fl.end());
        rps.exact.push_back(exactRun.sustainedRps);
        rps.fast.push_back(fastRun.sustainedRps);
        p95.exact.push_back(exactRun.p95AtBest);
        p95.fast.push_back(fastRun.p95AtBest);
    }

    return stats::equivalenceGate({cpuWork, diskBytes, latency},
                                  {rps, p95});
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
        .addOption("gate-seeds",
                   "seeds for the fast-mode equivalence gate", "5")
        .addOption("out", "JSON output path", "BENCH_closed_loop.json");
    if (!args.parse(argc, argv))
        return 0;

    double epochsArg = args.getDouble("epochs");
    if (epochsArg < 1.0 || epochsArg > 1000.0)
        fatal("--epochs must be in [1, 1000]");
    double epochSecArg = args.getDouble("epoch-seconds");
    if (epochSecArg <= 0.0 || epochSecArg > 1e6)
        fatal("--epoch-seconds must be in (0, 1e6]");
    double gateSeedsArg = args.getDouble("gate-seeds");
    if (gateSeedsArg < 2.0 || gateSeedsArg > 64.0)
        fatal("--gate-seeds must be in [2, 64]");

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

    auto stations = [&](workloads::Benchmark b) {
        return ev.stationsFor(srvr2, workloads::makeBenchmark(b)->traits(),
                              {});
    };
    // Bit-identity (exact mode) and the statistical gate (fast mode)
    // are both correctness contracts; either failing fails the bench.
    bench::Report report("closed_loop", 2);
    std::vector<Comparison> rows;
    for (auto b : benches) {
        auto st = stations(b);
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

    // Acceptance target: >= 3x requests per wallclock second on the
    // classic websearch and webmail runs.
    bool target = true;
    for (const auto &c : rows)
        if (c.name == "websearch classic" || c.name == "webmail classic")
            target = target && c.speedup() >= 3.0;
    std::cout << "\nTarget: websearch+webmail classic >= 3x "
              << (target ? "met" : "NOT MET") << "\n";

    // ---- Fast mode: exact pooled vs batched fast path ----
    std::cout << "\n=== Fast mode ("
              << sim::FastModeConfig::contractVersion()
              << ", batched demand sampling) ===\n\n";

    std::vector<FastRow> fastRows;
    for (auto b : benches)
        fastRows.push_back(compareFastMode(b, stations(b), classic, 101));

    Table ft({"Workload", "Exact req/s", "Fast req/s", "Speedup"});
    for (const auto &f : fastRows)
        ft.addRow({f.name, fmtF(f.exactReqPerSec() / 1e3, 1) + "k",
                   fmtF(f.fastReqPerSec() / 1e3, 1) + "k",
                   fmtF(f.speedup(), 2) + "x"});
    ft.print(std::cout);

    // Demand sampling is ~34% of the exact closed loop (EXPERIMENTS.md
    // "Closed-loop driver rebuild"), so Amdahl caps end-to-end fast-mode
    // gains near 1.5x even with free sampling; the >= 2x claim lives at
    // the sampling kernel itself (bench_sampler splitmix64 rows). Here
    // the target is the end-to-end share of that ceiling.
    bool fastTarget = false;
    for (const auto &f : fastRows)
        fastTarget = fastTarget || f.speedup() >= 1.25;
    std::cout << "\nTarget: fast mode >= 1.25x end-to-end on at least "
                 "one workload (sampling kernel >= 2x: see "
                 "bench_sampler) "
              << (fastTarget ? "met" : "NOT MET") << "\n";

    // ---- Statistical-equivalence gate ----
    std::vector<std::uint64_t> gateSeeds;
    for (unsigned i = 0; i < unsigned(gateSeedsArg); ++i)
        gateSeeds.push_back(1001 + 7 * i);

    std::cout << "\n=== Equivalence gate (" << gateSeeds.size()
              << " seeds: KS on demand/latency, CI-overlap on "
                 "RPS/p95) ===\n\n";

    std::vector<stats::GateCheck> gateChecks;
    bool gatePassed = true;
    for (auto b : benches) {
        auto verdict =
            equivalenceGateFor(b, stations(b), classic, gateSeeds);
        report.gate(verdict);
        gatePassed = gatePassed && verdict.passed;
        gateChecks.insert(gateChecks.end(), verdict.checks.begin(),
                          verdict.checks.end());
    }

    Table gt({"Check", "Kind", "Statistic", "p-value", "Verdict"});
    for (const auto &c : gateChecks)
        gt.addRow({c.name, c.kind, fmtF(c.statistic, 4),
                   c.kind == "ks" ? fmtF(c.pValue, 4) : std::string("-"),
                   c.passed ? "pass" : "FAIL"});
    gt.print(std::cout);
    std::cout << "\nEquivalence gate: "
              << (gatePassed ? "PASSED" : "FAILED") << "\n";

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
    w.key("fast_mode").beginObject()
        .key("contract").value(sim::FastModeConfig::contractVersion())
        .key("gate_seeds").value(gateSeeds.size())
        .key("runs").beginArray();
    for (const auto &f : fastRows)
        w.beginObject()
            .key("workload").value(f.name)
            .key("exact_seconds").value(f.exactSec)
            .key("fast_seconds").value(f.fastSec)
            .key("exact_requests").value(f.exactRequests)
            .key("fast_requests").value(f.fastRequests)
            .key("exact_req_per_sec").value(f.exactReqPerSec())
            .key("fast_req_per_sec").value(f.fastReqPerSec())
            .key("speedup").value(f.speedup())
            .endObject();
    w.endArray().key("gate");
    bench::writeChecks(w, gateChecks);
    w.key("gate_passed").value(gatePassed).endObject();
    w.key("targets").beginObject()
        .key("classic_3x").value(target)
        .key("fast_end_to_end_1_25x").value(fastTarget)
        .endObject();
    return report.finish(args.get("out"));
}

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, run);
}
