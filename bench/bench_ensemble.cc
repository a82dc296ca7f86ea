/**
 * @file
 * Ensemble-DES hot-path scaling: events/sec by event-queue backend
 * and worker count — plus the fast-mode/2 macro-event arms and their
 * statistical-equivalence gate.
 *
 * Runs the identical warehouse-scale ensemble simulation
 * (nonstationary diurnal arrivals + MMPP flash-crowd process,
 * per-server sleep-state machines, PowerOff autoscaling) across a
 * grid of execution knobs — heap vs calendar event ordering, 1, 2
 * and 4 workers — verifies every run produces byte-identical
 * ensemble report JSON (the kernel's determinism contract), and
 * reports kernel throughput per arm.
 *
 * What the arms mean:
 *  - queue: the heap is the O(log n) oracle; the calendar queue
 *    (sim/calendar_queue.hh) is the amortized-O(1) fast path. Their
 *    serial ratio is the headline number the CI perf gate tracks.
 *  - fast: arms running the fast-mode/2 macro-event engine
 *    (perfsim/ensemble_fast.cc). Fast arms are bit-identical to each
 *    other across backends/shards/workers — same determinism contract
 *    as exact mode — but not to the exact arms; exact vs fast is
 *    gated *statistically* instead (below). The headline is
 *    fast_vs_exact_ratio: simulated requests/sec, fast calendar
 *    serial over exact calendar serial.
 *  - workers: every cell has its own event queue whatever the knobs
 *    say, so the shard count only sets which cells each worker runs
 *    first; each arm uses one shard per worker. Arms with more
 *    workers than the host has CPUs would measure oversubscription
 *    noise, so they are skipped and marked "skipped_oversubscribed"
 *    in the JSON rather than recorded as if they measured something.
 *  - window_imbalance (busiest shard's share x shards, averaged over
 *    windows; 1.0 = balanced) is how unevenly the work fell on the
 *    home blocks; lanes_stolen counts the cells other workers took
 *    to even it out, and phase_seconds splits the run's wall time
 *    into compute, barrier wait, mailbox drain and control plane.
 *
 * The fast-mode/2 equivalence gate (stats/equivalence.hh) replaces
 * the bit-identity oracle for the fast arms. A naive pooled KS
 * p-value over per-(cell, hour) samples is invalid here: cross-cell
 * spills and shared burst luck correlate every sample from one seed,
 * and exact-vs-exact A/A pools fail it outright. The gate instead
 * treats each run (one seed on one engine) as the exchangeable unit
 * and tests at two scales, on disjoint seed ranges per engine:
 *  - bench scale (the benchmarked config itself): seed-block
 *    permutation KS on per-cell *day-aggregate* utilization and
 *    completion-weighted latency, plus 95% CI overlap on per-seed
 *    kWh/day and QoS attainment. Catches coarse and day-integrated
 *    biases at the exact config whose speedup is being claimed.
 *  - dynamics scale (secondsPerHour = 60, so an "hour" spans many
 *    MMPP dwell cycles and hourly samples resolve the queueing
 *    dynamics): permutation KS on per-(cell, hour) utilization and
 *    mean-latency samples. Catches tail/dynamics distortions (a
 *    spill-ordering bug shows up here at D ~ 0.3 while day
 *    aggregates barely move).
 * Each permutation check mean-centers per-run blocks (removing
 * per-seed common shifts, which the CI-overlap checks own) and
 * rejects only when the observed D is at the top of the exact
 * permutation null. The policy energy ordering under fast mode
 * (power-off < always-on kWh/day) is spot-checked as well. The gate
 * verdict folds into the exit code exactly like the bit-identity
 * gate, so CI fails if fast mode drifts from the law.
 *
 * Methodology: wall times on shared hosts are noisy, so repetitions
 * are interleaved across arms (a slow host phase penalizes every arm
 * equally) and the best time per arm is kept — the least-contended
 * sample is the closest estimate of the true cost.
 *
 * Emits machine-readable BENCH_ensemble.json (schema v4, documented
 * in README.md) so later runs can track the trajectory; CI recomputes
 * it fresh and gates on bit_identical, the equivalence gate, the
 * calendar/heap serial throughput ratio and the calendar 4-worker
 * speedup against the committed record.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/diurnal.hh"
#include "core/ensemble.hh"
#include "harness.hh"
#include "obs/run_report.hh"
#include "perfsim/ensemble_sim.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace wsc;

namespace {

/** The identity serialization the determinism gate compares: the
 * ensemble.* report section without wall-clock fields. */
std::string
identityJson(const perfsim::EnsembleResult &r)
{
    core::EnsemblePolicyOutcome o;
    o.measured = r;
    obs::ReportOptions opts;
    opts.includeTimings = false;
    return obs::toJson(core::ensembleReport(o), opts);
}

struct Arm {
    sim::QueueKind queue = sim::QueueKind::Heap;
    unsigned workers = 1; //!< also the shard count
    bool fast = false;
    bool skipped = false;  //!< more workers than host CPUs
    /** The best rep's run (min wall over reps). */
    perfsim::EnsembleResult best;

    bool serial() const { return workers == 1; }
    double bestWall() const { return best.wallSeconds; }
};

} // namespace

int
run(int argc, char **argv)
{
    ArgParser args("bench_ensemble",
                   "ensemble DES throughput by event-queue backend "
                   "and worker count, with the "
                   "bit-identity gate and the fast-mode/2 "
                   "statistical-equivalence gate");
    args.addOption("servers", "fleet size", "100000")
        .addOption("cells", "dispatch cells (fixed logical lanes)",
                   "16")
        .addOption("hours", "simulated hours", "24")
        .addOption("seconds-per-hour",
                   "compressed seconds per simulated hour", "1.0")
        .addOption("reps",
                   "timed repetitions per arm (best kept)", "3")
        .addOption("gate-seeds",
                   "seeds per engine for the fast-vs-exact "
                   "equivalence gate (2-8; 5 gives a 126-partition "
                   "permutation null)",
                   "5")
        .addOption("out", "JSON output path", "BENCH_ensemble.json");
    if (!args.parse(argc, argv))
        return 0;

    // Counts must be whole numbers in range: a fraction would be
    // truncated silently, and an out-of-range value would reach the
    // engine's own asserts as an abort instead of a usage error.
    auto count = [&](const char *name, double lo, double hi,
                     const char *range) {
        double v = args.getDouble(name);
        if (!(v >= lo && v <= hi) || v != std::floor(v))
            fatal(std::string("--") + name + " must be a whole number in " +
                  range);
        return v;
    };
    double serversArg = count("servers", 1, 4e6, "[1, 4e6]");
    auto reps = unsigned(count("reps", 1, 100, "[1, 100]"));
    auto gateSeeds = unsigned(count("gate-seeds", 2, 8, "[2, 8]"));
    auto cells = unsigned(count("cells", 1, std::min(serversArg, 4096.0),
                                "[1, min(servers, 4096)]"));
    auto hours = unsigned(count("hours", 1, 24, "[1, 24]"));
    double sph = args.getDouble("seconds-per-hour");
    if (sph <= 0.0)
        fatal("--seconds-per-hour must be positive");
    unsigned hw = bench::host().hardwareThreads;

    perfsim::EnsembleConfig cfg;
    cfg.servers = std::uint64_t(serversArg);
    cfg.cells = cells;
    cfg.hours = hours;
    cfg.secondsPerHour = sph;
    // Sustained full load rather than a diurnal valley: the bench
    // stresses kernel throughput at the fleet's design-point depth
    // all day (trough hours would just idle the event queue; the
    // diurnal dynamics themselves are covered by test_ensemble and
    // wsc_eval --ensemble).
    cfg.profile = perfsim::flatHourlyProfile();
    cfg.policy = perfsim::EnsemblePolicy::PowerOff;
    cfg.mmpp.enabled = true;
    // The widest legal conservative lookahead: one simulated hour
    // (the control plane reprograms rates at hour boundaries, so
    // windows cannot span them).
    cfg.networkLatencySeconds = sph;
    // Compressed-timescale transitions (a real 30 s boot would span
    // whole compressed hours).
    cfg.power.bootSeconds = sph;
    cfg.power.sleepWakeSeconds = 0.25 * sph;
    cfg.power.idleToSleepSeconds = 0.5 * sph;

    std::cout << "=== Ensemble hot-path scaling: " << cfg.servers
              << " servers x " << cfg.hours << "h, " << cfg.cells
              << " cells, policy " << to_string(cfg.policy)
              << ", " << hw << " hardware thread(s) ===\n\n";

    // Untimed warmup at a reduced fleet: pays one-time lazy costs
    // (allocator growth, page faults on the binary) without charging
    // any timed arm for them. Both engines get warmed.
    {
        perfsim::EnsembleConfig w = cfg;
        w.servers = std::max<std::uint64_t>(cfg.servers / 10, 1000);
        runEnsemble(w);
        w.fast.enabled = true;
        runEnsemble(w);
    }

    // The knob grid: 1, 2 and 4 workers under each backend. The
    // serial arm per backend anchors the speedup and ratio numbers.
    // The fast arms cover both backends serially (backend invariance)
    // plus a 4-worker arm (worker invariance).
    std::vector<Arm> arms;
    for (auto kind : {sim::QueueKind::Heap, sim::QueueKind::Calendar})
        for (unsigned w : {1u, 2u, 4u}) {
            Arm arm;
            arm.queue = kind;
            arm.workers = w;
            arms.push_back(std::move(arm));
        }
    const std::vector<std::pair<sim::QueueKind, unsigned>> fastKnobs{
        {sim::QueueKind::Heap, 1},
        {sim::QueueKind::Calendar, 1},
        {sim::QueueKind::Calendar, 4}};
    for (auto [kind, w] : fastKnobs) {
        Arm arm;
        arm.queue = kind;
        arm.workers = w;
        arm.fast = true;
        arms.push_back(std::move(arm));
    }
    // Oversubscribed arms time-slice too few cores: their walls
    // measure scheduler noise, not the kernel. Skip them rather than
    // feed noise to the regression gates.
    for (auto &arm : arms)
        if (arm.workers > hw)
            arm.skipped = true;

    std::string exactRef, fastRef;
    bool identical = true;
    for (unsigned rep = 0; rep < reps; ++rep) {
        for (auto &arm : arms) {
            if (arm.skipped)
                continue;
            cfg.queue = arm.queue;
            cfg.shards = arm.workers;
            cfg.workers = arm.workers;
            cfg.fast.enabled = arm.fast;
            auto r = perfsim::runEnsemble(cfg);
            std::string id = identityJson(r);
            std::string &ref = arm.fast ? fastRef : exactRef;
            if (ref.empty())
                ref = id;
            else if (id != ref)
                identical = false;
            if (arm.best.wallSeconds == 0.0 ||
                r.wallSeconds < arm.best.wallSeconds)
                arm.best = std::move(r);
        }
    }
    cfg.queue = sim::QueueKind::Calendar;
    cfg.shards = 1;
    cfg.workers = 1;
    cfg.fast.enabled = false;

    // Per-backend serial anchors (exact arms; event throughput).
    auto serialArm = [&](sim::QueueKind kind, bool fast) -> Arm & {
        for (auto &arm : arms)
            if (arm.queue == kind && arm.serial() &&
                arm.fast == fast)
                return arm;
        fatal("missing serial arm");
    };
    auto eps = [](const Arm &a) {
        return double(a.best.eventsDispatched) / a.bestWall();
    };
    auto rps = [](const Arm &a) {
        return double(a.best.offered) / a.bestWall();
    };
    double heapSerial = eps(serialArm(sim::QueueKind::Heap, false));
    double calSerial = eps(serialArm(sim::QueueKind::Calendar, false));
    // The fast-mode headline: simulated requests per second, best
    // fast arm over the exact calendar-queue serial baseline (the
    // same baseline the exact arms' own speedups anchor on).
    double bestFastRps = 0.0;
    for (const auto &arm : arms)
        if (arm.fast && !arm.skipped)
            bestFastRps = std::max(bestFastRps, rps(arm));
    double fastVsExact =
        bestFastRps / rps(serialArm(sim::QueueKind::Calendar, false));

    Table t({"Queue", "Mode", "Workers", "Best wall (s)", "Events/s",
             "Req/s", "vs serial", "Imbalance", "Stolen"});
    for (const auto &arm : arms) {
        if (arm.skipped) {
            t.addRow({sim::queueKindName(arm.queue),
                      arm.fast ? "fast" : "exact",
                      std::to_string(arm.workers), "skipped", "-",
                      "-", "-", "-", "-"});
            continue;
        }
        const Arm &anchor = serialArm(arm.queue, arm.fast);
        t.addRow({sim::queueKindName(arm.queue),
                  arm.fast ? "fast" : "exact",
                  std::to_string(arm.workers), fmtF(arm.bestWall(), 3),
                  fmtF(eps(arm) / 1e6, 2) + "M",
                  fmtF(rps(arm) / 1e6, 2) + "M",
                  fmtF(anchor.bestWall() / arm.bestWall(), 2) + "x",
                  fmtF(arm.best.meanWindowImbalance, 2),
                  std::to_string(arm.best.lanesStolen)});
    }
    t.print(std::cout);

    std::cout << "\nCalendar vs heap, serial (exact): "
              << fmtF(calSerial / heapSerial, 2) << "x\n"
              << "Fast (best arm) vs exact calendar serial "
                 "(requests/s): "
              << fmtF(fastVsExact, 2) << "x\n"
              << "Determinism gate: "
              << (identical ? "bit-identical within "
                            : "MISMATCH within ")
              << "exact and fast arm groups x " << reps << " reps\n";
    if (hw < 4)
        std::cout << "Note: " << hw << " hardware thread(s) visible; "
                  << "arms with more workers skipped (oversubscription "
                     "noise).\n";

    // ---- fast-mode/2 statistical-equivalence gate ----------------
    //
    // The fast arms gave up bit-identity to the exact arms; this is
    // what they answer to instead (see the file comment for why the
    // statistics are seed-block permutation tests rather than pooled
    // KS p-values). Disjoint seed ranges per engine: the engines
    // consume the per-cell identity streams differently but from the
    // same generators, so same-seed runs are not independent draws.
    std::cout << "\n=== fast-mode/2 equivalence gate (" << gateSeeds
              << " seeds/side) ===\n";
    stats::EquivalenceSpec spec;
    stats::GateVerdict verdict;
    auto addCheck = [&](stats::GateCheck c) {
        verdict.passed = verdict.passed && c.passed;
        verdict.checks.push_back(std::move(c));
    };
    auto addPermCheck = [&](const std::string &name,
                            std::vector<std::vector<double>> exact,
                            std::vector<std::vector<double>> fast) {
        auto pk = stats::blockPermutationKs(std::move(exact),
                                            std::move(fast));
        stats::GateCheck c;
        c.name = name;
        c.kind = "perm-ks";
        c.statistic = pk.statistic;
        c.pValue = pk.pValue;
        c.passed = pk.passes(spec.permAlpha);
        addCheck(std::move(c));
    };
    auto addCiCheck = [&](const std::string &name,
                          const std::vector<double> &exact,
                          const std::vector<double> &fast) {
        auto ov = stats::ciOverlap(exact, fast, spec.ciConfidence);
        stats::GateCheck c;
        c.name = name;
        c.kind = "ci-overlap";
        c.statistic = ov.relGap;
        c.pValue = 1.0;
        c.passed = ov.overlap;
        addCheck(std::move(c));
    };
    // Per-run extraction: [0] per-cell day-mean utilization, [1]
    // per-cell completion-weighted day latency, [2] per-(cell, hour)
    // utilization, [3] per-(cell, hour) mean latency.
    auto extractBlocks = [](const perfsim::EnsembleResult &r,
                            unsigned cells, unsigned hours) {
        std::vector<std::vector<double>> b(4);
        for (unsigned c = 0; c < cells; ++c) {
            double uSum = 0.0, lwSum = 0.0;
            std::uint64_t done = 0;
            for (unsigned h = 0; h < hours; ++h) {
                std::size_t k = std::size_t(c) * hours + h;
                double u = r.cellHourUtilization[k];
                uSum += u;
                b[2].push_back(u);
                if (r.cellHourCompleted[k] > 0) {
                    lwSum += r.cellHourLatencyMean[k] *
                             double(r.cellHourCompleted[k]);
                    done += r.cellHourCompleted[k];
                    b[3].push_back(r.cellHourLatencyMean[k]);
                }
            }
            b[0].push_back(uSum / double(hours));
            if (done > 0)
                b[1].push_back(lwSum / double(done));
        }
        return b;
    };

    // Bench scale: the benchmarked config itself. Day-aggregate
    // permutation KS + per-seed scalar CI overlap.
    std::vector<std::vector<double>> dayUtilE, dayUtilF, dayLatE,
        dayLatF;
    std::vector<double> kwhE, kwhF, qosE, qosF;
    double fastPowerOffKWh = 0.0;
    std::uint64_t baseSeed = cfg.seed;
    for (int fast = 0; fast < 2; ++fast) {
        cfg.fast.enabled = fast;
        for (unsigned i = 0; i < gateSeeds; ++i) {
            cfg.seed = baseSeed + (fast ? gateSeeds : 0) + i;
            auto r = perfsim::runEnsemble(cfg);
            auto b = extractBlocks(r, cfg.cells, cfg.hours);
            (fast ? dayUtilF : dayUtilE).push_back(std::move(b[0]));
            (fast ? dayLatF : dayLatE).push_back(std::move(b[1]));
            (fast ? kwhF : kwhE).push_back(r.kWhPerDay);
            (fast ? qosF : qosE).push_back(r.qosAttainment);
            if (fast && i == 0)
                fastPowerOffKWh = r.kWhPerDay;
        }
    }
    cfg.seed = baseSeed;
    cfg.fast.enabled = false;
    addPermCheck("day_utilization", std::move(dayUtilE),
                 std::move(dayUtilF));
    addPermCheck("day_latency", std::move(dayLatE),
                 std::move(dayLatF));
    addCiCheck("kwh_per_day", kwhE, kwhF);
    addCiCheck("qos_attainment", qosE, qosF);

    // Dynamics scale: stretch the hour to 60 s so it spans many MMPP
    // dwell cycles; per-(cell, hour) samples then resolve queueing
    // dynamics instead of aliasing single burst episodes. Small fleet
    // keeps the 2 x gateSeeds extra runs cheap.
    {
        perfsim::EnsembleConfig dyn = cfg;
        dyn.servers = std::min<std::uint64_t>(cfg.servers, 2000);
        dyn.secondsPerHour = 60.0;
        dyn.networkLatencySeconds = 1.0;
        dyn.power.bootSeconds = 1.0;
        dyn.power.sleepWakeSeconds = 0.25;
        dyn.power.idleToSleepSeconds = 0.5;
        std::vector<std::vector<double>> utilE, utilF, latE, latF;
        for (int fast = 0; fast < 2; ++fast) {
            dyn.fast.enabled = fast;
            for (unsigned i = 0; i < gateSeeds; ++i) {
                dyn.seed = baseSeed + (fast ? gateSeeds : 0) + i;
                auto r = perfsim::runEnsemble(dyn);
                auto b = extractBlocks(r, dyn.cells, dyn.hours);
                (fast ? utilF : utilE).push_back(std::move(b[2]));
                (fast ? latF : latE).push_back(std::move(b[3]));
            }
        }
        addPermCheck("hourly_utilization", std::move(utilE),
                     std::move(utilF));
        addPermCheck("hourly_latency", std::move(latE),
                     std::move(latF));
    }
    // Ranking preservation: the paper's headline ordering must
    // survive the macro-event engine. One fast AlwaysOn run at the
    // base seed against the fast PowerOff run above.
    {
        cfg.fast.enabled = true;
        cfg.policy = perfsim::EnsemblePolicy::AlwaysOn;
        auto r = perfsim::runEnsemble(cfg);
        cfg.policy = perfsim::EnsemblePolicy::PowerOff;
        cfg.fast.enabled = false;
        stats::GateCheck c;
        c.name = "power_off_below_always_on_kwh";
        c.kind = "ordering";
        c.passed = fastPowerOffKWh < r.kWhPerDay;
        c.statistic = fastPowerOffKWh / r.kWhPerDay;
        addCheck(std::move(c));
    }
    for (const auto &c : verdict.checks)
        std::cout << (c.passed ? "  pass  " : "  FAIL  ") << c.name
                  << " (" << c.kind << ", stat=" << fmtF(c.statistic, 4)
                  << (c.kind == "perm-ks"
                          ? ", p_perm=" + fmtF(c.pValue, 4)
                          : std::string())
                  << ")\n";
    std::cout << "Equivalence gate: "
              << (verdict.passed ? "PASS" : "FAIL") << "\n";

    bench::Report report("ensemble", 4);
    report.identity("exact_and_fast_arm_groups", identical);
    report.gate(verdict);
    auto &w = report.json();
    w.key("config").beginObject()
        .key("servers").value(std::uint64_t(cfg.servers))
        .key("cells").value(std::uint64_t(cfg.cells))
        .key("hours").value(std::uint64_t(cfg.hours))
        .key("seconds_per_hour").value(cfg.secondsPerHour)
        .key("policy").value(to_string(cfg.policy))
        .key("mmpp").value(cfg.mmpp.enabled)
        .key("lookahead_seconds").value(cfg.networkLatencySeconds)
        .key("seed").value(cfg.seed)
        .key("reps").value(std::uint64_t(reps))
        .key("gate_seeds").value(std::uint64_t(gateSeeds))
        .key("fast_contract")
        .value(sim::EnsembleFastConfig::contractVersion())
        .endObject();
    w.key("events_dispatched").value(arms[0].best.eventsDispatched);
    w.key("arms").beginArray();
    for (const Arm &arm : arms) {
        w.beginObject()
            .key("queue").value(sim::queueKindName(arm.queue))
            .key("shards").value(std::uint64_t(arm.workers))
            .key("workers").value(std::uint64_t(arm.workers))
            .key("fast").value(arm.fast)
            .key("skipped_oversubscribed").value(arm.skipped);
        if (!arm.skipped) {
            const Arm &anchor = serialArm(arm.queue, arm.fast);
            const perfsim::EnsembleResult &r = arm.best;
            w.key("best_wall_seconds").value(arm.bestWall())
                .key("events_per_sec").value(eps(arm))
                .key("requests_per_sec").value(rps(arm))
                .key("speedup_vs_serial")
                .value(anchor.bestWall() / arm.bestWall())
                .key("window_imbalance").value(r.meanWindowImbalance)
                .key("lanes_stolen").value(r.lanesStolen)
                .key("phase_seconds").beginObject()
                .key("compute").value(r.computeSeconds)
                .key("barrier_wait").value(r.barrierWaitSeconds)
                .key("drain").value(r.drainSeconds)
                .key("control").value(r.controlSeconds)
                .endObject()
                .key("shard_events").beginArray();
            for (auto e : r.shardEvents)
                w.value(e);
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
    w.key("serial_events_per_sec").beginObject()
        .key("heap").value(heapSerial)
        .key("calendar").value(calSerial)
        .endObject();
    w.key("calendar_vs_heap_serial_ratio").value(calSerial / heapSerial);
    w.key("fast_vs_exact_ratio").value(fastVsExact);
    w.key("equivalence_gate").beginObject()
        .key("passed").value(verdict.passed)
        .key("seeds").value(std::uint64_t(gateSeeds))
        .key("checks");
    bench::writeChecks(w, verdict.checks);
    w.endObject();
    w.key("bit_identical").value(identical);
    return report.finish(args.get("out"));
}

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, run);
}
