/**
 * @file
 * Ensemble-DES hot-path scaling: events/sec by event-queue backend,
 * shard count, and worker count — plus the fast-mode/2 macro-event
 * arms and their statistical-equivalence gate.
 *
 * Runs the identical warehouse-scale ensemble simulation
 * (nonstationary diurnal arrivals + MMPP flash-crowd process,
 * per-server sleep-state machines, PowerOff autoscaling) across a
 * grid of execution knobs — heap vs calendar event ordering, 1-8
 * shards, 1-4 workers — verifies every run produces byte-identical
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
 *  - shards on a single hardware thread measure cache locality (each
 *    shard's working set stays L2-resident); with real cores the
 *    worker arms add parallel execution on top. On a 1-CPU host the
 *    workers>1 arms are pure oversubscription noise, so they are
 *    skipped and marked "skipped_oversubscribed" in the JSON rather
 *    than recorded as if they measured something.
 *  - window_imbalance (busiest shard's share x shards, averaged over
 *    windows; 1.0 = balanced) bounds what parallel workers could ever
 *    deliver: speedup <= shards / imbalance regardless of core count.
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
 * in README.md) so later PRs can track the trajectory; CI recomputes
 * it fresh and gates on bit_identical, the equivalence gate, plus the
 * calendar/heap serial throughput ratio against the committed
 * baseline.
 */

#include <algorithm>
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
    unsigned shards = 1;
    unsigned workers = 1;
    bool fast = false;
    bool skipped = false;  //!< oversubscribed on a 1-CPU host
    double bestWall = 0.0; //!< min over reps
    std::uint64_t events = 0;
    std::uint64_t requests = 0; //!< offered arrivals
    double imbalance = 1.0;
    std::vector<std::uint64_t> shardEvents;

    bool serial() const { return shards == 1 && workers == 1; }
};

} // namespace

int
run(int argc, char **argv)
{
    ArgParser args("bench_ensemble",
                   "ensemble DES throughput by event-queue backend, "
                   "shard count, and worker count, with the "
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

    double serversArg = args.getDouble("servers");
    if (serversArg < 1 || serversArg > 4e6)
        fatal("--servers must be in [1, 4e6]");
    double repsArg = args.getDouble("reps");
    if (repsArg < 1 || repsArg > 100)
        fatal("--reps must be in [1, 100]");
    unsigned reps = unsigned(repsArg);
    double gateSeedsArg = args.getDouble("gate-seeds");
    if (gateSeedsArg < 2 || gateSeedsArg > 8)
        fatal("--gate-seeds must be in [2, 8]");
    unsigned gateSeeds = unsigned(gateSeedsArg);
    double sph = args.getDouble("seconds-per-hour");
    if (sph <= 0.0)
        fatal("--seconds-per-hour must be positive");
    unsigned hw = bench::host().hardwareThreads;

    perfsim::EnsembleConfig cfg;
    cfg.servers = std::uint64_t(serversArg);
    cfg.cells = unsigned(args.getDouble("cells"));
    cfg.hours = unsigned(args.getDouble("hours"));
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
        w.shards = 8;
        runEnsemble(w);
        w.shards = 1;
        w.fast.enabled = true;
        runEnsemble(w);
    }

    // The knob grid: every (shards, workers) pair under each backend,
    // workers <= shards (extra workers would idle). The serial pair
    // (1, 1) per backend anchors the speedup and ratio numbers. The
    // fast arms cover both backends serially (backend invariance)
    // plus sharded pairs (shard/worker invariance).
    const std::vector<std::pair<unsigned, unsigned>> knobs{
        {1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 4}, {8, 1}, {8, 4}};
    std::vector<Arm> arms;
    for (auto kind : {sim::QueueKind::Heap, sim::QueueKind::Calendar})
        for (auto [s, w] : knobs) {
            Arm arm;
            arm.queue = kind;
            arm.shards = s;
            arm.workers = w;
            arms.push_back(std::move(arm));
        }
    const std::vector<std::tuple<sim::QueueKind, unsigned, unsigned>>
        fastKnobs{{sim::QueueKind::Heap, 1, 1},
                  {sim::QueueKind::Calendar, 1, 1},
                  {sim::QueueKind::Calendar, 4, 1},
                  {sim::QueueKind::Calendar, 8, 4}};
    for (auto [kind, s, w] : fastKnobs) {
        Arm arm;
        arm.queue = kind;
        arm.shards = s;
        arm.workers = w;
        arm.fast = true;
        arms.push_back(std::move(arm));
    }
    // Oversubscribed arms on a single-CPU host time-slice one core:
    // their walls measure scheduler noise, not the kernel. Skip them
    // rather than feed noise to the regression gate.
    for (auto &arm : arms)
        if (hw < 2 && arm.workers > 1)
            arm.skipped = true;

    std::string exactRef, fastRef;
    bool identical = true;
    for (unsigned rep = 0; rep < reps; ++rep) {
        for (auto &arm : arms) {
            if (arm.skipped)
                continue;
            cfg.queue = arm.queue;
            cfg.shards = arm.shards;
            cfg.workers = arm.workers;
            cfg.fast.enabled = arm.fast;
            auto r = perfsim::runEnsemble(cfg);
            arm.events = r.eventsDispatched;
            arm.requests = r.offered;
            arm.imbalance = r.meanWindowImbalance;
            arm.shardEvents = r.shardEvents;
            if (arm.bestWall == 0.0 || r.wallSeconds < arm.bestWall)
                arm.bestWall = r.wallSeconds;
            std::string id = identityJson(r);
            std::string &ref = arm.fast ? fastRef : exactRef;
            if (ref.empty())
                ref = id;
            else if (id != ref)
                identical = false;
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
        return double(a.events) / a.bestWall;
    };
    auto rps = [](const Arm &a) {
        return double(a.requests) / a.bestWall;
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

    Table t({"Queue", "Mode", "Shards", "Workers", "Best wall (s)",
             "Events/s", "Req/s", "vs serial", "Imbalance"});
    for (const auto &arm : arms) {
        if (arm.skipped) {
            t.addRow({sim::queueKindName(arm.queue),
                      arm.fast ? "fast" : "exact",
                      std::to_string(arm.shards),
                      std::to_string(arm.workers), "skipped", "-",
                      "-", "-", "-"});
            continue;
        }
        const Arm &anchor = serialArm(arm.queue, arm.fast);
        t.addRow({sim::queueKindName(arm.queue),
                  arm.fast ? "fast" : "exact",
                  std::to_string(arm.shards),
                  std::to_string(arm.workers), fmtF(arm.bestWall, 3),
                  fmtF(eps(arm) / 1e6, 2) + "M",
                  fmtF(rps(arm) / 1e6, 2) + "M",
                  fmtF(anchor.bestWall / arm.bestWall, 2) + "x",
                  fmtF(arm.imbalance, 2)});
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
    if (hw < 2)
        std::cout << "Note: 1 hardware thread visible; workers>1 arms "
                     "skipped (oversubscription noise), multi-shard "
                     "gains are cache locality only.\n";

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
    w.key("events_dispatched").value(arms[0].events);
    w.key("arms").beginArray();
    for (const Arm &arm : arms) {
        w.beginObject()
            .key("queue").value(sim::queueKindName(arm.queue))
            .key("shards").value(std::uint64_t(arm.shards))
            .key("workers").value(std::uint64_t(arm.workers))
            .key("fast").value(arm.fast)
            .key("skipped_oversubscribed").value(arm.skipped);
        if (!arm.skipped) {
            const Arm &anchor = serialArm(arm.queue, arm.fast);
            w.key("best_wall_seconds").value(arm.bestWall)
                .key("events_per_sec").value(eps(arm))
                .key("requests_per_sec").value(rps(arm))
                .key("speedup_vs_serial")
                .value(anchor.bestWall / arm.bestWall)
                .key("window_imbalance").value(arm.imbalance)
                .key("shard_events").beginArray();
            for (auto e : arm.shardEvents)
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
