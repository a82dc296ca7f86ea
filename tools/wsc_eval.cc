/**
 * @file
 * wsc_eval: command-line design evaluator.
 *
 * Composes a design from flags (platform, packaging, memory sharing,
 * storage), evaluates it across the benchmark suite, and prints
 * absolute metrics plus ratios against a baseline platform.
 *
 * Examples:
 *   wsc_eval --system emb1
 *   wsc_eval --design n2 --baseline srvr1
 *   wsc_eval --system desk --packaging dual-entry \
 *            --memory-sharing dynamic --storage laptop-flash --csv
 */

#include <atomic>
#include <fstream>
#include <iostream>

#include "core/design.hh"
#include "core/ensemble.hh"
#include "core/evaluator.hh"
#include "core/report.hh"
#include "core/sweep_report.hh"
#include "obs/run_report.hh"
#include "sim/fast_mode.hh"
#include "util/args.hh"
#include "util/logging.hh"

using namespace wsc;
using namespace wsc::core;

namespace {

workloads::Benchmark
parseBenchmark(const std::string &name)
{
    for (auto b : workloads::allBenchmarks)
        if (workloads::to_string(b) == name)
            return b;
    fatal("unknown benchmark '" + name + "'");
}

platform::SystemClass
parseSystem(const std::string &name)
{
    for (auto cls : platform::allSystemClasses)
        if (platform::to_string(cls) == name)
            return cls;
    fatal("unknown system '" + name +
          "' (srvr1|srvr2|desk|mobl|emb1|emb2)");
}

DesignConfig
buildDesign(const ArgParser &args)
{
    std::string named = args.get("design");
    if (named == "n1")
        return DesignConfig::n1();
    if (named == "n2")
        return DesignConfig::n2();
    if (!named.empty())
        fatal("unknown design '" + named + "' (n1|n2 or use --system)");

    auto design =
        DesignConfig::baseline(parseSystem(args.get("system")));

    std::string packaging = args.get("packaging");
    if (packaging == "dual-entry")
        design.packaging = thermal::PackagingDesign::DualEntry;
    else if (packaging == "aggregated")
        design.packaging =
            thermal::PackagingDesign::AggregatedMicroblade;
    else if (packaging != "conventional")
        fatal("unknown packaging '" + packaging +
              "' (conventional|dual-entry|aggregated)");

    std::string sharing = args.get("memory-sharing");
    if (sharing == "static")
        design.memorySharing = memblade::Provisioning::Static;
    else if (sharing == "dynamic")
        design.memorySharing = memblade::Provisioning::Dynamic;
    else if (sharing != "none")
        fatal("unknown memory-sharing '" + sharing +
              "' (none|static|dynamic)");

    std::string storage = args.get("storage");
    if (storage == "laptop")
        design.storage = flashcache::StorageOption::remoteLaptop();
    else if (storage == "laptop-flash")
        design.storage = flashcache::StorageOption::remoteLaptopFlash();
    else if (storage == "laptop2-flash")
        design.storage =
            flashcache::StorageOption::remoteLaptop2Flash();
    else if (storage != "platform")
        fatal("unknown storage '" + storage +
              "' (platform|laptop|laptop-flash|laptop2-flash)");

    // Compose a descriptive name so evaluator caching stays distinct.
    design.name = args.get("system");
    if (packaging != "conventional")
        design.name += "+" + packaging;
    if (sharing != "none")
        design.name += "+mem-" + sharing;
    if (storage != "platform")
        design.name += "+" + storage;
    return design;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("wsc_eval",
                   "evaluate a warehouse-computing server design "
                   "across the benchmark suite");
    args.addOption("system", "platform class when composing a design",
                   "srvr2")
        .addOption("design", "named design (n1|n2) overriding --system",
                   "")
        .addOption("packaging",
                   "conventional|dual-entry|aggregated", "conventional")
        .addOption("memory-sharing", "none|static|dynamic", "none")
        .addOption("storage",
                   "platform|laptop|laptop-flash|laptop2-flash",
                   "platform")
        .addOption("baseline", "baseline platform for ratios", "srvr1")
        .addOption("tariff", "electricity tariff, $/MWh", "100")
        .addOption("activity", "activity factor (0, 1]", "0.75")
        .addOption("threads",
                   "worker threads for the simulations "
                   "(0 = WSC_THREADS, else every allowed CPU)",
                   "0")
        .addOption("report",
                   "write a structured JSON run report to this path", "")
        .addOption("warmup", "simulation warmup window, seconds", "10")
        .addOption("measure", "simulation measurement window, seconds",
                   "40")
        .addOption("search-iters",
                   "bisection steps in the throughput search", "9")
        .addOption("faults",
                   "fault-injection spec: none|all|comma-list of "
                   "components (e.g. disk,fan,memory-blade)",
                   "none")
        .addOption("mttf-scale",
                   "MTTF multiplier for accelerated-life compression "
                   "(repairs stay real-length)",
                   "1e-4")
        .addOption("avail-servers",
                   "cluster size for the availability runs", "8")
        .addOption("avail-horizon",
                   "availability simulation horizon, seconds", "600")
        .addOption("avail-epoch",
                   "QoS accounting epoch, seconds", "10")
        .addOption("avail-load",
                   "offered load as a fraction of aggregate "
                   "sustainable RPS",
                   "0.7")
        .addOption("avail-benchmark",
                   "interactive benchmark driving the availability runs",
                   "websearch")
        .addFlag("ensemble",
                 "run the warehouse-scale ensemble DES: rank the "
                 "diurnal power policies by measured energy x QoS")
        .addOption("ensemble-servers",
                   "fleet size for the ensemble runs", "10000")
        .addOption("ensemble-cells",
                   "dispatch cells (model topology)", "16")
        .addOption("ensemble-shards",
                   "blocks of cells: each worker runs its own block's "
                   "cells first, then takes whole cells from the "
                   "others; caps the worker count (execution knob; "
                   "results are bit-identical across shard counts)",
                   "1")
        .addOption("ensemble-workers",
                   "threads executing the cells (0 = min(shards, "
                   "allowed CPUs))",
                   "1")
        .addOption("ensemble-hours", "simulated hours", "24")
        .addOption("ensemble-seconds-per-hour",
                   "duty-cycle compression: simulated seconds per "
                   "modeled hour",
                   "5")
        .addOption("ensemble-profile",
                   "hourly load shape: internet-service|flat",
                   "internet-service")
        .addOption("ensemble-power-cap",
                   "ensemble power cap, watts (0 = uncapped)", "0")
        .addOption("ensemble-seed", "ensemble RNG seed", "1")
        .addFlag("ensemble-mmpp",
                 "enable MMPP flash-crowd bursts in the ensemble runs")
        .addOption("ensemble-policy",
                   "evaluate a single ensemble policy instead of the "
                   "full ranking: always-on|consolidate-idle|power-off "
                   "(empty = all three)",
                   "")
        .addFlag("trace",
                 "count kernel trace records and summarize on stderr")
        .addFlag("fast-mode",
                 "macro-event arrival coalescing in the ensemble DES, "
                 "statistically equivalent but not bit-identical "
                 "(contract " +
                     sim::EnsembleFastConfig::contractVersion() +
                     "); requires --ensemble")
        .addFlag("csv", "emit CSV instead of an aligned table");

    try {
        if (!args.parse(argc, argv))
            return 0;

        double threads = args.getDouble("threads");
        if (threads < 0 || threads > 4096)
            fatal("--threads must be in [0, 4096]");
        ThreadPool::setGlobalThreads(unsigned(threads));

        EvaluatorParams params;
        params.burden.tariffPerMWh = args.getDouble("tariff");
        params.burden.activityFactor = args.getDouble("activity");
        double warmup = args.getDouble("warmup");
        if (!(warmup >= 0))
            fatal("--warmup must be >= 0");
        double measure = args.getDouble("measure");
        if (!(measure > 0))
            fatal("--measure must be > 0");
        params.search.window.warmupSeconds = warmup;
        params.search.window.measureSeconds = measure;
        double iters = args.getDouble("search-iters");
        if (iters < 1 || iters > 64)
            fatal("--search-iters must be in [1, 64]");
        params.search.iterations = unsigned(iters);
        if (args.flag("fast-mode") && !args.flag("ensemble"))
            fatal("--fast-mode requires --ensemble");

        // --trace installs a shared (thread-safe) counting sink on
        // every simulation's event queue.
        std::atomic<std::uint64_t> traced[3] = {};
        if (args.flag("trace")) {
            params.search.window.tracer =
                [&traced](const sim::EventQueue::TraceRecord &r) {
                    ++traced[std::size_t(r.kind)];
                };
        }
        DesignEvaluator evaluator(params);

        auto design = buildDesign(args);
        auto baseline =
            DesignConfig::baseline(parseSystem(args.get("baseline")));

        // Dependability-aware evaluation: --faults enables the
        // availability mode; the default "none" leaves every zero-fault
        // output (table and report bytes) untouched. Parse and validate
        // up front so a bad spec fails before the perf sweep runs.
        auto spec = faults::FaultSpec::parse(args.get("faults"));
        spec.mttfScale = args.getDouble("mttf-scale");
        if (spec.mttfScale <= 0)
            fatal("--mttf-scale must be > 0");
        AvailabilityEvalParams availParams;
        if (spec.any()) {
            availParams.spec = spec;
            double servers = args.getDouble("avail-servers");
            if (servers < 1 || servers > 4096)
                fatal("--avail-servers must be in [1, 4096]");
            availParams.servers = unsigned(servers);
            availParams.horizonSeconds = args.getDouble("avail-horizon");
            availParams.epochSeconds = args.getDouble("avail-epoch");
            // Negated compares also refuse NaN.
            if (!(availParams.horizonSeconds > 0))
                fatal("--avail-horizon must be > 0");
            if (!(availParams.epochSeconds > 0 &&
                  availParams.epochSeconds <= availParams.horizonSeconds))
                fatal("--avail-epoch must be in (0, --avail-horizon]");
            availParams.loadFactor = args.getDouble("avail-load");
            if (availParams.loadFactor <= 0 ||
                availParams.loadFactor > 1)
                fatal("--avail-load must be in (0, 1]");
            availParams.benchmark =
                parseBenchmark(args.get("avail-benchmark"));
        }

        // Run the whole (design + baseline) x suite matrix as one
        // parallel batch; the per-benchmark queries below then hit
        // the evaluator's cache.
        std::vector<EvalCell> cells;
        for (auto b : workloads::allBenchmarks) {
            cells.push_back({design, b});
            cells.push_back({baseline, b});
        }
        evaluator.evaluateBatch(cells);

        Table t({"Benchmark", "Perf", "Watts", "TCO-$",
                 "Perf rel " + baseline.name,
                 "Perf/TCO-$ rel " + baseline.name});
        for (auto b : workloads::allBenchmarks) {
            auto m = evaluator.evaluate(design, b);
            auto rel = evaluator.evaluateRelative(design, baseline, b);
            t.addRow({workloads::to_string(b), fmtF(m.perf, 3),
                      fmtF(m.watts, 1), fmtDollars(m.tcoDollars),
                      fmtPct(rel.perf),
                      fmtPct(rel.perfPerTcoDollar)});
        }
        auto agg = evaluator.aggregateRelative(design, baseline);
        t.addSeparator();
        t.addRow({"HMean", "-", "-", "-", fmtPct(agg.perf),
                  fmtPct(agg.perfPerTcoDollar)});

        std::cout << "Design: " << design.name << "\n\n";
        if (args.flag("csv"))
            t.printCsv(std::cout);
        else
            t.print(std::cout);

        std::vector<obs::AvailReport> availEntries;
        if (spec.any()) {
            std::vector<DesignConfig> designs{design, baseline};
            auto runs = evaluator.evaluateAvailabilityBatch(
                designs, availParams);

            Table at({"Design", "Avail %", "Goodput RPS", "Goodput %",
                      "MTT-QoS-viol s", "Failures", "Crashes",
                      "Blast max", "Avail x Perf/TCO-$ rel"});
            for (std::size_t i = 0; i < designs.size(); ++i) {
                const auto &r = runs[i];
                // Dependability-adjusted figure of merit: the perf-per-
                // TCO ratio a design actually delivers once the epochs
                // it cannot sustain QoS are discounted.
                auto rel = evaluator.evaluateRelative(
                    designs[i], baseline, availParams.benchmark);
                double baseAvail = runs.back().availability;
                double combined =
                    baseAvail > 0 ? rel.perfPerTcoDollar *
                                        r.availability / baseAvail
                                  : 0.0;
                at.addRow({designs[i].name,
                           fmtF(100.0 * r.availability, 2),
                           fmtF(r.goodputRps, 1),
                           fmtF(100.0 * r.goodputFraction, 1),
                           fmtF(r.meanTimeToQosViolationSeconds, 1),
                           fmtF(double(r.faults.totalFailures()), 0),
                           fmtF(double(r.faults.serverCrashes), 0),
                           fmtF(double(r.faults.blastMax), 0),
                           fmtPct(combined)});
                availEntries.push_back(
                    availReport(designs[i], availParams, r));
            }
            std::cout << "\nAvailability under faults ("
                      << spec.summary()
                      << ", mttf-scale=" << spec.mttfScale << ", "
                      << availParams.servers << " servers, "
                      << availParams.horizonSeconds << " s):\n\n";
            if (args.flag("csv"))
                at.printCsv(std::cout);
            else
                at.print(std::cout);
        }

        std::vector<obs::EnsembleReport> ensembleEntries;
        if (args.flag("ensemble")) {
            EnsembleEvalParams ep;
            double eServers = args.getDouble("ensemble-servers");
            if (eServers < 1 || eServers > 1e6)
                fatal("--ensemble-servers must be in [1, 1e6]");
            ep.energy.servers = unsigned(eServers);
            // Price both models off the evaluated design's server.
            ep.energy.wattsPerServer = design.server.totalWatts();
            ep.energy.activityFactor = params.burden.activityFactor;
            double eCells = args.getDouble("ensemble-cells");
            if (eCells < 1 || eCells > 4096)
                fatal("--ensemble-cells must be in [1, 4096]");
            ep.cells = unsigned(eCells);
            double eShards = args.getDouble("ensemble-shards");
            if (eShards < 1 || eShards > 4096)
                fatal("--ensemble-shards must be in [1, 4096]");
            ep.shards = unsigned(eShards);
            double eWorkers = args.getDouble("ensemble-workers");
            if (eWorkers < 0 || eWorkers > 4096)
                fatal("--ensemble-workers must be in [0, 4096]");
            ep.workers = unsigned(eWorkers);
            // Couple the fleet to the evaluated design: its relative
            // performance (harmonic mean over the suite, vs the
            // baseline) scales per-request service demand, so the
            // policy ranking reflects the platform being evaluated.
            ep.designName = design.name;
            ep.serviceDemandScale = agg.perf;
            double eHours = args.getDouble("ensemble-hours");
            if (eHours < 1 || eHours > 24)
                fatal("--ensemble-hours must be in [1, 24]");
            ep.hours = unsigned(eHours);
            ep.secondsPerHour =
                args.getDouble("ensemble-seconds-per-hour");
            if (ep.secondsPerHour <= 0.0)
                fatal("--ensemble-seconds-per-hour must be positive");
            ep.powerCapWatts = args.getDouble("ensemble-power-cap");
            if (ep.powerCapWatts < 0.0)
                fatal("--ensemble-power-cap must be >= 0");
            double eSeed = args.getDouble("ensemble-seed");
            if (eSeed < 0)
                fatal("--ensemble-seed must be >= 0");
            ep.seed = std::uint64_t(eSeed);
            ep.mmpp.enabled = args.flag("ensemble-mmpp");
            ep.fast.enabled = args.flag("fast-mode");

            std::string policyName = args.get("ensemble-policy");
            if (policyName == "always-on")
                ep.policies = {PowerPolicy::AlwaysOn};
            else if (policyName == "consolidate-idle")
                ep.policies = {PowerPolicy::ConsolidateIdle};
            else if (policyName == "power-off")
                ep.policies = {PowerPolicy::PowerOff};
            else if (!policyName.empty())
                fatal("unknown ensemble policy '" + policyName +
                      "' (always-on|consolidate-idle|power-off)");

            std::string shape = args.get("ensemble-profile");
            DiurnalProfile profile;
            if (shape == "internet-service")
                profile = DiurnalProfile::internetService();
            else if (shape == "flat")
                profile = DiurnalProfile::flat();
            else
                fatal("unknown ensemble profile '" + shape +
                      "' (internet-service|flat)");

            auto ranked = rankEnsemblePolicies(profile, ep);

            Table et({"Policy", "kWh/day", "Analytic kWh", "Mean awake",
                      "QoS attain %", "p95 s", "Wakes", "Boots",
                      "Score"});
            for (const auto &o : ranked) {
                const auto &m = o.measured;
                et.addRow({to_string(o.policy), fmtF(m.kWhPerDay, 1),
                           fmtF(o.analytical.kWhPerDay, 1),
                           fmtF(m.meanAwakeServers, 1),
                           fmtF(100.0 * m.qosAttainment, 2),
                           fmtF(m.p95, 3), fmtF(double(m.wakes), 0),
                           fmtF(double(m.boots), 0),
                           fmtF(m.score, 1)});
                ensembleEntries.push_back(ensembleReport(o));
            }
            std::cout << "\nEnsemble policy ranking for design "
                      << design.name << " (service demand x"
                      << fmtF(1.0 / ep.serviceDemandScale, 3) << ", "
                      << ep.energy.servers << " servers, " << ep.cells
                      << " cells, " << ep.hours << " h x "
                      << ep.secondsPerHour << " s, profile=" << shape
                      << (ep.mmpp.enabled ? ", mmpp" : "")
                      << (ep.fast.enabled
                              ? ", " + sim::EnsembleFastConfig::
                                           contractVersion()
                              : "")
                      << ", queue=" << sim::queueKindName(ep.queue)
                      << "; score = kWh / attainment, lower wins):\n\n";
            if (args.flag("csv"))
                et.printCsv(std::cout);
            else
                et.print(std::cout);
        }

        if (args.flag("trace")) {
            using Kind = sim::EventQueue::TraceRecord::Kind;
            std::cerr << "trace: scheduled="
                      << traced[std::size_t(Kind::Schedule)].load()
                      << " dispatched="
                      << traced[std::size_t(Kind::Dispatch)].load()
                      << " cancelled="
                      << traced[std::size_t(Kind::Cancel)].load()
                      << "\n";
        }

        std::string report_path = args.get("report");
        if (!report_path.empty()) {
            auto report = buildSweepReport(evaluator, cells, "wsc_eval",
                                           std::uint64_t(threads));
            report.avail = availEntries;
            report.ensemble = ensembleEntries;
            std::ofstream out(report_path);
            if (!out)
                fatal("cannot open report path '" + report_path + "'");
            out << obs::toJson(report) << "\n";
            if (!out)
                fatal("failed writing report to '" + report_path + "'");
            std::cerr << "report: " << report_path << " ("
                      << report.cells.size() << " cells)\n";
        }
        return 0;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
