/**
 * @file
 * The experiment registry: one run per paper table, figure, in-text
 * claim and extension study, and the targets the paper's numbers set.
 *
 * Targets follow the paper's stated precision and were fixed before
 * any measurement was compared against them: an exact number is met
 * within half a unit of its last digit, a "~" number within half its
 * stated step, a range inside the range. A target the reproduction
 * misses stays a recorded miss with its reason; it is never widened.
 * Extension studies have no paper numbers and carry no targets.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <tuple>

#include "core/experiments.hh"
#include "core/cluster.hh"
#include "core/design.hh"
#include "core/design_space.hh"
#include "core/diurnal.hh"
#include "core/evaluator.hh"
#include "core/mix.hh"
#include "core/report.hh"
#include "core/scaleout.hh"
#include "cost/facility.hh"
#include "cost/tco.hh"
#include "flashcache/io_trace.hh"
#include "flashcache/storage.hh"
#include "memblade/blade.hh"
#include "memblade/contention.hh"
#include "memblade/hybrid.hh"
#include "memblade/latency.hh"
#include "memblade/page_sharing.hh"
#include "memblade/stack_distance.hh"
#include "perfsim/closed_loop.hh"
#include "perfsim/cluster_sim.hh"
#include "perfsim/perf_eval.hh"
#include "perfsim/throughput.hh"
#include "platform/catalog.hh"
#include "power/rack_power.hh"
#include "thermal/cooling_cost.hh"
#include "thermal/enclosure.hh"
#include "util/table.hh"
#include "workloads/mapreduce.hh"
#include "workloads/suite.hh"
#include "workloads/websearch.hh"
#include "workloads/ytube.hh"

namespace wsc {
namespace core {

namespace {

using platform::SystemClass;
using workloads::Benchmark;

/** Evaluator windows of the suite-wide runs (Figures 2(c) and 5,
 * Table 3(b), Section 3.6, scale-out): 5 s warmup, 30 s measured, 8
 * search iterations. */
EvaluatorParams
suiteEvalParams()
{
    EvaluatorParams params;
    params.search.window.warmupSeconds = 5.0;
    params.search.window.measureSeconds = 30.0;
    params.search.iterations = 8;
    return params;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr auto kExtension = ExperimentKind::Extension;

const char *const kTotalsRounded =
    "the paper's published totals round the line items; the burden "
    "multiplier 1 + K1 + L1(1 + K2) = 3.6636 and the 1 W amortized "
    "switch share reproduce them to within $3";
const char *const kFig2Systems[] = {"srvr2", "desk", "mobl", "emb1",
                                    "emb2"};
const char *const kWorkloads[] = {"websearch", "webmail", "ytube",
                                  "mapred-wc", "mapred-wr"};

cost::TcoModel
defaultTco()
{
    return cost::TcoModel(cost::RackCostParams{},
                          power::RackPowerParams{},
                          cost::BurdenedPowerParams{});
}

/**
 * relativeTable() as one output block, with every cell recorded as
 * value "<prefix><metric>.<workload|HMean>.<design>" times @p unit
 * (100 for percent, 1 for X). The cells re-read the evaluator's cache.
 */
void
addRelativeTable(ExperimentOutput &out, DesignEvaluator &ev,
                 const std::vector<DesignConfig> &designs,
                 const DesignConfig &baseline, Metric metric,
                 double unit, std::string caption = "",
                 const std::string &prefix = "")
{
    out.tables.push_back(
        {std::move(caption), relativeTable(ev, designs, baseline, metric)});
    std::string m = prefix + to_string(metric) + ".";
    for (const auto &d : designs) {
        for (auto b : workloads::allBenchmarks)
            out.values[m + workloads::to_string(b) + "." + d.name] =
                unit * metricValue(ev.evaluateRelative(d, baseline, b),
                                   metric);
        out.values[m + "HMean." + d.name] =
            unit * metricValue(ev.aggregateRelative(d, baseline), metric);
    }
}

// --- Table 1 ---------------------------------------------------------

ExperimentOutput
runTable1()
{
    using namespace workloads;
    const char *const emphasis[] = {
        "unstructured data", "interactive internet services", "rich media",
        "web as a platform", "web as a platform"};
    ExperimentOutput out;
    auto &t = out.table("", {"Workload", "Emphasizes", "QoS", "Perf metric",
                             "Mean CPU (GHz-ms)", "Mean net (KB)"});
    for (auto b : allBenchmarks) {
        auto w = makeBenchmark(b);
        std::string qos = "-";
        std::string metric = "exec time";
        std::string cpu = "-", net = "-";
        if (w->kind() == WorkloadKind::Interactive) {
            auto &iw = dynamic_cast<InteractiveWorkload &>(*w);
            auto q = iw.qos();
            qos = ">" + fmtPct(q.quantile) + " < " +
                  fmtF(q.latencyLimit, 1) + "s";
            metric = "RPS w/ QoS";
            auto mean = iw.meanDemand();
            cpu = fmtF(mean.cpuWork * 1e3, 1);
            net = fmtF(mean.netBytes / 1024.0, 1);
            out.values["qos_quantile." + to_string(b)] = 100 * q.quantile;
            out.values["qos_limit_s." + to_string(b)] = q.latencyLimit;
        }
        t.addRow({to_string(b), emphasis[int(b)], qos, metric, cpu, net});
    }

    auto &jobs = out.table(
        "Batch job structure (Hadoop, 4 threads per CPU):",
        {"Job", "Map tasks", "Input/output", "CPU per map (GHz-s)"});
    MapReduce wc(MapReduceApp::WordCount);
    MapReduce wr(MapReduceApp::FileWrite);
    jobs.addRow({"mapred-wc", std::to_string(wc.mapTaskCount()),
                 fmtF(wc.params().wcCorpusGB, 0) + " GB corpus read",
                 fmtF(wc.params().wcCpuPerTask, 1)});
    jobs.addRow({"mapred-wr", std::to_string(wr.mapTaskCount()),
                 fmtF(wr.params().wrOutputGB, 0) + " GB written",
                 fmtF(wr.params().wrCpuPerTask, 1)});
    return out;
}

// --- Figure 1 --------------------------------------------------------

ExperimentOutput
runFig1a()
{
    auto model = defaultTco();
    auto s1 = platform::makeSystem(SystemClass::Srvr1);
    auto s2 = platform::makeSystem(SystemClass::Srvr2);
    auto r1 = model.evaluate(s1.hardwareCost(), s1.hardwarePower());
    auto r2 = model.evaluate(s2.hardwareCost(), s2.hardwarePower());

    ExperimentOutput out;
    auto &t = out.table("", {"Details", "Srvr1", "Srvr2"});
    // The per-component rows of the dollar and the watt halves.
    auto parts = [&t](const auto &a, const auto &b, auto cell) {
        t.addRow({"  CPU", cell(a.cpu), cell(b.cpu)});
        t.addRow({"  Memory", cell(a.memory), cell(b.memory)});
        t.addRow({"  Disk", cell(a.disk), cell(b.disk)});
        t.addRow({"  Board + mgmt", cell(a.boardMgmt), cell(b.boardMgmt)});
        t.addRow({"  Power + fans", cell(a.powerFans), cell(b.powerFans)});
    };
    t.addRow({"Per-server cost ($)", fmtDollars(r1.serverHw()),
              fmtDollars(r2.serverHw())});
    parts(r1.hw, r2.hw, fmtDollars);
    t.addRow({"Switch/rack cost", fmtDollars(2750.0), fmtDollars(2750.0)});
    t.addSeparator();
    t.addRow({"Server power (Watt)", fmtF(r1.watts.total(), 0),
              fmtF(r2.watts.total(), 0)});
    parts(r1.watts, r2.watts, [](double w) { return fmtF(w, 0); });
    t.addRow({"Switch/rack power", "40", "40"});
    t.addSeparator();
    t.addRow({"Activity factor", "0.75", "0.75"});
    t.addRow({"K1 / L1 / K2", "1.33 / 0.8 / 0.667",
              "1.33 / 0.8 / 0.667"});
    t.addRow({"3-yr power & cooling", fmtDollars(r1.powerCooling()),
              fmtDollars(r2.powerCooling())});
    t.addRow({"Total costs ($)", fmtDollars(r1.tco()), fmtDollars(r2.tco())});
    for (const auto &[name, r] :
         {std::pair{"srvr1", r1}, std::pair{"srvr2", r2}}) {
        out.values[std::string("server_hw.") + name] = r.serverHw();
        out.values[std::string("pc_3yr.") + name] = r.powerCooling();
        out.values[std::string("tco.") + name] = r.tco();
    }
    return out;
}

ExperimentOutput
runFig1b()
{
    auto model = defaultTco();
    auto s2 = platform::makeSystem(SystemClass::Srvr2);
    auto r2 = model.evaluate(s2.hardwareCost(), s2.hardwarePower());
    ExperimentOutput out;
    auto &pie = out.table("", {"Component", "Dollars", "Share"});
    for (const auto &slice : model.breakdown(r2)) {
        pie.addRow({slice.label, fmtDollars(slice.dollars),
                    fmtPct(slice.fraction)});
        out.values["share." + slice.label] = 100 * slice.fraction;
    }
    return out;
}

// --- Table 2 and Figure 2 --------------------------------------------

ExperimentOutput
runTable2()
{
    auto model = defaultTco();
    ExperimentOutput out;
    auto &t = out.table("", {"System", "Similar to", "System features", "Watt",
                             "Inf-$"});
    for (const auto &s : platform::allSystems()) {
        std::ostringstream feats;
        feats << s.cpu.sockets << "p x " << s.cpu.coresPerSocket
              << " cores, " << s.cpu.freqGHz << " GHz, "
              << (s.cpu.outOfOrder ? "OoO" : "in-order") << ", "
              << s.cpu.l1KB << "K/";
        if (s.cpu.l2KB >= 1024)
            feats << (s.cpu.l2KB / 1024) << "MB";
        else
            feats << s.cpu.l2KB << "K";
        feats << " L1/L2";
        auto r = model.evaluate(s.hardwareCost(), s.hardwarePower());
        t.addRow({s.name, s.cpu.similarTo, feats.str(),
                  fmtF(s.totalWatts(), 0),
                  fmtDollars(r.infrastructure())});
        out.values["watts." + s.name] = s.totalWatts();
        out.values["inf." + s.name] = r.infrastructure();
    }

    auto &p = out.table(
        "Platform peripherals:",
        {"System", "Memory", "Disk", "NIC"});
    for (const auto &s : platform::allSystems()) {
        p.addRow({s.name,
                  fmtF(s.memory.capacityGB, 0) + " GB " +
                      to_string(s.memory.tech),
                  to_string(s.disk.cls), fmtF(s.nic.gbps, 0) + " GbE"});
    }
    return out;
}

ExperimentOutput
runFig2ab()
{
    auto model = defaultTco();
    auto row = [](const std::string &name, const cost::ComponentCost &c,
                  double rack, double total) {
        return std::vector<std::string>{
            name,                   fmtDollars(c.cpu),
            fmtDollars(c.memory),   fmtDollars(c.disk),
            fmtDollars(c.boardMgmt), fmtDollars(c.powerFans),
            fmtDollars(rack),       fmtDollars(total)};
    };
    const std::vector<std::string> cols{"System", "CPU",       "Memory",
                                        "Disk",   "Board",     "Power+fan",
                                        "Rack",   "Total"};
    ExperimentOutput out;
    auto &inf = out.table("Figure 2(a): infrastructure-$ breakdown", cols);
    auto &pc = out.table("Figure 2(b): P&C-$ breakdown (3-yr burdened)",
                         cols);
    for (const auto &s : platform::allSystems()) {
        auto r = model.evaluate(s.hardwareCost(), s.hardwarePower());
        inf.addRow(row(s.name, r.hw, r.rackHwShare, r.infrastructure()));
        pc.addRow(row(s.name, r.pc, r.switchPcShare, r.powerCooling()));
        out.values["inf." + s.name] = r.infrastructure();
        out.values["pc." + s.name] = r.powerCooling();
    }
    return out;
}

ExperimentOutput
runFig2c()
{
    DesignEvaluator ev(suiteEvalParams());
    auto baseline = DesignConfig::baseline(SystemClass::Srvr1);
    std::vector<DesignConfig> designs;
    for (auto cls : {SystemClass::Srvr2, SystemClass::Desk,
                     SystemClass::Mobl, SystemClass::Emb1,
                     SystemClass::Emb2})
        designs.push_back(DesignConfig::baseline(cls));

    ExperimentOutput out;
    for (auto metric :
         {Metric::Perf, Metric::PerfPerInfDollar, Metric::PerfPerWatt,
          Metric::PerfPerPcDollar, Metric::PerfPerTcoDollar})
        addRelativeTable(out, ev, designs, baseline, metric, 100.0);
    out.values["Perf/TCO-$.HMean.srvr1"] =
        100.0 * ev.aggregateRelative(baseline, baseline).perfPerTcoDollar;
    return out;
}

std::vector<Target>
fig1bTargets()
{
    std::vector<Target> t;
    const std::pair<const char *, double> pie[] = {
        {"CPU HW", 20},   {"CPU P&C", 22},  {"Mem HW", 11},
        {"Mem P&C", 6},   {"Disk HW", 4},   {"Disk P&C", 2},
        {"Board HW", 8},  {"Board P&C", 9}, {"Fan HW", 8},
        {"Fans P&C", 8},  {"Rack HW", 2},   {"Rack P&C", 0}};
    for (const auto &[slice, pct] : pie)
        t.push_back(stated(std::string("share.") + slice, pct, 0,
                           std::string(slice) == "CPU P&C"
                               ? "$758 of $3,248 is 23.3%; the paper's "
                                 "pie rounds it down"
                               : ""));
    return t;
}

std::vector<Target>
table2Targets()
{
    std::vector<Target> t;
    const std::tuple<const char *, double, double> systems[] = {
        {"srvr1", 340, 3294}, {"srvr2", 215, 1689}, {"desk", 135, 849},
        {"mobl", 78, 989},    {"emb1", 52, 499},    {"emb2", 35, 379}};
    for (const auto &[name, watts, inf] : systems) {
        t.push_back(stated(std::string("watts.") + name, watts, 0));
        t.push_back(stated(std::string("inf.") + name, inf, 0));
    }
    return t;
}

std::vector<Target>
fig2cTargets()
{
    const double perf[5][5] = {{68, 36, 34, 24, 11},
                               {48, 19, 17, 11, 5},
                               {97, 92, 95, 86, 24},
                               {93, 78, 72, 51, 12},
                               {72, 70, 54, 48, 16}};
    const double hmean_tco[5] = {126, 132, 140, 192, 95};
    const std::string webmail_emb2 =
        "the QoS model leaves large-attachment requests essentially "
        "unable to meet the 0.8 s bound on a 600 MHz in-order core, "
        "collapsing sustainable throughput; this amplifies the paper's "
        "own conclusion that emb2 consistently underperforms";
    std::vector<Target> t;
    for (int w = 0; w < 5; ++w)
        for (int s = 0; s < 5; ++s) {
            std::string note;
            if (w == 1 && s == 4)
                note = webmail_emb2;
            if (w == 4 && s == 2)
                note = "the paper's mobl value is low given desk = 70% "
                       "on the same disk; the model makes mobl and desk "
                       "disk-bound and therefore nearly equal";
            t.push_back(stated(std::string("Perf.") + kWorkloads[w] +
                                   "." + kFig2Systems[s],
                               perf[w][s], 0, note));
        }
    for (int s = 0; s < 5; ++s) {
        std::string note;
        if (s == 3)
            note = "driven by the webmail cell (55% Perf/TCO-$)";
        if (s == 4)
            note = "dragged down by the webmail cell: " + webmail_emb2;
        t.push_back(stated(std::string("Perf/TCO-$.HMean.") +
                               kFig2Systems[s],
                           hmean_tco[s], 0, note));
    }
    t.push_back(descending(
        {"Perf/TCO-$.HMean.emb1", "Perf/TCO-$.HMean.mobl",
         "Perf/TCO-$.HMean.desk", "Perf/TCO-$.HMean.srvr2",
         "Perf/TCO-$.HMean.srvr1", "Perf/TCO-$.HMean.emb2"}));
    return t;
}

// --- Figure 3 and the Section 3.2 rack power -------------------------

ExperimentOutput
runFig3()
{
    using namespace thermal;
    const PackagingDesign designs[] = {PackagingDesign::Conventional1U,
                                       PackagingDesign::DualEntry,
                                       PackagingDesign::AggregatedMicroblade};
    ExperimentOutput out;
    auto &t = out.table("", {"Design", "Flow len (m)", "DeltaT (K)",
                             "W/server", "Systems/rack", "Cooling eff (W/W)",
                             "Gain vs conv"});
    for (auto d : designs) {
        auto m = makeEnclosure(d);
        t.addRow({to_string(d), fmtF(m.flowLengthM, 2),
                  fmtF(m.allowableDeltaT, 1),
                  fmtF(m.serverPowerBudgetW, 0),
                  std::to_string(m.systemsPerRack()),
                  fmtF(m.coolingEfficiency(), 0),
                  fmtF(coolingGainOverBaseline(d), 2) + "x"});
        out.values["gain." + to_string(d)] = coolingGainOverBaseline(d);
        out.values["systems_per_rack." + to_string(d)] =
            m.systemsPerRack();
        out.values["watts_per_server." + to_string(d)] =
            m.serverPowerBudgetW;
    }

    auto a = analyzeAggregation(4);
    auto &agg = out.table(
        "--- Aggregated cooling analysis (heat pipe at 3x copper + shared "
        "sink) ---",
        {"Configuration", "Max W per 25 W module"});
    agg.addRow({"Discrete copper spreader + private sink",
                fmtF(a.discreteMaxW, 1)});
    agg.addRow({"Heat pipe + aggregated sink (4 modules)",
                fmtF(a.aggregatedMaxW, 1)});
    out.values["module_max_w.heat_pipe"] = a.aggregatedMaxW;

    cost::BurdenedPowerParams base;
    auto &burden = out.table(
        "--- Burdened-cost impact of the cooling designs ---",
        {"Design", "L1 (cooling load)", "Burden multiplier"});
    for (auto d : designs) {
        auto p = applyCooling(base, d);
        burden.addRow({to_string(d), fmtF(p.l1, 3),
                       fmtF(p.burdenMultiplier(), 3)});
    }
    return out;
}

ExperimentOutput
runRackPower()
{
    ExperimentOutput out;
    auto &rp = out.table("", {"System",
                              "Rack power (kW, 40 servers + switch)"});
    for (auto cls : {SystemClass::Srvr1, SystemClass::Emb1}) {
        auto s = platform::makeSystem(cls);
        power::RackPower r(s.hardwarePower(), power::RackPowerParams{});
        rp.addRow({s.name, fmtF(r.rackWatts() / 1000.0, 2)});
        out.values["rack_kw." + s.name] = r.rackWatts() / 1000.0;
    }
    return out;
}

// --- Figure 4 --------------------------------------------------------

constexpr std::uint64_t kFig4Accesses = 2000000;
constexpr std::uint64_t kFig4Seed = 42;

/** The Figure 4(b) slowdown table of one set of random-replacement
 * replays; records "<link>@<label>.<workload>" in percent. */
void
addSlowdownTable(ExperimentOutput &out,
                 const std::vector<memblade::TraceProfile> &profs,
                 const std::vector<memblade::ReplayStats> &stats,
                 const std::string &label)
{
    using memblade::RemoteLink;
    auto &t = out.table(
        label + " local memory:",
        {"Link", "websearch", "webmail", "ytube", "mapred-wc", "mapred-wr"});
    const std::pair<RemoteLink, const char *> links[] = {
        {RemoteLink::pcieX4(), "pcie_x4"},
        {RemoteLink::cbf(), "cbf"},
        {RemoteLink::cbfWithSetup(), "cbf+setup"}};
    for (const auto &[link, key] : links) {
        std::vector<std::string> row{link.name};
        for (std::size_t i = 0; i < stats.size(); ++i) {
            double s = slowdown(stats[i], profs[i], link);
            row.push_back(fmtPct(s, 1));
            out.values[std::string(key) + "@" + label + "." +
                       profs[i].name] = 100.0 * s;
        }
        t.addRow(std::move(row));
    }
}

ExperimentOutput
runFig4b()
{
    using namespace memblade;
    // One replay per (workload, fraction) and one LRU stack-distance
    // curve per workload serve every table below; the link only
    // changes the stall math.
    std::vector<TraceProfile> profs;
    std::vector<ReplayStats> random25, random12;
    std::vector<StackDistanceCurve> curves;
    for (auto b : workloads::allBenchmarks) {
        profs.push_back(profileFor(b));
        for (auto [f, stats] : {std::pair{0.25, &random25},
                                std::pair{0.125, &random12}})
            stats->push_back(replayProfile(profs.back(), f,
                                           PolicyKind::Random,
                                           kFig4Accesses, kFig4Seed));
        curves.push_back(
            lruCurveForProfile(profs.back(), kFig4Accesses, kFig4Seed));
    }
    ExperimentOutput out;
    addSlowdownTable(out, profs, random25, "25%");
    addSlowdownTable(out, profs, random12, "12.5%");

    auto &trap = out.table(
        "--- Extension (paper Section 4): trap-handling cost on the miss "
        "path (25% local) ---",
        {"Configuration", "websearch", "ytube"});
    for (auto handling :
         {TrapHandling::None, TrapHandling::SoftwareTrap,
          TrapHandling::HardwareTlb}) {
        auto link = withTrapCost(RemoteLink::cbf(), handling);
        std::vector<std::string> row{link.name};
        for (auto b : {Benchmark::Websearch, Benchmark::Ytube}) {
            auto w = std::size_t(b);
            row.push_back(
                fmtPct(slowdown(random25[w], profs[w], link), 2));
        }
        trap.addRow(std::move(row));
    }

    // The LRU cell reads off the stack-distance curve (exactly what a
    // direct LRU replay reports); random and clock lack the inclusion
    // property and replay per-access.
    auto &pol = out.table(
        "--- LRU vs random (warm miss rates, 25% local) ---",
        {"Workload", "random", "lru", "clock"});
    auto &fine = out.table(
        "--- Fine-grained LRU local-fraction curve (25 points from one "
        "stack-distance pass) ---",
        {"Local fraction", "websearch", "webmail", "ytube", "mapred-wc",
         "mapred-wr"});
    auto framesAt = [&](std::size_t w, double f) {
        return std::size_t(std::ceil(double(profs[w].footprintPages) * f));
    };
    for (std::size_t w = 0; w < profs.size(); ++w)
        pol.addRow(
            {profs[w].name, fmtPct(random25[w].warmMissRate(), 2),
             fmtPct(curves[w].statsAt(framesAt(w, 0.25)).warmMissRate(),
                    2),
             fmtPct(replayProfile(profs[w], 0.25, PolicyKind::Clock,
                                  kFig4Accesses, kFig4Seed)
                        .warmMissRate(),
                    2)});
    for (unsigned i = 1; i <= 25; ++i) {
        double f = double(i) / 25.0;
        std::vector<std::string> row{fmtPct(f, 0)};
        for (std::size_t w = 0; w < profs.size(); ++w)
            row.push_back(fmtPct(slowdown(curves[w].statsAt(framesAt(w, f)),
                                          profs[w], RemoteLink::pcieX4()),
                                 2));
        fine.addRow(std::move(row));
    }
    return out;
}

ExperimentOutput
runFig4c()
{
    using namespace memblade;
    DesignEvaluator ev;
    auto base = DesignConfig::baseline(SystemClass::Emb1);
    ExperimentOutput out;
    auto &eff = out.table(
        "emb1, assumed 2% slowdown:",
        {"Scheme", "Perf/Inf-$", "Perf/W", "Perf/TCO-$"});
    for (auto scheme : {Provisioning::Static, Provisioning::Dynamic}) {
        auto shared = base;
        shared.name = "emb1+" + to_string(scheme);
        shared.memorySharing = scheme;
        // Uniform 2% slowdown: relative metrics are workload-
        // independent, so one batch benchmark suffices.
        auto r = ev.evaluateRelative(shared, base, Benchmark::MapredWc);
        eff.addRow({to_string(scheme), fmtPct(r.perfPerInfDollar),
                    fmtPct(r.perfPerWatt),
                    fmtPct(r.perfPerTcoDollar)});
        out.values["Perf/Inf-$." + to_string(scheme)] =
            100.0 * r.perfPerInfDollar;
        out.values["Perf/W." + to_string(scheme)] = 100.0 * r.perfPerWatt;
        out.values["Perf/TCO-$." + to_string(scheme)] =
            100.0 * r.perfPerTcoDollar;
    }
    return out;
}

std::vector<Target>
fig4bTargets()
{
    const double pcie[5] = {4.7, 0.2, 1.4, 0.7, 0.7};
    const double cbf[5] = {1.2, 0.1, 0.4, 0.2, 0.2};
    std::vector<Target> t;
    for (int w = 0; w < 5; ++w)
        t.push_back(stated(std::string("pcie_x4@25%.") + kWorkloads[w],
                           pcie[w], 1));
    for (int w = 0; w < 5; ++w)
        t.push_back(stated(
            std::string("cbf@25%.") + kWorkloads[w], cbf[w], 1,
            "the model's CBF stall scales the 4 us fetch by exactly "
            "0.5/4; the paper's column scales by ~1/4, consistent with "
            "its text quoting 0.75 us including DMA setup (the "
            "CBF+setup row)"));
    t.push_back(approx("pcie_x4@12.5%.websearch", 10, 10));
    return t;
}

// --- Table 3 ---------------------------------------------------------

ExperimentOutput
runTable3a()
{
    using namespace flashcache;
    ExperimentOutput out;
    auto &a = out.table("", {"Device", "Bandwidth", "Access time", "Capacity",
                             "Power", "Price"});
    FlashSpec flash;
    a.addRow({"Flash", fmtF(flash.bandwidthMBs, 0) + " MB/s",
              fmtF(flash.readLatencyUs, 0) + " us rd / " +
                  fmtF(flash.writeLatencyUs, 0) + " us wr / " +
                  fmtF(flash.eraseLatencyMs, 1) + " ms er",
              fmtF(flash.capacityGB, 0) + " GB",
              fmtF(flash.watts, 1) + " W", fmtDollars(flash.dollars)});
    out.values["capacity_gb.flash"] = flash.capacityGB;
    out.values["price.flash"] = flash.dollars;
    out.values["watts.flash"] = flash.watts;
    for (auto d : {laptopDisk(), laptop2Disk(), desktopDisk()}) {
        a.addRow({to_string(d.cls) + (d.remote ? " (remote)" : " (local)"),
                  fmtF(d.bandwidthMBs, 0) + " MB/s",
                  fmtF(d.avgAccessMs, 0) + " ms avg",
                  fmtF(d.capacityGB, 0) + " GB",
                  fmtF(d.watts, 0) + " W", fmtDollars(d.dollars)});
        out.values["bandwidth_mbs." + to_string(d.cls)] = d.bandwidthMBs;
        out.values["price." + to_string(d.cls)] = d.dollars;
    }

    auto &fc = out.table("--- Flash-cache behaviour per workload (1 GB "
                         "cache; 100k program/erase cycles, against the "
                         "3-year depreciation window) ---",
                         {"Workload", "Flash hit rate", "Lifetime (years)"});
    for (auto b : workloads::allBenchmarks) {
        auto res = evaluateFlashCache(b, flash, 2000000, 5.0e6, 777);
        fc.addRow({workloads::to_string(b), fmtPct(res.hitRate, 1),
                   fmtF(res.lifetimeYears, 1)});
    }
    return out;
}

ExperimentOutput
runTable3b()
{
    using flashcache::StorageOption;
    DesignEvaluator ev(suiteEvalParams());
    auto base = DesignConfig::baseline(SystemClass::Emb1);
    ExperimentOutput out;
    auto &b = out.table(
        "emb1, vs local desktop disk:",
        {"Disk type", "Perf/Inf-$", "Perf/Watt", "Perf/TCO-$", "HMean perf"});
    for (const auto &opt :
         {StorageOption::remoteLaptop(), StorageOption::remoteLaptopFlash(),
          StorageOption::remoteLaptop2Flash()}) {
        auto design = base;
        design.name = "emb1 " + opt.name;
        design.storage = opt;
        auto agg = ev.aggregateRelative(design, base);
        b.addRow({opt.name, fmtPct(agg.perfPerInfDollar),
                  fmtPct(agg.perfPerWatt), fmtPct(agg.perfPerTcoDollar),
                  fmtPct(agg.perf)});
        out.values["Perf/Inf-$." + opt.name] = 100.0 * agg.perfPerInfDollar;
        out.values["Perf/Watt." + opt.name] = 100.0 * agg.perfPerWatt;
        out.values["Perf/TCO-$." + opt.name] = 100.0 * agg.perfPerTcoDollar;
    }
    return out;
}

std::vector<Target>
table3bTargets()
{
    const std::string milder =
        "the disk-bound mapreduce jobs take the 20 MB/s remote disk at "
        "face value and the flash cache cannot help their streaming "
        "access (hit rate 35% for wc), so the mean perf penalty is "
        "larger than the paper's; the paper gives no per-workload "
        "breakdown to locate its milder penalty";
    std::vector<Target> t;
    const std::tuple<const char *, double, double, double> rows[] = {
        {"Remote Laptop", 93, 100, 96},
        {"Remote Laptop + Flash", 99, 109, 104},
        {"Remote Laptop-2 + Flash", 110, 109, 110}};
    for (const auto &[opt, inf, watt, tco] : rows) {
        t.push_back(stated(std::string("Perf/Inf-$.") + opt, inf, 0,
                           milder));
        t.push_back(stated(std::string("Perf/Watt.") + opt, watt, 0,
                           milder));
        t.push_back(stated(std::string("Perf/TCO-$.") + opt, tco, 0,
                           milder));
    }
    t.push_back(descending({"Perf/TCO-$.Remote Laptop-2 + Flash",
                            "Perf/TCO-$.Remote Laptop + Flash",
                            "Perf/TCO-$.Remote Laptop"}));
    return t;
}

// --- Figure 5 and Section 3.6 ----------------------------------------

ExperimentOutput
runFig5()
{
    DesignEvaluator ev(suiteEvalParams());
    auto srvr1 = DesignConfig::baseline(SystemClass::Srvr1);
    std::vector<DesignConfig> designs{DesignConfig::n1(),
                                      DesignConfig::n2()};
    ExperimentOutput out;
    for (auto metric : {Metric::PerfPerInfDollar, Metric::PerfPerWatt,
                        Metric::PerfPerTcoDollar})
        addRelativeTable(out, ev, designs, srvr1, metric, 1.0);

    for (auto cls : {SystemClass::Srvr2, SystemClass::Desk}) {
        auto base = DesignConfig::baseline(cls);
        addRelativeTable(out, ev, designs, base, Metric::PerfPerTcoDollar,
                         1.0,
                         "Section 3.6, against baseline " + base.name +
                             ":",
                         "vs-" + base.name + ".");
    }
    out.values["Perf/TCO-$.HMean.srvr2"] =
        ev.aggregateRelative(DesignConfig::baseline(SystemClass::Srvr2),
                             srvr1)
            .perfPerTcoDollar;
    return out;
}

std::vector<Target>
fig5Targets()
{
    auto n2_note = [](const std::string &w) -> std::string {
        return w == "ytube"
                   ? "the flash cache serves streaming video unusually "
                     "well on the NIC-bound platform"
                   : "the 20 MB/s remote disk throttles the batch jobs "
                     "(the same cause as Table 3(b))";
    };
    std::vector<Target> t{approx("Perf/TCO-$.HMean.N1", 1.5, 0.5),
                          approx("Perf/TCO-$.HMean.N2", 2.0, 1.0)};
    for (std::string w : {"ytube", "mapred-wc", "mapred-wr"}) {
        t.push_back(within("Perf/TCO-$." + w + ".N1", 2.0, 3.5));
        t.push_back(within("Perf/TCO-$." + w + ".N2", 3.5, 6.0,
                           n2_note(w)));
    }
    t.push_back(within("Perf/TCO-$.websearch.N1", 1.1, 1.7));
    // "webmail degrades (~40% N1, ~20% N2)", step 10 points.
    t.push_back(approx("Perf/TCO-$.webmail.N1", 0.6, 0.1));
    t.push_back(approx("Perf/TCO-$.webmail.N2", 0.8, 0.1));
    // Section 3.6: N2 against the srvr2 and desk baselines.
    for (std::string base : {"srvr2", "desk"}) {
        std::string pre = "vs-" + base + ".Perf/TCO-$.";
        bool desk = base == "desk";
        t.push_back(within(pre + "HMean.N2", 1.8, 2.0));
        for (std::string w : {"ytube", "mapred-wc", "mapred-wr"})
            t.push_back(within(pre + w + ".N2", desk ? 1.7 : 2.5,
                               desk ? 2.5 : 4.1, n2_note(w)));
    }
    t.push_back(descending({"Perf/TCO-$.HMean.N2", "Perf/TCO-$.HMean.N1",
                            "Perf/TCO-$.HMean.srvr2"}));
    return t;
}

ExperimentOutput
runSec36()
{
    ClusterParams cp;
    cp.realEstatePerRackYear = 3000.0; // typical colo space, 2008
    ClusterPlanner planner(cp, suiteEvalParams());

    auto srvr1 = DesignConfig::baseline(SystemClass::Srvr1);
    const unsigned baseline_servers = 400;

    auto base = planner.planSuite(srvr1, srvr1, baseline_servers);
    ExperimentOutput out;
    auto &t = out.table(
        "Baseline: 400 x srvr1 = 10 racks",
        {"Design", "Servers", "Racks", "Power (kW)", "HW $", "P&C $",
         "Real estate $", "Total $", "vs baseline"});
    auto add = [&](const std::string &name, const ClusterPlan &p) {
        t.addRow({name, fmtF(p.serversNeeded, 0),
                  std::to_string(p.racks), fmtF(p.totalPowerKW, 1),
                  fmtDollars(p.hardwareDollars),
                  fmtDollars(p.powerCoolingDollars),
                  fmtDollars(p.realEstateDollars),
                  fmtDollars(p.totalDollars()),
                  fmtPct(p.totalDollars() / base.totalDollars())});
    };
    add("srvr1 (baseline)", base);
    for (auto design : {DesignConfig::n1(), DesignConfig::n2()}) {
        auto plan = planner.planSuite(design, srvr1, baseline_servers);
        add(design.name, plan);
        out.values["power_cut." + design.name] =
            100.0 * (1.0 - plan.totalPowerKW / base.totalPowerKW);
        out.values["cost_cut." + design.name] =
            100.0 * (1.0 - plan.totalDollars() / base.totalDollars());
        out.values["rack_cut." + design.name] =
            100.0 * (1.0 - double(plan.racks) / double(base.racks));
    }
    return out;
}

// --- Sensitivity studies ---------------------------------------------

/**
 * emb1 against srvr1 on mapred-wc under one burdened-cost setting;
 * records both designs' Perf/TCO-$ at @p point.
 */
std::pair<EfficiencyMetrics, EfficiencyMetrics>
emb1VsSrvr1(ExperimentOutput &out, const EvaluatorParams &params,
            const std::string &point)
{
    DesignEvaluator ev(params);
    auto m_s1 = ev.evaluate(DesignConfig::baseline(SystemClass::Srvr1),
                            Benchmark::MapredWc);
    auto m_e1 = ev.evaluate(DesignConfig::baseline(SystemClass::Emb1),
                            Benchmark::MapredWc);
    out.values["Perf/TCO-$.srvr1@" + point] = m_s1.perfPerTcoDollar();
    out.values["Perf/TCO-$.emb1@" + point] = m_e1.perfPerTcoDollar();
    return {m_s1, m_e1};
}

ExperimentOutput
runActivity()
{
    ExperimentOutput out;
    auto &t = out.table("", {"Activity factor", "srvr1 TCO", "emb1 TCO",
                             "emb1/srvr1 Perf/TCO-$ (mapred-wc)"});
    for (double af : {0.5, 0.625, 0.75, 0.875, 1.0}) {
        EvaluatorParams params;
        params.burden.activityFactor = af;
        auto [m_s1, m_e1] = emb1VsSrvr1(out, params, fmtF(af, 3));
        auto r = relativeTo(m_e1, m_s1);
        t.addRow({fmtF(af, 3), fmtDollars(m_s1.tcoDollars),
                  fmtDollars(m_e1.tcoDollars),
                  fmtPct(r.perfPerTcoDollar)});
    }
    return out;
}

ExperimentOutput
runTariff()
{
    ExperimentOutput out;
    auto &t = out.table("", {"Tariff ($/MWh)", "srvr1 P&C share",
                             "emb1 P&C share",
                             "emb1/srvr1 Perf/TCO-$ (mapred-wc)"});
    for (double tariff : {50.0, 80.0, 100.0, 135.0, 170.0}) {
        EvaluatorParams params;
        params.burden.tariffPerMWh = tariff;
        auto [m_s1, m_e1] =
            emb1VsSrvr1(out, params, "$" + fmtF(tariff, 0));
        auto r = relativeTo(m_e1, m_s1);
        t.addRow({fmtF(tariff, 0),
                  fmtPct(m_s1.pcDollars / m_s1.tcoDollars),
                  fmtPct(m_e1.pcDollars / m_e1.tcoDollars),
                  fmtPct(r.perfPerTcoDollar)});
    }
    return out;
}

/** emb1 beats srvr1 on Perf/TCO-$ (mapred-wc) at every sweep point:
 * the paper's "qualitatively similar" across a parameter range. */
std::vector<Target>
embeddedWinsAt(const std::vector<std::string> &points)
{
    std::vector<Target> t;
    for (const auto &p : points)
        t.push_back(descending({"Perf/TCO-$.emb1@" + p,
                                "Perf/TCO-$.srvr1@" + p}));
    return t;
}

// --- Extension studies -----------------------------------------------

ExperimentOutput
runLocalmem()
{
    using namespace memblade;
    const std::uint64_t n = 1500000;
    const std::vector<double> fractions{0.0625, 0.125, 0.25, 0.5};
    ExperimentOutput out;
    for (auto kind :
         {PolicyKind::Random, PolicyKind::Lru, PolicyKind::Clock}) {
        auto &t = out.table(
            "Policy: " + to_string(kind) + " (PCIe x4 slowdowns)",
            {"Local fraction", "websearch", "webmail", "ytube", "mapred-wc",
             "mapred-wr"});
        // LRU: the whole fraction sweep falls out of one stack-
        // distance pass per workload; random/clock replay per cell.
        std::vector<std::vector<ReplayStats>> cols;
        std::vector<TraceProfile> profs;
        for (auto b : workloads::allBenchmarks) {
            profs.push_back(profileFor(b));
            std::vector<ReplayStats> col;
            if (kind == PolicyKind::Lru) {
                auto curve = lruCurveForProfile(profs.back(), n, 42);
                for (double f : fractions)
                    col.push_back(curve.statsAt(std::size_t(std::ceil(
                        double(profs.back().footprintPages) * f))));
            } else {
                for (double f : fractions)
                    col.push_back(
                        replayProfile(profs.back(), f, kind, n, 42));
            }
            cols.push_back(std::move(col));
        }
        for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
            std::vector<std::string> row{fmtPct(fractions[fi], 2)};
            for (std::size_t w = 0; w < profs.size(); ++w)
                row.push_back(fmtPct(slowdown(cols[w][fi], profs[w],
                                              RemoteLink::pcieX4()),
                                     1));
            t.addRow(std::move(row));
        }
    }
    return out;
}

ExperimentOutput
runFlashSweep()
{
    using namespace flashcache;
    const std::uint64_t accesses = 1500000;
    const std::vector<double> capacities{0.25, 0.5, 1.0, 2.0, 4.0};
    ExperimentOutput out;
    for (auto b : workloads::allBenchmarks) {
        auto &t = out.table(
            workloads::to_string(b) + ":",
            {"Flash GB", "Hit rate", "Lifetime (years)",
             "Viable for 3-yr depreciation"});
        // All capacities from one stack-distance pass over the trace.
        std::vector<FlashSpec> specs;
        for (double gb : capacities) {
            FlashSpec spec;
            spec.capacityGB = gb;
            specs.push_back(spec);
        }
        auto outs = evaluateFlashCacheSweep(b, specs, accesses, 5.0e6,
                                            99);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto &res = outs[i];
            t.addRow({fmtF(capacities[i], 2), fmtPct(res.hitRate, 1),
                      fmtF(res.lifetimeYears, 1),
                      res.lifetimeYears >= 3.0 ? "yes" : "no"});
        }
    }
    return out;
}

ExperimentOutput
runDriver()
{
    using namespace perfsim;
    PerfEvaluator ev;
    SearchParams sp;
    sp.iterations = 7;
    sp.window.warmupSeconds = 3.0;
    sp.window.measureSeconds = 15.0;
    ClosedLoopParams cp;
    cp.initialClients = 16;
    cp.epochSeconds = 12.0;
    cp.epochs = 20; // enough growth headroom for srvr1's ~700 RPS

    ExperimentOutput out;
    for (auto b :
         {Benchmark::Websearch, Benchmark::Webmail, Benchmark::Ytube}) {
        auto &t = out.table(
            workloads::to_string(b) + ":",
            {"System", "Open-loop RPS", "Closed-loop RPS", "Clients at best",
             "Agreement"});
        for (auto cls :
             {SystemClass::Srvr1, SystemClass::Desk, SystemClass::Emb1}) {
            auto server = platform::makeSystem(cls);
            auto w = workloads::makeBenchmark(b);
            auto &iw =
                dynamic_cast<workloads::InteractiveWorkload &>(*w);
            auto st = ev.stationsFor(server, iw.traits(), {});

            Rng ro(100 + int(cls));
            auto open = findSustainableRps(iw, st, sp, ro);
            Rng rc(200 + int(cls));
            auto closed = runClosedLoop(iw, st, cp, rc);

            double agreement =
                open.sustainableRps > 0.0
                    ? closed.sustainedRps / open.sustainableRps
                    : 0.0;
            t.addRow({server.name, fmtF(open.sustainableRps, 0),
                      fmtF(closed.sustainedRps, 0),
                      std::to_string(closed.clientsAtBest),
                      fmtPct(agreement)});
        }
    }
    return out;
}

ExperimentOutput
runContention()
{
    using namespace memblade;
    const std::uint64_t n = 1500000;
    auto link = RemoteLink::pcieX4();

    ExperimentOutput out;
    auto &t = out.table(
        "Servers per blade before queueing pushes the slowdown past 1.5x its "
        "uncontended value:",
        {"Workload", "Uncontended slowdown", "Max servers (1 ch)",
         "Max servers (2 ch)", "Max servers (4 ch)"});
    // Saved for the utilization table below (same replay parameters).
    ReplayStats websearch_stats;
    for (auto b : workloads::allBenchmarks) {
        auto prof = profileFor(b);
        auto st = replayProfile(prof, 0.25, PolicyKind::Random, n, 42);
        if (b == Benchmark::Websearch)
            websearch_stats = st;
        double base = contendedSlowdown(st, prof, link, 1,
                                        BladeLinkParams{});
        std::vector<std::string> row{prof.name, fmtPct(base, 2)};
        if (base <= 0.0) {
            // No steady-state remote traffic (webmail's working set
            // fits the local tier): sharing is unconstrained.
            for (int i = 0; i < 3; ++i)
                row.push_back("unbounded");
        } else {
            double budget = 1.5 * base;
            for (unsigned ch : {1u, 2u, 4u}) {
                BladeLinkParams p;
                p.channels = ch;
                row.push_back(std::to_string(maxServersPerBlade(
                    st, prof, link, budget, p, 4096)));
            }
        }
        t.addRow(std::move(row));
    }

    auto prof = profileFor(Benchmark::Websearch);
    const auto &st = websearch_stats;
    double per_server = st.warmMissRate() * prof.touchesPerSecond;
    auto &u = out.table(
        "Blade utilization vs sharers (websearch):",
        {"Servers", "Fetches/s", "Utilization", "Mean wait (us)", "Slowdown"});
    for (unsigned servers : {1u, 8u, 16u, 32u, 40u}) {
        auto c = analyzeContention(per_server * servers,
                                   BladeLinkParams{}, link);
        u.addRow({std::to_string(servers),
                  fmtF(per_server * servers, 0),
                  fmtPct(c.utilization),
                  c.stable ? fmtF(c.meanWaitSeconds * 1e6, 2) : "inf",
                  c.stable ? fmtPct(contendedSlowdown(
                                        st, prof, link, servers,
                                        BladeLinkParams{}),
                                    2)
                           : "unstable"});
    }
    return out;
}

ExperimentOutput
runContent()
{
    using namespace memblade;
    auto emb1 = platform::makeSystem(SystemClass::Emb1);

    ExperimentOutput out;
    auto &t = out.table("Baseline per-server memory: " +
                            fmtDollars(emb1.memory.dollars) + " / " +
                            fmtF(emb1.memory.watts, 0) +
                            " W; the 'neither' row is plain static sharing.",
                        {"Configuration", "Phys/logical", "Memory $ (static)",
                         "Memory W (static)", "Fetch stall"});
    struct Case {
        std::string name;
        bool sharing, compression;
    };
    for (const auto &c : {Case{"neither", false, false},
                          Case{"sharing only", true, false},
                          Case{"compression only", false, true},
                          Case{"both", true, true}}) {
        ContentParams p;
        p.enableSharing = c.sharing;
        p.enableCompression = c.compression;
        auto res = applyMemorySharingWithContent(
            emb1, BladeParams{}, Provisioning::Static, p);
        auto link = linkWith(p, RemoteLink::pcieX4());
        t.addRow({c.name, fmtPct(physicalPerLogical(p)),
                  fmtDollars(res.memoryDollars),
                  fmtF(res.memoryWatts, 2),
                  fmtF(link.stallSecondsPerMiss * 1e6, 2) + " us"});
    }

    auto &s = out.table(
        "Sensitivity to the duplicate fraction (both features on):",
        {"Dup fraction", "Phys/logical", "Memory $ (static)"});
    for (double dup : {0.05, 0.10, 0.15, 0.25, 0.40}) {
        ContentParams p;
        p.dupFraction = dup;
        auto res = applyMemorySharingWithContent(
            emb1, BladeParams{}, Provisioning::Static, p);
        s.addRow({fmtPct(dup), fmtPct(physicalPerLogical(p)),
                  fmtDollars(res.memoryDollars)});
    }
    return out;
}

ExperimentOutput
runScaleout()
{
    DesignEvaluator ev(suiteEvalParams());
    auto srvr1 = DesignConfig::baseline(SystemClass::Srvr1);
    const double baseline_nodes = 100.0;

    ExperimentOutput out;
    for (auto design : {DesignConfig::n1(), DesignConfig::n2()}) {
        auto agg = ev.aggregateRelative(design, srvr1);
        double ratio = agg.perf;
        double advantage = agg.perfPerTcoDollar;
        auto &t = out.table(
            design.name + ": per-node perf " + fmtPct(ratio) +
                " of srvr1 -> needs " + fmtF(1.0 / ratio, 1) +
                "x the nodes; nominal Perf/TCO-$ advantage " +
                fmtPct(advantage),
            {"sigma (serial fraction)", "penalized perf ratio",
             "surviving advantage"});
        for (double sigma : {0.0, 0.0005, 0.001, 0.002, 0.005, 0.01}) {
            ScaleOutParams p{sigma, 0.0};
            double pen = penalizedPerfRatio(ratio, baseline_nodes, p);
            t.addRow({fmtF(sigma, 4), fmtPct(pen),
                      fmtPct(advantage * pen / ratio)});
        }
        t.addSeparator();
        double brk = breakEvenSigma(ratio, baseline_nodes, advantage);
        t.addRow({"break-even sigma", fmtF(brk, 4), "100%"});
    }
    return out;
}

ExperimentOutput
runDiurnal()
{
    auto profile = DiurnalProfile::internetService();
    // emb1 needs ~3.7x the servers of srvr1 for equal peak capacity
    // (Figure 2c harmonic mean); size both for the same peak.
    struct Fleet {
        std::string name;
        unsigned servers;
        double watts;
    };
    auto s1 = platform::makeSystem(SystemClass::Srvr1);
    auto e1 = platform::makeSystem(SystemClass::Emb1);
    std::vector<Fleet> fleets{
        {"srvr1 x 1000", 1000, s1.totalWatts() + 1.0},
        {"emb1 x 3700", 3700, e1.totalWatts() + 1.0},
    };

    cost::BurdenedPowerParams burden;
    double burdened_per_kwh =
        burden.burdenMultiplier() * burden.tariffPerMWh / 1000.0;

    ExperimentOutput out;
    for (const auto &f : fleets) {
        EnsembleEnergyParams params;
        params.servers = f.servers;
        params.wattsPerServer = f.watts;
        auto &t = out.table(f.name + " (" + fmtF(f.watts, 0) +
                                " W/server; profile mean load " +
                                fmtPct(profile.meanLoad()) + " of peak):",
                            {"Policy", "kWh/day", "Mean active servers",
                             "Savings vs always-on", "Burdened $/day"});
        for (auto policy :
             {PowerPolicy::AlwaysOn, PowerPolicy::ConsolidateIdle,
              PowerPolicy::PowerOff}) {
            auto e = dailyEnergy(profile, policy, params);
            t.addRow({to_string(policy), fmtF(e.kWhPerDay, 0),
                      fmtF(e.meanActiveServers, 0),
                      fmtPct(e.savingsVsAlwaysOn, 1),
                      fmtDollars(e.kWhPerDay * burdened_per_kwh)});
        }
    }
    return out;
}

/** Scaling efficiency of 2/4/8-server clusters behind three dispatch
 * policies, one table per workload. */
Table
dispatchScalingTable(Benchmark benchmark,
                     const perfsim::StationConfig &st)
{
    using namespace perfsim;
    SearchParams sp;
    sp.iterations = 6;
    sp.window.warmupSeconds = 3.0;
    sp.window.measureSeconds = 15.0;
    // All nine (servers, policy) points are independent simulations;
    // the sweep fans them out over the global thread pool.
    auto points = sweepClusterScaling(
        benchmark, st, {2u, 4u, 8u},
        {DispatchPolicy::RoundRobin, DispatchPolicy::Random,
         DispatchPolicy::LeastOutstanding},
        sp, 1000);
    Table t({"Servers", "round-robin", "random", "least-outstanding"});
    for (std::size_t i = 0; i < points.size(); i += 3) {
        t.addRow({std::to_string(points[i].servers),
                  fmtPct(points[i].result.scalingEfficiency),
                  fmtPct(points[i + 1].result.scalingEfficiency),
                  fmtPct(points[i + 2].result.scalingEfficiency)});
    }
    return t;
}

ExperimentOutput
runDispatch()
{
    perfsim::PerfEvaluator ev;
    auto emb1 = platform::makeSystem(SystemClass::Emb1);
    ExperimentOutput out;
    workloads::Ytube yt;
    out.tables.push_back(
        {"ytube on emb1 (IO-bound):",
         dispatchScalingTable(Benchmark::Ytube,
                              ev.stationsFor(emb1, yt.traits(), {}))});
    workloads::Websearch ws;
    out.tables.push_back(
        {"websearch on emb1 (CPU-bound):",
         dispatchScalingTable(Benchmark::Websearch,
                              ev.stationsFor(emb1, ws.traits(), {}))});
    return out;
}

double
sustainableRps(workloads::InteractiveWorkload &w,
               const perfsim::StationConfig &st, std::uint64_t seed)
{
    Rng rng(seed);
    perfsim::SearchParams sp;
    sp.iterations = 7;
    sp.window.warmupSeconds = 3.0;
    sp.window.measureSeconds = 20.0;
    return perfsim::findSustainableRps(w, st, sp, rng).sustainableRps;
}

ExperimentOutput
runCalibration()
{
    perfsim::PerfEvaluator ev;
    auto srvr1 = platform::makeSystem(SystemClass::Srvr1);
    auto emb1 = platform::makeSystem(SystemClass::Emb1);
    cost::TcoModel tco(cost::RackCostParams{}, power::RackPowerParams{},
                       cost::BurdenedPowerParams{});
    double tco_s1 =
        tco.evaluate(srvr1.hardwareCost(), srvr1.hardwarePower()).tco();
    double tco_e1 =
        tco.evaluate(emb1.hardwareCost(), emb1.hardwarePower()).tco();

    workloads::Websearch ws;
    auto base_traits = ws.traits();
    ExperimentOutput out;

    auto &g = out.table(
        "Gamma (software-scaling exponent) sweep, websearch, emb1 vs srvr1:",
        {"gamma scale", "gamma", "emb1 perf (rel)", "emb1 Perf/TCO-$ (rel)"});
    for (double f : {0.8, 0.9, 1.0, 1.1, 1.2}) {
        auto traits = base_traits;
        traits.cpuScalingGamma *= f;
        auto st1 = ev.stationsFor(srvr1, traits, {});
        auto ste = ev.stationsFor(emb1, traits, {});
        double p1 = sustainableRps(ws, st1, 11);
        double pe = sustainableRps(ws, ste, 11);
        double perf_rel = pe / p1;
        g.addRow({fmtF(f, 1), fmtF(traits.cpuScalingGamma, 3),
                  fmtPct(perf_rel),
                  fmtPct(perf_rel * tco_s1 / tco_e1)});
    }

    auto &b = out.table(
        "Beta (cache-sensitivity) sweep, websearch:",
        {"beta", "emb1 perf (rel)", "emb1 Perf/TCO-$ (rel)"});
    for (double beta : {0.0, 0.04, 0.08, 0.12, 0.16}) {
        auto traits = base_traits;
        traits.cacheBeta = beta;
        auto st1 = ev.stationsFor(srvr1, traits, {});
        auto ste = ev.stationsFor(emb1, traits, {});
        double perf_rel =
            sustainableRps(ws, ste, 11) / sustainableRps(ws, st1, 11);
        b.addRow({fmtF(beta, 2), fmtPct(perf_rel),
                  fmtPct(perf_rel * tco_s1 / tco_e1)});
    }

    auto ste = ev.stationsFor(emb1, base_traits, {});
    std::vector<double> rps;
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        rps.push_back(sustainableRps(ws, ste, seed));
    auto [lo, hi] = std::minmax_element(rps.begin(), rps.end());
    auto &s = out.table("Seed noise (websearch on emb1, default "
                        "calibration; spread " +
                            fmtPct((*hi - *lo) / *hi, 1) + " across seeds):",
                        {"Seed", "Sustainable RPS"});
    for (std::size_t i = 0; i < rps.size(); ++i)
        s.addRow({std::to_string(i + 1), fmtF(rps[i], 1)});
    return out;
}

ExperimentOutput
runFacility()
{
    using namespace cost;
    auto derived =
        deriveBurdenedParams(FacilityParams{}, BurdenedPowerParams{});
    ExperimentOutput out;
    auto &d = out.table(
        "Inputs: $10.50/W power infrastructure, $4.20/W cooling plant, "
        "12-year life, COP 1.25, $100/MWh, activity 0.75.",
        {"Constant", "Paper", "Derived from facility"});
    d.addRow({"K1 (power-delivery capex)", "1.33", fmtF(derived.k1, 3)});
    d.addRow({"L1 (cooling load, 1/COP)", "0.80", fmtF(derived.l1, 3)});
    d.addRow({"K2 (cooling capex)", "0.667", fmtF(derived.k2, 3)});
    d.addRow({"Burden multiplier", "3.664",
              fmtF(derived.burdenMultiplier(), 3)});
    d.addRow({"Implied PUE", "-", fmtF(impliedPue(FacilityParams{}), 2)});

    auto srvr1 = platform::makeSystem(SystemClass::Srvr1);
    auto &c = out.table(
        "Plant COP sweep (srvr1 3-yr TCO):",
        {"COP", "PUE", "L1", "Burden mult", "srvr1 TCO"});
    for (double cop : {1.0, 1.25, 1.67, 2.5, 5.0}) {
        FacilityParams f;
        f.cop = cop;
        auto p = deriveBurdenedParams(f, BurdenedPowerParams{});
        TcoModel model(RackCostParams{}, power::RackPowerParams{}, p);
        auto r =
            model.evaluate(srvr1.hardwareCost(), srvr1.hardwarePower());
        c.addRow({fmtF(cop, 2), fmtF(impliedPue(f), 2), fmtF(p.l1, 2),
                  fmtF(p.burdenMultiplier(), 2), fmtDollars(r.tco())});
    }

    auto &k = out.table(
        "Power-delivery capex sweep (K1):",
        {"Capex $/W", "K1", "Burden mult"});
    for (double capex : {5.0, 10.5, 15.0, 20.0, 25.0}) {
        FacilityParams f;
        f.powerCapexPerWatt = capex;
        auto p = deriveBurdenedParams(f, BurdenedPowerParams{});
        k.addRow({fmtF(capex, 1), fmtF(p.k1, 2),
                  fmtF(p.burdenMultiplier(), 2)});
    }
    return out;
}

/** Evaluator windows of the mix and design-space screens: 4 s warmup,
 * 20 s measured, 7 search iterations. */
EvaluatorParams
screenEvalParams()
{
    EvaluatorParams params;
    params.search.window.warmupSeconds = 4.0;
    params.search.window.measureSeconds = 20.0;
    params.search.iterations = 7;
    return params;
}

ExperimentOutput
runMix()
{
    DesignEvaluator ev(screenEvalParams());
    auto baseline = DesignConfig::baseline(SystemClass::Srvr1);
    std::vector<DesignConfig> candidates{
        DesignConfig::baseline(SystemClass::Srvr2),
        DesignConfig::baseline(SystemClass::Desk),
        DesignConfig::baseline(SystemClass::Emb1), DesignConfig::n1(),
        DesignConfig::n2()};

    struct NamedMix {
        std::string name;
        WorkloadMix mix;
    };
    std::vector<NamedMix> mixes{
        {"uniform", WorkloadMix::uniform()},
        {"search-heavy", WorkloadMix::searchHeavy()},
        {"mail-heavy", WorkloadMix::mailHeavy()},
        {"media-heavy", WorkloadMix::mediaHeavy()},
        {"batch-heavy", WorkloadMix::batchHeavy()},
    };

    ExperimentOutput out;
    auto &t = out.table(
        "Workload-mix design recommendations (Perf/TCO-$ vs srvr1):",
        {"Mix", "srvr2", "desk", "emb1", "N1", "N2", "Winner"});
    for (const auto &nm : mixes) {
        std::vector<std::string> row{nm.name};
        for (const auto &d : candidates) {
            auto rel = mixRelative(ev, d, baseline, nm.mix);
            row.push_back(fmtPct(rel.perfPerTcoDollar));
        }
        auto choice = bestDesignFor(ev, candidates, baseline, nm.mix,
                                    Metric::PerfPerTcoDollar);
        row.push_back(choice.bestName);
        t.addRow(std::move(row));
    }

    auto emb1 = platform::makeSystem(SystemClass::Emb1);
    auto prof = memblade::profileFor(Benchmark::Websearch);
    auto &h = out.table(
        "--- Hybrid DRAM/flash blade (Section 3.4 follow-on) on emb1 memory "
        "economics ---",
        {"Blade organization", "Memory $", "Memory W", "websearch slowdown"});
    {
        auto plain = memblade::applyMemorySharing(
            emb1, memblade::BladeParams{},
            memblade::Provisioning::Static);
        auto st = memblade::replayProfile(
            prof, 0.25, memblade::PolicyKind::Random, 2000000, 42);
        h.addRow({"all-DRAM blade",
                  fmtDollars(plain.memoryDollars),
                  fmtF(plain.memoryWatts, 2),
                  fmtPct(memblade::slowdown(
                             st, prof, memblade::RemoteLink::pcieX4()),
                         1)});
    }
    for (double dram : {0.5, 0.25, 0.1}) {
        memblade::HybridParams hp;
        hp.dramTierFraction = dram;
        auto cost = memblade::applyHybridSharing(
            emb1, memblade::BladeParams{},
            memblade::Provisioning::Static, hp);
        auto stats = memblade::replayHybrid(
            prof, 0.25, hp, memblade::PolicyKind::Random, 2000000, 42);
        h.addRow({"hybrid, " + fmtPct(dram) + " DRAM tier",
                  fmtDollars(cost.memoryDollars),
                  fmtF(cost.memoryWatts, 2),
                  fmtPct(memblade::hybridSlowdown(stats, prof, hp),
                         1)});
    }
    return out;
}

ExperimentOutput
runDesignSpace()
{
    DesignEvaluator ev(screenEvalParams());
    auto designs = enumerateDesigns();
    auto baseline = DesignConfig::baseline(SystemClass::Srvr1);

    // Stage 1: screen on the fast batch benchmark, fanned out over
    // the global thread pool (WSC_THREADS overrides the width).
    auto sweep = evaluateSweep(ev, designs, Benchmark::MapredWc);
    const auto &perf = sweep.perf;
    const auto &tco = sweep.tco;
    auto frontier = paretoFrontier(perf, tco);

    ExperimentOutput out;
    auto &t = out.table(
        "Pareto frontier (mapred-wc capability vs per-server TCO): " +
            std::to_string(frontier.size()) + " of " +
            std::to_string(designs.size()) + " designs",
        {"Design", "TCO-$", "mapred-wc perf (rel srvr1)",
         "Suite HMean Perf/TCO-$ (rel srvr1)"});
    auto base_m = ev.evaluate(baseline, Benchmark::MapredWc);
    for (auto idx : frontier) {
        // Full-suite aggregate only for the survivors (the expensive
        // interactive searches run here).
        auto agg = ev.aggregateRelative(designs[idx], baseline);
        t.addRow({designs[idx].name, fmtDollars(tco[idx]),
                  fmtPct(perf[idx] / base_m.perf),
                  fmtPct(agg.perfPerTcoDollar)});
    }

    auto &n = out.table(
        "Where the paper's unified designs sit:",
        {"Design", "On frontier?", "Suite HMean Perf/TCO-$"});
    for (const auto &[named, alias] :
         {std::pair{"mobl/dual-entry", " (= N1)"},
          std::pair{"emb1/aggregated-microblade/mem-dynamic/laptop-flash",
                    " (= N2)"}}) {
        auto it = std::find_if(designs.begin(), designs.end(),
                               [&](const auto &d) { return d.name == named; });
        if (it == designs.end())
            continue;
        bool on = std::count(frontier.begin(), frontier.end(),
                             std::size_t(it - designs.begin())) > 0;
        auto agg = ev.aggregateRelative(*it, baseline);
        n.addRow({std::string(named) + alias, on ? "yes" : "no",
                  fmtPct(agg.perfPerTcoDollar)});
    }
    return out;
}

} // namespace

const std::vector<ExperimentInfo> &
allExperiments()
{
    static const std::vector<ExperimentInfo> registry = {
        {"table1", ExperimentKind::PaperTable,
         "Benchmark suite for the internet sector",
         "websearch/webmail/ytube (RPS w/ QoS), mapreduce (exec time)",
         runTable1,
         {stated("qos_quantile.websearch", 95, 0),
          stated("qos_limit_s.websearch", 0.5, 1),
          stated("qos_quantile.webmail", 95, 0),
          stated("qos_limit_s.webmail", 0.8, 1)}},
        {"fig1a", ExperimentKind::PaperFigure,
         "Cost model line items for srvr1/srvr2",
         "totals $5,758 / $3,249; P&C $2,464 / $1,561", runFig1a,
         {stated("server_hw.srvr1", 3225, 0),
          stated("server_hw.srvr2", 1620, 0),
          stated("pc_3yr.srvr1", 2464, 0, kTotalsRounded),
          stated("pc_3yr.srvr2", 1561, 0, kTotalsRounded),
          stated("tco.srvr1", 5758, 0, kTotalsRounded),
          stated("tco.srvr2", 3249, 0, kTotalsRounded)}},
        {"fig1b", ExperimentKind::PaperFigure, "srvr2 TCO breakdown pie",
         "CPU HW 20%, CPU P&C 22%, Mem HW 11%, ...", runFig1b,
         fig1bTargets()},
        {"table2", ExperimentKind::PaperTable,
         "The six systems considered", "340W/$3,294 down to 35W/$379",
         runTable2, table2Targets()},
        {"fig2ab", ExperimentKind::PaperFigure,
         "Inf-$ and P&C-$ breakdowns across systems",
         "stacked per-component bars", runFig2ab,
         {descending({"inf.srvr1", "inf.srvr2", "inf.mobl", "inf.desk",
                      "inf.emb1", "inf.emb2"}),
          descending({"pc.srvr1", "pc.srvr2", "pc.desk", "pc.mobl",
                      "pc.emb1", "pc.emb2"})}},
        {"fig2c", ExperimentKind::PaperFigure,
         "Perf and efficiency matrix vs srvr1",
         "Perf/TCO-$ HMean 126/132/140/192/95%", runFig2c,
         fig2cTargets()},
        {"fig3", ExperimentKind::PaperFigure,
         "Dual-entry and aggregated cooling designs",
         "~2X and ~4X gains; 40/320/~1250 systems per rack", runFig3,
         {approx("gain.dual-entry", 2, 1),
          approx("gain.aggregated-microblade", 4, 1),
          stated("systems_per_rack.conventional-1U", 40, 0),
          stated("systems_per_rack.dual-entry", 320, 0),
          approx("systems_per_rack.aggregated-microblade", 1250, 50),
          stated("watts_per_server.dual-entry", 75, 0),
          within("module_max_w.heat_pipe", 25, kInf)}},
        {"fig4b", ExperimentKind::PaperFigure, "Two-level memory slowdowns",
         "PCIe x4 at 25% local: 4.7/0.2/1.4/0.7/0.7%", runFig4b,
         fig4bTargets()},
        {"fig4c", ExperimentKind::PaperFigure,
         "Memory-sharing provisioning economics",
         "static 102/116/108%; dynamic 106/116/111%", runFig4c,
         {stated("Perf/Inf-$.static", 102, 0),
          stated("Perf/W.static", 116, 0),
          stated("Perf/TCO-$.static", 108, 0),
          stated("Perf/Inf-$.dynamic", 106, 0),
          stated("Perf/W.dynamic", 116, 0),
          stated("Perf/TCO-$.dynamic", 111, 0),
          descending({"Perf/TCO-$.dynamic", "Perf/TCO-$.static"})}},
        {"table3a", ExperimentKind::PaperTable, "Flash and disk parameters",
         "flash 1GB/$14/0.5W; laptop 20MB/s/$80; desktop 70MB/s/$120",
         runTable3a,
         {stated("capacity_gb.flash", 1, 0), stated("price.flash", 14, 0),
          stated("watts.flash", 0.5, 1),
          stated("bandwidth_mbs.laptop", 20, 0),
          stated("price.laptop", 80, 0),
          stated("bandwidth_mbs.7.2k-desktop", 70, 0),
          stated("price.7.2k-desktop", 120, 0)}},
        {"table3b", ExperimentKind::PaperTable,
         "Storage-option efficiencies on emb1",
         "laptop 93/100/96%; +flash 99/109/104%; laptop-2 110/109/110%",
         runTable3b, table3bTargets()},
        {"fig5", ExperimentKind::PaperFigure,
         "Unified designs N1/N2 vs srvr1",
         "HMean Perf/TCO-$ ~1.5X (N1) and ~2X (N2)", runFig5,
         fig5Targets()},
        {"sec36", ExperimentKind::PaperClaim,
         "Equal-performance restatement of N2",
         "~60% less power, ~55% lower cost, fewer racks", runSec36,
         // "N2 gets a 60% reduction in power, and 55% reduction in
         // overall costs, and consumes 30% less racks"
         {stated("power_cut.N2", 60, 0), stated("cost_cut.N2", 55, 0),
          stated("rack_cut.N2", 30, 0,
                 "the packaging model packs micro-blades far denser "
                 "(1248 per rack) than the paper's conservative "
                 "4-blades-per-blade, air-cooled assumption")}},
        {"rackpower", ExperimentKind::PaperClaim, "Rack power comparison",
         "srvr1 13.6 kW/rack vs emb1 ~2.7 kW/rack", runRackPower,
         {stated("rack_kw.srvr1", 13.6, 1),
          approx("rack_kw.emb1", 2.7, 0.1,
                 "2.7 kW implies 67.5 W per server, inconsistent with "
                 "the paper's own 52 W Table 2 entry, which the model "
                 "reproduces")}},
        // Sensitivity studies the paper describes.
        {"activity", ExperimentKind::PaperClaim,
         "Activity-factor sensitivity", "0.5-1.0 'qualitatively similar'",
         runActivity,
         embeddedWinsAt({"0.500", "0.625", "0.750", "0.875", "1.000"})},
        {"tariff", ExperimentKind::PaperClaim, "Electricity-tariff range",
         "$50-$170/MWh", runTariff,
         embeddedWinsAt({"$50", "$80", "$100", "$135", "$170"})},
        // Extensions (paper future work / stated caveats).
        {"localmem", kExtension,
         "Local-fraction x replacement-policy sweep", "", runLocalmem, {}},
        {"flash-sweep", kExtension, "Flash capacity and wear sweep", "",
         runFlashSweep, {}},
        {"driver", kExtension,
         "Open-loop vs adaptive closed-loop measurement", "", runDriver, {}},
        {"contention", kExtension, "Blade PCIe link contention (M/D/1)", "",
         runContention, {}},
        {"content", kExtension, "Page sharing + compression on the blade", "",
         runContent, {}},
        {"scaleout", kExtension, "USL scale-out limits", "", runScaleout, {}},
        {"diurnal", kExtension, "Time-of-day load and power policies", "",
         runDiurnal, {}},
        {"dispatch", kExtension, "Cluster dispatch scaling", "",
         runDispatch, {}},
        {"calibration", kExtension, "Calibration robustness", "",
         runCalibration, {}},
        {"facility", kExtension, "Facility-derived K1/L1/K2", "",
         runFacility, {}},
        {"mix", kExtension, "Workload-mix recommendations + hybrid blade", "",
         runMix, {}},
        {"design-space", kExtension, "216-design Pareto frontier", "",
         runDesignSpace, {}},
    };
    return registry;
}

} // namespace core
} // namespace wsc
