#include "core/experiments.hh"

#include <algorithm>

#include "util/logging.hh"

namespace wsc {
namespace core {

std::string
to_string(ExperimentKind k)
{
    switch (k) {
      case ExperimentKind::PaperTable:
        return "paper-table";
      case ExperimentKind::PaperFigure:
        return "paper-figure";
      case ExperimentKind::PaperClaim:
        return "paper-claim";
      case ExperimentKind::Extension:
        return "extension";
    }
    panic("unknown experiment kind");
}

const std::vector<ExperimentInfo> &
allExperiments()
{
    static const std::vector<ExperimentInfo> registry = {
        {"table1", ExperimentKind::PaperTable,
         "Benchmark suite for the internet sector", "bench_table1",
         "websearch/webmail/ytube (RPS w/ QoS), mapreduce (exec time)"},
        {"fig1a", ExperimentKind::PaperFigure,
         "Cost model line items for srvr1/srvr2", "bench_fig1",
         "totals $5,758 / $3,249; P&C $2,464 / $1,561"},
        {"fig1b", ExperimentKind::PaperFigure,
         "srvr2 TCO breakdown pie", "bench_fig1",
         "CPU HW 20%, CPU P&C 22%, Mem HW 11%, ..."},
        {"table2", ExperimentKind::PaperTable,
         "The six systems considered", "bench_table2",
         "340W/$3,294 down to 35W/$379"},
        {"fig2ab", ExperimentKind::PaperFigure,
         "Inf-$ and P&C-$ breakdowns across systems", "bench_fig2",
         "stacked per-component bars"},
        {"fig2c", ExperimentKind::PaperFigure,
         "Perf and efficiency matrix vs srvr1", "bench_fig2",
         "Perf/TCO-$ HMean 126/132/140/192/95%"},
        {"fig3", ExperimentKind::PaperFigure,
         "Dual-entry and aggregated cooling designs", "bench_fig3",
         "~2X and ~4X gains; 40/320/~1250 systems per rack"},
        {"fig4b", ExperimentKind::PaperFigure,
         "Two-level memory slowdowns", "bench_fig4",
         "PCIe x4 at 25% local: 4.7/0.2/1.4/0.7/0.7%"},
        {"fig4c", ExperimentKind::PaperFigure,
         "Memory-sharing provisioning economics", "bench_fig4",
         "static 102/116/108%; dynamic 106/116/111%"},
        {"table3a", ExperimentKind::PaperTable,
         "Flash and disk parameters", "bench_table3",
         "flash 1GB/$14/0.5W; laptop 20MB/s/$80; desktop 70MB/s/$120"},
        {"table3b", ExperimentKind::PaperTable,
         "Storage-option efficiencies on emb1", "bench_table3",
         "laptop 93/100/96%; +flash 99/109/104%; laptop-2 110/109/110%"},
        {"fig5", ExperimentKind::PaperFigure,
         "Unified designs N1/N2 vs srvr1", "bench_fig5",
         "HMean Perf/TCO-$ ~1.5X (N1) and ~2X (N2)"},
        {"sec36", ExperimentKind::PaperClaim,
         "Equal-performance restatement of N2", "bench_sec36",
         "~60% less power, ~55% lower cost, fewer racks"},
        {"rackpower", ExperimentKind::PaperClaim,
         "Rack power comparison", "bench_fig3",
         "srvr1 13.6 kW/rack vs emb1 ~2.7 kW/rack"},
        // Sensitivity studies the paper describes.
        {"activity", ExperimentKind::PaperClaim,
         "Activity-factor sensitivity", "bench_ablation_activity",
         "0.5-1.0 'qualitatively similar'"},
        {"tariff", ExperimentKind::PaperClaim,
         "Electricity-tariff range", "bench_ablation_tariff",
         "$50-$170/MWh"},
        // Extensions (paper future work / stated caveats).
        {"localmem", ExperimentKind::Extension,
         "Local-fraction x replacement-policy sweep",
         "bench_ablation_localmem", ""},
        {"flash-sweep", ExperimentKind::Extension,
         "Flash capacity and wear sweep", "bench_ablation_flash", ""},
        {"driver", ExperimentKind::Extension,
         "Open-loop vs adaptive closed-loop measurement",
         "bench_ablation_driver", ""},
        {"contention", ExperimentKind::Extension,
         "Blade PCIe link contention (M/D/1)",
         "bench_ablation_contention", ""},
        {"content", ExperimentKind::Extension,
         "Page sharing + compression on the blade",
         "bench_ablation_content", ""},
        {"scaleout", ExperimentKind::Extension,
         "USL scale-out limits", "bench_ablation_scaleout", ""},
        {"diurnal", ExperimentKind::Extension,
         "Time-of-day load and power policies",
         "bench_ablation_diurnal", ""},
        {"dispatch", ExperimentKind::Extension,
         "Cluster dispatch scaling", "bench_ablation_dispatch", ""},
        {"calibration", ExperimentKind::Extension,
         "Calibration robustness", "bench_ablation_calibration", ""},
        {"facility", ExperimentKind::Extension,
         "Facility-derived K1/L1/K2", "bench_ablation_facility", ""},
        {"mix", ExperimentKind::Extension,
         "Workload-mix recommendations + hybrid blade", "bench_mix",
         ""},
        {"design-space", ExperimentKind::Extension,
         "216-design Pareto frontier", "bench_design_space", ""},
        {"kernel", ExperimentKind::Extension,
         "Simulation-kernel microbenchmarks", "bench_kernel", ""},
    };
    return registry;
}

const ExperimentInfo *
findExperiment(const std::string &id)
{
    for (const auto &e : allExperiments())
        if (e.id == id)
            return &e;
    return nullptr;
}

std::vector<std::string>
registeredBenchTargets()
{
    std::vector<std::string> out;
    for (const auto &e : allExperiments())
        out.push_back(e.benchTarget);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace core
} // namespace wsc
