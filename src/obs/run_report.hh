/**
 * @file
 * Structured run reports for design-space sweeps.
 *
 * One CellReport per (design x workload) cell captures what the paper's
 * methodology needs to audit a sweep: the sustainable-RPS operating
 * point, QoS latency percentiles, the bottleneck station, per-station
 * utilization/depth, and the DES kernel's own activity counters. A
 * SweepReport aggregates cells plus a rollup (totals and a bottleneck
 * histogram) and serializes to JSON.
 *
 * Everything except wall-clock timings derives from simulation state,
 * which is seed-deterministic; serializing with includeTimings=false
 * therefore yields byte-identical JSON across thread counts, and the
 * determinism test compares exactly that.
 */

#ifndef WSC_OBS_RUN_REPORT_HH
#define WSC_OBS_RUN_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace wsc {
namespace obs {

/** Mirror of sim::StationStats, decoupled so obs stays sim-free. */
struct StationReport {
    std::string name;
    double utilization = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t peakDepth = 0;
    double meanDepth = 0.0;
};

/** DES kernel activity for one cell (summed over its simulations). */
struct KernelReport {
    std::uint64_t scheduled = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t compactions = 0;
    std::uint64_t peakHeap = 0;
};

/** Request latency distribution at the sustainable operating point. */
struct LatencyReport {
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** One (design x workload) evaluation. */
struct CellReport {
    std::string design;
    std::string benchmark;
    bool interactive = false;

    /** Paper metric: normalized performance for this cell. */
    double perf = 0.0;
    /** Interactive cells: highest load meeting QoS. 0 for batch. */
    double sustainableRps = 0.0;
    /** Batch cells: makespan of the fixed job. 0 for interactive. */
    double makespanSeconds = 0.0;

    LatencyReport latency; //!< seconds, at the sustainable point
    double qosViolationFraction = 0.0;
    double qosLatencyLimit = 0.0; //!< seconds; 0 when no QoS applies

    /** Station with the highest utilization at the operating point. */
    std::string bottleneck;
    std::vector<StationReport> stations;
    KernelReport kernel;

    /** Simulation probes the throughput search ran for this cell. */
    std::uint64_t searchProbes = 0;
    /** Wall-clock spent evaluating the cell (timing; excludable). */
    double wallSeconds = 0.0;
};

/** Per-component fault activity for one availability run. */
struct FaultClassReport {
    std::string component;
    std::uint64_t failures = 0;
    std::uint64_t repairs = 0;
};

/**
 * One design's availability evaluation under fault injection: the
 * `avail.*` QoS-sustainment metrics, the degraded-mode protocol
 * activity, and the `faults.*` injector accounting.
 */
struct AvailReport {
    std::string design;
    std::string benchmark;
    std::string spec;       //!< canonical fault-spec text
    double mttfScale = 1.0;
    std::uint64_t servers = 0;
    double offeredRps = 0.0;
    double horizonSeconds = 0.0;

    // avail.*
    double availability = 0.0;
    std::uint64_t epochsTotal = 0;
    std::uint64_t epochsPassed = 0;
    double goodputRps = 0.0;
    double goodputFraction = 0.0;
    double meanTimeToQosViolationSeconds = 0.0;

    // Degraded-mode client protocol.
    std::uint64_t offered = 0;
    std::uint64_t completions = 0;
    std::uint64_t qosViolations = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t giveups = 0;
    std::uint64_t lateCompletions = 0;

    // faults.*
    std::vector<FaultClassReport> faults;
    std::uint64_t serverCrashes = 0;
    std::uint64_t thermalThrottles = 0;
    std::uint64_t thermalShutdowns = 0;
    double serverDownFraction = 0.0;
    double serverDegradedFraction = 0.0;
    double blastRadiusMean = 0.0;
    std::uint64_t blastRadiusMax = 0;

    KernelReport kernel;
};

/**
 * One ensemble-policy run of the warehouse-scale DES: fleet/QoS/energy
 * observables plus the kernel's activity counters. Every field except
 * wallSeconds is shard-count-invariant, so serializing with
 * includeTimings=false yields byte-identical JSON at any shard count —
 * the ensemble determinism test compares exactly that. Execution knobs
 * (shards, workers) are deliberately absent from the schema.
 */
struct EnsembleReport {
    std::string policy;
    /** Platform design the service demand was scaled by; empty (and
     * the JSON field omitted) for plain ensemble runs. */
    std::string design;
    std::uint64_t servers = 0;
    std::uint64_t cells = 0;
    std::uint64_t hours = 0;
    double secondsPerHour = 0.0;

    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t violations = 0;
    std::uint64_t spilled = 0;
    std::uint64_t wakes = 0;
    std::uint64_t boots = 0;
    std::uint64_t sleeps = 0;
    std::uint64_t offs = 0;
    std::uint64_t capClamps = 0;

    double kWhPerDay = 0.0;
    /** Analytical prediction from the closed-form diurnal model, for
     * the measured-vs-analytical comparison; 0 when not computed. */
    double analyticalKWhPerDay = 0.0;
    double meanActiveServers = 0.0;
    double meanAwakeServers = 0.0;
    double activeFraction = 0.0;
    double idleFraction = 0.0;
    double sleepFraction = 0.0;
    double wakingFraction = 0.0;
    double offFraction = 0.0;
    double bootingFraction = 0.0;

    LatencyReport latency;
    /** Completions past the latency histogram (quantiles clamp to its
     * edge); written as latency.overflow only when nonzero. */
    std::uint64_t latencyOverflow = 0;
    double qosViolationFraction = 0.0;
    double qosAttainment = 0.0;
    double score = 0.0; //!< kWh / attainment, lower is better

    std::vector<double> hourKWh;
    std::vector<double> hourViolationFraction;

    std::uint64_t eventsScheduled = 0;
    std::uint64_t eventsDispatched = 0;
    std::uint64_t crossCellMessages = 0;
    std::uint64_t windows = 0;

    /** Fast-mode contract version ("fast-mode/2") when the run used
     * the macro-event engine; empty (and the JSON key omitted, so
     * exact reports keep their byte layout) otherwise. */
    std::string fastMode;

    double wallSeconds = 0.0; //!< timing; excludable
    /** Shard balance: per-shard dispatch totals and the mean
     * per-window imbalance. Execution observables (they depend on
     * the shard count), so written with the timings only. */
    std::vector<std::uint64_t> shardEvents;
    double windowImbalance = 1.0;
};

/** Sweep-level aggregate, derived from the cells. */
struct SweepRollup {
    std::uint64_t cells = 0;
    std::uint64_t eventsDispatched = 0;
    std::uint64_t searchProbes = 0;
    /** How often each station limited a design, name-sorted. */
    struct BottleneckCount {
        std::string station;
        std::uint64_t cells = 0;
    };
    std::vector<BottleneckCount> bottlenecks;
};

/** A full sweep: tool metadata, per-cell results, metrics, rollup. */
struct SweepReport {
    std::string tool;
    std::uint64_t baseSeed = 0;
    std::uint64_t threads = 0;
    std::vector<CellReport> cells;
    /** Availability evaluations (empty without --faults; the "avail"
     * JSON section is omitted when empty so zero-fault reports are
     * byte-identical to pre-fault-subsystem output). */
    std::vector<AvailReport> avail;
    /** Ensemble-policy runs (empty without --ensemble; the "ensemble"
     * JSON section is omitted when empty so non-ensemble reports are
     * byte-identical to pre-ensemble output). */
    std::vector<EnsembleReport> ensemble;

    /** Registry snapshots (e.g. cache hit counts, eval totals). */
    std::vector<MetricRegistry::CounterSnap> counters;
    std::vector<MetricRegistry::GaugeSnap> gauges;
    /** Wall-clock timers (timing; excludable). */
    std::vector<MetricRegistry::TimerSnap> timers;

    /** Compute the rollup from the current cells. */
    SweepRollup rollup() const;

    /** Copy all three snapshot kinds out of @p registry. */
    void captureMetrics(const MetricRegistry &registry);
};

struct ReportOptions {
    /**
     * Include wall-clock fields (cell wallSeconds, sweep timers).
     * Disable to compare reports across runs: the remaining content is
     * seed-deterministic.
     */
    bool includeTimings = true;
};

/** Serialize a sweep report (stable field order, %.17g doubles). */
std::string toJson(const SweepReport &report,
                   const ReportOptions &opts = {});

/** Serialize one cell (embedded by the sweep writer; also testable). */
std::string toJson(const CellReport &cell,
                   const ReportOptions &opts = {});

/** Serialize one availability entry (embedded by the sweep writer). */
std::string toJson(const AvailReport &avail,
                   const ReportOptions &opts = {});

/** Serialize one ensemble entry (embedded by the sweep writer). */
std::string toJson(const EnsembleReport &ensemble,
                   const ReportOptions &opts = {});

} // namespace obs
} // namespace wsc

#endif // WSC_OBS_RUN_REPORT_HH
