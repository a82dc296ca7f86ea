/**
 * @file
 * Warehouse-scale ensemble simulation: an open-loop DES over 10k-100k
 * servers driven by a nonstationary (diurnal + flash-crowd) arrival
 * process, with per-server sleep-state machines and ensemble power
 * policies ranked by energy x QoS.
 *
 * This is the measured counterpart to the closed-form diurnal model
 * (core/diurnal.hh): the analytical policies price busy servers by the
 * hour but cannot see queueing, wake-up latency, or flash crowds — the
 * three effects that decide whether PowerOff's energy win survives its
 * QoS exposure. Here every server is a state machine (active / idle /
 * sleep / off, with wake and boot latencies from the sleep-state
 * catalog in power/sleep_states.hh), arrivals modulate hour by hour
 * over a 24-entry profile with an optional MMPP burst mode, and the
 * autoscaling + power-capping control plane runs at hour boundaries.
 *
 * The fleet is partitioned into CELLS — dispatch domains that model
 * row/cluster locality. Within a cell, dispatch is a power-of-two-
 * choices draw (spread for AlwaysOn, pack-onto-fewest for the
 * consolidating policies); congested cells spill to a random remote
 * cell over the network, paying the cross-cell latency. That latency
 * is exactly the conservative lookahead of the sharded event queue
 * (sim/sharded_queue.hh) the ensemble executes on, so the cell grid
 * doubles as the parallel decomposition: results are bit-identical at
 * any shard count because every cell owns its RNG stream (identity-
 * hashed from the config seed), its accumulators merge in cell-index
 * order, and all cross-cell interaction rides the barrier-delivered
 * message path.
 */

#ifndef WSC_PERFSIM_ENSEMBLE_SIM_HH
#define WSC_PERFSIM_ENSEMBLE_SIM_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "power/sleep_states.hh"
#include "sim/event_queue.hh"
#include "sim/fast_mode.hh"

namespace wsc {
namespace perfsim {

/** Per-server power/sleep state. */
enum class ServerState : std::uint8_t {
    Active,  //!< at least one slot serving
    Idle,    //!< awake, nothing to serve
    Sleep,   //!< suspended; must wake before serving
    Waking,  //!< suspend -> serving transition
    Off,     //!< powered off; must boot before serving
    Booting  //!< off -> serving transition
};

constexpr unsigned kServerStates = 6;

std::string to_string(ServerState s);

/** Ensemble power policy (mirrors core::PowerPolicy, which lives
 * above this layer). */
enum class EnsemblePolicy {
    /** Every server stays awake; dispatch spreads load. */
    AlwaysOn,
    /** Dispatch packs load; idle servers suspend after a governor
     * timeout and wake on demand. */
    ConsolidateIdle,
    /** ConsolidateIdle plus an hourly autoscaler that powers servers
     * off down to the forecast demand plus a reserve margin, and an
     * optional ensemble power cap. */
    PowerOff
};

std::string to_string(EnsemblePolicy p);

/** Markov-modulated flash-crowd mode: each cell independently flips
 * between calm and burst, multiplying its arrival rate. */
struct MmppConfig {
    bool enabled = false;
    double burstMultiplier = 3.0;  //!< arrival-rate factor in burst
    double calmMeanSeconds = 60.0; //!< mean dwell in calm
    double burstMeanSeconds = 5.0; //!< mean dwell in burst
};

/** All-ones hourly profile (the sustained-load assumption). */
inline std::array<double, 24>
flatHourlyProfile()
{
    std::array<double, 24> p;
    p.fill(1.0);
    return p;
}

/** Configuration of one ensemble run. */
struct EnsembleConfig {
    unsigned servers = 10000;
    /** Dispatch domains; also the parallel decomposition (lanes of
     * the sharded queue). Part of the model topology: changing it
     * changes results, unlike shards/workers. */
    unsigned cells = 16;
    /** Lane blocks: the cells each worker runs first, the unit of
     * shardEvents, and the cap on workers (execution knob). */
    unsigned shards = 1;
    /** Threads executing cells; 0 = min(shards, defaultThreads()). */
    unsigned workers = 1;
    /** Event-ordering backend of every cell's queue. An execution
     * knob like shards/workers: both backends dispatch the identical
     * (time, seq) order, so results are byte-identical either way.
     * The calendar is the default fast path; the heap stays
     * selectable as the oracle. */
    sim::QueueKind queue = sim::QueueKind::Calendar;

    unsigned hours = 24;  //!< simulated hours (indexes the profile)
    /** Duty-cycle compression: each simulated hour lasts this many
     * seconds of simulated time; energy extrapolates by 3600 / this.
     * Latency dynamics (service, wake, boot) are NOT compressed. */
    double secondsPerHour = 10.0;
    /** Hourly load in [0, 1] relative to peak (0 = dead trough). */
    std::array<double, 24> profile = flatHourlyProfile();

    /** Fleet peak utilization: peak arrival rate is this fraction of
     * the fleet's service capacity servers * slots / meanService. */
    double peakUtilization = 0.6;
    unsigned serverSlots = 2;        //!< concurrent jobs per server
    double meanServiceSeconds = 0.25; //!< exponential service mean
    double qosLatencySeconds = 1.5;  //!< latency deadline
    /** Cross-cell dispatch latency; doubles as the sharded queue's
     * conservative lookahead. */
    double networkLatencySeconds = 0.5;
    /** Queue depth at the picked server that triggers a spill to a
     * remote cell (never re-spilled). */
    unsigned spillDepth = 4;

    power::SleepStateCatalog power;
    EnsemblePolicy policy = EnsemblePolicy::PowerOff;
    double reserveMargin = 0.1;  //!< autoscaler headroom (PowerOff)
    /** Slot utilization the autoscaler sizes the awake pool for: the
     * target is forecastBusy / this, plus the reserve margin. */
    double autoscaleUtilization = 0.7;
    /** Ensemble power cap in watts; 0 disables. The autoscaler clamps
     * the awake-server target so busy power stays under the cap. */
    double powerCapWatts = 0.0;
    MmppConfig mmpp;

    /** fast-mode/2 macro-event arrival coalescing (sim/fast_mode.hh).
     * Off = the exact per-arrival engine. */
    sim::EnsembleFastConfig fast;

    std::uint64_t seed = 1;
};

/**
 * Shard-count-invariant observables of one run (plus wallSeconds,
 * which is wall-clock and excluded from identity comparisons).
 */
struct EnsembleResult {
    unsigned servers = 0;
    unsigned cells = 0;
    unsigned hours = 0;
    double secondsPerHour = 0.0;
    EnsemblePolicy policy = EnsemblePolicy::AlwaysOn;

    std::uint64_t offered = 0;    //!< jobs arrived
    std::uint64_t completed = 0;  //!< jobs finished inside the horizon
    std::uint64_t violations = 0; //!< completed past the deadline
    std::uint64_t spilled = 0;    //!< jobs forwarded cross-cell
    std::uint64_t wakes = 0;      //!< sleep -> waking transitions
    std::uint64_t boots = 0;      //!< off -> booting transitions
    std::uint64_t sleeps = 0;     //!< idle -> sleep transitions
    std::uint64_t offs = 0;       //!< autoscaler power-downs
    std::uint64_t capClamps = 0;  //!< hours the power cap bound

    double kWhPerDay = 0.0;          //!< extrapolated to real hours
    double meanActiveServers = 0.0;  //!< time-weighted
    double meanAwakeServers = 0.0;   //!< active+idle+waking+booting
    /** Time-weighted fraction of server-time per ServerState. */
    std::array<double, kServerStates> stateFractions{};

    double meanLatency = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    /** Completions past the latency histogram's last bin (4x the QoS
     * deadline); quantiles that land there clamp to that edge. */
    std::uint64_t latencyOverflow = 0;
    /** violations / completed. */
    double qosViolationFraction = 0.0;
    /** on-time completions / offered (uncompleted jobs count
     * against). */
    double qosAttainment = 0.0;
    /** kWhPerDay / qosAttainment — the energy x QoS ranking metric
     * (lower is better). */
    double score = 0.0;

    std::vector<double> hourKWh;                //!< size hours
    std::vector<double> hourViolationFraction;  //!< size hours

    std::uint64_t eventsScheduled = 0;
    std::uint64_t eventsDispatched = 0;
    std::uint64_t crossCellMessages = 0;
    std::uint64_t windows = 0;

    /** Per-shard dispatch totals and the mean per-window imbalance
     * (busiest shard's share x shards; 1.0 = balanced). Execution
     * observables — they depend on the shard count, so they are
     * excluded from identity comparisons, like wallSeconds. */
    std::vector<std::uint64_t> shardEvents;
    double meanWindowImbalance = 1.0;
    /** Where the run's wall time went (see
     * sim::ShardedEventQueue::RunStats): window compute, barrier
     * wait, mailbox drain and the control plane, plus the cells run
     * by a worker other than their shard's home one. Wall-clock
     * execution observables, excluded like wallSeconds. */
    double computeSeconds = 0.0;
    double barrierWaitSeconds = 0.0;
    double drainSeconds = 0.0;
    double controlSeconds = 0.0;
    std::uint64_t lanesStolen = 0;

    /** True when this result came from the fast-mode/2 macro-event
     * engine; reports stamp the contract version only then. */
    bool fastMode = false;

    /** Equivalence-gate sample matrices, indexed [cell * hours + hour].
     * Deliberately NOT serialized into reports (exact-path bytes stay
     * unchanged); bench_ensemble's KS gate consumes them. */
    std::vector<double> cellHourUtilization;  //!< active-server-seconds / (servers/cells * sph)
    std::vector<double> cellHourLatencyMean;  //!< mean completed-job latency, 0 if none
    std::vector<std::uint64_t> cellHourCompleted;

    double wallSeconds = 0.0;  //!< not shard-invariant; not identity
};

/** Panic on a degenerate ensemble configuration. */
void validateEnsembleConfig(const EnsembleConfig &cfg);

/** Run one ensemble simulation: the exact per-arrival engine, or the
 * fast-mode/2 macro-event engine (perfsim/ensemble_fast.cc) when
 * cfg.fast.enabled. */
EnsembleResult runEnsemble(const EnsembleConfig &cfg);

} // namespace perfsim
} // namespace wsc

#endif // WSC_PERFSIM_ENSEMBLE_SIM_HH
