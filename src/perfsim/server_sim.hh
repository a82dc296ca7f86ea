/**
 * @file
 * Request-level discrete-event model of one server.
 *
 * A request visits three stations in series:
 *
 *   CPU (processor sharing over the cores)
 *     -> disk (FIFO; only on page-cache miss for reads)
 *     -> NIC (fair-shared link bandwidth)
 *
 * Station capacities come from the platform description and the
 * per-workload calibration (perfsim/calibration.hh). Latency is
 * arrival-to-response; sustainable throughput is determined by the
 * ThroughputFinder against the workload's QoS constraint.
 */

#ifndef WSC_PERFSIM_SERVER_SIM_HH
#define WSC_PERFSIM_SERVER_SIM_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platform/server_config.hh"
#include "sim/event_queue.hh"
#include "sim/resources.hh"
#include "stats/percentile.hh"
#include "stats/summary.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace wsc {
namespace perfsim {

/** Concrete station capacities for one (platform, workload) pair. */
struct StationConfig {
    double cpuCapacityGHz = 1.0; //!< effective aggregate capability
    unsigned cpuSlots = 1;       //!< cores (PS service slots)
    double nicMBs = 125.0;       //!< effective NIC delivery rate
    double diskReadMBs = 70.0;
    double diskWriteMBs = 47.0;
    double diskAccessMs = 4.0;
    double diskCacheHitRate = 0.0;
    /**
     * Uniform service-time stretch applied to CPU occupancy; used to
     * model two-level-memory slowdowns (memblade) without re-running
     * trace simulation inside the request model.
     */
    double serviceSlowdown = 1.0;
};

/**
 * Derive station capacities for a platform/workload pair using the
 * calibration model. @p ref is the reference CPU (srvr1).
 */
StationConfig makeStations(const platform::ServerConfig &server,
                           const platform::CpuModel &ref,
                           const workloads::WorkloadTraits &traits);

/** Result of one fixed-rate simulation run. */
struct SimResult {
    double offeredRps = 0.0;
    std::uint64_t offered = 0;    //!< requests injected in measurement
    std::uint64_t completed = 0;  //!< completions in measurement window
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double meanLatency = 0.0;
    double qosViolationFraction = 0.0; //!< at or above the QoS limit
    double cpuUtilization = 0.0;
    double diskUtilization = 0.0;
    double nicUtilization = 0.0;
    bool saturated = false; //!< run aborted: unbounded queue growth

    /** Peak requests simultaneously in the system. */
    std::size_t peakInFlight = 0;
    /** Per-station activity snapshots (cpu, disk, nic). */
    std::vector<sim::StationStats> stations;
    /** DES kernel activity for this run. */
    sim::EventQueue::Counters kernel;

    /** Station with the highest utilization; empty if none. */
    std::string bottleneck() const;

    /** QoS pass under @p qos, including stability. */
    bool passes(const workloads::QosSpec &qos) const;
};

/** Measurement window parameters; each run panics unless
 * warmupSeconds >= 0, measureSeconds > 0 and maxInFlight >= 1. */
struct SimWindow {
    double warmupSeconds = 10.0;
    double measureSeconds = 40.0;
    /** Abort threshold: in-flight requests (per server) signalling
     * saturation. */
    std::size_t maxInFlight = 2000;
    /**
     * Optional kernel trace sink installed on each run's event queue
     * (wsc_eval --trace). Must be thread-safe when simulations fan out
     * over a pool. Null — the default — leaves tracing off and the
     * kernel hot path unaffected.
     */
    sim::EventQueue::Tracer tracer;
};

/**
 * Run one open-loop (Poisson arrivals) simulation of an interactive
 * workload at @p rps on the given stations: the one-server,
 * round-robin run of the cluster engine (cluster_sim.hh).
 */
SimResult simulateInteractive(workloads::InteractiveWorkload &workload,
                              const StationConfig &stations,
                              double rps, const SimWindow &window,
                              Rng &rng);

} // namespace perfsim
} // namespace wsc

#endif // WSC_PERFSIM_SERVER_SIM_HH
