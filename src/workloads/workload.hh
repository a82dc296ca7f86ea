/**
 * @file
 * Workload abstractions for the warehouse-computing benchmark suite.
 *
 * The suite (paper Table 1) contains three interactive services
 * measured in sustainable requests-per-second under a QoS constraint
 * (websearch, webmail, ytube) and one batch workload measured in
 * execution time (mapreduce, in -wc and -wr flavors).
 *
 * A request is described by its resource demands; the server simulator
 * turns demands into latency through queueing at the platform's CPU,
 * disk, and NIC stations.
 */

#ifndef WSC_WORKLOADS_WORKLOAD_HH
#define WSC_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "util/random.hh"

namespace wsc {
namespace workloads {

/**
 * Resource demands of a single request.
 *
 * CPU work is in GHz-seconds (cycles / 1e9) of a reference
 * out-of-order core; the platform calibration converts a platform's
 * cores into an aggregate GHz-equivalent capacity.
 */
struct ServiceDemand {
    double cpuWork = 0.0;       //!< GHz-seconds
    double diskReadBytes = 0.0; //!< bytes read if the page cache misses
    double diskWriteBytes = 0.0;
    double netBytes = 0.0;      //!< response + backend traffic bytes
    /**
     * Expected number of disk read/write operations (access charges).
     * Only meaningful on meanDemand() results, where ops can be
     * fractional; per-request demands encode ops implicitly (an op
     * happens iff the corresponding byte count is positive).
     */
    double diskReadOps = 0.0;
    double diskWriteOps = 0.0;
};

/** QoS specification: a latency bound at a quantile. */
struct QosSpec {
    double quantile = 0.95;    //!< fraction of requests bounded
    double latencyLimit = 0.5; //!< seconds
};

/**
 * Per-workload calibration traits consumed by the performance model.
 *
 * cacheBeta and cpuScalingGamma encode how the workload's throughput
 * responds to last-level cache capacity and to raw CPU capability;
 * they are fitted against the paper's published relative performance
 * (Figure 2c) and documented in perfsim/calibration.hh.
 */
struct WorkloadTraits {
    /** Sensitivity of per-core perf to L2 size: (l2/8MB)^beta. */
    double cacheBeta = 0.05;
    /**
     * Software-scaling exponent: effective capability is
     * srvr1_cap * (raw/raw_srvr1)^gamma. gamma < 1 models software
     * bottlenecks that flatten hardware differences; gamma > 1 models
     * workloads that punish weak platforms super-linearly.
     */
    double cpuScalingGamma = 1.0;
    /** In-order cores deliver this fraction of an OoO core's IPC. */
    double inorderIpcFactor = 0.6;
    /** Fraction of disk reads absorbed by the page cache. */
    double diskCacheHitRate = 0.0;
    /**
     * Streaming workloads pace delivery per connection; aggregate NIC
     * delivery is capped at this many MB/s regardless of link speed
     * (0 = uncapped). Models the paper's ytube streaming QoS.
     */
    double streamPacingCapMBs = 0.0;
};

/** Kind discriminator for the two measurement styles. */
enum class WorkloadKind {
    Interactive, //!< sustainable RPS under QoS
    Batch        //!< fixed job, execution time
};

/** Base class: common identity and calibration traits. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;
    virtual WorkloadKind kind() const = 0;
    virtual WorkloadTraits traits() const = 0;
};

/** Interactive service: a stream of requests with a QoS target. */
class InteractiveWorkload : public Workload
{
  public:
    WorkloadKind kind() const override { return WorkloadKind::Interactive; }

    /** The QoS constraint from Table 1. */
    virtual QosSpec qos() const = 0;

    /** Draw the demands of the next request. */
    virtual ServiceDemand nextRequest(Rng &rng) = 0;

    /** Mean demands (for capacity estimation; exact where possible). */
    virtual ServiceDemand meanDemand() const = 0;
};

/** One task of a batch job. */
struct BatchTask {
    double cpuWork = 0.0;       //!< GHz-seconds
    double diskReadBytes = 0.0;
    double diskWriteBytes = 0.0;
    bool isReduce = false;      //!< reduce tasks wait for all maps
};

/** Batch job: a MapReduce-style task graph. */
class BatchWorkload : public Workload
{
  public:
    WorkloadKind kind() const override { return WorkloadKind::Batch; }

    /** Materialize the job's tasks (maps first, then reduces). */
    virtual std::vector<BatchTask> tasks(Rng &rng) const = 0;

    /** Worker threads Hadoop runs per core (paper: 4 per CPU). */
    virtual unsigned threadsPerCore() const { return 4; }
};

} // namespace workloads
} // namespace wsc

#endif // WSC_WORKLOADS_WORKLOAD_HH
