/**
 * @file
 * Multi-server cluster simulation with load dispatch.
 *
 * The paper's performance model "makes the simplifying assumption that
 * cluster-level performance can be approximated by the aggregation of
 * single-machine benchmarks. This needs to be validated" (Section 4).
 * This module performs that validation inside the model world: N
 * server instances behind a dispatcher, driven by a cluster-level
 * Poisson stream, measured against N times the single-server
 * sustainable rate.
 *
 * Dispatch policies:
 *  - RoundRobin: perfect rotation (what DNS RR approximates),
 *  - Random: uniform random pick (what stateless hashing gives),
 *  - LeastOutstanding: fewest in-flight requests (an L7 balancer),
 *  - TwoChoices: least-loaded of two uniform draws (power of two
 *    choices) — O(1) per arrival, within a whisker of the full scan's
 *    balance, and the only affordable variant at ensemble scale.
 */

#ifndef WSC_PERFSIM_CLUSTER_SIM_HH
#define WSC_PERFSIM_CLUSTER_SIM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfsim/server_sim.hh"
#include "perfsim/throughput.hh"
#include "util/thread_pool.hh"
#include "workloads/suite.hh"

namespace wsc {
namespace perfsim {

/** Load-dispatch policies. */
enum class DispatchPolicy {
    RoundRobin,
    Random,
    /** Exact full scan for the fewest in-flight requests: O(N) per
     * arrival. Kept as the exact-mode reference the bit-identity
     * tests pin; use TwoChoices when N is large. */
    LeastOutstanding,
    /** Least-loaded of two independent uniform draws: O(1) per
     * arrival with near-optimal imbalance (power of two choices). */
    TwoChoices
};

std::string to_string(DispatchPolicy p);

/** Result of one fixed-rate cluster simulation. */
struct ClusterSimResult {
    double offeredRps = 0.0;
    std::uint64_t completed = 0;
    double p95Latency = 0.0;
    double qosViolationFraction = 0.0;
    bool saturated = false;
    double meanCpuUtilization = 0.0;
    double maxCpuUtilization = 0.0;

    bool passes(const workloads::QosSpec &qos) const;
};

namespace detail {

/**
 * The open-loop engine: @p servers identical servers behind @p policy,
 * driven by one Poisson stream at @p rps. simulateInteractive is its
 * one-server round-robin run and simulateCluster maps its result, so
 * the aggregation check compares a cluster against the very engine
 * that measured the single server. The result's utilizations are
 * means over servers, and `stations` lists every server's cpu, disk
 * and nic in server order (suffixed with the server index when there
 * is more than one). Panics on an empty cluster, a non-positive rate
 * or a malformed window.
 */
SimResult simulateOpenLoop(workloads::InteractiveWorkload &workload,
                           const StationConfig &stations,
                           unsigned servers, DispatchPolicy policy,
                           double rps, const SimWindow &window,
                           Rng &rng);

} // namespace detail

/**
 * Simulate @p servers identical servers under @p policy at cluster
 * arrival rate @p rps.
 */
ClusterSimResult simulateCluster(
    workloads::InteractiveWorkload &workload,
    const StationConfig &stations, unsigned servers,
    DispatchPolicy policy, double rps, const SimWindow &window,
    Rng &rng);

/**
 * Highest QoS-passing cluster rate (bisection, like the single-server
 * search), and its ratio to servers x the single-server rate.
 */
struct ClusterScalingResult {
    double clusterRps = 0.0;
    double singleRps = 0.0;
    /** clusterRps / (servers * singleRps): 1.0 = perfect scaling. */
    double scalingEfficiency = 0.0;
};

ClusterScalingResult measureClusterScaling(
    workloads::InteractiveWorkload &workload,
    const StationConfig &stations, unsigned servers,
    DispatchPolicy policy, const SearchParams &params, Rng &rng);

/** One point of a scale-out sweep. */
struct ClusterSweepPoint {
    unsigned servers = 0;
    DispatchPolicy policy = DispatchPolicy::RoundRobin;
    ClusterScalingResult result;
};

/**
 * Measure cluster scaling over the cross product of @p serverCounts
 * and @p policies for @p benchmark (which must be interactive).
 *
 * Every point is an independent simulation: each gets its own
 * workload instance and an RNG seeded from (baseSeed, benchmark,
 * servers, policy), and the points fan out over @p pool (nullptr
 * selects the global pool). Results are in cross-product order
 * (serverCounts major, policies minor) and bit-identical to running
 * the points serially.
 */
std::vector<ClusterSweepPoint> sweepClusterScaling(
    workloads::Benchmark benchmark, const StationConfig &stations,
    const std::vector<unsigned> &serverCounts,
    const std::vector<DispatchPolicy> &policies,
    const SearchParams &params, std::uint64_t baseSeed,
    ThreadPool *pool = nullptr);

} // namespace perfsim
} // namespace wsc

#endif // WSC_PERFSIM_CLUSTER_SIM_HH
