#include "perfsim/cluster_sim.hh"

#include <algorithm>

#include "perfsim/request_pipeline.hh"
#include "perfsim/throughput.hh"
#include "stats/percentile.hh"
#include "stats/summary.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace wsc {
namespace perfsim {

std::string
to_string(DispatchPolicy p)
{
    switch (p) {
      case DispatchPolicy::RoundRobin:
        return "round-robin";
      case DispatchPolicy::Random:
        return "random";
      case DispatchPolicy::LeastOutstanding:
        return "least-outstanding";
      case DispatchPolicy::TwoChoices:
        return "two-choices";
    }
    panic("unknown dispatch policy");
}

bool
ClusterSimResult::passes(const workloads::QosSpec &qos) const
{
    if (saturated || completed == 0)
        return false;
    return qosViolationFraction <= (1.0 - qos.quantile);
}

namespace {

/**
 * Pooled per-request state: the slot carries the work and the dispatch
 * target, so continuations capture only {engine pointer, handle}.
 */
struct ClusterRequest {
    double arrival = 0.0;
    RequestWork work;
    std::uint32_t nodeIdx = 0;
    bool measured = false;
};

/** All run state the continuations need, behind one pointer. */
struct ClusterSim {
    workloads::InteractiveWorkload &workload;
    const StationConfig &st;
    const SimWindow &window;
    Rng &rng;
    unsigned servers;
    DispatchPolicy policy;
    double rps;
    double horizon;

    sim::EventQueue eq;
    std::vector<std::unique_ptr<ServerStations>> nodes;
    std::vector<std::size_t> nodeInFlight; //!< dispatch bookkeeping
    stats::PercentileTracker latencies;
    stats::Summary latencySummary;
    workloads::QosSpec qos;
    RequestArena<ClusterRequest> arena;
    SimResult result;
    std::uint64_t violations = 0;
    std::size_t inFlight = 0;
    bool aborted = false;
    unsigned rrNext = 0;

    ClusterSim(workloads::InteractiveWorkload &workload,
               const StationConfig &st, unsigned servers,
               DispatchPolicy policy, double rps,
               const SimWindow &window, Rng &rng)
        : workload(workload), st(st), window(window), rng(rng),
          servers(servers), policy(policy), rps(rps),
          horizon(window.warmupSeconds + window.measureSeconds),
          nodeInFlight(servers), qos(workload.qos())
    {
        // A lone server's stations are plain cpu/disk/nic.
        for (unsigned i = 0; i < servers; ++i)
            nodes.push_back(std::make_unique<ServerStations>(
                eq, st, servers == 1 ? "" : std::to_string(i)));
    }

    std::uint32_t
    pick()
    {
        switch (policy) {
          case DispatchPolicy::RoundRobin: {
            unsigned n = rrNext;
            rrNext = (rrNext + 1) % servers;
            return n;
          }
          case DispatchPolicy::Random:
            return std::uint32_t(rng.uniformInt(0, servers - 1));
          case DispatchPolicy::LeastOutstanding: {
            std::size_t best = 0;
            for (std::size_t i = 1; i < nodeInFlight.size(); ++i)
                if (nodeInFlight[i] < nodeInFlight[best])
                    best = i;
            return std::uint32_t(best);
          }
          case DispatchPolicy::TwoChoices: {
            auto a = std::uint32_t(rng.uniformInt(0, servers - 1));
            auto b = std::uint32_t(rng.uniformInt(0, servers - 1));
            if (nodeInFlight[b] < nodeInFlight[a])
                return b;
            // Ties (including a == b) keep the first draw.
            return a;
          }
        }
        panic("unknown dispatch policy");
    }

    // advanceStage hooks.
    ServerStations &
    stationsOf(const ClusterRequest &r)
    {
        return *nodes[r.nodeIdx];
    }

    void
    respond(RequestHandle h, const ClusterRequest &r)
    {
        --nodeInFlight[r.nodeIdx];
        --inFlight;
        double latency = eq.now() - r.arrival;
        if (r.measured) {
            latencies.add(latency);
            latencySummary.add(latency);
            ++result.completed;
            // Strict QoS: the paper requires latency < limit, so
            // exactly-at-the-limit responses are violations.
            if (latency >= qos.latencyLimit)
                ++violations;
        }
        arena.release(h);
    }
};

/** Dispatch one arrival and send it into its server's stations. */
void
clusterLaunch(ClusterSim &s, double arrival, bool measured)
{
    std::uint32_t nodeIdx = s.pick();
    ++s.nodeInFlight[nodeIdx];
    ++s.inFlight;
    s.result.peakInFlight = std::max(s.result.peakInFlight, s.inFlight);

    RequestHandle h = s.arena.acquire();
    ClusterRequest &r = s.arena.get(h);
    r.arrival = arrival;
    r.work = requestWork(s.workload.nextRequest(s.rng), s.st, s.rng);
    r.nodeIdx = nodeIdx;
    r.measured = measured;
    startStages(s, h);
}

/** Poisson arrival process. */
void
clusterArrive(ClusterSim &s)
{
    if (s.aborted)
        return;
    if (s.inFlight > s.window.maxInFlight * s.servers) {
        s.aborted = true;
        return;
    }
    double now = s.eq.now();
    if (now < s.horizon) {
        bool measured = now >= s.window.warmupSeconds;
        if (measured)
            ++s.result.offered;
        clusterLaunch(s, now, measured);
        s.eq.scheduleAfter(s.rng.exponential(1.0 / s.rps),
                           [sp = &s] { clusterArrive(*sp); });
    }
}

} // namespace

namespace detail {

SimResult
simulateOpenLoop(workloads::InteractiveWorkload &workload,
                 const StationConfig &st, unsigned servers,
                 DispatchPolicy policy, double rps,
                 const SimWindow &window, Rng &rng)
{
    WSC_ASSERT(servers >= 1, "empty cluster");
    WSC_ASSERT(rps > 0.0, "offered load must be positive");
    WSC_ASSERT(window.measureSeconds > 0.0,
               "measurement window must be positive");
    WSC_ASSERT(window.warmupSeconds >= 0.0,
               "warmup window must be non-negative");
    WSC_ASSERT(window.maxInFlight >= 1, "in-flight cap must be >= 1");

    ClusterSim s(workload, st, servers, policy, rps, window, rng);
    if (window.tracer)
        s.eq.setTracer(window.tracer);
    s.result.offeredRps = rps;

    s.eq.scheduleAfter(rng.exponential(1.0 / rps),
                       [sp = &s] { clusterArrive(*sp); });

    // Run to the horizon, then drain a grace period so in-flight
    // requests can complete (or reveal saturation).
    s.eq.run(s.horizon);
    double grace = s.horizon + std::max(30.0, 5.0 * s.qos.latencyLimit);
    while (!s.eq.empty() && s.eq.now() < grace && !s.aborted)
        s.eq.step();

    SimResult result = std::move(s.result);
    result.saturated = s.aborted || s.inFlight > 0;
    if (s.latencies.count() > 0) {
        result.p50Latency = s.latencies.quantile(0.50);
        result.p95Latency = s.latencies.quantile(0.95);
        result.p99Latency = s.latencies.quantile(0.99);
        result.meanLatency = s.latencySummary.mean();
    }
    result.qosViolationFraction =
        result.offered ? double(s.violations) / double(result.offered)
                       : 0.0;
    double cpu = 0.0, disk = 0.0, nic = 0.0;
    for (const auto &n : s.nodes) {
        const ServerStations &at = *n;
        cpu += at.cpu.utilization();
        disk += at.disk.utilization();
        nic += at.nic.utilization();
        result.stations.push_back(at.cpu.stats());
        result.stations.push_back(at.disk.stats());
        result.stations.push_back(at.nic.stats());
    }
    result.cpuUtilization = cpu / double(servers);
    result.diskUtilization = disk / double(servers);
    result.nicUtilization = nic / double(servers);
    result.kernel = s.eq.counters();
    return result;
}

} // namespace detail

ClusterSimResult
simulateCluster(workloads::InteractiveWorkload &workload,
                const StationConfig &st, unsigned servers,
                DispatchPolicy policy, double rps,
                const SimWindow &window, Rng &rng)
{
    SimResult r = detail::simulateOpenLoop(workload, st, servers, policy,
                                           rps, window, rng);
    ClusterSimResult out;
    out.offeredRps = r.offeredRps;
    out.completed = r.completed;
    out.p95Latency = r.p95Latency;
    out.qosViolationFraction = r.qosViolationFraction;
    // Folds in the stability rule SimResult::passes applies.
    out.saturated = r.saturated ||
                    (r.offered > 0 &&
                     double(r.completed) < 0.97 * double(r.offered));
    out.meanCpuUtilization = r.cpuUtilization;
    for (std::size_t i = 0; i < r.stations.size(); i += 3)
        out.maxCpuUtilization =
            std::max(out.maxCpuUtilization, r.stations[i].utilization);
    return out;
}

ClusterScalingResult
measureClusterScaling(workloads::InteractiveWorkload &workload,
                      const StationConfig &st, unsigned servers,
                      DispatchPolicy policy, const SearchParams &params,
                      Rng &rng)
{
    // Guard before the (expensive) single-server search: with the
    // config default of servers = 0 the first probe would otherwise
    // divide by zero (RoundRobin) or underflow uniformInt's bounds
    // (Random) deep inside the run.
    WSC_ASSERT(servers >= 1, "empty cluster");

    ClusterScalingResult out;
    {
        Rng sub = rng.split();
        out.singleRps =
            findSustainableRps(workload, st, params, sub)
                .sustainableRps;
    }
    WSC_ASSERT(out.singleRps > 0.0, "single server sustains nothing");

    auto qos = workload.qos();
    auto probe = [&](double rps) {
        Rng sub = rng.split();
        return simulateCluster(workload, st, servers, policy, rps,
                               params.window, sub);
    };
    double hi = out.singleRps * double(servers) * 1.1;
    double lo = 0.0;
    // Bracket downward from the ideal aggregate.
    double cursor = hi;
    for (int i = 0; i < 8 && lo == 0.0; ++i) {
        cursor *= 0.8;
        if (probe(cursor).passes(qos))
            lo = cursor;
    }
    if (lo == 0.0) {
        out.clusterRps = 0.0;
        out.scalingEfficiency = 0.0;
        return out;
    }
    for (unsigned i = 0; i < params.iterations; ++i) {
        double mid = 0.5 * (lo + hi);
        if (probe(mid).passes(qos))
            lo = mid;
        else
            hi = mid;
    }
    out.clusterRps = lo;
    out.scalingEfficiency =
        out.clusterRps / (out.singleRps * double(servers));
    return out;
}

std::vector<ClusterSweepPoint>
sweepClusterScaling(workloads::Benchmark benchmark,
                    const StationConfig &stations,
                    const std::vector<unsigned> &serverCounts,
                    const std::vector<DispatchPolicy> &policies,
                    const SearchParams &params, std::uint64_t baseSeed,
                    ThreadPool *pool)
{
    std::vector<ClusterSweepPoint> out;
    for (unsigned servers : serverCounts)
        for (auto policy : policies)
            out.push_back({servers, policy, {}});

    parallelFor(
        out.size(),
        [&](std::size_t i) {
            auto workload = workloads::makeBenchmark(benchmark);
            auto *iw = dynamic_cast<workloads::InteractiveWorkload *>(
                workload.get());
            WSC_ASSERT(iw, "cluster sweep needs an interactive "
                           "workload: "
                               << workloads::to_string(benchmark));
            // Seed from the point's identity so the sweep decomposes
            // identically for any thread count.
            Rng rng(seedFor(baseSeed, "cluster-scaling",
                            std::uint64_t(benchmark),
                            std::uint64_t(out[i].servers),
                            std::uint64_t(out[i].policy)));
            out[i].result =
                measureClusterScaling(*iw, stations, out[i].servers,
                                      out[i].policy, params, rng);
        },
        pool);
    return out;
}

} // namespace perfsim
} // namespace wsc
