/**
 * @file
 * Reference (oracle) closed-loop driver.
 *
 * This is the seed implementation of the adaptive client driver kept
 * verbatim: requests are nested heap-allocated lambda chains
 * (respond -> net_stage -> disk_stage), and the timeout path tracks
 * each request through a shared_ptr'd ReqCtl whose self-referential
 * std::function keeps it alive. It allocates several times per
 * request, which is exactly why runClosedLoop replaced it with a
 * pooled arena — but it is the simplest possible statement of the
 * driver's semantics, so it stays compiled as the correctness oracle:
 * tests and bench_closed_loop require runClosedLoop to reproduce its
 * ClosedLoopResult bit for bit (same RNG draw order, same event
 * order, same kernel counters).
 *
 * Do not "optimise" this file; its value is being the unoptimised
 * original.
 */

#include "perfsim/closed_loop.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "perfsim/calibration.hh"
#include "stats/percentile.hh"
#include "util/logging.hh"

namespace wsc {
namespace perfsim {

namespace {

/** Shared mutable state for the client population and epoch stats. */
struct OracleState {
    sim::EventQueue eq;
    std::unique_ptr<sim::PsResource> cpu;
    std::unique_ptr<sim::FifoResource> disk;
    std::unique_ptr<sim::PsResource> nic;
    workloads::InteractiveWorkload *workload = nullptr;
    const StationConfig *st = nullptr;
    Rng *rng = nullptr;
    unsigned targetClients = 0;
    unsigned liveClients = 0;
    // Epoch accounting.
    std::uint64_t epochCompleted = 0;
    std::uint64_t epochViolations = 0;
    std::uint64_t epochGiveups = 0;
    stats::PercentileTracker epochLatencies;
    double qosLimit = 0.0;
    // Degraded-mode protocol (timer disabled when timeout <= 0).
    double requestTimeout = 0.0;
    unsigned maxRetries = 0;
    double retryBackoff = 0.0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t giveups = 0;
    std::uint64_t lateCompletions = 0;
};

/** Per-request retry state (timeout-enabled path only). */
struct ReqCtl {
    bool resolved = false;
    unsigned attempts = 0;
    sim::EventId timeoutEv = 0;
    /** Re-sends the same request; cleared on resolution to break the
     * ctl -> closure -> ctl ownership cycle. */
    std::function<void()> reissue;
};

/** One client's think-request loop; stops when over the target. */
void
clientLoop(OracleState &s, double think_mean)
{
    if (s.liveClients > s.targetClients) {
        // Population shrank: this client retires.
        --s.liveClients;
        return;
    }
    double think = s.rng->exponential(think_mean);
    s.eq.scheduleAfter(think, [&s, think_mean] {
        double issued = s.eq.now();
        auto demand = s.workload->nextRequest(*s.rng);
        double cpu_work = demand.cpuWork * s.st->serviceSlowdown;
        double disk_service = 0.0;
        if (demand.diskReadBytes > 0.0 &&
            !s.rng->bernoulli(s.st->diskCacheHitRate)) {
            disk_service +=
                s.st->diskAccessMs * 1e-3 +
                demand.diskReadBytes / (s.st->diskReadMBs * 1e6);
        }
        if (demand.diskWriteBytes > 0.0) {
            disk_service +=
                s.st->diskAccessMs * 1e-3 * writeAccessFactor +
                demand.diskWriteBytes / (s.st->diskWriteMBs * 1e6);
        }
        double net_mb = demand.netBytes / 1e6;

        if (s.requestTimeout <= 0.0) {
            // Classic driver: no timer, identical event sequence to
            // the pre-fault-subsystem code.
            auto respond = [&s, issued, think_mean] {
                double latency = s.eq.now() - issued;
                ++s.epochCompleted;
                s.epochLatencies.add(latency);
                // Strict QoS boundary: latency == limit violates.
                if (latency >= s.qosLimit)
                    ++s.epochViolations;
                clientLoop(s, think_mean);
            };
            auto net_stage = [&s, net_mb, respond] {
                if (net_mb > 0.0)
                    s.nic->submit(net_mb, respond);
                else
                    respond();
            };
            auto disk_stage = [&s, disk_service, net_stage] {
                if (disk_service > 0.0)
                    s.disk->submit(disk_service, net_stage);
                else
                    net_stage();
            };
            s.cpu->submit(cpu_work, disk_stage);
            return;
        }

        // Degraded-mode protocol: abandon on timeout, resend the same
        // work (no extra RNG draws) with exponential backoff, give up
        // after maxRetries and return to thinking.
        auto ctl = std::make_shared<ReqCtl>();
        ctl->reissue = [&s, issued, think_mean, cpu_work, disk_service,
                        net_mb, ctl] {
            ++ctl->attempts;
            unsigned attempt = ctl->attempts;
            auto respond = [&s, issued, think_mean, ctl, attempt] {
                if (ctl->resolved || attempt != ctl->attempts) {
                    ++s.lateCompletions;
                    return;
                }
                ctl->resolved = true;
                ctl->reissue = nullptr;
                if (ctl->timeoutEv) {
                    s.eq.cancel(ctl->timeoutEv);
                    ctl->timeoutEv = 0;
                }
                double latency = s.eq.now() - issued;
                ++s.epochCompleted;
                s.epochLatencies.add(latency);
                if (latency >= s.qosLimit)
                    ++s.epochViolations;
                clientLoop(s, think_mean);
            };
            auto net_stage = [&s, net_mb, respond] {
                if (net_mb > 0.0)
                    s.nic->submit(net_mb, respond);
                else
                    respond();
            };
            auto disk_stage = [&s, disk_service, net_stage] {
                if (disk_service > 0.0)
                    s.disk->submit(disk_service, net_stage);
                else
                    net_stage();
            };
            s.cpu->submit(cpu_work, disk_stage);

            ctl->timeoutEv = s.eq.scheduleAfter(
                s.requestTimeout, [&s, think_mean, ctl] {
                    ctl->timeoutEv = 0;
                    if (ctl->resolved)
                        return;
                    ++s.timeouts;
                    if (ctl->attempts <= s.maxRetries) {
                        ++s.retries;
                        double backoff =
                            s.retryBackoff *
                            std::pow(2.0, double(ctl->attempts - 1));
                        s.eq.scheduleAfter(backoff, [ctl] {
                            if (ctl->reissue)
                                ctl->reissue();
                        });
                    } else {
                        ++s.giveups;
                        ++s.epochGiveups;
                        ctl->resolved = true;
                        ctl->reissue = nullptr;
                        clientLoop(s, think_mean);
                    }
                });
        };
        ctl->reissue();
    });
}

} // namespace

ClosedLoopResult
runClosedLoopOracle(workloads::InteractiveWorkload &workload,
                    const StationConfig &stations,
                    const ClosedLoopParams &params, Rng &rng)
{
    WSC_ASSERT(params.initialClients >= 1, "need at least one client");
    WSC_ASSERT(params.epochSeconds > 0.0, "epoch must be positive");
    WSC_ASSERT(params.growFactor > 1.0, "grow factor must exceed 1");
    WSC_ASSERT(params.shrinkFactor > 0.0 && params.shrinkFactor < 1.0,
               "shrink factor must be in (0, 1)");

    OracleState s;
    s.cpu = std::make_unique<sim::PsResource>(
        s.eq, "cpu", stations.cpuCapacityGHz, stations.cpuSlots);
    s.disk = std::make_unique<sim::FifoResource>(s.eq, "disk", 1);
    s.nic = std::make_unique<sim::PsResource>(s.eq, "nic",
                                              stations.nicMBs, 1);
    s.workload = &workload;
    s.st = &stations;
    s.rng = &rng;
    auto qos = workload.qos();
    s.qosLimit = qos.latencyLimit;
    s.targetClients = params.initialClients;
    s.requestTimeout = params.requestTimeoutSeconds;
    s.maxRetries = params.maxRetries;
    s.retryBackoff = params.retryBackoffSeconds;

    auto spawn_to_target = [&] {
        while (s.liveClients < s.targetClients) {
            ++s.liveClients;
            clientLoop(s, params.thinkTimeMean);
        }
    };
    spawn_to_target();

    ClosedLoopResult result;
    result.epochRps.reserve(params.epochs);
    result.epochPassed.reserve(params.epochs);
    result.epochCompleted.reserve(params.epochs);
    result.epochViolations.reserve(params.epochs);
    result.epochGiveups.reserve(params.epochs);
    result.epochP95.reserve(params.epochs);
    for (unsigned epoch = 0; epoch < params.epochs; ++epoch) {
        s.epochCompleted = 0;
        s.epochViolations = 0;
        s.epochGiveups = 0;
        s.epochLatencies.clear();
        double end = s.eq.now() + params.epochSeconds;
        s.eq.run(end);

        double rps = double(s.epochCompleted) / params.epochSeconds;
        // Give-ups count as violations among resolved requests; with
        // the timer off both terms are zero and the rule is classic.
        std::uint64_t resolved = s.epochCompleted + s.epochGiveups;
        bool passed =
            s.epochCompleted > 0 &&
            double(s.epochViolations + s.epochGiveups) <=
                (1.0 - qos.quantile) * double(resolved);
        result.epochRps.push_back(rps);
        result.epochPassed.push_back(passed);
        result.epochCompleted.push_back(s.epochCompleted);
        result.epochViolations.push_back(s.epochViolations);
        result.epochGiveups.push_back(s.epochGiveups);
        result.epochP95.push_back(s.epochLatencies.count()
                                      ? s.epochLatencies.quantile(0.95)
                                      : 0.0);

        if (passed) {
            if (rps > result.sustainedRps) {
                result.sustainedRps = rps;
                result.clientsAtBest = s.targetClients;
                result.p95AtBest = result.epochP95.back();
            }
            double grown =
                std::ceil(double(s.targetClients) * params.growFactor);
            s.targetClients = unsigned(
                std::min<double>(grown, params.maxClients));
            spawn_to_target();
        } else {
            s.targetClients = std::max(
                1u, unsigned(std::floor(double(s.targetClients) *
                                        params.shrinkFactor)));
            // Excess clients retire lazily after their next response.
        }
    }
    result.finalClients = s.targetClients;
    result.finalLiveClients = s.liveClients;
    result.timeouts = s.timeouts;
    result.retries = s.retries;
    result.giveups = s.giveups;
    result.lateCompletions = s.lateCompletions;
    result.kernel = s.eq.counters();
    return result;
}

} // namespace perfsim
} // namespace wsc
