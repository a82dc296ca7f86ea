#include "faults/availability_sim.hh"

#include <algorithm>
#include <cmath>
#include <deque>

#include "perfsim/request_pipeline.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace wsc {
namespace faults {

namespace {

/** One server's stations plus routing state. */
struct Node : perfsim::ServerStations {
    using ServerStations::ServerStations;
    std::size_t inFlight = 0;
    bool up = true;
};

/** Client-side state of one logical request across its attempts. */
struct Req {
    double firstIssue = 0.0;
    unsigned attempts = 0;
    bool resolved = false;     //!< completed or given up
    bool retryPending = false; //!< a backoff timer will reissue it
    sim::EventId timeoutEv = 0;
    // Work drawn once at first issue; retries resend the same work
    // (no extra RNG draws, so fault timing never perturbs the stream).
    perfsim::RequestWork work;
};

/** One attempt, as its stage continuations carry it. */
struct Attempt {
    perfsim::RequestHandle h;
    unsigned attempt; //!< the request's attempt number at issue
    Node *node;       //!< the server it was routed to
};

/**
 * One availability run. Requests live in a RequestArena. Events
 * capture the sim pointer, request events add the handle, and station
 * completions run through perfsim::advanceCarried with an Attempt
 * record and the downstream work, so every capture fits
 * sim::InlineAction's inline storage.
 *
 * A slot is released once its request is resolved and no retry timer
 * is pending, the last point at which anything still reads it. A
 * superseded attempt carries its own disk and NIC work, so it keeps
 * loading its node after the release. Its answer meets a stale handle
 * or an attempt mismatch and counts as a late completion; a pending
 * timeout of a resolved request meets a stale handle and does nothing.
 */
struct AvailSim {
    workloads::InteractiveWorkload &workload;
    const perfsim::StationConfig &st;
    const AvailabilityParams &params;
    workloads::QosSpec qos;
    double timeout;
    double horizon;
    AvailabilityResult &result;
    Rng loadRng;
    /** The calendar backend dispatches the heap's (time, seq) order;
     * it is hard-wired because the client timers that outlive their
     * requests keep thousands of stale entries queued. */
    sim::EventQueue eq{sim::QueueKind::Calendar};
    std::deque<Node> nodes;
    perfsim::RequestArena<Req> arena;

    // Per-epoch QoS accounting.
    std::uint64_t epochOffered = 0, epochResolved = 0, epochBad = 0;
    std::uint64_t okRunEpochs = 0;
    bool inViolation = false;
    double okTimeSum = 0.0;
    std::uint64_t violationEpisodes = 0;

    AvailSim(workloads::InteractiveWorkload &workload,
             const perfsim::StationConfig &st,
             const AvailabilityParams &params, double horizon,
             AvailabilityResult &result)
        : workload(workload), st(st), params(params),
          qos(workload.qos()),
          timeout(qos.latencyLimit * params.timeoutFactor),
          horizon(horizon), result(result),
          loadRng(seedFor(params.seed, "avail-load"))
    {
        // Owner-tag each server's events with its (1-based) id so a
        // crash can retire them in bulk; client timers stay untagged
        // and survive the crash to drive retries.
        for (unsigned i = 0; i < params.servers; ++i)
            nodes.emplace_back(eq, st, std::to_string(i), i + 1);
    }

    /** Least-outstanding surviving server; ties keep the lowest
     * index, so routing is deterministic. */
    Node *
    pick()
    {
        Node *best = nullptr;
        for (Node &n : nodes) {
            if (!n.up)
                continue;
            if (!best || n.inFlight < best->inFlight)
                best = &n;
        }
        return best;
    }

    void
    releaseIfDone(perfsim::RequestHandle h)
    {
        Req &r = arena.get(h);
        if (r.resolved && !r.retryPending)
            arena.release(h);
    }

    void
    arrive()
    {
        double now = eq.now();
        if (now >= horizon)
            return;
        ++result.offered;
        ++epochOffered;
        perfsim::RequestHandle h = arena.acquire();
        Req &r = arena.get(h);
        r.firstIssue = now;
        r.work = perfsim::requestWork(workload.nextRequest(loadRng), st,
                                      loadRng);
        issue(h);
        releaseIfDone(h);
        scheduleArrival();
    }

    void
    scheduleArrival()
    {
        eq.scheduleAfter(loadRng.exponential(1.0 / params.offeredRps),
                         [sp = this] { sp->arrive(); });
    }

    /** Send one attempt; timeout and retry feed back into it. */
    void
    issue(perfsim::RequestHandle h)
    {
        Req &r = arena.get(h);
        ++r.attempts;
        Node *node = pick();
        if (!node) {
            // Whole cluster down: connection refused, client retries.
            ++result.timeouts;
            abandon(h);
            return;
        }
        ++node->inFlight;
        perfsim::startCarried(*this, Attempt{h, r.attempts, node}, r.work);
        r.timeoutEv = eq.scheduleAfter(
            timeout, [sp = this, h] { sp->onTimeout(h); });
    }

    /** Retry with exponential backoff, or give up. */
    void
    abandon(perfsim::RequestHandle h)
    {
        Req &r = arena.get(h);
        if (r.attempts <= params.maxRetries) {
            ++result.retries;
            double backoff = params.backoffSeconds *
                             std::pow(2.0, double(r.attempts - 1));
            r.retryPending = true;
            eq.scheduleAfter(backoff, [sp = this, h] { sp->retry(h); });
        } else {
            ++result.giveups;
            r.resolved = true;
            ++epochResolved;
            ++epochBad;
        }
    }

    /** Backoff elapsed: reissue, even if a late answer resolved the
     * request meanwhile (that attempt then finishes late). */
    void
    retry(perfsim::RequestHandle h)
    {
        arena.get(h).retryPending = false;
        issue(h);
        releaseIfDone(h);
    }

    void
    onTimeout(perfsim::RequestHandle h)
    {
        Req *r = arena.find(h);
        if (!r)
            return; // resolved and released
        r->timeoutEv = 0;
        if (r->resolved)
            return;
        ++result.timeouts;
        abandon(h);
        releaseIfDone(h);
    }

    // advanceCarried hooks.
    perfsim::ServerStations &stationsOf(const Attempt &a) { return *a.node; }

    /** Attempt @p a's answer left its server. */
    void
    answer(const Attempt &a)
    {
        --a.node->inFlight;
        Req *r = arena.find(a.h);
        if (!r || r->resolved || a.attempt != r->attempts) {
            // Client already gave up or moved to another attempt.
            ++result.lateCompletions;
            return;
        }
        r->resolved = true;
        if (r->timeoutEv) {
            eq.cancel(r->timeoutEv);
            r->timeoutEv = 0;
        }
        double latency = eq.now() - r->firstIssue;
        ++result.completions;
        ++epochResolved;
        if (latency >= qos.latencyLimit) {
            ++result.qosViolations;
            ++epochBad;
        }
        releaseIfDone(a.h);
    }

    bool
    epochPasses() const
    {
        if (epochResolved == 0)
            return epochOffered == 0; // vacuous only with no demand
        return double(epochBad) <=
               (1.0 - qos.quantile) * double(epochResolved);
    }

    void
    epochBoundary()
    {
        if (epochPasses()) {
            ++result.epochsPassed;
            ++okRunEpochs;
            inViolation = false;
        } else {
            if (!inViolation) {
                ++violationEpisodes;
                okTimeSum += double(okRunEpochs) * params.epochSeconds;
                okRunEpochs = 0;
            }
            inViolation = true;
        }
        epochOffered = epochResolved = epochBad = 0;
        if (eq.now() + params.epochSeconds <= horizon + 1e-9)
            scheduleEpoch();
    }

    void
    scheduleEpoch()
    {
        eq.scheduleAfter(params.epochSeconds,
                         [sp = this] { sp->epochBoundary(); });
    }
};

} // namespace

AvailabilityResult
simulateAvailability(workloads::InteractiveWorkload &workload,
                     const perfsim::StationConfig &st,
                     const AvailabilityParams &params)
{
    WSC_ASSERT(params.servers >= 1, "empty cluster");
    WSC_ASSERT(params.offeredRps > 0.0, "offered load must be positive");
    WSC_ASSERT(params.epochSeconds > 0.0, "epoch must be positive");

    AvailabilityResult result;
    std::uint64_t epochs = std::uint64_t(
        std::floor(params.horizonSeconds / params.epochSeconds + 1e-9));
    WSC_ASSERT(epochs >= 1, "horizon shorter than one epoch");
    double horizon = double(epochs) * params.epochSeconds;
    result.offeredRps = params.offeredRps;
    result.horizonSeconds = horizon;
    result.epochsTotal = epochs;

    AvailSim sim(workload, st, params, horizon, result);
    FaultInjector injector(sim.eq, params.injector, params.servers);
    injector.onServerDown([&sim](unsigned s, Component) {
        Node &n = sim.nodes[s];
        n.up = false;
        // Crash semantics: all held work is lost.
        n.cpu.purge();
        n.disk.purge();
        n.nic.purge();
        n.inFlight = 0;
    });
    injector.onServerUp([&sim](unsigned s) { sim.nodes[s].up = true; });
    injector.onServerThrottle([&sim, &st](unsigned s, double factor) {
        sim.nodes[s].cpu.setCapacity(st.cpuCapacityGHz * factor);
    });

    sim.scheduleArrival();
    sim.scheduleEpoch();
    injector.start();
    sim.eq.run(horizon);
    injector.finalize();

    result.availability =
        double(result.epochsPassed) / double(result.epochsTotal);
    std::uint64_t good = result.completions - result.qosViolations;
    result.goodputRps = double(good) / horizon;
    result.goodputFraction =
        result.offered ? double(good) / double(result.offered) : 0.0;
    result.meanTimeToQosViolationSeconds =
        sim.violationEpisodes ? sim.okTimeSum / double(sim.violationEpisodes)
                              : horizon;
    result.serverDownFraction = injector.stats().serverDownSeconds /
                                (horizon * double(params.servers));
    result.serverDegradedFraction =
        injector.stats().serverDegradedSeconds /
        (horizon * double(params.servers));
    result.faults = injector.stats();
    result.kernel = sim.eq.counters();
    return result;
}

} // namespace faults
} // namespace wsc
