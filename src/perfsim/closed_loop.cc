/**
 * @file
 * Pooled closed-loop driver.
 *
 * The request state machine lives in a RequestArena instead of the
 * oracle's nested heap-allocated lambda chains: each in-flight request
 * owns one free-listed slot, resource completions are InlineActions
 * capturing a {driver pointer, handle} pair (plus, on the timeout
 * path, the attempt number and demand values needed to keep routing a
 * superseded attempt's stages exactly as the oracle does), and every
 * stage completes into one of the shared dispatchers in
 * request_pipeline.hh: advanceStage on the classic path,
 * advanceCarried on the timeout path. Late completions of abandoned
 * requests are detected by the handle's failed generation check — the
 * pooled equivalent of the oracle's kept-alive ReqCtl.
 *
 * The contract, enforced by tests and bench_closed_loop, is
 * bit-identity with runClosedLoopOracle (closed_loop_oracle.cc): the
 * same RNG draw order, the same schedule/cancel sequence, and
 * therefore byte-identical ClosedLoopResults — while the steady-state
 * hot path performs zero per-request heap allocations (every capture
 * fits InlineAction's inline storage; see test_alloc_free.cc).
 */

#include "perfsim/closed_loop.hh"

#include <algorithm>
#include <cmath>

#include "perfsim/request_pipeline.hh"
#include "stats/percentile.hh"
#include "util/logging.hh"

namespace wsc {
namespace perfsim {

namespace {

/**
 * Pooled per-request state. Demand fields are immutable after issue;
 * attempts/timeoutEv mutate only on the timeout path. 48 bytes, so an
 * epoch's worth of in-flight requests stays cache-resident.
 */
struct Request {
    double issued = 0.0;      //!< first issue time (latency baseline)
    RequestWork work;
    unsigned attempts = 0;    //!< current attempt number (timed path)
    sim::EventId timeoutEv = 0;
};

/** One timed-path attempt, as its stage continuations carry it. */
struct TimedAttempt {
    RequestHandle h;
    unsigned attempt; //!< the request's attempt number at issue
    double issued;    //!< the request's first issue time
};

/** Shared mutable state for the client population and epoch stats. */
struct DriverState {
    sim::EventQueue eq;
    ServerStations server;
    workloads::InteractiveWorkload *workload = nullptr;
    const StationConfig *st = nullptr;
    Rng *rng = nullptr;
    double thinkMean = 1.0;
    unsigned targetClients = 0;
    unsigned liveClients = 0;
    RequestArena<Request> arena;
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

    explicit DriverState(const StationConfig &st) : server(eq, st) {}

    /** Account one answered request. */
    void
    record(double latency)
    {
        ++epochCompleted;
        epochLatencies.add(latency);
        // Strict QoS boundary: latency == limit violates.
        if (latency >= qosLimit)
            ++epochViolations;
    }

    // advanceStage hooks (classic path).
    ServerStations &stationsOf(const Request &) { return server; }
    void respond(RequestHandle h, const Request &r);
    // advanceCarried hooks (timed path).
    ServerStations &stationsOf(const TimedAttempt &) { return server; }
    void answer(const TimedAttempt &a);
};

void clientLoop(DriverState &s);
void beginRequest(DriverState &s);
void issueAttempt(DriverState &s, RequestHandle h);
void onTimeout(DriverState &s, RequestHandle h);

/**
 * One client's think-request loop; stops when over the target.
 *
 * The retire check re-reads the target after the decrement: if a
 * regrowth raced the retirement (target moved past us between the
 * comparison and the decrement), the client stays alive instead of
 * leaving the population one short until the next spawn pass. Under
 * the current single-threaded epoch loop the re-check never fires —
 * bit-identity with the oracle is preserved — but it makes the loop
 * safe against mid-epoch regrowth paths.
 */
void
clientLoop(DriverState &s)
{
    if (s.liveClients > s.targetClients) {
        // Population shrank: this client retires.
        --s.liveClients;
        if (s.liveClients >= s.targetClients)
            return;
        ++s.liveClients; // target regrew past us: stay in the loop
    }
    double think = s.rng->exponential(s.thinkMean);
    s.eq.scheduleAfter(think, [sp = &s] { beginRequest(*sp); });
}

/** Think time elapsed: draw demand, claim a slot, enter the pipeline. */
void
beginRequest(DriverState &s)
{
    // RNG draw order matches the oracle exactly: nextRequest, then
    // the conditional cache-hit bernoulli.
    RequestHandle h = s.arena.acquire();
    Request &r = s.arena.get(h);
    r.issued = s.eq.now();
    r.work = requestWork(s.workload->nextRequest(*s.rng), *s.st, *s.rng);

    if (s.requestTimeout <= 0.0) {
        // Classic driver: the handle is always live when a stage
        // completes, so continuations carry only {driver, handle}.
        startStages(s, h);
        return;
    }
    issueAttempt(s, h);
}

/** Classic path: account, release the slot, go back to thinking. */
void
DriverState::respond(RequestHandle h, const Request &r)
{
    record(eq.now() - r.issued);
    arena.release(h);
    clientLoop(*this);
}

/** (Re)issue the request's work and arm the abandonment timer. */
void
issueAttempt(DriverState &s, RequestHandle h)
{
    Request &r = s.arena.get(h);
    ++r.attempts;
    // The continuations carry the attempt and its demand values: a
    // superseded attempt keeps flowing through disk/nic exactly like
    // the oracle's closures do, even after the slot is released (or
    // re-let to another request).
    startCarried(s, TimedAttempt{h, r.attempts, r.issued}, r.work);
    r.timeoutEv = s.eq.scheduleAfter(
        s.requestTimeout, [sp = &s, h] { onTimeout(*sp, h); });
}

/**
 * Timed-path answer. Intermediate stages never consult the slot (the
 * oracle routes superseded attempts through disk/nic without checking
 * either); only here are the handle and the attempt stamp checked, a
 * failed check counting as a late completion.
 */
void
DriverState::answer(const TimedAttempt &a)
{
    Request *r = arena.find(a.h);
    if (!r || a.attempt != r->attempts) {
        // Answer for an abandoned or superseded attempt: the slot was
        // released (generation mismatch) or re-armed with a newer
        // attempt. The oracle's ReqCtl resolved/attempts check,
        // without the control block.
        ++lateCompletions;
        return;
    }
    if (r->timeoutEv) {
        eq.cancel(r->timeoutEv);
        r->timeoutEv = 0;
    }
    record(eq.now() - a.issued);
    arena.release(a.h);
    clientLoop(*this);
}

/** Abandonment timer fired: retry with exponential backoff or give up. */
void
onTimeout(DriverState &s, RequestHandle h)
{
    Request *r = s.arena.find(h);
    if (!r)
        return; // resolved (resolution cancels the timer; defensive)
    r->timeoutEv = 0;
    ++s.timeouts;
    if (r->attempts <= s.maxRetries) {
        ++s.retries;
        double backoff =
            s.retryBackoff * std::pow(2.0, double(r->attempts - 1));
        // The timed-out attempt can still complete during the backoff
        // window and resolve the request; the resulting release makes
        // the handle stale, so the reissue check is one validity test
        // (the oracle's `if (ctl->reissue)`).
        s.eq.scheduleAfter(backoff, [sp = &s, h] {
            if (sp->arena.valid(h))
                issueAttempt(*sp, h);
        });
    } else {
        ++s.giveups;
        ++s.epochGiveups;
        s.arena.release(h);
        clientLoop(s);
    }
}

} // namespace

ClosedLoopResult
runClosedLoop(workloads::InteractiveWorkload &workload,
              const StationConfig &stations,
              const ClosedLoopParams &params, Rng &rng)
{
    WSC_ASSERT(params.initialClients >= 1, "need at least one client");
    WSC_ASSERT(params.epochSeconds > 0.0, "epoch must be positive");
    WSC_ASSERT(params.growFactor > 1.0, "grow factor must exceed 1");
    WSC_ASSERT(params.shrinkFactor > 0.0 && params.shrinkFactor < 1.0,
               "shrink factor must be in (0, 1)");

    DriverState s(stations);
    s.workload = &workload;
    s.st = &stations;
    s.rng = &rng;
    s.thinkMean = params.thinkTimeMean;
    auto qos = workload.qos();
    s.qosLimit = qos.latencyLimit;
    s.targetClients = params.initialClients;
    s.requestTimeout = params.requestTimeoutSeconds;
    s.maxRetries = params.maxRetries;
    s.retryBackoff = params.retryBackoffSeconds;
    s.arena.reserve(std::min<std::size_t>(params.initialClients, 4096));
    s.eq.reserve(std::min<std::size_t>(2 * params.initialClients, 8192));

    auto spawn_to_target = [&] {
        while (s.liveClients < s.targetClients) {
            ++s.liveClients;
            clientLoop(s);
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
        std::uint64_t lastCompleted = s.epochCompleted;
        s.epochCompleted = 0;
        s.epochViolations = 0;
        s.epochGiveups = 0;
        s.epochLatencies.clear();
        // Presize from the previous epoch: growth is bounded by the
        // grow factor, so 2x + headroom keeps steady-state epochs
        // from reallocating the sample vector mid-measurement.
        s.epochLatencies.reserve(2 * std::size_t(lastCompleted) + 1024);
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
