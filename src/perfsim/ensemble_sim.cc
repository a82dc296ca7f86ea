/**
 * @file
 * The exact ensemble engine: one DES event per request arrival,
 * completion, transition end and governor timer. The control plane
 * it shares with the fast-mode/2 engine lives in ensemble_core.hh.
 */

#include "perfsim/ensemble_core.hh"

namespace wsc {
namespace perfsim {

std::string
to_string(ServerState s)
{
    switch (s) {
      case ServerState::Active:
        return "active";
      case ServerState::Idle:
        return "idle";
      case ServerState::Sleep:
        return "sleep";
      case ServerState::Waking:
        return "waking";
      case ServerState::Off:
        return "off";
      case ServerState::Booting:
        return "booting";
    }
    panic("unknown server state");
}

std::string
to_string(EnsemblePolicy p)
{
    switch (p) {
      case EnsemblePolicy::AlwaysOn:
        return "always-on";
      case EnsemblePolicy::ConsolidateIdle:
        return "consolidate-idle";
      case EnsemblePolicy::PowerOff:
        return "power-off";
    }
    panic("unknown ensemble policy");
}

namespace {

/**
 * Batched unit-exponential pregeneration. The hot path draws one
 * inter-arrival gap and one service time per job, and every
 * hour-barrier reprogram cancels and redraws each cell's pending
 * arrival; refilling in blocks keeps the SplitMix64 mixing and the
 * log1p calls in a tight loop the compiler can schedule instead of a
 * call per event. Storing UNIT exponentials and scaling at use makes
 * the buffer reprogram-safe — a rate change rescales future draws
 * without discarding anything (exponentials are memoryless) — and
 * exact: exponential(mean) computes -log1p(-u) * mean, and
 * (-log1p(-u) * 1.0) * mean is the same double, so batched results
 * are bit-identical to unbatched ones, draw for draw.
 */
struct ExpBatch {
    std::array<double, 256> buf{};
    std::uint32_t idx = std::uint32_t(buf.size());

    double
    next(SplitMix64 &g)
    {
        if (idx == buf.size()) {
            for (double &v : buf)
                v = g.exponential(1.0);
            idx = 0;
        }
        return buf[idx++];
    }
};

/** Per-job state in a cell's job pool; queued jobs chain through
 * `next` (pool index, 0 = none). */
struct Job {
    double arrival = 0.0;
    double service = 0.0;
    std::uint32_t server = 0; //!< where it is queued or in service
    std::uint32_t next = 0;
};

/** The exact engine's lane-record kinds (detail::lanePayload). */
enum EventKind : unsigned {
    kArrival,    //!< arg: arrival generation
    kCompletion, //!< arg: job index
    kTransition, //!< arg: server (wake or boot done)
    kSleepTimer, //!< arg: server; gen: its timer generation
    kFlip,       //!< MMPP phase flip
    kSpill,      //!< delivered spill; the parcel carries the job
};

/** An exact-engine cell: the shared cell plus an event-driven state
 * machine per server, a job pool, and the pending arrival. */
struct Cell : detail::CellBase {
    /** The arrival-side draws (inter-arrival delays, service times,
     * MMPP dwells) are all exponential, so they share one batch of
     * pregenerated unit draws scaled at use. */
    ExpBatch unitExp;

    // Per-server state, SoA.
    std::vector<ServerState> state;
    std::vector<std::uint8_t> busy;    //!< slots in service
    std::vector<std::uint32_t> queued; //!< jobs waiting
    std::vector<std::uint32_t> qHead, qTail;
    /** Generation of the server's idle->sleep timer: arming or
     * cancelling bumps it, so only the last armed record fires. */
    std::vector<std::uint32_t> timerGen;
    std::vector<double> lastChange;    //!< energy-integration mark

    /** Job pool; slot 0 is the null sentinel. */
    std::vector<Job> jobs;
    std::vector<std::uint32_t> freeJobs;

    double meanGap = 0.0;  //!< 1 / rate, cached off the arrival path
    /** Generation of the pending arrival (bumped on every redraw). */
    std::uint32_t arrivalGen = 0;

    std::uint32_t
    acquireJob()
    {
        if (freeJobs.empty()) {
            jobs.emplace_back();
            return std::uint32_t(jobs.size() - 1);
        }
        std::uint32_t j = freeJobs.back();
        freeJobs.pop_back();
        return j;
    }
};

struct EnsembleSim : detail::EnsembleCore<EnsembleSim, Cell> {
    static constexpr bool kFastMode = false;

    using EnsembleCore::EnsembleCore;

    std::vector<std::uint32_t> &
    listFor(Cell &c, ServerState s)
    {
        switch (s) {
          case ServerState::Sleep:
            return c.asleep;
          case ServerState::Off:
            return c.off;
          default:
            return c.awake;
        }
    }

    /** Close the energy/state-time integral for @p s at @p now and
     * transition to @p ns (same-state calls just close the integral). */
    void
    setState(Cell &c, std::uint32_t s, ServerState ns, double now)
    {
        ServerState os = c.state[s];
        double dt = now - c.lastChange[s];
        c.energyWs += dt * wattsTable[unsigned(os)];
        c.stateSeconds[unsigned(os)] += dt;
        c.lastChange[s] = now;
        if (os == ns)
            return;
        auto &from = listFor(c, os);
        auto &to = listFor(c, ns);
        if (&from != &to)
            c.moveList(s, from, to);
        c.state[s] = ns;
    }

    /** Retract the server's pending idle->sleep timer, if any. */
    void
    cancelTimer(Cell &c, std::uint32_t s)
    {
        ++c.timerGen[s];
    }

    void
    armTimer(Cell &c, std::uint32_t s, double when)
    {
        sq.schedule(c.idx, when,
                    detail::lanePayload(kSleepTimer, s, ++c.timerGen[s]));
    }

    bool
    open(const Cell &c, std::uint32_t s) const
    {
        return c.busy[s] < cfg.serverSlots &&
               (c.state[s] == ServerState::Active ||
                c.state[s] == ServerState::Idle);
    }

    detail::Probe
    probe(const Cell &c, std::uint32_t s, double) const
    {
        return {open(c, s), std::uint64_t(c.busy[s]) + c.queued[s],
                c.queued[s]};
    }

    void
    scheduleCompletion(Cell &c, std::uint32_t j, double now)
    {
        sq.schedule(c.idx, now + c.jobs[j].service,
                    detail::lanePayload(kCompletion, j));
    }

    void
    beginTransition(Cell &c, std::uint32_t s, double now, bool boot)
    {
        setState(c, s, boot ? ServerState::Booting : ServerState::Waking,
                 now);
        sq.schedule(c.idx,
                    now + (boot ? cfg.power.bootSeconds
                                : cfg.power.sleepWakeSeconds),
                    detail::lanePayload(kTransition, s));
    }

    void
    powerOff(Cell &c, std::uint32_t s, double now)
    {
        cancelTimer(c, s);
        setState(c, s, ServerState::Off, now);
    }

    bool
    idleForPowerOff(const Cell &c, std::uint32_t s, double) const
    {
        return c.state[s] == ServerState::Idle;
    }

    void
    assign(Cell &c, std::uint32_t s, double arrival, double service,
           double now)
    {
        std::uint32_t j = c.acquireJob();
        c.jobs[j] = {arrival, service, s, 0};
        if (open(c, s)) {
            if (c.state[s] == ServerState::Idle) {
                cancelTimer(c, s);
                setState(c, s, ServerState::Active, now);
            }
            ++c.busy[s];
            scheduleCompletion(c, j, now);
        } else {
            if (c.qTail[s])
                c.jobs[c.qTail[s]].next = j;
            else
                c.qHead[s] = j;
            c.qTail[s] = j;
            ++c.queued[s];
        }
    }

    void
    dispatch(Cell &c, double arrival, double service, bool forwarded,
             double now)
    {
        detail::Probe pr{};
        std::uint32_t s = pickServer(c, now, pr);
        if (!pr.open) {
            // Demand signal: the picked server has no free slot.
            if (cfg.policy != EnsemblePolicy::AlwaysOn &&
                !c.asleep.empty()) {
                // Wake a sleeper and hand it the job; the job eats
                // the wake latency, which is exactly the QoS cost of
                // consolidation the analytical model cannot see.
                s = wakeSleeper(c, now);
            } else if (!forwarded && cfg.cells > 1 &&
                       pr.queued >= cfg.spillDepth) {
                // No local capacity left: pay the network latency
                // and hand the job to a random remote cell.
                // Forwarded jobs never re-spill, so no ping-pong.
                auto t = std::uint32_t(
                    c.rng.pick(cfg.cells - 1));
                if (t >= c.idx)
                    ++t;
                ++c.spilled;
                sq.post(c.idx, t, now + cfg.networkLatencySeconds,
                        detail::lanePayload(kSpill, 0),
                        {arrival, service});
                return;
            }
        }
        assign(c, s, arrival, service, now);
    }

    void
    enterIdle(Cell &c, std::uint32_t s, double now)
    {
        setState(c, s, ServerState::Idle, now);
        if (cfg.policy != EnsemblePolicy::AlwaysOn)
            armTimer(c, s, now + cfg.power.idleToSleepSeconds);
    }

    /** Start queued jobs into free slots, then settle the server's
     * state (Active if serving, Idle + governor timer otherwise). */
    void
    pump(Cell &c, std::uint32_t s, double now)
    {
        while (c.busy[s] < cfg.serverSlots && c.qHead[s]) {
            std::uint32_t j = c.qHead[s];
            Job &job = c.jobs[j];
            c.qHead[s] = job.next;
            if (!c.qHead[s])
                c.qTail[s] = 0;
            job.next = 0;
            --c.queued[s];
            ++c.busy[s];
            scheduleCompletion(c, j, now);
        }
        if (c.busy[s] > 0) {
            if (c.state[s] != ServerState::Active)
                setState(c, s, ServerState::Active, now);
        } else {
            enterIdle(c, s, now);
        }
    }

    void
    complete(Cell &c, std::uint32_t j, double now)
    {
        const Job &job = c.jobs[j];
        std::uint32_t s = job.server;
        recordLatency(c, now - job.arrival, now);
        c.freeJobs.push_back(j);
        --c.busy[s];
        pump(c, s, now);
    }

    void
    sleepTimer(Cell &c, std::uint32_t s, double now)
    {
        if (c.state[s] == ServerState::Idle) {
            setState(c, s, ServerState::Sleep, now);
            ++c.sleeps;
        }
    }

    void
    rescheduleArrival(Cell &c, double now)
    {
        ++c.arrivalGen; // retracts the pending arrival, if any
        if (c.rate > 0.0) {
            double delay = c.unitExp.next(c.arr) * c.meanGap;
            sq.schedule(c.idx, now + delay,
                        detail::lanePayload(kArrival, c.arrivalGen));
        }
    }

    /** Rate changes are control-plane (hour boundaries, MMPP flips):
     * cache the mean gap for the per-arrival draw and redraw the
     * pending arrival. Exponential inter-arrivals are memoryless, so
     * retracting the pending arrival and redrawing at the new rate is
     * an exact rate change, not an approximation. */
    void
    rateChanged(Cell &c, double now)
    {
        c.meanGap = c.rate > 0.0 ? 1.0 / c.rate : 0.0;
        rescheduleArrival(c, now);
    }

    void
    arrive(Cell &c, double now)
    {
        ++c.offered;
        double service =
            c.unitExp.next(c.arr) * cfg.meanServiceSeconds;
        dispatch(c, now, service, false, now);
        rescheduleArrival(c, now);
    }

    void
    mmppFlip(Cell &c, double now)
    {
        c.inBurst = !c.inBurst;
        c.rate = burstRate(c);
        rateChanged(c, now);
        double dwell = c.unitExp.next(c.arr) *
                       (c.inBurst ? cfg.mmpp.burstMeanSeconds
                                  : cfg.mmpp.calmMeanSeconds);
        sq.schedule(c.idx, now + dwell, detail::lanePayload(kFlip, 0));
    }

    /** Arrivals and sleep timers are retracted by generation. */
    bool
    stale(unsigned lane, std::uint64_t payload) const
    {
        const Cell &c = cells[lane];
        const std::uint32_t arg = detail::payloadArg(payload);
        switch (detail::payloadKind(payload)) {
          case kArrival:
            return arg != c.arrivalGen;
          case kSleepTimer:
            return detail::payloadGen(payload) !=
                   detail::genBits(c.timerGen[arg]);
          default:
            return false;
        }
    }

    /** The lane handler: one switch per live record. */
    void
    fire(unsigned lane, double now, std::uint64_t payload,
         const sim::Parcel *parcel)
    {
        Cell &c = cells[lane];
        const std::uint32_t arg = detail::payloadArg(payload);
        switch (detail::payloadKind(payload)) {
          case kArrival:
            arrive(c, now);
            return;
          case kCompletion:
            complete(c, arg, now);
            return;
          case kTransition:
            pump(c, arg, now);
            return;
          case kSleepTimer:
            sleepTimer(c, arg, now);
            return;
          case kFlip:
            mmppFlip(c, now);
            return;
          case kSpill:
            dispatch(c, parcel->a, parcel->b, true, now);
            return;
        }
        panic("unknown exact-engine lane record");
    }

    void
    closeIntegrals(Cell &c, double now)
    {
        for (std::uint32_t s = 0; s < c.n; ++s)
            setState(c, s, c.state[s], now);
    }

    /** Expected per-lane event occupancy: a completion per busy slot
     * plus a governor timer per awake server of one cell. */
    std::size_t
    reserveSize() const
    {
        return std::size_t(cfg.servers) *
                   (std::size_t(cfg.serverSlots) + 1) / cfg.cells +
               256;
    }

    void
    startCell(Cell &c, std::uint32_t awakeN)
    {
        c.state.assign(c.n, ServerState::Idle);
        std::fill(c.state.begin() + awakeN, c.state.end(),
                  ServerState::Off);
        c.busy.assign(c.n, 0);
        c.queued.assign(c.n, 0);
        c.qHead.assign(c.n, 0);
        c.qTail.assign(c.n, 0);
        c.timerGen.assign(c.n, 0);
        c.lastChange.assign(c.n, 0.0);
        // Expected pool occupancy: every slot of every server can
        // hold an in-service job, plus queued headroom; slot 0 is
        // the null sentinel.
        const std::size_t jobs = std::size_t(c.n) * cfg.serverSlots + 256;
        c.jobs.reserve(jobs);
        c.freeJobs.reserve(jobs);
        c.jobs.emplace_back();

        // Idle governors start armed under the sleeping policies.
        if (cfg.policy != EnsemblePolicy::AlwaysOn)
            for (std::uint32_t s = 0; s < awakeN; ++s)
                armTimer(c, s, cfg.power.idleToSleepSeconds);
        rateChanged(c, 0.0);
        if (cfg.mmpp.enabled) {
            double dwell =
                c.unitExp.next(c.arr) * cfg.mmpp.calmMeanSeconds;
            sq.schedule(c.idx, dwell, detail::lanePayload(kFlip, 0));
        }
    }
};

} // namespace

void
validateEnsembleConfig(const EnsembleConfig &cfg)
{
    WSC_ASSERT(cfg.servers >= 1, "empty ensemble");
    WSC_ASSERT(cfg.cells >= 1 && cfg.cells <= cfg.servers,
               "cells out of [1, servers]");
    WSC_ASSERT(cfg.hours >= 1 && cfg.hours <= 24,
               "hours out of [1, 24]");
    WSC_ASSERT(cfg.secondsPerHour > 0.0,
               "secondsPerHour must be positive");
    WSC_ASSERT(cfg.peakUtilization > 0.0 && cfg.peakUtilization <= 1.0,
               "peak utilization out of (0, 1]");
    WSC_ASSERT(cfg.serverSlots >= 1 && cfg.serverSlots <= 255,
               "server slots out of [1, 255]");
    WSC_ASSERT(cfg.meanServiceSeconds > 0.0,
               "service mean must be positive");
    WSC_ASSERT(cfg.qosLatencySeconds > 0.0,
               "QoS deadline must be positive");
    WSC_ASSERT(cfg.networkLatencySeconds > 0.0 &&
                   cfg.networkLatencySeconds <= cfg.secondsPerHour,
               "network latency out of (0, secondsPerHour]");
    WSC_ASSERT(cfg.spillDepth >= 1, "spill depth must be positive");
    WSC_ASSERT(cfg.reserveMargin >= 0.0, "negative reserve margin");
    WSC_ASSERT(cfg.autoscaleUtilization > 0.0 &&
                   cfg.autoscaleUtilization <= 1.0,
               "autoscale utilization out of (0, 1]");
    WSC_ASSERT(cfg.powerCapWatts >= 0.0, "negative power cap");
    for (double load : cfg.profile)
        WSC_ASSERT(load >= 0.0 && load <= 1.0,
                   "hourly load out of [0, 1]");
    if (cfg.mmpp.enabled) {
        WSC_ASSERT(cfg.mmpp.burstMultiplier > 0.0,
                   "burst multiplier must be positive");
        WSC_ASSERT(cfg.mmpp.calmMeanSeconds > 0.0 &&
                       cfg.mmpp.burstMeanSeconds > 0.0,
                   "MMPP dwell means must be positive");
    }
}

EnsembleResult
runEnsemble(const EnsembleConfig &cfg)
{
    validateEnsembleConfig(cfg);
    if (cfg.fast.enabled)
        return detail::runFastEngine(cfg);
    return detail::runEngine<EnsembleSim>(cfg);
}

} // namespace perfsim
} // namespace wsc
