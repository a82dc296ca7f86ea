/**
 * @file
 * The exact ensemble engine: one DES event per request arrival,
 * completion, transition end and governor timer. The control plane
 * it shares with the fast-mode/2 engine lives in ensemble_core.hh.
 */

#include "perfsim/ensemble_core.hh"

#include "perfsim/request_arena.hh"

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

/** Pooled per-job state; queued jobs chain through `next`. */
struct Job {
    double arrival = 0.0;
    double service = 0.0;
    RequestHandle next = 0;
};

/** An exact-engine cell: the shared cell plus an event-driven state
 * machine per server, a job arena, and the pending arrival. */
struct Cell : detail::CellBase {
    /** The arrival-side draws (inter-arrival delays, service times,
     * MMPP dwells) are all exponential, so they share one batch of
     * pregenerated unit draws scaled at use. */
    ExpBatch unitExp;

    // Per-server state, SoA.
    std::vector<ServerState> state;
    std::vector<std::uint8_t> busy;    //!< slots in service
    std::vector<std::uint32_t> queued; //!< jobs waiting
    std::vector<RequestHandle> qHead, qTail;
    std::vector<sim::EventId> timer;   //!< pending idle->sleep timer
    std::vector<double> lastChange;    //!< energy-integration mark

    RequestArena<Job> arena;

    double meanGap = 0.0;  //!< 1 / rate, cached off the arrival path
    sim::EventId arrivalEvent = 0;
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

    void
    cancelTimer(Cell &c, std::uint32_t s)
    {
        if (c.timer[s]) {
            sq.laneQueue(c.idx).cancel(c.timer[s]);
            c.timer[s] = 0;
        }
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
    scheduleCompletion(Cell &c, std::uint32_t s, RequestHandle h,
                       double now)
    {
        EnsembleSim *sim = this;
        std::uint32_t ci = c.idx;
        sq.laneQueue(ci).schedule(
            now + c.arena.get(h).service,
            [sim, ci, s, h] { sim->complete(ci, s, h); });
    }

    void
    beginTransition(Cell &c, std::uint32_t s, double now, bool boot)
    {
        setState(c, s, boot ? ServerState::Booting : ServerState::Waking,
                 now);
        EnsembleSim *sim = this;
        std::uint32_t ci = c.idx;
        sq.laneQueue(ci).schedule(
            now + (boot ? cfg.power.bootSeconds
                        : cfg.power.sleepWakeSeconds),
            [sim, ci, s] { sim->transitionDone(ci, s); });
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
        RequestHandle h = c.arena.acquire();
        Job &j = c.arena.get(h);
        j.arrival = arrival;
        j.service = service;
        if (open(c, s)) {
            if (c.state[s] == ServerState::Idle) {
                cancelTimer(c, s);
                setState(c, s, ServerState::Active, now);
            }
            ++c.busy[s];
            scheduleCompletion(c, s, h, now);
        } else {
            if (c.qTail[s])
                c.arena.get(c.qTail[s]).next = h;
            else
                c.qHead[s] = h;
            c.qTail[s] = h;
            ++c.queued[s];
        }
    }

    void
    dispatch(std::uint32_t ci, double arrival, double service,
             bool forwarded)
    {
        Cell &c = cells[ci];
        double now = sq.laneQueue(ci).now();
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
                if (t >= ci)
                    ++t;
                ++c.spilled;
                EnsembleSim *sim = this;
                sq.post(ci, t, now + cfg.networkLatencySeconds,
                        [sim, t, arrival, service] {
                            sim->dispatch(t, arrival, service, true);
                        });
                return;
            }
        }
        assign(c, s, arrival, service, now);
    }

    void
    enterIdle(Cell &c, std::uint32_t s, double now)
    {
        setState(c, s, ServerState::Idle, now);
        if (cfg.policy != EnsemblePolicy::AlwaysOn) {
            cancelTimer(c, s);
            EnsembleSim *sim = this;
            std::uint32_t ci = c.idx;
            c.timer[s] = sq.laneQueue(ci).schedule(
                now + cfg.power.idleToSleepSeconds,
                [sim, ci, s] { sim->sleepTimer(ci, s); });
        }
    }

    /** Start queued jobs into free slots, then settle the server's
     * state (Active if serving, Idle + governor timer otherwise). */
    void
    pump(Cell &c, std::uint32_t s, double now)
    {
        while (c.busy[s] < cfg.serverSlots && c.qHead[s]) {
            RequestHandle h = c.qHead[s];
            Job &j = c.arena.get(h);
            c.qHead[s] = j.next;
            if (!c.qHead[s])
                c.qTail[s] = 0;
            j.next = 0;
            --c.queued[s];
            ++c.busy[s];
            scheduleCompletion(c, s, h, now);
        }
        if (c.busy[s] > 0) {
            if (c.state[s] != ServerState::Active)
                setState(c, s, ServerState::Active, now);
        } else {
            enterIdle(c, s, now);
        }
    }

    void
    complete(std::uint32_t ci, std::uint32_t s, RequestHandle h)
    {
        Cell &c = cells[ci];
        double now = sq.laneQueue(ci).now();
        double latency = now - c.arena.get(h).arrival;
        recordLatency(c, latency, now);
        c.arena.release(h);
        --c.busy[s];
        pump(c, s, now);
    }

    void
    transitionDone(std::uint32_t ci, std::uint32_t s)
    {
        Cell &c = cells[ci];
        pump(c, s, sq.laneQueue(ci).now());
    }

    void
    sleepTimer(std::uint32_t ci, std::uint32_t s)
    {
        Cell &c = cells[ci];
        c.timer[s] = 0;
        if (c.state[s] == ServerState::Idle) {
            setState(c, s, ServerState::Sleep,
                     sq.laneQueue(ci).now());
            ++c.sleeps;
        }
    }

    void
    rescheduleArrival(Cell &c, double now)
    {
        if (c.arrivalEvent) {
            sq.laneQueue(c.idx).cancel(c.arrivalEvent);
            c.arrivalEvent = 0;
        }
        if (c.rate > 0.0) {
            double delay = c.unitExp.next(c.arr) * c.meanGap;
            EnsembleSim *sim = this;
            std::uint32_t ci = c.idx;
            c.arrivalEvent = sq.laneQueue(ci).schedule(
                now + delay, [sim, ci] { sim->arrive(ci); });
        }
    }

    /** Rate changes are control-plane (hour boundaries, MMPP flips):
     * cache the mean gap for the per-arrival draw and redraw the
     * pending arrival. Exponential inter-arrivals are memoryless, so
     * cancelling the pending arrival and redrawing at the new rate is
     * an exact rate change, not an approximation. */
    void
    rateChanged(Cell &c, double now)
    {
        c.meanGap = c.rate > 0.0 ? 1.0 / c.rate : 0.0;
        rescheduleArrival(c, now);
    }

    void
    arrive(std::uint32_t ci)
    {
        Cell &c = cells[ci];
        double now = sq.laneQueue(ci).now();
        c.arrivalEvent = 0;
        ++c.offered;
        double service =
            c.unitExp.next(c.arr) * cfg.meanServiceSeconds;
        dispatch(ci, now, service, false);
        rescheduleArrival(c, now);
    }

    void
    mmppFlip(std::uint32_t ci)
    {
        Cell &c = cells[ci];
        double now = sq.laneQueue(ci).now();
        c.inBurst = !c.inBurst;
        c.rate = burstRate(c);
        rateChanged(c, now);
        double dwell = c.unitExp.next(c.arr) *
                       (c.inBurst ? cfg.mmpp.burstMeanSeconds
                                  : cfg.mmpp.calmMeanSeconds);
        EnsembleSim *sim = this;
        sq.laneQueue(ci).schedule(
            now + dwell, [sim, ci] { sim->mmppFlip(ci); });
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
        std::uint32_t ci = c.idx;
        c.state.assign(c.n, ServerState::Idle);
        std::fill(c.state.begin() + awakeN, c.state.end(),
                  ServerState::Off);
        c.busy.assign(c.n, 0);
        c.queued.assign(c.n, 0);
        c.qHead.assign(c.n, 0);
        c.qTail.assign(c.n, 0);
        c.timer.assign(c.n, 0);
        c.lastChange.assign(c.n, 0.0);
        // Expected arena occupancy: every slot of every server can
        // hold an in-service job, plus queued headroom.
        c.arena.reserve(std::size_t(c.n) * cfg.serverSlots + 256);

        // Idle governors start armed under the sleeping policies.
        if (cfg.policy != EnsemblePolicy::AlwaysOn) {
            EnsembleSim *sim = this;
            for (std::uint32_t s = 0; s < awakeN; ++s) {
                c.timer[s] = sq.laneQueue(ci).schedule(
                    cfg.power.idleToSleepSeconds,
                    [sim, ci, s] { sim->sleepTimer(ci, s); });
            }
        }
        rateChanged(c, 0.0);
        if (cfg.mmpp.enabled) {
            double dwell =
                c.unitExp.next(c.arr) * cfg.mmpp.calmMeanSeconds;
            EnsembleSim *sim = this;
            sq.laneQueue(ci).schedule(
                dwell, [sim, ci] { sim->mmppFlip(ci); });
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
