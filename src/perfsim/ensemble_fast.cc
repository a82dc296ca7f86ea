/**
 * @file
 * The fast-mode/2 ensemble engine: macro-event arrival coalescing.
 *
 * The exact engine (ensemble_sim.cc) schedules one DES event per
 * request arrival, completion, and governor timer — ~30M events for a
 * 100k-server day. This engine replaces all of them with one
 * macro-event per (cell, lookahead-window):
 *
 *  - the window's arrival count is drawn in one shot from the hourly
 *    Poisson/MMPP law (SplitMix64::poisson over the same per-cell
 *    identity-seeded streams), and arrival instants are placed at
 *    sorted uniform order statistics via exponential spacings — both
 *    exact for a Poisson process, so the pinned arrival law is
 *    preserved distribution-for-distribution;
 *  - each arrival is dispatched with the same power-of-two-choices
 *    policy logic, evaluated against the server's *instantaneous*
 *    state at the arrival time, reconstructed from per-server
 *    timelines instead of materialized by events;
 *  - per-server queueing is the Kiefer–Wolfowitz slot recursion: a
 *    sorted vector of slot-free times per server gives the exact
 *    M/M/c FCFS start/completion times for the sampled arrivals and
 *    services (start = max(arrival, earliest slot, transition end));
 *  - energy and sleep-state residency integrate lazily over a
 *    per-server segment timeline (transition -> active -> idle ->
 *    sleep), with the idle-to-sleep governor evaluated as a deadline
 *    (busy-end + governor timeout) instead of a timer event. Virtual
 *    sleepers are materialized onto the asleep list at window starts
 *    and hour barriers, so dispatch and the autoscaler see the same
 *    membership the exact engine's timer events would produce, at
 *    most one window late (a declared fast-mode/2 relaxation).
 *
 * What stays *real* DES events — so sim::ShardedEventQueue's
 * conservative windowed execution and its shard/worker bit-invariance
 * carry over unchanged — is exactly the cross-cell and control-plane
 * traffic: macro-events themselves (scheduled from the barrier at
 * every window start), MMPP phase flips, cross-cell spill posts, and
 * the autoscaling/power-cap hour barriers. That control plane, the
 * p2c pick and the result assembly are the exact engine's own code,
 * shared through ensemble_core.hh; this file is the arrival kernel.
 *
 * Determinism: all stochastic state is per-cell (identity-seeded
 * streams, consumed in a fixed order: window count, spacings, then
 * per-arrival service), all accumulators merge in cell-index order,
 * and all cross-cell interaction rides the barrier-ordered message
 * path — so a seed reproduces the same bytes at any shard/worker
 * count and queue backend, which test_ensemble asserts.
 */

#include "perfsim/ensemble_core.hh"

#include <limits>

namespace wsc {
namespace perfsim {

namespace {

/** The fast engine's lane-record kinds (detail::lanePayload). */
enum EventKind : unsigned {
    kMacro, //!< the per-(cell, window) macro event
    kFlip,  //!< MMPP phase flip
    kSpill, //!< delivered spill; the parcel carries the job
};

/** Coarse per-server mode. Timeline servers carry their full state
 * implicitly (slot-free times + transition end + governor deadline);
 * SleepM/Off are materialized endpoints with flat power draw. */
enum class FMode : std::uint8_t { Timeline, SleepM, Off };

/** One dispatch cell of the fast engine: the shared cell (topology,
 * streams, membership lists, accumulators), but per-server state is a
 * timeline, not an event-driven state machine. The membership lists
 * map awake = Timeline, asleep = SleepM, off = Off. */
struct FastCell : detail::CellBase {
    // Per-server timeline state, SoA.
    std::vector<double> slotFree;     //!< n * slots, sorted ascending per server
    std::vector<double> transEnd;     //!< wake/boot transition end
    std::vector<std::uint8_t> transBoot; //!< transition was a boot
    std::vector<double> lastMark;     //!< energy-integration mark
    std::vector<FMode> mode;
    /** FIFO of queued-job start times per server (starts are
     * nondecreasing under FCFS, so a head index pops them in order;
     * the live queue depth at time t is the tail past t). */
    std::vector<std::vector<double>> pendStart;
    std::vector<std::uint32_t> pendHead;

    /** Lazy min-heap of (governor deadline, server): draining it as
     * dispatch time advances materializes sleepers at the same
     * instants the exact engine's timer events fire, so the p2c pool
     * and the wake-on-demand asleep list track the exact engine's
     * membership promptly instead of lagging a whole window. A
     * server's deadline max(busy end, transition end) + timeout is
     * monotone nondecreasing, so each server keeps at most one entry
     * (inGov flag) holding a lower bound; a pop whose recomputed
     * deadline is still in the future re-pushes instead of sleeping.
     * That caps heap traffic at ~one op per server per window instead
     * of one per arrival. */
    std::vector<std::pair<double, std::uint32_t>> govHeap;
    std::vector<std::uint8_t> inGov;

    /** End of the window the last macro event opened, and the cell's
     * next scheduled MMPP flip (+inf when MMPP is off). Together with
     * the pending spill-delivery times below they bound the
     * constant-rate segments arrival synthesis runs over: each lane
     * event (macro open, flip, spill delivery) synthesizes from
     * synthMark up to the nearest of window end / next flip / next
     * spill, so MMPP phase changes land mid-window with full
     * fidelity and a spilled job joins its target's queue in true
     * arrival order instead of behind the whole window's backlog. */
    double winEnd = 0.0;
    double nextFlip = std::numeric_limits<double>::infinity();
    /** How far this cell's arrival stream has been synthesized. */
    double synthMark = 0.0;
    /** Spills this cell posted during the current window, staged as
     * (target cell, delivery time); the barrier merges them into the
     * targets' inSpills. Lookahead equals the network latency, so a
     * spill posted in window W is always delivered in window W+1 —
     * every delivery time is known before its window opens. */
    std::vector<std::pair<std::uint32_t, double>> outSpills;
    /** Delivery times landing in the currently open window, sorted;
     * synthesis never crosses inSpills[inSpillHead]. */
    std::vector<double> inSpills;
    std::uint32_t inSpillHead = 0;

    std::vector<double> arrTimes; //!< window-arrival scratch
};

struct EnsembleFastSim : detail::EnsembleCore<EnsembleFastSim, FastCell> {
    static constexpr bool kFastMode = true;

    using EnsembleCore::EnsembleCore;

    unsigned slots = cfg.serverSlots;
    /** The governor runs (policy != AlwaysOn). */
    bool sleepsEligible = cfg.policy != EnsemblePolicy::AlwaysOn;

    double *
    slotsOf(FastCell &c, std::uint32_t s)
    {
        return c.slotFree.data() + std::size_t(s) * slots;
    }

    /** Time the server's last busy period drains (max slot-free). */
    double
    busyEnd(FastCell &c, std::uint32_t s)
    {
        return slotsOf(c, s)[slots - 1];
    }

    /** When the idle-to-sleep governor would have fired: the exact
     * engine arms the timer when the server drains (or finishes a
     * transition with nothing queued), which in timeline terms is
     * max(busy end, transition end) + the governor timeout. */
    double
    govDeadline(FastCell &c, std::uint32_t s)
    {
        return std::max(busyEnd(c, s), c.transEnd[s]) +
               cfg.power.idleToSleepSeconds;
    }

    /** A Timeline server that drained more than a governor timeout
     * ago is *virtually* asleep: the exact engine's timer would have
     * moved it to the asleep list already. */
    bool
    virtuallyAsleep(FastCell &c, std::uint32_t s, double t)
    {
        return sleepsEligible && c.mode[s] == FMode::Timeline &&
               t >= govDeadline(c, s);
    }

    /** Queued jobs at time t: pending starts past t. Pops the FIFO
     * head as time advances (amortized O(1)). */
    std::uint32_t
    queuedAt(FastCell &c, std::uint32_t s, double t)
    {
        auto &pend = c.pendStart[s];
        std::uint32_t &head = c.pendHead[s];
        while (head < pend.size() && pend[head] <= t)
            ++head;
        if (head == pend.size() && head > 0) {
            pend.clear();
            head = 0;
        }
        return std::uint32_t(pend.size()) - head;
    }

    /** One-pass candidate snapshot for the p2c pick: open / load /
     * queued computed from a single read of the server's slots and
     * transition state. Busy slots at time t are the slot-free
     * entries past t. Monotone arrival processing keeps this exact —
     * every counted slot is continuously occupied through t (queued
     * jobs start back-to-back, and any drain gap ends at an arrival
     * we already saw). */
    detail::Probe
    probe(FastCell &c, std::uint32_t s, double t)
    {
        const double *w = slotsOf(c, s);
        unsigned b = 0;
        for (unsigned i = 0; i < slots; ++i)
            b += w[i] > t;
        std::uint32_t q = queuedAt(c, s, t);
        double tE = c.transEnd[s];
        bool open = c.mode[s] == FMode::Timeline && t >= tE &&
                    b < slots;
        if (open && sleepsEligible &&
            t >= std::max(w[slots - 1], tE) +
                     cfg.power.idleToSleepSeconds)
            open = false;  // virtually asleep
        return {open, std::uint64_t(b) + q, q};
    }

    void
    account(FastCell &c, ServerState st, double dt)
    {
        c.energyWs += dt * wattsTable[unsigned(st)];
        c.stateSeconds[unsigned(st)] += dt;
    }

    /**
     * Integrate server @p s's energy and state residency over
     * [lastMark, x). Timeline servers walk the segment sequence
     * transition -> active -> idle -> (sleep past the governor
     * deadline); materialized servers integrate flat. Exact given
     * the sampled trajectory: the segment boundaries are the same
     * instants the exact engine's events would have flipped state at.
     */
    void
    integrateTo(FastCell &c, std::uint32_t s, double x)
    {
        double t = c.lastMark[s];
        if (x <= t)
            return;
        c.lastMark[s] = x;
        if (c.mode[s] == FMode::SleepM) {
            account(c, ServerState::Sleep, x - t);
            return;
        }
        if (c.mode[s] == FMode::Off) {
            account(c, ServerState::Off, x - t);
            return;
        }
        double tE = c.transEnd[s];
        double bE = busyEnd(c, s);
        if (tE > t) {
            double e = std::min(tE, x);
            account(c,
                    c.transBoot[s] ? ServerState::Booting
                                   : ServerState::Waking,
                    e - t);
            t = e;
        }
        if (bE > t && t < x) {
            double e = std::min(bE, x);
            account(c, ServerState::Active, e - t);
            t = e;
        }
        if (t >= x)
            return;
        if (sleepsEligible) {
            double gov = std::max(bE, tE) +
                         cfg.power.idleToSleepSeconds;
            if (gov > t) {
                double e = std::min(gov, x);
                account(c, ServerState::Idle, e - t);
                t = e;
            }
            if (t < x)
                account(c, ServerState::Sleep, x - t);
        } else {
            account(c, ServerState::Idle, x - t);
        }
    }

    void
    pushGov(FastCell &c, std::uint32_t s)
    {
        if (!sleepsEligible || c.inGov[s])
            return;
        c.inGov[s] = 1;
        c.govHeap.emplace_back(govDeadline(c, s), s);
        std::push_heap(c.govHeap.begin(), c.govHeap.end(),
                       std::greater<>());
    }

    /** Materialize every server whose governor deadline passed by
     * @p t onto the asleep list (the exact engine's sleepTimer). */
    void
    drainGov(FastCell &c, double t)
    {
        if (!sleepsEligible)
            return;
        while (!c.govHeap.empty() && c.govHeap.front().first <= t) {
            auto [d, s] = c.govHeap.front();
            std::pop_heap(c.govHeap.begin(), c.govHeap.end(),
                          std::greater<>());
            c.govHeap.pop_back();
            c.inGov[s] = 0;
            if (c.mode[s] != FMode::Timeline)
                continue;
            double cur = govDeadline(c, s);
            if (cur > t) {
                // Later work extended the deadline past t: the entry
                // was a lower bound; re-arm at the current one.
                c.inGov[s] = 1;
                c.govHeap.emplace_back(cur, s);
                std::push_heap(c.govHeap.begin(), c.govHeap.end(),
                               std::greater<>());
                continue;
            }
            integrateTo(c, s, t);
            c.mode[s] = FMode::SleepM;
            c.moveList(s, c.awake, c.asleep);
            ++c.sleeps;
        }
    }

    void
    beginTransition(FastCell &c, std::uint32_t s, double now, bool boot)
    {
        integrateTo(c, s, now);
        if (c.mode[s] != FMode::Timeline)
            c.moveList(s, boot ? c.off : c.asleep, c.awake);
        c.mode[s] = FMode::Timeline;
        c.transEnd[s] = now + (boot ? cfg.power.bootSeconds
                                    : cfg.power.sleepWakeSeconds);
        c.transBoot[s] = boot;
        pushGov(c, s);
    }

    void
    powerOff(FastCell &c, std::uint32_t s, double now)
    {
        integrateTo(c, s, now);
        c.moveList(s, c.mode[s] == FMode::SleepM ? c.asleep : c.awake,
                   c.off);
        c.mode[s] = FMode::Off;
    }

    /** Drained and out of any transition. Servers past the governor
     * deadline were materialized asleep by the hour sweep. */
    bool
    idleForPowerOff(FastCell &c, std::uint32_t s, double now)
    {
        return now >= c.transEnd[s] && now >= busyEnd(c, s);
    }

    /**
     * Assign one job to server @p s: close the server's timeline up
     * to the arrival, then run the slot recursion. @p t is the
     * dispatch instant (clamped to the server's integration mark for
     * barrier-delivered spills, which may trail fresh arrivals by up
     * to one window); @p arrival is the job's original arrival time,
     * which is what latency is measured from.
     */
    void
    assign(FastCell &c, std::uint32_t s, double t, double arrival,
           double service)
    {
        double tc = std::max(t, c.lastMark[s]);
        if (virtuallyAsleep(c, s, tc)) {
            // The governor had put this server to sleep; the job
            // wakes it and eats the wake latency, exactly the
            // consolidation QoS cost the exact engine charges.
            integrateTo(c, s, tc);
            ++c.sleeps;
            ++c.wakes;
            c.transEnd[s] = tc + cfg.power.sleepWakeSeconds;
            c.transBoot[s] = 0;
        } else {
            integrateTo(c, s, tc);
        }
        double *w = slotsOf(c, s);
        double start = std::max({tc, w[0], c.transEnd[s]});
        double completion = start + service;
        if (start > tc)
            c.pendStart[s].push_back(start);
        // Replace the earliest slot and restore sorted order.
        w[0] = completion;
        for (unsigned i = 1;
             i < slots && w[i - 1] > w[i]; ++i)
            std::swap(w[i - 1], w[i]);
        pushGov(c, s);
        if (completion <= horizon)
            recordLatency(c, completion - arrival, completion);
    }

    void
    dispatch(std::uint32_t ci, double t, double arrival,
             double service, bool forwarded)
    {
        FastCell &c = cells[ci];
        drainGov(c, t);
        detail::Probe pr{};
        std::uint32_t s = pickServer(c, t, pr);
        if (!pr.open) {
            if (sleepsEligible && !c.asleep.empty()) {
                s = wakeSleeper(c, t);
            } else if (!forwarded && cfg.cells > 1 &&
                       pr.queued >= cfg.spillDepth) {
                auto tgt = std::uint32_t(c.rng.pick(cfg.cells - 1));
                if (tgt >= ci)
                    ++tgt;
                ++c.spilled;
                double at = t + cfg.networkLatencySeconds;
                c.outSpills.emplace_back(tgt, at);
                sq.post(ci, tgt, at, detail::lanePayload(kSpill, 0),
                        {arrival, service});
                return;
            }
        }
        assign(c, s, t, arrival, service);
    }

    /** Synthesize and dispatch the arrivals of one constant-rate
     * segment [from, to) in one shot: count from a single Poisson
     * draw, placement via exponential spacings (sorted uniform order
     * statistics — exact for a Poisson process). */
    void
    synthSegment(std::uint32_t ci, FastCell &c, double from,
                 double to)
    {
        if (c.rate <= 0.0 || to <= from)
            return;
        std::uint64_t n = c.arr.poisson(c.rate * (to - from));
        if (n == 0)
            return;
        c.arrTimes.resize(n);
        double acc = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) {
            acc += c.arr.exponential(1.0);
            c.arrTimes[i] = acc;
        }
        acc += c.arr.exponential(1.0);
        double scale = (to - from) / acc;
        for (std::uint64_t i = 0; i < n; ++i) {
            double tau = from + c.arrTimes[i] * scale;
            ++c.offered;
            double service =
                c.arr.exponential(cfg.meanServiceSeconds);
            dispatch(ci, tau, tau, service, false);
        }
    }

    /** Next spill-delivery split point, +inf when none remain. */
    double
    nextSpill(const FastCell &c) const
    {
        return c.inSpillHead < c.inSpills.size()
                   ? c.inSpills[c.inSpillHead]
                   : std::numeric_limits<double>::infinity();
    }

    /** Advance the cell's arrival synthesis to @p to, clamped to the
     * nearest rate change or interleaving point (window end, MMPP
     * flip, spill delivery). Each lane event calls this after
     * updating its own bound, so segments tile the window exactly
     * and every dispatch happens in arrival order. */
    void
    synthUpTo(std::uint32_t ci, FastCell &c, double to)
    {
        to = std::min(std::min(to, c.winEnd),
                      std::min(c.nextFlip, nextSpill(c)));
        if (to > c.synthMark) {
            synthSegment(ci, c, c.synthMark, to);
            c.synthMark = to;
        }
    }

    /** The per-(cell, window) macro event: open the window and
     * synthesize arrivals up to the first split point; flips and
     * spill deliveries inside the window extend the synthesis as
     * they fire. */
    void
    macroEvent(std::uint32_t ci, double t)
    {
        FastCell &c = cells[ci];
        c.winEnd = std::min(t + cfg.networkLatencySeconds, horizon);
        drainGov(c, t);
        synthUpTo(ci, c, c.winEnd);
    }

    void
    mmppFlip(std::uint32_t ci, double now)
    {
        FastCell &c = cells[ci];
        synthUpTo(ci, c, now);
        c.inBurst = !c.inBurst;
        c.rate = burstRate(c);
        double dwell = c.arr.exponential(
            c.inBurst ? cfg.mmpp.burstMeanSeconds
                      : cfg.mmpp.calmMeanSeconds);
        c.nextFlip = now + dwell;
        sq.schedule(ci, c.nextFlip, detail::lanePayload(kFlip, 0));
        // The open window's remainder runs at the new rate from the
        // flip instant: exact MMPP modulation, not a window-start
        // snapshot.
        synthUpTo(ci, c, c.winEnd);
    }

    /** A spilled job lands: close synthesis at the delivery instant,
     * retire its split point, and dispatch it — in exact arrival
     * order relative to the target's own synthesized stream. */
    void
    spillDeliver(std::uint32_t ci, double d, double arrival,
                 double service)
    {
        FastCell &c = cells[ci];
        synthUpTo(ci, c, d);
        if (c.inSpillHead < c.inSpills.size() &&
            c.inSpills[c.inSpillHead] <= d)
            ++c.inSpillHead;
        dispatch(ci, d, arrival, service, true);
        synthUpTo(ci, c, c.winEnd);
    }

    /** Synthesis reads c.rate segment by segment, so a rate change
     * has nothing pending to redraw. */
    void
    rateChanged(FastCell &, double)
    {
    }

    /** The hour sweep over timelines: materialize due sleepers, then
     * integrate every server up to @p now. */
    void
    closeIntegrals(FastCell &c, double now)
    {
        drainGov(c, now);
        for (std::uint32_t s = 0; s < c.n; ++s)
            integrateTo(c, s, now);
    }

    /** Per-lane event population is tiny: one macro event in
     * flight, plus MMPP flips and spill posts. */
    std::size_t
    reserveSize() const
    {
        return 1024;
    }

    /** Barrier callback: hour control plane when a boundary passed,
     * then seed every cell's next macro event at the window start
     * (it runs first thing inside the next window, so the
     * arrival synthesis itself executes in parallel). */
    void
    onBarrier(double now)
    {
        hourBarrier(now);
        // Single-threaded point: publish last window's staged spill
        // deliveries to their targets as synthesis split points for
        // the window about to open (lane order, so the merge is
        // shard- and worker-count invariant).
        for (FastCell &c : cells) {
            c.inSpills.clear();
            c.inSpillHead = 0;
        }
        for (FastCell &src : cells) {
            for (const auto &[tgt, at] : src.outSpills)
                cells[tgt].inSpills.push_back(at);
            src.outSpills.clear();
        }
        for (FastCell &c : cells)
            std::sort(c.inSpills.begin(), c.inSpills.end());
        if (now >= horizon)
            return;
        for (std::uint32_t ci = 0; ci < cfg.cells; ++ci)
            sq.schedule(ci, now, detail::lanePayload(kMacro, 0));
    }

    /** The fast engine retracts nothing. */
    bool
    stale(unsigned, std::uint64_t) const
    {
        return false;
    }

    /** The lane handler: one switch per record. */
    void
    fire(unsigned lane, double now, std::uint64_t payload,
         const sim::Parcel *parcel)
    {
        switch (detail::payloadKind(payload)) {
          case kMacro:
            macroEvent(lane, now);
            return;
          case kFlip:
            mmppFlip(lane, now);
            return;
          case kSpill:
            spillDeliver(lane, now, parcel->a, parcel->b);
            return;
        }
        panic("unknown fast-engine lane record");
    }

    void
    startCell(FastCell &c, std::uint32_t awakeN)
    {
        std::uint32_t ci = c.idx;
        c.slotFree.assign(std::size_t(c.n) * slots, 0.0);
        c.transEnd.assign(c.n, 0.0);
        c.transBoot.assign(c.n, 0);
        c.lastMark.assign(c.n, 0.0);
        c.mode.assign(c.n, FMode::Timeline);
        std::fill(c.mode.begin() + awakeN, c.mode.end(), FMode::Off);
        c.pendStart.resize(c.n);
        c.pendHead.assign(c.n, 0);
        c.inGov.assign(c.n, 0);
        // The exact engine arms every awake server's idle governor at
        // t=0 (deadline = idleToSleepSeconds).
        for (std::uint32_t s = 0; s < awakeN; ++s)
            pushGov(c, s);
        if (cfg.mmpp.enabled) {
            double dwell = c.arr.exponential(cfg.mmpp.calmMeanSeconds);
            c.nextFlip = dwell;
            sq.schedule(ci, dwell, detail::lanePayload(kFlip, 0));
        }
        // First window's macro event.
        sq.schedule(ci, 0.0, detail::lanePayload(kMacro, 0));
    }
};

} // namespace

EnsembleResult
detail::runFastEngine(const EnsembleConfig &cfg)
{
    return runEngine<EnsembleFastSim>(cfg);
}

} // namespace perfsim
} // namespace wsc
