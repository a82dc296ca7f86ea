/**
 * @file
 * The ensemble control plane both engines share (internal to perfsim).
 *
 * The exact engine (ensemble_sim.cc: one DES event per arrival,
 * completion and governor timer) and the fast-mode/2 engine
 * (ensemble_fast.cc: one macro-event per cell and lookahead window)
 * model the same fleet: the same cell partition and identity-seeded
 * streams, the same membership lists, the same hourly autoscaler and
 * power cap, the same accumulators and result assembly. All of that
 * lives here once. Each engine derives from EnsembleCore (CRTP, so
 * every hook inlines; no virtual calls on the hot path) and keeps only
 * its arrival, dispatch and service kernel plus these hooks:
 *
 *  - startCell(c, awakeN): per-server state and initial events of a
 *    cell initCell() has partitioned, seeded and sized;
 *  - probe(c, s, t): server @p s's Probe at time @p t, for the p2c
 *    pick;
 *  - closeIntegrals(c, now): close every server's energy and
 *    state-time integral at @p now (the hour sweep);
 *  - beginTransition(c, s, now, boot): start a sleep->serving wake
 *    or (boot) an off->serving boot;
 *  - powerOff(c, s, now): move an asleep or idle server to Off;
 *  - idleForPowerOff(c, s, now): may the autoscaler power @p s off;
 *  - rateChanged(c, now): c.rate just changed (hour boundary or MMPP
 *    flip);
 *  - reserveSize(): per-lane event-queue reservation;
 *  - stale(lane, payload), fire(lane, now, payload, parcel): the
 *    lane model sim::ShardedEventQueue::run drives — which records
 *    the engine retracted by generation, and the handler every other
 *    popped record reaches;
 *  - kFastMode: stamps the result and picks the mean-latency sum
 *    (assembleResult);
 *  - onBarrier(now), optional: defaults to hourBarrier(now).
 */

#ifndef WSC_PERFSIM_ENSEMBLE_CORE_HH
#define WSC_PERFSIM_ENSEMBLE_CORE_HH

#include <algorithm>
#include <chrono>
#include <cmath>

#include "perfsim/ensemble_sim.hh"
#include "sim/sharded_queue.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace wsc {
namespace perfsim {
namespace detail {

constexpr unsigned kLatencyBins = 1024;

/**
 * Lane-record payload layout shared by both engines: an engine-
 * defined kind in bits 60-62 (bit 63 is the sharded queue's), a
 * 28-bit generation in bits 32-59 for records the model may retract,
 * and a 32-bit argument (server, job or generation) in the low word.
 */
constexpr unsigned kKindShift = 60;
constexpr unsigned kGenShift = 32;
constexpr std::uint32_t kGenMask = (std::uint32_t(1) << 28) - 1;

inline std::uint32_t
genBits(std::uint32_t gen)
{
    return gen & kGenMask;
}

inline std::uint64_t
lanePayload(unsigned kind, std::uint32_t arg, std::uint32_t gen = 0)
{
    return (std::uint64_t(kind) << kKindShift) |
           (std::uint64_t(genBits(gen)) << kGenShift) | arg;
}

inline unsigned
payloadKind(std::uint64_t p)
{
    return unsigned(p >> kKindShift) & 7u;
}

inline std::uint32_t
payloadGen(std::uint64_t p)
{
    return std::uint32_t(p >> kGenShift) & kGenMask;
}

inline std::uint32_t
payloadArg(std::uint64_t p)
{
    return std::uint32_t(p);
}

/** A p2c candidate's snapshot: can it start a job now, its load (in
 * service plus queued), and its queue depth. */
struct Probe {
    bool open;
    std::uint64_t load;
    std::uint32_t queued;
};

/**
 * The per-cell state both engines share. A cell is a dispatch domain
 * (a contiguous block of servers) and a lane of the sharded queue;
 * within a window only the thread executing the cell's lane touches
 * it, and every accumulator is merged in cell-index order, which is
 * what makes the run's observables shard-count-invariant.
 */
struct CellBase {
    std::uint32_t idx = 0;
    std::uint32_t n = 0;
    /** Dispatch-side draws: p2c picks, wake picks, spill targets.
     * Split from the arrival stream so every policy faces the
     * bit-identical arrival process (policies differ only in how
     * many dispatch draws they burn). SplitMix64 (the sanctioned
     * fast generator, util/random.hh) rather than Rng: these streams
     * draw once or twice per event, and the counter-based generator
     * is several times cheaper than mt19937_64 + std distributions
     * while keeping the identity-seeded determinism contract. */
    SplitMix64 rng{0};
    /** Arrival-side draws: arrival gaps (or window counts and
     * spacings), service times, MMPP dwells. */
    SplitMix64 arr{0};

    /** Dense membership lists (swap-remove, O(1) moves): awake =
     * serving, idle or in transition, asleep = suspended, off =
     * powered off. pos[s] is s's index within its current list. */
    std::vector<std::uint32_t> awake, asleep, off, pos;

    double baseRate = 0.0; //!< this hour's arrival rate, calm
    double rate = 0.0;     //!< with the burst multiplier applied
    bool inBurst = false;

    // Accumulators, merged in cell order.
    std::array<double, kServerStates> stateSeconds{};
    double energyWs = 0.0; //!< watt-seconds since the last sweep
    std::vector<double> hourEnergyWs;
    std::uint64_t offered = 0, completed = 0, violations = 0,
                  spilled = 0, wakes = 0, boots = 0, sleeps = 0,
                  offs = 0;
    std::vector<std::uint64_t> hourCompleted, hourViolations;
    double latencySum = 0.0; //!< in recording order
    std::vector<std::uint64_t> latBins;
    std::uint64_t latOverflow = 0;
    /** Per-hour latency mass (fast mode's mean-latency sum) and
     * active-server-seconds (swept alongside hourEnergyWs); both feed
     * the equivalence-gate samples. */
    std::vector<double> hourLatencySum, hourActiveSeconds;
    double sweptActiveSeconds = 0.0;

    void
    moveList(std::uint32_t s, std::vector<std::uint32_t> &from,
             std::vector<std::uint32_t> &to)
    {
        std::uint32_t i = pos[s];
        from[i] = from.back();
        pos[from[i]] = i;
        from.pop_back();
        pos[s] = std::uint32_t(to.size());
        to.push_back(s);
    }

    /** Uniform pick from a nonempty list; a singleton costs no draw. */
    std::uint32_t
    pickFrom(const std::vector<std::uint32_t> &list)
    {
        return list.size() == 1 ? list[0] : list[rng.pick(list.size())];
    }
};

template <typename Engine, typename Cell>
struct EnsembleCore {
    const EnsembleConfig &cfg;
    sim::ShardedEventQueue sq;
    std::vector<Cell> cells;
    double horizon;
    double binWidth;
    /** Reciprocals of secondsPerHour/binWidth: hourOf and the latency
     * histogram run once per completion, and the two divides were
     * measurable there. */
    double invHourSeconds;
    double invBinWidth;
    double peakRate;
    /** Power draw as a flat table indexed by ServerState. */
    std::array<double, kServerStates> wattsTable;
    unsigned nextBoundary = 1;
    std::uint64_t capClamps = 0;

    explicit EnsembleCore(const EnsembleConfig &cfg)
        : cfg(cfg), sq(cfg.cells, cfg.shards, cfg.queue),
          horizon(double(cfg.hours) * cfg.secondsPerHour),
          binWidth(4.0 * cfg.qosLatencySeconds / kLatencyBins),
          invHourSeconds(1.0 / cfg.secondsPerHour),
          invBinWidth(1.0 / binWidth),
          peakRate(cfg.peakUtilization * double(cfg.servers) *
                   double(cfg.serverSlots) / cfg.meanServiceSeconds),
          // Active, Idle, Sleep, Waking, Off, Booting.
          wattsTable{cfg.power.busyWatts, cfg.power.idleWatts,
                     cfg.power.sleepWatts, cfg.power.transitionWatts,
                     cfg.power.offWatts, cfg.power.transitionWatts}
    {
    }

    Engine &
    self()
    {
        return static_cast<Engine &>(*this);
    }

    unsigned
    hourOf(double now) const
    {
        auto h = unsigned(now * invHourSeconds);
        return std::min(h, cfg.hours - 1);
    }

    /** Calm arrival rate of cell @p c in @p hour. */
    double
    hourRate(const Cell &c, unsigned hour) const
    {
        return peakRate * cfg.profile[hour] * double(c.n) /
               double(cfg.servers);
    }

    /** c.baseRate with the MMPP burst multiplier applied. */
    double
    burstRate(const Cell &c) const
    {
        return c.baseRate * (c.inBurst ? cfg.mmpp.burstMultiplier : 1.0);
    }

    void
    recordLatency(Cell &c, double latency, double completion)
    {
        ++c.completed;
        unsigned h = hourOf(completion);
        ++c.hourCompleted[h];
        c.latencySum += latency;
        c.hourLatencySum[h] += latency;
        if (latency >= cfg.qosLatencySeconds) {
            ++c.violations;
            ++c.hourViolations[h];
        }
        auto bin = std::size_t(latency * invBinWidth);
        if (bin < kLatencyBins)
            ++c.latBins[bin];
        else
            ++c.latOverflow;
    }

    /** Partition, seed and size cell @p ci, set its hour-0 rate, and
     * fill its membership lists. Initial condition: everyone awake
     * and idle, except that PowerOff starts with only its hour-0
     * target on (no boot latency charged for the initial state).
     * Servers [0, returned count) are awake, the rest off. */
    std::uint32_t
    initCell(std::uint32_t ci)
    {
        Cell &c = cells[ci];
        c.idx = ci;
        auto lo = std::uint32_t(std::uint64_t(cfg.servers) * ci /
                                cfg.cells);
        auto hi = std::uint32_t(std::uint64_t(cfg.servers) * (ci + 1) /
                                cfg.cells);
        c.n = hi - lo;
        c.rng = SplitMix64(
            seedFor(cfg.seed, "ensemble-dispatch", std::uint64_t(ci)));
        c.arr = SplitMix64(
            seedFor(cfg.seed, "ensemble-arrivals", std::uint64_t(ci)));
        c.pos.resize(c.n);
        c.hourEnergyWs.assign(cfg.hours, 0.0);
        c.hourCompleted.assign(cfg.hours, 0);
        c.hourViolations.assign(cfg.hours, 0);
        c.hourLatencySum.assign(cfg.hours, 0.0);
        c.hourActiveSeconds.assign(cfg.hours, 0.0);
        c.latBins.assign(kLatencyBins, 0);

        c.baseRate = hourRate(c, 0);
        c.rate = c.baseRate;
        std::uint32_t awakeN = cfg.policy == EnsemblePolicy::PowerOff
                                   ? autoscaleTarget(c)
                                   : c.n;
        for (std::uint32_t s = 0; s < c.n; ++s) {
            auto &list = s < awakeN ? c.awake : c.off;
            c.pos[s] = std::uint32_t(list.size());
            list.push_back(s);
        }
        return awakeN;
    }

    void
    setup()
    {
        cells.resize(cfg.cells);
        for (std::uint32_t ci = 0; ci < cfg.cells; ++ci)
            self().startCell(cells[ci], initCell(ci));
    }

    void
    beginWake(Cell &c, std::uint32_t s, double now)
    {
        ++c.wakes;
        self().beginTransition(c, s, now, false);
    }

    void
    beginBoot(Cell &c, std::uint32_t s, double now)
    {
        ++c.boots;
        self().beginTransition(c, s, now, true);
    }

    /** Wake a random sleeper (the asleep list must be nonempty). */
    std::uint32_t
    wakeSleeper(Cell &c, double now)
    {
        std::uint32_t s = c.pickFrom(c.asleep);
        beginWake(c, s, now);
        return s;
    }

    /** Wake capacity on demand: suspend resume if possible, else a
     * full boot. Only called when the awake list is empty, so one of
     * the other lists is not. */
    std::uint32_t
    wakeOne(Cell &c, double now)
    {
        if (!c.asleep.empty())
            return wakeSleeper(c, now);
        WSC_ASSERT(!c.off.empty(), "cell lost all its servers");
        std::uint32_t s = c.pickFrom(c.off);
        beginBoot(c, s, now);
        return s;
    }

    /** Power-of-two-choices pick over the awake list at time @p t,
     * filling @p pr with the winner's probe. AlwaysOn spreads (less
     * loaded wins); the consolidating policies pack (fuller-but-open
     * wins), so idle servers drain and sleep. With nobody awake it
     * wakes capacity on demand: the woken server is in transition
     * with an empty queue. */
    std::uint32_t
    pickServer(Cell &c, double t, Probe &pr)
    {
        if (c.awake.empty()) {
            pr = {false, 0, 0};
            return wakeOne(c, t);
        }
        if (c.awake.size() == 1) {
            pr = self().probe(c, c.awake[0], t);
            return c.awake[0];
        }
        std::uint32_t a = c.awake[c.rng.pick(c.awake.size())];
        std::uint32_t b = c.awake[c.rng.pick(c.awake.size())];
        Probe pa = self().probe(c, a, t);
        if (a == b) {
            pr = pa;
            return a;
        }
        Probe pb = self().probe(c, b, t);
        bool second;
        if (cfg.policy == EnsemblePolicy::AlwaysOn)
            second = pb.load < pa.load || (pb.load == pa.load && b < a);
        else if (pa.open != pb.open)
            second = pb.open;
        else if (pa.open)
            second = pb.load > pa.load || (pb.load == pa.load && b < a);
        else
            second = pb.queued < pa.queued ||
                     (pb.queued == pa.queued && b < a);
        pr = second ? pb : pa;
        return second ? b : a;
    }

    std::uint32_t
    autoscaleTarget(const Cell &c)
    {
        // Forecast busy servers for the hour, sized so their slots
        // run at the autoscale utilization, plus the reserve margin.
        double needBusy = c.baseRate * cfg.meanServiceSeconds /
                          (double(cfg.serverSlots) *
                           cfg.autoscaleUtilization);
        auto target = std::uint32_t(
            std::ceil(needBusy * (1.0 + cfg.reserveMargin)));
        auto floor_ = std::uint32_t(std::max(
            1.0, std::ceil(cfg.reserveMargin * double(c.n))));
        target = std::max(target, floor_);
        target = std::min(target, c.n);
        if (cfg.powerCapWatts > 0.0) {
            double maxTotal = std::floor(cfg.powerCapWatts /
                                         cfg.power.busyWatts);
            auto maxCell = std::uint32_t(std::max(
                1.0, std::floor(maxTotal * double(c.n) /
                                double(cfg.servers))));
            if (target > maxCell) {
                target = maxCell;
                ++capClamps;
            }
        }
        return target;
    }

    void
    autoscale(Cell &c, double now)
    {
        std::uint32_t target = autoscaleTarget(c);
        auto cur = std::uint32_t(c.awake.size());
        if (cur < target) {
            std::uint32_t need = target - cur;
            // Suspend resume is seconds, boot is tens of seconds:
            // always drain the asleep pool first.
            for (; need > 0 && !c.asleep.empty(); --need)
                beginWake(c, c.asleep.back(), now);
            for (; need > 0 && !c.off.empty(); --need)
                beginBoot(c, c.off.back(), now);
        } else if (cur > target) {
            std::uint32_t excess = cur - target;
            for (; excess > 0 && !c.asleep.empty(); --excess) {
                self().powerOff(c, c.asleep.back(), now);
                ++c.offs;
            }
            if (excess > 0) {
                // Only idle awake servers may power off; never a
                // serving or transitioning one. Collected in awake-
                // list order (deterministic), applied after.
                std::vector<std::uint32_t> idlers;
                for (std::uint32_t s : c.awake) {
                    if (self().idleForPowerOff(c, s, now)) {
                        idlers.push_back(s);
                        if (idlers.size() == excess)
                            break;
                    }
                }
                for (std::uint32_t s : idlers) {
                    self().powerOff(c, s, now);
                    ++c.offs;
                }
            }
        }
    }

    /** Close every server's integral at @p now, crediting the energy
     * since the last sweep to @p hour. */
    void
    sweepHour(Cell &c, double now, unsigned hour)
    {
        self().closeIntegrals(c, now);
        c.hourEnergyWs[hour] += c.energyWs;
        c.energyWs = 0.0;
        double active = c.stateSeconds[unsigned(ServerState::Active)];
        c.hourActiveSeconds[hour] += active - c.sweptActiveSeconds;
        c.sweptActiveSeconds = active;
    }

    void
    programHour(Cell &c, unsigned hour, double now)
    {
        c.baseRate = hourRate(c, hour);
        c.rate = burstRate(c);
        // Before the autoscaler: the exact engine's reschedule draws
        // from the arrival stream.
        self().rateChanged(c, now);
        if (cfg.policy == EnsemblePolicy::PowerOff)
            autoscale(c, now);
    }

    /** Hour-boundary control plane, run single-threaded at the first
     * barrier at or past each boundary: sweep hour k-1, then program
     * hour k. */
    void
    hourBarrier(double now)
    {
        while (nextBoundary <= cfg.hours &&
               double(nextBoundary) * cfg.secondsPerHour <= now) {
            unsigned k = nextBoundary++;
            for (Cell &c : cells) {
                sweepHour(c, now, k - 1);
                if (k < cfg.hours)
                    programHour(c, k, now);
            }
        }
    }

    void
    onBarrier(double now)
    {
        hourBarrier(now);
    }

    /** Merge the cells (in cell-index order) into the run's result. */
    EnsembleResult
    assembleResult(sim::ShardedEventQueue::RunStats &stats)
    {
        EnsembleResult r;
        r.servers = cfg.servers;
        r.cells = cfg.cells;
        r.hours = cfg.hours;
        r.secondsPerHour = cfg.secondsPerHour;
        r.policy = cfg.policy;
        r.capClamps = capClamps;

        std::array<double, kServerStates> stateSeconds{};
        std::vector<std::uint64_t> bins(kLatencyBins, 0);
        r.hourKWh.assign(cfg.hours, 0.0);
        r.hourViolationFraction.assign(cfg.hours, 0.0);
        std::vector<std::uint64_t> hourCompleted(cfg.hours, 0);
        std::vector<std::uint64_t> hourViolations(cfg.hours, 0);

        for (const Cell &c : cells) {
            r.offered += c.offered;
            r.completed += c.completed;
            r.violations += c.violations;
            r.spilled += c.spilled;
            r.wakes += c.wakes;
            r.boots += c.boots;
            r.sleeps += c.sleeps;
            r.offs += c.offs;
            r.latencyOverflow += c.latOverflow;
            // Each engine keeps its own summation order (part of its
            // pinned bytes): exact in recording order, fast by hour.
            if (!Engine::kFastMode)
                r.meanLatency += c.latencySum;
            for (unsigned k = 0; k < kServerStates; ++k)
                stateSeconds[k] += c.stateSeconds[k];
            for (unsigned i = 0; i < kLatencyBins; ++i)
                bins[i] += c.latBins[i];
            for (unsigned h = 0; h < cfg.hours; ++h) {
                r.hourKWh[h] += c.hourEnergyWs[h];
                hourCompleted[h] += c.hourCompleted[h];
                hourViolations[h] += c.hourViolations[h];
                if (Engine::kFastMode)
                    r.meanLatency += c.hourLatencySum[h];
            }
        }

        // Each simulated hour stands for a real 3600-second hour: mean
        // watts over the compressed hour times 3600 s.
        double wsToKWh = 1.0 / (1000.0 * cfg.secondsPerHour);
        for (unsigned h = 0; h < cfg.hours; ++h) {
            r.hourKWh[h] *= wsToKWh;
            r.kWhPerDay += r.hourKWh[h];
            if (hourCompleted[h] > 0)
                r.hourViolationFraction[h] =
                    double(hourViolations[h]) /
                    double(hourCompleted[h]);
        }

        using S = ServerState;
        r.meanActiveServers = stateSeconds[unsigned(S::Active)] / horizon;
        r.meanAwakeServers =
            (stateSeconds[unsigned(S::Active)] +
             stateSeconds[unsigned(S::Idle)] +
             stateSeconds[unsigned(S::Waking)] +
             stateSeconds[unsigned(S::Booting)]) /
            horizon;
        for (unsigned k = 0; k < kServerStates; ++k)
            r.stateFractions[k] =
                stateSeconds[k] / (horizon * double(cfg.servers));

        if (r.completed > 0) {
            r.meanLatency /= double(r.completed);
            // Jobs past the last bin clamp the quantile to the
            // histogram's upper edge; latencyOverflow counts them.
            auto quantile = [&](double q) {
                double need = q * double(r.completed);
                std::uint64_t cum = 0;
                for (unsigned i = 0; i < kLatencyBins; ++i) {
                    cum += bins[i];
                    if (double(cum) >= need)
                        return (double(i) + 0.5) * binWidth;
                }
                return double(kLatencyBins) * binWidth;
            };
            r.p50 = quantile(0.50);
            r.p95 = quantile(0.95);
            r.p99 = quantile(0.99);
            r.qosViolationFraction =
                double(r.violations) / double(r.completed);
        } else {
            r.meanLatency = 0.0;
        }
        std::uint64_t onTime = r.completed - r.violations;
        r.qosAttainment =
            r.offered > 0 ? double(onTime) / double(r.offered) : 1.0;
        r.score = r.kWhPerDay / std::max(r.qosAttainment, 0.01);

        auto kernel = sq.counters();
        r.eventsScheduled = kernel.scheduled;
        r.eventsDispatched = kernel.dispatched;
        r.crossCellMessages = stats.messages;
        r.windows = stats.windows;
        r.shardEvents = std::move(stats.shardDispatched);
        r.meanWindowImbalance = stats.meanWindowImbalance;
        r.computeSeconds = stats.computeSeconds;
        r.barrierWaitSeconds = stats.barrierWaitSeconds;
        r.drainSeconds = stats.drainSeconds;
        r.controlSeconds = stats.controlSeconds;
        r.lanesStolen = stats.lanesStolen;

        r.fastMode = Engine::kFastMode;
        std::size_t samples = std::size_t(cfg.cells) * cfg.hours;
        r.cellHourUtilization.assign(samples, 0.0);
        r.cellHourLatencyMean.assign(samples, 0.0);
        r.cellHourCompleted.assign(samples, 0);
        for (unsigned ci = 0; ci < cfg.cells; ++ci) {
            const Cell &c = cells[ci];
            for (unsigned h = 0; h < cfg.hours; ++h) {
                std::size_t i = std::size_t(ci) * cfg.hours + h;
                r.cellHourUtilization[i] =
                    c.hourActiveSeconds[h] /
                    (double(c.n) * cfg.secondsPerHour);
                r.cellHourCompleted[i] = c.hourCompleted[h];
                if (c.hourCompleted[h] > 0)
                    r.cellHourLatencyMean[i] =
                        c.hourLatencySum[h] /
                        double(c.hourCompleted[h]);
            }
        }
        return r;
    }
};

/** Build, run and time one engine over a validated config. */
template <typename Engine>
EnsembleResult
runEngine(const EnsembleConfig &cfg)
{
    Engine sim(cfg);
    sim.sq.reserve(sim.reserveSize());
    sim.setup();

    unsigned workers = cfg.workers;
    if (workers == 0)
        workers = std::min(cfg.shards,
                           std::max(1u, ThreadPool::defaultThreads()));

    auto t0 = std::chrono::steady_clock::now();
    auto stats = sim.sq.run(sim.horizon, cfg.networkLatencySeconds,
                            workers, sim,
                            [&](sim::Time now) { sim.onBarrier(now); });
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    EnsembleResult r = sim.assembleResult(stats);
    r.wallSeconds = wall;
    return r;
}

/** The fast-mode/2 engine (ensemble_fast.cc); runEnsemble validates
 * the config and dispatches here when cfg.fast.enabled. */
EnsembleResult runFastEngine(const EnsembleConfig &cfg);

} // namespace detail
} // namespace perfsim
} // namespace wsc

#endif // WSC_PERFSIM_ENSEMBLE_CORE_HH
