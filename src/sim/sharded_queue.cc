#include "sim/sharded_queue.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "util/logging.hh"

namespace wsc {
namespace sim {

namespace {

/** Spin iterations before a worker parks on the condition variable.
 * Ensemble windows are microseconds of work; parking between them
 * would cost a futex round trip per worker per window. The budget is
 * large enough to cover any window the control plane doesn't stall,
 * small enough that a genuinely idle worker yields the core fast. */
constexpr unsigned kSpinBudget = 1u << 14;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/**
 * A persistent spin-then-park worker team for one run() call.
 *
 * The main thread (worker 0) publishes work by bumping `epoch`
 * (release); the workers - 1 helper threads spin on it (acquire) and
 * then claim lanes. Worker w walks the shards starting at its first
 * home shard (shard s is at home on worker s * workers / shards), so
 * it drains its own block first and then takes whole lanes from the
 * others, each lane claimed through its shard's atomic cursor.
 * Completion is a round counter the main thread spins on: a worker
 * leaves its claim loop only once every cursor is exhausted and its
 * own lanes are done. Everything a worker wrote before its round
 * increment (queue mutations, outbox rows, stats slots) is visible to
 * the main thread after it observes the count, and everything the
 * main thread wrote before the epoch bump (window horizon, phase,
 * control-plane effects) is visible to the workers — the two atomics
 * carry all the happens-before edges the windows need, which is what
 * the TSan job checks end to end.
 */
class Team
{
  public:
    using WorkFn = std::function<void(unsigned)>;

    Team(unsigned workers, const std::vector<unsigned> &shardBegin)
        : shardBegin_(shardBegin),
          nShards_(unsigned(shardBegin.size() - 1)),
          cursors_(new Cursor[nShards_]), slots_(new Slot[workers]),
          homeFirst_(workers)
    {
        // First shard s with s * workers / nShards == w.
        for (unsigned w = 0; w < workers; ++w)
            homeFirst_[w] = unsigned(
                (std::uint64_t(w) * nShards_ + workers - 1) / workers);
        threads_.reserve(workers - 1);
        for (unsigned w = 1; w < workers; ++w)
            threads_.emplace_back([this, w] { helperMain(w); });
    }

    ~Team()
    {
        {
            std::lock_guard<std::mutex> g(m_);
            stop_.store(true, std::memory_order_relaxed);
            epoch_.fetch_add(1, std::memory_order_release);
        }
        cv_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    /** Run work(lane) once for every lane across the helpers and the
     * calling thread; returns when every helper has left the claim
     * loop (quiescence — without it a helper's final failed claim
     * could straddle the next round's cursor reset and take a
     * lane). */
    void
    fanOut(const WorkFn &work)
    {
        work_ = &work;
        for (unsigned s = 0; s < nShards_; ++s)
            cursors_[s].next.store(0, std::memory_order_relaxed);
        roundDone_.store(0, std::memory_order_relaxed);
        {
            // The empty critical section orders the epoch bump
            // against any helper that just decided to park: either
            // it saw the new epoch before waiting, or it is already
            // inside wait() and the notify below lands.
            std::lock_guard<std::mutex> g(m_);
            epoch_.fetch_add(1, std::memory_order_release);
        }
        cv_.notify_all();
        guardedClaimLoop(0);
        while (roundDone_.load(std::memory_order_acquire) <
               threads_.size())
            cpuRelax();
        // Rethrown only after quiescence, so no helper still runs
        // work() when the caller unwinds; lowest worker index first.
        std::exception_ptr error;
        for (unsigned w = 0; w < workers(); ++w) {
            std::exception_ptr e = std::exchange(slots_[w].error, nullptr);
            if (!error)
                error = e;
        }
        if (error)
            std::rethrow_exception(error);
    }

    /** Mean over workers of the last round's time in the claim
     * loop. */
    double
    meanBusySeconds() const
    {
        double sum = 0.0;
        for (unsigned w = 0; w < workers(); ++w)
            sum += slots_[w].busy;
        return sum / double(workers());
    }

    /** Lanes the last round ran away from their home worker. */
    std::uint64_t
    stolen() const
    {
        std::uint64_t sum = 0;
        for (unsigned w = 0; w < workers(); ++w)
            sum += slots_[w].stolen;
        return sum;
    }

  private:
    /** Own cache line each: the cursors are hammered by every
     * worker, the slots written by one worker per round. */
    struct alignas(64) Cursor {
        std::atomic<unsigned> next{0};
    };
    struct alignas(64) Slot {
        double busy = 0.0;
        std::uint64_t stolen = 0;
        std::exception_ptr error; //!< what work() threw this round
    };

    unsigned workers() const { return unsigned(homeFirst_.size()); }

    void
    claimLoop(unsigned w)
    {
        auto t0 = std::chrono::steady_clock::now();
        const WorkFn &work = *work_;
        std::uint64_t stolen = 0;
        unsigned s = homeFirst_[w];
        for (unsigned k = 0; k < nShards_; ++k, ++s) {
            if (s == nShards_)
                s = 0;
            const unsigned lo = shardBegin_[s];
            const unsigned n = shardBegin_[s + 1] - lo;
            const bool home =
                std::uint64_t(s) * workers() / nShards_ == w;
            std::atomic<unsigned> &cursor = cursors_[s].next;
            // The plain load skips exhausted shards without a
            // read-modify-write on a contended line.
            while (cursor.load(std::memory_order_relaxed) < n) {
                unsigned i =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    break;
                work(lo + i);
                stolen += !home;
            }
        }
        slots_[w].busy = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        slots_[w].stolen = stolen;
    }

    /** claimLoop, with a throwing work() (a panicking model event)
     * parked in the worker's slot for fanOut to rethrow: an exception
     * may not escape a thread, nor unwind the caller while helpers
     * still run. */
    void
    guardedClaimLoop(unsigned w)
    {
        try {
            claimLoop(w);
        } catch (...) {
            slots_[w].error = std::current_exception();
        }
    }

    void
    helperMain(unsigned w)
    {
        std::uint64_t seen = 0;
        for (;;) {
            unsigned spins = 0;
            while (epoch_.load(std::memory_order_acquire) == seen) {
                if (++spins >= kSpinBudget) {
                    std::unique_lock<std::mutex> lk(m_);
                    cv_.wait(lk, [&] {
                        return epoch_.load(
                                   std::memory_order_acquire) != seen;
                    });
                    break;
                }
                cpuRelax();
            }
            seen = epoch_.load(std::memory_order_acquire);
            if (stop_.load(std::memory_order_relaxed))
                return;
            guardedClaimLoop(w);
            roundDone_.fetch_add(1, std::memory_order_acq_rel);
        }
    }

    const std::vector<unsigned> &shardBegin_;
    const unsigned nShards_;
    std::unique_ptr<Cursor[]> cursors_;
    std::unique_ptr<Slot[]> slots_;
    std::vector<unsigned> homeFirst_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> roundDone_{0};
    std::atomic<bool> stop_{false};
    const WorkFn *work_ = nullptr;
    std::mutex m_;
    std::condition_variable cv_;
    /** Last: the helpers use every member above. */
    std::vector<std::thread> threads_;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

ShardedEventQueue::ShardedEventQueue(unsigned lanes, unsigned shards,
                                     QueueKind kind)
    : kind_(kind)
{
    WSC_ASSERT(lanes >= 1, "need at least one lane");
    shards = std::max(1u, std::min(shards, lanes));
    lanes_.resize(lanes);
    // Walking down leaves each shard's first lane in shardBegin_.
    laneShard_.resize(lanes);
    shardBegin_.assign(shards + 1, lanes);
    for (unsigned l = lanes; l-- > 0;) {
        laneShard_[l] = unsigned(std::uint64_t(l) * shards / lanes);
        shardBegin_[laneShard_[l]] = l;
    }
    outbox_.resize(std::size_t(lanes) * lanes);
}

void
ShardedEventQueue::rejectSchedule(const Lane &ln, Time when,
                                  std::uint64_t payload)
{
    WSC_ASSERT(!(payload & kReservedBit),
               "payload uses the reserved bit");
    panic("event scheduled in the past: " + std::to_string(when) +
          " < " + std::to_string(ln.now));
}

void
ShardedEventQueue::post(unsigned srcLane, unsigned dstLane, Time when,
                        std::uint64_t payload, const Parcel &parcel)
{
    WSC_ASSERT(srcLane < lanes() && dstLane < lanes(),
               "lane out of range");
    WSC_ASSERT(!(payload & kReservedBit),
               "payload uses the reserved bit");
    // A message landing inside the current window would arrive at a
    // lane that may already have advanced past it: the send delay
    // must cover the lookahead.
    WSC_ASSERT(when >= windowEnd_,
               "cross-lane post inside the lookahead window");
    outbox_[std::size_t(srcLane) * lanes() + dstLane].push_back(
        {when, {payload, parcel}});
}

std::uint64_t
ShardedEventQueue::drainLane(unsigned dst)
{
    // (src asc, send order): the lane assigns the same seq numbers
    // however many threads the drain fans over. Each message parks
    // in a mail slot; its record's payload names the slot.
    const unsigned nLanes = lanes();
    Lane &ln = lanes_[dst];
    std::uint64_t moved = 0;
    for (unsigned src = 0; src < nLanes; ++src) {
        auto &box = outbox_[std::size_t(src) * nLanes + dst];
        for (const Msg &m : box) {
            std::uint32_t slot;
            if (!ln.freeMail.empty()) {
                slot = ln.freeMail.back();
                ln.freeMail.pop_back();
                ln.mail[slot] = m.mail;
            } else {
                slot = std::uint32_t(ln.mail.size());
                ln.mail.push_back(m.mail);
            }
            push(ln, m.when, kReservedBit | slot);
        }
        moved += box.size();
        box.clear();
    }
    return moved;
}

ShardedEventQueue::RunStats
ShardedEventQueue::runWindows(Time until, Time lookahead, unsigned workers,
                              const LaneFn &runLane,
                              const BarrierFn &onBarrier)
{
    WSC_ASSERT(lookahead > 0.0, "lookahead must be positive");
    using Clock = std::chrono::steady_clock;
    RunStats stats;
    const unsigned nLanes = lanes();
    const unsigned nShards = shards();
    workers = std::max(1u, std::min(workers, nShards));

    // startDispatched anchors the run totals; mark is the rolling
    // per-window baseline for the imbalance stat.
    std::vector<std::uint64_t> startDispatched(nLanes), mark(nLanes);
    std::vector<std::uint64_t> drained(nLanes, 0);
    for (unsigned l = 0; l < nLanes; ++l)
        startDispatched[l] = mark[l] = lanes_[l].dispatched;
    std::vector<std::uint64_t> windowShard(nShards);
    double imbalanceSum = 0.0;
    std::uint64_t imbalanceWindows = 0;

    // The team exists for the whole run: thread creation and the
    // first page faults are paid once, and each window's two fan-out
    // phases cost an atomic bump plus bounded spinning.
    std::unique_ptr<Team> team;
    if (workers > 1)
        team = std::make_unique<Team>(workers, shardBegin_);

    Time t = windowStart_;
    while (t < until) {
        Time end = std::min(t + lookahead, until);
        windowEnd_ = end;

        // Phase 1: advance every lane to the common horizon. Lanes
        // write only their own records and their own outbox rows, so
        // the phase needs no locks.
        auto t0 = Clock::now();
        if (team) {
            team->fanOut([&](unsigned l) { runLane(l, end); });
            double busy = team->meanBusySeconds();
            stats.computeSeconds += busy;
            stats.barrierWaitSeconds +=
                std::max(0.0, secondsSince(t0) - busy);
            stats.lanesStolen += team->stolen();
        } else {
            for (unsigned l = 0; l < nLanes; ++l)
                runLane(l, end);
            stats.computeSeconds += secondsSince(t0);
        }

        // Per-window imbalance: how much of the window the busiest
        // shard carried.
        std::fill(windowShard.begin(), windowShard.end(), 0);
        std::uint64_t windowTotal = 0, windowMax = 0;
        for (unsigned l = 0; l < nLanes; ++l) {
            std::uint64_t d = lanes_[l].dispatched - mark[l];
            windowShard[laneShard_[l]] += d;
            windowTotal += d;
        }
        for (std::uint64_t d : windowShard)
            windowMax = std::max(windowMax, d);
        if (windowTotal > 0) {
            imbalanceSum += double(windowMax) * double(nShards) /
                            double(windowTotal);
            ++imbalanceWindows;
        }

        // Phase 2: deliver cross-lane messages. Each destination
        // lane is drained by one worker, so its schedule order (and
        // therefore seq assignment) matches the serial drain.
        auto t1 = Clock::now();
        if (team) {
            team->fanOut(
                [&](unsigned l) { drained[l] = drainLane(l); });
            for (unsigned l = 0; l < nLanes; ++l)
                stats.messages += drained[l];
        } else {
            for (unsigned l = 0; l < nLanes; ++l)
                stats.messages += drainLane(l);
        }
        stats.drainSeconds += secondsSince(t1);

        windowStart_ = t = end;
        ++stats.windows;
        if (onBarrier) {
            auto t2 = Clock::now();
            onBarrier(end);
            stats.controlSeconds += secondsSince(t2);
        }

        // Re-mark after the barrier so the next window's imbalance
        // counts only window work, not barrier deliveries.
        for (unsigned l = 0; l < nLanes; ++l)
            mark[l] = lanes_[l].dispatched;
    }

    stats.shardDispatched.assign(nShards, 0);
    for (unsigned l = 0; l < nLanes; ++l)
        stats.shardDispatched[laneShard_[l]] +=
            lanes_[l].dispatched - startDispatched[l];
    for (std::uint64_t d : stats.shardDispatched)
        stats.dispatched += d;
    if (imbalanceWindows > 0)
        stats.meanWindowImbalance =
            imbalanceSum / double(imbalanceWindows);
    return stats;
}

void
ShardedEventQueue::reserve(std::size_t eventsPerLane)
{
    for (Lane &ln : lanes_) {
        if (kind_ == QueueKind::Heap)
            ln.heap.reserve(eventsPerLane);
        else
            ln.cal.reserve(eventsPerLane);
    }
}

ShardedEventQueue::Counters
ShardedEventQueue::counters() const
{
    Counters sum;
    for (const Lane &ln : lanes_) {
        sum.scheduled += ln.scheduled;
        sum.dispatched += ln.dispatched;
    }
    return sum;
}

} // namespace sim
} // namespace wsc
