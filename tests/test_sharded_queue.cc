/**
 * @file
 * ShardedEventQueue on its own, without an ensemble model on top: a
 * lane's records run in its own (time, seq) order, cross-lane
 * messages land in (dst lane, src lane, send order) with their
 * parcels, every lane's trace is the same at any shard and worker
 * count — also when one hot lane makes the other workers take lanes
 * away from their home worker — the phase seconds fit inside the
 * run, a post that lands inside the current window panics, and a
 * typed lane with generation-retracted records dispatches exactly
 * what an EventQueue with cancel() does, on both backends.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/sharded_queue.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using wsc::SplitMix64;
using wsc::sim::EventQueue;
using wsc::sim::Parcel;
using wsc::sim::QueueKind;
using wsc::sim::ShardedEventQueue;
using wsc::sim::Time;

/** One dispatched event: its time and an id unique within its lane
 * run (a lane-local counter, or the sender's tag for a message). */
struct Rec {
    Time when;
    std::uint64_t id;

    bool
    operator==(const Rec &o) const
    {
        return when == o.when && id == o.id;
    }
};

using Trace = std::vector<std::vector<Rec>>; // indexed by lane

/** A run() model that retracts nothing and hands every record to
 * @p fire. */
template <typename Fire>
struct FireAll {
    Fire fire;

    bool stale(unsigned, std::uint64_t) const { return false; }
};

template <typename Fire>
FireAll<Fire>
fireAll(Fire fire)
{
    return {std::move(fire)};
}

TEST(ShardedQueue, LaneRunsInOwnTimeSeqOrder)
{
    const unsigned lanes = 8;
    ShardedEventQueue sq(lanes, 4, QueueKind::Calendar);
    Trace trace(lanes);
    // Each lane gets ties at every time, scheduled out of time order;
    // the lane must see them sorted by time, ties in schedule order.
    for (unsigned l = 0; l < lanes; ++l)
        for (unsigned k = 0; k < 12; ++k)
            sq.schedule(l, 0.25 * double((k * 7 + l) % 4), k);
    sq.run(2.0, 0.5, 2,
           fireAll([&](unsigned l, Time when, std::uint64_t k,
                       const Parcel *) { trace[l].push_back({when, k}); }));
    for (unsigned l = 0; l < lanes; ++l) {
        ASSERT_EQ(trace[l].size(), 12u) << "lane " << l;
        for (std::size_t i = 1; i < trace[l].size(); ++i) {
            const Rec &a = trace[l][i - 1], &b = trace[l][i];
            EXPECT_TRUE(a.when < b.when ||
                        (a.when == b.when && a.id < b.id))
                << "lane " << l << " at " << i;
        }
    }
}

TEST(ShardedQueue, MessagesArriveInDstSrcSendOrder)
{
    const unsigned lanes = 6;
    for (unsigned workers : {1u, 3u}) {
        ShardedEventQueue sq(lanes, 3, QueueKind::Heap);
        Trace got(lanes);
        // Every lane sends three messages to every lane (itself
        // included), all due at the same instant, from an event at a
        // lane-specific time inside the first window — so send
        // times never order the arrivals, only the barrier does.
        // Each message's parcel repeats its tag.
        for (unsigned src = 0; src < lanes; ++src)
            sq.schedule(src, 0.1 * double(lanes - src) / lanes, 0);
        auto stats = sq.run(
            2.0, 1.0, workers,
            fireAll([&](unsigned l, Time when, std::uint64_t tag,
                        const Parcel *parcel) {
                if (!parcel) {
                    for (unsigned k = 0; k < 3; ++k)
                        for (unsigned dst = 0; dst < lanes; ++dst)
                            sq.post(l, dst, 1.5, l * 10 + k,
                                    {double(l), double(k)});
                    return;
                }
                EXPECT_EQ(parcel->a * 10 + parcel->b, double(tag));
                got[l].push_back({when, tag});
            }));
        EXPECT_EQ(stats.messages, 3u * lanes * lanes);
        for (unsigned dst = 0; dst < lanes; ++dst) {
            std::vector<Rec> want;
            for (unsigned src = 0; src < lanes; ++src)
                for (unsigned k = 0; k < 3; ++k)
                    want.push_back({1.5, src * 10 + k});
            EXPECT_EQ(got[dst], want)
                << "dst " << dst << " workers " << workers;
        }
    }
}

/**
 * A small lane model with local follow-ups, cross-lane posts and a
 * control plane that schedules into every lane. Times sit on a
 * 1/16 s grid so same-time ties between local events, messages and
 * control-plane events are common; each lane draws from its own
 * stream. With @p hotLane set, lane 0 carries most of the events,
 * and with @p stealGate lane 0 in its first window waits until lane
 * 1 has started — both are home to worker 0, so one of them must run
 * on another worker.
 */
struct LaneModel {
    static constexpr unsigned kLanes = 16;
    static constexpr Time kLookahead = 0.5;
    static constexpr Time kHorizon = 8.0;

    ShardedEventQueue sq;
    std::vector<SplitMix64> rng;
    Trace trace;
    std::vector<std::uint64_t> nextId;
    bool hot;
    std::atomic<bool> *gate;

    LaneModel(unsigned shards, bool hotLane,
              std::atomic<bool> *stealGate)
        : sq(kLanes, shards, QueueKind::Calendar), trace(kLanes),
          nextId(kLanes, 0), hot(hotLane), gate(stealGate)
    {
        for (unsigned l = 0; l < kLanes; ++l)
            rng.emplace_back(0x5eed0000u + l);
        // A time-0 event on every lane: lane 1 always opens the gate
        // in the first window.
        for (unsigned l = 0; l < kLanes; ++l)
            schedule(l, 0.0);
        for (unsigned l = 0; l < kLanes; ++l) {
            unsigned seeds = hot && l == 0 ? 64 : 2;
            for (unsigned k = 0; k < seeds; ++k)
                schedule(l, grid(rng[l].uniform()));
        }
    }

    static Time
    grid(double x)
    {
        return double(unsigned(x * 16.0)) / 16.0;
    }

    void
    schedule(unsigned l, Time when)
    {
        std::uint64_t id = (std::uint64_t(l) << 32) | nextId[l]++;
        sq.schedule(l, when, id);
    }

    bool stale(unsigned, std::uint64_t) const { return false; }

    /** A message is traced under its sender's tag; a local record
     * also spawns follow-ups and posts. */
    void
    fire(unsigned l, Time now, std::uint64_t id, const Parcel *parcel)
    {
        trace[l].push_back({now, id});
        if (parcel)
            return;
        if (gate && now < kLookahead) {
            if (l == 1)
                gate->store(true, std::memory_order_release);
            while (l == 0 && !gate->load(std::memory_order_acquire)) {
            }
        }
        SplitMix64 &r = rng[l];
        if (r.uniform() < (hot && l == 0 ? 0.97 : 0.8))
            schedule(l, now + grid(r.uniform()));
        if (r.uniform() < 0.3) {
            auto dst = unsigned(r.pick(kLanes));
            std::uint64_t tag = (std::uint64_t(l) << 48) | id;
            sq.post(l, dst, now + kLookahead + grid(r.uniform()), tag);
        }
    }

    ShardedEventQueue::RunStats
    run(unsigned workers)
    {
        unsigned windows = 0;
        return sq.run(
            kHorizon, kLookahead, workers, *this,
            [&](Time now) {
                if (++windows % 3 == 0)
                    for (unsigned l = 0; l < kLanes; ++l)
                        schedule(l, now);
            });
    }
};

TEST(ShardedQueue, TracesIdenticalAcrossShardsAndWorkers)
{
    for (bool hot : {false, true}) {
        Trace ref;
        std::uint64_t refDispatched = 0;
        for (unsigned shards : {1u, 2u, 4u, 16u})
            for (unsigned workers : {1u, 2u, 4u}) {
                if (workers > shards)
                    continue;
                std::atomic<bool> gate{false};
                LaneModel m(shards, hot,
                            hot && workers > 1 ? &gate : nullptr);
                auto stats = m.run(workers);
                EXPECT_EQ(stats.shardDispatched.size(), shards);
                EXPECT_EQ(stats.dispatched, m.sq.counters().dispatched);
                if (workers == 1) {
                    EXPECT_EQ(stats.lanesStolen, 0u);
                } else if (hot) {
                    EXPECT_GT(stats.lanesStolen, 0u)
                        << "shards " << shards << " workers " << workers;
                }
                if (ref.empty()) {
                    ref = m.trace;
                    refDispatched = stats.dispatched;
                    continue;
                }
                EXPECT_EQ(stats.dispatched, refDispatched);
                EXPECT_GT(refDispatched, 500u);
                for (unsigned l = 0; l < LaneModel::kLanes; ++l)
                    EXPECT_EQ(m.trace[l], ref[l])
                        << "lane " << l << " shards " << shards
                        << " workers " << workers << " hot " << hot;
            }
    }
}

// The phase seconds split run()'s wall time into disjoint parts, so
// they are non-negative and sum to no more than the wall time.
TEST(ShardedQueue, PhaseSecondsFitInsideTheRun)
{
    for (unsigned workers : {1u, 4u}) {
        LaneModel m(4, true, nullptr);
        auto t0 = std::chrono::steady_clock::now();
        auto stats = m.run(workers);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        EXPECT_GT(stats.computeSeconds, 0.0);
        EXPECT_GE(stats.barrierWaitSeconds, 0.0);
        EXPECT_GE(stats.drainSeconds, 0.0);
        EXPECT_GE(stats.controlSeconds, 0.0);
        EXPECT_LE(stats.computeSeconds + stats.barrierWaitSeconds +
                      stats.drainSeconds + stats.controlSeconds,
                  wall)
            << "workers " << workers;
    }
}

TEST(ShardedQueue, PostInsideWindowPanics)
{
    // On a helper thread too: the panic reaches the caller of run().
    for (unsigned workers : {1u, 2u}) {
        ShardedEventQueue sq(4, 2);
        for (unsigned l = 0; l < 4; ++l)
            sq.schedule(l, 0.2, 0);
        EXPECT_THROW(
            sq.run(2.0, 1.0, workers,
                   fireAll([&sq](unsigned l, Time, std::uint64_t,
                                 const Parcel *) {
                       // The window is [0, 1): a message due at 0.7
                       // would reach a lane that may already be past
                       // it.
                       sq.post(l, (l + 1) % 4, 0.7, 0);
                   })),
            wsc::PanicError)
            << "workers " << workers;
    }
}

/**
 * One lane of random churn, written once over two kernels: plain
 * records spawn follow-ups on a 1/16 s grid (so same-time ties are
 * common), and kTimers retractable timers are armed, re-armed and
 * cancelled at random. The typed lane retracts a timer by bumping
 * its generation (stale() reports the superseded record, which is
 * skipped or swept); the EventQueue side cancels the closure for
 * real. Both log every dispatch as (time, payload). The population
 * is large enough that the lane sweeps stale records many times.
 */
template <typename Kernel>
struct ChurnModel {
    static constexpr unsigned kTimers = 64;
    static constexpr std::uint64_t kTimerBit = std::uint64_t(1) << 62;

    Kernel &kernel;
    SplitMix64 rng{0xc0ffee};
    std::vector<std::uint32_t> gen = std::vector<std::uint32_t>(kTimers);
    std::vector<Rec> log;
    std::uint64_t nextId = 0;

    explicit ChurnModel(Kernel &k) : kernel(k)
    {
        for (unsigned i = 0; i < 256; ++i)
            kernel.add(grid(rng.uniform()), nextId++);
    }

    static Time
    grid(double x)
    {
        return double(unsigned(x * 16.0)) / 16.0;
    }

    static std::uint64_t
    timerPayload(unsigned k, std::uint32_t g)
    {
        return kTimerBit | (std::uint64_t(g) << 8) | k;
    }

    /** A live record fired. */
    void
    fire(Time now, std::uint64_t payload)
    {
        log.push_back({now, payload});
        if (rng.uniform() < 0.95)
            kernel.add(now + grid(rng.uniform()), nextId++);
        if (rng.uniform() < 0.3) {
            auto k = unsigned(rng.pick(kTimers));
            kernel.retract(k, gen[k]);
            ++gen[k];
            kernel.arm(k, now + 2.0 * grid(rng.uniform()),
                       timerPayload(k, gen[k]));
        }
        if (rng.uniform() < 0.2) {
            auto k = unsigned(rng.pick(kTimers));
            kernel.retract(k, gen[k]);
            ++gen[k];
        }
    }
};

/** The typed lane: timers carry their generation. */
struct TypedKernel {
    ShardedEventQueue sq;
    ChurnModel<TypedKernel> *model = nullptr;

    explicit TypedKernel(QueueKind kind) : sq(1, 1, kind) {}

    void add(Time when, std::uint64_t id) { sq.schedule(0, when, id); }
    void retract(unsigned, std::uint32_t) {}
    void
    arm(unsigned, Time when, std::uint64_t payload)
    {
        sq.schedule(0, when, payload);
    }

    bool
    stale(unsigned, std::uint64_t payload) const
    {
        using M = ChurnModel<TypedKernel>;
        auto k = unsigned(payload & 0xff);
        return (payload & M::kTimerBit) &&
               payload != M::timerPayload(k, model->gen[k]);
    }

    void
    fire(unsigned, Time now, std::uint64_t payload, const Parcel *)
    {
        model->fire(now, payload);
    }
};

/** The closure queue: timers are cancelled by id. */
struct ClosureKernel {
    EventQueue eq;
    ChurnModel<ClosureKernel> *model = nullptr;
    std::vector<wsc::sim::EventId> timer =
        std::vector<wsc::sim::EventId>(ChurnModel<ClosureKernel>::kTimers);

    explicit ClosureKernel(QueueKind kind) : eq(kind) {}

    void
    add(Time when, std::uint64_t id)
    {
        eq.schedule(when, [this, when, id] { model->fire(when, id); });
    }

    void
    retract(unsigned k, std::uint32_t)
    {
        if (timer[k])
            eq.cancel(timer[k]);
        timer[k] = 0;
    }

    void
    arm(unsigned k, Time when, std::uint64_t payload)
    {
        timer[k] = eq.schedule(when, [this, k, when, payload] {
            timer[k] = 0;
            model->fire(when, payload);
        });
    }
};

TEST(ShardedQueue, TypedLaneMatchesEventQueueWithCancels)
{
    for (QueueKind kind : {QueueKind::Heap, QueueKind::Calendar}) {
        const char *name = wsc::sim::queueKindName(kind);
        TypedKernel typed(kind);
        // The model's constructor schedules, so the kernel points at
        // it only once it exists; nothing fires before run().
        ChurnModel<TypedKernel> tm(typed);
        typed.model = &tm;
        typed.sq.run(20.0, 0.25, 1, typed);

        ClosureKernel closures(kind);
        ChurnModel<ClosureKernel> cm(closures);
        closures.model = &cm;
        closures.eq.run(20.0);

        EXPECT_GT(closures.eq.counters().cancelled, 2000u) << name;
        EXPECT_GT(cm.log.size(), 8000u) << name;
        EXPECT_EQ(tm.log, cm.log) << name;
        EXPECT_EQ(typed.sq.counters().scheduled,
                  closures.eq.counters().scheduled)
            << name;
        EXPECT_EQ(typed.sq.counters().dispatched,
                  closures.eq.counters().dispatched)
            << name;
    }
}

TEST(ShardedQueue, ShardsBlockLanesAndCapWorkers)
{
    ShardedEventQueue sq(10, 4);
    EXPECT_EQ(sq.lanes(), 10u);
    EXPECT_EQ(sq.shards(), 4u);
    std::vector<unsigned> want{0, 0, 0, 1, 1, 2, 2, 2, 3, 3};
    for (unsigned l = 0; l < 10; ++l)
        EXPECT_EQ(sq.shardOf(l), want[l]) << l;
    EXPECT_EQ(ShardedEventQueue(3, 8).shards(), 3u);
    // Workers past the shard count are clamped, not spawned.
    auto stats = sq.run(
        1.0, 0.5, 64,
        fireAll([](unsigned, Time, std::uint64_t, const Parcel *) {}));
    EXPECT_EQ(stats.windows, 2u);
}

} // namespace
