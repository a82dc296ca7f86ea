/**
 * @file
 * ShardedEventQueue on its own, without an ensemble model on top: a
 * lane's events run in its own (time, seq) order, cross-lane messages
 * land in (dst lane, src lane, send order), every lane's trace is the
 * same at any shard and worker count — also when one hot lane makes
 * the other workers take lanes away from their home worker — the
 * phase seconds fit inside the run, and a post that lands inside the
 * current window panics.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sharded_queue.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using wsc::SplitMix64;
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

TEST(ShardedQueue, LaneRunsInOwnTimeSeqOrder)
{
    const unsigned lanes = 8;
    ShardedEventQueue sq(lanes, 4, QueueKind::Calendar);
    Trace trace(lanes);
    // Each lane gets ties at every time, scheduled out of time order;
    // the lane must see them sorted by time, ties in schedule order.
    for (unsigned l = 0; l < lanes; ++l)
        for (unsigned k = 0; k < 12; ++k) {
            Time when = 0.25 * double((k * 7 + l) % 4);
            sq.laneQueue(l).schedule(when, [&trace, &sq, l, k] {
                trace[l].push_back({sq.laneQueue(l).now(), k});
            });
        }
    sq.run(2.0, 0.5, 2);
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
        for (unsigned src = 0; src < lanes; ++src)
            sq.laneQueue(src).schedule(
                0.1 * double(lanes - src) / lanes,
                [&sq, &got, src] {
                    for (unsigned k = 0; k < 3; ++k)
                        for (unsigned dst = 0; dst < lanes; ++dst)
                            sq.post(src, dst, 1.5,
                                    [&sq, &got, src, dst, k] {
                                        got[dst].push_back(
                                            {sq.laneQueue(dst).now(),
                                             src * 10 + k});
                                    });
                });
        auto stats = sq.run(2.0, 1.0, workers);
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
        sq.laneQueue(l).schedule(when, [this, l, id] { fire(l, id); });
    }

    void
    fire(unsigned l, std::uint64_t id)
    {
        Time now = sq.laneQueue(l).now();
        trace[l].push_back({now, id});
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
            sq.post(l, dst, now + kLookahead + grid(r.uniform()),
                    [this, dst, tag] {
                        trace[dst].push_back(
                            {sq.laneQueue(dst).now(), tag});
                    });
        }
    }

    ShardedEventQueue::RunStats
    run(unsigned workers)
    {
        unsigned windows = 0;
        return sq.run(kHorizon, kLookahead, workers, [&](Time now) {
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
            sq.laneQueue(l).schedule(0.2, [&sq, l] {
                // The window is [0, 1): a message due at 0.7 would
                // reach a lane that may already be past it.
                sq.post(l, (l + 1) % 4, 0.7, [] {});
            });
        EXPECT_THROW(sq.run(2.0, 1.0, workers), wsc::PanicError)
            << "workers " << workers;
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
    auto stats = sq.run(1.0, 0.5, 64);
    EXPECT_EQ(stats.windows, 2u);
}

} // namespace
