/**
 * @file
 * CalendarQueue vs binary-heap EventQueue: the calendar backend must
 * dispatch in exactly the heap's (time, seq) total order under every
 * workload shape that has ever broken a calendar queue — tie storms,
 * far-future outliers, regime shifts, cancel churn, and pushes behind
 * the serving cursor. Most tests drive two full EventQueues (one per
 * backend) through an identical schedule and compare dispatch traces
 * event by event, so slot recycling, compaction, and the counters are
 * exercised too, not just the bare ordering structure.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/calendar_queue.hh"
#include "sim/event_queue.hh"
#include "util/random.hh"

namespace {

using wsc::sim::CalendarQueue;
using wsc::sim::EventEntry;
using wsc::sim::EventId;
using wsc::sim::EventQueue;
using wsc::sim::QueueKind;
using wsc::sim::Time;

TEST(QueueKindTest, ParseAndName)
{
    EXPECT_STREQ(wsc::sim::queueKindName(QueueKind::Heap), "heap");
    EXPECT_STREQ(wsc::sim::queueKindName(QueueKind::Calendar),
                 "calendar");
}

// --- Bare-structure tests -------------------------------------------

TEST(CalendarQueueTest, DrainsInTotalOrder)
{
    CalendarQueue cq;
    wsc::SplitMix64 rng(42);
    std::vector<EventEntry> entries;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        entries.push_back(
            {rng.uniform() * 100.0, i + 1, std::uint32_t(i), 1});
        cq.push(entries.back());
    }
    std::sort(entries.begin(), entries.end(),
              [](const EventEntry &a, const EventEntry &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.seq < b.seq;
              });
    for (const EventEntry &want : entries) {
        ASSERT_FALSE(cq.empty());
        EventEntry got = cq.popMin();
        EXPECT_EQ(got.when, want.when);
        EXPECT_EQ(got.seq, want.seq);
    }
    EXPECT_TRUE(cq.empty());
}

TEST(CalendarQueueTest, SameTimestampStormDispatchesFifo)
{
    // Adversarial tie storm: one timestamp shared by every entry. No
    // bucket width can subdivide it; order must fall back to seq and
    // the width-resample loop must not spin.
    CalendarQueue cq;
    for (std::uint64_t i = 0; i < 20000; ++i)
        cq.push({7.25, i + 1, std::uint32_t(i), 1});
    for (std::uint64_t i = 0; i < 20000; ++i) {
        EventEntry got = cq.popMin();
        ASSERT_EQ(got.seq, i + 1) << "tie broken out of FIFO order";
    }
    EXPECT_TRUE(cq.empty());
}

TEST(CalendarQueueTest, TieStormInterleavedWithDrain)
{
    // Push ties while draining the same timestamp: new arrivals land
    // in the serving (sorted) bucket and must still come out FIFO.
    CalendarQueue cq;
    std::uint64_t seq = 1;
    for (int i = 0; i < 100; ++i)
        cq.push({3.0, seq++, 0, 1});
    std::uint64_t expect = 1;
    for (int round = 0; round < 100; ++round) {
        EXPECT_EQ(cq.popMin().seq, expect++);
        cq.push({3.0, seq++, 0, 1});
        cq.push({3.0, seq++, 0, 1});
    }
    while (!cq.empty())
        EXPECT_EQ(cq.popMin().seq, expect++);
    EXPECT_EQ(expect, seq);
}

TEST(CalendarQueueTest, FarFutureOutlierDoesNotStretchWidth)
{
    // A dense head plus one entry ~10^7 gaps away: the head must stay
    // spread over many buckets (the outlier sits in overflow), not
    // collapse into one serving bucket.
    CalendarQueue cq;
    wsc::SplitMix64 rng(7);
    std::uint64_t seq = 1;
    cq.push({1.0e6, seq++, 0, 1}); // far-future outlier
    Time t = 0.0;
    std::vector<Time> times;
    for (int i = 0; i < 4000; ++i) {
        t += rng.exponential(0.001);
        times.push_back(t);
        cq.push({t, seq++, 0, 1});
    }
    std::sort(times.begin(), times.end());
    for (Time want : times)
        EXPECT_EQ(cq.popMin().when, want);
    EXPECT_EQ(cq.popMin().when, 1.0e6);
    EXPECT_TRUE(cq.empty());
    EXPECT_GT(cq.rebuilds(), 0u);
    // The resampled width must track the dense head's mean gap
    // (1e-3), not the 1e6 outlier: anything under one second means
    // the (max-min)/n failure mode did not happen.
    EXPECT_LT(cq.bucketWidth(), 1.0);
}

TEST(CalendarQueueTest, PushBehindServingCursorStaysOrdered)
{
    // Drain into a later bucket, then push earlier events (still in
    // the future relative to popped times is NOT required by the bare
    // structure): the cursor must back up and serve them first.
    CalendarQueue cq;
    std::uint64_t seq = 1;
    for (int i = 0; i < 64; ++i)
        cq.push({100.0 + i, seq++, 0, 1});
    EXPECT_EQ(cq.popMin().when, 100.0);
    EXPECT_EQ(cq.popMin().when, 101.0);
    // Earlier than everything pending, later than everything popped.
    cq.push({100.5, seq++, 0, 1});
    EXPECT_EQ(cq.popMin().when, 100.5);
    EXPECT_EQ(cq.popMin().when, 102.0);
}

TEST(CalendarQueueTest, PushBelowAnchoredYearDemotesCleanly)
{
    // Drain past a sparse region so the year re-anchors far ahead,
    // then schedule before the new year's start.
    CalendarQueue cq;
    std::uint64_t seq = 1;
    cq.push({1.0, seq++, 0, 1});
    cq.push({5.0e5, seq++, 0, 1});
    EXPECT_EQ(cq.popMin().when, 1.0);
    EXPECT_EQ(cq.min().when, 5.0e5); // year jumped to the outlier
    cq.push({10.0, seq++, 0, 1});    // below the re-anchored year
    EXPECT_EQ(cq.popMin().when, 10.0);
    EXPECT_EQ(cq.popMin().when, 5.0e5);
    EXPECT_TRUE(cq.empty());
}

TEST(CalendarQueueTest, RegimeShiftTriggersRebuild)
{
    // Microsecond-gap regime, drained, then a millisecond-gap regime:
    // the overloaded-bucket trigger must resample the width rather
    // than serve thousand-entry buckets forever.
    CalendarQueue cq;
    std::uint64_t seq = 1;
    for (int i = 0; i < 4096; ++i)
        cq.push({double(i) * 1.0e-6, seq++, 0, 1});
    Time prev = -1.0;
    while (!cq.empty()) {
        Time w = cq.popMin().when;
        EXPECT_GE(w, prev);
        prev = w;
    }
    for (int i = 0; i < 4096; ++i)
        cq.push({100.0 + double(i) * 1.0e-3, seq++, 0, 1});
    prev = -1.0;
    while (!cq.empty()) {
        Time w = cq.popMin().when;
        EXPECT_GE(w, prev);
        prev = w;
    }
    EXPECT_GT(cq.rebuilds(), 0u);
}

TEST(CalendarQueueTest, RemoveIfFiltersBothTiers)
{
    CalendarQueue cq;
    std::uint64_t seq = 1;
    for (int i = 0; i < 1000; ++i)
        cq.push({double(i % 50), seq++, std::uint32_t(i), 1});
    cq.push({9.0e5, seq++, 10000, 1}); // lives in overflow, even slot
    std::size_t removed =
        cq.removeIf([](const EventEntry &e) { return e.slot % 2 == 0; });
    EXPECT_EQ(removed, 501u); // 500 even bucket slots + the overflow one
    EXPECT_EQ(cq.size(), 1001u - removed);
    Time prev = -1.0;
    while (!cq.empty()) {
        EventEntry e = cq.popMin();
        EXPECT_EQ(e.slot % 2, 1u);
        EXPECT_GE(e.when, prev);
        prev = e.when;
    }
}

// --- Backend cross-check through EventQueue -------------------------

/** Drives one EventQueue per backend through the same randomized
 * schedule/cancel/cancelAll script and asserts the dispatch traces
 * match event by event. */
void
crossCheck(std::uint64_t seed, int ops, double horizon,
           double cancelProb, double ownerProb, double tieProb)
{
    EventQueue hq(QueueKind::Heap);
    EventQueue cq(QueueKind::Calendar);
    std::vector<std::pair<Time, int>> hTrace, cTrace;

    wsc::SplitMix64 rng(seed);
    // Identical schedules on both queues. Ids are NOT asserted equal:
    // bulk-cancel sweeps visit entries in backend-specific storage
    // order, so freed slots recycle differently — which is fine, the
    // contract is over dispatch order and counters, both keyed on
    // (when, seq). Cancels line up through the parallel id vectors.
    std::vector<EventId> hIds, cIds;
    Time lastTie = 0.0;
    for (int i = 0; i < ops; ++i) {
        double u = rng.uniform();
        if (u < cancelProb && !hIds.empty()) {
            std::size_t pick = rng.pick(hIds.size());
            EXPECT_EQ(hq.cancel(hIds[pick]), cq.cancel(cIds[pick]));
            continue;
        }
        std::uint64_t owner =
            rng.uniform() < ownerProb ? 1 + rng.pick(4) : 0;
        if (u < cancelProb + 0.02 && owner != 0) {
            EXPECT_EQ(hq.cancelAll(owner), cq.cancelAll(owner));
            continue;
        }
        Time when;
        if (rng.uniform() < tieProb && lastTie >= hq.now()) {
            when = lastTie; // deliberate same-timestamp collision
        } else {
            when = std::max(hq.now(), cq.now()) +
                   rng.exponential(horizon / ops * 8.0);
            lastTie = when;
        }
        int tag = i;
        hIds.push_back(hq.schedule(
            when, [&hTrace, when, tag] { hTrace.push_back({when, tag}); },
            owner));
        cIds.push_back(cq.schedule(
            when, [&cTrace, when, tag] { cTrace.push_back({when, tag}); },
            owner));
        // Occasionally run both queues forward a slice.
        if (rng.uniform() < 0.05) {
            Time until = hq.now() + rng.exponential(horizon / 20.0);
            EXPECT_EQ(hq.run(until), cq.run(until));
            ASSERT_EQ(hq.now(), cq.now());
        }
    }
    EXPECT_EQ(hq.runAll(), cq.runAll());
    ASSERT_EQ(hTrace.size(), cTrace.size());
    for (std::size_t i = 0; i < hTrace.size(); ++i) {
        ASSERT_EQ(hTrace[i].first, cTrace[i].first) << "at event " << i;
        ASSERT_EQ(hTrace[i].second, cTrace[i].second)
            << "at event " << i;
    }
    EXPECT_EQ(hq.counters().dispatched, cq.counters().dispatched);
    EXPECT_EQ(hq.counters().cancelled, cq.counters().cancelled);
    EXPECT_EQ(hq.pending(), 0u);
    EXPECT_EQ(cq.pending(), 0u);
}

TEST(CalendarVsHeapTest, RandomScheduleMatchesEventByEvent)
{
    crossCheck(/*seed=*/1, /*ops=*/8000, /*horizon=*/100.0,
               /*cancelProb=*/0.0, /*ownerProb=*/0.0, /*tieProb=*/0.0);
}

TEST(CalendarVsHeapTest, CancelChurnMatchesEventByEvent)
{
    // Heavy lazy-cancel traffic forces stale-skip paths and the
    // compaction sweep (removeIf on the calendar side).
    crossCheck(/*seed=*/2, /*ops=*/8000, /*horizon=*/50.0,
               /*cancelProb=*/0.35, /*ownerProb=*/0.3,
               /*tieProb=*/0.0);
}

TEST(CalendarVsHeapTest, TieStormsMatchEventByEvent)
{
    crossCheck(/*seed=*/3, /*ops=*/8000, /*horizon=*/10.0,
               /*cancelProb=*/0.1, /*ownerProb=*/0.2,
               /*tieProb=*/0.5);
}

TEST(CalendarVsHeapTest, ManySeedsSmoke)
{
    for (std::uint64_t seed = 10; seed < 18; ++seed)
        crossCheck(seed, 1500, 25.0, 0.15, 0.25, 0.2);
}

TEST(CalendarVsHeapTest, HoldModelDeepQueueMatches)
{
    // Ensemble-shaped hold model: a deep queue where every dispatch
    // schedules a successor — the steady state the calendar's O(1)
    // claim is about. Exercises year advances and width resamples at
    // depth without tie traffic.
    constexpr int kDepth = 20000;
    constexpr int kHolds = 100000;
    auto runHold = [&](QueueKind kind) {
        EventQueue q(kind);
        wsc::SplitMix64 rng(99); // same stream for both kinds
        std::uint64_t sum = 0;
        std::function<void()> hold = [&] {
            sum += std::uint64_t(q.now() * 1e6) & 0xffff;
            if (q.counters().dispatched < std::uint64_t(kHolds))
                q.scheduleAfter(rng.exponential(1.0), [&] { hold(); });
        };
        for (int i = 0; i < kDepth; ++i)
            q.scheduleAfter(rng.exponential(1.0), [&] { hold(); });
        q.runAll();
        return std::make_pair(sum, q.counters().dispatched);
    };
    auto heapResult = runHold(QueueKind::Heap);
    auto calResult = runHold(QueueKind::Calendar);
    EXPECT_EQ(calResult.first, heapResult.first);
    EXPECT_EQ(calResult.second, heapResult.second);
    // Dispatches 1..kHolds-1 each schedule a successor (the counter
    // is incremented before the action runs), plus the seed chain.
    EXPECT_EQ(heapResult.second, std::uint64_t(kHolds) + kDepth - 1);
}

} // namespace
