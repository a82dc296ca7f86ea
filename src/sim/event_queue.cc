#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace wsc {
namespace sim {

namespace {

/** Compaction is worthwhile only past this many stale entries; below
 * it the rebuild costs more than the skipped pops save. */
constexpr std::size_t kCompactMinStale = 64;

/** Default pre-sizing: matches the typical in-flight event count of
 * the interactive workloads so early runs never reallocate. */
constexpr std::size_t kDefaultReserve = 1024;

constexpr EventId
makeId(std::uint32_t slot, std::uint32_t gen)
{
    return (EventId(slot) << 32) | gen;
}

} // namespace

const char *
queueKindName(QueueKind kind)
{
    return kind == QueueKind::Heap ? "heap" : "calendar";
}

EventQueue::EventQueue(QueueKind kind) : kind_(kind)
{
    reserve(kDefaultReserve);
}

void
EventQueue::reserve(std::size_t events)
{
    if (kind_ == QueueKind::Heap)
        heap.reserve(events);
    else
        cal_.reserve(events);
    slotGen.reserve(events);
    slotAction.reserve(events);
    slotOwner.reserve(events);
    freeSlots.reserve(events);
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (!freeSlots.empty()) {
        std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        return slot;
    }
    WSC_ASSERT(slotGen.size() < (std::size_t(1) << 32),
               "event slot space exhausted");
    // Generations start at 1 so id 0 (slot 0, gen 0) is never valid.
    slotGen.push_back(1);
    slotAction.emplace_back();
    slotOwner.push_back(0);
    return std::uint32_t(slotGen.size() - 1);
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    // Invalidates every outstanding handle and heap entry stamped with
    // the previous generation. Wrap-around after 2^32 tenancies of one
    // slot is acceptable: a handle that old cannot still be held by a
    // correct caller.
    ++slotGen[slot];
    freeSlots.push_back(slot);
}

EventId
EventQueue::schedule(Time when, InlineAction &&action,
                     std::uint64_t owner)
{
    WSC_ASSERT(when >= now_, "event scheduled in the past: " << when
                                                             << " < "
                                                             << now_);
    WSC_ASSERT(action, "null event action");
    std::uint32_t slot = acquireSlot();
    std::uint32_t gen = slotGen[slot];
    slotAction[slot] = std::move(action);
    slotOwner[slot] = owner;
    Entry e{when, nextSeq++, slot, gen};
    if (kind_ == QueueKind::Heap) {
        heap.push_back(e);
        std::push_heap(heap.begin(), heap.end(), Later{});
    } else {
        cal_.push(e);
    }
    ++live_;
    ++counters_.scheduled;
    if (entriesHeld() > counters_.peakHeap)
        counters_.peakHeap = entriesHeld();
    EventId id = makeId(slot, gen);
    if (tracer_)
        tracer_({TraceRecord::Kind::Schedule, now_, when, id});
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    std::uint32_t slot = std::uint32_t(id >> 32);
    std::uint32_t gen = std::uint32_t(id);
    if (slot >= slotGen.size() || slotGen[slot] != gen)
        return false; // already dispatched or cancelled
    releaseSlot(slot);
    // Destroy the closure now; the stale heap entry carries only
    // metadata, so captures are not held hostage until compaction.
    slotAction[slot].reset();
    --live_;
    ++stale_;
    ++counters_.cancelled;
    if (tracer_)
        tracer_({TraceRecord::Kind::Cancel, now_, 0.0, id});
    maybeCompact();
    return true;
}

std::size_t
EventQueue::cancelIf(
    const std::function<bool(EventId, Time, std::uint64_t)> &pred)
{
    WSC_ASSERT(pred, "null bulk-cancel predicate");
    // One sweep over entry storage; ordering-structure invariants are
    // unaffected because cancellation only flips generation stamps.
    // Entries already stale are skipped so the predicate sees each
    // live event exactly once.
    std::size_t n = 0;
    auto visit = [&](const Entry &e) {
        if (!liveEntry(e))
            return;
        EventId id = makeId(e.slot, e.gen);
        if (!pred(id, e.when, slotOwner[e.slot]))
            return;
        releaseSlot(e.slot);
        slotAction[e.slot].reset();
        --live_;
        ++stale_;
        ++counters_.cancelled;
        ++n;
        if (tracer_)
            tracer_({TraceRecord::Kind::Cancel, now_, e.when, id});
    };
    if (kind_ == QueueKind::Heap) {
        for (const Entry &e : heap)
            visit(e);
    } else {
        cal_.forEach(visit);
    }
    if (n)
        maybeCompact();
    return n;
}

std::size_t
EventQueue::cancelAll(std::uint64_t owner)
{
    WSC_ASSERT(owner != 0, "cancelAll needs a non-zero owner tag");
    return cancelIf([owner](EventId, Time, std::uint64_t tag) {
        return tag == owner;
    });
}

void
EventQueue::maybeCompact()
{
    // Rebuild once cancelled entries outnumber half the live pending
    // set (and are numerous enough for the O(n) rebuild to pay off);
    // keeps entry storage proportional to live events under
    // schedule/cancel churn instead of growing with cancel volume.
    if (stale_ < kCompactMinStale || stale_ * 2 <= live_)
        return;
    if (kind_ == QueueKind::Heap) {
        heap.erase(std::remove_if(heap.begin(), heap.end(),
                                  [this](const Entry &e) {
                                      return !liveEntry(e);
                                  }),
                   heap.end());
        std::make_heap(heap.begin(), heap.end(), Later{});
    } else {
        cal_.removeIf(
            [this](const Entry &e) { return !liveEntry(e); });
    }
    stale_ = 0;
    ++counters_.compactions;
}

void
EventQueue::skipStale()
{
    if (kind_ == QueueKind::Heap) {
        while (!heap.empty() && !liveEntry(heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), Later{});
            heap.pop_back();
            --stale_;
        }
    } else {
        while (!cal_.empty() && !liveEntry(cal_.min())) {
            cal_.popMin();
            --stale_;
        }
    }
}

void
EventQueue::dispatchEntry(const Entry &e)
{
    // Move the action out of the slot pool before releasing the slot,
    // so it survives dispatch even if it schedules further events
    // that reuse the slot.
    InlineAction action = std::move(slotAction[e.slot]);
    releaseSlot(e.slot);
    --live_;
    now_ = e.when;
    ++counters_.dispatched;
    if (tracer_)
        tracer_({TraceRecord::Kind::Dispatch, now_, e.when,
                 makeId(e.slot, e.gen)});
    action();
}

void
EventQueue::dispatchTop()
{
    std::pop_heap(heap.begin(), heap.end(), Later{});
    Entry e = heap.back();
    heap.pop_back();
    dispatchEntry(e);
}

bool
EventQueue::step()
{
    skipStale();
    if (kind_ == QueueKind::Heap) {
        if (heap.empty())
            return false;
        dispatchTop();
    } else {
        if (cal_.empty())
            return false;
        dispatchEntry(cal_.popMin());
    }
    return true;
}

std::uint64_t
EventQueue::runHeap(Time until)
{
    // Hand-fused skipStale + horizon check: one load of the heap top
    // decides stale-pop, past-horizon, or dispatch. This loop is the
    // hottest few instructions in the simulator, and the fused form
    // avoids re-deriving heap.front() once per helper call.
    std::uint64_t n = 0;
    while (!heap.empty()) {
        const Entry &top = heap.front();
        if (!liveEntry(top)) {
            std::pop_heap(heap.begin(), heap.end(), Later{});
            heap.pop_back();
            --stale_;
            continue;
        }
        if (top.when > until)
            break;
        dispatchTop();
        ++n;
    }
    return n;
}

std::uint64_t
EventQueue::runCalendar(Time until)
{
    // Same fused shape as runHeap; min() settles the calendar cursor
    // once and repeated calls between pushes are O(1).
    std::uint64_t n = 0;
    while (!cal_.empty()) {
        const Entry &top = cal_.min();
        if (!liveEntry(top)) {
            cal_.popMin();
            --stale_;
            continue;
        }
        if (top.when > until)
            break;
        dispatchEntry(cal_.popMin());
        ++n;
    }
    return n;
}

std::uint64_t
EventQueue::run(Time until)
{
    std::uint64_t n = kind_ == QueueKind::Heap ? runHeap(until)
                                               : runCalendar(until);
    if (now_ < until)
        now_ = until;
    return n;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

} // namespace sim
} // namespace wsc
