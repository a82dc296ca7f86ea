/**
 * @file
 * Discrete-event simulation kernel: event queue and simulation clock.
 *
 * The performance model is a request-level discrete-event simulation;
 * this kernel provides deterministic, stable-ordered event dispatch.
 */

#ifndef WSC_SIM_EVENT_QUEUE_HH
#define WSC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/calendar_queue.hh"
#include "sim/inline_action.hh"

namespace wsc {
namespace sim {

/**
 * Event-ordering backend selection for EventQueue (and, per shard,
 * ShardedEventQueue). Both backends dispatch in the identical
 * (time, seq) total order, so the choice is an execution knob: it can
 * never change simulation results, only their cost. The binary heap
 * remains the oracle — O(log n) but simple enough to trust — while
 * the calendar queue (see calendar_queue.hh) is amortized O(1) under
 * the hold-model schedules the ensemble generates.
 */
enum class QueueKind : std::uint8_t {
    Heap,     //!< binary min-heap (oracle; the seed structure)
    Calendar, //!< bucketed calendar with far-future overflow tier
};

/** Canonical spelling of @p kind ("heap"/"calendar"). */
const char *queueKindName(QueueKind kind);

/**
 * Opaque handle identifying a scheduled event (for cancellation).
 *
 * Encodes (slot, generation): slots are pooled and recycled across
 * events, and the generation stamp distinguishes the current tenant
 * from any stale handle to a previous one. 0 is never a valid id.
 */
using EventId = std::uint64_t;

/**
 * A deterministic discrete-event queue.
 *
 * Events at equal timestamps dispatch in scheduling order (FIFO), which
 * keeps runs reproducible across platforms. Cancellation is lazy — a
 * cancelled event's heap entry is skipped at dispatch — but validity is
 * a generation-stamp comparison rather than a hash lookup, so the
 * cancel-heavy workloads (webmail session timers, ytube QoS deadlines)
 * pay two array reads per dispatch instead of an unordered_set probe.
 * When stale entries pile up past half the heap, a compaction pass
 * rebuilds the heap without them, bounding memory under
 * schedule/cancel churn.
 */
class EventQueue
{
  public:
    /**
     * Lifetime counters of kernel activity, maintained unconditionally
     * (plain integer increments; bench_kernel guards that they stay in
     * the noise). The observability layer snapshots these into run
     * reports.
     */
    struct Counters {
        std::uint64_t scheduled = 0;   //!< schedule() calls
        std::uint64_t dispatched = 0;  //!< events run
        std::uint64_t cancelled = 0;   //!< successful cancel() calls
        std::uint64_t compactions = 0; //!< heap rebuilds (stale purge)
        std::size_t peakHeap = 0;      //!< max heap entries ever held
    };

    /** Per-event trace record delivered to the tracer, if installed. */
    struct TraceRecord {
        enum class Kind { Schedule, Dispatch, Cancel };
        Kind kind;
        Time now;     //!< clock when the record was emitted
        Time when;    //!< event's scheduled firing time
        EventId id;
    };

    /**
     * Trace sink. Null (the default) disables tracing; the hot path
     * then pays only an is-engaged test per operation.
     */
    using Tracer = std::function<void(const TraceRecord &)>;

    /** @param kind Ordering backend; an execution knob only (both
     * backends dispatch the identical (time, seq) order). */
    explicit EventQueue(QueueKind kind = QueueKind::Heap);

    // The queue holds closures that frequently capture `this` of model
    // objects; copying would dangle. Non-copyable, non-movable.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Time now() const { return now_; }

    /**
     * Schedule @p action at absolute time @p when.
     *
     * The action is an InlineAction: any callable converts implicitly,
     * and callables within InlineAction::kInlineBytes are stored
     * without heap allocation (see inline_action.hh).
     *
     * @param owner Optional bulk-cancellation tag. Events sharing a
     *     non-zero owner can be retired together with cancelAll();
     *     owner 0 (the default) means untagged. The fault injector
     *     tags every event belonging to one simulated server with
     *     that server's id so a crash retires them in one pass.
     * @return id usable with cancel().
     * Scheduling in the past is a caller bug and panics.
     *
     * Takes the action by rvalue reference: callables still convert
     * implicitly (the conversion materializes a temporary that binds
     * here), but the 80-byte InlineAction is moved exactly once, into
     * the slot pool, instead of through a by-value parameter first.
     */
    EventId schedule(Time when, InlineAction &&action,
                     std::uint64_t owner = 0);

    /** Schedule @p action @p delay seconds from now. */
    EventId
    scheduleAfter(Time delay, InlineAction &&action,
                  std::uint64_t owner = 0)
    {
        return schedule(now_ + delay, std::move(action), owner);
    }

    /** Cancel a pending event. Returns false if already run/cancelled. */
    bool cancel(EventId id);

    /**
     * Bulk-cancel every pending event tagged with @p owner (which must
     * be non-zero; untagged events are never bulk-cancelled). One
     * O(heap) sweep instead of an O(n) search per cancelled event.
     * @return number of events cancelled.
     */
    std::size_t cancelAll(std::uint64_t owner);

    /**
     * Bulk-cancel every pending event the predicate selects. The
     * predicate sees (id, firing time, owner tag) and must be pure:
     * it is called once per live entry in unspecified order.
     * @return number of events cancelled.
     */
    std::size_t cancelIf(
        const std::function<bool(EventId, Time, std::uint64_t)> &pred);

    /** True when no runnable events remain. O(1). */
    bool empty() const { return live_ == 0; }

    /** Number of pending (non-cancelled) events. O(1). */
    std::size_t pending() const { return live_; }

    /**
     * Dispatch the next event.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until the queue drains or the clock passes @p until.
     * Events scheduled at exactly @p until still execute; the clock is
     * advanced to @p until if the queue drains earlier.
     * @return number of events dispatched.
     */
    std::uint64_t run(Time until);

    /** Run until the queue drains completely. */
    std::uint64_t runAll();

    /** Total events dispatched over the queue's lifetime. */
    std::uint64_t dispatched() const { return counters_.dispatched; }

    /** Lifetime kernel activity counters. */
    const Counters &counters() const { return counters_; }

    /**
     * Install (or, with an empty function, remove) a per-event trace
     * sink. The tracer sees schedules, dispatches, and successful
     * cancellations. Intended for debugging and the --trace paths;
     * simulation behaviour is unaffected.
     */
    void setTracer(Tracer tracer) { tracer_ = std::move(tracer); }

    /** Pre-size the heap and slot pool for @p events in flight. */
    void reserve(std::size_t events);

    /** Stale (cancelled) entries currently occupying heap storage. */
    std::size_t staleEntries() const { return stale_; }

    /** The ordering backend this queue was constructed with. */
    QueueKind kind() const { return kind_; }

  private:
    /**
     * Ordering entries carry metadata only; the action and the
     * bulk-cancel owner tag live in the slot pool (slotAction and
     * slotOwner, parallel to slotGen). Keeping the 24-byte entry free
     * of the 80-byte InlineAction makes the push/pop-heap sift moves
     * cheap, and lets cancel() destroy the closure immediately instead
     * of holding captures until the stale entry is skipped or
     * compacted away. The owner tag moves out too: it is read only by
     * the bulk-cancel sweeps, never on the sift path, and shaving it
     * fits two entries per cache line during sifts. The same 24-byte
     * record is what CalendarQueue buckets (EventEntry).
     */
    using Entry = EventEntry;

    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            // Min-heap on (time, seq); seq breaks ties FIFO.
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Which ordering structure below is engaged. A plain branch on
     * this enum (not a virtual call) keeps the hot loop inlinable;
     * only the engaged structure ever holds entries. */
    QueueKind kind_;
    /** Heap order maintained manually (std::push_heap/pop_heap) so
     * compaction can filter the underlying vector in place. Engaged
     * iff kind_ == QueueKind::Heap. */
    std::vector<Entry> heap;
    /** Engaged iff kind_ == QueueKind::Calendar. */
    CalendarQueue cal_;
    /** Per-slot current generation; a heap entry is live iff its
     * stamp matches. Bumped on dispatch and on cancel. */
    std::vector<std::uint32_t> slotGen;
    /** Per-slot pending action, engaged while the slot's event is
     * live. Indexed in lockstep with slotGen. */
    std::vector<InlineAction> slotAction;
    /** Per-slot bulk-cancel owner tag (see schedule()); 0 = untagged.
     * Indexed in lockstep with slotGen. */
    std::vector<std::uint64_t> slotOwner;
    std::vector<std::uint32_t> freeSlots;
    Time now_ = 0.0;
    std::uint64_t nextSeq = 1;
    Counters counters_;
    Tracer tracer_;
    std::size_t live_ = 0;   //!< scheduled, not yet dispatched/cancelled
    std::size_t stale_ = 0;  //!< cancelled entries still in the heap

    bool liveEntry(const Entry &e) const
    {
        return slotGen[e.slot] == e.gen;
    }

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t slot);

    /** Pop stale entries off the ordering-structure minimum. */
    void skipStale();

    /** Dispatch the heap top, which must be live (post skipStale). */
    void dispatchTop();

    /** Shared dispatch tail: consume @p e (already removed from the
     * ordering structure), advance the clock, run the action. */
    void dispatchEntry(const Entry &e);

    /** Rebuild the ordering structure without stale entries when they
     * dominate. */
    void maybeCompact();

    /** run(until) hot loops, one per backend. */
    std::uint64_t runHeap(Time until);
    std::uint64_t runCalendar(Time until);

    /** Entries currently held by the engaged ordering structure. */
    std::size_t
    entriesHeld() const
    {
        return kind_ == QueueKind::Heap ? heap.size() : cal_.size();
    }
};

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_EVENT_QUEUE_HH
