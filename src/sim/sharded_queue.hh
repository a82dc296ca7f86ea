/**
 * @file
 * Sharded event queue: conservative parallel DES execution over
 * typed lane records.
 *
 * Scales the DES kernel to warehouse-size simulations by partitioning
 * the model into LANES — fixed logical partitions that own disjoint
 * state — each with its own ordering structure. The lane grid is part
 * of the simulation topology (it never changes with the execution
 * width). SHARDS are an execution knob: a shard is the contiguous
 * block of lanes one worker runs first, the unit the balance counters
 * report over, and the cap on the worker count. Neither shards nor
 * workers change results.
 *
 * Typed records. A lane does not hold closures: it orders 24-byte
 * (when, seq, payload) records — the EventEntry the calendar queue
 * buckets, with its slot/gen words carrying one 64-bit payload the
 * model defines — in a CalendarQueue or, for QueueKind::Heap, a
 * binary heap. run() hands each popped record to the model's fire()
 * (typically a switch on a kind field in the payload), so an event
 * costs no type-erased closure, no slot-pool round trip and no
 * indirect call. There is no cancel(): a model that retracts an
 * event keeps a generation next to the state the event acts on and
 * stamps it into the payload, and its stale() reports a record whose
 * generation no longer matches. A stale record is skipped, not
 * counted as dispatched, so the scheduled and dispatched counters
 * read exactly what an EventQueue with a real cancel() would (the
 * randomized cross-check in test_sharded_queue pins this, record by
 * record). Stale records are also swept out of a lane whenever it
 * has grown a quarter past its size after the last sweep, which
 * keeps a lane's storage proportional to its live records under
 * retract churn, as EventQueue's compaction does.
 *
 * Execution is classic conservative windowing: all lanes advance to
 * a common horizon (the window end, one lookahead past the window
 * start), then a barrier delivers the cross-lane messages sent during
 * the window and runs the control-plane callback. Within a window,
 * lanes may not touch each other's state — every cross-lane
 * interaction must be a post() whose delay is at least the lookahead,
 * which is why the windows can run without rollback. The model's
 * lookahead is physical: the network/dispatch latency between servers
 * in different lanes. A message carries a record's payload plus a
 * Parcel of model data (the ensemble: a spilled job's arrival and
 * service times); delivery parks the parcel in the destination lane
 * and the handler receives it with the record.
 *
 * Worker execution: run() owns a persistent spin-then-park worker
 * team for the whole call (threads are created once, not per
 * window). Each window is two fan-out phases — run every lane to the
 * horizon, then drain mailboxes by destination lane — separated by
 * epoch barriers that are a single atomic store plus bounded
 * spinning in the common case. In both phases worker w first takes
 * the lanes of its home shards (blocked map, so a lane's records and
 * state stay on one core across windows), then takes whole unstarted
 * lanes from the other shards through each shard's atomic cursor, so
 * a burst in one shard is shared out instead of leaving the other
 * workers spinning. The control-plane callback runs single-threaded
 * between windows.
 *
 * Determinism argument (the contract the ensemble tests pin). Typed
 * records change what a lane stores, not the order it runs in, so
 * the argument is the one the closure queues had:
 *  - A lane's records execute in its own (time, FIFO-seq) order,
 *    whichever worker runs it; lanes share no state inside a window.
 *    Generation-stale records are skipped in that same order, and
 *    whether a record is stale depends only on the lane's own state.
 *  - Cross-lane messages are delivered at the barrier in (dst lane,
 *    src lane, send order) — a function of the lane grid only — so
 *    every lane sees the same schedule sequence (and so the same seq
 *    numbers) at any shard or worker count.
 *  - Randomness must come from per-lane streams derived by identity
 *    (Rng::stream), never from a queue- or thread-associated engine.
 */

#ifndef WSC_SIM_SHARDED_QUEUE_HH
#define WSC_SIM_SHARDED_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/calendar_queue.hh"
#include "sim/event_queue.hh"
#include "util/logging.hh"

namespace wsc {
namespace sim {

/** Model data a cross-lane message carries besides its payload. */
struct Parcel {
    double a = 0.0;
    double b = 0.0;
};

/**
 * Per-lane typed record queues executing a lane-partitioned model in
 * conservative lookahead windows.
 *
 * The model run() drives supplies two members:
 *     bool stale(unsigned lane, std::uint64_t payload) const;
 *     void fire(unsigned lane, Time when, std::uint64_t payload,
 *               const Parcel *parcel);
 * stale() says whether a record was retracted; it must stay true
 * once it is (generations only move forward), since a sweep may drop
 * the record early. fire() runs every other record, with @p parcel
 * null except for a delivered message (messages are never asked
 * about staleness).
 */
class ShardedEventQueue
{
  public:
    /** The payload bit the queue keeps for delivered messages; model
     * payloads leave it clear. */
    static constexpr std::uint64_t kReservedBit = std::uint64_t(1)
                                                  << 63;

    /** Aggregate activity of one run() call. */
    struct RunStats {
        std::uint64_t windows = 0;    //!< barriers executed
        std::uint64_t messages = 0;   //!< cross-lane posts delivered
        std::uint64_t dispatched = 0; //!< live records run across lanes
        /** Records dispatched per shard (summed over its lanes) over
         * the run, indexed by shard. Depends on the shard count: an
         * execution observable, never an identity one. */
        std::vector<std::uint64_t> shardDispatched;
        /** Mean over non-empty windows of (busiest shard's events x
         * shards / window total). 1.0 = perfectly balanced; shards()
         * = one shard did everything. With one shard, always 1.0.
         * Lane stealing lets workers share a busy shard's lanes, so
         * the speedup cap it implies is per lane, not per shard. */
        double meanWindowImbalance = 1.0;

        /** Where run()'s wall time went. Wall-clock execution
         * observables, like shardDispatched. computeSeconds +
         * barrierWaitSeconds is the wall time of the window compute
         * phases: compute is the mean worker's time running lanes,
         * barrier wait the rest (workers idle until the slowest
         * finishes). The four phases sum to run()'s wall time up to
         * loop overhead. */
        double computeSeconds = 0.0;
        double barrierWaitSeconds = 0.0;
        double drainSeconds = 0.0;   //!< mailbox delivery phases
        double controlSeconds = 0.0; //!< onBarrier callbacks
        /** Compute-phase lanes run by a worker other than their
         * shard's home worker. */
        std::uint64_t lanesStolen = 0;
    };

    /** Lifetime record counters summed over lanes. Both are shard-,
     * worker- and backend-invariant. */
    struct Counters {
        std::uint64_t scheduled = 0;  //!< schedule() calls + messages
        std::uint64_t dispatched = 0; //!< live records handled
    };

    /**
     * Invoked single-threaded after each window's message delivery
     * with the window end time; the control plane (autoscalers,
     * rate reprogramming) lives here and may touch every lane.
     */
    using BarrierFn = std::function<void(Time)>;

    /**
     * @param lanes  logical partition count — part of the model
     *     topology; every lane gets its own record queue
     * @param shards lane blocks, clamped to [1, lanes]; lane l
     *     belongs to shard l * shards / lanes (blocked map, so
     *     neighbouring lanes run on the same worker first)
     * @param kind   ordering backend for every lane; an execution
     *     knob (both kinds dispatch the identical order)
     */
    ShardedEventQueue(unsigned lanes, unsigned shards,
                      QueueKind kind = QueueKind::Heap);

    unsigned lanes() const { return unsigned(lanes_.size()); }
    unsigned shards() const { return unsigned(shardBegin_.size() - 1); }
    unsigned shardOf(unsigned lane) const { return laneShard_[lane]; }
    QueueKind kind() const { return kind_; }

    /** Committed global time: the start of the current window. */
    Time now() const { return windowStart_; }

    /**
     * Schedule a record carrying @p payload on @p lane at absolute
     * time @p when. Outside run() (setup, barrier) any lane may be
     * scheduled on; inside a window only the executing lane.
     * Scheduling before the lane's clock is a model bug and panics.
     */
    void
    schedule(unsigned lane, Time when, std::uint64_t payload)
    {
        Lane &ln = lanes_[lane];
        // The checks panic out of line, so this inlines into the
        // model's handlers.
        if (!(when >= ln.now) || (payload & kReservedBit)) [[unlikely]]
            rejectSchedule(ln, when, payload);
        push(ln, when, payload);
    }

    /**
     * Send a cross-lane interaction: a record carrying @p payload,
     * and @p parcel for its handler, to @p dstLane at absolute time
     * @p when. Legal from inside lane execution (src = the running
     * lane) and from the barrier. @p when must be at or after the end
     * of the current window — i.e. the send delay must be >= the
     * run's lookahead — which is asserted, since a shorter delay
     * would have to rewind a lane that already advanced past it.
     */
    void post(unsigned srcLane, unsigned dstLane, Time when,
              std::uint64_t payload, const Parcel &parcel = {});

    /**
     * Advance every lane to @p until in windows of @p lookahead,
     * handing each popped record to @p model (see the class
     * comment). @p workers is the thread count executing lanes
     * (clamped to [1, shards]; 1 runs everything in the caller — the
     * workers value is an execution knob and never changes results).
     * @p onBarrier, if set, runs single-threaded after each window.
     * See the file comment for why results do not depend on the
     * shard count or worker count.
     */
    template <typename Model>
    RunStats
    run(Time until, Time lookahead, unsigned workers, Model &&model,
        const BarrierFn &onBarrier = {})
    {
        return runWindows(until, lookahead, workers,
                          [&](unsigned l, Time end) {
                              runLane(l, end, model);
                          },
                          onBarrier);
    }

    /** Pre-size each lane's record storage. */
    void reserve(std::size_t eventsPerLane);

    /** Record counters summed over lanes. */
    Counters counters() const;

  private:
    /** A delivered message's payload and parcel, parked in its
     * destination lane until its record pops. */
    struct Mail {
        std::uint64_t payload;
        Parcel parcel;
    };

    /** One lane's state. Own cache lines: lanes run on different
     * workers, and their clocks and counters are written per
     * record. */
    struct alignas(64) Lane {
        Time now = 0.0;
        std::uint64_t nextSeq = 1;
        std::uint64_t scheduled = 0;
        std::uint64_t dispatched = 0;
        /** Records held when the next stale sweep runs. */
        std::size_t sweepAt = kMinSweep;
        /** Heap order on (when, seq); engaged iff kind_ == Heap. */
        std::vector<EventEntry> heap;
        /** Engaged iff kind_ == Calendar. */
        CalendarQueue cal;
        /** Delivered messages, indexed by the record's payload low
         * word; freeMail recycles the slots. */
        std::vector<Mail> mail;
        std::vector<std::uint32_t> freeMail;
    };

    struct Msg {
        Time when;
        Mail mail;
    };

    using LaneFn = std::function<void(unsigned, Time)>;

    /** Below this many records a sweep costs more than the stale
     * pops it saves. */
    static constexpr std::size_t kMinSweep = 128;

    QueueKind kind_;
    std::vector<Lane> lanes_;
    std::vector<unsigned> laneShard_;
    /** Shard s owns lanes [shardBegin_[s], shardBegin_[s + 1]). */
    std::vector<unsigned> shardBegin_;
    /** Outboxes indexed src * lanes + dst. A row is written only by
     * the thread executing its src lane during a window and drained
     * by the thread delivering to its dst lane at the barrier (the
     * two phases are separated by a full barrier, so no row is ever
     * touched from two threads concurrently). */
    std::vector<std::vector<Msg>> outbox_;
    Time windowStart_ = 0.0;
    Time windowEnd_ = 0.0;

    static std::uint64_t
    payloadOf(const EventEntry &e)
    {
        return (std::uint64_t(e.slot) << 32) | e.gen;
    }

    void
    push(Lane &ln, Time when, std::uint64_t payload)
    {
        EventEntry e{when, ln.nextSeq++, std::uint32_t(payload >> 32),
                     std::uint32_t(payload)};
        if (kind_ == QueueKind::Heap) {
            ln.heap.push_back(e);
            std::push_heap(ln.heap.begin(), ln.heap.end(),
                           EntryLater{});
        } else {
            ln.cal.push(e);
        }
        ++ln.scheduled;
    }

    /** Hand one popped record to the model: a plain record unless
     * stale, a message with its parcel (its mail slot freed first,
     * so fire() may post and schedule freely). */
    template <typename Model>
    void
    dispatch(Lane &ln, unsigned l, const EventEntry &e, Model &model)
    {
        ln.now = e.when;
        std::uint64_t payload = payloadOf(e);
        if (payload & kReservedBit) {
            auto slot = std::uint32_t(payload);
            Mail m = ln.mail[slot];
            ln.freeMail.push_back(slot);
            model.fire(l, e.when, m.payload, &m.parcel);
        } else if (model.stale(l, payload)) {
            return;
        } else {
            model.fire(l, e.when, payload, nullptr);
        }
        ++ln.dispatched;
    }

    /** Drop lane @p l's stale records and set the next sweep point.
     * Dispatch order is untouched: the rest keep their (when, seq). */
    template <typename Model>
    void
    sweep(Lane &ln, unsigned l, const Model &model)
    {
        auto isStale = [&](const EventEntry &e) {
            std::uint64_t payload = payloadOf(e);
            return !(payload & kReservedBit) && model.stale(l, payload);
        };
        std::size_t held;
        if (kind_ == QueueKind::Heap) {
            ln.heap.erase(std::remove_if(ln.heap.begin(), ln.heap.end(),
                                         isStale),
                          ln.heap.end());
            std::make_heap(ln.heap.begin(), ln.heap.end(), EntryLater{});
            held = ln.heap.size();
        } else {
            ln.cal.removeIf(isStale);
            held = ln.cal.size();
        }
        ln.sweepAt = std::max(kMinSweep, held + held / 4);
    }

    /** Run lane @p l's records due by @p end, then advance its clock
     * to @p end. */
    template <typename Model>
    void
    runLane(unsigned l, Time end, Model &model)
    {
        Lane &ln = lanes_[l];
        if (kind_ == QueueKind::Heap) {
            while (!ln.heap.empty() && ln.heap.front().when <= end) {
                if (ln.heap.size() >= ln.sweepAt) {
                    sweep(ln, l, model);
                    continue;
                }
                std::pop_heap(ln.heap.begin(), ln.heap.end(),
                              EntryLater{});
                EventEntry e = ln.heap.back();
                ln.heap.pop_back();
                dispatch(ln, l, e, model);
            }
        } else {
            while (!ln.cal.empty() && ln.cal.min().when <= end) {
                if (ln.cal.size() >= ln.sweepAt) {
                    sweep(ln, l, model);
                    continue;
                }
                dispatch(ln, l, ln.cal.popMin(), model);
            }
        }
        if (ln.now < end)
            ln.now = end;
    }

    /** Panic on a schedule() into the lane's past or with the
     * reserved payload bit. */
    [[noreturn, gnu::cold]] static void
    rejectSchedule(const Lane &ln, Time when, std::uint64_t payload);

    /** The window loop behind run(): @p runLane(l, end) advances lane
     * l to the window end. */
    RunStats runWindows(Time until, Time lookahead, unsigned workers,
                        const LaneFn &runLane, const BarrierFn &onBarrier);

    /** Deliver every pending message bound for @p dst, in (src lane
     * asc, send order). @return messages moved. */
    std::uint64_t drainLane(unsigned dst);
};

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_SHARDED_QUEUE_HH
