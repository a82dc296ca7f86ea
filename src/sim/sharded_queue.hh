/**
 * @file
 * Sharded event queue: conservative parallel DES execution.
 *
 * Scales the single-queue kernel (event_queue.hh) to warehouse-size
 * simulations by partitioning the model into LANES — fixed logical
 * partitions that own disjoint state — each with its own event
 * queue. The lane grid is part of the simulation topology (it never
 * changes with the execution width). SHARDS are an execution knob:
 * a shard is the contiguous block of lanes one worker runs first,
 * the unit the balance counters report over, and the cap on the
 * worker count. Neither shards nor workers change results.
 *
 * Execution is classic conservative windowing: all lanes advance to
 * a common horizon (the window end, one lookahead past the window
 * start), then a barrier delivers the cross-lane messages sent during
 * the window and runs the control-plane callback. Within a window,
 * lanes may not touch each other's state — every cross-lane
 * interaction must be a post() whose delay is at least the lookahead,
 * which is why the windows can run without rollback. The model's
 * lookahead is physical: the network/dispatch latency between servers
 * in different lanes.
 *
 * Worker execution: run() owns a persistent spin-then-park worker
 * team for the whole call (threads are created once, not per
 * window). Each window is two fan-out phases — run every lane to the
 * horizon, then drain mailboxes by destination lane — separated by
 * epoch barriers that are a single atomic store plus bounded
 * spinning in the common case. In both phases worker w first takes
 * the lanes of its home shards (blocked map, so a lane's queue and
 * state stay on one core across windows), then takes whole unstarted
 * lanes from the other shards through each shard's atomic cursor, so
 * a burst in one shard is shared out instead of leaving the other
 * workers spinning. The control-plane callback runs single-threaded
 * between windows.
 *
 * Determinism argument (the contract the ensemble tests pin):
 *  - A lane's events execute in its own queue's (time, FIFO-seq)
 *    order, whichever worker runs it; lanes share no state inside a
 *    window.
 *  - Cross-lane messages are delivered at the barrier in (dst lane,
 *    src lane, send order) — a function of the lane grid only — so
 *    every lane's queue sees the same schedule sequence at any shard
 *    or worker count.
 *  - Randomness must come from per-lane streams derived by identity
 *    (Rng::stream), never from a queue- or thread-associated engine.
 */

#ifndef WSC_SIM_SHARDED_QUEUE_HH
#define WSC_SIM_SHARDED_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace wsc {
namespace sim {

/**
 * Per-lane event queues executing a lane-partitioned model in
 * conservative lookahead windows.
 */
class ShardedEventQueue
{
  public:
    /** Aggregate activity of one run() call. */
    struct RunStats {
        std::uint64_t windows = 0;    //!< barriers executed
        std::uint64_t messages = 0;   //!< cross-lane posts delivered
        std::uint64_t dispatched = 0; //!< events run across lanes
        /** Events dispatched per shard (summed over its lanes) over
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

    /**
     * Invoked single-threaded after each window's message delivery
     * with the window end time; the control plane (autoscalers,
     * rate reprogramming) lives here and may touch every lane.
     */
    using BarrierFn = std::function<void(Time)>;

    /**
     * @param lanes  logical partition count — part of the model
     *     topology; every lane gets its own event queue
     * @param shards lane blocks, clamped to [1, lanes]; lane l
     *     belongs to shard l * shards / lanes (blocked map, so
     *     neighbouring lanes run on the same worker first)
     * @param kind   event-ordering backend for every lane queue; an
     *     execution knob (both kinds dispatch the identical order)
     */
    ShardedEventQueue(unsigned lanes, unsigned shards,
                      QueueKind kind = QueueKind::Heap);

    unsigned lanes() const { return unsigned(queues_.size()); }
    unsigned shards() const { return unsigned(shardBegin_.size() - 1); }
    unsigned shardOf(unsigned lane) const { return laneShard_[lane]; }
    QueueKind kind() const { return kind_; }

    /** The queue of @p lane; schedule a lane's own events here.
     * Outside run() (setup, barrier) any lane's queue may be
     * touched; inside a window only the executing lane may. */
    EventQueue &laneQueue(unsigned lane) { return *queues_[lane]; }

    /** Committed global time: the start of the current window. */
    Time now() const { return windowStart_; }

    /**
     * Send a cross-lane interaction: run @p action on @p dstLane's
     * queue at absolute time @p when. Legal from inside lane
     * execution (src = the running lane) and from the barrier.
     * @p when must be at or after the end of the current window —
     * i.e. the send delay must be >= the run's lookahead — which is
     * asserted, since a shorter delay would have to rewind a lane
     * that already advanced past it.
     */
    void post(unsigned srcLane, unsigned dstLane, Time when,
              InlineAction &&action);

    /**
     * Advance every lane to @p until in windows of @p lookahead.
     * @p workers is the thread count executing lanes (clamped to
     * [1, shards]; 1 runs everything in the caller — the workers
     * value is an execution knob and never changes results).
     * @p onBarrier, if set, runs single-threaded after each window.
     * See the file comment for why results do not depend on the
     * shard count or worker count.
     */
    RunStats run(Time until, Time lookahead, unsigned workers = 1,
                 const BarrierFn &onBarrier = {});

    /** Pre-size each lane's entry storage and slot pool. */
    void reserve(std::size_t eventsPerLane);

    /**
     * Kernel counters summed over lanes (peakHeap: the largest
     * lane's). Every counter is shard- and worker-count-invariant;
     * compactions and peakHeap depend on the queue backend.
     */
    EventQueue::Counters counters() const;

  private:
    struct Msg {
        Time when;
        InlineAction action;
    };

    QueueKind kind_;
    std::vector<std::unique_ptr<EventQueue>> queues_;
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

    /** Deliver every pending message bound for @p dst, in (src lane
     * asc, send order). @return messages moved. */
    std::uint64_t drainLane(unsigned dst);
};

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_SHARDED_QUEUE_HH
