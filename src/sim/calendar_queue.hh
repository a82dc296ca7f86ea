/**
 * @file
 * Calendar-queue event ordering structure for the DES kernel.
 *
 * The binary heap behind sim::EventQueue costs O(log n) per operation
 * with n cache-hostile sift levels; at warehouse-ensemble depths
 * (~10^5 pending events per shard) the deep levels miss to L3 on
 * every push and pop. A calendar queue (Brown, CACM 1988) makes both
 * operations amortized O(1) for the short-horizon schedules open-loop
 * arrival processes generate: time is divided into BUCKETS of a fixed
 * width, a "year" spans all buckets once, and dequeueing walks the
 * current bucket — which stays L1/L2-resident — in sorted order.
 *
 * This implementation deviates from the classic design in two ways
 * that keep the repo's determinism contract cheap to argue:
 *
 *  - Far-future tier: events beyond the current year land in an
 *    unsorted overflow vector instead of wrapping into buckets. Every
 *    bucket therefore holds current-year events only, so the first
 *    non-empty bucket at or after the cursor always contains the
 *    global minimum — no per-dequeue "is it this year?" test. When
 *    the buckets drain, the year re-anchors directly at the overflow
 *    minimum (skipping any number of empty years) and the overflow
 *    entries due in the new year migrate in one sweep.
 *
 *  - Lazy sorting: buckets accumulate unsorted appends and are sorted
 *    by (time, seq) descending once, when the cursor reaches them;
 *    the minimum is then a pop from the back. Only an insert into the
 *    bucket currently being served pays a sorted insertion, and with
 *    a well-chosen width that bucket holds O(1) entries.
 *
 * Dispatch order is exactly the heap's total order on (time, seq) —
 * same-time events FIFO by sequence number — which is what lets
 * sim::EventQueue swap this structure in behind its interface with
 * every byte-identity contract in the repo intact (the randomized
 * cross-check in test_calendar_queue pins this event by event).
 *
 * Bucket-width policy: the width is resampled on every rebuild as
 * twice the mean gap of the ~32 earliest pending events (Brown's
 * head-sampling rule), so one far-future outlier cannot stretch the
 * width the way a (max-min)/n rule would. Rebuilds trigger when the
 * entry count doubles past or shrinks well below the bucket count,
 * and when the serving bucket is found overloaded at sort time — the
 * symptom of a stale width after the event-rate regime shifts.
 */

#ifndef WSC_SIM_CALENDAR_QUEUE_HH
#define WSC_SIM_CALENDAR_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsc {
namespace sim {

/** Simulation time, in seconds (same alias as event_queue.hh). */
using Time = double;

/**
 * Ordering record of one scheduled event: firing time, global FIFO
 * sequence number (unique; breaks same-time ties), and the slot/gen
 * pair locating the action in EventQueue's slot pool (a typed lane
 * of sim::ShardedEventQueue reads the two words as one 64-bit
 * payload instead). The total dispatch order is (when, seq)
 * ascending.
 */
struct EventEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
};

/** Strict "fires later" order on (when, seq): the comparator that
 * makes a std:: heap of EventEntry a min-heap, and sorts a calendar
 * bucket descending so its minimum pops from the back. seq is
 * unique, so the order is total. */
struct EntryLater {
    bool
    operator()(const EventEntry &a, const EventEntry &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

/**
 * A multiset of EventEntry ordered by (when, seq), with amortized
 * O(1) push and pop-min under hold-model workloads. Not a drop-in
 * std::priority_queue: min() positions internal state (cursor
 * advance, lazy sort, year migration) and must precede popMin().
 */
class CalendarQueue
{
  public:
    CalendarQueue();

    /** Insert @p e. No ordering precondition: entries earlier than
     * the current serving position are legal (the cursor backs up),
     * as are entries arbitrarily far in the future (overflow tier).
     * Inline: this is the DES hot path (one call per schedule), and
     * the common case is a bounds check plus one append. */
    void
    push(const EventEntry &e)
    {
        if (size_ == 0)
            realign(e.when);
        else if (e.when < yearStart_)
            pushBelowYear(e);

        if (e.when >= yearEnd_) {
            overflow_.push_back(e);
        } else {
            std::size_t b = bucketOf(e.when);
            auto &vec = buckets_[b];
            if (inBuckets_ == 0) {
                // Bucket tier was empty; this entry is its minimum
                // (any overflow entry is >= yearEnd_, i.e. later).
                cursor_ = b;
                sorted_ = false;
                vec.push_back(e);
            } else if (b == cursor_ && sorted_) {
                sortedInsert(vec, e);
            } else {
                if (b < cursor_) {
                    // New minimum candidate behind the cursor: legal
                    // whenever nothing at or past bucket b has been
                    // popped yet (the cursor advanced over empties).
                    cursor_ = b;
                    sorted_ = false;
                }
                vec.push_back(e);
            }
            ++inBuckets_;
        }
        ++size_;
        maybeGrow();
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The minimum entry by (when, seq). Requires !empty(). Settles
     * the cursor (sorting the serving bucket if needed), so repeated
     * calls between pushes are O(1). */
    const EventEntry &
    min()
    {
        if (inBuckets_ == 0 || !sorted_ || buckets_[cursor_].empty())
            locateMin();
        return buckets_[cursor_].back();
    }

    /** Remove and return the minimum entry. Requires !empty(). */
    EventEntry
    popMin()
    {
        min();
        auto &b = buckets_[cursor_];
        EventEntry e = b.back();
        b.pop_back();
        --inBuckets_;
        --size_;
        maybeShrink();
        return e;
    }

    /** Visit every entry (buckets and overflow) in unspecified
     * order. Used by the bulk-cancel sweeps. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &b : buckets_)
            for (const EventEntry &e : b)
                fn(e);
        for (const EventEntry &e : overflow_)
            fn(e);
    }

    /**
     * Erase every entry the predicate selects, preserving relative
     * order within each bucket (a sorted serving bucket stays
     * sorted). Used for stale-entry compaction.
     * @return number of entries removed.
     */
    template <typename Fn>
    std::size_t
    removeIf(Fn &&pred)
    {
        std::size_t removed = 0;
        for (auto &b : buckets_) {
            std::size_t kept = 0;
            for (std::size_t i = 0; i < b.size(); ++i) {
                if (pred(b[i]))
                    continue;
                b[kept++] = b[i];
            }
            removed += b.size() - kept;
            b.resize(kept);
        }
        std::size_t kept = 0;
        for (std::size_t i = 0; i < overflow_.size(); ++i) {
            if (pred(overflow_[i]))
                continue;
            overflow_[kept++] = overflow_[i];
        }
        removed += overflow_.size() - kept;
        overflow_.resize(kept);
        inBuckets_ = 0;
        for (const auto &b : buckets_)
            inBuckets_ += b.size();
        size_ = inBuckets_ + overflow_.size();
        return removed;
    }

    /** Pre-size internal storage for @p events pending entries. */
    void reserve(std::size_t events);

    // Introspection (tests, bench labels).
    std::size_t bucketCount() const { return buckets_.size(); }
    Time bucketWidth() const { return width_; }
    std::uint64_t rebuilds() const { return rebuilds_; }
    std::size_t overflowSize() const { return overflow_.size(); }

  private:
    /** Bucket-count clamp. The floor keeps the modulo-year
     * arithmetic away from degenerate tiny calendars; the ceiling
     * bounds the per-bucket header memory (a std::vector each) at
     * warehouse scale. */
    static constexpr std::size_t kMinBuckets = 64;
    static constexpr std::size_t kMaxBuckets = std::size_t(1) << 20;

    /** Buckets of the current year; buckets_[i] covers
     * [yearStart_ + i*width_, yearStart_ + (i+1)*width_). */
    std::vector<std::vector<EventEntry>> buckets_;
    /** Far-future tier: entries with when >= yearEnd_, unsorted. */
    std::vector<EventEntry> overflow_;
    Time width_ = 1.0;
    /** 1 / width_, kept in sync by the (rare) width changes: bucketOf
     * runs on every push and a multiply is far cheaper than the
     * divide. */
    Time invWidth_ = 1.0;
    Time yearStart_ = 0.0;
    Time yearEnd_ = 0.0;
    /** Serving bucket: the global minimum lives in the first
     * non-empty bucket at index >= cursor_. */
    std::size_t cursor_ = 0;
    /** Whether buckets_[cursor_] is sorted descending by (when, seq)
     * (only ever the cursor bucket; cleared when the cursor moves). */
    bool sorted_ = false;
    std::size_t size_ = 0;      //!< total entries, both tiers
    std::size_t inBuckets_ = 0; //!< entries in the bucket tier
    std::uint64_t rebuilds_ = 0;

    /** Bucket index of @p when; caller guarantees yearStart_ <= when
     * < yearEnd_. The clamp absorbs FP rounding at the year's upper
     * edge; the mapping is monotonic in `when`, so equal times always
     * share a bucket and bucket order never inverts time order. */
    std::size_t
    bucketOf(Time when) const
    {
        auto idx = std::size_t((when - yearStart_) * invWidth_);
        return idx < buckets_.size() ? idx : buckets_.size() - 1;
    }

    /** Insert @p e into the serving bucket's descending (when, seq)
     * order. With a well-fitted width this bucket holds O(1)
     * entries. */
    static void
    sortedInsert(std::vector<EventEntry> &vec, const EventEntry &e)
    {
        std::size_t i = vec.size();
        vec.push_back(e);
        while (i > 0 && (vec[i - 1].when < e.when ||
                         (vec[i - 1].when == e.when &&
                          vec[i - 1].seq < e.seq))) {
            vec[i] = vec[i - 1];
            --i;
        }
        vec[i] = e;
    }

    void
    maybeGrow()
    {
        if (size_ > 2 * buckets_.size())
            grow();
    }

    void
    maybeShrink()
    {
        if (size_ * 8 < buckets_.size() &&
            buckets_.size() > kMinBuckets)
            shrink();
    }

    /** Re-anchor the year so @p when maps into it; buckets must be
     * empty. */
    void realign(Time when);
    /** Grow / shrink rebuilds, out of line off the push/pop fast
     * paths (the inline wrappers above carry the cheap triggers). */
    void grow();
    void shrink();
    static std::size_t bucketTarget(std::size_t entries);
    /** Advance the cursor to the bucket holding the minimum, sorting
     * it; migrates a new year in from overflow when needed. */
    void locateMin();
    /** Move overflow entries due in the year anchored at the overflow
     * minimum into buckets. Requires empty buckets, non-empty
     * overflow. */
    void advanceYear();
    /** Gather everything, resample the width from head gaps, and
     * redistribute over @p nBuckets buckets. */
    void rebuild(std::size_t nBuckets);
    /** Handle a push below yearStart_: demote the bucket tier to
     * overflow and re-anchor at the new minimum. Rare by
     * construction (only after the year jumped a sparse region). */
    void pushBelowYear(const EventEntry &e);
};

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_CALENDAR_QUEUE_HH
