#include "sim/calendar_queue.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace wsc {
namespace sim {

namespace {

/** Entries sampled off the head to estimate the event-gap width. */
constexpr std::size_t kHeadSample = 32;

/** A serving bucket at least this large (holding more than one
 * distinct timestamp) at sort time means the width is stale. */
constexpr std::size_t kBucketOverload = 128;

std::size_t
pow2Ceil(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

std::size_t
CalendarQueue::bucketTarget(std::size_t entries)
{
    return std::min(kMaxBuckets,
                    std::max(kMinBuckets, pow2Ceil(entries)));
}

CalendarQueue::CalendarQueue()
{
    buckets_.resize(kMinBuckets);
    yearEnd_ = width_ * double(buckets_.size());
}

void
CalendarQueue::reserve(std::size_t events)
{
    overflow_.reserve(std::min<std::size_t>(events, 1u << 20));
}

void
CalendarQueue::realign(Time when)
{
    Time span = width_ * double(buckets_.size());
    yearStart_ = std::floor(when / span) * span;
    if (yearStart_ > when)
        yearStart_ -= span; // FP: floor*span overshot
    if (when - yearStart_ >= span)
        yearStart_ = when; // FP: span addition undershot
    yearEnd_ = yearStart_ + span;
}

void
CalendarQueue::pushBelowYear(const EventEntry &e)
{
    // The year was anchored past this time (it jumped to a far-future
    // cluster while earlier times were still schedulable). Demote the
    // bucket tier to overflow and re-anchor at the new minimum; the
    // demoted entries migrate back as their years are reached.
    for (auto &b : buckets_) {
        overflow_.insert(overflow_.end(), b.begin(), b.end());
        b.clear();
    }
    inBuckets_ = 0;
    realign(e.when);
}

void
CalendarQueue::advanceYear()
{
    WSC_ASSERT(!overflow_.empty(),
               "advanceYear on an empty overflow tier");
    // Anchor the new year at the overflow minimum (skipping any
    // number of empty years in one step) and migrate everything due
    // within it. Swap-remove keeps the sweep O(|overflow|).
    Time mn = overflow_[0].when;
    for (const EventEntry &e : overflow_)
        mn = std::min(mn, e.when);
    realign(mn);
    for (std::size_t i = 0; i < overflow_.size();) {
        if (overflow_[i].when < yearEnd_) {
            std::size_t b = bucketOf(overflow_[i].when);
            buckets_[b].push_back(overflow_[i]);
            ++inBuckets_;
            overflow_[i] = overflow_.back();
            overflow_.pop_back();
        } else {
            ++i;
        }
    }
    cursor_ = bucketOf(mn);
    sorted_ = false;
    // Thrash guard. The head-sampled width tracks the densest pending
    // cluster; once that transient head drains, a sparse far tail
    // (governor timers, cross-shard lookahead messages) can be left
    // spread over thousands of near-empty years, and serving it by
    // year advances alone costs an O(|overflow|) sweep per handful of
    // events — quadratic in the tail size. A year that migrated
    // almost nothing out of a still-large overflow tier is that
    // signature; rebuild instead, which resamples the width from the
    // surviving population (now exactly the tail) and pulls it back
    // into the bucket tier in one pass.
    if (inBuckets_ * 8 < overflow_.size() &&
        overflow_.size() >= kHeadSample)
        rebuild(bucketTarget(size_));
}

void
CalendarQueue::locateMin()
{
    WSC_ASSERT(size_ > 0, "min() on an empty calendar queue");
    // The overload rebuild is attempted at most once per call: the
    // head-sampled width usually disperses the bucket, but nothing
    // guarantees it (adversarial clustering), and serving an oversized
    // bucket is merely slow where a rebuild loop would be forever.
    bool rebuildTried = false;
    for (;;) {
        if (inBuckets_ == 0)
            advanceYear();
        while (buckets_[cursor_].empty()) {
            ++cursor_;
            sorted_ = false;
            WSC_ASSERT(cursor_ < buckets_.size(),
                       "calendar cursor ran past the year");
        }
        auto &vec = buckets_[cursor_];
        if (sorted_)
            return;
        if (!rebuildTried && vec.size() >= kBucketOverload) {
            // Overloaded serving bucket: the width is stale for the
            // current event-rate regime. Rebuild (resampling the
            // width) only if a finer width can actually subdivide
            // this bucket — pure same-time storms cannot be split
            // and are just sorted and served.
            Time mn = vec[0].when, mx = vec[0].when;
            for (const EventEntry &e : vec) {
                mn = std::min(mn, e.when);
                mx = std::max(mx, e.when);
            }
            if (mx > mn &&
                width_ > 4.0 * (mx - mn) / double(vec.size())) {
                rebuild(bucketTarget(size_));
                rebuildTried = true;
                continue;
            }
        }
        std::sort(vec.begin(), vec.end(), EntryLater{});
        sorted_ = true;
        return;
    }
}

void
CalendarQueue::grow()
{
    if (buckets_.size() < kMaxBuckets)
        rebuild(bucketTarget(size_));
}

void
CalendarQueue::shrink()
{
    rebuild(bucketTarget(std::max<std::size_t>(size_, 1)));
}

void
CalendarQueue::rebuild(std::size_t nBuckets)
{
    ++rebuilds_;
    std::vector<EventEntry> all;
    all.reserve(size_);
    for (auto &b : buckets_) {
        all.insert(all.end(), b.begin(), b.end());
        b.clear();
    }
    all.insert(all.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    buckets_.resize(nBuckets);
    inBuckets_ = 0;
    cursor_ = 0;
    sorted_ = false;
    if (all.empty()) {
        yearEnd_ = yearStart_ + width_ * double(buckets_.size());
        return;
    }

    // Resample the width: twice the mean gap over the earliest
    // kHeadSample entries (Brown's rule). Head sampling is what makes
    // one far-future outlier harmless — a (max-min)/n rule would
    // stretch the width by the outlier's distance and collapse the
    // dense head into a single serving bucket. Entries past the year
    // this width implies just land in the overflow tier, and a whole
    // sparse gap is skipped in one re-anchor when the buckets drain.
    Time mx = all[0].when;
    for (const EventEntry &e : all)
        mx = std::max(mx, e.when);
    std::size_t k = std::min(all.size(), kHeadSample);
    std::partial_sort(all.begin(), all.begin() + std::ptrdiff_t(k),
                      all.end(),
                      [](const EventEntry &a, const EventEntry &b) {
                          return a.when < b.when;
                      });
    Time mn = all[0].when;
    Time newW = 0.0;
    if (k >= 2 && all[k - 1].when > mn)
        newW = 2.0 * (all[k - 1].when - mn) / double(k - 1);
    else if (mx > mn)
        newW = 2.0 * (mx - mn) / double(all.size());
    if (newW > 0.0) {
        width_ = newW;
        invWidth_ = 1.0 / newW;
    }
    // else: every entry shares one timestamp; keep the old width.

    realign(mn);
    for (const EventEntry &e : all) {
        if (e.when >= yearEnd_) {
            overflow_.push_back(e);
        } else {
            buckets_[bucketOf(e.when)].push_back(e);
            ++inBuckets_;
        }
    }
    cursor_ = bucketOf(mn);
}

} // namespace sim
} // namespace wsc
