#include "memblade/stack_distance.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace wsc {
namespace memblade {

StackDistanceEngine::StackDistanceEngine(std::uint64_t pageBound,
                                         std::uint64_t maxAccesses)
    : last(std::size_t(pageBound))
{
    WSC_ASSERT(pageBound > 0, "empty page-id space");
    // Timestamps are uint32; one slot per access plus the unused 0.
    WSC_ASSERT(maxAccesses < ~std::uint32_t(0),
               "trace too long for 32-bit timestamps");
    capacity_ = std::uint32_t(maxAccesses);
    // One bit per timestamp (1-based; slot 0 unused), and count
    // levels until one group spans every timestamp, all sized for the
    // whole trace up front. A count is at most kGroup - 1 units'
    // worth of timestamps, so the lowest three levels fit 16 bits.
    std::size_t units = (std::size_t(maxAccesses) >> kWordShift) + 1;
    dead.assign(units, 0);
    std::uint64_t unitSpan = std::uint64_t(1) << kWordShift;
    std::size_t narrowSize = 0, wideSize = 0;
    do {
        std::size_t groups = (units + kGroup - 1) >> kGroupShift;
        if ((kGroup - 1) * unitSpan <= 0xFFFF) {
            narrowStart.push_back(narrowSize);
            narrowSize += groups << kGroupShift;
        } else {
            wideStart.push_back(wideSize);
            wideSize += groups << kGroupShift;
        }
        units = groups;
        unitSpan <<= kGroupShift;
    } while (units > 1);
    narrow.assign(narrowSize, 0);
    wide.assign(wideSize, 0);
    // Distances are < min(pageBound, maxAccesses), so the histogram
    // is sized once, here.
    hist.assign(std::size_t(std::min(pageBound, maxAccesses)) + 1, 0);
}

inline std::uint32_t
StackDistanceEngine::deadBefore(std::uint32_t t) const
{
    // Bits below t in its word, then t's unit's in-group prefix at
    // every level: the groups nest, so together they cover [0, t).
    std::uint64_t below = (std::uint64_t(1) << (t & 63)) - 1;
    auto s = std::uint32_t(std::popcount(dead[t >> kWordShift] & below));
    std::size_t unit = t >> kWordShift;
    for (std::size_t start : narrowStart) {
        s += narrow[start + unit];
        unit >>= kGroupShift;
    }
    for (std::size_t start : wideStart) {
        s += wide[start + unit];
        unit >>= kGroupShift;
    }
    return s;
}

namespace {

/** One more dead timestamp before every unit of @p unit's group
 * after it, at the level whose counts start at @p counts: a
 * fixed-length masked add. */
template <typename Count, std::uint32_t Group>
void
countAfter(Count *counts, std::size_t unit)
{
    Count *group = counts + (unit & ~std::size_t(Group - 1));
    auto at = Count(unit & (Group - 1));
    for (Count i = 0; i < Group; ++i)
        group[i] += i > at;
}

} // namespace

inline void
StackDistanceEngine::kill(std::uint32_t t)
{
    dead[t >> kWordShift] |= std::uint64_t(1) << (t & 63);
    std::size_t unit = t >> kWordShift;
    for (std::size_t start : narrowStart) {
        countAfter<std::uint16_t, kGroup>(narrow.data() + start, unit);
        unit >>= kGroupShift;
    }
    for (std::size_t start : wideStart) {
        countAfter<std::uint32_t, kGroup>(wide.data() + start, unit);
        unit >>= kGroupShift;
    }
}

void
StackDistanceEngine::access(const PageId *pages, std::size_t n)
{
    // Two prefetch stages: pull a page's last-access slot 16
    // references ahead; 6 ahead, once that slot has had time to
    // arrive, read the page's previous timestamp and pull the two
    // randomly indexed lines its query and update touch, its bitmap
    // word and its first-level counts (the higher levels are small
    // enough to stay resident). Purely hints: a stale timestamp only
    // mistrains a prefetch.
    constexpr std::size_t kSlotAhead = 16, kPathsAhead = 6;
    // Checked once a batch, so the loop indexes without bounds tests.
    WSC_ASSERT(n <= capacity_ - now, "engine capacity exceeded");
    WSC_ASSERT(std::all_of(pages, pages + n,
                           [&](PageId p) { return p < last.size(); }),
               "page id beyond declared bound");
    for (std::size_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
        if (i + kSlotAhead < n)
            __builtin_prefetch(last.data() + pages[i + kSlotAhead]);
        if (i + kPathsAhead < n) {
            std::uint32_t prev = last[pages[i + kPathsAhead]];
            if (prev != 0) {
                __builtin_prefetch(dead.data() + (prev >> kWordShift));
                __builtin_prefetch(narrow.data() + (prev >> kWordShift));
            }
        }
#endif
        PageId page = pages[i];
        ++now;
        std::uint32_t prev = last[page];
        if (prev == 0) {
            // First touch: infinite distance, a miss at every capacity.
            ++cold;
        } else {
            // The other pages touched since prev are the live
            // timestamps in (prev, now): each distinct page seen holds
            // exactly one live timestamp, so that is cold minus the
            // live ones at or before prev, and every timestamp up to
            // prev lives unless it is dead. A C-frame LRU cache hits
            // iff d < C.
            std::uint64_t d = cold - (prev - deadBefore(prev));
            WSC_ASSERT(d < hist.size(),
                       "stack distance out of range: " << d);
            ++hist[d];
            kill(prev);
        }
        last[page] = now;
    }
}

namespace {

/** Cumulative hits by capacity of the histogram @p hist less the
 * snapshot @p base (hist's size; nullptr = none). */
std::vector<std::uint64_t>
cumulate(const std::vector<std::uint32_t> &hist,
         const std::uint32_t *base)
{
    auto at = [&](std::size_t d) {
        return hist[d] - (base ? base[d] : 0);
    };
    std::size_t top = hist.size();
    while (top > 0 && at(top - 1) == 0)
        --top;
    std::vector<std::uint64_t> cum(top + 1, 0);
    for (std::size_t d = 0; d < top; ++d)
        cum[d + 1] = cum[d] + at(d);
    return cum;
}

} // namespace

StackDistanceCurve
StackDistanceEngine::finish() const
{
    // Never begun: the window is empty, as if begun at the end.
    bool begun = !warmupHist.empty();
    StackDistanceCurve c;
    c.accesses = now;
    c.coldMisses = cold;
    c.measuredAccesses = begun ? now - warmupAccesses : 0;
    c.measuredColdMisses = begun ? cold - warmupCold : 0;
    c.cumHits = cumulate(hist, nullptr);
    c.measuredCumHits =
        cumulate(hist, begun ? warmupHist.data() : hist.data());
    return c;
}

StackDistanceCurve
lruCurve(PageSource &src, std::uint64_t warmup)
{
    if (src.size() >= std::numeric_limits<std::uint32_t>::max())
        fatal("stack-distance sweep supports traces below 2^32 "
              "accesses; replay directly instead");
    WSC_ASSERT(warmup <= src.size(), "warmup longer than the trace");
    StackDistanceEngine eng(src.pageBound(), src.size());
    auto drain = [&](std::uint64_t upTo) {
        for (auto b = src.next(upTo); !b.empty(); b = src.next(upTo))
            eng.access(b.data(), b.size());
    };
    drain(warmup);
    if (warmup < src.size())
        eng.beginMeasurement();
    drain(src.size());
    return eng.finish();
}

StackDistanceCurve
lruCurve(TraceGenerator &gen, std::uint64_t pageBound,
         std::uint64_t accesses, std::uint64_t warmup)
{
    PageSource src(gen, accesses, pageBound);
    return lruCurve(src, warmup);
}

StackDistanceCurve
lruCurveForProfile(const TraceProfile &profile, std::uint64_t accesses,
                   std::uint64_t seed)
{
    // LRU consumes no randomness: the kernel Rng goes unused.
    auto gen = profileTrace(profile, seed).second;
    return lruCurve(gen, profile.footprintPages, accesses, accesses);
}

} // namespace memblade
} // namespace wsc
