#include "memblade/stack_distance.hh"

#include <algorithm>
#include <bit>
#include <cmath>

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
    // is sized once, here (the measured one on beginMeasurement).
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
        if (measuring)
            ++measuredAccesses_;
        std::uint32_t prev = last[page];
        if (prev == 0) {
            // First touch: infinite distance, a miss at every capacity.
            ++cold;
            if (measuring)
                ++measuredCold;
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
            if (measuring)
                ++measuredHist[d];
            kill(prev);
        }
        last[page] = now;
    }
}

namespace {

std::vector<std::uint64_t>
cumulate(const std::vector<std::uint32_t> &hist)
{
    std::size_t top = hist.size();
    while (top > 0 && hist[top - 1] == 0)
        --top;
    std::vector<std::uint64_t> cum(top + 1, 0);
    for (std::size_t d = 0; d < top; ++d)
        cum[d + 1] = cum[d] + hist[d];
    return cum;
}

} // namespace

StackDistanceCurve
StackDistanceEngine::finish() const
{
    StackDistanceCurve c;
    c.accesses = now;
    c.coldMisses = cold;
    c.measuredAccesses = measuredAccesses_;
    c.measuredColdMisses = measuredCold;
    c.cumHits = cumulate(hist);
    c.measuredCumHits = cumulate(measuredHist);
    return c;
}

StackDistanceCurve
lruCurve(TraceGenerator &gen, std::uint64_t pageBound,
         std::uint64_t accesses, std::uint64_t warmup)
{
    StackDistanceEngine eng(pageBound, accesses);
    constexpr std::size_t kChunk = 4096;
    std::vector<PageId> buf(kChunk);
    std::uint64_t done = 0;
    while (done < accesses) {
        auto n = std::size_t(
            std::min<std::uint64_t>(kChunk, accesses - done));
        gen.nextBatch(buf.data(), n);
        // Split the chunk where the measured window starts.
        std::size_t head = warmup >= done && warmup - done < n
                               ? std::size_t(warmup - done)
                               : n;
        eng.access(buf.data(), head);
        if (head < n)
            eng.beginMeasurement();
        eng.access(buf.data() + head, n - head);
        done += n;
    }
    return eng.finish();
}

StackDistanceCurve
lruCurveForProfile(const TraceProfile &profile, std::uint64_t accesses,
                   std::uint64_t seed)
{
    // Mirror replayProfile's Rng derivation: the kernel split is
    // drawn (and discarded — LRU consumes no randomness) so the
    // generator sees the identical stream.
    Rng rng(seed);
    (void)rng.split();
    TraceGenerator gen(profile, rng.split());
    return lruCurve(gen, profile.footprintPages, accesses, accesses);
}

std::vector<ReplayStats>
replayProfileSweep(const TraceProfile &profile,
                   const std::vector<double> &localFractions,
                   std::uint64_t accesses, std::uint64_t seed)
{
    auto curve = lruCurveForProfile(profile, accesses, seed);
    std::vector<ReplayStats> out;
    out.reserve(localFractions.size());
    for (double f : localFractions) {
        WSC_ASSERT(f > 0.0 && f <= 1.0,
                   "local fraction out of (0, 1]");
        auto frames = std::size_t(
            std::ceil(double(profile.footprintPages) * f));
        out.push_back(curve.statsAt(frames));
    }
    return out;
}

} // namespace memblade
} // namespace wsc
