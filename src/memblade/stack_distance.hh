/**
 * @file
 * Mattson stack-distance engine: exact LRU hit rates at every
 * capacity from one trace pass.
 *
 * LRU has the inclusion property (Mattson et al. 1970): a reference
 * hits in a C-frame LRU cache iff its stack distance — one plus the
 * number of distinct other pages touched since its previous access —
 * is at most C. Histogramming those distances over one pass therefore
 * yields the exact hit count of a *direct* LRU replay at *every*
 * capacity simultaneously, so sweeps over local-memory fractions
 * (Figure 4b style curves) or flash-cache sizes collapse from N
 * replays to a single pass per workload.
 *
 * Reuse distances are counted over last-access timestamps. Every
 * access takes the next timestamp, and a timestamp stays live while
 * it is its page's most recent access; when the page is touched
 * again the old one dies. The pages touched since a page's previous
 * access at time prev are the live timestamps after prev, so with
 * `cold` distinct pages seen, its distance is cold - (prev - dead
 * timestamps before prev). Dead timestamps sit in a bitmap with a
 * few levels of in-group prefix counts above it (8 units a group:
 * 64-bit words, then 512-, 4096-, ... timestamp units), so the count
 * before prev is one popcount plus one load per level, and marking
 * prev dead adds one to at most 7 neighbouring counts per level, one
 * 16-byte vector add on the 16-bit levels. The number of levels is
 * fixed by the trace capacity (5 for 1M accesses, 9 at 2^32), so
 * neither the query nor the update has a loop whose length depends
 * on the data. The structure takes ~1.3 bits per trace access
 * (~330 KB for 2M accesses), small enough to stay cache-resident;
 * space O(n/6 bytes + footprint).
 *
 * Determinism contract: lruCurveForProfile consumes its Rng in
 * exactly the order replayProfile does, so curve.statsAt(frames) is
 * bit-identical — same integer hit/miss/cold counts, hence the same
 * double rates — to replayProfile(profile, fraction, Lru, accesses,
 * seed) for every fraction, and the measured window matches the
 * flash-cache warmup/measure split the same way. The per-access LRU
 * kernel stays in the tree as the validation oracle (test_replay).
 */

#ifndef WSC_MEMBLADE_STACK_DISTANCE_HH
#define WSC_MEMBLADE_STACK_DISTANCE_HH

#include <cstdint>
#include <vector>

#include "memblade/replay.hh"
#include "memblade/trace.hh"
#include "util/zero_pages.hh"

namespace wsc {
namespace memblade {

/**
 * The finished product of a stack-distance pass: cumulative hit
 * counts indexed by capacity, for the whole trace and for the
 * measured (post-warmup) window.
 */
struct StackDistanceCurve {
    std::uint64_t accesses = 0;
    std::uint64_t coldMisses = 0;
    std::uint64_t measuredAccesses = 0;
    std::uint64_t measuredColdMisses = 0;

    /** cumHits[c] = hits of a c-frame LRU cache (clamped at the
     * largest observed distance; larger capacities change nothing). */
    std::vector<std::uint64_t> cumHits;
    std::vector<std::uint64_t> measuredCumHits;

    /** Exact LRU hits over the whole trace at @p frames frames. */
    std::uint64_t
    hitsAt(std::size_t frames) const
    {
        return cumHits[std::min(frames, cumHits.size() - 1)];
    }

    /** Exact LRU hits over the measured window at @p frames frames. */
    std::uint64_t
    measuredHitsAt(std::size_t frames) const
    {
        return measuredCumHits[std::min(frames,
                                        measuredCumHits.size() - 1)];
    }

    /**
     * Whole-trace replay statistics at @p frames frames;
     * bit-identical to a direct LRU replay of the same trace.
     */
    ReplayStats
    statsAt(std::size_t frames) const
    {
        ReplayStats st;
        st.accesses = accesses;
        st.hits = hitsAt(frames);
        st.misses = accesses - st.hits;
        st.coldMisses = coldMisses;
        return st;
    }

    /** Measured-window hit rate at @p frames frames. */
    double
    measuredHitRateAt(std::size_t frames) const
    {
        return measuredAccesses ? double(measuredHitsAt(frames)) /
                                      double(measuredAccesses)
                                : 0.0;
    }
};

/**
 * Streaming stack-distance accumulator. Feed it the trace in access
 * order; call beginMeasurement() where the measured window starts
 * (never, for whole-trace curves); finish() builds the curve.
 */
class StackDistanceEngine
{
  public:
    /**
     * @param pageBound Page ids are < pageBound.
     * @param maxAccesses Capacity: at most this many references.
     */
    StackDistanceEngine(std::uint64_t pageBound,
                        std::uint64_t maxAccesses);

    /**
     * Record the references @p pages[0..n), in order, prefetching
     * each one's slots a few references ahead.
     */
    void access(const PageId *pages, std::size_t n);

    /** Subsequent accesses also count toward the measured window. */
    void
    beginMeasurement()
    {
        measuring = true;
        measuredHist.resize(hist.size(), 0);
    }

    /** Build the cumulative curve from the histograms. */
    StackDistanceCurve finish() const;

  private:
    /** 64 timestamps a bitmap word; 8 units a count group, so level
     * k's units span 2^(6 + 3k) timestamps. A 16-bit level's group
     * is one 16-byte vector. */
    static constexpr std::uint32_t kWordShift = 6;
    static constexpr std::uint32_t kGroupShift = 3;
    static constexpr std::uint32_t kGroup = 1u << kGroupShift;

    /** Dead timestamps before @p t. */
    std::uint32_t deadBefore(std::uint32_t t) const;
    /** Mark the live timestamp @p t dead. */
    void kill(std::uint32_t t);

    /** last[p] = time (1-based); 0 = never. Zero pages: a trace that
     * touches few of a large id space makes few of them resident. */
    ZeroPageArray<std::uint32_t> last;
    std::vector<std::uint64_t> dead; //!< bit per timestamp: 1 = dead
    /** The count levels, lowest first, each padded to whole groups:
     * a level's entry j = dead timestamps in unit j's group before
     * unit j (level 0's units are bitmap words). Levels whose counts
     * fit 16 bits (the lowest three) sit in narrow, the rest in
     * wide, each at its start offset. */
    std::vector<std::uint16_t> narrow;
    std::vector<std::uint32_t> wide;
    std::vector<std::size_t> narrowStart, wideStart;
    /** hist[d] counts; uint32 suffices (counts <= maxAccesses < 2^32)
     * and halves the randomly-indexed footprint. */
    std::vector<std::uint32_t> hist, measuredHist;
    std::uint32_t now = 0;
    std::uint32_t capacity_ = 0; //!< max access() calls
    std::uint64_t cold = 0, measuredCold = 0, measuredAccesses_ = 0;
    bool measuring = false;
};

/**
 * Drain @p accesses pages from @p gen (batched) through the engine.
 *
 * Accesses at index >= @p warmup form the measured window (pass
 * warmup == accesses for a whole-trace curve with no window).
 */
StackDistanceCurve lruCurve(TraceGenerator &gen,
                            std::uint64_t pageBound,
                            std::uint64_t accesses,
                            std::uint64_t warmup);

/**
 * Single-pass exact-LRU curve for a synthetic profile, mirroring
 * replayProfile's RNG derivation: statsAt(ceil(footprint * f)) is
 * bit-identical to replayProfile(profile, f, PolicyKind::Lru,
 * accesses, seed) for any fraction f.
 */
StackDistanceCurve lruCurveForProfile(const TraceProfile &profile,
                                      std::uint64_t accesses,
                                      std::uint64_t seed);

/**
 * Exact-LRU replay stats at every requested local fraction from one
 * trace pass (the N-replay sweep collapsed). Only LRU has the
 * inclusion property; Random/Clock sweeps still replay per fraction.
 */
std::vector<ReplayStats> replayProfileSweep(
    const TraceProfile &profile,
    const std::vector<double> &localFractions, std::uint64_t accesses,
    std::uint64_t seed);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_STACK_DISTANCE_HH
