/**
 * @file
 * Batched, cache-resident guide-table sampling.
 *
 * Scalar guide-table inversion (EmpiricalDist::sampleIndex) pays two
 * *dependent* memory accesses per draw: the guide cell at a uniformly distributed bucket, then the CDF
 * line the cell points at. Over multi-MB tables both miss, and the
 * dependency chain serializes them — EXPERIMENTS.md measured this at
 * ~34% of closed-loop runtime.
 *
 * SampleBatcher restructures a block of draws into structure-of-arrays
 * passes so the misses overlap instead of serializing:
 *
 *   pass 1: draw the block's uniforms, compute bucket indices, and
 *           software-prefetch every guide cell;
 *   pass 2: read the (now cache-resident) guide cells and prefetch the
 *           CDF line each scan starts at;
 *   pass 3: resolve every lookup with GuideTable::resolveFrom — the
 *           exact routine the scalar path uses.
 *
 * Because one uniform is consumed per draw in draw order, a batched
 * block fed from the same Rng state yields the *same sequence* of
 * ranks as scalar draws — the batcher changes memory behavior, not
 * results. The SplitMix64 overloads trade that bit-identity for draw
 * rate: uniforms come from the counter-based fast generator
 * (util/random.hh), same law on the 53-bit grid but different values,
 * which is the relaxation fast mode's statistical-equivalence gate
 * covers. Fast mode's other relaxation is where the drivers *source*
 * the stream (a dedicated split consumed in blocks); see
 * sim/fast_mode.hh. Zipf ranks resolve one by one through
 * ZipfDist::rankForUniform, whose lazily filled table is private.
 *
 * The bucket/index loops are simple enough for the compiler to
 * auto-vectorize; the wins are dominated by the memory-level
 * parallelism the prefetch passes create, not by ALU width.
 */

#ifndef WSC_SIM_BATCH_SAMPLER_HH
#define WSC_SIM_BATCH_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "sim/distributions.hh"

namespace wsc {
namespace sim {

/**
 * Reusable scratch + the two-pass batched lookup. One instance per
 * consumer (workload generator, replication, shard); instances hold no
 * RNG state, so per-consumer stream splits stay the caller's choice.
 */
class SampleBatcher
{
  public:
    /** @param block Draws resolved per internal pass (scratch size). */
    explicit SampleBatcher(std::size_t block = 256);

    /**
     * Draw @p n Zipf ranks into @p out. Consumes exactly n uniforms
     * from @p rng in draw order and resolves each with
     * ZipfDist::rankForUniform (the table layout is private to
     * ZipfDist, so there is nothing to prefetch ahead): the output
     * sequence is bit-identical to n scalar dist.sampleRank(rng)
     * calls from the same Rng state.
     */
    void drawZipfRanks(const ZipfDist &dist, Rng &rng,
                       std::uint64_t *out, std::size_t n);

    /**
     * Draw @p n empirical outcome *indices* into @p out; same
     * bit-identical-sequence guarantee as drawZipfRanks.
     */
    void drawEmpiricalIndices(const EmpiricalDist &dist, Rng &rng,
                              std::uint32_t *out, std::size_t n);

    /**
     * Draw @p n raw guide-table inversions of @p cdf into @p out.
     * Building block for the typed wrappers above.
     */
    void drawIndices(const GuideTable &guide,
                     const std::vector<double> &cdf, Rng &rng,
                     std::uint32_t *out, std::size_t n);

    /**
     * Fast-engine overloads: identical resolution over SplitMix64
     * uniforms. Same per-draw law, NOT bit-identical to the Rng
     * overloads — fast-mode demand streams only.
     */
    void drawZipfRanks(const ZipfDist &dist, SplitMix64 &rng,
                       std::uint64_t *out, std::size_t n);
    void drawEmpiricalIndices(const EmpiricalDist &dist,
                              SplitMix64 &rng, std::uint32_t *out,
                              std::size_t n);
    void drawIndices(const GuideTable &guide,
                     const std::vector<double> &cdf, SplitMix64 &rng,
                     std::uint32_t *out, std::size_t n);

    /**
     * Draw @p n lognormal variates via Box-Muller over SplitMix64
     * uniforms. Exactly @p dist's law (the transform is exact), not
     * bit-identical to LognormalDist::sampleImpl — fast-mode demand
     * streams only.
     */
    void drawLognormal(const LognormalDist &dist, SplitMix64 &rng,
                       double *out, std::size_t n);

    std::size_t blockSize() const { return block; }

  private:
    std::size_t block;
    /** SoA scratch, reused across calls (no steady-state allocation). */
    std::vector<double> u;          //!< uniforms for the block
    std::vector<std::uint32_t> at;  //!< bucket, then scan-start index
};

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_BATCH_SAMPLER_HH
