/**
 * @file
 * Random distributions used by the workload generators.
 *
 * The benchmark suite leans on a few specific shapes: Zipf for search
 * keywords and video popularity (paper Section 2.1), lognormal for mail
 * and attachment sizes, exponential think times, and empirical tables
 * for measured mixes.
 *
 * Two dispatch paths exist side by side:
 *  - the virtual Distribution::sample interface, kept for generic
 *    consumers and tests, and
 *  - non-virtual sampleImpl methods on the (final) concrete classes,
 *    reachable either directly at concrete call sites or through
 *    sampleByKind(), a DistKind-tag switch that lets pooled hot paths
 *    draw without an indirect call per sample. Both paths share one
 *    implementation per class, so they cannot drift and are
 *    bit-identical.
 */

#ifndef WSC_SIM_DISTRIBUTIONS_HH
#define WSC_SIM_DISTRIBUTIONS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/random.hh"

namespace wsc {
namespace sim {

/**
 * Concrete-type tag carried by every Distribution. Hot paths that hold
 * a Distribution& switch on it (sampleByKind) instead of paying a
 * virtual call per draw; the switch dispatches to the same final
 * sampleImpl the virtual path lands in.
 */
enum class DistKind : unsigned char {
    Constant,
    Uniform,
    Exponential,
    Lognormal,
    BoundedPareto,
    Zipf,
    Empirical,
};

/** Polymorphic scalar distribution. */
class Distribution
{
  public:
    virtual ~Distribution() = default;

    /** Draw one sample using @p rng. */
    virtual double sample(Rng &rng) = 0;

    /** Expected value (exact where closed-form, else documented approx). */
    virtual double mean() const = 0;

    /** Concrete-type tag for switch dispatch (see sampleByKind). */
    DistKind kind() const { return kind_; }

  protected:
    explicit Distribution(DistKind kind) : kind_(kind) {}

  private:
    DistKind kind_;
};

/** Degenerate point mass: always returns the same value. */
class ConstantDist final : public Distribution
{
  public:
    explicit ConstantDist(double value)
        : Distribution(DistKind::Constant), value(value)
    {
    }
    double sampleImpl(Rng &) { return value; }
    double sample(Rng &rng) override { return sampleImpl(rng); }
    double mean() const override { return value; }

  private:
    double value;
};

/** Uniform over [lo, hi). */
class UniformDist final : public Distribution
{
  public:
    UniformDist(double lo, double hi);
    double sampleImpl(Rng &rng) { return rng.uniform(lo, hi); }
    double sample(Rng &rng) override { return sampleImpl(rng); }
    double mean() const override { return 0.5 * (lo + hi); }

  private:
    double lo, hi;
};

/** Exponential with the given mean. */
class ExponentialDist final : public Distribution
{
  public:
    explicit ExponentialDist(double mean);
    double sampleImpl(Rng &rng) { return rng.exponential(mean_); }
    double sample(Rng &rng) override { return sampleImpl(rng); }
    double mean() const override { return mean_; }

  private:
    double mean_;
};

/**
 * Lognormal parameterized by its own mean and coefficient of variation
 * (more natural for size distributions than mu/sigma).
 */
class LognormalDist final : public Distribution
{
  public:
    /**
     * @param mean Desired distribution mean (> 0).
     * @param cov Coefficient of variation (stddev/mean, > 0).
     */
    LognormalDist(double mean, double cov);
    double sampleImpl(Rng &rng) { return rng.lognormal(mu, sigma); }
    double sample(Rng &rng) override { return sampleImpl(rng); }
    double mean() const override { return mean_; }

    /** Underlying normal's parameters (for same-law batch draws). */
    double muParam() const { return mu; }
    double sigmaParam() const { return sigma; }

  private:
    double mean_, mu, sigma;
};

/** Bounded Pareto over [lo, hi] with shape alpha. */
class BoundedParetoDist final : public Distribution
{
  public:
    BoundedParetoDist(double lo, double hi, double alpha);
    double sampleImpl(Rng &rng);
    double sample(Rng &rng) override { return sampleImpl(rng); }
    double mean() const override;

  private:
    double lo, hi, alpha;
    /** Constants of the inverse CDF, hoisted out of sample(): the
     * seed code recomputed pow(lo, alpha) and pow(hi, alpha) on
     * every draw. pow is deterministic for fixed arguments, so the
     * samples are bit-identical. */
    double loAlpha, hiAlpha, negInvAlpha;
};

/**
 * Guide table (indexed inversion) over a monotone CDF.
 *
 * Precomputes, for each of n equal-width buckets of [0, 1), the first
 * CDF index whose value reaches the bucket's lower edge. A draw then
 * jumps straight to its bucket's start and walks at most the entries
 * that share the bucket — expected O(1) with as many buckets as CDF
 * entries — instead of binary-searching the whole table. The walk
 * reproduces std::lower_bound exactly (first index with cdf[i] >= u)
 * for every u, so samplers built on it are bit-identical to the seed's
 * O(log n) search while dropping its cache-missing probes.
 *
 * The lookup is exposed in pieces — bucketOf / startOf / resolveFrom —
 * so the batched sampler (sim/batch_sampler.hh) can interleave the two
 * dependent memory accesses across a block of draws with software
 * prefetch. indexFor() composes exactly those pieces; scalar and
 * batched paths therefore share one resolution routine and cannot
 * drift.
 */
class GuideTable
{
  public:
    GuideTable() = default;

    /** Build over @p cdf (nondecreasing, back() == 1.0). */
    explicit GuideTable(const std::vector<double> &cdf);

    /** Build with @p buckets buckets instead of one per entry. */
    GuideTable(const std::vector<double> &cdf, std::size_t buckets);

    /** Number of guide buckets. */
    std::size_t size() const { return guide.size(); }

    /** Bucket index for @p u in [0, 1). */
    std::size_t
    bucketOf(double u) const
    {
        std::size_t b = std::size_t(u * double(guide.size()));
        if (b >= guide.size()) // FP guard: u*n can round up to n
            b = guide.size() - 1;
        return b;
    }

    /** First CDF index the bucket can resolve to (its scan start). */
    std::uint32_t startOf(std::size_t b) const { return guide[b]; }

    /** Address of a guide cell, for software prefetch. */
    const std::uint32_t *cellPtr(std::size_t b) const { return &guide[b]; }

    /**
     * Finish the lookup from scan start @p k: first index with
     * cdf[i] >= u. The bucket start is a lower bound for the bucket's
     * real edge, but FP rounding of u * n can land u one bucket high;
     * the backward walk restores exactness (it is almost never taken).
     * The forward walk covers the bucket's entries.
     */
    std::size_t
    resolveFrom(const std::vector<double> &cdf, double u,
                std::size_t k) const
    {
        while (k > 0 && cdf[k - 1] >= u)
            --k;
        while (cdf[k] < u)
            ++k;
        return k;
    }

    /** First index with cdf[i] >= u, for u in [0, 1). */
    std::size_t
    indexFor(const std::vector<double> &cdf, double u) const
    {
        return resolveFrom(cdf, u, startOf(bucketOf(u)));
    }

  private:
    /** guide[b] = first index with cdf[index] >= b / guide.size(). */
    std::vector<std::uint32_t> guide;
};

/**
 * Zipf distribution over ranks 1..n with exponent s:
 * P(rank = k) proportional to 1/k^s.
 *
 * Sampling inverts an explicit CDF table, expected O(1) per draw. The
 * table is filled lazily in blocks of kBlockRanks ranks from a
 * process-wide skeleton of (n, s) (the running sum at every block
 * end, the norm and the mean), so a block is computed and made
 * resident only when a draw, cdfAt or pmf first reaches it; every
 * value is bit-identical to a serial build of the whole table (see
 * DESIGN.md). Tables of up to 2^18 ranks are kept once per process
 * for each (n, s) and shared by every ZipfDist with those parameters,
 * so the per-cell workload instances the evaluators construct cost a
 * lookup. Of larger tables only the most recently constructed one is
 * kept, so constructing the same large (n, s) back to back reuses its
 * filled blocks while at most one unused large table stays alive.
 * Suitable for the catalog sizes the workloads use (up to a few
 * million items).
 */
class ZipfDist final : public Distribution
{
  public:
    /** Ranks per lazily filled table block (one 4 KB page of CDF). */
    static constexpr std::size_t kBlockRanks = 512;

    /**
     * @param n Number of ranks (>= 1).
     * @param s Exponent (> 0); s around 0.8-1.0 matches web traces.
     */
    ZipfDist(std::uint64_t n, double s);

    /** Draw a rank in [1, n]; lower ranks are more popular. */
    double sampleImpl(Rng &rng) { return double(sampleRank(rng)); }
    double sample(Rng &rng) override { return sampleImpl(rng); }

    /** Draw as an integer rank. */
    std::uint64_t
    sampleRank(Rng &rng)
    {
        // Same single uniform draw as the seed's lower_bound search;
        // rankForUniform is the shared resolution used by the batched
        // path too, so every rank ever drawn is unchanged.
        return rankForUniform(rng.uniform());
    }

    /**
     * Rank the uniform @p u in [0, 1) inverts to: one plus the first
     * index whose CDF entry reaches u (shared scalar/batched).
     */
    std::uint64_t rankForUniform(double u) const;

    /**
     * P(rank <= k) as the sampler sees it, for k >= 1: a uniform u
     * draws a rank <= k exactly when u <= cdfAt(k), because the
     * inversion returns the first index whose CDF entry reaches u. A
     * caller that only tests a drawn rank against a fixed k can
     * compare its uniform with this value and skip the table walk.
     */
    double cdfAt(std::uint64_t k) const;

    double mean() const override;

    /** Probability of exactly rank k. */
    double pmf(std::uint64_t k) const;

    std::uint64_t size() const { return n; }

    /** True when both draw from one shared table. */
    bool sharesTableWith(const ZipfDist &o) const { return t == o.t; }

  private:
    struct Skeleton;
    class Table;

    static std::shared_ptr<const Skeleton> skeletonFor(std::uint64_t n,
                                                       double s);
    static std::shared_ptr<const Table> tableFor(std::uint64_t n,
                                                 double s);

    std::uint64_t n;
    double s;
    std::shared_ptr<const Table> t;
};

/**
 * What one (n, s) needs before any CDF entry exists, built once per
 * process by the serial loop: the unnormalised running sum at each
 * block end (a block's fill continues from its predecessor's), the
 * block-end CDF values with a guide over them, and the norm and mean.
 */
struct ZipfDist::Skeleton {
    /** Block-guide buckets per block: enough that a draw's bucket
     * rarely holds a block end, so the guide walk rarely steps. */
    static constexpr std::size_t kGuidePerBlock = 8;

    Skeleton(std::uint64_t n, double s);

    std::uint64_t n;
    double s;
    /** Running sum of k^-s through the last rank of each block. */
    std::vector<double> blockSum;
    /** CDF at each block's last rank; back() == 1.0. */
    std::vector<double> blockEnd;
    /** Indexed inversion over blockEnd (first block reaching u),
     * kGuidePerBlock buckets per block. */
    GuideTable blockGuide;
    /** kBlockRanks / (blockEnd[b] - blockEnd[b-1]): maps u - the
     * block's start to its in-block bucket (0 for an empty block). */
    std::vector<double> bucketScale;
    double norm = 0.0;
    double mean = 0.0;
};

/**
 * The lazily filled inversion table of one (n, s). Storage for the
 * whole CDF and the per-block hints is reserved up front but written
 * (and so made resident) a block at a time, by one filler per block
 * under the table's lock; the block's state byte publishes it with
 * release/acquire, so concurrent readers share one table.
 *
 * A draw finds its block through the skeleton's guide over block
 * ends, maps u to one of kBlockRanks equal-width buckets of the
 * block's CDF range, and walks from a start index to the first entry
 * with cdf >= u. A block whose CDF is close to linear (every tail
 * block) starts at the bucket number itself; a curved head block
 * keeps a hint per bucket. The walk goes back as well as forward, so
 * any start inside the block gives the exact index.
 */
class ZipfDist::Table
{
  public:
    explicit Table(std::shared_ptr<const Skeleton> skeleton);
    ~Table();
    Table(const Table &) = delete;
    Table &operator=(const Table &) = delete;

    /** First index with cdf[i] >= u, for u in [0, 1). */
    std::size_t
    indexFor(double u) const
    {
        std::size_t b = sk->blockGuide.indexFor(sk->blockEnd, u);
        std::uint8_t kind = state[b].load(std::memory_order_acquire);
        if (kind == kEmpty)
            kind = fill(b);
        const double *c = cdfs + b * kBlockRanks;
        double lo = b ? sk->blockEnd[b - 1] : 0.0;
        auto h = std::size_t((u - lo) * sk->bucketScale[b]);
        if (h >= kBlockRanks)
            h = kBlockRanks - 1;
        std::size_t k = kind == kHinted ? hints[b * kBlockRanks + h] : h;
        while (k > 0 && c[k - 1] >= u)
            --k;
        while (c[k] < u)
            ++k;
        return b * kBlockRanks + k;
    }

    /** cdf[i] = P(rank <= i+1). */
    double
    cdf(std::uint64_t i) const
    {
        auto b = std::size_t(i / kBlockRanks);
        if (state[b].load(std::memory_order_acquire) == kEmpty)
            fill(b);
        return cdfs[i];
    }

    double mean() const { return sk->mean; }

  private:
    /** Block states. A linear block's in-block bucket number is within
     * kLinearSlack entries of its hint everywhere, so it stores none. */
    static constexpr std::uint8_t kEmpty = 0, kHinted = 1, kLinear = 2;
    static constexpr std::size_t kLinearSlack = 2;

    /** Fill block b (once) and return its state. */
    std::uint8_t fill(std::size_t b) const;

    std::shared_ptr<const Skeleton> sk;
    /** One anonymous mapping holding cdfs, then hints. */
    void *map = nullptr;
    std::size_t mapBytes = 0;
    /** n entries rounded up to whole blocks (page-aligned blocks);
     * only filled blocks are ever written. */
    double *cdfs = nullptr;
    /** kBlockRanks in-block start indices per hinted block. */
    std::uint16_t *hints = nullptr;
    std::unique_ptr<std::atomic<std::uint8_t>[]> state;
    mutable std::mutex fillMu;
};

inline std::uint64_t
ZipfDist::rankForUniform(double u) const
{
    return std::uint64_t(t->indexFor(u)) + 1;
}

/**
 * Empirical discrete distribution over (value, weight) pairs.
 * Used for measured mixes, e.g. the webmail action mix.
 */
class EmpiricalDist final : public Distribution
{
  public:
    /**
     * @param values Outcome values.
     * @param weights Relative weights (>= 0, not all zero), same length.
     */
    EmpiricalDist(std::vector<double> values, std::vector<double> weights);

    double sampleImpl(Rng &rng) { return values[sampleIndex(rng)]; }
    double sample(Rng &rng) override { return sampleImpl(rng); }

    /** Draw the index of the chosen outcome. */
    std::size_t
    sampleIndex(Rng &rng)
    {
        // Single uniform draw; indexForUniform matches lower_bound
        // bit-exactly and is shared with the batched path.
        return indexForUniform(rng.uniform());
    }

    /** Index the uniform @p u inverts to (shared scalar/batched). */
    std::size_t
    indexForUniform(double u) const
    {
        return guide.indexFor(cdf, u);
    }

    double mean() const override { return mean_; }

    /** Outcome value at @p i (for batched index draws). */
    double valueAt(std::size_t i) const { return values[i]; }

    std::size_t size() const { return values.size(); }

    /** Inversion tables, exposed for the batched sampler. */
    const GuideTable &guideTable() const { return guide; }
    const std::vector<double> &cdfTable() const { return cdf; }

  private:
    std::vector<double> values;
    std::vector<double> cdf;
    /** O(1) indexed inversion over cdf (see GuideTable). */
    GuideTable guide;
    double mean_;
};

/**
 * Draw through the DistKind tag instead of the vtable: one predictable
 * switch, then a direct (inlineable) call into the final class's
 * sampleImpl. Bit-identical to d.sample(rng) for every kind — both
 * paths are the same function.
 */
inline double
sampleByKind(Distribution &d, Rng &rng)
{
    switch (d.kind()) {
      case DistKind::Constant:
        return static_cast<ConstantDist &>(d).sampleImpl(rng);
      case DistKind::Uniform:
        return static_cast<UniformDist &>(d).sampleImpl(rng);
      case DistKind::Exponential:
        return static_cast<ExponentialDist &>(d).sampleImpl(rng);
      case DistKind::Lognormal:
        return static_cast<LognormalDist &>(d).sampleImpl(rng);
      case DistKind::BoundedPareto:
        return static_cast<BoundedParetoDist &>(d).sampleImpl(rng);
      case DistKind::Zipf:
        return static_cast<ZipfDist &>(d).sampleImpl(rng);
      case DistKind::Empirical:
        return static_cast<EmpiricalDist &>(d).sampleImpl(rng);
    }
    return d.sample(rng); // unreachable; keeps -Wreturn-type quiet
}

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_DISTRIBUTIONS_HH
