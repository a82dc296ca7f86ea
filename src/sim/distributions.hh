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
#include "util/zero_pages.hh"

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

    /**
     * First index with cdf[i] >= u, for u in [0, 1). The bucket start
     * is a lower bound for the bucket's real edge, but FP rounding of
     * u * n can land u one bucket high; the backward walk restores
     * exactness (it is almost never taken). The forward walk covers
     * the bucket's entries.
     */
    std::size_t
    indexFor(const std::vector<double> &cdf, double u) const
    {
        std::size_t b = std::size_t(u * double(guide.size()));
        if (b >= guide.size()) // FP guard: u*n can round up to n
            b = guide.size() - 1;
        std::size_t k = guide[b];
        while (k > 0 && cdf[k - 1] >= u)
            --k;
        while (cdf[k] < u)
            ++k;
        return k;
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
        // Same single uniform draw as the seed's lower_bound search,
        // so every rank ever drawn is unchanged.
        return rankForUniform(rng.uniform());
    }

    /**
     * Rank the uniform @p u in [0, 1) inverts to: one plus the first
     * index whose CDF entry reaches u.
     */
    std::uint64_t rankForUniform(double u) const;

    /**
     * rankForUniform(u[i]) into @p ranks[i] for i < @p n. Looks up
     * every uniform's table block first and prefetches it, so a batch
     * of cold-table draws waits on its misses together rather than
     * one after another.
     */
    void rankForUniforms(const double *u, std::uint64_t *ranks,
                         std::size_t n) const;

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
    Table(const Table &) = delete;
    Table &operator=(const Table &) = delete;

    /** First index with cdf[i] >= u, for u in [0, 1). */
    std::size_t
    indexFor(double u) const
    {
        std::size_t b = blockFor(u);
        return b * kBlockRanks + walk(u, b, start(u, b));
    }

    /**
     * indexFor(u[i]) into @p out[i] for i < @p n, in two passes: the
     * first finds every uniform's block (filling it if needed) and
     * prefetches the CDF line its walk starts on, the second walks.
     * The table misses of a batch so overlap instead of each one
     * stalling the caller in turn.
     */
    void
    indicesFor(const double *u, std::uint64_t *out, std::size_t n) const
    {
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t b = blockFor(u[i]);
            out[i] = b * kBlockRanks + start(u[i], b);
#if defined(__GNUC__) || defined(__clang__)
            __builtin_prefetch(cdfs.data() + out[i]);
#endif
        }
        for (std::size_t i = 0; i < n; ++i) {
            auto b = std::size_t(out[i] / kBlockRanks);
            out[i] = b * kBlockRanks +
                     walk(u[i], b, std::size_t(out[i] % kBlockRanks));
        }
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

    /** The block holding u's index, filled. */
    std::size_t
    blockFor(double u) const
    {
        std::size_t b = sk->blockGuide.indexFor(sk->blockEnd, u);
        if (state[b].load(std::memory_order_acquire) == kEmpty)
            fill(b);
        return b;
    }

    /** Where u's walk starts in its filled block @p b. */
    std::size_t
    start(double u, std::size_t b) const
    {
        double lo = b ? sk->blockEnd[b - 1] : 0.0;
        auto h = std::size_t((u - lo) * sk->bucketScale[b]);
        if (h >= kBlockRanks)
            h = kBlockRanks - 1;
        return state[b].load(std::memory_order_relaxed) == kHinted
                   ? hints[b * kBlockRanks + h]
                   : h;
    }

    /** First in-block index of block @p b with cdf >= u, walking from
     * @p k: back as well as forward, so any start inside the block
     * gives the exact index. */
    std::size_t
    walk(double u, std::size_t b, std::size_t k) const
    {
        const double *c = cdfs.data() + b * kBlockRanks;
        while (k > 0 && c[k - 1] >= u)
            --k;
        while (c[k] < u)
            ++k;
        return k;
    }

    std::shared_ptr<const Skeleton> sk;
    std::unique_ptr<std::atomic<std::uint8_t>[]> state;
    /** n entries rounded up to whole blocks (page-aligned blocks);
     * only filled blocks are ever written, so only they are
     * resident. */
    ZeroPageArray<double> cdfs;
    /** kBlockRanks in-block start indices per hinted block. */
    ZeroPageArray<std::uint16_t> hints;
    mutable std::mutex fillMu;
};

inline std::uint64_t
ZipfDist::rankForUniform(double u) const
{
    return std::uint64_t(t->indexFor(u)) + 1;
}

inline void
ZipfDist::rankForUniforms(const double *u, std::uint64_t *ranks,
                          std::size_t n) const
{
    t->indicesFor(u, ranks, n);
    for (std::size_t i = 0; i < n; ++i)
        ++ranks[i];
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
        // Single uniform draw; the guide table matches lower_bound
        // bit-exactly.
        return guide.indexFor(cdf, rng.uniform());
    }

    double mean() const override { return mean_; }

    std::size_t size() const { return values.size(); }

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
