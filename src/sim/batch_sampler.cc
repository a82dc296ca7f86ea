#include "sim/batch_sampler.hh"

#include <cmath>

#include "util/logging.hh"

namespace wsc {
namespace sim {

namespace {

inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
    (void)p;
#endif
}

/**
 * The three-pass block over any uniform source with a `uniform()`
 * member. Instantiated for Rng (bit-identical to scalar draws) and
 * SplitMix64 (fast-mode, same-law); the passes themselves are
 * engine-agnostic — only pass 1's uniform draw touches the engine.
 */
template <typename Engine>
void
drawIndicesWith(const GuideTable &guide, const std::vector<double> &cdf,
                Engine &rng, std::uint32_t *out, std::size_t n,
                std::size_t block, std::vector<double> &u,
                std::vector<std::uint32_t> &at)
{
    u.resize(block);
    at.resize(block);
    while (n > 0) {
        std::size_t m = n < block ? n : block;

        // Pass 1: uniforms in draw order; prefetch every guide cell.
        // The bucket is uniformly distributed over the table, so this
        // is the access that misses — issuing all m prefetches before
        // any use turns m dependent misses into overlapped ones.
        for (std::size_t i = 0; i < m; ++i) {
            u[i] = rng.uniform();
            std::size_t b = guide.bucketOf(u[i]);
            at[i] = std::uint32_t(b);
            prefetchRead(guide.cellPtr(b));
        }

        // Pass 2: read the guide cells (now resident) and prefetch the
        // CDF line each resolution starts at — the second dependent
        // access of the scalar path, also overlapped across the block.
        for (std::size_t i = 0; i < m; ++i) {
            std::uint32_t k = guide.startOf(at[i]);
            at[i] = k;
            prefetchRead(&cdf[k]);
        }

        // Pass 3: resolve with the exact scalar routine.
        for (std::size_t i = 0; i < m; ++i)
            out[i] =
                std::uint32_t(guide.resolveFrom(cdf, u[i], at[i]));

        out += m;
        n -= m;
    }
}

/**
 * Zipf ranks resolve through ZipfDist::rankForUniform, the scalar
 * path's own inversion over its lazily filled table, one uniform per
 * draw in draw order.
 */
template <typename Engine>
void
drawZipfRanksWith(const ZipfDist &dist, Engine &rng, std::uint64_t *out,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = dist.rankForUniform(rng.uniform());
}

} // namespace

SampleBatcher::SampleBatcher(std::size_t block) : block(block)
{
    WSC_ASSERT(block >= 1, "batch block must be at least 1");
    u.reserve(block);
    at.reserve(block);
}

void
SampleBatcher::drawIndices(const GuideTable &guide,
                           const std::vector<double> &cdf, Rng &rng,
                           std::uint32_t *out, std::size_t n)
{
    drawIndicesWith(guide, cdf, rng, out, n, block, u, at);
}

void
SampleBatcher::drawZipfRanks(const ZipfDist &dist, Rng &rng,
                             std::uint64_t *out, std::size_t n)
{
    drawZipfRanksWith(dist, rng, out, n);
}

void
SampleBatcher::drawEmpiricalIndices(const EmpiricalDist &dist, Rng &rng,
                                    std::uint32_t *out, std::size_t n)
{
    drawIndicesWith(dist.guideTable(), dist.cdfTable(), rng, out, n,
                    block, u, at);
}

void
SampleBatcher::drawIndices(const GuideTable &guide,
                           const std::vector<double> &cdf,
                           SplitMix64 &rng, std::uint32_t *out,
                           std::size_t n)
{
    drawIndicesWith(guide, cdf, rng, out, n, block, u, at);
}

void
SampleBatcher::drawZipfRanks(const ZipfDist &dist, SplitMix64 &rng,
                             std::uint64_t *out, std::size_t n)
{
    drawZipfRanksWith(dist, rng, out, n);
}

void
SampleBatcher::drawEmpiricalIndices(const EmpiricalDist &dist,
                                    SplitMix64 &rng, std::uint32_t *out,
                                    std::size_t n)
{
    drawIndicesWith(dist.guideTable(), dist.cdfTable(), rng, out, n,
                    block, u, at);
}

void
SampleBatcher::drawLognormal(const LognormalDist &dist, SplitMix64 &rng,
                             double *out, std::size_t n)
{
    const double mu = dist.muParam();
    const double sigma = dist.sigmaParam();
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    // Box-Muller pairs: both variates of a pair are used, so the draw
    // cost is one log/sqrt and one sin+cos per two outputs. The
    // transform maps exact uniforms to an exact normal, so the output
    // law is exactly lognormal(mu, sigma) — only the bits differ from
    // the std::lognormal_distribution path.
    std::size_t pairs = n / 2;
    for (std::size_t i = 0; i < pairs; ++i) {
        // 1 - u keeps the log argument in (0, 1]: SplitMix64::uniform
        // can return exactly 0, and log(0) is -inf.
        double r = std::sqrt(-2.0 * std::log(1.0 - rng.uniform()));
        double theta = kTwoPi * rng.uniform();
        out[2 * i] = std::exp(mu + sigma * (r * std::cos(theta)));
        out[2 * i + 1] = std::exp(mu + sigma * (r * std::sin(theta)));
    }
    if (n % 2) {
        double r = std::sqrt(-2.0 * std::log(1.0 - rng.uniform()));
        double theta = kTwoPi * rng.uniform();
        out[n - 1] = std::exp(mu + sigma * (r * std::cos(theta)));
    }
}

} // namespace sim
} // namespace wsc
