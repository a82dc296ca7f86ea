#include "sim/distributions.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "util/logging.hh"

namespace wsc {
namespace sim {

UniformDist::UniformDist(double lo, double hi)
    : Distribution(DistKind::Uniform), lo(lo), hi(hi)
{
    WSC_ASSERT(hi > lo, "uniform range empty");
}

ExponentialDist::ExponentialDist(double mean)
    : Distribution(DistKind::Exponential), mean_(mean)
{
    WSC_ASSERT(mean > 0.0, "exponential mean must be positive");
}

LognormalDist::LognormalDist(double mean, double cov)
    : Distribution(DistKind::Lognormal), mean_(mean)
{
    WSC_ASSERT(mean > 0.0, "lognormal mean must be positive");
    WSC_ASSERT(cov > 0.0, "lognormal cov must be positive");
    // mean = exp(mu + sigma^2/2); cov^2 = exp(sigma^2) - 1.
    double sigma2 = std::log(1.0 + cov * cov);
    sigma = std::sqrt(sigma2);
    mu = std::log(mean) - 0.5 * sigma2;
}

BoundedParetoDist::BoundedParetoDist(double lo, double hi, double alpha)
    : Distribution(DistKind::BoundedPareto), lo(lo), hi(hi),
      alpha(alpha), loAlpha(std::pow(lo, alpha)),
      hiAlpha(std::pow(hi, alpha)), negInvAlpha(-1.0 / alpha)
{
    WSC_ASSERT(lo > 0.0 && hi > lo, "bounded pareto needs 0 < lo < hi");
    WSC_ASSERT(alpha > 0.0, "pareto shape must be positive");
}

double
BoundedParetoDist::sampleImpl(Rng &rng)
{
    // Inverse CDF of the bounded Pareto; the pow(lo, alpha) /
    // pow(hi, alpha) constants are hoisted into the constructor.
    double u = rng.uniform();
    double la = loAlpha;
    double ha = hiAlpha;
    double x = std::pow(-(u * ha - u * la - ha) / (ha * la), negInvAlpha);
    return std::clamp(x, lo, hi);
}

double
BoundedParetoDist::mean() const
{
    if (std::abs(alpha - 1.0) < 1e-12) {
        double la = 1.0 / lo, ha = 1.0 / hi;
        return std::log(hi / lo) / (la - ha);
    }
    double la = std::pow(lo, alpha);
    double num = la * alpha *
                 (std::pow(lo, 1.0 - alpha) - std::pow(hi, 1.0 - alpha));
    double den = (alpha - 1.0) * (1.0 - std::pow(lo / hi, alpha));
    return num / den;
}

GuideTable::GuideTable(const std::vector<double> &cdf)
{
    WSC_ASSERT(!cdf.empty(), "guide table over empty cdf");
    WSC_ASSERT(cdf.size() <= std::uint32_t(-1),
               "cdf too large for guide table");
    // Two-pointer merge: guide[b] = first index with cdf[idx] >= b/n.
    std::size_t n = cdf.size();
    guide.resize(n);
    std::size_t k = 0;
    for (std::size_t b = 0; b < n; ++b) {
        double edge = double(b) / double(n);
        while (k < n && cdf[k] < edge)
            ++k;
        guide[b] = std::uint32_t(k);
    }
}

namespace {

/** Build the tables of a Zipf over ranks 1..n with exponent s. */
std::shared_ptr<const ZipfDist::Tables>
buildZipfTables(std::uint64_t n, double s)
{
    auto t = std::make_shared<ZipfDist::Tables>();
    t->cdf.resize(n);
    double acc = 0.0;
    double mean_acc = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
        double p = std::pow(double(k), -s);
        acc += p;
        mean_acc += double(k) * p;
        t->cdf[k - 1] = acc;
    }
    double norm = acc;
    for (auto &c : t->cdf)
        c /= norm;
    t->cdf.back() = 1.0; // guard FP drift
    t->mean = mean_acc / norm;
    t->guide = GuideTable(t->cdf);
    return t;
}

/** Largest table (ranks) the process-wide cache keeps: 3 MB. */
constexpr std::uint64_t kSharedMaxRanks = std::uint64_t(1) << 18;

/**
 * The most recently built table of more than kSharedMaxRanks ranks.
 * The memory-blade trace profiles (up to millions of ranks) are too
 * large to keep one per (n, s) for the process, but a study that runs
 * several policies over one profile constructs the same (n, s) back
 * to back; this one slot builds it once for the run. A build for a
 * different key first drops the slot, so at most one unused large
 * table is ever alive and peak memory stays that of the live owners
 * plus the table being built.
 */
std::shared_ptr<const ZipfDist::Tables>
retainedLargeZipfTables(std::uint64_t n, double s)
{
    static std::mutex mu;
    static std::pair<std::uint64_t, double> key; // guarded by mu
    static std::shared_ptr<const ZipfDist::Tables> slot; // guarded by mu
    std::shared_ptr<const ZipfDist::Tables> dropped;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (slot && key == std::make_pair(n, s))
            return slot;
        dropped = std::move(slot);
    }
    dropped.reset(); // freed before the build, outside the lock
    auto t = buildZipfTables(n, s);
    std::lock_guard<std::mutex> lock(mu);
    key = {n, s};
    slot = t;
    return t;
}

/**
 * The process-wide (n, s) -> tables cache. The interactive workloads
 * construct their generator per evaluated cell, so their tables are
 * built once and kept for the process. Larger tables go through the
 * single retained slot above instead, so the cache never pins them.
 * The build runs under the lock, so concurrent first users of one
 * pair build it once.
 */
std::shared_ptr<const ZipfDist::Tables>
sharedZipfTables(std::uint64_t n, double s)
{
    if (n > kSharedMaxRanks)
        return retainedLargeZipfTables(n, s);
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, double>,
                    std::shared_ptr<const ZipfDist::Tables>>
        cache;
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = cache[{n, s}];
    if (!slot)
        slot = buildZipfTables(n, s);
    return slot;
}

} // namespace

ZipfDist::ZipfDist(std::uint64_t n, double s)
    : Distribution(DistKind::Zipf), n(n), s(s)
{
    WSC_ASSERT(n >= 1, "zipf needs at least one rank");
    WSC_ASSERT(s > 0.0, "zipf exponent must be positive");
    t = sharedZipfTables(n, s);
}

double
ZipfDist::cdfAt(std::uint64_t k) const
{
    WSC_ASSERT(k >= 1, "zipf cdf rank out of range: " << k);
    return t->cdf[(k < n ? k : n) - 1];
}

double
ZipfDist::pmf(std::uint64_t k) const
{
    WSC_ASSERT(k >= 1 && k <= n, "zipf pmf rank out of range: " << k);
    double prev = (k == 1) ? 0.0 : t->cdf[k - 2];
    return t->cdf[k - 1] - prev;
}

EmpiricalDist::EmpiricalDist(std::vector<double> values_in,
                             std::vector<double> weights)
    : Distribution(DistKind::Empirical), values(std::move(values_in))
{
    WSC_ASSERT(!values.empty(), "empirical distribution needs outcomes");
    WSC_ASSERT(values.size() == weights.size(),
               "values/weights size mismatch");
    double total = 0.0;
    for (double w : weights) {
        WSC_ASSERT(w >= 0.0, "negative weight");
        total += w;
    }
    WSC_ASSERT(total > 0.0, "weights sum to zero");
    cdf.resize(values.size());
    double acc = 0.0;
    mean_ = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        acc += weights[i] / total;
        cdf[i] = acc;
        mean_ += values[i] * weights[i] / total;
    }
    cdf.back() = 1.0;
    guide = GuideTable(cdf);
}

} // namespace sim
} // namespace wsc
