#include "sim/distributions.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
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
    : GuideTable(cdf, cdf.size())
{
}

GuideTable::GuideTable(const std::vector<double> &cdf,
                       std::size_t buckets)
{
    WSC_ASSERT(!cdf.empty(), "guide table over empty cdf");
    WSC_ASSERT(cdf.size() <= std::uint32_t(-1),
               "cdf too large for guide table");
    WSC_ASSERT(buckets >= 1, "guide table needs a bucket");
    // Two-pointer merge: guide[b] = first index with cdf[idx] >= b/m.
    std::size_t n = cdf.size();
    guide.resize(buckets);
    std::size_t k = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        double edge = double(b) / double(buckets);
        while (k < n && cdf[k] < edge)
            ++k;
        guide[b] = std::uint32_t(k);
    }
}

namespace {

/** Largest table (ranks) the process-wide cache keeps. */
constexpr std::uint64_t kSharedMaxRanks = std::uint64_t(1) << 18;

/** Ranks of block b of a table over @p n ranks. */
std::size_t
blockLength(std::uint64_t n, std::size_t b)
{
    std::uint64_t first = std::uint64_t(b) * ZipfDist::kBlockRanks;
    return std::size_t(std::min<std::uint64_t>(ZipfDist::kBlockRanks,
                                               n - first));
}

} // namespace

ZipfDist::Table::Table(std::shared_ptr<const Skeleton> skeleton)
    : sk(std::move(skeleton)),
      state(new std::atomic<std::uint8_t>[sk->blockEnd.size()]()),
      cdfs(sk->blockEnd.size() * kBlockRanks),
      hints(sk->blockEnd.size() * kBlockRanks)
{
}

std::uint8_t
ZipfDist::Table::fill(std::size_t b) const
{
    std::lock_guard<std::mutex> lock(fillMu);
    std::uint8_t kind = state[b].load(std::memory_order_relaxed);
    if (kind != kEmpty)
        return kind;
    // The serial build's loop, resumed at the block's first rank: the
    // same additions in the same order give the same running sums, and
    // the same division by the same norm the same CDF entries.
    double *c = cdfs.data() + b * kBlockRanks;
    std::size_t len = blockLength(sk->n, b);
    std::uint64_t first = std::uint64_t(b) * kBlockRanks + 1;
    double acc = b ? sk->blockSum[b - 1] : 0.0;
    for (std::size_t i = 0; i < len; ++i) {
        acc += std::pow(double(first + i), -sk->s);
        c[i] = acc / sk->norm;
    }
    if (b + 1 == sk->blockEnd.size())
        c[len - 1] = 1.0; // the serial build's FP-drift guard

    // hint[h] = first in-block index whose bucket (indexFor's map of
    // its CDF value) reaches h, capped at the block's last entry: the
    // bucket map is monotone, so it is a lower bound for every u in
    // bucket h and the shortest walk start.
    double lo = b ? sk->blockEnd[b - 1] : 0.0;
    std::uint16_t hint[kBlockRanks];
    std::size_t slack = 0;
    std::size_t k = 0;
    for (std::size_t h = 0; h < kBlockRanks; ++h) {
        while (k + 1 < len) {
            auto at = std::size_t((c[k] - lo) * sk->bucketScale[b]);
            if (at >= h)
                break;
            ++k;
        }
        hint[h] = std::uint16_t(k);
        slack = std::max(slack, h > k ? h - k : k - h);
    }
    kind = len == kBlockRanks && slack <= kLinearSlack ? kLinear : kHinted;
    if (kind == kHinted)
        std::memcpy(hints.data() + b * kBlockRanks, hint, sizeof hint);
    state[b].store(kind, std::memory_order_release);
    return kind;
}

/**
 * The serial build's loop, keeping the running sum only at block ends.
 */
ZipfDist::Skeleton::Skeleton(std::uint64_t n, double s) : n(n), s(s)
{
    constexpr std::size_t B = kBlockRanks;
    std::size_t blocks = std::size_t((n + B - 1) / B);
    blockSum.resize(blocks);
    double acc = 0.0;
    double mean_acc = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
        double p = std::pow(double(k), -s);
        acc += p;
        mean_acc += double(k) * p;
        if (k % B == 0 || k == n)
            blockSum[std::size_t((k - 1) / B)] = acc;
    }
    norm = acc;
    mean = mean_acc / acc;
    blockEnd.resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b)
        blockEnd[b] = blockSum[b] / acc;
    blockEnd.back() = 1.0; // guard FP drift
    blockGuide = GuideTable(blockEnd, kGuidePerBlock * blocks);
    bucketScale.resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
        double width = blockEnd[b] - (b ? blockEnd[b - 1] : 0.0);
        double scale = width > 0.0 ? double(B) / width : 0.0;
        bucketScale[b] = std::isfinite(scale) ? scale : 0.0;
    }
}

/**
 * The process-wide (n, s) -> skeleton cache: 56 bytes per 512 ranks
 * a key, so every key is kept. Each key builds under its own lock, so
 * first users of one key build it once without stalling other keys.
 */
std::shared_ptr<const ZipfDist::Skeleton>
ZipfDist::skeletonFor(std::uint64_t n, double s)
{
    struct Slot {
        std::mutex mu;
        std::shared_ptr<const Skeleton> skeleton;
    };
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, double>,
                    std::shared_ptr<Slot>>
        slots; // guarded by mu
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto &p = slots[{n, s}];
        if (!p)
            p = std::make_shared<Slot>();
        slot = p;
    }
    std::lock_guard<std::mutex> lock(slot->mu);
    if (!slot->skeleton)
        slot->skeleton = std::make_shared<const Skeleton>(n, s);
    return slot->skeleton;
}

/**
 * Tables of up to kSharedMaxRanks ranks are kept per (n, s) for the
 * process: the interactive workloads construct their generator per
 * evaluated cell. Of larger tables (the memory-blade and flash-cache
 * trace profiles, up to millions of ranks) one slot keeps the most
 * recently constructed, keyed by (n, s): a study that runs several
 * policies over one profile constructs the same key back to back and
 * reuses the blocks already filled. A different key first drops the
 * slot (freed outside the lock), so at most one unused large table is
 * ever alive.
 */
std::shared_ptr<const ZipfDist::Table>
ZipfDist::tableFor(std::uint64_t n, double s)
{
    if (n <= kSharedMaxRanks) {
        static std::mutex mu;
        static std::map<std::pair<std::uint64_t, double>,
                        std::shared_ptr<const Table>>
            cache; // guarded by mu
        std::lock_guard<std::mutex> lock(mu);
        auto &slot = cache[{n, s}];
        if (!slot)
            slot = std::make_shared<const Table>(skeletonFor(n, s));
        return slot;
    }
    static std::mutex mu;
    static std::pair<std::uint64_t, double> key; // guarded by mu
    static std::shared_ptr<const Table> slot;    // guarded by mu
    std::shared_ptr<const Table> dropped;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (slot && key == std::make_pair(n, s))
            return slot;
        dropped = std::move(slot);
    }
    dropped.reset(); // unmapped before the new table, outside the lock
    auto t = std::make_shared<const Table>(skeletonFor(n, s));
    std::lock_guard<std::mutex> lock(mu);
    key = {n, s};
    slot = t;
    return t;
}

ZipfDist::ZipfDist(std::uint64_t n, double s)
    : Distribution(DistKind::Zipf), n(n), s(s)
{
    WSC_ASSERT(n >= 1, "zipf needs at least one rank");
    WSC_ASSERT(s > 0.0, "zipf exponent must be positive");
    t = tableFor(n, s);
}

double
ZipfDist::mean() const
{
    return t->mean();
}

double
ZipfDist::cdfAt(std::uint64_t k) const
{
    WSC_ASSERT(k >= 1, "zipf cdf rank out of range: " << k);
    return t->cdf((k < n ? k : n) - 1);
}

double
ZipfDist::pmf(std::uint64_t k) const
{
    WSC_ASSERT(k >= 1 && k <= n, "zipf pmf rank out of range: " << k);
    double prev = (k == 1) ? 0.0 : t->cdf(k - 2);
    return t->cdf(k - 1) - prev;
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
