#include "stats/percentile.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace wsc {
namespace stats {

void
PercentileTracker::add(double x)
{
    samples.push_back(x);
}

double
PercentileTracker::quantile(double q) const
{
    WSC_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range: " << q);
    WSC_ASSERT(!samples.empty(), "quantile of empty tracker");
    // Nearest-rank: ceil(q * n) converted to a zero-based index.
    std::size_t rank = std::size_t(std::ceil(q * double(samples.size())));
    if (rank == 0)
        rank = 1;
    if (rank > samples.size())
        rank = samples.size();
    // Selection places the element a full sort would put at this
    // index there, in linear time; a query needs no other order.
    auto nth = samples.begin() + std::ptrdiff_t(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

double
PercentileTracker::fractionAbove(double threshold) const
{
    if (samples.empty())
        return 0.0;
    auto above =
        std::count_if(samples.begin(), samples.end(),
                      [threshold](double x) { return x > threshold; });
    return double(above) / double(samples.size());
}

double
PercentileTracker::fractionAtLeast(double threshold) const
{
    if (samples.empty())
        return 0.0;
    // Samples exactly at the threshold count (they fail a strict
    // "< threshold" QoS).
    auto atLeast =
        std::count_if(samples.begin(), samples.end(),
                      [threshold](double x) { return x >= threshold; });
    return double(atLeast) / double(samples.size());
}

void
PercentileTracker::clear()
{
    samples.clear();
}

void
PercentileTracker::reserve(std::size_t n)
{
    samples.reserve(n);
}

} // namespace stats
} // namespace wsc
