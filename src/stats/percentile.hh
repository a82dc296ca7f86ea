/**
 * @file
 * Exact percentile tracking over retained samples.
 *
 * The QoS definitions in the benchmark suite are expressed as "95% of
 * requests complete within X seconds"; this tracker retains all samples
 * from a (bounded) measurement window and answers exact quantile
 * queries, which keeps the QoS checks free of approximation artifacts.
 */

#ifndef WSC_STATS_PERCENTILE_HH
#define WSC_STATS_PERCENTILE_HH

#include <cstddef>
#include <vector>

namespace wsc {
namespace stats {

/**
 * Retains samples and computes exact quantiles on demand.
 *
 * Queries never sort: a quantile is one std::nth_element selection and
 * a threshold fraction one counting pass, each O(n) per query.
 */
class PercentileTracker
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples retained. */
    std::size_t count() const { return samples.size(); }

    /**
     * Exact quantile: the nearest-rank element of the sorted samples,
     * found by selection. Reorders the retained samples (never their
     * values), hence the mutable storage.
     * @param q Quantile in [0, 1]; q=0.95 is the 95th percentile.
     */
    double quantile(double q) const;

    /**
     * Fraction of samples strictly above @p threshold.
     *
     * Not suitable for the paper's strict QoS checks ("95% of requests
     * complete in < X seconds"): a sample exactly at the threshold
     * does NOT satisfy `latency < X` and must count as a violation —
     * use fractionAtLeast() for those.
     */
    double fractionAbove(double threshold) const;

    /**
     * Fraction of samples at or above @p threshold (inclusive). This
     * is the violation fraction for a strict "latency < threshold"
     * QoS definition.
     */
    double fractionAtLeast(double threshold) const;

    /**
     * Remove all samples. Capacity is retained, so a tracker reused
     * across measurement epochs stops allocating once it has seen its
     * largest epoch.
     */
    void clear();

    /**
     * Pre-size sample storage for @p n samples. A no-op when capacity
     * already suffices; lets epoch drivers (perfsim::runClosedLoop)
     * keep steady-state accounting allocation-free.
     */
    void reserve(std::size_t n);

  private:
    mutable std::vector<double> samples;
};

} // namespace stats
} // namespace wsc

#endif // WSC_STATS_PERCENTILE_HH
