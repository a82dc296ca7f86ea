/**
 * @file
 * Statistical-equivalence testing between exact and fast-mode runs.
 *
 * Fast mode (sim/fast_mode.hh) gives up the bit-identity oracle; this
 * module is what replaces it. Two families of checks:
 *
 *  - Two-sample Kolmogorov-Smirnov tests on retained sample sets
 *    (request latencies, service-time/demand draws): are the two
 *    empirical distributions consistent with one underlying law?
 *  - Confidence-interval overlap on per-seed scalar metrics
 *    (sustained throughput, p95 at best): across N independent seeds,
 *    do the exact and fast estimates agree within their own noise?
 *
 * equivalenceGate() aggregates the individual checks into one verdict,
 * the same role the bit-identity comparison plays for exact mode;
 * bench_ensemble composes the fast-mode/2 gate from the individual
 * checks directly.
 */

#ifndef WSC_STATS_EQUIVALENCE_HH
#define WSC_STATS_EQUIVALENCE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace wsc {
namespace stats {

/** Two-sample Kolmogorov-Smirnov test result. */
struct KsResult {
    double statistic = 0.0; //!< sup |F1(x) - F2(x)|
    double pValue = 1.0;    //!< asymptotic (Stephens' correction)
    std::size_t n1 = 0, n2 = 0;

    /** Equivalent at level @p alpha: fail to reject the same-law H0. */
    bool passes(double alpha) const { return pValue > alpha; }
};

/**
 * Two-sample KS test. Copies and sorts both samples; each must hold at
 * least 2 points. The p-value uses the asymptotic Kolmogorov
 * distribution with Stephens' finite-sample correction, accurate for
 * effective sizes >= ~4.
 */
KsResult ksTwoSample(std::vector<double> a, std::vector<double> b);

/** Result of a seed-block permutation KS test. */
struct PermKsResult {
    double statistic = 0.0; //!< pooled KS D under the observed labels
    double pValue = 1.0;    //!< exact permutation p-value
    std::size_t permutations = 0; //!< balanced relabelings enumerated

    /** Equivalent at level @p alpha: fail to reject exchangeability. */
    bool passes(double alpha) const { return pValue > alpha; }
};

/**
 * Seed-block permutation KS test.
 *
 * A pooled two-sample KS p-value assumes iid samples, but ensemble
 * per-cell-hour metrics are correlated within a run: cross-cell spills
 * and shared MMPP burst luck shift every sample from one seed
 * together. Exact-vs-exact A/A pools at disjoint seeds show null D up
 * to ~0.3 where the iid critical value is ~0.08 — the plain p-value is
 * wildly anti-conservative. The fix is to treat the *run* (one seed on
 * one engine) as the exchangeable unit: enumerate every balanced
 * relabeling of the 2N blocks, recompute the pooled D for each, and
 * report the rank of the observed D in that null. Valid under
 * arbitrary within-block correlation.
 *
 * Each block is optionally mean-centered first (@p centerBlocks),
 * removing per-seed common shifts; this tightens the null from
 * D ~ 0.1-0.3 to ~0.02-0.04 so genuine within-run shape changes
 * (queueing-tail distortions) stand out. Pure location biases removed
 * by centering are the CI-overlap checks' job.
 *
 * Requires equal block counts per side, 2..8 blocks per side. D is
 * symmetric in the two pools, so the enumeration counts each balanced
 * *partition* once — C(2N-1, N-1) <= 6435 of them. The identity
 * partition is included, so pValue >= 1/permutations; with N = 5
 * there are 126 partitions and the smallest attainable p is
 * 1/126 ~ 0.0079.
 */
PermKsResult
blockPermutationKs(std::vector<std::vector<double>> blocksA,
                   std::vector<std::vector<double>> blocksB,
                   bool centerBlocks = true);

/** Mean with a symmetric Student-t confidence interval. */
struct MeanCi {
    double mean = 0.0;
    double halfWidth = 0.0; //!< t_{df,conf} * s / sqrt(n)
    std::size_t n = 0;
    double lo() const { return mean - halfWidth; }
    double hi() const { return mean + halfWidth; }
};

/**
 * Two-sided Student-t confidence interval for the mean of @p xs.
 * @p confidence must be 0.95 or 0.99 (tabulated critical values).
 * Needs at least 2 samples.
 */
MeanCi meanCi(const std::vector<double> &xs, double confidence = 0.95);

/** CI-overlap check between two per-seed metric sets. */
struct OverlapResult {
    MeanCi a, b;
    bool overlap = false; //!< [a.lo,a.hi] and [b.lo,b.hi] intersect
    /** |mean gap| as a fraction of the pooled mean (diagnostic). */
    double relGap = 0.0;
};

OverlapResult ciOverlap(const std::vector<double> &a,
                        const std::vector<double> &b,
                        double confidence = 0.95);

/** Gate thresholds. */
struct EquivalenceSpec {
    /**
     * KS rejection level. Small on purpose: the gate runs on fixed
     * seeds, so this is a margin against realization noise, not a
     * per-run false-positive rate; genuine distribution changes drive
     * the p-value to ~0 at the gate's sample sizes.
     */
    double ksAlpha = 1e-3;
    /**
     * Rejection level for blockPermutationKs checks. With 5 blocks a
     * side (126 balanced partitions) this fails only when the
     * observed D is the strict maximum of the permutation null —
     * false-positive rate ~1/126 per check under exchangeability.
     */
    double permAlpha = 0.008;
    /** Confidence for the per-seed metric intervals (0.95 or 0.99). */
    double ciConfidence = 0.95;
};

/** One named check inside a gate verdict. */
struct GateCheck {
    std::string name;
    /** "ks", "ci-overlap", "perm-ks", "ordering", or (bench
     * identity gates) "bit-identity". */
    std::string kind;
    bool passed = false;
    double statistic = 0.0; //!< KS D, or relative mean gap
    double pValue = 1.0;    //!< KS only; 1.0 for CI checks
};

/** Aggregated verdict: passes iff every check passes. */
struct GateVerdict {
    bool passed = true;
    std::vector<GateCheck> checks;
};

/** Named sample sets / per-seed metrics to compare exact vs fast. */
struct NamedSamples {
    std::string name;
    std::vector<double> exact;
    std::vector<double> fast;
};

/**
 * Run the full gate: a KS test per entry of @p distributions and a
 * CI-overlap check per entry of @p metrics.
 */
GateVerdict equivalenceGate(const std::vector<NamedSamples> &distributions,
                            const std::vector<NamedSamples> &metrics,
                            const EquivalenceSpec &spec = {});

} // namespace stats
} // namespace wsc

#endif // WSC_STATS_EQUIVALENCE_HH
