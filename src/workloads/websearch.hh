/**
 * @file
 * The websearch benchmark: unstructured-data query serving.
 *
 * Models the paper's Nutch/Tomcat/Apache stack: a 1.3 GB index over
 * 1.3 million documents with 25% of index terms cached in memory.
 * Query keywords follow a Zipf distribution over the indexed
 * vocabulary; the number of keywords per query follows the observed
 * real-world mix of Xie & O'Hallaron (1-4 terms dominate). Queries
 * touching uncached (cold) terms read posting lists from disk.
 *
 * QoS (Table 1): >95% of queries complete within 0.5 seconds.
 */

#ifndef WSC_WORKLOADS_WEBSEARCH_HH
#define WSC_WORKLOADS_WEBSEARCH_HH

#include "sim/distributions.hh"
#include "workloads/workload.hh"

namespace wsc {
namespace workloads {

/** Configuration knobs for the websearch generator. */
struct WebsearchParams {
    std::uint64_t vocabularyTerms = 200000; //!< distinct indexed terms
    double termZipfExponent = 0.95;  //!< keyword popularity skew [40]
    double cachedTermFraction = 0.25; //!< index terms cached in memory
    /** CPU work per query term scored, GHz-seconds. */
    double cpuWorkPerTerm = 8.0e-3;
    /** CPU work floor per query (parse, rank, render). */
    double cpuWorkBase = 10.0e-3;
    double covCpu = 0.6;             //!< lognormal shaping of work
    double postingListBytes = 64.0 * 1024; //!< cold-term read size
    double responseBytes = 24.0 * 1024;     //!< result page size
};

/**
 * Websearch request generator.
 */
class Websearch : public InteractiveWorkload
{
  public:
    explicit Websearch(WebsearchParams params = {});

    std::string name() const override { return "websearch"; }

    WorkloadTraits
    traits() const override
    {
        WorkloadTraits t;
        // Fitted against Figure 2(c) websearch row; see
        // perfsim/calibration.hh for the derivation.
        t.cacheBeta = 0.08;
        t.cpuScalingGamma = 0.55;
        t.diskCacheHitRate = 0.0; // cold terms always hit disk
        return t;
    }

    QosSpec
    qos() const override
    {
        return QosSpec{0.95, 0.5};
    }

    ServiceDemand nextRequest(Rng &rng) override;

    ServiceDemand meanDemand() const override;

    /** Number of keywords in the next query (1..4 observed mix). */
    unsigned sampleKeywordCount(Rng &rng);

    /** Whether a sampled term's postings are memory-resident. */
    bool termIsCached(std::uint64_t rank) const;

    const WebsearchParams &params() const { return p; }

  private:
    WebsearchParams p;
    sim::ZipfDist termDist;
    sim::EmpiricalDist keywordCountDist;
    /** Per-query lognormal work multiplier around 1 (mean 1, covCpu). */
    sim::LognormalDist cpuShape;
    /** Ranks at or below this are cached (popular terms are cached). */
    std::uint64_t cachedRankLimit;
    /** termDist.cdfAt(cachedRankLimit): a term whose uniform is at or
     * below this draws a cached rank. */
    double cachedCdf;
    bool termCachedFor(double u) const { return u <= cachedCdf; }
    double meanKeywords;
    double coldTermProb; //!< probability one sampled term is uncached
};

} // namespace workloads
} // namespace wsc

#endif // WSC_WORKLOADS_WEBSEARCH_HH
