#include "workloads/websearch.hh"

#include <cmath>

#include "util/logging.hh"

namespace wsc {
namespace workloads {

Websearch::Websearch(WebsearchParams params)
    : p(params), termDist(p.vocabularyTerms, p.termZipfExponent),
      // Keyword-count mix after Xie & O'Hallaron: short queries
      // dominate web search traffic.
      keywordCountDist({1.0, 2.0, 3.0, 4.0, 5.0},
                       {0.28, 0.36, 0.22, 0.10, 0.04}),
      cpuShape(1.0, p.covCpu)
{
    WSC_ASSERT(p.cachedTermFraction >= 0.0 && p.cachedTermFraction <= 1.0,
               "cached fraction out of range");
    cachedRankLimit =
        std::uint64_t(double(p.vocabularyTerms) * p.cachedTermFraction);
    // No rank is cached at limit 0, and every uniform exceeds -1.
    cachedCdf = cachedRankLimit ? termDist.cdfAt(cachedRankLimit) : -1.0;
    meanKeywords = keywordCountDist.mean();
    // P(term cached) = CDF of the Zipf at the cached-rank limit.
    double cached_mass = 0.0;
    for (std::uint64_t k = 1; k <= cachedRankLimit; ++k)
        cached_mass += termDist.pmf(k);
    coldTermProb = 1.0 - cached_mass;
}

unsigned
Websearch::sampleKeywordCount(Rng &rng)
{
    return unsigned(keywordCountDist.sampleImpl(rng));
}

bool
Websearch::termIsCached(std::uint64_t rank) const
{
    return rank <= cachedRankLimit;
}

ServiceDemand
Websearch::nextRequest(Rng &rng)
{
    unsigned keywords = sampleKeywordCount(rng);
    ServiceDemand d;
    double work = p.cpuWorkBase + p.cpuWorkPerTerm * double(keywords);
    // Shape per-query variability with a lognormal multiplier around 1.
    d.cpuWork = work * cpuShape.sampleImpl(rng);
    // Each keyword's rank matters only through termIsCached, so its
    // uniform is compared with the CDF at the cached-rank limit
    // instead of inverted: the same draw, the same verdict.
    for (unsigned i = 0; i < keywords; ++i)
        if (!termCachedFor(rng.uniform()))
            d.diskReadBytes += p.postingListBytes;
    d.netBytes = p.responseBytes;
    return d;
}

ServiceDemand
Websearch::meanDemand() const
{
    ServiceDemand d;
    d.cpuWork = p.cpuWorkBase + p.cpuWorkPerTerm * meanKeywords;
    d.diskReadBytes = meanKeywords * coldTermProb * p.postingListBytes;
    // One access per query that has at least one cold term.
    d.diskReadOps = 1.0 - std::pow(1.0 - coldTermProb, meanKeywords);
    d.netBytes = p.responseBytes;
    return d;
}

} // namespace workloads
} // namespace wsc
