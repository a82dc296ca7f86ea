/**
 * @file
 * Synthetic page-access traces for the memory-sharing study.
 *
 * The paper gathered memory traces from full-system simulation of the
 * benchmarks on the emb1 model and replayed them through a two-level
 * memory simulator (Section 3.4). We substitute a synthetic trace
 * generator whose streams have the workloads' page-grain reuse
 * structure: a hot working set that captures most touches, a Zipf-
 * distributed warm region, and sequential scan runs (mapreduce's
 * streaming splits, websearch's posting scans).
 *
 * Each benchmark also carries a page-touch rate (TLB-visible distinct-
 * page touches per second of execution) used to convert remote-miss
 * rates into execution slowdowns; these are calibrated against the
 * paper's Figure 4(b) and documented in EXPERIMENTS.md.
 */

#ifndef WSC_MEMBLADE_TRACE_HH
#define WSC_MEMBLADE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/distributions.hh"
#include "util/random.hh"
#include "workloads/suite.hh"

namespace wsc {
namespace memblade {

/** A page identifier within a workload's footprint. */
using PageId = std::uint64_t;

/** Parameters shaping one workload's page-access stream. */
struct TraceProfile {
    std::string name;
    std::uint64_t footprintPages = 1 << 18; //!< distinct pages touched
    double hotSetFraction = 0.1;  //!< fraction of footprint that is hot
    double hotProb = 0.8;         //!< probability a touch hits the hot set
    double zipfS = 0.8;           //!< skew within each region
    double seqRunMean = 1.0;      //!< mean sequential run length (pages)
    /** Distinct-page touches per second of execution on emb1. */
    double touchesPerSecond = 1.0e5;
};

/** The calibrated profile for one benchmark. */
TraceProfile profileFor(workloads::Benchmark b);

/**
 * Streaming generator of page ids following a TraceProfile.
 *
 * The stream is a sequence of runs. A run starts at a page drawn from
 * the hot region (probability hotProb) or the cold one, by a Zipf rank
 * within the region; when seqRunMean > 1 a geometric number of
 * following pages (continue probability 1 - 1/seqRunMean, capped at
 * kMaxRunExtra) continue it sequentially, wrapping at footprintPages.
 * Each run start takes, in order, the hot/cold draw, the Zipf uniform
 * and the run-length draws (the last one fails, or the cap is hit).
 */
class TraceGenerator
{
  public:
    /** Most pages a run adds after its start page. */
    static constexpr std::uint64_t kMaxRunExtra = 4096;

    TraceGenerator(TraceProfile profile, Rng rng);

    /** Next page id in [0, footprintPages); nextBatch of one page. */
    PageId
    next()
    {
        PageId page;
        nextBatch(&page, 1);
        return page;
    }

    /**
     * Fill @p out[0..n) with the next @p n page ids.
     *
     * Works in blocks of up to kPlanRuns runs, in three passes: plan
     * (take every run's draws in stream order, keeping the Zipf
     * uniforms uninverted), invert (turn the uniforms into ranks in
     * bulk, so table misses overlap) and emit (write the pages). A
     * run is planned only if its start page lands in this batch, so
     * the generator state after nextBatch(n) is the state after any
     * other split of the same n pages into batches.
     */
    void nextBatch(PageId *out, std::size_t n);

    const TraceProfile &profile() const { return p; }

    /** The draw stream, as far as the pages emitted so far took it. */
    const Rng &drawStream() const { return rng; }

  private:
    /** Runs planned per block (the size of nextBatch's plan arrays). */
    static constexpr std::size_t kPlanRuns = 256;

    /** Emit up to @p n pages of the pending run into @p out; returns
     * how many. */
    std::size_t drainRun(PageId *out, std::size_t n);

    TraceProfile p;
    Rng rng;
    sim::ZipfDist hotDist;
    sim::ZipfDist coldDist;
    std::uint64_t hotPages;
    /** Raw draws below these pick the hot region / continue a run
     * (Rng::bernoulliBound of hotProb and of 1 - 1/seqRunMean). */
    DrawBound hotBound = 0;
    DrawBound continueBound = 0;
    // Sequential-run state: the last page emitted and how many of
    // its run are still to come.
    PageId runPage = 0;
    std::uint64_t runLeft = 0;
};

/** Materialize @p n accesses (for tests and offline analysis). */
std::vector<PageId> generateTrace(const TraceProfile &profile,
                                  std::uint64_t n, Rng rng);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_TRACE_HH
