#include "memblade/trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace wsc {
namespace memblade {

TraceProfile
profileFor(workloads::Benchmark b)
{
    using workloads::Benchmark;
    TraceProfile p;
    switch (b) {
      case Benchmark::Websearch:
        // Large index footprint scanned with modest locality: the
        // workload with the largest memory usage and slowdown (4.7%
        // at 25% local in the paper).
        p.name = "websearch";
        p.footprintPages = 480000; // ~1.9 GB of 4 KB pages
        p.hotSetFraction = 0.12;
        p.hotProb = 0.62;
        p.zipfS = 0.7;
        p.seqRunMean = 6.0;
        p.touchesPerSecond = 7.0e4;
        break;
      case Benchmark::Webmail:
        // Small per-request state, highly reused PHP/runtime pages:
        // near-zero slowdown in the paper (0.2%).
        p.name = "webmail";
        p.footprintPages = 300000;
        p.hotSetFraction = 0.08;
        p.hotProb = 0.93;
        p.zipfS = 1.1;
        p.seqRunMean = 2.0;
        p.touchesPerSecond = 6.0e4;
        break;
      case Benchmark::Ytube:
        // Media in page cache with Zipf popularity; moderate reuse,
        // big streamed objects (1.4% slowdown).
        p.name = "ytube";
        p.footprintPages = 460000;
        p.hotSetFraction = 0.15;
        p.hotProb = 0.80;
        p.zipfS = 0.9;
        p.seqRunMean = 24.0;
        p.touchesPerSecond = 8.3e4;
        break;
      case Benchmark::MapredWc:
        // Streaming splits: sequential runs over a large footprint,
        // but a compact hot heap (0.7% slowdown).
        p.name = "mapred-wc";
        p.footprintPages = 420000;
        p.hotSetFraction = 0.10;
        p.hotProb = 0.88;
        p.zipfS = 0.6;
        p.seqRunMean = 32.0;
        p.touchesPerSecond = 4.6e4;
        break;
      case Benchmark::MapredWr:
        p.name = "mapred-wr";
        p.footprintPages = 380000;
        p.hotSetFraction = 0.10;
        p.hotProb = 0.88;
        p.zipfS = 0.6;
        p.seqRunMean = 32.0;
        p.touchesPerSecond = 4.2e4;
        break;
    }
    return p;
}

TraceGenerator::TraceGenerator(TraceProfile profile, Rng rng_in)
    : p(std::move(profile)), rng(rng_in),
      hotDist(std::max<std::uint64_t>(
                  1, std::uint64_t(double(p.footprintPages) *
                                   p.hotSetFraction)),
              p.zipfS),
      coldDist(std::max<std::uint64_t>(
                   1, p.footprintPages -
                          std::uint64_t(double(p.footprintPages) *
                                        p.hotSetFraction)),
               p.zipfS)
{
    WSC_ASSERT(p.footprintPages > 0, "empty footprint");
    WSC_ASSERT(p.hotSetFraction > 0.0 && p.hotSetFraction < 1.0,
               "hot-set fraction out of (0,1)");
    WSC_ASSERT(p.hotProb >= 0.0 && p.hotProb <= 1.0,
               "hot probability out of [0,1]: " << p.hotProb);
    WSC_ASSERT(p.seqRunMean >= 0.0,
               "sequential run mean negative or NaN: " << p.seqRunMean);
    hotPages = std::uint64_t(double(p.footprintPages) * p.hotSetFraction);
    hotBound = Rng::bernoulliBound(p.hotProb);
    if (p.seqRunMean > 1.0)
        continueBound = Rng::bernoulliBound(1.0 - 1.0 / p.seqRunMean);
}

std::size_t
TraceGenerator::drainRun(PageId *out, std::size_t n)
{
    auto take = std::size_t(std::min<std::uint64_t>(runLeft, n));
    if (runPage + take < p.footprintPages) {
        PageId page = runPage;
        for (std::size_t j = 0; j < take; ++j)
            out[j] = ++page;
        runPage = page;
    } else {
        for (std::size_t j = 0; j < take; ++j) {
            runPage = (runPage + 1) % p.footprintPages;
            out[j] = runPage;
        }
    }
    runLeft -= take;
    return take;
}

void
TraceGenerator::nextBatch(PageId *out, std::size_t n)
{
    std::size_t i = drainRun(out, n);
    Mt19937_64 &raw = rng.raw();
    const bool runs = p.seqRunMean > 1.0;
    while (i < n) {
        // Plan: each run's draws in stream order, while its start page
        // lands in the batch. The uniforms wait in per-region lists.
        double hotU[kPlanRuns], coldU[kPlanRuns];
        std::uint16_t extra[kPlanRuns];
        bool hot[kPlanRuns];
        std::size_t planned = 0, nHot = 0, nCold = 0;
        for (std::size_t at = i; at < n && planned < kPlanRuns;
             ++planned) {
            bool h = DrawBound(raw()) < hotBound;
            double u = Rng::canonical(raw());
            (h ? hotU[nHot++] : coldU[nCold++]) = u;
            std::uint64_t len =
                runs ? raw.runBelow(continueBound, kMaxRunExtra) : 0;
            hot[planned] = h;
            extra[planned] = std::uint16_t(len);
            at += 1 + len;
        }

        // Invert: all of the block's ranks, a region at a time.
        std::uint64_t hotRank[kPlanRuns], coldRank[kPlanRuns];
        hotDist.rankForUniforms(hotU, hotRank, nHot);
        coldDist.rankForUniforms(coldU, coldRank, nCold);

        // Emit: hot pages occupy the low ids; Zipf rank 1 is hottest.
        // The last run may end past the batch and stays pending.
        nHot = nCold = 0;
        for (std::size_t r = 0; r < planned; ++r) {
            runPage = hot[r] ? hotRank[nHot++] - 1
                             : hotPages + (coldRank[nCold++] - 1);
            runLeft = extra[r];
            out[i++] = runPage;
            i += drainRun(out + i, n - i);
        }
    }
}

std::vector<PageId>
generateTrace(const TraceProfile &profile, std::uint64_t n, Rng rng)
{
    TraceGenerator gen(profile, rng);
    std::vector<PageId> out(n);
    gen.nextBatch(out.data(), out.size());
    return out;
}

} // namespace memblade
} // namespace wsc
