/**
 * @file
 * The one page reader behind every memory-blade replay (paper
 * Sections 3.4 and 3.5): a synthetic generator, a caller's page array
 * or a streaming .strace file, handed out in contiguous batches to
 * the policy kernels, the stack-distance engine, the two-level
 * hierarchy and the hybrid blade alike. Batching, each source's input
 * checks and any read-ahead live here once. A source knows its length
 * and page-id bound before its first page, so an analysis can size
 * its tables, or refuse a trace it cannot hold, up front.
 */

#ifndef WSC_MEMBLADE_PAGE_SOURCE_HH
#define WSC_MEMBLADE_PAGE_SOURCE_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "memblade/trace.hh"
#include "util/random.hh"

namespace wsc {
namespace memblade {

class TraceStream;

/** Sequential batches of page ids from one of three sources. */
class PageSource
{
  public:
    /** Pages per batch: big enough to amortize a generator or stream
     * fill, small enough to stay L1/L2 resident (32 KB of ids). */
    static constexpr std::size_t kChunk = 4096;

    /** The next @p count pages of @p gen; every id < @p pageBound. */
    PageSource(TraceGenerator &gen, std::uint64_t count,
               std::uint64_t pageBound);

    /**
     * @p pages[0..n), handed out in place (never copied), so the
     * array must outlive the source. The all-ones id is reserved
     * (PageSlotMap's empty marker) and panics when reached.
     *
     * @param pageBound Ids are < pageBound (0 = unknown/sparse).
     */
    PageSource(const PageId *pages, std::size_t n,
               std::uint64_t pageBound);

    /** The records of @p ts not yet consumed; ids are bounded by its
     * header (a record breaking the bound is fatal). */
    explicit PageSource(TraceStream &ts);

    /** Pages the source hands out in all. */
    std::uint64_t size() const { return size_; }

    /** Every id is < pageBound() (0 = unknown/sparse). */
    std::uint64_t pageBound() const { return pageBound_; }

    /**
     * The next batch: up to kChunk pages, ending before page index
     * @p upTo (counted from the source's first page), so a caller can
     * stop exactly at a warmup boundary. Empty at the end of the
     * source or at @p upTo. Valid until the next call.
     */
    std::span<const PageId> next(std::uint64_t upTo = ~std::uint64_t(0));

  private:
    TraceGenerator *gen = nullptr;
    const PageId *pages = nullptr;
    TraceStream *stream = nullptr;
    std::uint64_t size_ = 0;
    std::uint64_t pageBound_ = 0;
    std::uint64_t done = 0;   //!< pages handed out so far
    std::vector<PageId> buf; //!< generator/stream batch
};

/**
 * The kernel Rng and trace generator every per-profile replay
 * derives from @p seed, in this order: the first split drives the
 * policy kernel (consumed by PolicyKind::Random only), the second the
 * generator. Sharing it keeps replayProfile, the LRU curves and the
 * hierarchy replays of one (profile, seed) on the same trace.
 */
std::pair<Rng, TraceGenerator> profileTrace(const TraceProfile &profile,
                                            std::uint64_t seed);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_PAGE_SOURCE_HH
