#include "memblade/page_source.hh"

#include <algorithm>

#include "memblade/trace_stream.hh"
#include "util/logging.hh"

namespace wsc {
namespace memblade {

PageSource::PageSource(TraceGenerator &gen_in, std::uint64_t count,
                       std::uint64_t pageBound)
    : gen(&gen_in), size_(count), pageBound_(pageBound), buf(kChunk)
{
}

PageSource::PageSource(const PageId *pages_in, std::size_t n,
                       std::uint64_t pageBound)
    : pages(pages_in), size_(n), pageBound_(pageBound)
{
}

PageSource::PageSource(TraceStream &ts)
    : stream(&ts), size_(ts.remaining()), pageBound_(ts.pageBound()),
      buf(kChunk)
{
}

std::span<const PageId>
PageSource::next(std::uint64_t upTo)
{
    if (upTo <= done || done == size_)
        return {};
    auto n = std::size_t(
        std::min<std::uint64_t>({kChunk, upTo - done, size_ - done}));
    const PageId *batch = buf.data();
    if (pages) {
        batch = pages + done;
        WSC_ASSERT(std::find(batch, batch + n, ~PageId(0)) == batch + n,
                   "page id ~0 is reserved");
    } else if (gen) {
        gen->nextBatch(buf.data(), n);
    } else {
        std::size_t got = stream->fillPages(buf.data(), n);
        WSC_ASSERT(got == n, "trace stream ended early");
    }
    done += n;
    return {batch, n};
}

std::pair<Rng, TraceGenerator>
profileTrace(const TraceProfile &profile, std::uint64_t seed)
{
    Rng rng(seed);
    Rng kernelRng = rng.split();
    return {kernelRng, TraceGenerator(profile, rng.split())};
}

} // namespace memblade
} // namespace wsc
