#include "memblade/replay.hh"

#include <cmath>

#include "memblade/policy_zoo.hh"
#include "util/logging.hh"

namespace wsc {
namespace memblade {

namespace {

std::size_t
nextPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

PageSlotMap::PageSlotMap(std::size_t maxEntries,
                         std::uint64_t pageBound)
{
    WSC_ASSERT(maxEntries > 0, "empty page-slot map");
    if (pageBound > 0 && pageBound <= kDirectLimit) {
        direct.assign(std::size_t(pageBound), kNoSlot);
        return;
    }
    // <= 50% load keeps linear-probe chains short for the whole
    // replay; 16 is the floor so tiny caches still probe sparsely.
    std::size_t capacity = nextPow2(std::max<std::size_t>(
        16, maxEntries * 2));
    table.assign(capacity, Entry{kEmptyKey, kNoSlot});
    mask = capacity - 1;
}

void
PageSlotMap::erase(PageId page)
{
    if (!direct.empty()) {
        WSC_ASSERT(page < direct.size() &&
                       direct[std::size_t(page)] != kNoSlot,
                   "erase of absent page");
        direct[std::size_t(page)] = kNoSlot;
        --count;
        return;
    }
    std::size_t i = idealIndex(page);
    while (table[i].key != page) {
        WSC_ASSERT(table[i].key != kEmptyKey,
                   "erase of absent page");
        i = (i + 1) & mask;
    }
    --count;
    // Backward-shift deletion: close the hole at i by pulling forward
    // any later entry whose probe path runs through it, repeating
    // until the chain ends. No tombstones, so probe lengths stay
    // bounded by the load factor forever.
    std::size_t j = i;
    for (;;) {
        table[i].key = kEmptyKey;
        for (;;) {
            j = (j + 1) & mask;
            if (table[j].key == kEmptyKey)
                return;
            std::size_t k = idealIndex(table[j].key);
            // Keep the entry at j if its ideal slot k lies cyclically
            // in (i, j]: its probe path does not pass through i.
            bool keep = (i <= j) ? (i < k && k <= j)
                                 : (i < k || k <= j);
            if (!keep)
                break;
        }
        table[i] = table[j];
        i = j;
    }
}

LruKernel::LruKernel(std::size_t frames, std::uint64_t pageBound)
    : frames_(frames), links(frames), pages(frames),
      map(frames, pageBound)
{
    WSC_ASSERT(frames > 0, "LRU needs at least one frame");
}

RandomKernel::RandomKernel(std::size_t frames, Rng rng_in,
                           std::uint64_t pageBound)
    : frames_(frames), rng(rng_in), map(frames, pageBound)
{
    WSC_ASSERT(frames > 0, "random policy needs at least one frame");
    slots.reserve(frames);
}

ClockKernel::ClockKernel(std::size_t frames, std::uint64_t pageBound)
    : frames_(frames), map(frames, pageBound)
{
    WSC_ASSERT(frames > 0, "clock needs at least one frame");
    ring.reserve(frames);
    referenced.reserve(frames);
}

ColdTracker::ColdTracker(std::uint64_t pageBound)
{
    if (pageBound > 0 && pageBound <= kBitsetLimit)
        bits.assign(std::size_t((pageBound + 63) / 64), 0);
}

namespace {

/** Prefetch distance: the batch shows us future page ids, so their
 * hash-probe lines can be in flight while earlier accesses retire —
 * far enough to cover a memory round trip, near enough that the line
 * is still resident when its access arrives. */
constexpr std::size_t kPrefetch = 16;

/** The per-access policy loop of every replay. The warmup window is a
 * snapshot of the running counts at page index @p warmup, so
 * measured = total - snapshot. */
template <typename Kernel>
WindowedReplay
replayLoop(Kernel &kernel, PageSource &src, std::uint64_t warmup,
           ColdTracker &cold)
{
    ReplayStats st;
    auto drain = [&](std::uint64_t upTo) {
        for (auto b = src.next(upTo); !b.empty(); b = src.next(upTo)) {
            st.accesses += b.size();
            for (std::size_t i = 0; i < b.size(); ++i) {
                if (i + kPrefetch < b.size())
                    kernel.prefetch(b[i + kPrefetch]);
                PageId page = b[i];
                if (kernel.access(page)) {
                    ++st.hits;
                    continue;
                }
                ++st.misses;
                if (cold.firstTouch(page))
                    ++st.coldMisses;
            }
        }
    };
    drain(warmup);
    ReplayStats atWarmup = st;
    drain(src.size());
    WindowedReplay w{st, st};
    w.measured.accesses -= atWarmup.accesses;
    w.measured.hits -= atWarmup.hits;
    w.measured.misses -= atWarmup.misses;
    w.measured.coldMisses -= atWarmup.coldMisses;
    return w;
}

} // namespace

WindowedReplay
replayWindowed(PageSource &src, PolicyKind kind, std::size_t frames,
               std::uint64_t warmup, Rng kernelRng)
{
    WSC_ASSERT(frames > 0, "need at least one frame");
    WSC_ASSERT(warmup <= src.size(), "warmup longer than the replay");
    ColdTracker cold(src.pageBound());
    return withPolicyKernel(kind, frames, src.pageBound(), kernelRng,
                            [&](auto &k) {
                                return replayLoop(k, src, warmup, cold);
                            });
}

WindowedReplay
replayWindowed(TraceGenerator &gen, PolicyKind kind, std::size_t frames,
               std::uint64_t pageBound, std::uint64_t accesses,
               std::uint64_t warmup, Rng kernelRng)
{
    PageSource src(gen, accesses, pageBound);
    return replayWindowed(src, kind, frames, warmup, kernelRng);
}

ReplayStats
replayPages(const PageId *pages, std::size_t n, PolicyKind kind,
            std::size_t frames, std::uint64_t pageBound, Rng kernelRng)
{
    PageSource src(pages, n, pageBound);
    return replayWindowed(src, kind, frames, 0, kernelRng).total;
}

ReplayStats
replayStream(TraceStream &ts, PolicyKind kind, std::size_t frames,
             Rng kernelRng)
{
    PageSource src(ts);
    return replayWindowed(src, kind, frames, 0, kernelRng).total;
}

ReplayStats
replayProfile(const TraceProfile &profile, double localFraction,
              PolicyKind kind, std::uint64_t accesses,
              std::uint64_t seed)
{
    WSC_ASSERT(localFraction > 0.0 && localFraction <= 1.0,
               "local fraction out of (0, 1]");
    auto frames = std::size_t(
        std::ceil(double(profile.footprintPages) * localFraction));
    // The TwoLevelMemory oracle replay that test_replay checks this
    // against derives its Rngs the same way, so results stay
    // bit-identical for any (profile, fraction, seed).
    auto [kernelRng, gen] = profileTrace(profile, seed);
    return replayWindowed(gen, kind, frames, profile.footprintPages,
                          accesses, 0, kernelRng)
        .total;
}

} // namespace memblade
} // namespace wsc
