#include "memblade/replay.hh"

#include <cmath>

#include "memblade/policy_zoo.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

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

/** Replay chunk size: big enough to amortize the batch-fill call,
 * small enough to stay L1/L2 resident (32 KB of page ids). */
constexpr std::size_t kChunk = 4096;

/** Prefetch distance: the batch buffer shows us future page ids, so
 * their hash-probe lines can be in flight while earlier accesses
 * retire — far enough to cover a memory round trip, near enough that
 * the line is still resident when its access arrives. */
constexpr std::size_t kPrefetch = 16;

template <typename Kernel>
WindowedReplay
replayLoop(Kernel &kernel, TraceGenerator &gen, std::uint64_t accesses,
           std::uint64_t warmup, ColdTracker &cold)
{
    WSC_ASSERT(warmup <= accesses, "warmup longer than the replay");
    WindowedReplay w;
    std::vector<PageId> buf(kChunk);
    std::uint64_t done = 0;
    while (done < accesses) {
        auto n = std::size_t(
            std::min<std::uint64_t>(kChunk, accesses - done));
        gen.nextBatch(buf.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            if (i + kPrefetch < n)
                kernel.prefetch(buf[i + kPrefetch]);
            PageId page = buf[i];
            bool measured = done + i >= warmup;
            ++w.total.accesses;
            w.measured.accesses += measured;
            if (kernel.access(page)) {
                ++w.total.hits;
                w.measured.hits += measured;
                continue;
            }
            ++w.total.misses;
            w.measured.misses += measured;
            if (cold.firstTouch(page)) {
                ++w.total.coldMisses;
                w.measured.coldMisses += measured;
            }
        }
        done += n;
    }
    return w;
}

template <typename Kernel>
ReplayStats
replayPagesLoop(Kernel &kernel, const PageId *pages, std::size_t n,
                ColdTracker &cold)
{
    ReplayStats st;
    st.accesses = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetch < n)
            kernel.prefetch(pages[i + kPrefetch]);
        PageId page = pages[i];
        WSC_ASSERT(page != PageSlotMap::kEmptyKey,
                   "page id ~0 is reserved");
        if (kernel.access(page)) {
            ++st.hits;
            continue;
        }
        ++st.misses;
        if (cold.firstTouch(page))
            ++st.coldMisses;
    }
    return st;
}

} // namespace

WindowedReplay
replayWindowed(TraceGenerator &gen, PolicyKind kind, std::size_t frames,
               std::uint64_t pageBound, std::uint64_t accesses,
               std::uint64_t warmup, Rng kernelRng)
{
    ColdTracker cold(pageBound);
    return withPolicyKernel(kind, frames, pageBound, kernelRng,
                            [&](auto &k) {
                                return replayLoop(k, gen, accesses,
                                                  warmup, cold);
                            });
}

ReplayStats
replayPages(const PageId *pages, std::size_t n, PolicyKind kind,
            std::size_t frames, std::uint64_t pageBound, Rng kernelRng)
{
    ColdTracker cold(pageBound);
    return withPolicyKernel(kind, frames, pageBound, kernelRng,
                            [&](auto &k) {
                                return replayPagesLoop(k, pages, n,
                                                       cold);
                            });
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
    // Same Rng derivation as the TwoLevelMemory oracle replay that
    // test_replay checks this against, so results stay bit-identical
    // for any (profile, fraction, seed).
    Rng rng(seed);
    Rng kernel_rng = rng.split();
    TraceGenerator gen(profile, rng.split());
    return replayWindowed(gen, kind, frames, profile.footprintPages,
                          accesses, 0, kernel_rng)
        .total;
}

ReplayStats
shardedReplayProfile(const TraceProfile &profile, double localFraction,
                     PolicyKind kind, std::uint64_t accesses,
                     std::uint64_t seed, unsigned shards,
                     ThreadPool *pool)
{
    WSC_ASSERT(shards > 0, "need at least one shard");
    WSC_ASSERT(localFraction > 0.0 && localFraction <= 1.0,
               "local fraction out of (0, 1]");

    std::vector<ReplayStats> parts(shards);
    parallelFor(
        shards,
        [&](std::size_t s) {
            std::uint64_t base = accesses / shards;
            std::uint64_t n = base + (s < accesses % shards ? 1 : 0);
            // Seed from the shard's identity, never from scheduling.
            std::uint64_t shard_seed =
                seedFor(seed, std::string_view(profile.name),
                        std::uint64_t(shards), std::uint64_t(s));
            parts[s] = replayProfile(profile, localFraction, kind, n,
                                     shard_seed);
        },
        pool);

    // Deterministic merge: sum in shard order.
    ReplayStats merged;
    for (const auto &p : parts) {
        merged.accesses += p.accesses;
        merged.hits += p.hits;
        merged.misses += p.misses;
        merged.coldMisses += p.coldMisses;
    }
    return merged;
}

} // namespace memblade
} // namespace wsc
