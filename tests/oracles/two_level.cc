#include "oracles/two_level.hh"

namespace wsc {
namespace memblade {

TwoLevelMemory::TwoLevelMemory(std::size_t localFrames, PolicyKind kind,
                               Rng rng)
    : policy(makePolicy(kind, localFrames, rng))
{
}

void
TwoLevelMemory::access(PageId page)
{
    ++stats_.accesses;
    bool hit = policy->access(page);
    if (hit) {
        ++stats_.hits;
        return;
    }
    ++stats_.misses;
    auto [it, inserted] = seen.emplace(page, true);
    (void)it;
    if (inserted)
        ++stats_.coldMisses;
}

void
TwoLevelMemory::replay(TraceGenerator &gen, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        access(gen.next());
}

} // namespace memblade
} // namespace wsc
