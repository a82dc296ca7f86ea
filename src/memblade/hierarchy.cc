#include "memblade/hierarchy.hh"

#include "memblade/page_source.hh"
#include "util/logging.hh"

namespace wsc {
namespace memblade {

std::string
to_string(HierarchyMode mode)
{
    switch (mode) {
      case HierarchyMode::Inclusive:
        return "inclusive";
      case HierarchyMode::Exclusive:
        return "exclusive";
    }
    panic("unknown hierarchy mode");
}

HierarchyMode
hierarchyModeFromString(const std::string &name)
{
    if (name == "inclusive")
        return HierarchyMode::Inclusive;
    if (name == "exclusive")
        return HierarchyMode::Exclusive;
    fatal("unknown hierarchy mode '" + name +
          "' (expected inclusive or exclusive)");
}

TwoLevelHierarchy::TwoLevelHierarchy(const HierarchyParams &params)
    : params_(params)
{
    if (params_.l1Frames == 0 || params_.l2Frames == 0)
        fatal("hierarchy levels need at least one frame each");
    if (params_.mode == HierarchyMode::Inclusive &&
        params_.l2Frames < params_.l1Frames)
        fatal("inclusive hierarchy needs l2Frames >= l1Frames (L1 "
              "must fit inside L2)");
    if (params_.prefetchDepth > 0 && params_.prefetchFrames == 0)
        params_.prefetchFrames = 4 * params_.prefetchDepth;
}

void
TwoLevelHierarchy::fillL2Inclusive(PageId page)
{
    if (l2.touch(page))
        return;
    if (l2.map.size() == params_.l2Frames) {
        PageId victim = l2.popLru();
        // Inclusion: an L2 eviction back-invalidates L1.
        l1.erase(victim);
    }
    l2.insertMru(page);
}

void
TwoLevelHierarchy::demoteToL2(PageId victim)
{
    buf.erase(victim); // keep the prefetch FIFO disjoint from L2
    if (l2.map.size() == params_.l2Frames)
        l2.popLru();
    l2.insertMru(victim);
}

void
TwoLevelHierarchy::fill(PageId page)
{
    buf.erase(page); // keep the prefetch FIFO disjoint from L1
    if (params_.mode == HierarchyMode::Inclusive) {
        fillL2Inclusive(page);
        if (!l1.touch(page)) {
            if (l1.map.size() == params_.l1Frames)
                l1.popLru(); // still in L2; inclusion holds
            l1.insertMru(page);
        }
        return;
    }
    // Exclusive: fill L1 only; the L1 victim demotes to the L2 MRU.
    if (l1.map.size() == params_.l1Frames)
        demoteToL2(l1.popLru());
    l1.insertMru(page);
}

void
TwoLevelHierarchy::issuePrefetches(PageId page)
{
    for (std::size_t d = 1; d <= params_.prefetchDepth; ++d) {
        PageId q = page + d;
        if (q < page) // PageId wraparound
            break;
        if (inL1(q) || inL2(q) || inPrefetch(q))
            continue;
        if (buf.map.size() == params_.prefetchFrames)
            buf.popLru(); // FIFO: drop the oldest prefetch
        buf.insertMru(q);
    }
}

void
TwoLevelHierarchy::access(PageId page)
{
    ++stats_.accesses;
    if (l1.touch(page)) {
        ++stats_.l1Hits;
        return;
    }
    if (inPrefetch(page)) {
        ++stats_.prefetchHits;
        fill(page); // fill() drops it from the buffer
        issuePrefetches(page); // keep a sequential stream ramped
        return;
    }
    if (params_.mode == HierarchyMode::Inclusive) {
        if (l2.touch(page)) {
            ++stats_.l2Hits;
            if (l1.map.size() == params_.l1Frames)
                l1.popLru();
            l1.insertMru(page);
            issuePrefetches(page);
            return;
        }
    } else if (l2.map.count(page) != 0) {
        ++stats_.l2Hits;
        // Exclusive promotion: the page leaves L2 for L1.
        l2.erase(page);
        if (l1.map.size() == params_.l1Frames)
            demoteToL2(l1.popLru());
        l1.insertMru(page);
        issuePrefetches(page);
        return;
    }
    ++stats_.misses;
    fill(page);
    issuePrefetches(page);
}

void
TwoLevelHierarchy::checkInvariants() const
{
    WSC_ASSERT(l1.map.size() == l1.order.size(), "L1 map/list skew");
    WSC_ASSERT(l2.map.size() == l2.order.size(), "L2 map/list skew");
    WSC_ASSERT(buf.map.size() == buf.order.size(),
               "prefetch map/list skew");
    WSC_ASSERT(l1.map.size() <= params_.l1Frames, "L1 over capacity");
    WSC_ASSERT(l2.map.size() <= params_.l2Frames, "L2 over capacity");
    WSC_ASSERT(buf.map.size() <= params_.prefetchFrames,
               "prefetch buffer over capacity");
    for (PageId p : l1.order) {
        if (params_.mode == HierarchyMode::Inclusive)
            WSC_ASSERT(inL2(p), "inclusion violated: L1 page not in L2");
        else
            WSC_ASSERT(!inL2(p), "exclusion violated: page in both levels");
    }
    for (PageId p : buf.order)
        WSC_ASSERT(!inL1(p) && !inL2(p),
                   "prefetch buffer overlaps a cache level");
}

HierarchyStats
replayHierarchy(PageSource &src, const HierarchyParams &params)
{
    TwoLevelHierarchy h(params);
    for (auto b = src.next(); !b.empty(); b = src.next())
        for (PageId page : b)
            h.access(page);
    return h.stats();
}

} // namespace memblade
} // namespace wsc
