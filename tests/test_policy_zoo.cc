/**
 * @file
 * Unit tests for the replacement-policy zoo (ARC, SLRU, 2Q, LFUDA).
 *
 * The acceptance criterion for the zoo is the replay-kernel oracle
 * contract: every kernel makes exactly the same hit/miss decision as
 * its per-access reference implementation on every access. The grid test
 * enforces it across all five workload profiles and three capacities;
 * the edge tests pin tiny frame counts and adversarial patterns where
 * the published algorithms have the most corner cases.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "memblade/policy_zoo.hh"
#include "memblade/trace_io.hh"
#include "util/logging.hh"

namespace {

using namespace wsc;
using namespace wsc::memblade;

constexpr PolicyKind kZooKinds[] = {PolicyKind::Arc, PolicyKind::Slru,
                                    PolicyKind::TwoQ,
                                    PolicyKind::Lfuda};

/**
 * Replay @p trace through both the flat kernel and the per-access
 * reference of @p kind, demanding the identical decision (and the
 * identical resident count) on every single access.
 */
void
expectKernelMatchesReference(PolicyKind kind,
                             const std::vector<PageId> &trace,
                             std::size_t frames, std::uint64_t bound,
                             const std::string &label)
{
    auto ref = makePolicy(kind, frames, Rng(21));
    withPolicyKernel(kind, frames, bound, Rng(21), [&](auto &k) {
        for (std::size_t i = 0; i < trace.size(); ++i) {
            bool kernelHit = k.access(trace[i]);
            bool refHit = ref->access(trace[i]);
            if (kernelHit != refHit) {
                ADD_FAILURE()
                    << label << ": decision diverged at access " << i
                    << " (page " << trace[i] << "): kernel "
                    << (kernelHit ? "hit" : "miss") << ", reference "
                    << (refHit ? "hit" : "miss");
                return;
            }
            if (k.resident() != ref->resident()) {
                ADD_FAILURE()
                    << label << ": resident counts diverged at access "
                    << i << ": kernel " << k.resident()
                    << ", reference " << ref->resident();
                return;
            }
        }
        EXPECT_LE(ref->resident(), frames) << label;
    });
}

// The acceptance-criterion grid: every new policy, all five workload
// profiles, three capacities spanning thrashing to comfortable.
TEST(PolicyZoo, KernelMatchesReferenceAcrossWorkloadsAndCapacities)
{
    const double fractions[] = {0.01, 0.05, 0.25};
    for (auto b : workloads::allBenchmarks) {
        auto profile = profileFor(b);
        auto trace = generateTrace(profile, 30000, Rng(42));
        for (double f : fractions) {
            auto frames = std::size_t(
                std::max(1.0, double(profile.footprintPages) * f));
            for (PolicyKind kind : kZooKinds)
                expectKernelMatchesReference(
                    kind, trace, frames, profile.footprintPages,
                    std::string(to_string(kind)) + "/" + profile.name +
                        "/" + std::to_string(f));
        }
    }
}

// Tiny caches exercise every structural corner: SLRU with no
// protected segment (frames == 1), 2Q with Kin == Kout == 1, ARC with
// target pinned at the edges, LFUDA heap of 1-3 slots.
TEST(PolicyZoo, KernelMatchesReferenceAtTinyCapacities)
{
    TraceProfile small;
    small.name = "tiny";
    small.footprintPages = 8;
    auto trace = generateTrace(small, 4000, Rng(3));
    for (std::size_t frames : {std::size_t(1), std::size_t(2),
                               std::size_t(3), std::size_t(5)}) {
        for (PolicyKind kind : kZooKinds)
            expectKernelMatchesReference(
                kind, trace, frames, small.footprintPages,
                std::string(to_string(kind)) + "/tiny/" +
                    std::to_string(frames));
    }
}

// Adversarial shapes: a looping set one larger than the cache (LRU's
// worst case, where ARC/2Q should adapt) and a hot set punctuated by
// one-shot sequential scans (the scan-resistance motivation).
TEST(PolicyZoo, KernelMatchesReferenceOnAdversarialPatterns)
{
    std::vector<PageId> loop;
    for (int rep = 0; rep < 200; ++rep)
        for (PageId p = 0; p < 17; ++p)
            loop.push_back(p);

    std::vector<PageId> scanned;
    PageId scanBase = 100;
    for (int rep = 0; rep < 100; ++rep) {
        for (PageId p = 0; p < 8; ++p) // hot set
            scanned.push_back(p);
        for (PageId p = 0; p < 32; ++p) // one-shot scan
            scanned.push_back(scanBase++);
    }

    for (PolicyKind kind : kZooKinds) {
        expectKernelMatchesReference(
            kind, loop, 16, 17,
            std::string(to_string(kind)) + "/loop17");
        expectKernelMatchesReference(
            kind, scanned, 16, scanBase,
            std::string(to_string(kind)) + "/scan");
    }
}

// Sparse page ids (bound 0) take PageSlotMap's hashed path instead of
// the direct-mapped table; the oracle contract must hold there too.
TEST(PolicyZoo, KernelMatchesReferenceWithSparseIds)
{
    TraceProfile small;
    small.name = "sparse";
    small.footprintPages = 64;
    auto trace = generateTrace(small, 5000, Rng(8));
    for (auto &p : trace)
        p = p * 0x9e3779b97f4a7c15ull % (std::uint64_t(1) << 40);
    for (PolicyKind kind : kZooKinds)
        expectKernelMatchesReference(
            kind, trace, 16, 0,
            std::string(to_string(kind)) + "/sparse");
}

// The batched replay driver (chunked fills, prefetch hints) must not
// change any decision relative to the plain per-access loop.
TEST(PolicyZoo, ReplayPagesMatchesReferenceHitCounts)
{
    auto profile = profileFor(workloads::Benchmark::Webmail);
    auto trace = generateTrace(profile, 50000, Rng(17));
    auto frames =
        std::size_t(double(profile.footprintPages) * 0.25);
    for (PolicyKind kind : kZooKinds) {
        auto fast = replayPages(trace.data(), trace.size(), kind,
                                frames, profile.footprintPages,
                                Rng(7));
        auto ref = makePolicy(kind, frames, Rng(7));
        std::uint64_t refHits = 0;
        for (PageId p : trace)
            refHits += ref->access(p);
        EXPECT_EQ(fast.hits, refHits) << to_string(kind);
        EXPECT_EQ(fast.misses, trace.size() - refHits)
            << to_string(kind);
        EXPECT_EQ(fast.accesses, trace.size()) << to_string(kind);
    }
}

TEST(PolicyZoo, PolicyNamesRoundTrip)
{
    for (PolicyKind kind : allPolicyKinds) {
        EXPECT_EQ(policyFromString(to_string(kind)), kind);
        auto p = makePolicy(kind, 8, Rng(1));
        EXPECT_EQ(p->name(), to_string(kind));
    }
    EXPECT_THROW(policyFromString("mru"), FatalError);
    EXPECT_THROW(policyFromString(""), FatalError);
}

// LFUDA's defining behavior: after an eviction raises the age, a new
// page's key starts at 1 + age, so long-resident high-count pages do
// not starve newcomers forever (plain LFU would).
TEST(PolicyZoo, LfudaAgesOutStaleFrequentPages)
{
    auto policy = makePolicy(PolicyKind::Lfuda, 2, Rng(1));
    for (int i = 0; i < 100; ++i)
        policy->access(1); // page 1: count 100
    policy->access(2);     // fills the second frame
    // Alternate two fresh pages: each miss evicts the other fresh
    // page and raises the age; once age exceeds page 1's key, page 1
    // becomes the victim and a fresh page finally sticks.
    for (int i = 0; i < 300; ++i)
        policy->access(3 + (i & 1));
    bool page1Hit = policy->access(1);
    EXPECT_FALSE(page1Hit);
}

// SLRU's defining behavior: a page must be touched twice to enter the
// protected segment, and one-shot pages wash through probation only.
TEST(PolicyZoo, SlruProtectsReReferencedPages)
{
    auto policy = makePolicy(PolicyKind::Slru, 4, Rng(1));
    policy->access(1);
    policy->access(1); // promoted to protected
    // 100 one-shot pages churn the 2-frame probationary segment...
    for (PageId p = 10; p < 110; ++p)
        policy->access(p);
    // ...but the protected page survives.
    EXPECT_TRUE(policy->access(1));
}

} // namespace
