/**
 * @file
 * Unit tests for the flash disk-cache subsystem (Table 3).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "flashcache/devices.hh"
#include "flashcache/flash_cache.hh"
#include "flashcache/io_trace.hh"
#include "flashcache/storage.hh"
#include "platform/catalog.hh"

namespace {

using namespace wsc;
using namespace wsc::flashcache;

TEST(Devices, Table3aParameters)
{
    auto lap = laptopDisk();
    EXPECT_DOUBLE_EQ(lap.capacityGB, 200.0);
    EXPECT_DOUBLE_EQ(lap.bandwidthMBs, 20.0);
    EXPECT_DOUBLE_EQ(lap.avgAccessMs, 15.0);
    EXPECT_DOUBLE_EQ(lap.watts, 2.0);
    EXPECT_DOUBLE_EQ(lap.dollars, 80.0);
    EXPECT_TRUE(lap.remote);

    auto lap2 = laptop2Disk();
    EXPECT_DOUBLE_EQ(lap2.dollars, 40.0);
    EXPECT_DOUBLE_EQ(lap2.bandwidthMBs, lap.bandwidthMBs);

    auto desk = desktopDisk();
    EXPECT_DOUBLE_EQ(desk.capacityGB, 500.0);
    EXPECT_DOUBLE_EQ(desk.bandwidthMBs, 70.0);
    EXPECT_DOUBLE_EQ(desk.avgAccessMs, 4.0);
    EXPECT_DOUBLE_EQ(desk.watts, 10.0);
    EXPECT_DOUBLE_EQ(desk.dollars, 120.0);
    EXPECT_FALSE(desk.remote);

    FlashSpec flash;
    EXPECT_DOUBLE_EQ(flash.capacityGB, 1.0);
    EXPECT_DOUBLE_EQ(flash.dollars, 14.0);
    EXPECT_DOUBLE_EQ(flash.watts, 0.5);
    EXPECT_DOUBLE_EQ(flash.bandwidthMBs, 50.0);
    EXPECT_DOUBLE_EQ(flash.readLatencyUs, 20.0);
    EXPECT_DOUBLE_EQ(flash.writeLatencyUs, 200.0);
    EXPECT_DOUBLE_EQ(flash.eraseLatencyMs, 1.2);
}

TEST(Cache, HitOnSecondAccess)
{
    FlashCache cache(FlashSpec{});
    EXPECT_FALSE(cache.lookup(7));
    EXPECT_TRUE(cache.lookup(7));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().lookups, 2u);
}

TEST(Cache, CapacityInBlocks)
{
    FlashCache cache(FlashSpec{}, 4.0);
    // 1 GiB / 4 KiB = 262144 blocks.
    EXPECT_EQ(cache.capacityBlocks(), 262144u);
}

TEST(Cache, LruEvictionUnderPressure)
{
    FlashSpec tiny;
    tiny.capacityGB = 4.0 * 2 / (1024.0 * 1024.0); // two 4 KB blocks
    FlashCache cache(tiny);
    ASSERT_EQ(cache.capacityBlocks(), 2u);
    cache.lookup(1);
    cache.lookup(2);
    EXPECT_TRUE(cache.lookup(1));  // 1 MRU
    cache.lookup(3);               // evicts 2
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(2));
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(Cache, ReinsertResidentAtCapacityIsIdempotent)
{
    // Regression: insert on an already-resident block used to evict a
    // victim, push a duplicate recency node, and overwrite the map
    // iterator — leaving a stale node that a later eviction erased
    // out from under the live MRU block.
    FlashSpec tiny;
    tiny.capacityGB = 4.0 * 3 / (1024.0 * 1024.0); // three 4 KB blocks
    FlashCache cache(tiny);
    ASSERT_EQ(cache.capacityBlocks(), 3u);

    cache.admit(1);
    cache.admit(2);
    cache.admit(3);
    ASSERT_EQ(cache.residentBlocks(), 3u);

    // Re-admitting a resident block at capacity must not evict,
    // duplicate, or write.
    auto evictions = cache.stats().evictions;
    auto written = cache.stats().bytesWrittenToFlash;
    cache.admit(2);
    EXPECT_EQ(cache.stats().evictions, evictions);
    EXPECT_EQ(cache.stats().bytesWrittenToFlash, written);
    EXPECT_EQ(cache.residentBlocks(), 3u);
    EXPECT_EQ(cache.lruChainLength(), cache.residentBlocks());

    // Re-admission refreshed 2's recency: pressure now evicts 1 (the
    // true LRU), and all surviving blocks still hit.
    cache.admit(4);
    EXPECT_EQ(cache.residentBlocks(), 3u);
    EXPECT_EQ(cache.lruChainLength(), cache.residentBlocks());
    EXPECT_FALSE(cache.lookup(1)); // miss re-inserts 1, evicting 3
    EXPECT_TRUE(cache.lookup(2));
    EXPECT_TRUE(cache.lookup(4));

    // Churn the same working set hard; the map and recency list must
    // never diverge.
    for (int round = 0; round < 100; ++round) {
        cache.admit(BlockId(round % 5));
        cache.writeBlock(BlockId((round * 3) % 5));
        cache.lookup(BlockId((round * 7) % 5));
        ASSERT_LE(cache.residentBlocks(), cache.capacityBlocks());
        ASSERT_EQ(cache.lruChainLength(), cache.residentBlocks());
    }
}

TEST(Cache, WriteBlockTracksWear)
{
    FlashCache cache(FlashSpec{});
    auto before = cache.stats().bytesWrittenToFlash;
    cache.writeBlock(1);
    cache.writeBlock(1);
    EXPECT_GT(cache.stats().bytesWrittenToFlash, before);
}

TEST(Cache, LifetimeMath)
{
    FlashCache cache(FlashSpec{});
    // Writing the full 1 GiB device once per day: 100k cycles is
    // about 274 years.
    double bytes_per_sec = 1.0 * 1024 * 1024 * 1024 / 86400.0;
    EXPECT_NEAR(cache.lifetimeYears(bytes_per_sec), 100000.0 / 365.0,
                2.0);
}

TEST(IoTrace, ProfilesForAllBenchmarks)
{
    for (auto b : workloads::allBenchmarks) {
        auto p = ioProfileFor(b);
        EXPECT_GT(p.footprintPages, 0u);
    }
}

TEST(IoTrace, InteractiveWorkloadsCacheWell)
{
    // The flash cache pays off on the skewed interactive workloads;
    // streaming mapreduce barely reuses blocks (its 5 GB corpus blows
    // through the 1 GB device).
    FlashSpec spec;
    auto ws = evaluateFlashCache(workloads::Benchmark::Websearch, spec,
                                 400000, 5e6, 1);
    auto wc = evaluateFlashCache(workloads::Benchmark::MapredWc, spec,
                                 400000, 5e6, 1);
    EXPECT_GT(ws.hitRate, 0.6);
    EXPECT_LT(wc.hitRate, 0.5);
    EXPECT_GT(ws.hitRate, wc.hitRate);
}

TEST(IoTrace, LifetimeWithinDepreciationForInteractive)
{
    // Paper Section 3.5: 3-year depreciation makes flash viable for
    // the interactive workloads.
    FlashSpec spec;
    auto ws = evaluateFlashCache(workloads::Benchmark::Websearch, spec,
                                 400000, 5e6, 2);
    EXPECT_GT(ws.lifetimeYears, 3.0);
}

TEST(IoTrace, SweepMatchesPerSpecEvaluationExactly)
{
    // The single-pass stack-distance sweep must report exactly what
    // per-capacity replays report — bitwise on the doubles, since
    // both sides run the same arithmetic on the same integer counts.
    std::vector<FlashSpec> specs;
    for (double gb : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        FlashSpec s;
        s.capacityGB = gb;
        specs.push_back(s);
    }
    for (auto b : {workloads::Benchmark::Websearch,
                   workloads::Benchmark::Webmail}) {
        auto swept = evaluateFlashCacheSweep(b, specs, 300000, 5e6, 3);
        ASSERT_EQ(swept.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE(specs[i].capacityGB);
            auto direct =
                evaluateFlashCache(b, specs[i], 300000, 5e6, 3);
            EXPECT_EQ(swept[i].hitRate, direct.hitRate);
            EXPECT_EQ(swept[i].wearCyclesPerBlock,
                      direct.wearCyclesPerBlock);
            EXPECT_EQ(swept[i].lifetimeYears, direct.lifetimeYears);
        }
    }
}

TEST(Storage, FourOptionsInOrder)
{
    auto all = StorageOption::all();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].name, "Local Desktop");
    EXPECT_EQ(all[1].name, "Remote Laptop");
    EXPECT_EQ(all[2].name, "Remote Laptop + Flash");
    EXPECT_EQ(all[3].name, "Remote Laptop-2 + Flash");
    EXPECT_FALSE(all[0].hasFlashCache);
    EXPECT_TRUE(all[2].hasFlashCache);
}

TEST(Storage, PerfOptionsCarrySanOverhead)
{
    auto opts = perfOptionsFor(StorageOption::remoteLaptop(),
                               workloads::Benchmark::Ytube);
    ASSERT_TRUE(opts.diskOverride.has_value());
    EXPECT_DOUBLE_EQ(opts.extraDiskAccessMs, sanAccessOverheadMs);
    EXPECT_DOUBLE_EQ(opts.flashCacheHitRate, 0.0);

    auto local = perfOptionsFor(StorageOption::localDesktop(),
                                workloads::Benchmark::Ytube);
    EXPECT_DOUBLE_EQ(local.extraDiskAccessMs, 0.0);
}

TEST(Storage, FlashOptionsCarryHitRate)
{
    auto opts = perfOptionsFor(StorageOption::remoteLaptopFlash(),
                               workloads::Benchmark::Websearch);
    EXPECT_GT(opts.flashCacheHitRate, 0.5);
    EXPECT_LT(opts.flashCacheHitRate, 1.0);
    EXPECT_DOUBLE_EQ(opts.flashReadMBs, 50.0);
}

// Pool workers ask for one key at once: the first replays, the rest
// wait for its value, so every caller reads the same hit rate.
TEST(Storage, ConcurrentCallersShareOneFlashReplay)
{
    const auto option = StorageOption::remoteLaptopFlash();
    const auto b = workloads::Benchmark::Webmail;
    std::vector<double> rates(4, -1.0);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < rates.size(); ++w)
        threads.emplace_back([&, w] {
            rates[w] = perfOptionsFor(option, b).flashCacheHitRate;
        });
    for (auto &t : threads)
        t.join();
    double again = perfOptionsFor(option, b).flashCacheHitRate;
    EXPECT_GT(again, 0.0);
    for (double r : rates)
        EXPECT_EQ(r, again);
}

TEST(Storage, CostApplicationReplacesDiskAddsFlash)
{
    auto emb1 = platform::makeSystem(platform::SystemClass::Emb1);
    auto cfg = withStorage(emb1, StorageOption::remoteLaptopFlash());
    EXPECT_DOUBLE_EQ(cfg.disk.dollars, 80.0);
    EXPECT_DOUBLE_EQ(cfg.disk.watts, 2.0);
    EXPECT_DOUBLE_EQ(cfg.boardMgmtDollars,
                     emb1.boardMgmtDollars + 14.0);
    EXPECT_DOUBLE_EQ(cfg.boardMgmtWatts, emb1.boardMgmtWatts + 0.5);

    auto plain = withStorage(emb1, StorageOption::remoteLaptop());
    EXPECT_DOUBLE_EQ(plain.boardMgmtDollars, emb1.boardMgmtDollars);
}

TEST(Storage, Laptop2CheaperSamePerformance)
{
    auto a = StorageOption::remoteLaptopFlash();
    auto b = StorageOption::remoteLaptop2Flash();
    EXPECT_LT(b.disk.dollars, a.disk.dollars);
    EXPECT_DOUBLE_EQ(b.disk.bandwidthMBs, a.disk.bandwidthMBs);
    EXPECT_DOUBLE_EQ(b.disk.avgAccessMs, a.disk.avgAccessMs);
}

} // namespace
