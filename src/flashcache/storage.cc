#include "flashcache/storage.hh"

#include <exception>
#include <future>
#include <map>
#include <mutex>

#include "util/logging.hh"

namespace wsc {
namespace flashcache {

StorageOption
StorageOption::localDesktop()
{
    StorageOption o;
    o.name = "Local Desktop";
    o.disk = desktopDisk();
    return o;
}

StorageOption
StorageOption::remoteLaptop()
{
    StorageOption o;
    o.name = "Remote Laptop";
    o.disk = laptopDisk();
    return o;
}

StorageOption
StorageOption::remoteLaptopFlash()
{
    StorageOption o;
    o.name = "Remote Laptop + Flash";
    o.disk = laptopDisk();
    o.hasFlashCache = true;
    return o;
}

StorageOption
StorageOption::remoteLaptop2Flash()
{
    StorageOption o;
    o.name = "Remote Laptop-2 + Flash";
    o.disk = laptop2Disk();
    o.hasFlashCache = true;
    return o;
}

std::vector<StorageOption>
StorageOption::all()
{
    return {localDesktop(), remoteLaptop(), remoteLaptopFlash(),
            remoteLaptop2Flash()};
}

namespace {

/**
 * Steady-state flash hit rate per benchmark, replayed once per
 * (benchmark, capacity) for the process. DesignEvaluator's pool
 * workers ask concurrently: the first caller of a key replays, and
 * every other caller of that key waits for its value.
 */
double
flashHitRateFor(workloads::Benchmark b, const FlashSpec &spec)
{
    static std::mutex mutex;
    static std::map<std::pair<workloads::Benchmark, double>,
                    std::shared_future<double>>
        cache; // guarded by mutex
    auto key = std::make_pair(b, spec.capacityGB);

    std::promise<double> replay;
    std::shared_future<double> rate;
    bool mine = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto [it, inserted] = cache.try_emplace(key);
        if (inserted)
            it->second = replay.get_future().share();
        rate = it->second;
        mine = inserted;
    }
    if (!mine)
        return rate.get(); // waits, outside the lock, while it replays
    // 2M post-page-cache accesses: enough to warm a 262144-block
    // cache and measure a stable second-half hit rate. Replayed
    // outside the lock, so other keys proceed meanwhile.
    try {
        replay.set_value(evaluateFlashCache(b, spec, 2000000,
                                            /* bytes/s */ 5.0e6, 777)
                             .hitRate);
    } catch (...) {
        replay.set_exception(std::current_exception());
    }
    return rate.get();
}

} // namespace

perfsim::PerfOptions
perfOptionsFor(const StorageOption &option, workloads::Benchmark b)
{
    perfsim::PerfOptions opts;
    opts.diskOverride = option.disk;
    if (option.disk.remote)
        opts.extraDiskAccessMs = sanAccessOverheadMs;
    if (option.hasFlashCache) {
        opts.flashCacheHitRate = flashHitRateFor(b, option.flash);
        opts.flashAccessMs = option.flash.readLatencyUs * 1e-3;
        opts.flashReadMBs = option.flash.bandwidthMBs;
    }
    return opts;
}

platform::ServerConfig
withStorage(const platform::ServerConfig &server,
            const StorageOption &option)
{
    platform::ServerConfig cfg = server;
    cfg.disk = option.disk;
    if (option.hasFlashCache) {
        // The flash lives on the server board (Section 3.5).
        cfg.boardMgmtDollars += option.flash.dollars;
        cfg.boardMgmtWatts += option.flash.watts;
    }
    return cfg;
}

} // namespace flashcache
} // namespace wsc
