/**
 * @file
 * Unit tests for the thread pool, parallelFor, and seed hashing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/hash.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

#include <sched.h>

namespace {

using namespace wsc;

TEST(ThreadPool, ReportsRequestedThreadCount)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
}

TEST(ThreadPool, ZeroSelectsDefaultThreads)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threads(), ThreadPool::defaultThreads());
    EXPECT_GE(pool.threads(), 1u);
}

TEST(ThreadPool, DefaultThreadsHonorsAffinityMask)
{
    // hardware_concurrency() counts every online CPU; a process
    // pinned to one (taskset -c N) must still get one default worker.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    std::optional<std::string> env;
    if (const char *e = std::getenv("WSC_THREADS"))
        env = e;
    unsetenv("WSC_THREADS");

    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    unsigned pinned = ThreadPool::defaultThreads();
    unsigned pinnedCpus = ThreadPool::allowedCpus();

    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    if (env)
        setenv("WSC_THREADS", env->c_str(), 1);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(pinnedCpus, 1u);
    EXPECT_EQ(ThreadPool::allowedCpus(), unsigned(CPU_COUNT(&saved)));
}

TEST(ThreadPool, PostedJobsAllRun)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.post([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturns)
{
    ThreadPool pool(2);
    pool.wait(); // must not hang
}

TEST(ThreadPool, NullJobPanics)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.post(std::function<void()>()), PanicError);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(1000);
        parallelFor(
            hits.size(), [&](std::size_t i) { ++hits[i]; }, &pool);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, ZeroIterationsIsANoop)
{
    ThreadPool pool(2);
    parallelFor(0, [](std::size_t) { FAIL(); }, &pool);
}

TEST(ParallelFor, SlotIndexedOutputMatchesSerial)
{
    std::vector<double> serial(512), parallel(512);
    auto body = [](std::size_t i) {
        return double(seedFor(7, "slot", std::uint64_t(i)) % 1000);
    };
    for (std::size_t i = 0; i < serial.size(); ++i)
        serial[i] = body(i);
    ThreadPool pool(8);
    parallelFor(
        parallel.size(),
        [&](std::size_t i) { parallel[i] = body(i); }, &pool);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(
                     100,
                     [](std::size_t i) {
                         if (i == 42)
                             throw std::runtime_error("boom");
                     },
                     &pool),
                 std::runtime_error);
}

TEST(ParallelFor, ExceptionDoesNotPoisonThePool)
{
    ThreadPool pool(2);
    EXPECT_THROW(parallelFor(
                     10,
                     [](std::size_t) {
                         throw std::runtime_error("boom");
                     },
                     &pool),
                 std::runtime_error);
    std::atomic<int> count{0};
    parallelFor(10, [&](std::size_t) { ++count; }, &pool);
    EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, NestedCallsRunSerially)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    parallelFor(
        8,
        [&](std::size_t) {
            // Inner call must not deadlock waiting on the pool that
            // is executing the outer iteration.
            parallelFor(8, [&](std::size_t) { ++count; }, &pool);
        },
        &pool);
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SetGlobalThreadsKeepsRetiredPoolUsable)
{
    // global() hands out references; a resize must not destroy the
    // pool under a caller still holding one.
    ThreadPool &before = ThreadPool::global();
    ThreadPool::setGlobalThreads(2);
    EXPECT_EQ(ThreadPool::global().threads(), 2u);

    // The retired pool still accepts and runs work.
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i)
        before.post([&ran] { ++ran; });
    before.wait();
    EXPECT_EQ(ran.load(), 16);

    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::global().threads(), 3u);
}

TEST(ThreadPool, SetGlobalThreadsRacesWithGlobalUsers)
{
    // Hammer global()/parallelFor from several threads while the main
    // thread resizes the pool repeatedly. Nothing must crash or hang;
    // every iteration of every parallelFor must still run (checked by
    // the per-thread counters).
    std::atomic<bool> stop{false};
    std::vector<std::thread> users;
    std::vector<std::atomic<std::uint64_t>> counts(4);
    for (std::size_t t = 0; t < counts.size(); ++t) {
        users.emplace_back([&, t] {
            while (!stop.load()) {
                ThreadPool &pool = ThreadPool::global();
                parallelFor(
                    32, [&](std::size_t) { ++counts[t]; }, &pool);
            }
        });
    }
    for (unsigned resize = 0; resize < 20; ++resize)
        ThreadPool::setGlobalThreads(1 + resize % 4);
    // Wait for every user thread to finish at least one parallelFor —
    // on a loaded machine some may not have been scheduled during the
    // resize burst above — so the progress assertions below are
    // meaningful rather than timing-dependent.
    auto all_progressed = [&] {
        for (const auto &c : counts)
            if (c.load() == 0)
                return false;
        return true;
    };
    while (!all_progressed())
        std::this_thread::yield();
    stop = true;
    for (auto &u : users)
        u.join();
    for (const auto &c : counts)
        EXPECT_GT(c.load(), 0u);
    EXPECT_EQ(counts[0].load() % 32, 0u);
}

TEST(SeedFor, DeterministicAndOrderSensitive)
{
    EXPECT_EQ(seedFor(1, "emb1", std::uint64_t(2)),
              seedFor(1, "emb1", std::uint64_t(2)));
    EXPECT_NE(seedFor(1, "emb1", std::uint64_t(2)),
              seedFor(2, "emb1", std::uint64_t(2)));
    EXPECT_NE(seedFor(1, "emb1", std::uint64_t(2)),
              seedFor(1, "emb2", std::uint64_t(2)));
    EXPECT_NE(seedFor(1, "emb1", std::uint64_t(2)),
              seedFor(1, "emb1", std::uint64_t(3)));
}

TEST(SeedFor, DistinctDesignNamesDecorrelate)
{
    // A sweep's worth of task identities must not collide.
    std::set<std::uint64_t> seen;
    for (int d = 0; d < 216; ++d)
        for (int b = 0; b < 5; ++b)
            seen.insert(seedFor(12345, "design-" + std::to_string(d),
                                std::uint64_t(b)));
    EXPECT_EQ(seen.size(), 216u * 5u);
}

TEST(SeedFor, StableAcrossPlatforms)
{
    // Pinned value: the hash is part of the reproducibility contract;
    // a change here silently invalidates published BENCH numbers.
    EXPECT_EQ(seedFor(12345, "srvr1/conventional-1U",
                      std::uint64_t(3)),
              3246033846718155911ULL);
}

} // namespace
