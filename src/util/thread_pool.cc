#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include <sched.h>

#include "util/logging.hh"

namespace wsc {

namespace {

/** True on threads owned by some ThreadPool; guards against nested
 * parallelFor deadlocking on its own pool. */
thread_local bool insideWorker = false;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    unsigned n = threads ? threads : defaultThreads();
    // A four-digit pool is already oversubscription on any current
    // machine; beyond that it is a caller bug (e.g. a negative count
    // wrapped through unsigned) that would exhaust process limits.
    WSC_ASSERT(n <= 4096, "implausible thread count: " << n);
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    cvJob.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::post(std::function<void()> job)
{
    WSC_ASSERT(job, "null pool job");
    {
        std::lock_guard<std::mutex> lock(mtx);
        WSC_ASSERT(!stopping, "post() on a stopping pool");
        queue.push_back(std::move(job));
    }
    cvJob.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mtx);
    cvIdle.wait(lock, [this] { return queue.empty() && active == 0; });
}

void
ThreadPool::workerLoop()
{
    insideWorker = true;
    while (true) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cvJob.wait(lock,
                       [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            job = std::move(queue.front());
            queue.pop_front();
            ++active;
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mtx);
            --active;
            if (queue.empty() && active == 0)
                cvIdle.notify_all();
        }
    }
}

unsigned
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("WSC_THREADS")) {
        long n = std::atol(env);
        if (n > 0)
            return unsigned(n);
        warn("ignoring non-positive WSC_THREADS value");
    }
    return allowedCpus();
}

unsigned
ThreadPool::allowedCpus()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        int n = CPU_COUNT(&mask);
        if (n > 0)
            return unsigned(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace {

std::unique_ptr<ThreadPool> globalPool;
/**
 * Pools replaced by setGlobalThreads(). global() returns a reference,
 * so a concurrent caller may still hold (and post to) the previous
 * pool when it is swapped out; destroying it would dangle that
 * reference. Retired pools stay alive — idle, workers parked on the
 * condition variable — until process exit, when their destructors
 * drain and join. Resizes are rare (a --threads flag at startup), so
 * the retained memory is bounded in practice.
 */
std::vector<std::unique_ptr<ThreadPool>> retiredPools;
std::mutex globalPoolMtx;

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(globalPoolMtx);
    if (!globalPool)
        globalPool = std::make_unique<ThreadPool>();
    return *globalPool;
}

void
ThreadPool::setGlobalThreads(unsigned threads)
{
    // Build the replacement before taking the lock so a failing
    // construction (implausible thread count) leaves the global
    // untouched.
    auto replacement = std::make_unique<ThreadPool>(threads);
    std::lock_guard<std::mutex> lock(globalPoolMtx);
    if (globalPool)
        retiredPools.push_back(std::move(globalPool));
    globalPool = std::move(replacement);
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)> &body,
            ThreadPool *pool)
{
    WSC_ASSERT(body, "null parallelFor body");
    if (n == 0)
        return;

    if (!pool)
        pool = &ThreadPool::global();

    // Serial fast path: trivial trip counts, single-threaded pools,
    // and nested calls from inside a worker (which would otherwise
    // wait on jobs the occupied pool cannot schedule).
    if (n == 1 || pool->threads() <= 1 || insideWorker) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    struct Shared {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::exception_ptr error;
        std::mutex errorMtx;
        std::mutex doneMtx;
        std::condition_variable doneCv;
    };
    auto shared = std::make_shared<Shared>();

    std::size_t jobs = std::min<std::size_t>(pool->threads(), n);
    auto drain = [shared, n, &body] {
        for (std::size_t i = shared->next.fetch_add(1); i < n;
             i = shared->next.fetch_add(1)) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(shared->errorMtx);
                if (!shared->error)
                    shared->error = std::current_exception();
            }
        }
    };
    for (std::size_t j = 0; j < jobs; ++j) {
        pool->post([shared, drain] {
            drain();
            std::lock_guard<std::mutex> lock(shared->doneMtx);
            ++shared->done;
            shared->doneCv.notify_all();
        });
    }
    // The caller participates instead of idling: it claims iterations
    // from the same cursor, then waits for the pool's share.
    drain();
    {
        std::unique_lock<std::mutex> lock(shared->doneMtx);
        shared->doneCv.wait(
            lock, [&] { return shared->done.load() == jobs; });
    }
    if (shared->error)
        std::rethrow_exception(shared->error);
}

} // namespace wsc
