/**
 * @file
 * Work-sharing thread pool and deterministic parallelFor.
 *
 * The design-space sweeps are embarrassingly parallel: every
 * (design, workload) cell is an independent simulation. This pool
 * fans those cells out across hardware threads while preserving the
 * repo's determinism contract: tasks are identified by index, write
 * only to their own output slot, and derive RNG seeds from their
 * identity (see util/hash.hh), so results are bit-identical to the
 * serial order for any thread count.
 *
 * Thread count resolution, highest priority first:
 *  1. an explicit count passed by the caller,
 *  2. the WSC_THREADS environment variable,
 *  3. allowedCpus(): the CPUs the process's affinity mask permits
 *     (so `taskset -c 0` yields one worker, not one per core).
 */

#ifndef WSC_UTIL_THREAD_POOL_HH
#define WSC_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsc {

/**
 * A fixed-size pool of worker threads executing queued jobs.
 *
 * Jobs may not block on other jobs in the same pool (no futures
 * between jobs); parallelFor() is the intended high-level interface.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means defaultThreads(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned threads() const { return unsigned(workers.size()); }

    /** Enqueue a job for asynchronous execution. */
    void post(std::function<void()> job);

    /** Block until every queued and running job has finished. */
    void wait();

    /** WSC_THREADS if set and positive, else allowedCpus(). */
    static unsigned defaultThreads();

    /**
     * CPUs the calling thread may run on (sched_getaffinity). Where
     * the mask is unavailable, falls back to the online-CPU count,
     * which ignores the mask. Always >= 1.
     */
    static unsigned allowedCpus();

    /**
     * The process-wide pool used by parallelFor() when no pool is
     * passed. Created on first use with defaultThreads() workers.
     */
    static ThreadPool &global();

    /**
     * Resize the global pool (e.g. from a --threads flag). Safe to
     * call while other threads hold references from global(): the
     * previous pool is retired, not destroyed — outstanding
     * references stay valid and already-posted jobs still run on it —
     * and is reclaimed at process exit. Callers that want subsequent
     * work on the new width must re-fetch global().
     */
    static void setGlobalThreads(unsigned threads);

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mtx;
    std::condition_variable cvJob;   //!< signals workers: job or stop
    std::condition_variable cvIdle;  //!< signals wait(): all drained
    std::size_t active = 0;          //!< jobs currently executing
    bool stopping = false;
};

/**
 * Run body(i) for i in [0, n) across the pool's workers.
 *
 * Iterations are claimed dynamically (an atomic cursor), so skew
 * between task costs is balanced automatically; determinism is the
 * task's responsibility (slot-indexed output, identity-derived seeds).
 * The first exception thrown by any iteration is rethrown in the
 * caller after all workers drain. Runs inline without touching the
 * pool when n <= 1, when the pool has a single thread, or when called
 * from inside a pool worker (nested parallelism degrades to serial
 * rather than deadlocking).
 *
 * @param n iteration count
 * @param body callable invoked with each index exactly once
 * @param pool pool to use; nullptr selects ThreadPool::global()
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body,
                 ThreadPool *pool = nullptr);

} // namespace wsc

#endif // WSC_UTIL_THREAD_POOL_HH
