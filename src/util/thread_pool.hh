/**
 * @file
 * A small shared thread pool with a blocking parallelFor. Used by the
 * activity engine (per-signal toggle generation), K-means, PCA, and the
 * neural-net trainer. The pool is created lazily and shared process-wide;
 * all parallelFor invocations are deterministic with respect to results
 * (workers write disjoint output ranges).
 *
 * parallelFor may be re-entered: a call from one of the pool's own
 * workers runs its body inline, and calls from several outside threads
 * take turns, so neither a nested call nor a second submitter can
 * overwrite a running task.
 */

#ifndef APOLLO_UTIL_THREAD_POOL_HH
#define APOLLO_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace apollo {

/**
 * The most worker threads a configuration may ask for (DroopLabConfig,
 * GaConfig and ServeConfig reject more with InvalidArgument before any
 * pool exists).
 */
inline constexpr size_t kMaxWorkerThreads = 256;

/** Fixed-size worker pool executing [begin, end) range chunks. */
class ThreadPool
{
  public:
    /** @param n_threads 0 means hardware_concurrency(). */
    explicit ThreadPool(size_t n_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t threadCount() const { return workers_.size(); }

    /**
     * Run @p body(begin, end) over chunks of [0, n), blocking until all
     * chunks complete. Exceptions inside chunks propagate to the caller
     * (first one wins). From a worker of this pool the body runs
     * inline; outside submitters are served one at a time.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t)> &body);

    /** Process-wide shared pool (lazily constructed). */
    static ThreadPool &global();

  private:
    struct Task
    {
        const std::function<void(size_t, size_t)> *body = nullptr;
        size_t n = 0;
        size_t chunk = 1;
        size_t next = 0;
        size_t remainingChunks = 0;
        std::exception_ptr error;
    };

    void workerLoop();

    std::vector<std::thread> workers_;
    /** Held by an outside submitter for the whole of its task. */
    std::mutex submitMutex_;
    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    Task *task_ = nullptr;
    uint64_t generation_ = 0;
    bool shutdown_ = false;
};

/** Convenience wrapper over ThreadPool::global().parallelFor. */
void parallelFor(size_t n, const std::function<void(size_t, size_t)> &body);

} // namespace apollo

#endif // APOLLO_UTIL_THREAD_POOL_HH
