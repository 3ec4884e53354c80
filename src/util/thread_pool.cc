#include "util/thread_pool.hh"

#include <algorithm>
#include <cstdint>

namespace apollo {

namespace {

/** The pool whose worker the calling thread is (nullptr elsewhere). */
thread_local const ThreadPool *tlWorkerOf = nullptr;

} // namespace

ThreadPool::ThreadPool(size_t n_threads)
{
    size_t n = n_threads ? n_threads : std::thread::hardware_concurrency();
    n = std::max<size_t>(1, n);
    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    tlWorkerOf = this;
    uint64_t seen_generation = 0;
    for (;;) {
        Task *task = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [&] {
                return shutdown_ || (task_ && generation_ != seen_generation);
            });
            if (shutdown_)
                return;
            seen_generation = generation_;
            task = task_;
        }
        // Pull chunks until the task is drained.
        for (;;) {
            size_t begin;
            size_t end;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!task_ || task != task_ || task->next >= task->n)
                    break;
                begin = task->next;
                end = std::min(task->n, begin + task->chunk);
                task->next = end;
            }
            std::exception_ptr error;
            try {
                (*task->body)(begin, end);
            } catch (...) {
                error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (error && !task->error)
                    task->error = error;
                task->remainingChunks--;
                if (task->remainingChunks == 0)
                    doneCv_.notify_all();
            }
        }
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t)> &body)
{
    if (n == 0)
        return;
    const size_t n_workers = workers_.size();
    // A nested call from one of our workers would overwrite the task
    // its own chunk belongs to: run it inline instead.
    if (n_workers <= 1 || n < 2 || tlWorkerOf == this) {
        body(0, n);
        return;
    }
    std::lock_guard<std::mutex> submit(submitMutex_);

    Task task;
    task.body = &body;
    task.n = n;
    // ~4 chunks per worker for load balance, at least 1 element each.
    task.chunk = std::max<size_t>(1, n / (n_workers * 4));
    task.remainingChunks = (n + task.chunk - 1) / task.chunk;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        task_ = &task;
        generation_++;
    }
    workCv_.notify_all();

    {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&] { return task.remainingChunks == 0; });
        task_ = nullptr;
    }
    if (task.error)
        std::rethrow_exception(task.error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

void
parallelFor(size_t n, const std::function<void(size_t, size_t)> &body)
{
    ThreadPool::global().parallelFor(n, body);
}

} // namespace apollo
