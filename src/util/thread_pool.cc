/**
 * @file
 * Thread pool and parallel-for implementation.
 */

#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/logging.hh"

namespace omega {

ThreadPool::ThreadPool(unsigned num_threads)
{
    const unsigned n = std::max(1u, num_threads);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    omega_assert(task != nullptr, "submitted an empty task");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        omega_assert(!stopping_, "submit() on a stopping pool");
        queue_.push_back(std::move(task));
    }
    task_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock,
                   [this] { return queue_.empty() && in_flight_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            task_ready_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --in_flight_;
            if (queue_.empty() && in_flight_ == 0)
                all_done_.notify_all();
        }
    }
}

unsigned
ThreadPool::hardwareJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (jobs <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs, n));
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    ThreadPool pool(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.submit([&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                try {
                    body(i);
                } catch (...) {
                    std::unique_lock<std::mutex> lock(error_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                    // Keep draining indices: siblings may be mid-body on
                    // shared result slots, so the loop must stay simple
                    // and every index must be claimed exactly once.
                }
            }
        });
    }
    pool.wait();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace omega
