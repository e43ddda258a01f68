#include "edgepcc/parallel/thread_pool.h"

#include <atomic>
#include <utility>

namespace edgepcc {

ThreadPool::ThreadPool(std::size_t num_threads)
{
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        shutting_down_ = true;
    }
    task_available_.notifyAll();
    for (auto &worker : workers_)
        worker.join();
}

bool
ThreadPool::popTaskLocked(std::function<void()> &task)
{
    if (queue_.empty())
        return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    return true;
}

void
ThreadPool::finishTask()
{
    MutexLock lock(mutex_);
    if (--in_flight_ == 0)
        all_done_.notifyAll();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        task();
        return;
    }
    {
        MutexLock lock(mutex_);
        queue_.push_back(std::move(task));
        ++in_flight_;
    }
    task_available_.notifyOne();
}

void
ThreadPool::wait()
{
    if (workers_.empty())
        return;
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            // Help drain instead of sleeping: the waiter often
            // submitted this work and owns the captures it uses.
            while (!popTaskLocked(task)) {
                if (in_flight_ == 0)
                    return;
                all_done_.wait(mutex_);
            }
        }
        task();
        finishTask();
    }
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> task;
    {
        MutexLock lock(mutex_);
        if (!popTaskLocked(task))
            return false;
    }
    task();
    finishTask();
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!shutting_down_ && queue_.empty())
                task_available_.wait(mutex_);
            if (!popTaskLocked(task)) {
                // Queue drained during shutdown: exit.
                return;
            }
        }
        task();
        finishTask();
    }
}

namespace {
std::atomic<ThreadPool *> global_override{nullptr};
}  // namespace

ThreadPool &
ThreadPool::global()
{
    if (ThreadPool *override_pool =
            global_override.load(std::memory_order_acquire))
        return *override_pool;
    static ThreadPool pool([] {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 1 ? static_cast<std::size_t>(hw - 1) : 0u;
    }());
    return pool;
}

void
ThreadPool::setGlobalOverride(ThreadPool *pool)
{
    global_override.store(pool, std::memory_order_release);
}

}  // namespace edgepcc
