/**
 * @file
 * Fixed-size worker pool used as the "GPU substitute" runtime.
 *
 * The paper offloads data-parallel kernels (Morton generation, octree
 * construction, segment residuals, block matching) to a 512-core Volta
 * GPU. This repository executes the same kernels with a thread pool;
 * the device model (src/platform) charges them to the modelled GPU
 * based on their recorded work, independent of how many host threads
 * actually ran.
 */

#ifndef EDGEPCC_PARALLEL_THREAD_POOL_H
#define EDGEPCC_PARALLEL_THREAD_POOL_H

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "edgepcc/common/sync.h"

namespace edgepcc {

/**
 * A simple task-queue thread pool.
 *
 * Tasks are std::function<void()> run in FIFO order; submission is
 * thread-safe. The pool with zero workers degenerates to inline
 * execution, which keeps single-core hosts (and deterministic tests)
 * fast.
 */
class ThreadPool
{
  public:
    /** @param num_threads worker count; 0 means "execute inline". */
    explicit ThreadPool(std::size_t num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t numThreads() const { return workers_.size(); }

    /** Enqueues a task; runs inline when the pool has no workers.
     *  Callers wait for their own tasks with a per-call latch
     *  (detail::ChunkGroup in parallel_for.h); the destructor runs
     *  every queued task before joining the workers. */
    void submit(std::function<void()> task);

    /**
     * Pops and runs one queued task on the calling thread.
     * @return false when the queue was empty.
     *
     * This is the work-stealing hook the data-parallel primitives
     * use to wait without blocking a worker (see parallel_for.h).
     */
    bool tryRunOne();

    /**
     * Process-wide default pool, sized to the host's hardware
     * concurrency minus one (0 workers on a single-core host).
     */
    static ThreadPool &global();

    /**
     * Redirects global() to `pool` (nullptr restores the default).
     * For tests and benches that need a fixed worker count (e.g. the
     * 1-vs-N-thread determinism suite); swap only while no codec is
     * running — concurrent global() users would race the redirect.
     */
    static void setGlobalOverride(ThreadPool *pool);

  private:
    void workerLoop();

    /** Pops the next task; returns false when the queue is empty. */
    bool popTaskLocked(std::function<void()> &task)
        EDGEPCC_REQUIRES(mutex_);

    /** Immutable after construction (no guard needed). */
    std::vector<std::thread> workers_;

    Mutex mutex_;
    CondVar task_available_;
    std::deque<std::function<void()>> queue_
        EDGEPCC_GUARDED_BY(mutex_);
    bool shutting_down_ EDGEPCC_GUARDED_BY(mutex_) = false;
};

/** RAII global-pool redirect: builds a pool of `num_threads` workers
 *  and makes it the global() pool for the enclosing scope. */
class ScopedGlobalPool
{
  public:
    explicit ScopedGlobalPool(std::size_t num_threads)
        : pool_(num_threads)
    {
        ThreadPool::setGlobalOverride(&pool_);
    }
    ~ScopedGlobalPool() { ThreadPool::setGlobalOverride(nullptr); }

    ScopedGlobalPool(const ScopedGlobalPool &) = delete;
    ScopedGlobalPool &operator=(const ScopedGlobalPool &) = delete;

    ThreadPool &pool() { return pool_; }

  private:
    ThreadPool pool_;
};

}  // namespace edgepcc

#endif  // EDGEPCC_PARALLEL_THREAD_POOL_H
