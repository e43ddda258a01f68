/**
 * @file
 * Data-parallel primitives (`parallelFor`, `parallelForChunks`,
 * `parallelForClaimed`, `parallelReduce`) over the thread pool.
 * These mirror the CUDA kernels of the paper's GPU implementation.
 *
 * Each call waits on its own completion latch rather than the pool's
 * global task counter, so (a) concurrent callers never wait on each
 * other's work and (b) nesting a primitive inside a pool task cannot
 * deadlock: the waiter helps drain the queue while its latch is open.
 *
 * Exception contract: a body may throw (e.g. `std::bad_alloc`).
 * Every chunk runs under a catch-all and counts the latch down on
 * every path, so no task outlives the call that owns its captures
 * and no exception escapes on a worker thread. Once a chunk has
 * failed, chunks that have not started yet skip their body. The
 * first exception is rethrown on the caller only after every chunk
 * has finished. If `pool.submit` itself throws, that chunk runs
 * inline on the caller instead.
 */

#ifndef EDGEPCC_PARALLEL_PARALLEL_FOR_H
#define EDGEPCC_PARALLEL_PARALLEL_FOR_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <latch>
#include <vector>

#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {

namespace detail {

/**
 * Chunk geometry shared by the primitives: at least `grain` items
 * per chunk, at most one chunk per (worker + caller). Returns the
 * chunk size; a single chunk means "run inline" — submitting one
 * task to the pool would pay queue overhead for zero parallelism.
 */
inline std::size_t
chunkSize(std::size_t n, std::size_t workers, std::size_t grain)
{
    const std::size_t parts = workers + 1;  // workers + caller
    return std::max<std::size_t>(std::max<std::size_t>(grain, 1),
                                 (n + parts - 1) / parts);
}

/**
 * Completion state of one primitive call: the latch the caller
 * waits on plus the first exception any chunk raised.
 */
class ChunkGroup
{
  public:
    explicit ChunkGroup(std::size_t chunks)
        : latch_(static_cast<std::ptrdiff_t>(chunks))
    {
    }

    /** Runs `fn` unless a chunk already failed; never throws, and
     *  always counts the latch down exactly once. */
    template <typename Fn>
    void
    run(const Fn &fn) noexcept
    {
        if (!failed_.load(std::memory_order_relaxed)) {
            try {
                fn();
            } catch (...) {
                // Only the first failure is kept; the latch orders
                // this write before the caller's read in wait().
                if (!failed_.exchange(true))
                    error_ = std::current_exception();
            }
        }
        latch_.count_down();
    }

    /**
     * Blocks until every chunk has run, then rethrows the first
     * failure. Runs queued pool tasks on this thread while waiting,
     * which keeps nested calls (a chunk body that itself uses a
     * primitive) deadlock-free and puts the caller to work instead
     * of sleeping.
     */
    void
    wait(ThreadPool &pool)
    {
        while (!latch_.try_wait()) {
            if (!pool.tryRunOne()) {
                // Queue drained: our still-open tasks are running
                // on workers; block until their count_down arrives.
                latch_.wait();
                break;
            }
        }
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    std::latch latch_;
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;
};

/**
 * The one fan-out loop behind every primitive: splits [begin, end)
 * into chunks and calls `body(chunk_index, lo, hi)` once per chunk,
 * inline when there is a single chunk or no worker, otherwise on
 * the pool under a ChunkGroup.
 */
template <typename ChunkBody>
void
forEachChunk(std::size_t begin, std::size_t end, ThreadPool &pool,
             std::size_t grain, const ChunkBody &body)
{
    const std::size_t n = end - begin;
    const std::size_t chunk =
        chunkSize(n, pool.numThreads(), grain);
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    if (pool.numThreads() == 0 || num_chunks <= 1) {
        body(std::size_t{0}, begin, end);
        return;
    }
    ChunkGroup group(num_chunks);
    std::size_t index = 0;
    for (std::size_t lo = begin; lo < end; lo += chunk, ++index) {
        const std::size_t hi = std::min(end, lo + chunk);
        const auto task = [&group, &body, index, lo, hi] {
            group.run([&] { body(index, lo, hi); });
        };
        try {
            pool.submit(task);
        } catch (...) {
            // Nothing was queued (the std::function or the queue
            // slot could not be allocated): run the chunk here.
            task();
        }
    }
    group.wait(pool);
}

}  // namespace detail

/**
 * Applies `body(i)` for i in [begin, end) using the pool.
 *
 * The iteration space is split into contiguous chunks of at least
 * `grain` elements so per-task overhead stays negligible. `body` must
 * be safe to invoke concurrently for distinct indices. Safe to call
 * from inside another parallel primitive's body.
 */
template <typename Body>
void
parallelFor(std::size_t begin, std::size_t end, const Body &body,
            ThreadPool &pool = ThreadPool::global(),
            std::size_t grain = 1024)
{
    if (begin >= end)
        return;
    detail::forEachChunk(
        begin, end, pool, grain,
        [&body](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                body(i);
        });
}

/**
 * Chunked variant: `body(lo, hi)` is called once per chunk, which lets
 * kernels keep per-chunk accumulators without false sharing.
 */
template <typename Body>
void
parallelForChunks(std::size_t begin, std::size_t end, const Body &body,
                  ThreadPool &pool = ThreadPool::global(),
                  std::size_t grain = 1024)
{
    if (begin >= end)
        return;
    detail::forEachChunk(
        begin, end, pool, grain,
        [&body](std::size_t, std::size_t lo, std::size_t hi) {
            body(lo, hi);
        });
}

/**
 * Claimed variant for few, heavy or unevenly priced items:
 * `body(i)` runs once for every i in [0, count), and one task per
 * thread (the caller included) claims indices one at a time from a
 * shared counter. A descheduled thread then holds the call up by at
 * most the item it is running, not by a fixed share of the items,
 * and a task that starts late finds nothing left to claim. Which
 * thread runs which item varies from call to call, so `body` must
 * write only state owned by its index. After a body throws, no
 * further index is claimed; the exception reaches the caller as
 * for the other primitives.
 */
template <typename Body>
void
parallelForClaimed(std::size_t count, const Body &body,
                   ThreadPool &pool = ThreadPool::global())
{
    if (count == 0)
        return;
    std::atomic<std::size_t> next{0};
    const std::size_t lanes = std::min(count, pool.numThreads() + 1);
    detail::forEachChunk(
        0, lanes, pool, 1,
        [&](std::size_t, std::size_t, std::size_t) {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1)) {
                try {
                    body(i);
                } catch (...) {
                    // Leave nothing for the other lanes to claim.
                    next.store(count);
                    throw;
                }
            }
        });
}

/**
 * Parallel reduction: combines `identity` with `mapper(i)` over
 * [begin, end) using the associative `combine`. Each chunk folds its
 * own partial left to right, and the partials are folded in chunk
 * order, so a non-commutative `combine` sees the sequential order.
 */
template <typename T, typename Mapper, typename Combine>
T
parallelReduce(std::size_t begin, std::size_t end, T identity,
               const Mapper &mapper, const Combine &combine,
               ThreadPool &pool = ThreadPool::global(),
               std::size_t grain = 4096)
{
    if (begin >= end)
        return identity;
    const std::size_t chunk = detail::chunkSize(
        end - begin, pool.numThreads(), grain);
    std::vector<T> partials((end - begin + chunk - 1) / chunk,
                            identity);
    detail::forEachChunk(
        begin, end, pool, grain,
        [&](std::size_t index, std::size_t lo, std::size_t hi) {
            T acc = identity;
            for (std::size_t i = lo; i < hi; ++i)
                acc = combine(acc, mapper(i));
            partials[index] = acc;
        });
    T result = identity;
    for (const T &partial : partials)
        result = combine(result, partial);
    return result;
}

}  // namespace edgepcc

#endif  // EDGEPCC_PARALLEL_PARALLEL_FOR_H
