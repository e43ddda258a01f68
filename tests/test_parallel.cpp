/** @file Tests for the thread pool, parallel primitives and sort. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "edgepcc/common/rng.h"
#include "edgepcc/parallel/parallel_for.h"
#include "edgepcc/parallel/radix_sort.h"
#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {
namespace {

TEST(ThreadPool, InlineExecutionWithZeroWorkers)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 0u);
    int value = 0;
    pool.submit([&value] { value = 7; });
    EXPECT_EQ(value, 7);  // ran inside submit()
}

TEST(ThreadPool, RunsAllTasks)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter] { ++counter; });
    }  // the destructor drains the queue before joining
    EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(5000);
    parallelFor(0, hits.size(),
                [&](std::size_t i) { ++hits[i]; });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelFor, EmptyRange)
{
    bool touched = false;
    parallelFor(5, 5, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ParallelFor, NonZeroBeginCoversExactRange)
{
    // Regression: chunking must respect `begin`, not restart at 0.
    ThreadPool pool(2);
    constexpr std::size_t kBegin = 1000;
    constexpr std::size_t kEnd = 9000;
    std::vector<std::atomic<int>> hits(kEnd + 100);
    parallelFor(
        kBegin, kEnd, [&](std::size_t i) { ++hits[i]; }, pool,
        64);
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(),
                  (i >= kBegin && i < kEnd) ? 1 : 0)
            << i;
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline)
{
    // Regression: grain > n must degenerate to one inline chunk,
    // not produce zero or empty chunks.
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(10);
    parallelFor(
        3, 7, [&](std::size_t i) { ++hits[i]; }, pool, 1024);
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), (i >= 3 && i < 7) ? 1 : 0);
}

TEST(ParallelForChunks, NonZeroBeginAndLargeGrain)
{
    ThreadPool pool(2);
    std::atomic<std::uint64_t> sum{0};
    parallelForChunks(
        100, 200,
        [&](std::size_t lo, std::size_t hi) {
            std::uint64_t local = 0;
            for (std::size_t i = lo; i < hi; ++i)
                local += i;
            sum.fetch_add(local);
        },
        pool, 5000);
    std::uint64_t expected = 0;
    for (std::size_t i = 100; i < 200; ++i)
        expected += i;
    EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelReduce, NonZeroBeginAndGrainLargerThanRange)
{
    ThreadPool pool(2);
    const std::uint64_t got = parallelReduce<std::uint64_t>(
        10, 20, 0, [](std::size_t i) { return i; },
        [](std::uint64_t a, std::uint64_t b) { return a + b; },
        pool, 4096);
    EXPECT_EQ(got, 145u);  // 10 + 11 + ... + 19
}

TEST(ParallelForChunks, ChunksPartitionTheRange)
{
    std::vector<int> data(10000, 0);
    parallelForChunks(0, data.size(),
                      [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i)
                              data[i] += 1;
                      });
    EXPECT_TRUE(std::all_of(data.begin(), data.end(),
                            [](int v) { return v == 1; }));
}

TEST(ParallelReduce, SumMatchesSequential)
{
    std::vector<std::uint64_t> values(20000);
    Rng rng(5);
    for (auto &value : values)
        value = rng.bounded(1000);
    const std::uint64_t expected = std::accumulate(
        values.begin(), values.end(), std::uint64_t{0});
    const std::uint64_t got = parallelReduce<std::uint64_t>(
        0, values.size(), 0,
        [&](std::size_t i) { return values[i]; },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(got, expected);
}

// A throwing body must not escape on a worker (std::terminate) nor
// unwind the caller while chunks still hold its latch: every
// primitive rethrows the first failure on the caller after all of
// its chunks have finished, and the pool stays usable.

TEST(ParallelFor, BodyExceptionIsRethrownOnCaller)
{
    for (const std::size_t threads : {0u, 1u, 3u}) {
        ThreadPool pool(threads);
        std::atomic<int> finished{0};
        EXPECT_THROW(parallelFor(
                         0, 4000,
                         [&](std::size_t i) {
                             if (i % 1000 == 999)
                                 throw std::runtime_error("chunk");
                             ++finished;
                         },
                         pool, 100),
                     std::runtime_error)
            << threads;
        const int settled = finished.load();
        EXPECT_LE(settled, 3996);
        // Nothing still runs against the caller's frame.
        EXPECT_EQ(finished.load(), settled);
        std::atomic<int> after{0};
        parallelFor(
            0, 4000, [&](std::size_t) { ++after; }, pool, 100);
        EXPECT_EQ(after.load(), 4000) << threads;
    }
}

TEST(ParallelForChunks, BodyExceptionIsRethrownOnCaller)
{
    ThreadPool pool(3);
    EXPECT_THROW(parallelForChunks(
                     0, 4000,
                     [](std::size_t lo, std::size_t) {
                         if (lo != 0)
                             throw std::bad_alloc();
                     },
                     pool, 100),
                 std::bad_alloc);
    std::atomic<std::size_t> covered{0};
    parallelForChunks(
        0, 4000,
        [&](std::size_t lo, std::size_t hi) { covered += hi - lo; },
        pool, 100);
    EXPECT_EQ(covered.load(), 4000u);
}

TEST(ParallelReduce, MapperExceptionIsRethrownOnCaller)
{
    ThreadPool pool(3);
    EXPECT_THROW(parallelReduce<std::uint64_t>(
                     0, 40000, 0,
                     [](std::size_t i) -> std::uint64_t {
                         if (i == 39999)
                             throw std::runtime_error("last");
                         return i;
                     },
                     [](std::uint64_t a, std::uint64_t b) {
                         return a + b;
                     },
                     pool, 1000),
                 std::runtime_error);
}

TEST(ParallelFor, NestedExceptionReachesTheOuterCaller)
{
    ThreadPool pool(3);
    EXPECT_THROW(parallelFor(
                     0, 8,
                     [&](std::size_t outer) {
                         parallelFor(
                             0, 1000,
                             [&](std::size_t inner) {
                                 if (outer == 5 && inner == 500)
                                     throw std::runtime_error("nested");
                             },
                             pool, 10);
                     },
                     pool, 1),
                 std::runtime_error);
}

TEST(ParallelForClaimed, RunsEveryIndexOnce)
{
    for (const std::size_t threads : {0u, 1u, 3u}) {
        ThreadPool pool(threads);
        for (const std::size_t count : {0u, 1u, 2u, 5u, 1000u}) {
            std::vector<std::atomic<int>> runs(count);
            parallelForClaimed(
                count, [&](std::size_t i) { ++runs[i]; }, pool);
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(runs[i].load(), 1)
                    << "threads=" << threads << " count=" << count
                    << " i=" << i;
        }
    }
}

TEST(ParallelForClaimed, BodyExceptionStopsClaimsAndReachesCaller)
{
    for (const std::size_t threads : {0u, 1u, 3u}) {
        ThreadPool pool(threads);
        std::atomic<int> started{0};
        EXPECT_THROW(parallelForClaimed(
                         1000,
                         [&](std::size_t i) {
                             ++started;
                             if (i == 10)
                                 throw std::bad_alloc();
                         },
                         pool),
                     std::bad_alloc)
            << threads;
        // Inline, claims stop right at the failing item.
        if (threads == 0) {
            EXPECT_EQ(started.load(), 11);
        }
        std::atomic<int> after{0};
        parallelForClaimed(
            1000, [&](std::size_t) { ++after; }, pool);
        EXPECT_EQ(after.load(), 1000) << threads;
    }
}

TEST(ParallelForClaimed, NestsInsidePoolTasks)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> runs(8 * 100);
    parallelForClaimed(
        8,
        [&](std::size_t outer) {
            parallelForClaimed(
                100,
                [&](std::size_t inner) { ++runs[outer * 100 + inner]; },
                pool);
        },
        pool);
    for (const auto &count : runs)
        EXPECT_EQ(count.load(), 1);
}

TEST(ParallelReduce, PartialsFoldInChunkOrder)
{
    // String concatenation is associative but not commutative: the
    // result is the sequential one only if partials fold in order.
    ThreadPool pool(3);
    std::string expected;
    for (std::size_t i = 0; i < 500; ++i)
        expected += static_cast<char>('a' + i % 26);
    const std::string got = parallelReduce<std::string>(
        0, 500, std::string{},
        [](std::size_t i) {
            return std::string(1, static_cast<char>('a' + i % 26));
        },
        [](const std::string &a, const std::string &b) {
            return a + b;
        },
        pool, 16);
    EXPECT_EQ(got, expected);
}

TEST(RadixSort, EmptyAndSingle)
{
    std::vector<KeyIndex> empty;
    radixSortPairs(empty);
    EXPECT_TRUE(empty.empty());

    std::vector<KeyIndex> one{{42, 0}};
    radixSortPairs(one);
    EXPECT_EQ(one[0].key, 42u);
}

TEST(RadixSort, MatchesStdSort)
{
    Rng rng(6);
    std::vector<KeyIndex> pairs(30000);
    for (std::uint32_t i = 0; i < pairs.size(); ++i)
        pairs[i] = {rng(), i};
    std::vector<std::uint64_t> expected;
    expected.reserve(pairs.size());
    for (const auto &pair : pairs)
        expected.push_back(pair.key);
    std::sort(expected.begin(), expected.end());

    radixSortPairs(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(pairs[i].key, expected[i]);
}

TEST(RadixSort, IsStable)
{
    // Equal keys must preserve their input index order.
    std::vector<KeyIndex> pairs;
    for (std::uint32_t i = 0; i < 1000; ++i)
        pairs.push_back({i % 7, i});
    radixSortPairs(pairs, 8);
    for (std::size_t i = 1; i < pairs.size(); ++i) {
        if (pairs[i - 1].key == pairs[i].key) {
            EXPECT_LT(pairs[i - 1].index, pairs[i].index);
        }
    }
}

TEST(RadixSort, RespectsKeyBitsLimit)
{
    // Keys above key_bits are ignored by construction: with 8-bit
    // sorting, only the low byte decides the order.
    std::vector<KeyIndex> pairs{{0x0102, 0}, {0x0201, 1}};
    radixSortPairs(pairs, 8);
    EXPECT_EQ(pairs[0].key, 0x0201u);  // low byte 0x01 first
    EXPECT_EQ(pairs[1].key, 0x0102u);
}

/** Parameterized sweep over sizes and key widths. */
class RadixSortSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RadixSortSweep, SortedAscending)
{
    const auto [size, bits] = GetParam();
    Rng rng(static_cast<std::uint64_t>(size) * 131 +
            static_cast<std::uint64_t>(bits));
    std::vector<KeyIndex> pairs(static_cast<std::size_t>(size));
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << bits) - 1);
    for (std::uint32_t i = 0; i < pairs.size(); ++i)
        pairs[i] = {rng() & mask, i};
    radixSortPairs(pairs, bits);
    for (std::size_t i = 1; i < pairs.size(); ++i)
        EXPECT_LE(pairs[i - 1].key, pairs[i].key);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndWidths, RadixSortSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 100, 4096),
                       ::testing::Values(1, 8, 30, 33, 64)));

/**
 * Property: radixSortKeysValues equals std::stable_sort on
 * (key, index) for every key width, on both sides of the parallel
 * cut-off, on duplicate-heavy keys, at pool sizes 0, 1 and 3, and
 * when called from inside pool tasks.
 */
class RadixSortProperty : public ::testing::TestWithParam<int>
{
};

/** `n` keys of `bits` bits: uniform, or only 5 distinct values. */
std::vector<std::uint64_t>
propertyKeys(std::size_t n, int bits, bool duplicates,
             std::uint64_t seed)
{
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << bits) - 1);
    Rng rng(seed);
    std::uint64_t palette[5];
    for (auto &key : palette)
        key = rng() & mask;
    std::vector<std::uint64_t> keys(n);
    for (auto &key : keys)
        key = duplicates ? palette[rng.bounded(5)] : rng() & mask;
    return keys;
}

/** Sorts a copy of `keys` with index payloads and checks it against
 *  the stable reference. Returns true on a match. */
bool
sortMatchesStableReference(const std::vector<std::uint64_t> &keys,
                           int bits)
{
    const std::size_t n = keys.size();
    std::vector<std::pair<std::uint64_t, std::uint32_t>> expected(n);
    for (std::size_t i = 0; i < n; ++i)
        expected[i] = {keys[i], static_cast<std::uint32_t>(i)};
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<std::uint64_t> k = keys;
    std::vector<std::uint32_t> v(n);
    std::iota(v.begin(), v.end(), std::uint32_t{0});
    radixSortKeysValues(k.data(), v.data(), n, bits);
    for (std::size_t i = 0; i < n; ++i) {
        if (k[i] != expected[i].first || v[i] != expected[i].second)
            return false;
    }
    return true;
}

TEST_P(RadixSortProperty, MatchesStableSortAtEveryPoolSize)
{
    const int bits = GetParam();
    // Parts hold 2^15 keys: one part up to 2^15, then several, the
    // last one short.
    const std::size_t sizes[] = {0,         1,
                                 2,         1000,
                                 1u << 15,  (1u << 15) + 1,
                                 100003,    (4u << 15) + 3};
    for (const std::size_t threads : {0u, 1u, 3u}) {
        ScopedGlobalPool pool(threads);
        for (const std::size_t n : sizes) {
            for (const bool duplicates : {false, true}) {
                const auto keys = propertyKeys(
                    n, bits, duplicates,
                    n * 131 + static_cast<std::uint64_t>(bits));
                EXPECT_TRUE(sortMatchesStableReference(keys, bits))
                    << "bits=" << bits << " n=" << n
                    << " threads=" << threads
                    << " duplicates=" << duplicates;
            }
        }
    }
}

TEST_P(RadixSortProperty, MatchesStableSortInsidePoolTasks)
{
    // Serve-fleet encodes run on pool workers, so the sort's own
    // fan-out nests inside a pool task.
    const int bits = GetParam();
    ScopedGlobalPool pool(3);
    std::atomic<int> matches{0};
    parallelFor(
        0, 4,
        [&](std::size_t task) {
            const auto keys = propertyKeys(70001, bits, task % 2 == 1,
                                           task + 7);
            if (sortMatchesStableReference(keys, bits))
                ++matches;
        },
        pool.pool(), 1);
    EXPECT_EQ(matches.load(), 4) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(KeyWidths, RadixSortProperty,
                         ::testing::Values(1, 8, 10, 11, 12, 30, 33,
                                           48, 64));

}  // namespace
}  // namespace edgepcc
