#include "edgepcc/parallel/radix_sort.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "edgepcc/parallel/parallel_for.h"
#include "edgepcc/platform/arena.h"

namespace edgepcc {

namespace {

/** Widest digit: 2^11 buckets per part keep every part's histogram
 *  and scatter cursors resident in L1/L2. */
constexpr int kMaxDigitBits = 11;

/** Keys per part. Parts are claimed by pool threads one at a time,
 *  so a pass waits on at most one part of a descheduled thread; at
 *  or below this many keys one part sorts everything. */
constexpr std::size_t kPartKeys = std::size_t{1} << 15;

/** `count` Ts of scratch: arena-backed inside a frame (zero heap
 *  traffic in steady state), a heap vector otherwise. */
template <typename T>
T *
scratchArray(FrameArena *arena, std::vector<T> &heap, std::size_t count)
{
    if (arena != nullptr)
        return arena->allocateArray<T>(count);
    heap.resize(count);
    return heap.data();
}

}  // namespace

void
radixSortPairs(std::vector<KeyIndex> &pairs, int key_bits)
{
    const std::size_t n = pairs.size();
    std::vector<std::uint64_t> keys(n);
    std::vector<std::uint32_t> values(n);
    for (std::size_t i = 0; i < n; ++i) {
        keys[i] = pairs[i].key;
        values[i] = pairs[i].index;
    }
    radixSortKeysValues(keys.data(), values.data(), n, key_bits);
    for (std::size_t i = 0; i < n; ++i)
        pairs[i] = KeyIndex{keys[i], values[i]};
}

void
radixSortKeysValues(std::uint64_t *keys, std::uint32_t *values,
                    std::size_t n, int key_bits)
{
    assert(key_bits >= 1 && key_bits <= 64);
    if (n < 2)
        return;
    // Fewest passes of at most kMaxDigitBits, then the narrowest
    // equal digits that cover key_bits: 30-bit Morton codes take
    // three 10-bit passes.
    const int passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
    const int digit_bits = (key_bits + passes - 1) / passes;
    const std::size_t buckets = std::size_t{1} << digit_bits;

    // Part p owns input positions [bound(p), bound(p + 1)) in every
    // pass. The parts depend on n only, never on the pool size.
    const std::size_t parts = (n + kPartKeys - 1) / kPartKeys;
    const auto bound = [n](std::size_t p) {
        return std::min(n, p * kPartKeys);
    };
    const auto forEachPart = [parts](const auto &body) {
        parallelForClaimed(parts, body);
    };

    // Scratch is carved on the calling thread: the arena binding is
    // thread-local and pool workers never allocate.
    FrameArena *arena = currentFrameArena();
    std::vector<std::uint64_t> key_heap;
    std::vector<std::uint32_t> val_heap;
    std::vector<std::size_t> count_heap;
    std::uint64_t *dst_k = scratchArray(arena, key_heap, n);
    std::uint32_t *dst_v = scratchArray(arena, val_heap, n);
    // Row p holds part p's histogram, then its scatter cursors.
    std::size_t *counts =
        scratchArray(arena, count_heap, parts * buckets);

    std::uint64_t *src_k = keys;
    std::uint32_t *src_v = values;
    for (int pass = 0; pass < passes; ++pass) {
        const int shift = pass * digit_bits;
        const std::uint64_t mask =
            (std::uint64_t{1}
             << std::min(digit_bits, key_bits - shift)) -
            1;
        // The loops below read only locals: a store through a
        // size_t* could otherwise alias the captured shift and mask
        // and force a reload per key.
        forEachPart([&](std::size_t p) {
            const std::size_t lo = bound(p);
            const std::size_t hi = bound(p + 1);
            const std::uint64_t *in = src_k;
            const int sh = shift;
            const std::uint64_t m = mask;
            std::size_t *row = counts + p * buckets;
            std::fill(row, row + buckets, std::size_t{0});
            for (std::size_t i = lo; i < hi; ++i)
                ++row[(in[i] >> sh) & m];
        });

        // Bucket-major, part-minor offsets: within a bucket, part p's
        // keys land before part p + 1's, and each part scatters in
        // input order, so equal digits keep their input order.
        std::size_t offset = 0;
        bool uniform = false;
        for (std::size_t b = 0; b < buckets; ++b) {
            const std::size_t bucket_start = offset;
            for (std::size_t p = 0; p < parts; ++p) {
                std::size_t &slot = counts[p * buckets + b];
                const std::size_t count = slot;
                slot = offset;
                offset += count;
            }
            uniform = uniform || offset - bucket_start == n;
        }
        // Every key shares this digit: the pass is the identity.
        if (uniform)
            continue;

        forEachPart([&](std::size_t p) {
            const std::size_t lo = bound(p);
            const std::size_t hi = bound(p + 1);
            const std::uint64_t *in_k = src_k;
            const std::uint32_t *in_v = src_v;
            std::uint64_t *out_k = dst_k;
            std::uint32_t *out_v = dst_v;
            const int sh = shift;
            const std::uint64_t m = mask;
            std::size_t *cursor = counts + p * buckets;
            for (std::size_t i = lo; i < hi; ++i) {
                const std::uint64_t key = in_k[i];
                const std::size_t pos = cursor[(key >> sh) & m]++;
                out_k[pos] = key;
                out_v[pos] = in_v[i];
            }
        });
        std::swap(src_k, dst_k);
        std::swap(src_v, dst_v);
    }
    // Ping-pong may end in the scratch arrays; the caller owns
    // `keys`/`values`, so move the result home.
    if (src_k != keys) {
        forEachPart([&](std::size_t p) {
            std::copy(src_k + bound(p), src_k + bound(p + 1),
                      keys + bound(p));
            std::copy(src_v + bound(p), src_v + bound(p + 1),
                      values + bound(p));
        });
    }
}

}  // namespace edgepcc
