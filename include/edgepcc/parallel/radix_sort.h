/**
 * @file
 * Stable parallel LSD radix sort for 64-bit keys with a 32-bit
 * payload.
 *
 * This is the host-side equivalent of the GPU radix sort the paper
 * uses to order points by Morton code. Keys up to `key_bits` wide are
 * sorted in ceil(key_bits / 11) passes of equal digits of at most
 * 11 bits (30-bit Morton codes: three 10-bit passes); the payload is
 * typically the original point index.
 *
 * The keys split into fixed contiguous parts of 2^15 keys, which
 * pool threads claim one at a time. Every pass builds one histogram
 * per part, scans the offsets bucket-major then part-minor, and lets
 * each part scatter its keys in input order. Equal keys therefore keep their
 * input order, and since a stable sort has exactly one correct
 * output, the result is the same at every pool size. Safe to call
 * from inside a pool task.
 */

#ifndef EDGEPCC_PARALLEL_RADIX_SORT_H
#define EDGEPCC_PARALLEL_RADIX_SORT_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace edgepcc {

/** (Morton code, original index) pair sorted by radixSortPairs. */
struct KeyIndex {
    std::uint64_t key;
    std::uint32_t index;
};

/**
 * Stable LSD radix sort of `pairs` by key, ascending (an AoS
 * wrapper over radixSortKeysValues).
 *
 * @param pairs    the data to sort in place.
 * @param key_bits number of significant low bits in the keys; bits
 *                 above it are ignored. Must be in [1, 64].
 */
void radixSortPairs(std::vector<KeyIndex> &pairs, int key_bits = 64);

/**
 * Stable LSD radix sort of parallel SoA arrays: `keys[i]` travels
 * with `values[i]`. This is the hot-path variant (the Morton order
 * stage sorts codes and the permutation directly, with no KeyIndex
 * AoS staging). Scratch keys, payloads and histograms come from the
 * bound FrameArena (platform/arena.h) when one is active — zero heap
 * traffic in steady state — and from heap vectors otherwise.
 *
 * @param keys     n 64-bit keys, sorted ascending in place.
 * @param values   n 32-bit payloads, permuted alongside the keys.
 * @param n        element count.
 * @param key_bits significant low key bits, in [1, 64]; bits above
 *                 it are ignored.
 */
void radixSortKeysValues(std::uint64_t *keys,
                         std::uint32_t *values, std::size_t n,
                         int key_bits = 64);

}  // namespace edgepcc

#endif  // EDGEPCC_PARALLEL_RADIX_SORT_H
