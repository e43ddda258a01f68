/**
 * @file
 * The level kernel shared by the parallel octree builder and the
 * geometry encoder (private to src/octree).
 *
 * Both walk runs in sorted code arrays: runs of equal codes at the
 * leaves (deduplication) and runs of equal parent codes above them
 * (paper Algorithm 1: one run per parent, whose children's octants
 * OR into the parent's occupancy byte). An array splits into fixed
 * parts of kPartKeys items that depend on its length only, never on
 * the pool size. A part owns exactly the runs that start inside it
 * and follows its last run past its own end, so every output slot
 * has one writer and no kernel needs atomics. Each pass counts the
 * run starts per part, scans the part totals, and then lets every
 * part write its runs from its offset.
 */

#ifndef EDGEPCC_SRC_OCTREE_OCTREE_LEVELS_H
#define EDGEPCC_SRC_OCTREE_OCTREE_LEVELS_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "edgepcc/common/work_counters.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/parallel/parallel_for.h"
#include "edgepcc/platform/arena.h"

namespace edgepcc {

/** Items per part. Pool threads claim parts one at a time; at or
 *  below this many items a pass runs inline as one part. */
constexpr std::size_t kPartKeys = std::size_t{1} << 15;

inline std::size_t
numParts(std::size_t n)
{
    return (n + kPartKeys - 1) / kPartKeys;
}

/** Calls `body(p, lo, hi)` once per part [lo, hi) of [0, n). */
template <typename Body>
void
forEachPart(std::size_t n, const Body &body)
{
    parallelForClaimed(numParts(n), [&](std::size_t p) {
        body(p, p * kPartKeys, std::min(n, (p + 1) * kPartKeys));
    });
}

/**
 * Scans per-part counts in place: `offsets[p + 1]` holds part p's
 * count on entry, and on return `offsets[p]` is the total of the
 * parts before p, with the grand total in `offsets[parts]`.
 * @returns the grand total.
 */
inline std::size_t
scanPartCounts(std::size_t *offsets, std::size_t parts)
{
    offsets[0] = 0;
    for (std::size_t p = 0; p < parts; ++p)
        offsets[p + 1] += offsets[p];
    return offsets[parts];
}

/**
 * First pass over runs: `same(i)` (for i >= 1) is true when item i
 * continues the run of item i - 1. Fills `offsets` (numParts(n) + 1
 * entries) with the number of runs that start before each part,
 * then the total.
 * @returns the number of runs.
 */
template <typename Same>
std::size_t
countRuns(std::size_t n, std::size_t *offsets, const Same &same)
{
    forEachPart(n, [&](std::size_t p, std::size_t lo, std::size_t hi) {
        std::size_t starts = lo == 0 ? 1 : 0;
        for (std::size_t i = std::max<std::size_t>(lo, 1); i < hi; ++i)
            starts += same(i) ? 0 : 1;
        offsets[p + 1] = starts;
    });
    return scanPartCounts(offsets, numParts(n));
}

/**
 * Second pass over runs: calls `emit(run, begin, end)` once per run,
 * where items [begin, end) form the run with global index `run`.
 * `offsets` comes from countRuns with the same `same`.
 */
template <typename Same, typename Emit>
void
emitRuns(std::size_t n, const std::size_t *offsets, const Same &same,
         const Emit &emit)
{
    forEachPart(n, [&](std::size_t p, std::size_t lo, std::size_t hi) {
        std::size_t i = lo;
        // The leading items continue a run an earlier part owns.
        while (i > 0 && i < hi && same(i))
            ++i;
        std::size_t run = offsets[p];
        while (i < hi) {
            const std::size_t begin = i;
            for (++i; i < n && same(i); ++i) {
            }
            emit(run++, begin, i);
        }
    });
}

/**
 * The branch levels of one octree as arrays in arena memory, root
 * (level 0) down to level depth - 1; the leaves (level depth) stay
 * with the caller.
 */
struct OctreeLevels {
    static constexpr std::size_t kMaxLevels =
        static_cast<std::size_t>(kMaxMortonBitsPerAxis) + 1;

    int depth = 0;
    /** Level l's codes, ascending and unique. */
    std::array<const std::uint64_t *, kMaxLevels> codes{};
    std::array<std::size_t, kMaxLevels> counts{};
    /** Level l's occupancy bytes, one per node. */
    std::array<const std::uint8_t *, kMaxLevels> occupancy{};
    /** parent[l][i]: the index in level l - 1 of item i's parent, for
     *  levels 1..depth (level depth: the leaf input); only when
     *  linked. */
    std::array<const std::uint32_t *, kMaxLevels> parent{};

    /** Nodes above the leaves: the length of the occupancy stream. */
    std::size_t
    branchNodes() const
    {
        std::size_t total = 0;
        for (int l = 0; l < depth; ++l)
            total += counts[static_cast<std::size_t>(l)];
        return total;
    }
};

/**
 * Builds the branch levels above `count` sorted leaf codes, bottom-up,
 * one level-kernel pass per level: each level's codes and occupancy
 * bytes and, with `link_parents`, each item's parent index. A
 * repeated leaf code only sets its parent's bit again, so the leaves
 * may come straight from a sort with duplicates. Scratch comes from
 * `arena`.
 */
OctreeLevels buildBranchLevels(const std::uint64_t *leaves,
                               std::size_t count, int depth,
                               FrameArena &arena, bool link_parents);

/**
 * Model records of the level build (`octree.par_levels`,
 * `octree.par_parents`). The device runs it as flag/scan/gather
 * kernels, priced from `input_codes` (the sorted codes fed in), the
 * node total and the depth.
 */
void recordLevelBuild(WorkRecorder *recorder, std::size_t input_codes,
                      std::size_t total_nodes, int depth);

/** Model record of paper Algorithm 1 (`octree.occupancy_merge`):
 *  one bit per non-root node. */
void recordOccupancyMerge(WorkRecorder *recorder,
                          std::size_t total_nodes);

}  // namespace edgepcc

#endif  // EDGEPCC_SRC_OCTREE_OCTREE_LEVELS_H
