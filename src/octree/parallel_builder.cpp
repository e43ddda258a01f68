#include "edgepcc/octree/parallel_builder.h"

#include <atomic>
#include <cassert>

#include "edgepcc/common/trace.h"
#include "edgepcc/morton/morton.h"
#include "octree_levels.h"

namespace edgepcc {

namespace {

/** Run predicate of the level kernel: child i shares child i - 1's
 *  parent. */
struct SameParent {
    const std::uint64_t *children;

    bool
    operator()(std::size_t i) const
    {
        return (children[i] >> 3) == (children[i - 1] >> 3);
    }
};

/**
 * The level kernel, paper Algorithm 1 over one level: for the `n`
 * sorted codes of level l + 1, writes each parent run's code (when
 * `parents` is non-null) and occupancy byte, and each child's parent
 * index (when `parent_index` is non-null). Children of one parent are
 * contiguous, so the part that owns a run builds its whole byte; a
 * repeated child sets its bit again. `offsets` comes from countRuns
 * with SameParent.
 */
void
mergeLevel(const std::uint64_t *children, std::size_t n,
           const std::size_t *offsets, std::uint64_t *parents,
           std::uint8_t *occupancy, std::uint32_t *parent_index)
{
    emitRuns(n, offsets, SameParent{children},
             [&](std::size_t run, std::size_t begin, std::size_t end) {
                 std::uint8_t byte = 0;
                 for (std::size_t i = begin; i < end; ++i) {
                     byte |= static_cast<std::uint8_t>(
                         1u << (children[i] & 7));
                     if (parent_index != nullptr)
                         parent_index[i] =
                             static_cast<std::uint32_t>(run);
                 }
                 occupancy[run] = byte;
                 if (parents != nullptr)
                     parents[run] = children[begin] >> 3;
             });
}

/** True when `codes` is non-decreasing, checked per part. */
bool
sortedInParts(const std::vector<std::uint64_t> &codes)
{
    std::atomic<bool> unsorted{false};
    forEachPart(codes.size(),
                [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = std::max<std::size_t>(lo, 1);
                         i < hi; ++i) {
                        if (codes[i - 1] > codes[i]) {
                            unsorted.store(true,
                                           std::memory_order_relaxed);
                            return;
                        }
                    }
                });
    return !unsorted.load(std::memory_order_relaxed);
}

/** The FlatOctree form of linked levels over unique `leaves`: the
 *  level arrays concatenated root first, parent indices made
 *  global. */
FlatOctree
flatten(const OctreeLevels &levels, const std::uint64_t *leaves,
        std::size_t num_leaves)
{
    const auto depth = static_cast<std::size_t>(levels.depth);
    FlatOctree tree;
    tree.depth = levels.depth;
    tree.level_offsets.resize(depth + 2);
    std::size_t total = 0;
    for (std::size_t l = 0; l <= depth; ++l) {
        tree.level_offsets[l] = static_cast<std::uint32_t>(total);
        total += l < depth ? levels.counts[l] : num_leaves;
    }
    tree.level_offsets.back() = static_cast<std::uint32_t>(total);
    tree.codes.resize(total);
    tree.parent.resize(total);
    tree.codes[0] = levels.codes[0][0];
    tree.parent[0] = -1;
    for (std::size_t l = 1; l <= depth; ++l) {
        const std::uint64_t *codes = l < depth ? levels.codes[l] : leaves;
        const std::uint32_t *parent = levels.parent[l];
        std::uint64_t *out_codes =
            tree.codes.data() + tree.level_offsets[l];
        std::int32_t *out_parent =
            tree.parent.data() + tree.level_offsets[l];
        const std::uint32_t parent_base = tree.level_offsets[l - 1];
        const std::size_t count =
            tree.level_offsets[l + 1] - tree.level_offsets[l];
        forEachPart(count, [&](std::size_t, std::size_t lo,
                               std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                out_codes[i] = codes[i];
                out_parent[i] =
                    static_cast<std::int32_t>(parent_base + parent[i]);
            }
        });
    }
    return tree;
}

}  // namespace

OctreeLevels
buildBranchLevels(const std::uint64_t *leaves, std::size_t count,
                  int depth, FrameArena &arena, bool link_parents)
{
    OctreeLevels levels;
    levels.depth = depth;
    const std::uint64_t *children = leaves;
    std::size_t n = count;
    for (int level = depth - 1; level >= 0; --level) {
        std::size_t *offsets =
            arena.allocateArray<std::size_t>(numParts(n) + 1);
        const std::size_t parents_count =
            countRuns(n, offsets, SameParent{children});
        auto *parents = arena.allocateArray<std::uint64_t>(parents_count);
        auto *occupancy =
            arena.allocateArray<std::uint8_t>(parents_count);
        std::uint32_t *parent_index =
            link_parents ? arena.allocateArray<std::uint32_t>(n)
                         : nullptr;
        mergeLevel(children, n, offsets, parents, occupancy,
                   parent_index);
        const auto l = static_cast<std::size_t>(level);
        levels.codes[l] = parents;
        levels.counts[l] = parents_count;
        levels.occupancy[l] = occupancy;
        levels.parent[l + 1] = parent_index;
        children = parents;
        n = parents_count;
    }
    assert(levels.counts[0] == 1 && "root level must be singular");
    return levels;
}

void
recordLevelBuild(WorkRecorder *recorder, std::size_t input_codes,
                 std::size_t total_nodes, int depth)
{
    const auto levels = static_cast<std::uint64_t>(depth);
    // Flag + scan + gather uniquify of the input (4 ops per code),
    // then a shift and a uniquify per level (5 ops per non-root node).
    recordKernel(recorder,
                 KernelWork{.name = "octree.par_levels",
                            .resource = ExecResource::kGpu,
                            .invocations = levels + 1,
                            .items = total_nodes,
                            .ops = input_codes * 4 +
                                   (total_nodes - 1) * 5,
                            .bytes = total_nodes * 8 * 3});
    recordKernel(recorder,
                 KernelWork{.name = "octree.par_parents",
                            .resource = ExecResource::kGpu,
                            .invocations = levels,
                            .items = total_nodes,
                            .ops = (total_nodes - 1) * 6,
                            .bytes = total_nodes * 12});
}

void
recordOccupancyMerge(WorkRecorder *recorder, std::size_t total_nodes)
{
    recordKernel(recorder,
                 KernelWork{.name = "octree.occupancy_merge",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = total_nodes - 1,
                            .ops = (total_nodes - 1) * 3,
                            .bytes = (total_nodes - 1) * 10});
}

Expected<FlatOctree>
buildParallelOctree(const std::vector<std::uint64_t> &sorted_codes,
                    int depth, WorkRecorder *recorder)
{
    if (sorted_codes.empty())
        return invalidArgument("buildParallelOctree: no codes");
    if (depth < 1 || depth > kMaxMortonBitsPerAxis)
        return invalidArgument("buildParallelOctree: bad depth");
    if (!sortedInParts(sorted_codes))
        return invalidArgument("buildParallelOctree: codes not sorted");

    ScopedTrace levels_trace("octree.build_levels");
    ScratchArena scratch;
    FrameArena &arena = scratch.get();
    // Leaves: one code per run of equal input codes.
    const std::uint64_t *codes = sorted_codes.data();
    const std::size_t n = sorted_codes.size();
    const auto same_code = [codes](std::size_t i) {
        return codes[i] == codes[i - 1];
    };
    std::size_t *offsets =
        arena.allocateArray<std::size_t>(numParts(n) + 1);
    const std::size_t unique = countRuns(n, offsets, same_code);
    auto *leaves = arena.allocateArray<std::uint64_t>(unique);
    emitRuns(n, offsets, same_code,
             [&](std::size_t run, std::size_t begin, std::size_t) {
                 leaves[run] = codes[begin];
             });

    const OctreeLevels levels = buildBranchLevels(
        leaves, unique, depth, arena, /*link_parents=*/true);
    recordLevelBuild(recorder, n, levels.branchNodes() + unique, depth);
    levels_trace.stop();

    ScopedTrace parents_trace("octree.link_parents");
    return flatten(levels, leaves, unique);
}

std::vector<std::uint8_t>
occupancyFromFlatOctree(const FlatOctree &tree, WorkRecorder *recorder)
{
    ScopedTrace trace("octree.occupancy_merge");
    ScratchArena scratch;
    std::vector<std::uint8_t> occupancy(tree.numBranchNodes());
    // Paper Algorithm 1: every non-root node contributes its octant
    // bit to its parent's byte. A level's children are sorted, so
    // each parent's children form one run, and the level kernel
    // builds every byte within the part that owns its run: no
    // atomic OR is needed.
    for (int level = 0; level < tree.depth; ++level) {
        const auto l = static_cast<std::size_t>(level);
        const std::uint64_t *children =
            tree.codes.data() + tree.level_offsets[l + 1];
        const std::size_t n = tree.numNodesAtLevel(level + 1);
        std::size_t *offsets =
            scratch.get().allocateArray<std::size_t>(numParts(n) + 1);
        [[maybe_unused]] const std::size_t parents =
            countRuns(n, offsets, SameParent{children});
        assert(parents == tree.numNodesAtLevel(level));
        mergeLevel(children, n, offsets, nullptr,
                   occupancy.data() + tree.level_offsets[l], nullptr);
    }
    recordOccupancyMerge(recorder, tree.numNodes());
    return occupancy;
}

}  // namespace edgepcc
