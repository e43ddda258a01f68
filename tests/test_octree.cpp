/** @file Tests for the sequential and parallel octree builders. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "edgepcc/common/rng.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/octree/parallel_builder.h"
#include "edgepcc/octree/sequential_builder.h"
#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {
namespace {

VoxelCloud
uniqueRandomCloud(std::uint64_t seed, std::size_t n, int bits)
{
    Rng rng(seed);
    std::set<std::uint64_t> used;
    VoxelCloud cloud(bits);
    const std::uint32_t grid = 1u << bits;
    while (cloud.size() < n) {
        const auto x =
            static_cast<std::uint16_t>(rng.bounded(grid));
        const auto y =
            static_cast<std::uint16_t>(rng.bounded(grid));
        const auto z =
            static_cast<std::uint16_t>(rng.bounded(grid));
        if (used.insert(mortonEncode(x, y, z)).second)
            cloud.add(x, y, z, 0, 0, 0);
    }
    return cloud;
}

// ---------------------------------------------------------------
// Sequential builder
// ---------------------------------------------------------------

TEST(SequentialOctree, SinglePoint)
{
    VoxelCloud cloud(3);
    cloud.add(5, 2, 7, 0, 0, 0);
    const PointerOctree tree = buildSequentialOctree(cloud);
    EXPECT_EQ(tree.numLeaves(), 1u);
    // Root + one node per level.
    EXPECT_EQ(tree.numNodes(), 4u);
}

TEST(SequentialOctree, DuplicatesCollapse)
{
    VoxelCloud cloud(4);
    cloud.add(1, 1, 1, 0, 0, 0);
    cloud.add(1, 1, 1, 0, 0, 0);
    const PointerOctree tree = buildSequentialOctree(cloud);
    EXPECT_EQ(tree.numLeaves(), 1u);
}

TEST(SequentialOctree, RootOccupancyReflectsOctants)
{
    VoxelCloud cloud(1);  // 2x2x2 grid: leaves are root children
    cloud.add(0, 0, 0, 0, 0, 0);  // octant 0
    cloud.add(1, 1, 1, 0, 0, 0);  // octant 7
    const PointerOctree tree = buildSequentialOctree(cloud);
    EXPECT_EQ(tree.nodes()[0].occupancy, 0b10000001u);
}

TEST(SequentialOctree, InsertReturnsDepthWalked)
{
    PointerOctree tree(5);
    EXPECT_EQ(tree.insert(0, 0, 0), 5);
}

TEST(SequentialOctree, SerializationSizeEqualsBranchCount)
{
    const VoxelCloud cloud = uniqueRandomCloud(31, 300, 6);
    const PointerOctree tree = buildSequentialOctree(cloud);
    const auto stream = serializeDepthFirst(tree);
    // One byte per branch node; leaves carry none.
    EXPECT_EQ(stream.size(), tree.numNodes() - tree.numLeaves());
}

// ---------------------------------------------------------------
// Parallel builder
// ---------------------------------------------------------------

TEST(ParallelOctree, RejectsBadInput)
{
    EXPECT_FALSE(buildParallelOctree({}, 4).hasValue());
    EXPECT_FALSE(buildParallelOctree({3, 1}, 4).hasValue());
    EXPECT_FALSE(buildParallelOctree({0}, 0).hasValue());
}

TEST(ParallelOctree, SinglePointTree)
{
    const std::vector<std::uint64_t> codes{
        mortonEncode(3, 3, 3)};
    auto tree = buildParallelOctree(codes, 2);
    ASSERT_TRUE(tree.hasValue());
    EXPECT_EQ(tree->depth, 2);
    EXPECT_EQ(tree->numNodes(), 3u);  // root, level-1, leaf
    EXPECT_EQ(tree->numLeaves(), 1u);
    EXPECT_EQ(tree->parent[0], -1);
    EXPECT_EQ(tree->parent[1], 0);
    EXPECT_EQ(tree->parent[2], 1);
}

TEST(ParallelOctree, PaperFigureFiveShape)
{
    // Paper Fig. 5: three points on a depth-2 tree. P0=(1,0,0),
    // P1=(0,0,0) (after shifting the paper's -1 into grid range)
    // and P2=(3,3,3).
    const std::vector<std::uint64_t> codes = [] {
        std::vector<std::uint64_t> c{mortonEncode(0, 0, 0),
                                     mortonEncode(1, 0, 0),
                                     mortonEncode(3, 3, 3)};
        std::sort(c.begin(), c.end());
        return c;
    }();
    auto tree = buildParallelOctree(codes, 2);
    ASSERT_TRUE(tree.hasValue());
    // Level 1 has two nodes (cells 0 and 7), leaves three.
    EXPECT_EQ(tree->numNodesAtLevel(0), 1u);
    EXPECT_EQ(tree->numNodesAtLevel(1), 2u);
    EXPECT_EQ(tree->numLeaves(), 3u);

    const auto occupancy = occupancyFromFlatOctree(*tree);
    ASSERT_EQ(occupancy.size(), 3u);  // root + 2 branch nodes
    EXPECT_EQ(occupancy[0], 0b10000001u);  // children 0 and 7
    EXPECT_EQ(occupancy[1], 0b00000011u);  // leaves 0 and 1
    EXPECT_EQ(occupancy[2], 0b10000000u);  // leaf 7
}

TEST(ParallelOctree, DuplicateCodesCollapse)
{
    const std::uint64_t code = mortonEncode(1, 2, 3);
    auto tree = buildParallelOctree({code, code, code}, 4);
    ASSERT_TRUE(tree.hasValue());
    EXPECT_EQ(tree->numLeaves(), 1u);
}

TEST(ParallelOctree, ParentChildCodesConsistent)
{
    const VoxelCloud cloud = uniqueRandomCloud(32, 500, 6);
    std::vector<std::uint64_t> codes;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        codes.push_back(mortonEncode(cloud.x()[i], cloud.y()[i],
                                     cloud.z()[i]));
    std::sort(codes.begin(), codes.end());
    auto tree = buildParallelOctree(codes, 6);
    ASSERT_TRUE(tree.hasValue());
    for (std::size_t i = 1; i < tree->numNodes(); ++i) {
        const auto parent =
            static_cast<std::size_t>(tree->parent[i]);
        EXPECT_EQ(tree->codes[i] >> 3, tree->codes[parent]);
    }
    // Level offsets are consistent and codes ascend per level.
    for (int level = 0; level <= tree->depth; ++level) {
        const auto lo =
            tree->level_offsets[static_cast<std::size_t>(level)];
        const auto hi = tree->level_offsets[
            static_cast<std::size_t>(level) + 1];
        for (std::size_t i = lo + 1; i < hi; ++i)
            EXPECT_LT(tree->codes[i - 1], tree->codes[i]);
    }
}

TEST(ParallelOctree, LeavesMatchInputCodes)
{
    const VoxelCloud cloud = uniqueRandomCloud(33, 700, 7);
    std::vector<std::uint64_t> codes;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        codes.push_back(mortonEncode(cloud.x()[i], cloud.y()[i],
                                     cloud.z()[i]));
    std::sort(codes.begin(), codes.end());
    auto tree = buildParallelOctree(codes, 7);
    ASSERT_TRUE(tree.hasValue());
    ASSERT_EQ(tree->numLeaves(), codes.size());
    const auto leaf_base =
        tree->level_offsets[static_cast<std::size_t>(tree->depth)];
    for (std::size_t i = 0; i < codes.size(); ++i)
        EXPECT_EQ(tree->codes[leaf_base + i], codes[i]);
}

/** Sorted codes with about a third repeated, on a `bits`-deep
 *  grid. */
std::vector<std::uint64_t>
sortedCodesWithDuplicates(std::uint64_t seed, std::size_t n, int bits)
{
    Rng rng(seed);
    std::vector<std::uint64_t> codes;
    codes.reserve(n);
    const std::uint64_t limit = std::uint64_t{1} << (3 * bits);
    while (codes.size() < n) {
        const std::uint64_t code = rng.bounded(limit);
        codes.push_back(code);
        if (rng.bounded(3) == 0 && codes.size() < n)
            codes.push_back(code);
    }
    std::sort(codes.begin(), codes.end());
    return codes;
}

/** Plain serial octree and Algorithm 1, the reference the level
 *  kernel must reproduce. */
struct ReferenceTree {
    std::vector<std::uint64_t> codes;
    std::vector<std::int32_t> parent;
    std::vector<std::uint32_t> level_offsets;
    std::vector<std::uint8_t> occupancy;
};

ReferenceTree
referenceTree(const std::vector<std::uint64_t> &sorted_codes, int depth)
{
    // Level l holds the distinct codes >> 3 * (depth - l).
    std::vector<std::vector<std::uint64_t>> levels(
        static_cast<std::size_t>(depth) + 1);
    for (int level = 0; level <= depth; ++level) {
        auto &codes = levels[static_cast<std::size_t>(level)];
        for (const std::uint64_t code : sorted_codes) {
            const std::uint64_t shifted = code >> (3 * (depth - level));
            if (codes.empty() || codes.back() != shifted)
                codes.push_back(shifted);
        }
    }
    ReferenceTree ref;
    for (const auto &codes : levels) {
        ref.level_offsets.push_back(
            static_cast<std::uint32_t>(ref.codes.size()));
        ref.codes.insert(ref.codes.end(), codes.begin(), codes.end());
    }
    ref.level_offsets.push_back(
        static_cast<std::uint32_t>(ref.codes.size()));
    ref.parent.assign(ref.codes.size(), -1);
    for (int level = 1; level <= depth; ++level) {
        const auto &above = levels[static_cast<std::size_t>(level) - 1];
        const std::uint32_t lo =
            ref.level_offsets[static_cast<std::size_t>(level)];
        const std::uint32_t hi =
            ref.level_offsets[static_cast<std::size_t>(level) + 1];
        for (std::uint32_t i = lo; i < hi; ++i) {
            const auto found = std::lower_bound(
                above.begin(), above.end(), ref.codes[i] >> 3);
            ref.parent[i] = static_cast<std::int32_t>(
                ref.level_offsets[static_cast<std::size_t>(level) - 1] +
                static_cast<std::uint32_t>(found - above.begin()));
        }
    }
    // Algorithm 1: every non-root node sets its octant bit in its
    // parent's byte.
    ref.occupancy.assign(
        ref.level_offsets[static_cast<std::size_t>(depth)], 0);
    for (std::size_t i = 1; i < ref.codes.size(); ++i) {
        ref.occupancy[static_cast<std::size_t>(ref.parent[i])] |=
            static_cast<std::uint8_t>(1u << (ref.codes[i] & 7));
    }
    return ref;
}

/** Sizes around the level kernel's 2^15-item part boundary, at every
 *  pool size. */
class ParallelOctreeReference
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(ParallelOctreeReference, MatchesSerialAlgorithmOne)
{
    const auto [n, pool_size] = GetParam();
    const int depth = 7;
    const std::vector<std::uint64_t> codes =
        sortedCodesWithDuplicates(n * 13 + 1, n, depth);
    const ReferenceTree ref = referenceTree(codes, depth);

    ScopedGlobalPool pool(static_cast<std::size_t>(pool_size));
    WorkRecorder recorder;
    auto tree = buildParallelOctree(codes, depth, &recorder);
    ASSERT_TRUE(tree.hasValue());
    EXPECT_EQ(tree->codes, ref.codes);
    EXPECT_EQ(tree->parent, ref.parent);
    EXPECT_EQ(tree->level_offsets, ref.level_offsets);
    EXPECT_EQ(occupancyFromFlatOctree(*tree, &recorder), ref.occupancy);

    // The model prices the device's flag/scan/gather build from the
    // input size and the node total.
    const auto profile = recorder.takeProfile();
    ASSERT_FALSE(profile.stages.empty());
    const KernelWork &levels = profile.stages[0].kernels.at(0);
    EXPECT_EQ(levels.name, "octree.par_levels");
    EXPECT_EQ(levels.ops, n * 4 + (ref.codes.size() - 1) * 5);
}

INSTANTIATE_TEST_SUITE_P(
    PartBoundaries, ParallelOctreeReference,
    ::testing::Combine(::testing::Values(std::size_t{1},
                                         std::size_t{32767},
                                         std::size_t{32768},
                                         std::size_t{32769},
                                         std::size_t{100003}),
                       ::testing::Values(0, 1, 4)));

TEST(ParallelOctree, UnsortedInputRejectedInAnyPart)
{
    // The sorted-input check runs per part; a descent at a part
    // boundary or deep inside the last part must still be caught.
    std::vector<std::uint64_t> codes =
        sortedCodesWithDuplicates(5, 70000, 7);
    for (const std::size_t at : {std::size_t{32768}, std::size_t{69999}}) {
        std::vector<std::uint64_t> broken = codes;
        broken[at] = 0;
        ScopedGlobalPool pool(4);
        const auto tree = buildParallelOctree(broken, 7);
        ASSERT_FALSE(tree.hasValue());
        EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
    }
}

// ---------------------------------------------------------------
// Cross-validation: both builders describe the same tree
// ---------------------------------------------------------------

TEST(OctreeCrossCheck, OccupancyMultisetsMatch)
{
    const VoxelCloud cloud = uniqueRandomCloud(34, 1000, 6);

    const PointerOctree seq = buildSequentialOctree(cloud);
    auto seq_stream = serializeDepthFirst(seq);

    std::vector<std::uint64_t> codes;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        codes.push_back(mortonEncode(cloud.x()[i], cloud.y()[i],
                                     cloud.z()[i]));
    std::sort(codes.begin(), codes.end());
    auto par = buildParallelOctree(codes, 6);
    ASSERT_TRUE(par.hasValue());
    auto par_stream = occupancyFromFlatOctree(*par);

    // Same tree, different traversal order: the byte multisets and
    // counts must agree.
    ASSERT_EQ(seq_stream.size(), par_stream.size());
    std::sort(seq_stream.begin(), seq_stream.end());
    std::sort(par_stream.begin(), par_stream.end());
    EXPECT_EQ(seq_stream, par_stream);

    EXPECT_EQ(seq.numNodes(), par->numNodes());
    EXPECT_EQ(seq.numLeaves(), par->numLeaves());
}

TEST(OctreeCrossCheck, RootBytesIdentical)
{
    const VoxelCloud cloud = uniqueRandomCloud(35, 200, 5);
    const PointerOctree seq = buildSequentialOctree(cloud);
    const auto seq_stream = serializeDepthFirst(seq);

    std::vector<std::uint64_t> codes;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        codes.push_back(mortonEncode(cloud.x()[i], cloud.y()[i],
                                     cloud.z()[i]));
    std::sort(codes.begin(), codes.end());
    auto par = buildParallelOctree(codes, 5);
    ASSERT_TRUE(par.hasValue());
    const auto par_stream = occupancyFromFlatOctree(*par);

    // DFS and BFS both emit the root byte first.
    ASSERT_FALSE(seq_stream.empty());
    ASSERT_FALSE(par_stream.empty());
    EXPECT_EQ(seq_stream[0], par_stream[0]);
}

/** Parameterized sweep: node counts agree across sizes/depths. */
class OctreeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(OctreeSweep, BuildersAgreeOnStructure)
{
    const auto [n, bits] = GetParam();
    // Never ask for more unique voxels than half the grid holds.
    const std::size_t capped = std::min<std::size_t>(
        static_cast<std::size_t>(n),
        (std::size_t{1} << (3 * bits)) / 2 + 1);
    const VoxelCloud cloud = uniqueRandomCloud(
        static_cast<std::uint64_t>(n) * 37 +
            static_cast<std::uint64_t>(bits),
        capped, bits);
    const PointerOctree seq = buildSequentialOctree(cloud);
    std::vector<std::uint64_t> codes;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        codes.push_back(mortonEncode(cloud.x()[i], cloud.y()[i],
                                     cloud.z()[i]));
    std::sort(codes.begin(), codes.end());
    auto par = buildParallelOctree(codes, bits);
    ASSERT_TRUE(par.hasValue());
    EXPECT_EQ(seq.numNodes(), par->numNodes());
    EXPECT_EQ(seq.numLeaves(), par->numLeaves());
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDepths, OctreeSweep,
    ::testing::Combine(::testing::Values(1, 2, 10, 100, 2000),
                       ::testing::Values(2, 5, 8, 10)));

}  // namespace
}  // namespace edgepcc
