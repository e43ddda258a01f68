#include "edgepcc/octree/geometry_codec.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <optional>

#include "edgepcc/common/check.h"
#include "edgepcc/common/trace.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/entropy/range_coder.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/octree/sequential_builder.h"
#include "edgepcc/parallel/parallel_for.h"
#include "edgepcc/platform/arena.h"
#include "octree_levels.h"

namespace edgepcc {

namespace {

constexpr std::uint8_t kFlagBuilderParallel = 1u << 0;
constexpr std::uint8_t kFlagEntropy = 1u << 1;
constexpr std::uint8_t kFlagTightBbox = 1u << 2;
constexpr std::uint8_t kFlagContextual = 1u << 3;

/**
 * Tight-cuboid renormalization parameters (paper Fig. 5): the
 * octree is fitted to the occupied bounding cuboid instead of the
 * full capture grid. Coordinates are shifted by the per-axis
 * minimum and the tree depth shrinks to cover only the largest
 * extent, which both trims empty upper levels and keeps the Morton
 * codes short. On integer (pre-voxelized) input the shift is
 * exactly invertible; the paper's sub-voxel loss only appears for
 * float capture coordinates (see DESIGN.md).
 */
struct BoxParams {
    std::uint32_t min[3] = {0, 0, 0};
    int original_depth = 0;  ///< gridBits of the input cloud
};

void
writeHeader(BitWriter &writer, std::uint8_t flags, int depth,
            std::size_t num_voxels, const BoxParams *box)
{
    writer.writeBits('G', 8);
    writer.writeBits('E', 8);
    writer.writeBits('O', 8);
    writer.writeBits(flags, 8);
    writer.writeVarint(static_cast<std::uint64_t>(depth));
    writer.writeVarint(num_voxels);
    if (box) {
        writer.writeVarint(
            static_cast<std::uint64_t>(box->original_depth));
        for (int a = 0; a < 3; ++a)
            writer.writeVarint(box->min[a]);
    }
}

std::vector<std::uint8_t>
assemblePayload(std::uint8_t flags, int depth, std::size_t num_voxels,
                const BoxParams *box,
                const std::vector<std::uint8_t> &occupancy,
                const std::vector<std::uint8_t> *contexts,
                WorkRecorder *recorder)
{
    const bool entropy = flags & kFlagEntropy;
    const bool try_contextual =
        (flags & kFlagContextual) && contexts != nullptr;

    std::vector<std::uint8_t> packed;
    if (entropy) {
        const std::vector<std::uint8_t> order0 =
            entropyCompress(occupancy);
        packed = order0;
        flags &= static_cast<std::uint8_t>(~kFlagContextual);
        if (try_contextual) {
            // Mode decision: context modelling wins on locally
            // dense surfaces but can lose on uniformly sparse
            // ones; keep whichever stream is smaller (TMC13-style
            // encoder-side decision, signalled via the flag).
            std::vector<std::uint8_t> ctx_packed;
            RangeEncoder encoder(ctx_packed);
            ContextualByteCoder coder;
            for (std::size_t i = 0; i < occupancy.size(); ++i)
                coder.encode(encoder, (*contexts)[i],
                             occupancy[i]);
            encoder.finish();
            if (ctx_packed.size() < order0.size()) {
                packed = std::move(ctx_packed);
                flags |= kFlagContextual;
            }
        }
    } else {
        flags &= static_cast<std::uint8_t>(~kFlagContextual);
    }

    BitWriter writer;
    writeHeader(writer, flags, depth, num_voxels, box);
    writer.writeVarint(occupancy.size());
    if (entropy) {
        writer.writeVarint(packed.size());
        writer.writeBytes(packed.data(), packed.size());
        recordKernel(
            recorder,
            KernelWork{.name = "geom.entropy",
                       .resource = ExecResource::kCpuSequential,
                       .invocations = 1,
                       .items = occupancy.size(),
                       .ops = occupancy.size() *
                              (try_contextual ? 28u : 24u),
                       .bytes = occupancy.size() + packed.size()});
    } else {
        writer.writeBytes(occupancy.data(), occupancy.size());
    }
    return writer.take();
}

/** Per-axis coordinate bounds of one part of a cloud. */
struct Bounds {
    std::uint32_t lo[3];
    std::uint32_t hi[3];
};

/**
 * Tight-cuboid fit: reduces the bbox per part, writes the shifted
 * coordinates into `shifted`, and returns the fitted depth.
 */
int
fitTightBox(const VoxelCloud &cloud, FrameArena &arena, BoxParams &box,
            VoxelCloud &shifted, WorkRecorder *recorder)
{
    const std::size_t n = cloud.size();
    const std::uint16_t *axes[3] = {cloud.x().data(), cloud.y().data(),
                                    cloud.z().data()};
    auto *partials = arena.allocateArray<Bounds>(numParts(n));
    forEachPart(n, [&](std::size_t p, std::size_t lo, std::size_t hi) {
        Bounds part{};
        for (int a = 0; a < 3; ++a) {
            const std::uint16_t *v = axes[a];
            std::uint32_t low = v[lo];
            std::uint32_t high = v[lo];
            for (std::size_t i = lo + 1; i < hi; ++i) {
                low = std::min<std::uint32_t>(low, v[i]);
                high = std::max<std::uint32_t>(high, v[i]);
            }
            part.lo[a] = low;
            part.hi[a] = high;
        }
        partials[p] = part;
    });
    Bounds total = partials[0];
    for (std::size_t p = 1; p < numParts(n); ++p) {
        for (int a = 0; a < 3; ++a) {
            total.lo[a] = std::min(total.lo[a], partials[p].lo[a]);
            total.hi[a] = std::max(total.hi[a], partials[p].hi[a]);
        }
    }
    std::uint32_t max_extent = 0;
    for (int a = 0; a < 3; ++a) {
        box.min[a] = total.lo[a];
        max_extent = std::max(max_extent, total.hi[a] - total.lo[a]);
    }
    recordKernel(recorder,
                 KernelWork{.name = "geom.bbox_reduce",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 6,
                            .bytes = n * 6});

    // Fit the tree to the cuboid: shift out the minimum and shrink
    // the depth to cover the largest extent.
    shifted.resize(n);
    std::uint16_t *out[3] = {shifted.mutableX().data(),
                             shifted.mutableY().data(),
                             shifted.mutableZ().data()};
    forEachPart(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (int a = 0; a < 3; ++a) {
            const std::uint16_t *v = axes[a];
            const auto offset = static_cast<std::uint16_t>(box.min[a]);
            for (std::size_t i = lo; i < hi; ++i)
                out[a][i] = static_cast<std::uint16_t>(v[i] - offset);
        }
    });
    recordKernel(recorder,
                 KernelWork{.name = "geom.requant",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 6,
                            .bytes = n * 12});
    return std::max(1, bitWidth(max_extent));
}

/**
 * The one unique pass over the sorted codes of `order`. Returns the
 * cloud of distinct voxels in code order, gathered from the input
 * `cloud` through the permutation: the original coordinates, and the
 * color of the run's first point, which under the stable sort is the
 * earliest input point.
 */
VoxelCloud
uniqueLeaves(const VoxelCloud &cloud, const MortonOrder &order,
             FrameArena &arena, WorkRecorder *recorder)
{
    const std::size_t n = order.codes.size();
    const std::uint64_t *codes = order.codes.data();
    const std::uint32_t *perm = order.perm.data();
    const auto same_code = [codes](std::size_t i) {
        return codes[i] == codes[i - 1];
    };
    std::size_t *offsets =
        arena.allocateArray<std::size_t>(numParts(n) + 1);
    VoxelCloud out(cloud.gridBits());
    out.resize(countRuns(n, offsets, same_code));
    const std::uint16_t *in_xyz[3] = {cloud.x().data(), cloud.y().data(),
                                      cloud.z().data()};
    const std::uint8_t *in_rgb[3] = {cloud.r().data(), cloud.g().data(),
                                     cloud.b().data()};
    std::uint16_t *out_xyz[3] = {out.mutableX().data(),
                                 out.mutableY().data(),
                                 out.mutableZ().data()};
    std::uint8_t *out_rgb[3] = {out.mutableR().data(),
                                out.mutableG().data(),
                                out.mutableB().data()};
    emitRuns(n, offsets, same_code,
             [&](std::size_t run, std::size_t begin, std::size_t) {
                 const std::uint32_t src = perm[begin];
                 for (int a = 0; a < 3; ++a) {
                     out_xyz[a][run] = in_xyz[a][src];
                     out_rgb[a][run] = in_rgb[a][src];
                 }
             });
    // The device runs the gather and the dedup as two kernels.
    recordKernel(recorder,
                 KernelWork{.name = "morton.gather",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 6,
                            .bytes = n * 2 * 9});
    recordKernel(recorder,
                 KernelWork{.name = "geom.dedup",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 3,
                            .bytes = n * (8 + 9)});
    return out;
}

/** The breadth-first occupancy stream: the branch levels' bytes
 *  concatenated, root first. */
std::vector<std::uint8_t>
breadthFirstStream(const OctreeLevels &levels)
{
    std::vector<std::uint8_t> stream;
    stream.reserve(levels.branchNodes());
    for (int level = 0; level < levels.depth; ++level) {
        const auto l = static_cast<std::size_t>(level);
        stream.insert(stream.end(), levels.occupancy[l],
                      levels.occupancy[l] + levels.counts[l]);
    }
    return stream;
}

/** Each stream byte's parent byte (0 for the root), from linked
 *  levels: the input to contextual entropy coding. */
std::vector<std::uint8_t>
parentContexts(const OctreeLevels &levels,
               const std::vector<std::uint8_t> &stream)
{
    std::vector<std::uint8_t> contexts(stream.size(), 0);
    std::size_t parent_base = 0;
    std::size_t base = 1;
    for (int level = 1; level < levels.depth; ++level) {
        const auto l = static_cast<std::size_t>(level);
        for (std::size_t i = 0; i < levels.counts[l]; ++i)
            contexts[base + i] = stream[parent_base + levels.parent[l][i]];
        parent_base = base;
        base += levels.counts[l];
    }
    return contexts;
}

/**
 * Stages geom.normalize (tight bbox only) and geom.morton: fits the
 * box and the depth, then sorts the (shifted) cloud by Morton code.
 */
MortonOrder
mortonOrderCloud(const VoxelCloud &cloud, bool tight, FrameArena &arena,
                 BoxParams &box, int &depth, WorkRecorder *recorder)
{
    VoxelCloud shifted(cloud.gridBits());
    if (tight) {
        ScopedStage stage(recorder, "geom.normalize");
        depth = fitTightBox(cloud, arena, box, shifted, recorder);
    }
    ScopedStage stage(recorder, "geom.morton");
    return computeMortonOrder(tight ? shifted : cloud, recorder);
}

/** The proposed pipeline (Fig. 4c): normalize, Morton order, one
 *  unique pass, the level kernel bottom-up, breadth-first stream. */
Expected<GeometryEncoded>
encodeParallel(const VoxelCloud &cloud, const GeometryConfig &config,
               std::uint8_t flags, WorkRecorder *recorder)
{
    ScratchArena scratch;
    FrameArena &arena = scratch.get();
    GeometryEncoded result;
    BoxParams box;
    box.original_depth = cloud.gridBits();
    result.depth = cloud.gridBits();
    MortonOrder order = mortonOrderCloud(cloud, config.tight_bbox, arena,
                                         box, result.depth, recorder);

    std::vector<std::uint8_t> occupancy;
    std::vector<std::uint8_t> contexts;
    {
        ScopedStage stage(recorder, "geom.build");
        ScopedTrace trace("octree.build_levels");
        result.sorted_cloud = uniqueLeaves(cloud, order, arena, recorder);
        result.num_voxels = result.sorted_cloud.size();
        const OctreeLevels levels = buildBranchLevels(
            order.codes.data(), order.codes.size(), result.depth, arena,
            config.contextual_entropy);
        order = MortonOrder{};  // spent: free it before the stream
        const std::size_t total = levels.branchNodes() + result.num_voxels;
        recordLevelBuild(recorder, result.num_voxels, total,
                         result.depth);
        recordOccupancyMerge(recorder, total);
        occupancy = breadthFirstStream(levels);
        if (config.contextual_entropy)
            contexts = parentContexts(levels, occupancy);
    }
    {
        ScopedStage stage(recorder, "geom.post");
        result.payload = assemblePayload(
            flags, result.depth, result.num_voxels,
            config.tight_bbox ? &box : nullptr, occupancy,
            config.contextual_entropy ? &contexts : nullptr, recorder);
    }
    return result;
}

/** The sequential baseline (Fig. 4a): point-by-point insertion and a
 *  depth-first stream. */
Expected<GeometryEncoded>
encodeSequential(const VoxelCloud &cloud, const GeometryConfig &config,
                 std::uint8_t flags, WorkRecorder *recorder)
{
    GeometryEncoded result;
    result.depth = cloud.gridBits();
    std::vector<std::uint8_t> occupancy;
    std::vector<std::uint8_t> contexts;
    {
        ScopedStage stage(recorder, "geom.build");
        const PointerOctree tree = buildSequentialOctree(cloud, recorder);
        ScopedStage serialize_stage(recorder, "geom.serialize");
        occupancy = serializeDepthFirst(
            tree, recorder,
            config.contextual_entropy ? &contexts : nullptr);
    }
    // The attribute stage needs the Morton-sorted unique cloud; in
    // TMC13 this ordering falls out of the octree itself, so its cost
    // is part of the RAHT calibration and is not recorded here.
    {
        const MortonOrder order = computeMortonOrder(cloud, nullptr);
        ScratchArena scratch;
        result.sorted_cloud =
            uniqueLeaves(cloud, order, scratch.get(), nullptr);
        result.num_voxels = result.sorted_cloud.size();
    }
    {
        ScopedStage stage(recorder, "geom.post");
        result.payload = assemblePayload(
            flags, result.depth, result.num_voxels, nullptr, occupancy,
            config.contextual_entropy ? &contexts : nullptr, recorder);
    }
    return result;
}

}  // namespace

Expected<GeometryEncoded>
encodeGeometry(const VoxelCloud &cloud, const GeometryConfig &config,
               WorkRecorder *recorder)
{
    ScopedTrace trace("geometry.encode");
    if (cloud.empty())
        return invalidArgument("encodeGeometry: empty cloud");

    const bool parallel =
        config.builder == GeometryConfig::Builder::kParallelMorton;
    std::uint8_t flags = 0;
    if (parallel)
        flags |= kFlagBuilderParallel;
    if (config.entropy_coding || config.contextual_entropy)
        flags |= kFlagEntropy;
    if (config.contextual_entropy)
        flags |= kFlagContextual;
    if (parallel && config.tight_bbox)
        flags |= kFlagTightBbox;
    return parallel ? encodeParallel(cloud, config, flags, recorder)
                    : encodeSequential(cloud, config, flags, recorder);
}

namespace {

struct ParsedHeader {
    std::uint8_t flags = 0;
    int depth = 0;
    std::size_t num_voxels = 0;
    BoxParams box;
    /** Plain (or order-0 pre-decoded) occupancy bytes. Empty in
     *  contextual mode, where `packed` is decoded on the fly. */
    std::vector<std::uint8_t> occupancy;
    std::vector<std::uint8_t> packed;
    std::size_t occupancy_size = 0;
};

/**
 * Byte supplier for tree expansion: either a plain buffer or a
 * context-conditioned range decoder (bytes must then be pulled in
 * stream order, with each node's parent byte as context).
 */
class OccupancyByteSource
{
  public:
    explicit OccupancyByteSource(const ParsedHeader &header)
        : header_(&header)
    {
        if (header.flags & kFlagContextual) {
            decoder_.emplace(header.packed);
            remaining_ = header.occupancy_size;
        }
    }

    /** Next occupancy byte; -1 on underflow/corruption. */
    int
    next(std::uint8_t parent_byte)
    {
        if (decoder_) {
            if (remaining_ == 0)
                return -1;
            --remaining_;
            const std::uint8_t byte =
                coder_.decode(*decoder_, parent_byte);
            if (decoder_->overrun())
                return -1;
            return byte;
        }
        if (cursor_ >= header_->occupancy.size())
            return -1;
        return header_->occupancy[cursor_++];
    }

    /**
     * The next `count` bytes in one piece (one tree level); nullptr
     * on underflow/corruption. A contextual stream decodes them into
     * `arena`, byte i conditioned on `parent_bytes[i]`.
     */
    const std::uint8_t *
    nextLevel(std::size_t count, const std::uint8_t *parent_bytes,
              FrameArena &arena)
    {
        if (decoder_) {
            if (remaining_ < count)
                return nullptr;
            remaining_ -= count;
            auto *bytes = arena.allocateArray<std::uint8_t>(count);
            for (std::size_t i = 0; i < count; ++i) {
                bytes[i] = coder_.decode(*decoder_, parent_bytes[i]);
                if (decoder_->overrun())
                    return nullptr;
            }
            return bytes;
        }
        if (header_->occupancy.size() - cursor_ < count)
            return nullptr;
        const std::uint8_t *bytes = header_->occupancy.data() + cursor_;
        cursor_ += count;
        return bytes;
    }

    /** True when exactly all bytes were consumed. */
    bool
    exhausted() const
    {
        return decoder_ ? remaining_ == 0
                        : cursor_ == header_->occupancy.size();
    }

  private:
    const ParsedHeader *header_;
    std::size_t cursor_ = 0;
    std::optional<RangeDecoder> decoder_;
    ContextualByteCoder coder_;
    std::size_t remaining_ = 0;
};

Expected<ParsedHeader>
parsePayload(const std::vector<std::uint8_t> &payload)
{
    BitReader reader(payload);
    ParsedHeader header;
    const auto g = reader.readBits(8);
    const auto e = reader.readBits(8);
    const auto o = reader.readBits(8);
    if (g != 'G' || e != 'E' || o != 'O')
        return corruptBitstream("geometry payload: bad magic");
    header.flags = static_cast<std::uint8_t>(reader.readBits(8));
    header.depth = static_cast<int>(reader.readVarint());
    header.num_voxels =
        static_cast<std::size_t>(reader.readVarint());
    EDGEPCC_CHECK_CORRUPT(header.depth >= 1 &&
                              header.depth <= kMaxMortonBitsPerAxis,
                          "geometry payload: bad depth");
    EDGEPCC_CHECK_CORRUPT(header.num_voxels <= kMaxDecodeItems,
                          "geometry payload: implausible voxel count");
    if (header.flags & kFlagTightBbox) {
        header.box.original_depth =
            static_cast<int>(reader.readVarint());
        EDGEPCC_CHECK_CORRUPT(
            header.box.original_depth >= header.depth &&
                header.box.original_depth <= kMaxMortonBitsPerAxis,
            "geometry payload: bad original depth");
        for (int a = 0; a < 3; ++a) {
            header.box.min[a] =
                static_cast<std::uint32_t>(reader.readVarint());
            // The shift-back in decodeGeometry adds box.min to
            // 21-bit Morton components; an unchecked 2^32-scale
            // minimum would wrap std::uint32_t and dodge the grid
            // bound below.
            EDGEPCC_CHECK_CORRUPT(
                header.box.min[a] <
                    (1u << header.box.original_depth),
                "geometry payload: bbox origin outside grid");
        }
    }
    const auto occupancy_size =
        static_cast<std::size_t>(reader.readVarint());
    header.occupancy_size = occupancy_size;
    // Every occupancy byte is one branch node; a stream can never
    // legitimately carry more nodes than leaves it can produce.
    EDGEPCC_CHECK_CORRUPT(occupancy_size <= kMaxDecodeItems * 2,
                          "geometry payload: implausible node count");
    if (header.flags & kFlagEntropy) {
        const auto packed_size =
            static_cast<std::size_t>(reader.readVarint());
        reader.alignToByte();
        EDGEPCC_CHECK_CORRUPT(
            !reader.overrun() &&
                reader.byteOffset() + packed_size <= payload.size(),
            "geometry payload: truncated entropy block");
        std::vector<std::uint8_t> packed(
            payload.begin() +
                static_cast<std::ptrdiff_t>(reader.byteOffset()),
            payload.begin() +
                static_cast<std::ptrdiff_t>(reader.byteOffset() +
                                            packed_size));
        if (header.flags & kFlagContextual) {
            // Contextual decoding interleaves with expansion.
            header.packed = std::move(packed);
        } else {
            auto unpacked =
                entropyDecompress(packed, occupancy_size);
            if (!unpacked)
                return unpacked.status();
            header.occupancy = unpacked.takeValue();
        }
    } else {
        reader.alignToByte();
        if (reader.byteOffset() + occupancy_size > payload.size())
            return corruptBitstream(
                "geometry payload: truncated occupancy");
        header.occupancy.assign(
            payload.begin() +
                static_cast<std::ptrdiff_t>(reader.byteOffset()),
            payload.begin() +
                static_cast<std::ptrdiff_t>(reader.byteOffset() +
                                            occupancy_size));
    }
    if (reader.overrun())
        return corruptBitstream("geometry payload: header overrun");
    return header;
}

/**
 * The deepest branch level of a breadth-first tree: its codes, its
 * occupancy bytes, and per part of it the number of leaves that come
 * before the part. The leaves are its children.
 */
struct LeafParents {
    const std::uint64_t *codes = nullptr;
    const std::uint8_t *bytes = nullptr;
    std::size_t count = 0;
    const std::size_t *leaf_offsets = nullptr;
    std::size_t num_leaves = 0;
};

/**
 * Expands breadth-first occupancy bytes level by level, the inverse
 * of Algorithm 1, down to the leaves' parents. Per level: take the
 * level's bytes (one per node), popcount them per part and reject an
 * empty branch, scan the part counts, and check the leaf cap before
 * allocating the next level; then every part scatters its nodes'
 * child codes from its offset. Contextual streams decode each level's
 * bytes serially first, each node's parent byte coming from the
 * previous scatter. decodeGeometry scatters the leaves.
 */
Expected<LeafParents>
expandBreadthFirst(const ParsedHeader &header, FrameArena &arena)
{
    OccupancyByteSource source(header);
    const bool contextual = header.flags & kFlagContextual;
    auto *codes = arena.allocateArray<std::uint64_t>(1);
    auto *parent_bytes = arena.allocateArray<std::uint8_t>(1);
    codes[0] = 0;
    parent_bytes[0] = 0;
    std::size_t count = 1;
    for (int level = 0;; ++level) {
        const std::uint8_t *bytes =
            source.nextLevel(count, parent_bytes, arena);
        if (bytes == nullptr)
            return corruptBitstream(
                "geometry payload: occupancy underflow");
        auto *offsets =
            arena.allocateArray<std::size_t>(numParts(count) + 1);
        std::atomic<bool> empty_branch{false};
        forEachPart(count, [&](std::size_t p, std::size_t lo,
                               std::size_t hi) {
            std::size_t children = 0;
            bool empty = false;
            for (std::size_t i = lo; i < hi; ++i) {
                children +=
                    static_cast<std::size_t>(std::popcount(bytes[i]));
                empty |= bytes[i] == 0;
            }
            offsets[p + 1] = children;
            if (empty)
                empty_branch.store(true, std::memory_order_relaxed);
        });
        if (empty_branch.load(std::memory_order_relaxed))
            return corruptBitstream(
                "geometry payload: empty branch node");
        const std::size_t next_count =
            scanPartCounts(offsets, numParts(count));
        EDGEPCC_CHECK_CORRUPT(
            next_count <= kMaxDecodeItems,
            "geometry payload: tree expansion exceeds leaf cap");
        if (level + 1 == header.depth) {
            if (!source.exhausted())
                return corruptBitstream(
                    "geometry payload: trailing occupancy bytes");
            return LeafParents{codes, bytes, count, offsets, next_count};
        }

        auto *next = arena.allocateArray<std::uint64_t>(next_count);
        std::uint8_t *next_parent_bytes =
            contextual ? arena.allocateArray<std::uint8_t>(next_count)
                       : nullptr;
        forEachPart(count, [&](std::size_t p, std::size_t lo,
                               std::size_t hi) {
            std::size_t k = offsets[p];
            for (std::size_t i = lo; i < hi; ++i) {
                const std::uint64_t base = codes[i] << 3;
                for (unsigned bits = bytes[i]; bits != 0;
                     bits &= bits - 1) {
                    next[k] = base | static_cast<std::uint64_t>(
                                         std::countr_zero(bits));
                    if (next_parent_bytes != nullptr)
                        next_parent_bytes[k] = bytes[i];
                    ++k;
                }
            }
        });
        codes = next;
        parent_bytes = next_parent_bytes;
        count = next_count;
    }
}

/** Expands DFS occupancy bytes into sorted leaf codes. */
Expected<std::vector<std::uint64_t>>
expandDepthFirst(const ParsedHeader &header)
{
    OccupancyByteSource source(header);
    std::vector<std::uint64_t> leaves;

    struct StackEntry {
        std::uint64_t code;
        int level;
        std::uint8_t parent_byte;
    };
    std::vector<StackEntry> stack{{0, 0, 0}};
    while (!stack.empty()) {
        const StackEntry entry = stack.back();
        stack.pop_back();
        if (entry.level == header.depth) {
            EDGEPCC_CHECK_CORRUPT(
                leaves.size() < kMaxDecodeItems,
                "geometry payload: tree expansion exceeds leaf cap");
            leaves.push_back(entry.code);
            continue;
        }
        const int bits = source.next(entry.parent_byte);
        if (bits < 0)
            return corruptBitstream(
                "geometry payload: occupancy underflow");
        if (bits == 0)
            return corruptBitstream(
                "geometry payload: empty branch node");
        // Push octants in reverse so they pop in ascending order.
        for (int octant = 7; octant >= 0; --octant) {
            if (bits & (1 << octant)) {
                stack.push_back(
                    {(entry.code << 3) |
                         static_cast<std::uint64_t>(octant),
                     entry.level + 1,
                     static_cast<std::uint8_t>(bits)});
            }
        }
    }
    if (!source.exhausted())
        return corruptBitstream(
            "geometry payload: trailing occupancy bytes");
    return leaves;
}

/** Where dequantized leaves go: the output coordinate arrays, the
 *  tight-bbox shift and the grid bound. */
struct DequantTarget {
    std::uint16_t *xyz[3];
    std::uint32_t offset[3];
    std::uint32_t grid_limit;
    /** Set (relaxed, false -> true only) when a voxel falls outside
     *  the grid; read after the join. */
    std::atomic<bool> *out_of_grid;
};

/**
 * Dequantizes leaf codes bound for consecutive output positions a
 * stack tile at a time, so the SIMD Morton decoder gets contiguous
 * SoA input and output without a heap round trip.
 */
class LeafTile
{
  public:
    LeafTile(const DequantTarget &target, std::size_t first)
        : target_(target), next_(first)
    {
    }

    void
    push(std::uint64_t code)
    {
        codes_[size_++] = code;
        if (size_ == kTile)
            flush();
    }

    void
    flush()
    {
        mortonDecodeBatch(codes_, size_, axes_[0], axes_[1], axes_[2]);
        bool outside = false;
        for (int a = 0; a < 3; ++a) {
            std::uint16_t *out = target_.xyz[a] + next_;
            for (std::size_t k = 0; k < size_; ++k) {
                const std::uint32_t v = axes_[a][k] + target_.offset[a];
                outside |= v >= target_.grid_limit;
                out[k] = static_cast<std::uint16_t>(v);
            }
        }
        if (outside)
            target_.out_of_grid->store(true, std::memory_order_relaxed);
        next_ += size_;
        size_ = 0;
    }

  private:
    static constexpr std::size_t kTile = 512;

    const DequantTarget &target_;
    std::size_t next_;
    std::size_t size_ = 0;
    std::uint64_t codes_[kTile];
    std::uint32_t axes_[3][kTile];
};

/**
 * The expanded tree's leaves to voxels on the output grid: records
 * the expansion, then Morton-decodes with the tight-bbox shift back,
 * rejecting any voxel outside the grid. The work splits into parts
 * of `num_items` items; `fill(tile, lo, hi)` pushes the leaf codes of
 * items [lo, hi), which land in the output from position `first(p)`
 * for part p.
 */
template <typename First, typename Fill>
Expected<VoxelCloud>
leavesToCloud(const ParsedHeader &header, std::size_t num_leaves,
              std::size_t num_items, const First &first, const Fill &fill,
              WorkRecorder *recorder)
{
    const ExecResource resource = (header.flags & kFlagBuilderParallel)
                                      ? ExecResource::kGpu
                                      : ExecResource::kCpuSequential;
    recordKernel(
        recorder,
        KernelWork{.name = "geomdec.expand",
                   .resource = resource,
                   .invocations = static_cast<std::uint64_t>(header.depth),
                   .items = header.occupancy_size,
                   .ops = header.occupancy_size * 10,
                   .bytes = header.occupancy_size + num_leaves * 8});

    const bool tight = header.flags & kFlagTightBbox;
    // The output cloud lives on the original capture grid; the
    // coded tree may be shallower (cuboid-fitted).
    VoxelCloud cloud(tight ? header.box.original_depth : header.depth);
    cloud.resize(num_leaves);
    std::atomic<bool> out_of_grid{false};
    DequantTarget target{
        {cloud.mutableX().data(), cloud.mutableY().data(),
         cloud.mutableZ().data()},
        {tight ? header.box.min[0] : 0, tight ? header.box.min[1] : 0,
         tight ? header.box.min[2] : 0},
        cloud.gridSize(),
        &out_of_grid};
    forEachPart(num_items, [&](std::size_t p, std::size_t lo,
                               std::size_t hi) {
        LeafTile tile(target, first(p));
        fill(tile, lo, hi);
        tile.flush();
    });
    if (out_of_grid.load(std::memory_order_relaxed))
        return corruptBitstream(
            "geometry payload: decoded voxel outside grid");
    recordKernel(recorder, KernelWork{.name = "geomdec.dequant",
                                      .resource = resource,
                                      .invocations = 1,
                                      .items = num_leaves,
                                      .ops = num_leaves * 24,
                                      .bytes = num_leaves * 14});
    return cloud;
}

}  // namespace

Expected<VoxelCloud>
decodeGeometry(const std::vector<std::uint8_t> &payload,
               WorkRecorder *recorder)
{
    ScopedTrace trace("geometry.decode");
    ScopedStage parse_stage(recorder, "geomdec.parse");
    auto header = parsePayload(payload);
    if (!header)
        return header.status();
    recordKernel(recorder,
                 KernelWork{.name = "geomdec.parse",
                            .resource = ExecResource::kCpuSequential,
                            .invocations = 1,
                            .items = header->occupancy_size,
                            .ops = header->occupancy_size *
                                   ((header->flags & kFlagEntropy)
                                        ? 30u
                                        : 1u),
                            .bytes = payload.size()});

    // A header that states a voxel count must match the tree.
    const auto count_matches = [&](std::size_t num_leaves) {
        return header->num_voxels == 0 ||
               header->num_voxels == num_leaves;
    };
    if (header->flags & kFlagBuilderParallel) {
        ScratchArena scratch;
        auto parents = expandBreadthFirst(*header, scratch.get());
        if (!parents)
            return parents.status();
        EDGEPCC_CHECK_CORRUPT(count_matches(parents->num_leaves),
                              "geometry payload: voxel count mismatch");
        // The leaves go from their parents' bytes straight into the
        // dequantizer; their codes are never stored.
        return leavesToCloud(
            *header, parents->num_leaves, parents->count,
            [&](std::size_t p) { return parents->leaf_offsets[p]; },
            [&](LeafTile &tile, std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                    const std::uint64_t base = parents->codes[i] << 3;
                    for (unsigned bits = parents->bytes[i]; bits != 0;
                         bits &= bits - 1) {
                        tile.push(base | static_cast<std::uint64_t>(
                                             std::countr_zero(bits)));
                    }
                }
            },
            recorder);
    }
    auto leaves = expandDepthFirst(*header);
    if (!leaves)
        return leaves.status();
    EDGEPCC_CHECK_CORRUPT(count_matches(leaves->size()),
                          "geometry payload: voxel count mismatch");
    return leavesToCloud(
        *header, leaves->size(), leaves->size(),
        [](std::size_t p) { return p * kPartKeys; },
        [&](LeafTile &tile, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                tile.push((*leaves)[i]);
        },
        recorder);
}

}  // namespace edgepcc
