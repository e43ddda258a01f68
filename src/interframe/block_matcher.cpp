#include "edgepcc/interframe/block_matcher.h"

#include <algorithm>
#include <cmath>

#include "edgepcc/common/trace.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/parallel/parallel_for.h"

namespace edgepcc {

namespace {

/** Per-block candidate window in the reference frame. */
struct Window {
    std::size_t start = 0;
    std::size_t count = 0;
};

Window
candidateWindow(std::size_t p_block, std::size_t p_blocks,
                std::size_t i_blocks, std::size_t window)
{
    Window w;
    const std::size_t center = static_cast<std::size_t>(
        static_cast<double>(p_block) *
        static_cast<double>(i_blocks) /
        static_cast<double>(std::max<std::size_t>(1, p_blocks)));
    const std::size_t half = window / 2;
    std::size_t start = center > half ? center - half : 0;
    if (start + window > i_blocks)
        start = i_blocks > window ? i_blocks - window : 0;
    w.start = start;
    w.count = std::min(window, i_blocks - start);
    return w;
}

/** Points scored between two early-exit checks. */
constexpr std::size_t kExitStride = 8;

/** Paper Eq. 2 over point pairs [lo, hi) of two blocks. */
std::uint64_t
blockDiffSquared(const VoxelCloud &p, std::size_t p_begin,
                 const VoxelCloud &i, std::size_t i_begin,
                 std::size_t lo, std::size_t hi)
{
    std::uint64_t sum = 0;
    for (std::size_t j = lo; j < hi; ++j) {
        const std::int32_t dr =
            static_cast<std::int32_t>(p.r()[p_begin + j]) -
            static_cast<std::int32_t>(i.r()[i_begin + j]);
        const std::int32_t dg =
            static_cast<std::int32_t>(p.g()[p_begin + j]) -
            static_cast<std::int32_t>(i.g()[i_begin + j]);
        const std::int32_t db =
            static_cast<std::int32_t>(p.b()[p_begin + j]) -
            static_cast<std::int32_t>(i.b()[i_begin + j]);
        sum += static_cast<std::uint64_t>(
            dr * dr + dg * dg + db * db);
    }
    return sum;
}

/** P-blocks per claimed group (~100 candidates each). */
constexpr std::size_t kMatchGroupBlocks = 64;

/** Match-stage counts; one per claimed group, summed in order. */
struct MatchTally {
    std::uint64_t comparisons = 0;
    std::uint32_t reused_blocks = 0;
    std::uint64_t reused_points = 0;
    std::uint64_t delta_points = 0;

    MatchTally
    operator+(const MatchTally &other) const
    {
        return MatchTally{comparisons + other.comparisons,
                          reused_blocks + other.reused_blocks,
                          reused_points + other.reused_points,
                          delta_points + other.delta_points};
    }
};

constexpr const char kMagic[3] = {'I', 'N', 'T'};

}  // namespace

Expected<InterAttrEncoded>
encodeInterAttr(const VoxelCloud &p_sorted,
                const VoxelCloud &i_reference,
                const BlockMatchConfig &config,
                WorkRecorder *recorder)
{
    const std::size_t np = p_sorted.size();
    const std::size_t ni = i_reference.size();
    if (np == 0 || ni == 0)
        return invalidArgument("encodeInterAttr: empty cloud");
    if (config.candidate_window == 0)
        return invalidArgument(
            "encodeInterAttr: candidate_window must be >= 1");

    // Block layouts share the points-per-block K so that block k of
    // each frame covers a comparable spatial span of the sorted
    // order.
    SegmentCodecConfig layout_cfg;
    layout_cfg.num_segments =
        config.num_blocks != 0
            ? config.num_blocks
            : static_cast<std::uint32_t>(
                  std::max<std::size_t>(1, np / 16));
    const SegmentLayout p_layout = makeSegmentLayout(np, layout_cfg);
    const std::size_t k = p_layout.points_per_segment;
    const std::size_t i_blocks = (ni + k - 1) / k;
    const std::size_t p_blocks = p_layout.num_segments;

    InterAttrEncoded result;
    result.stats.num_blocks =
        static_cast<std::uint32_t>(p_blocks);

    std::vector<std::uint32_t> best_offset(p_blocks, 0);
    std::vector<std::uint8_t> reuse_flag(p_blocks, 0);

    MatchTally tally;
    {
        TracedStage stage(recorder, "inter.match");
        // Each P-block's argmin is independent: groups of blocks are
        // claimed by pool threads, each writing only its own blocks'
        // slots and its own tally. The early exit makes block costs
        // uneven, so groups are claimed rather than split evenly.
        const auto match_block = [&](std::size_t pb) {
            const std::size_t p_begin = p_layout.begin(
                static_cast<std::uint32_t>(pb));
            const std::size_t p_end = p_layout.end(
                static_cast<std::uint32_t>(pb), np);
            const std::size_t kp = p_end - p_begin;

            const Window window = candidateWindow(
                pb, p_blocks, i_blocks, config.candidate_window);

            MatchTally block;
            std::uint64_t best_diff = 0;
            std::uint32_t best = 0;
            std::size_t best_km = 1;
            bool have_best = false;
            for (std::size_t c = 0; c < window.count; ++c) {
                const std::size_t ib = window.start + c;
                const std::size_t i_begin = ib * k;
                const std::size_t i_end =
                    std::min(ni, i_begin + k);
                const std::size_t km =
                    std::min(kp, i_end - i_begin);
                if (km == 0)
                    continue;
                // The model bills the full score of every candidate,
                // early exit or not.
                block.comparisons += km;
                // Normalize per point so short tail blocks compare
                // fairly against full-size ones: the candidate wins
                // iff diff * best_km < best_diff * km. A partial sum
                // only grows, so once it reaches that bound the
                // candidate cannot win and scoring stops; the argmin
                // and its tie order are those of the full scan.
                const std::uint64_t bound = best_diff * km;
                std::uint64_t diff = 0;
                bool beaten = false;
                for (std::size_t lo = 0; lo < km; lo += kExitStride) {
                    diff += blockDiffSquared(
                        p_sorted, p_begin, i_reference, i_begin, lo,
                        std::min(km, lo + kExitStride));
                    if (have_best && diff * best_km >= bound) {
                        beaten = true;
                        break;
                    }
                }
                if (!beaten) {
                    best_diff = diff;
                    best = static_cast<std::uint32_t>(c);
                    best_km = km;
                    have_best = true;
                }
            }
            if (!have_best)
                best_diff = ~std::uint64_t{0} / 2;
            best_offset[pb] = best;
            const double per_point =
                static_cast<double>(best_diff) /
                static_cast<double>(best_km);
            if (per_point <= config.reuse_threshold) {
                reuse_flag[pb] = 1;
                block.reused_blocks = 1;
                block.reused_points = kp;
            } else {
                block.delta_points = kp;
            }
            return block;
        };
        const std::size_t groups =
            (p_blocks + kMatchGroupBlocks - 1) / kMatchGroupBlocks;
        std::vector<MatchTally> group_tally(groups);
        parallelForClaimed(groups, [&](std::size_t g) {
            const std::size_t lo = g * kMatchGroupBlocks;
            const std::size_t hi =
                std::min(p_blocks, lo + kMatchGroupBlocks);
            MatchTally sum;
            for (std::size_t pb = lo; pb < hi; ++pb)
                sum = sum + match_block(pb);
            group_tally[g] = sum;
        });
        for (const MatchTally &group : group_tally)
            tally = tally + group;
        result.stats.reused_blocks = tally.reused_blocks;
        result.stats.delta_points = tally.delta_points;
        const std::uint64_t total_comparisons = tally.comparisons;

        recordKernel(
            recorder,
            KernelWork{.name = "bm.diff_squared",
                       .resource = ExecResource::kGpu,
                       // All block pairs are scored by one batched
                       // kernel launch on device.
                       .invocations = 1,
                       .items = total_comparisons,
                       .ops = total_comparisons * 9,
                       .bytes = total_comparisons * 6});
        recordKernel(
            recorder,
            KernelWork{.name = "bm.squared_sum",
                       .resource = ExecResource::kGpu,
                       .invocations = 1,
                       .items = total_comparisons,
                       .ops = total_comparisons,
                       .bytes = total_comparisons * 8});
        recordKernel(
            recorder,
            KernelWork{.name = "bm.argmin",
                       .resource = ExecResource::kGpu,
                       .invocations = 1,
                       .items = p_blocks * config.candidate_window,
                       .ops = p_blocks * config.candidate_window * 2,
                       .bytes = p_blocks * config.candidate_window *
                                8});
    }

    // Delta extraction for non-reused blocks.
    AttrChannels deltas;
    {
        TracedStage stage(recorder, "inter.delta");
        for (auto &channel : deltas)
            channel.reserve(result.stats.delta_points);
        for (std::size_t pb = 0; pb < p_blocks; ++pb) {
            if (reuse_flag[pb])
                continue;
            const std::size_t p_begin = p_layout.begin(
                static_cast<std::uint32_t>(pb));
            const std::size_t p_end = p_layout.end(
                static_cast<std::uint32_t>(pb), np);
            const Window window = candidateWindow(
                pb, p_blocks, i_blocks, config.candidate_window);
            const std::size_t ib = window.start + best_offset[pb];
            const std::size_t i_begin = ib * k;
            const std::size_t i_last =
                std::min(ni, i_begin + k) - 1;
            for (std::size_t j = 0; j < p_end - p_begin; ++j) {
                const std::size_t src =
                    std::min(i_begin + j, i_last);
                deltas[0].push_back(
                    static_cast<std::int32_t>(
                        p_sorted.r()[p_begin + j]) -
                    static_cast<std::int32_t>(
                        i_reference.r()[src]));
                deltas[1].push_back(
                    static_cast<std::int32_t>(
                        p_sorted.g()[p_begin + j]) -
                    static_cast<std::int32_t>(
                        i_reference.g()[src]));
                deltas[2].push_back(
                    static_cast<std::int32_t>(
                        p_sorted.b()[p_begin + j]) -
                    static_cast<std::int32_t>(
                        i_reference.b()[src]));
            }
        }
        // Address generation: every delta point's output slot comes
        // from a prefix sum over block sizes (Fig. 9's 32% stage).
        recordKernel(
            recorder,
            KernelWork{.name = "bm.address_gen",
                       .resource = ExecResource::kGpu,
                       .invocations = 2,
                       .items = p_blocks + result.stats.delta_points,
                       .ops = p_blocks * 8 +
                              result.stats.delta_points * 4,
                       .bytes = result.stats.delta_points * 12 +
                                p_blocks * 8});
        recordKernel(recorder,
                     KernelWork{.name = "bm.reuse_copy",
                                .resource = ExecResource::kGpu,
                                .invocations = 1,
                                .items = tally.reused_points,
                                .ops = tally.reused_points * 2,
                                .bytes = tally.reused_points * 6});
    }

    // Encode the deltas as "new attributes" (paper Sec. VI-B).
    std::vector<std::uint8_t> delta_payload;
    if (result.stats.delta_points > 0) {
        auto encoded =
            encodeSegmentAttr(deltas, config.delta_codec, recorder);
        if (!encoded)
            return encoded.status();
        delta_payload = encoded.takeValue();
    }

    // Assemble the stream.
    TracedStage stage(recorder, "inter.assemble");
    BitWriter writer;
    writer.writeBits(static_cast<std::uint8_t>(kMagic[0]), 8);
    writer.writeBits(static_cast<std::uint8_t>(kMagic[1]), 8);
    writer.writeBits(static_cast<std::uint8_t>(kMagic[2]), 8);
    writer.writeVarint(np);
    writer.writeVarint(p_blocks);
    writer.writeVarint(k);
    writer.writeVarint(config.candidate_window);
    const int ptr_bits =
        std::max(1, bitWidth(config.candidate_window - 1));
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        writer.writeBits(reuse_flag[pb], 1);
        writer.writeBits(best_offset[pb], ptr_bits);
    }
    writer.writeVarint(delta_payload.size());
    writer.writeBytes(delta_payload.data(), delta_payload.size());
    result.payload = writer.take();
    return result;
}

Status
decodeInterAttrInto(const std::vector<std::uint8_t> &payload,
                    const VoxelCloud &i_reference,
                    VoxelCloud &p_cloud, WorkRecorder *recorder)
{
    const std::size_t np = p_cloud.size();
    const std::size_t ni = i_reference.size();
    if (np == 0 || ni == 0)
        return invalidArgument("decodeInterAttrInto: empty cloud");

    BitReader reader(payload);
    if (reader.readBits(8) != 'I' || reader.readBits(8) != 'N' ||
        reader.readBits(8) != 'T') {
        return corruptBitstream("inter payload: bad magic");
    }
    const std::size_t n_stored =
        static_cast<std::size_t>(reader.readVarint());
    const std::size_t p_blocks =
        static_cast<std::size_t>(reader.readVarint());
    const std::size_t k =
        static_cast<std::size_t>(reader.readVarint());
    const std::size_t window_size =
        static_cast<std::size_t>(reader.readVarint());
    if (reader.overrun() || p_blocks == 0 || k == 0 ||
        window_size == 0)
        return corruptBitstream("inter payload: bad header");
    if (n_stored != np)
        return corruptBitstream(
            "inter payload: point count mismatch with geometry");

    const std::size_t i_blocks = (ni + k - 1) / k;
    const int ptr_bits = std::max(
        1, bitWidth(static_cast<std::uint64_t>(window_size) - 1));

    std::vector<std::uint8_t> reuse_flag(p_blocks);
    std::vector<std::uint32_t> best_offset(p_blocks);
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        reuse_flag[pb] =
            static_cast<std::uint8_t>(reader.readBits(1));
        best_offset[pb] =
            static_cast<std::uint32_t>(reader.readBits(ptr_bits));
    }
    const std::size_t delta_size =
        static_cast<std::size_t>(reader.readVarint());
    reader.alignToByte();
    if (reader.overrun() ||
        reader.byteOffset() + delta_size > payload.size())
        return corruptBitstream("inter payload: truncated");

    AttrChannels deltas;
    if (delta_size > 0) {
        std::vector<std::uint8_t> delta_payload(
            payload.begin() +
                static_cast<std::ptrdiff_t>(reader.byteOffset()),
            payload.begin() +
                static_cast<std::ptrdiff_t>(reader.byteOffset() +
                                            delta_size));
        auto decoded = decodeSegmentAttr(delta_payload, recorder);
        if (!decoded)
            return decoded.status();
        deltas = decoded.takeValue();
    }

    TracedStage stage(recorder, "interdec.reconstruct");
    std::size_t delta_cursor = 0;
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        const std::size_t p_begin = pb * k;
        const std::size_t p_end = std::min(np, p_begin + k);
        if (p_begin >= np)
            return corruptBitstream(
                "inter payload: block out of range");
        const Window window = candidateWindow(
            pb, p_blocks, i_blocks, window_size);
        const std::size_t ib = window.start + best_offset[pb];
        if (ib >= i_blocks)
            return corruptBitstream(
                "inter payload: match pointer out of range");
        const std::size_t i_begin = ib * k;
        const std::size_t i_last = std::min(ni, i_begin + k) - 1;
        for (std::size_t j = 0; j < p_end - p_begin; ++j) {
            const std::size_t src = std::min(i_begin + j, i_last);
            std::int32_t r = i_reference.r()[src];
            std::int32_t g = i_reference.g()[src];
            std::int32_t b = i_reference.b()[src];
            if (!reuse_flag[pb]) {
                if (delta_cursor >= deltas[0].size())
                    return corruptBitstream(
                        "inter payload: delta stream exhausted");
                r += deltas[0][delta_cursor];
                g += deltas[1][delta_cursor];
                b += deltas[2][delta_cursor];
                ++delta_cursor;
            }
            p_cloud.mutableR()[p_begin + j] =
                static_cast<std::uint8_t>(std::clamp(r, 0, 255));
            p_cloud.mutableG()[p_begin + j] =
                static_cast<std::uint8_t>(std::clamp(g, 0, 255));
            p_cloud.mutableB()[p_begin + j] =
                static_cast<std::uint8_t>(std::clamp(b, 0, 255));
        }
    }
    recordKernel(recorder,
                 KernelWork{.name = "interdec.reconstruct",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = np,
                            .ops = np * 8,
                            .bytes = np * 12});
    return Status::ok();
}

void
concealAttrFromReference(const VoxelCloud &reference,
                         VoxelCloud &cloud)
{
    const std::size_t n = cloud.size();
    if (reference.empty()) {
        for (std::size_t i = 0; i < n; ++i)
            cloud.setColor(i, Color{128, 128, 128});
        return;
    }
    // Both clouds are Morton-sorted, so the nearest voxel *in sorted
    // order* is spatially close with high probability — the same
    // locality the block matcher's candidate window exploits. Binary
    // search per point keeps this O(n log m) with no scratch state.
    std::vector<std::uint64_t> ref_codes(reference.size());
    mortonEncodeBatch(reference.x().data(), reference.y().data(),
                      reference.z().data(), reference.size(),
                      ref_codes.data());
    std::vector<std::uint64_t> codes(n);
    mortonEncodeBatch(cloud.x().data(), cloud.y().data(),
                      cloud.z().data(), n, codes.data());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t code = codes[i];
        const auto it = std::lower_bound(ref_codes.begin(),
                                         ref_codes.end(), code);
        std::size_t best =
            it == ref_codes.end()
                ? ref_codes.size() - 1
                : static_cast<std::size_t>(it -
                                           ref_codes.begin());
        if (best > 0 && (it == ref_codes.end() ||
                         code - ref_codes[best - 1] <
                             ref_codes[best] - code))
            --best;
        cloud.setColor(i, reference.color(best));
    }
}

}  // namespace edgepcc
