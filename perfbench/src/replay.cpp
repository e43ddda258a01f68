#include "replay.h"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <random>
#include <string>

#include "edgepcc/attr/segment_codec.h"
#include "edgepcc/interframe/block_matcher.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/morton/morton_order.h"
#include "edgepcc/octree/geometry_codec.h"
#include "edgepcc/octree/parallel_builder.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/parallel/radix_sort.h"
#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/rs_fec.h"

namespace perfbench {

using namespace edgepcc;

namespace {

/** Runs `body` inside a span named `name` under `parent`. */
template <typename Body>
auto
inSpan(SpanLog &log, const char *name, int parent, std::uint32_t frame,
       Body &&body)
{
    const int span = log.open(name, parent, frame);
    auto out = body();
    log.close(span);
    return out;
}

/**
 * The encoder's normalized geometry input: with the parallel builder
 * and a tight bounding box, coordinates shifted by the box minimum
 * and the tree depth shrunk to the largest extent (mirrors the
 * normalization at the top of encodeGeometry).
 */
VoxelCloud
normalizedInput(const VoxelCloud &cloud, const GeometryConfig &config,
                int *depth)
{
    *depth = cloud.gridBits();
    if (config.builder != GeometryConfig::Builder::kParallelMorton ||
        !config.tight_bbox)
        return cloud;
    std::uint16_t lo[3] = {0xffff, 0xffff, 0xffff};
    std::uint16_t hi[3] = {0, 0, 0};
    const std::vector<std::uint16_t> *axes[3] = {&cloud.x(), &cloud.y(),
                                                 &cloud.z()};
    for (int a = 0; a < 3; ++a) {
        for (std::uint16_t v : *axes[a]) {
            lo[a] = std::min(lo[a], v);
            hi[a] = std::max(hi[a], v);
        }
    }
    std::uint32_t max_extent = 0;
    for (int a = 0; a < 3; ++a)
        max_extent = std::max<std::uint32_t>(max_extent, hi[a] - lo[a]);
    *depth = std::max(1, static_cast<int>(std::bit_width(max_extent)));
    VoxelCloud working = cloud;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        working.mutableX()[i] =
            static_cast<std::uint16_t>(cloud.x()[i] - lo[0]);
        working.mutableY()[i] =
            static_cast<std::uint16_t>(cloud.y()[i] - lo[1]);
        working.mutableZ()[i] =
            static_cast<std::uint16_t>(cloud.z()[i] - lo[2]);
    }
    return working;
}

AttrChannels
colorsToChannels(const VoxelCloud &cloud)
{
    AttrChannels channels;
    channels[0].assign(cloud.r().begin(), cloud.r().end());
    channels[1].assign(cloud.g().begin(), cloud.g().end());
    channels[2].assign(cloud.b().begin(), cloud.b().end());
    return channels;
}

void
channelsToColors(const AttrChannels &channels, VoxelCloud &cloud)
{
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        cloud.mutableR()[i] = static_cast<std::uint8_t>(
            std::clamp(channels[0][i], 0, 255));
        cloud.mutableG()[i] = static_cast<std::uint8_t>(
            std::clamp(channels[1][i], 0, 255));
        cloud.mutableB()[i] = static_cast<std::uint8_t>(
            std::clamp(channels[2][i], 0, 255));
    }
}

/** Geometry-side sibling calls: Morton order, the radix sort on the
 *  same codes, and the octree build over the unique codes. */
void
replayGeometryStages(const VoxelCloud &frame, const GeometryConfig &config,
                     SpanLog &log, int parent, std::uint32_t id,
                     Result &result)
{
    int depth = 0;
    const VoxelCloud working = normalizedInput(frame, config, &depth);
    const MortonOrder order = inSpan(log, "morton.order", parent, id, [&] {
        return computeMortonOrder(working);
    });

    const std::size_t n = working.size();
    std::vector<std::uint64_t> codes(n);
    std::vector<std::uint32_t> perm(n);
    mortonEncodeBatch(working.x().data(), working.y().data(),
                      working.z().data(), n, codes.data());
    std::iota(perm.begin(), perm.end(), 0u);
    inSpan(log, "parallel.radix_sort", parent, id, [&] {
        radixSortKeysValues(codes.data(), perm.data(), n,
                            3 * working.gridBits());
        return 0;
    });
    result.check(codes == order.codes,
                 "radix sort replay disagrees with computeMortonOrder");

    std::vector<std::uint64_t> unique_codes = order.codes;
    unique_codes.erase(
        std::unique(unique_codes.begin(), unique_codes.end()),
        unique_codes.end());
    const std::size_t nodes = inSpan(log, "octree.build", parent, id, [&] {
        auto tree = buildParallelOctree(unique_codes, depth);
        return tree ? occupancyFromFlatOctree(*tree).size() : 0;
    });
    result.check(nodes > 0, "octree build replay failed");
}

}  // namespace

void
replayCodec(const CodecCall &call, ReplayState &state, SpanLog &log,
            int parent, std::uint32_t id, Result &result)
{
    const CodecConfig &config = *call.config;
    const bool p_frame =
        call.stats->type == Frame::Type::kPredicted;

    // ----- Encode side, in the order VideoEncoder::encode calls.
    state.arena.reset();
    std::vector<std::uint8_t> geometry_payload;
    std::vector<std::uint8_t> attr_payload;
    {
        ScopedFrameArena bind(&state.arena);
        replayGeometryStages(*call.frame, config.geometry, log, parent,
                             id, result);
        auto geometry =
            inSpan(log, "octree.geometry_encode", parent, id, [&] {
                return encodeGeometry(*call.frame, config.geometry);
            });
        if (!geometry) {
            result.check(false, "replayed encodeGeometry failed: " +
                                    geometry.status().toString());
            return;
        }
        geometry_payload = std::move(geometry->payload);
        if (p_frame) {
            auto inter =
                inSpan(log, "interframe.match_encode", parent, id, [&] {
                    return encodeInterAttr(geometry->sorted_cloud,
                                           *call.encoder_reference,
                                           config.block_match);
                });
            if (inter)
                attr_payload = std::move(inter->payload);
        } else {
            const AttrChannels channels =
                colorsToChannels(geometry->sorted_cloud);
            auto seg =
                inSpan(log, "attr.segment_encode", parent, id, [&] {
                    return encodeSegmentAttr(channels, config.segment);
                });
            if (seg)
                attr_payload = seg.takeValue();
        }
    }
    result.check(geometry_payload.size() == call.stats->geometry_bytes,
                 "replayed geometry payload size differs from "
                 "FrameStats::geometry_bytes");
    result.check(attr_payload.size() == call.stats->attr_bytes,
                 "replayed attribute payload size differs from "
                 "FrameStats::attr_bytes");

    // ----- Decode side, in the order VideoDecoder::decode calls.
    state.arena.reset();
    ScopedFrameArena bind(&state.arena);
    auto cloud = inSpan(log, "octree.geometry_decode", parent, id,
                        [&] { return decodeGeometry(geometry_payload); });
    if (!cloud) {
        result.check(false, "replayed decodeGeometry failed: " +
                                cloud.status().toString());
        return;
    }
    if (p_frame) {
        const Status status =
            inSpan(log, "interframe.decode", parent, id, [&] {
                return state.has_reference
                           ? decodeInterAttrInto(attr_payload,
                                                 state.decoder_reference,
                                                 *cloud)
                           : corruptBitstream("no replayed I frame");
            });
        result.check(status.isOk(), "replayed decodeInterAttrInto "
                                    "failed: " + status.toString());
    } else {
        auto channels = inSpan(log, "attr.segment_decode", parent, id,
                               [&] { return decodeSegmentAttr(attr_payload); });
        if (channels && (*channels)[0].size() == cloud->size()) {
            channelsToColors(*channels, *cloud);
            state.decoder_reference = *cloud;
            state.has_reference = true;
        } else {
            result.check(false, "replayed decodeSegmentAttr failed");
        }
    }
    result.check(digestCloud(*cloud) == call.decoded_digest,
                 "replayed decode output differs from "
                 "VideoDecoder::decode");
}

bool
replayStream(const std::vector<std::uint8_t> &bitstream,
             Frame::Type type, std::uint64_t seed, bool corrupt,
             SpanLog &log, int parent, std::uint32_t id)
{
    // A corrupted replay sends a damaged copy; views alias `sent`.
    std::vector<std::uint8_t> damaged;
    if (corrupt)
        damaged = bitstream;
    const std::vector<std::uint8_t> &sent = corrupt ? damaged : bitstream;

    ChunkHeader base;
    base.frame_id = id;
    base.frame_type = type;
    const auto flags =
        static_cast<std::uint8_t>(kChunkFlagFec | kChunkFlagRsFec);

    // Slice into MTU views and assign RS groups of k data chunks.
    std::vector<ChunkView> slices;
    std::vector<std::size_t> group_begin;
    inSpan(log, "stream.slice", parent, id, [&] {
        slices = sliceFramePayloadViews(base, ByteSpan(sent), kReplayMtu);
        for (std::size_t b = 0; b < slices.size(); b += kReplayGroup) {
            const std::size_t e =
                std::min(b + kReplayGroup, slices.size());
            for (std::size_t i = b; i < e; ++i) {
                ChunkHeader &h = slices[i].header;
                h.flags |= flags;
                h.fec_group = static_cast<std::uint16_t>(group_begin.size());
                h.fec_seq = static_cast<std::uint8_t>(i - b);
                h.fec_group_size = static_cast<std::uint8_t>(e - b);
            }
            group_begin.push_back(b);
        }
        return 0;
    });
    const std::size_t groups = group_begin.size();
    const auto groupEnd = [&](std::size_t g) {
        return std::min(group_begin[g] + kReplayGroup, slices.size());
    };

    std::vector<std::vector<std::uint8_t>> parity(groups * kReplayParity);
    inSpan(log, "stream.parity", parent, id, [&] {
        for (std::size_t g = 0; g < groups; ++g) {
            const std::vector<ChunkView> group(
                slices.begin() + static_cast<std::ptrdiff_t>(group_begin[g]),
                slices.begin() + static_cast<std::ptrdiff_t>(groupEnd(g)));
            for (int row = 0; row < kReplayParity; ++row)
                buildRsParityInto(group, row,
                                  parity[g * kReplayParity +
                                         static_cast<std::size_t>(row)]);
        }
        return 0;
    });

    // The channel: m data chunks of every group are lost.
    std::mt19937_64 rng(seed ^ (0x9e3779b97f4a7c15ull * (id + 1)));
    std::vector<bool> dropped(slices.size(), false);
    for (std::size_t g = 0; g < groups; ++g) {
        std::vector<std::size_t> members(groupEnd(g) - group_begin[g]);
        std::iota(members.begin(), members.end(), group_begin[g]);
        std::shuffle(members.begin(), members.end(), rng);
        const std::size_t losses =
            std::min<std::size_t>(kReplayParity, members.size());
        for (std::size_t k = 0; k < losses; ++k)
            dropped[members[k]] = true;
    }
    if (corrupt) {
        const auto kept = std::find(dropped.begin(), dropped.end(), false);
        const std::size_t slice =
            static_cast<std::size_t>(kept - dropped.begin());
        if (slice < slices.size())
            damaged[slice * kReplayMtu] ^= 0x5a;
    }

    std::vector<std::uint8_t> wire;
    inSpan(log, "stream.serialize", parent, id, [&] {
        std::vector<std::uint8_t> chunk;
        for (std::size_t g = 0; g < groups; ++g) {
            for (std::size_t i = group_begin[g]; i < groupEnd(g); ++i) {
                serializeChunkInto(slices[i].header, slices[i].payload,
                                   chunk);
                if (!dropped[i])
                    wire.insert(wire.end(), chunk.begin(), chunk.end());
            }
            ChunkHeader header = base;
            header.flags =
                static_cast<std::uint8_t>(kChunkFlagParity | flags);
            header.fec_group = static_cast<std::uint16_t>(g);
            header.fec_group_size =
                static_cast<std::uint8_t>(groupEnd(g) - group_begin[g]);
            for (int row = 0; row < kReplayParity; ++row) {
                header.fec_seq = rsParitySeq(row);
                serializeChunkInto(
                    header,
                    ByteSpan(parity[g * kReplayParity +
                                    static_cast<std::size_t>(row)]),
                    chunk);
                wire.insert(wire.end(), chunk.begin(), chunk.end());
            }
        }
        return 0;
    });

    std::vector<ParsedChunk> chunks = inSpan(
        log, "stream.scan", parent, id, [&] { return scanWire(wire); });

    std::vector<std::map<std::uint8_t, ParsedChunk>> data(groups);
    const bool recovered = inSpan(log, "stream.recover", parent, id, [&] {
        std::vector<std::map<int, std::vector<std::uint8_t>>> rows(groups);
        for (ParsedChunk &chunk : chunks) {
            const std::size_t g = chunk.header.fec_group;
            if (g >= groups)
                continue;
            if (chunk.header.isParity())
                rows[g][rsParityRow(chunk.header.fec_seq)] =
                    std::move(chunk.payload);
            else
                data[g].emplace(chunk.header.fec_seq, std::move(chunk));
        }
        bool all = true;
        for (std::size_t g = 0; g < groups; ++g) {
            const int k = static_cast<int>(groupEnd(g) - group_begin[g]);
            if (data[g].size() == static_cast<std::size_t>(k))
                continue;
            auto rebuilt = recoverRsChunks(k, data[g], rows[g]);
            if (!rebuilt) {
                all = false;
                continue;
            }
            for (ParsedChunk &chunk : *rebuilt)
                data[g].emplace(chunk.header.fec_seq, std::move(chunk));
        }
        return all;
    });

    std::vector<std::uint8_t> assembled = inSpan(
        log, "stream.assemble", parent, id, [&] {
            std::vector<const std::vector<std::uint8_t> *> parts(
                slices.size(), nullptr);
            for (const auto &group : data) {
                for (const auto &[seq, chunk] : group) {
                    if (chunk.header.slice_index < parts.size())
                        parts[chunk.header.slice_index] = &chunk.payload;
                }
            }
            const bool complete =
                std::find(parts.begin(), parts.end(), nullptr) ==
                parts.end();
            return complete ? assembleSlices(parts)
                            : std::vector<std::uint8_t>{};
        });
    return recovered && assembled == bitstream;
}

void
replaySequence(const std::vector<VoxelCloud> &frames,
               const CodecConfig &config, bool transport,
               std::uint64_t seed, bool corrupt, std::uint32_t *next_id,
               SpanLog &log, Result &result, SequenceTotals &totals)
{
    VideoEncoder encoder(config);
    VideoDecoder decoder;
    ReplayState state;
    const EdgeDeviceModel model;
    for (const VoxelCloud &frame : frames) {
        const std::uint32_t id = (*next_id)++;
        const VideoEncoder::StateSnapshot snapshot = encoder.snapshotState();
        const std::uint64_t a0 = heapAllocations();
        const double t0 = nowMs();
        auto encoded = encoder.encode(frame);
        const double t1 = nowMs();
        auto decoded = encoded ? decoder.decode(encoded->bitstream)
                               : Expected<DecodedFrame>(encoded.status());
        const double t2 = nowMs();
        const std::uint64_t a1 = heapAllocations();
        if (!encoded || !decoded) {
            result.check(false, "replayed sequence frame " +
                                    std::to_string(id) + ": " +
                                    decoded.status().toString());
            return;
        }
        const int root = log.add("frame", t0, t2, -1, id);
        log.add("core.encode", t0, t1, root, id);
        log.add("core.decode", t1, t2, root, id);
        totals.encode_ms.push_back(t1 - t0);
        totals.decode_ms.push_back(t2 - t1);
        totals.allocs.push_back(static_cast<double>(a1 - a0));
        totals.model_ms.push_back(
            model.evaluate(encoded->profile).modelSeconds() * 1e3);
        if (encoded->stats.type == Frame::Type::kPredicted) {
            totals.reused_blocks += encoded->stats.block_match.reused_blocks;
            totals.matched_blocks += encoded->stats.block_match.num_blocks;
        }
        totals.codec_and_transport_ms += t2 - t0;

        CodecCall call;
        call.frame = &frame;
        call.config = &config;
        call.stats = &encoded->stats;
        call.encoder_reference = &snapshot.reference;
        call.decoded_digest = digestCloud(decoded->cloud);
        const int replay_root = log.open("replay", -1, id);
        replayCodec(call, state, log, replay_root, id, result);
        if (transport) {
            const std::size_t first = log.spans().size();
            const bool equal =
                replayStream(encoded->bitstream, encoded->stats.type, seed,
                             corrupt && &frame == &frames.front(), log,
                             replay_root, id);
            result.check(equal, "transport replay of frame " +
                                    std::to_string(id) +
                                    ": reassembled payload differs from "
                                    "the bitstream");
            for (std::size_t i = first; i < log.spans().size(); ++i)
                totals.codec_and_transport_ms += log.spans()[i].durMs();
        }
        log.close(replay_root);
    }
}

}  // namespace perfbench
