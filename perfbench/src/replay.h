/**
 * @file
 * Traced replays: one frame pushed again through the public layer
 * calls the codec and the chunked transport make, each call in its
 * own span. The replay checks itself against the real call it
 * mirrors (payload sizes, decoded digests, byte-equal reassembly).
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <cstdint>
#include <vector>

#include "edgepcc/core/video_codec.h"
#include "edgepcc/platform/arena.h"
#include "harness.h"

namespace perfbench {

/** Decoder-side state the replay carries from frame to frame. */
struct ReplayState {
    /** Reconstruction of the last I frame, as the replayed decode
     *  produced it (the P-frame decode reference). */
    edgepcc::VoxelCloud decoder_reference{10};
    bool has_reference = false;
    /** Scratch bound around every replayed call, as the codec binds
     *  its own arena around encode and decode. */
    edgepcc::FrameArena arena;
};

/** One real encode + decode, as the replay must reproduce it. */
struct CodecCall {
    const edgepcc::VoxelCloud *frame = nullptr;
    const edgepcc::CodecConfig *config = nullptr;
    const edgepcc::FrameStats *stats = nullptr;
    /** Encoder reference from VideoEncoder::snapshotState() taken
     *  just before a P-frame encode; unused for I frames. */
    const edgepcc::VoxelCloud *encoder_reference = nullptr;
    /** digestCloud() of the real decode's output. */
    std::uint64_t decoded_digest = 0;
};

/**
 * Replays the layer calls of one encode + decode under `parent`:
 * computeMortonOrder, the radix sort and the octree build as sibling
 * calls on the encoder's normalized input, then encodeGeometry,
 * encodeSegmentAttr (I) or encodeInterAttr (P), decodeGeometry and
 * decodeSegmentAttr / decodeInterAttrInto. Mismatches with the real
 * call go to `result` as check failures.
 */
void replayCodec(const CodecCall &call, ReplayState &state,
                 SpanLog &log, int parent, std::uint32_t frame,
                 Result &result);

/** Chunked-transport settings of the stream replay. */
inline constexpr std::size_t kReplayMtu = 1200;
inline constexpr int kReplayGroup = 8;   ///< RS data chunks (k)
inline constexpr int kReplayParity = 2;  ///< RS parity rows (m)

/**
 * Replays one frame's bitstream through the transport: slice into
 * MTU views, build RS parity, serialize, drop m chunks per group
 * (chosen by `seed`), scan the wire, recover, reassemble. Returns
 * true when the reassembled payload equals `bitstream` byte for
 * byte. `corrupt` flips one payload byte after the parity is built,
 * which the check must catch.
 */
bool replayStream(const std::vector<std::uint8_t> &bitstream,
                  edgepcc::Frame::Type type, std::uint64_t seed,
                  bool corrupt, SpanLog &log, int parent,
                  std::uint32_t frame);

/** What replaySequence measured, accumulated over calls. */
struct SequenceTotals {
    std::vector<double> encode_ms;
    std::vector<double> decode_ms;
    /** Heap allocations of each frame's encode + decode. */
    std::vector<double> allocs;
    /** Device-model encode time of each frame. */
    std::vector<double> model_ms;
    std::uint64_t reused_blocks = 0;
    std::uint64_t matched_blocks = 0;
    /** Sum over frames of encode + decode + transport replay, ms. */
    double codec_and_transport_ms = 0.0;
};

/**
 * Encodes and decodes `frames` in order with a fresh VideoEncoder
 * and VideoDecoder of `config` (core.encode / core.decode spans),
 * replays every frame's layer calls, and with `transport` also its
 * chunked-transport replay. Frame ids are taken from `*next_id`.
 * This is how the stream and serve workloads, whose codec calls run
 * inside the library, get their per-layer times.
 */
void replaySequence(const std::vector<edgepcc::VoxelCloud> &frames,
                    const edgepcc::CodecConfig &config, bool transport,
                    std::uint64_t seed, bool corrupt,
                    std::uint32_t *next_id, SpanLog &log, Result &result,
                    SequenceTotals &totals);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H
