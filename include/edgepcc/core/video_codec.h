/**
 * @file
 * Stateful frame-by-frame video encoder/decoder (the library's main
 * public API).
 *
 * Frames are fed in capture order; the encoder applies the
 * configured GOP pattern (IPP in the paper), keeps the reconstructed
 * I frame as the inter-prediction reference, and emits one
 * self-contained bitstream per frame. Every encode/decode call also
 * returns the recorded PipelineProfile so callers can run the edge
 * device model over it.
 */

#ifndef EDGEPCC_CORE_VIDEO_CODEC_H
#define EDGEPCC_CORE_VIDEO_CODEC_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/geometry/point_cloud.h"
#include "edgepcc/platform/arena.h"

namespace edgepcc {

/** Per-frame encoder statistics. */
struct FrameStats {
    Frame::Type type = Frame::Type::kIntra;
    std::size_t num_input_points = 0;
    std::size_t num_voxels = 0;
    std::uint64_t raw_bytes = 0;       ///< 15 B/point accounting
    std::uint64_t geometry_bytes = 0;
    std::uint64_t attr_bytes = 0;
    std::uint64_t total_bytes = 0;     ///< full container size
    BlockMatchStats block_match{};     ///< valid for kBlockMatch P
    MacroBlockStats macro_block{};     ///< valid for kMacroBlock P

    double
    compressionRatio() const
    {
        return total_bytes == 0
                   ? 0.0
                   : static_cast<double>(raw_bytes) /
                         static_cast<double>(total_bytes);
    }
};

/** One encoded frame. */
struct EncodedFrame {
    std::vector<std::uint8_t> bitstream;
    FrameStats stats;
    PipelineProfile profile;
};

/** One decoded frame. */
struct DecodedFrame {
    VoxelCloud cloud{10};
    Frame::Type type = Frame::Type::kIntra;
    PipelineProfile profile;
};

/** Frame-by-frame encoder. */
class VideoEncoder
{
  public:
    explicit VideoEncoder(CodecConfig config);

    const CodecConfig &config() const { return config_; }

    /**
     * Encodes the next frame of the stream. Frame type follows the
     * GOP pattern; inter coding silently falls back to intra when
     * no reference exists yet.
     */
    Expected<EncodedFrame> encode(const VoxelCloud &cloud);

    /** Restarts the GOP (next frame is an I frame). */
    void reset();

    /**
     * Forces the next frame to be an I frame and restarts the GOP
     * phase there. Loss-recovery hook: re-anchors the stream after
     * the receiver reports an unrecoverable reference loss.
     */
    void forceKeyframe();

    /**
     * Changes the GOP length from the next GOP boundary on (values
     * < 1 are clamped to 1). Used by adaptive keyframe insertion to
     * shorten GOPs under sustained channel loss.
     */
    void setGopSize(int gop_size);

    /**
     * Replaces the coding configuration without resetting the GOP
     * phase or the prediction reference. The overload ladder swaps
     * degraded configurations mid-stream with this; callers that
     * change the voxel grid must also forceKeyframe() so the next
     * reference matches the new grid.
     */
    void updateCoding(const CodecConfig &config);

    /**
     * Snapshot of the complete mutable encoder state: coding
     * configuration, GOP phase and the inter-prediction reference.
     * Two encoders with equal snapshots produce byte-identical
     * bitstreams for equal inputs. The serve-layer reference cache
     * stores the post-encode snapshot next to each cached frame so a
     * follower stream can adopt the frame, restore the state, and
     * keep encoding exactly as if it had done the work itself.
     */
    struct StateSnapshot {
        CodecConfig config;
        std::uint32_t frame_counter = 0;
        VoxelCloud reference{10};
        bool has_reference = false;
    };

    StateSnapshot snapshotState() const;
    void restoreState(const StateSnapshot &state);

  private:
    Expected<EncodedFrame> encodeImpl(const VoxelCloud &cloud);

    CodecConfig config_;
    std::uint32_t frame_counter_ = 0;
    VoxelCloud reference_{10};
    bool has_reference_ = false;
    /** Per-frame kernel scratch; reset (blocks retained) at the
     *  start of every encode, bound thread-locally for the call.
     *  Deliberately absent from StateSnapshot: scratch carries no
     *  coding state, so byte-identity across snapshot/restore is
     *  unaffected. */
    FrameArena arena_;
};

/** Frame-by-frame decoder (mirrors VideoEncoder's state machine). */
class VideoDecoder
{
  public:
    VideoDecoder() = default;

    Expected<DecodedFrame> decode(
        const std::vector<std::uint8_t> &bitstream);

    /**
     * Degraded decode for loss resilience: always reconstructs the
     * frame's (self-contained) geometry; intra attribute payloads
     * decode normally, while inter payloads — whose I-frame
     * reference may be lost or stale — are *concealed* by borrowing
     * colors from `conceal_source` (typically the last good decoded
     * frame; pass nullptr for neutral gray). Never touches the
     * decoder's reference state on the concealed path, so a later
     * intact I frame resynchronizes cleanly. `attr_concealed` (may
     * be null) reports whether concealment was applied.
     */
    Expected<DecodedFrame> decodePromoted(
        const std::vector<std::uint8_t> &bitstream,
        const VoxelCloud *conceal_source,
        bool *attr_concealed = nullptr);

    /** True once an intra frame has been decoded (P frames are
     *  decodable against it). */
    bool hasReference() const { return has_reference_; }

    void reset();

  private:
    Expected<DecodedFrame> decodeImpl(
        const std::vector<std::uint8_t> &bitstream);
    Expected<DecodedFrame> decodePromotedImpl(
        const std::vector<std::uint8_t> &bitstream,
        const VoxelCloud *conceal_source, bool *attr_concealed);

    /** Upstream block size of the decoder's arena. Its scratch is
     *  the geometry decoder's octree levels, about 100 KiB for a
     *  30k-voxel frame: a 1 MiB block would hold mostly nothing. */
    static constexpr std::size_t kArenaBlockBytes = std::size_t{1} << 17;

    VoxelCloud reference_{10};
    bool has_reference_ = false;
    /** Per-frame kernel scratch (see VideoEncoder::arena_). */
    FrameArena arena_{kArenaBlockBytes};
};

}  // namespace edgepcc

#endif  // EDGEPCC_CORE_VIDEO_CODEC_H
