/**
 * @file
 * Loss-resilient streaming session over the chunked transport.
 *
 * Two layers:
 *
 *  - StreamReceiver: decoder-side resilience. Ingests (possibly
 *    damaged) wire bytes, reassembles chunks by frame id and slice
 *    index, reconstructs lost chunks per FEC group with the shared
 *    erasure decoder (one loss for XOR parity, up to m for
 *    Reed-Solomon), and runs a degradation ladder instead of
 *    aborting the stream:
 *      ok        - all slices intact, decoded normally
 *      resynced  - an intact I frame re-anchored the stream after
 *                  preceding damage
 *      concealed - frame degraded but presentable: a missing frame
 *                  frozen from the last good frame, or a P frame
 *                  whose I reference was lost decoded
 *                  geometry-promoted with borrowed attributes
 *      skipped   - nothing presentable (loss before any good frame)
 *
 *  - StreamSession: the closed loop. Encodes frames, splits each
 *    payload into MTU-sized slices, groups data chunks into
 *    (optionally interleaved) FEC groups with XOR or Reed-Solomon
 *    parity, ships everything through a fault-injection
 *    LossyChannel, answers receiver NACKs with bounded
 *    exponential-backoff retransmissions of the missing slices
 *    only, and feeds delivery outcomes either to
 *    AdaptiveGopController (sustained loss shortens the GOP, an
 *    unrecovered loss forces a keyframe) or, when enabled, to the
 *    RedundancyController that negotiates RS k/m, GOP length and
 *    bitrate together.
 *
 * Everything is deterministic given (codec config, session config,
 * input frames): the channel is seeded and no wall-clock time is
 * consulted (backoff latency is modelled, not slept).
 */

#ifndef EDGEPCC_STREAM_STREAM_SESSION_H
#define EDGEPCC_STREAM_STREAM_SESSION_H

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "edgepcc/common/retry.h"
#include "edgepcc/common/status.h"
#include "edgepcc/common/sync.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/lossy_channel.h"
#include "edgepcc/stream/overload_controller.h"
#include "edgepcc/stream/rate_controller.h"
#include "edgepcc/stream/redundancy_controller.h"

namespace edgepcc {

/** Per-frame result of the degradation ladder. Ignoring it hides
 *  concealed/skipped frames, so returns of this type must be read. */
enum class [[nodiscard]] FrameOutcome : std::uint8_t {
    kOk = 0,
    kResynced = 1,
    kConcealed = 2,
    kSkipped = 3,
};

const char *frameOutcomeName(FrameOutcome outcome);

/** One decoded (or degraded) frame out of the session. */
struct SessionFrame {
    std::uint32_t frame_id = 0;
    Frame::Type type = Frame::Type::kIntra;
    FrameOutcome outcome = FrameOutcome::kSkipped;
    /** Every slice arrived intact (after FEC + retransmissions). */
    bool delivered = false;
    /** Chunks resent for this frame (slice granularity). */
    int retransmits = 0;
    /** NACK round-trips spent on this frame. */
    int nack_rounds = 0;
    /** Encoded bitstream size (the frame payload). */
    std::uint64_t payload_bytes = 0;
    /** Bytes put on the wire for this frame: headers, slices,
     *  parity chunks and retransmissions included. */
    std::uint64_t wire_bytes = 0;
    /** Modelled retransmission backoff spent on this frame. */
    double backoff_s = 0.0;
    /** Encoder work profile (drives the edge device model). */
    PipelineProfile encode_profile;
    /** Decoder work profile; empty when nothing was decoded
     *  (frozen or skipped frames). */
    PipelineProfile decode_profile;
    /** Decoded or concealed output; empty when skipped. */
    VoxelCloud cloud{10};
};

/** Receiver-side FEC accounting. Groups from which no chunk at all
 *  arrived are invisible to the receiver and not counted. */
struct FecStats {
    std::size_t groups = 0;           ///< groups seen at all
    std::size_t parity_received = 0;  ///< intact parity chunks
    std::size_t recovered_chunks = 0; ///< data chunks rebuilt
    /** Groups missing exactly one chunk (data or parity). */
    std::size_t single_loss_groups = 0;
    /** Single-loss groups whose data is complete without any
     *  retransmission (parity reconstruction, or the parity itself
     *  was the lost chunk). */
    std::size_t single_loss_recovered = 0;
    /** Groups still missing data after recovery (NACK fallback). */
    std::size_t unrecovered_groups = 0;
    /** Reed-Solomon groups missing two or more data chunks. */
    std::size_t multi_loss_groups = 0;
    /** Multi-loss groups fully rebuilt from parity rows — losses
     *  that XOR parity (or NACK-free delivery) could never cover. */
    std::size_t multi_loss_recovered = 0;

    /** Fraction of single-loss groups needing no retransmission;
     *  1.0 when no group lost exactly one chunk. */
    double singleLossRecoveredFraction() const;

    /** Fraction of multi-loss RS groups recovered without any
     *  retransmission; 1.0 when no group lost >= 2 chunks. */
    double multiLossRecoveredFraction() const;
};

/** Aggregate transport + ladder accounting. */
struct SessionStats {
    std::size_t chunks_sent = 0;  ///< incl. retransmissions+parity
    std::size_t parity_sent = 0;  ///< FEC parity chunks
    std::size_t frames_delivered = 0;
    std::size_t frames_lost = 0;  ///< undelivered after retries
    std::size_t nacks = 0;
    std::size_t retransmits = 0;
    std::size_t keyframes_forced = 0;
    std::size_t frames_ok = 0;
    std::size_t frames_resynced = 0;
    std::size_t frames_concealed = 0;
    std::size_t frames_skipped = 0;
    /** Total bytes put on the wire (headers + payloads + parity). */
    std::uint64_t wire_bytes = 0;
    /** Modelled retransmission backoff, seconds. */
    double backoff_s = 0.0;

    std::size_t
    totalFrames() const
    {
        return frames_ok + frames_resynced + frames_concealed +
               frames_skipped;
    }

    /** Fraction of frames that were presentable (not skipped). */
    double okOrConcealedFraction() const;
};

/** Full session output. */
struct SessionReport {
    std::vector<SessionFrame> frames;
    SessionStats stats;
    WireScanStats wire;
    FecStats fec;
    /** Deadline-ladder accounting; enabled == false (all zeros)
     *  when no deadline was configured. */
    OverloadStats overload;
};

/**
 * Decoder-side reassembly + degradation ladder.
 *
 * Thread-safe: ingest() may run on a network thread while the
 * session thread polls hasFrame()/hasSlice()/missingFrames(). All
 * reassembly state is guarded by one internal mutex (a receiver
 * handles one stream; cross-stream parallelism uses one receiver
 * per session). decodeAll() consumes the decoder state and is
 * called once, but is serialized like everything else.
 */
class StreamReceiver
{
  public:
    StreamReceiver() = default;

    /** Scans damaged wire bytes; slices are buffered per frame
     *  (first intact copy of each slice wins), parity chunks feed
     *  FEC groups, and any group reduced to a single missing data
     *  chunk is reconstructed immediately. */
    WireScanStats ingest(const std::vector<std::uint8_t> &wire);

    /** True once every slice of `frame_id` is buffered intact. */
    bool hasFrame(std::uint32_t frame_id) const;

    /** True once slice `slice_index` of `frame_id` is buffered. */
    bool hasSlice(std::uint32_t frame_id,
                  std::uint16_t slice_index) const;

    /** NACK list: frame ids in [0, expected_frames) with at least
     *  one slice still missing. */
    std::vector<std::uint32_t> missingFrames(
        std::uint32_t expected_frames) const;

    /**
     * Decodes frames [0, expected_frames) in order, applying the
     * degradation ladder. Never fails on channel damage: every
     * frame gets a FrameOutcome. Call once after ingest; the
     * decoder state is consumed.
     */
    std::vector<SessionFrame> decodeAll(
        std::uint32_t expected_frames);

    /** Cumulative scan stats over every ingest() call (copied out;
     *  a reference would escape the lock). */
    WireScanStats wireStats() const;

    /** FEC accounting over everything ingested so far. */
    FecStats fecStats() const;

  private:
    /** Per-frame slice reassembly buffer. */
    struct SliceBuffer {
        std::uint16_t slice_count = 0;  ///< 0 until a slice arrives
        Frame::Type type = Frame::Type::kIntra;
        std::uint32_t gop_id = 0;
        std::map<std::uint16_t, std::vector<std::uint8_t>> slices;

        bool
        complete() const
        {
            return slice_count != 0 &&
                   slices.size() == slice_count;
        }
    };

    /** One FEC group's receive state. The scheme travels in the
     *  chunk flags; XOR parity is row 0 of the same erasure code.
     *  Recovered chunks are buffered as slices but never inserted
     *  into `data`, so `expected - data.size()` stays the channel's
     *  original loss count for accounting. */
    struct FecGroup {
        std::uint8_t expected = 0;  ///< data chunks in the group
        /** kReedSolomon once kChunkFlagRsFec is seen on a member. */
        FecScheme scheme = FecScheme::kXor;
        bool recovered = false;
        /** Parity payloads keyed by parity row index. */
        std::map<int, std::vector<std::uint8_t>> parity_rows;
        std::map<std::uint8_t, ParsedChunk> data;
    };

    void bufferSliceLocked(const ParsedChunk &chunk)
        EDGEPCC_REQUIRES(mutex_);
    void tryRecoverLocked(FecGroup &group)
        EDGEPCC_REQUIRES(mutex_);
    bool frameCompleteLocked(std::uint32_t frame_id) const
        EDGEPCC_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::map<std::uint32_t, SliceBuffer> by_frame_
        EDGEPCC_GUARDED_BY(mutex_);
    std::map<std::uint16_t, FecGroup> groups_
        EDGEPCC_GUARDED_BY(mutex_);
    std::size_t recovered_chunks_ EDGEPCC_GUARDED_BY(mutex_) = 0;
    VideoDecoder decoder_ EDGEPCC_GUARDED_BY(mutex_);
    WireScanStats wire_ EDGEPCC_GUARDED_BY(mutex_);
};

/** Session knobs. */
struct SessionConfig {
    ChannelSpec channel{};
    /** NACK-driven retransmission rounds per frame; each round
     *  resends only the slices still missing. */
    int max_retransmits = 2;
    /** First retransmission backoff; doubles per round. Modelled
     *  latency only — nothing sleeps. */
    double backoff_ms = 8.0;
    /** Sub-frame slicing: max payload bytes per chunk. 0 disables
     *  slicing (one chunk per frame, v1 wire layout). */
    std::size_t mtu_payload = 0;
    /** Parity FEC over data chunks (see chunk_stream.h): XOR
     *  recovers one lost chunk per group, Reed-Solomon up to
     *  parity_chunks, without a NACK round-trip; retransmission
     *  remains the fallback. */
    FecSpec fec{};
    /** Interleave depth D: consecutive slices are striped across D
     *  concurrently open FEC groups, so a drop burst of up to D
     *  consecutive chunks costs each group at most one chunk (all
     *  recoverable from parity) instead of wiping one group.
     *  1 is contiguous grouping. Values > 1 require fec.enabled. */
    int fec_interleave = 1;
    /** Adaptive keyframe insertion under sustained loss. */
    bool adaptive_gop = true;
    AdaptiveGopConfig gop{};
    /** Force an I frame right after an unrecovered loss, so damage
     *  cannot propagate past the next frame. */
    bool keyframe_on_loss = true;
    /**
     * Unified redundancy negotiation (redundancy_controller.h):
     * when enabled (requires fec.enabled with
     * FecScheme::kReedSolomon), one controller picks (RS k/m, GOP
     * length, reuse-threshold bitrate rung) against a single wire
     * budget and SUPERSEDES fec.group_size/parity_chunks,
     * adaptive_gop and keyframe_on_loss — GOP shortening and forced
     * keyframes then fire only on genuinely unrecoverable loss.
     */
    RedundancyConfig redundancy{};
    /** Deadline-aware encode ladder + admission control + watchdog
     *  (see overload_controller.h). Disabled by default: the clean
     *  path stays byte-identical with overload.enabled == false. */
    OverloadConfig overload{};

    /**
     * The NACK loop's bounded exponential backoff expressed as the
     * shared RetryPolicy (common/retry.h): max_retransmits rounds,
     * backoff_ms initial, doubling per round, no jitter and no
     * ceiling — bit-identical to the historical
     * `backoff_ms * 2^(round-1)` schedule. The serve-layer circuit
     * breaker reuses the same policy type for its re-probe
     * quarantine intervals.
     */
    RetryPolicy retransmitPolicy() const;
};

/**
 * Validates a SessionConfig before any chunk is built, instead of
 * the historical silent clamping. Rejected (with a descriptive
 * Status): FEC group_size < 2 or > 255, RS parity m < 1 or
 * m >= group_size, k + m past the GF(256) Cauchy bound,
 * interleaving without FEC/slicing or with lanes that don't divide
 * the group's slice budget, redundancy without RS FEC or with
 * inconsistent bounds, and negative retry/backoff knobs. StreamSession::run calls this
 * first; serve/pipeline layers inherit the check.
 */
Status validateSessionConfig(const SessionConfig &config);

/**
 * End-to-end resilient session: encode -> slice (+FEC parity) ->
 * lossy channel (with NACK/retransmit fallback) -> receive ->
 * degradation-ladder decode.
 */
class StreamSession
{
  public:
    StreamSession(CodecConfig codec, SessionConfig session);

    /** Runs the whole stream; one SessionFrame per input frame. */
    Expected<SessionReport> run(
        const std::vector<VoxelCloud> &frames);

  private:
    CodecConfig codec_;
    SessionConfig session_;
};

}  // namespace edgepcc

#endif  // EDGEPCC_STREAM_STREAM_SESSION_H
