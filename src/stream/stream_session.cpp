#include "edgepcc/stream/stream_session.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "edgepcc/common/trace.h"
#include "edgepcc/interframe/block_matcher.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/stream/rs_fec.h"

namespace edgepcc {

const char *
frameOutcomeName(FrameOutcome outcome)
{
    switch (outcome) {
      case FrameOutcome::kOk:
        return "ok";
      case FrameOutcome::kResynced:
        return "resynced";
      case FrameOutcome::kConcealed:
        return "concealed";
      case FrameOutcome::kSkipped:
        return "skipped";
    }
    return "unknown";
}

double
SessionStats::okOrConcealedFraction() const
{
    const std::size_t total = totalFrames();
    return total == 0
               ? 0.0
               : static_cast<double>(total - frames_skipped) /
                     static_cast<double>(total);
}

double
FecStats::singleLossRecoveredFraction() const
{
    return single_loss_groups == 0
               ? 1.0
               : static_cast<double>(single_loss_recovered) /
                     static_cast<double>(single_loss_groups);
}

double
FecStats::multiLossRecoveredFraction() const
{
    return multi_loss_groups == 0
               ? 1.0
               : static_cast<double>(multi_loss_recovered) /
                     static_cast<double>(multi_loss_groups);
}

// -----------------------------------------------------------------
// StreamReceiver
// -----------------------------------------------------------------

void
StreamReceiver::bufferSliceLocked(const ParsedChunk &chunk)
{
    SliceBuffer &buf = by_frame_[chunk.header.frame_id];
    if (buf.slice_count == 0) {
        // First intact slice of the frame fixes its shape.
        buf.slice_count = std::max<std::uint16_t>(
            chunk.header.slice_count, 1);
        buf.type = chunk.header.frame_type;
        buf.gop_id = chunk.header.gop_id;
    }
    if (chunk.header.slice_index >= buf.slice_count)
        return;  // inconsistent with the established shape
    // First intact copy wins; duplicates, retransmissions and FEC
    // reconstructions of an already-buffered slice are dropped.
    buf.slices.emplace(chunk.header.slice_index, chunk.payload);
}

void
StreamReceiver::tryRecoverLocked(FecGroup &group)
{
    if (group.recovered || group.expected == 0 ||
        group.data.size() >=
            static_cast<std::size_t>(group.expected))
        return;
    // Solvable once the received data rows plus parity rows reach
    // k. Retried on every later arrival (a failed attempt may
    // succeed once another row lands).
    if (group.parity_rows.size() <
        group.expected - group.data.size())
        return;
    std::optional<std::vector<ParsedChunk>> rebuilt =
        recoverRsChunks(group.expected, group.data,
                        group.parity_rows, group.scheme);
    if (!rebuilt.has_value())
        return;
    group.recovered = true;
    recovered_chunks_ += rebuilt->size();
    for (const ParsedChunk &chunk : *rebuilt)
        bufferSliceLocked(chunk);
}

WireScanStats
StreamReceiver::ingest(const std::vector<std::uint8_t> &wire)
{
    WireScanStats stats;
    std::vector<ParsedChunk> chunks = scanWire(wire, &stats);
    MutexLock lock(mutex_);
    for (ParsedChunk &chunk : chunks) {
        const ChunkHeader &header = chunk.header;
        if (!header.isParity()) {
            bufferSliceLocked(chunk);
            if ((header.flags & kChunkFlagFec) == 0)
                continue;
        }
        FecGroup &group = groups_[header.fec_group];
        if (header.isRsFec())
            group.scheme = FecScheme::kReedSolomon;
        if (group.expected == 0)
            group.expected = header.fec_group_size;
        if (header.isParity()) {
            // Parity row index from the fec_seq encoding (0xff,
            // 0xfe, ...; XOR parity is row 0); first intact copy
            // of each row wins.
            const int row =
                header.isRsFec() ? rsParityRow(header.fec_seq) : 0;
            group.parity_rows.emplace(row,
                                      std::move(chunk.payload));
        } else {
            const std::uint8_t seq = header.fec_seq;
            group.data.emplace(seq, std::move(chunk));
        }
        tryRecoverLocked(group);
    }
    wire_.bytes_scanned += stats.bytes_scanned;
    wire_.bytes_skipped += stats.bytes_skipped;
    wire_.chunks_ok += stats.chunks_ok;
    wire_.chunks_bad_crc += stats.chunks_bad_crc;
    wire_.chunks_truncated += stats.chunks_truncated;
    return stats;
}

bool
StreamReceiver::frameCompleteLocked(std::uint32_t frame_id) const
{
    const auto it = by_frame_.find(frame_id);
    return it != by_frame_.end() && it->second.complete();
}

bool
StreamReceiver::hasFrame(std::uint32_t frame_id) const
{
    MutexLock lock(mutex_);
    return frameCompleteLocked(frame_id);
}

bool
StreamReceiver::hasSlice(std::uint32_t frame_id,
                         std::uint16_t slice_index) const
{
    MutexLock lock(mutex_);
    const auto it = by_frame_.find(frame_id);
    return it != by_frame_.end() &&
           it->second.slices.count(slice_index) != 0;
}

std::vector<std::uint32_t>
StreamReceiver::missingFrames(std::uint32_t expected_frames) const
{
    MutexLock lock(mutex_);
    std::vector<std::uint32_t> missing;
    for (std::uint32_t id = 0; id < expected_frames; ++id) {
        if (!frameCompleteLocked(id))
            missing.push_back(id);
    }
    return missing;
}

WireScanStats
StreamReceiver::wireStats() const
{
    MutexLock lock(mutex_);
    return wire_;
}

FecStats
StreamReceiver::fecStats() const
{
    MutexLock lock(mutex_);
    FecStats stats;
    stats.recovered_chunks = recovered_chunks_;
    for (const auto &[id, group] : groups_) {
        ++stats.groups;
        const std::size_t expected = group.expected;
        const std::size_t data_missing =
            expected > group.data.size()
                ? expected - group.data.size()
                : 0;
        const bool xor_group = group.scheme == FecScheme::kXor;
        stats.parity_received += group.parity_rows.size();
        // Losses key off the data chunks, plus, for XOR only, its
        // one parity chunk: an XOR group that lost just its parity
        // is a single loss the data survived. An RS group ignores
        // lost parity rows (they need no recovery); two or more
        // lost data chunks are the multi-loss case XOR could never
        // cover.
        const std::size_t lost =
            data_missing +
            (xor_group && group.parity_rows.empty() ? 1 : 0);
        if (lost == 1) {
            ++stats.single_loss_groups;
            if (data_missing == 0 || group.recovered)
                ++stats.single_loss_recovered;
        } else if (data_missing >= 2 && !xor_group) {
            ++stats.multi_loss_groups;
            if (group.recovered)
                ++stats.multi_loss_recovered;
        }
        if (data_missing > 0 && !group.recovered)
            ++stats.unrecovered_groups;
    }
    return stats;
}

std::vector<SessionFrame>
StreamReceiver::decodeAll(std::uint32_t expected_frames)
{
    ScopedTrace trace("session.decode");
    MutexLock lock(mutex_);
    std::vector<SessionFrame> results;
    results.reserve(expected_frames);

    // Ladder state: the last presentable cloud (freeze/conceal
    // source), the GOP id of the last intact I frame (reference
    // validity), and whether damage occurred since the last intact
    // I frame (drives the resynced outcome).
    std::optional<VoxelCloud> last_good;
    std::optional<std::uint32_t> good_intra_gop;
    bool damaged = false;

    const auto degrade = [&](SessionFrame &result) {
        if (last_good.has_value()) {
            result.outcome = FrameOutcome::kConcealed;
            result.cloud = *last_good;
        } else {
            result.outcome = FrameOutcome::kSkipped;
        }
        damaged = true;
    };

    for (std::uint32_t id = 0; id < expected_frames; ++id) {
        SessionFrame result;
        result.frame_id = id;

        const auto it = by_frame_.find(id);
        if (it == by_frame_.end() || !it->second.complete()) {
            // Some slice never arrived intact: freeze the last good
            // frame, or skip when there has not been one yet.
            if (it != by_frame_.end())
                result.type = it->second.type;
            degrade(result);
            results.push_back(std::move(result));
            continue;
        }
        const SliceBuffer &buf = it->second;
        result.type = buf.type;
        result.delivered = true;

        // Reassemble the frame payload from its slices (std::map
        // iterates in slice_index order).
        std::vector<const std::vector<std::uint8_t> *> parts;
        parts.reserve(buf.slices.size());
        for (const auto &[index, payload] : buf.slices)
            parts.push_back(&payload);
        const std::vector<std::uint8_t> payload =
            assembleSlices(parts);

        if (buf.type == Frame::Type::kIntra) {
            auto decoded = decoder_.decode(payload);
            if (decoded.hasValue()) {
                result.outcome = damaged
                                     ? FrameOutcome::kResynced
                                     : FrameOutcome::kOk;
                result.cloud = std::move(decoded->cloud);
                result.decode_profile =
                    std::move(decoded->profile);
                last_good = result.cloud;
                good_intra_gop = buf.gop_id;
                damaged = false;
            } else {
                // The payload cleared the transport CRC but still
                // failed the codec's own validation; treat like a
                // lost chunk.
                degrade(result);
            }
            results.push_back(std::move(result));
            continue;
        }

        // P frame: decodable only when its anchor I frame was
        // decoded intact. Otherwise the decoder's reference is
        // stale (silent corruption) or absent — promote to a
        // geometry-only decode with concealed attributes.
        const bool reference_ok =
            good_intra_gop.has_value() &&
            *good_intra_gop == buf.gop_id &&
            decoder_.hasReference();
        if (reference_ok) {
            auto decoded = decoder_.decode(payload);
            if (decoded.hasValue()) {
                result.outcome = FrameOutcome::kOk;
                result.cloud = std::move(decoded->cloud);
                result.decode_profile =
                    std::move(decoded->profile);
                last_good = result.cloud;
                results.push_back(std::move(result));
                continue;
            }
        }
        bool concealed = false;
        auto promoted = decoder_.decodePromoted(
            payload,
            last_good.has_value() ? &*last_good : nullptr,
            &concealed);
        if (promoted.hasValue()) {
            result.outcome = FrameOutcome::kConcealed;
            result.cloud = std::move(promoted->cloud);
            result.decode_profile = std::move(promoted->profile);
            // Geometry is current even though attributes are
            // borrowed: better freeze source than an older frame.
            last_good = result.cloud;
            damaged = true;
        } else {
            degrade(result);
        }
        results.push_back(std::move(result));
    }
    return results;
}

// -----------------------------------------------------------------
// StreamSession
// -----------------------------------------------------------------

namespace {

/** Per-frame transport accounting attached after decodeAll. */
struct FrameSendInfo {
    int retransmits = 0;
    int nack_rounds = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t wire_bytes = 0;
    double backoff_s = 0.0;
    PipelineProfile encode_profile;
};

/**
 * The state of one StreamSession::run. Each frame passes through
 * the sender phases admit → encode → frame → protect → send (NACK
 * rounds) → feedback; finish() then lets the receiver decode the
 * whole stream and attaches the per-frame transport accounting.
 *
 * Overload (inactive unless configured): the encode "latency" is
 * the modelled edge-device time of the recorded profile scaled by
 * the injected LoadSpec, so ladder walks are deterministic and
 * wall-clock free.
 */
struct SessionRun {
    const CodecConfig &codec;
    const SessionConfig &session;
    const std::vector<VoxelCloud> &frames;

    const bool overload_on = session.overload.enabled;
    /** RS k/m and bitrate negotiation; the loss controller's GOP
     *  and keyframe rules run either way. */
    const bool redundancy_on = session.redundancy.enabled;
    VideoEncoder encoder{codec};
    LossyChannel channel{session.channel};
    StreamReceiver receiver;
    RedundancyController redundancy{
        session.redundancy, codec.gop_size,
        codec.block_match.reuse_threshold};
    OverloadController ladder_ctrl{session.overload};
    const EdgeDeviceModel device_model{session.overload.device};
    const double budget_s = ladder_ctrl.budgetSeconds();

    SessionReport report;
    double clock_s = 0.0;  ///< encoder-busy virtual time
    int applied_drop_bits = 0;
    OverloadRung applied_rung = OverloadRung::kFull;
    bool applied_any_rung = false;
    std::size_t consecutive_misses = 0;

    std::uint32_t next_sequence = 0;
    std::uint32_t gop_id = 0;
    std::uint16_t next_fec_group = 0;
    /** Channel stats at the last loss report: the redundancy
     *  controller's per-frame loss/burst feedback is their delta
     *  (the deterministic stand-in for a receiver loss report). */
    ChannelStats reported;

    std::vector<FrameSendInfo> sent =
        std::vector<FrameSendInfo>(frames.size());
    // Zero-copy send path: payloads are views into the encoded
    // frame (or the parity scratch), serialized into one reusable
    // wire buffer — the serialize step is the only payload copy
    // between the encoder and the channel.
    std::vector<std::uint8_t> wire_buf;
    std::vector<std::uint8_t> parity_buf;

    SessionRun(const CodecConfig &codec_config,
               const SessionConfig &session_config,
               const std::vector<VoxelCloud> &input_frames)
        : codec(codec_config), session(session_config),
          frames(input_frames)
    {
    }

    Status
    sendFrame(std::size_t f)
    {
        // The frame's ladder fields so far (id, rung, queueing);
        // each of its ladder records starts as a copy.
        OverloadFrame slot;
        slot.frame_id = static_cast<std::uint32_t>(f);
        if (!admit(slot))
            return Status();  // never encoded, never sent

        // Encode.
        VoxelCloud coarse{frames[f].gridBits()};
        const VoxelCloud &input = applyRung(slot, coarse);
        const RedundancyDecision negotiated = negotiate(slot.rung);
        auto encoded = encoder.encode(input);
        if (!encoded)
            return encoded.status();
        const Frame::Type type = encoded->stats.type;
        if (type == Frame::Type::kIntra)
            gop_id = slot.frame_id;
        FrameSendInfo &info = sent[f];
        info.payload_bytes = encoded->bitstream.size();
        info.encode_profile = std::move(encoded->profile);
        if (overload_on)
            chargeLatency(slot, info.encode_profile);

        // Frame: one chunk per MTU payload so a bit flip costs a
        // slice, not the frame. mtu_payload == 0 reproduces the v1
        // one-chunk-per-frame wire byte for byte. Slices are views
        // into encoded->bitstream, which stays alive (and
        // unmodified) through the NACK rounds.
        ChunkHeader base;
        base.frame_id = slot.frame_id;
        base.gop_id = gop_id;
        base.frame_type = type;
        std::vector<ChunkView> slices = sliceFramePayloadViews(
            base, ByteSpan(encoded->bitstream), session.mtu_payload);

        protect(slices, base, negotiated, info);
        retransmit(slices, base.frame_id, info);
        feedback(base.frame_id, type, info);
        return Status();
    }

    /**
     * Admission control on virtual time, then shedding before the
     * encode; false when the frame is not encoded.
     *
     * Frame f is captured at f/fps; the encoder serves frames in
     * order, so the arrived-unserved window is exactly
     * [f, last_arrived]. Oldest-drop backpressure keeps the newest
     * queue_capacity + 1 of them (stale frames are worthless in
     * telepresence). An injected allocation failure stands for an
     * encode that reports resource exhaustion via Status: the
     * session sheds the frame instead of dying. The bottom rung
     * sheds every frame; its zero encode cost counts as headroom,
     * so hysteresis climbs back out.
     */
    bool
    admit(OverloadFrame &slot)
    {
        slot.rung = ladder_ctrl.rung();
        if (!overload_on)
            return true;
        OverloadStats &overload = report.overload;
        const double fps = session.overload.target_fps;
        if (fps > 0.0) {
            const std::size_t f = slot.frame_id;
            const double arrival = static_cast<double>(f) / fps;
            if (clock_s < arrival)
                clock_s = arrival;  // encoder idle until capture
            const std::size_t last_arrived = std::min(
                frames.size() - 1,
                static_cast<std::size_t>(clock_s * fps + 1e-9));
            slot.queue_depth = static_cast<int>(last_arrived - f);
            slot.queue_delay_s = clock_s - arrival;
            const auto capacity = static_cast<std::size_t>(
                session.overload.queue_capacity);
            if (last_arrived - f > capacity) {
                ladderRecord(slot, OverloadEvent::kQueueDrop);
                ++overload.queue_drops;
                return false;
            }
        }
        if (session.overload.load.allocFailsAt(slot.frame_id)) {
            ladderRecord(slot, OverloadEvent::kAllocFailure);
            ++overload.alloc_failures;
            ++overload.rung_occupancy[static_cast<int>(slot.rung)];
            return false;
        }
        if (slot.rung != OverloadRung::kSkip)
            return true;
        ladderRecord(slot, ladder_ctrl.onFrame(0.0));
        ++overload.rung_occupancy[static_cast<int>(slot.rung)];
        ++overload.frames_skipped;
        if (ladder_ctrl.rung() != slot.rung)
            ++overload.rung_transitions;
        consecutive_misses = 0;
        return false;
    }

    /** Applies the ladder rung to the encoder and returns the
     *  cloud to encode: the frame, or its coarsened copy in
     *  `coarse`. */
    const VoxelCloud &
    applyRung(const OverloadFrame &slot, VoxelCloud &coarse)
    {
        const VoxelCloud &frame = frames[slot.frame_id];
        const OverloadRung rung = slot.rung;
        if (!overload_on)
            return frame;
        if (!applied_any_rung || rung != applied_rung) {
            encoder.updateCoding(OverloadController::configForRung(
                codec, rung, session.overload));
            applied_rung = rung;
            applied_any_rung = true;
        }
        const int drop_bits = rung >= OverloadRung::kCoarseGeometry
                                  ? session.overload.coarse_drop_bits
                                  : 0;
        if (drop_bits != applied_drop_bits) {
            // The voxel grid changed; the prediction reference
            // lives on the old grid, so re-anchor.
            encoder.forceKeyframe();
            applied_drop_bits = drop_bits;
        }
        if (drop_bits <= 0)
            return frame;
        coarse = coarsenCloud(frame, drop_bits);
        return coarse;
    }

    /**
     * The loss controller's decision for this frame, applied to the
     * encoder: the bitrate rung (when negotiation is enabled), the
     * GOP length and any forced keyframe. The inter-only rung pins
     * the GOP.
     */
    RedundancyDecision
    negotiate(OverloadRung rung)
    {
        const RedundancyDecision negotiated = redundancy.decide();
        if (redundancy_on && negotiated.reuse_threshold >= 0.0) {
            // Bitrate rung: steer P-frame payloads toward the
            // post-parity budget. Re-applied every frame — the
            // overload rung switch replaces the codec config
            // wholesale.
            CodecConfig tuned =
                overload_on && applied_any_rung
                    ? OverloadController::configForRung(
                          codec, applied_rung, session.overload)
                    : codec;
            tuned.block_match.reuse_threshold =
                negotiated.reuse_threshold;
            encoder.updateCoding(tuned);
        }
        if (!overload_on || rung < OverloadRung::kInterOnly)
            encoder.setGopSize(negotiated.gop_size);
        if (redundancy.consumeForcedKeyframe()) {
            // Unrecovered loss: re-anchor so a lost I frame cannot
            // poison the rest of its GOP.
            encoder.forceKeyframe();
            ++report.stats.keyframes_forced;
        }
        return negotiated;
    }

    /**
     * Effective encode latency: per-stage seconds from the
     * configured budget source (modelled device time by default,
     * measured host time in wall-clock mode), scaled by the
     * injected load. The watchdog checks each stage against its
     * soft-timeout share of the deadline before the frame total is
     * judged.
     */
    void
    chargeLatency(const OverloadFrame &slot, const PipelineProfile &profile)
    {
        OverloadStats &overload = report.overload;
        const EffectiveLatency eff = effectiveEncodeLatency(
            device_model.evaluate(profile), session.overload,
            slot.frame_id);
        const double effective_s = eff.total_s;
        const bool stalled =
            budget_s > 0.0 &&
            eff.worst_stage_s >
                budget_s * session.overload.stage_soft_timeout_fraction;
        const OverloadEvent event =
            stalled ? ladder_ctrl.onStall(effective_s)
                    : ladder_ctrl.onFrame(effective_s);
        const bool missed = budget_s > 0.0 && effective_s > budget_s;

        OverloadFrame &record = ladderRecord(slot, event);
        record.encode_s = effective_s;
        record.deadline_missed = missed;
        if (stalled)
            record.stalled_stage = eff.worst_stage;
        ++overload.rung_occupancy[static_cast<int>(slot.rung)];
        overload.encode_latency_s.push_back(effective_s);
        if (missed) {
            ++overload.deadline_misses;
            ++consecutive_misses;
            overload.max_consecutive_misses = std::max(
                overload.max_consecutive_misses, consecutive_misses);
        } else {
            consecutive_misses = 0;
        }
        if (stalled)
            ++overload.watchdog_stalls;
        if (ladder_ctrl.rung() != slot.rung)
            ++overload.rung_transitions;
        clock_s += effective_s;
    }

    /** Appends one overload-ladder record for the frame. */
    OverloadFrame &
    ladderRecord(const OverloadFrame &slot, OverloadEvent event)
    {
        OverloadFrame &record = report.overload.ladder.emplace_back(slot);
        record.event = event;
        return record;
    }

    /**
     * Groups the frame's slices into FEC groups, stamping the FEC
     * fields into the slice headers, and sends each window of data
     * chunks followed by its groups' parity rows. The geometry is
     * fixed (fec.group_size / parity_chunks) or negotiated by the
     * redundancy controller. Within a window of group_size * lanes
     * slices, slice j joins group j % lanes, so consecutive wire
     * chunks belong to different groups and a drop burst of up to
     * `lanes` chunks costs each group at most one chunk. One lane
     * is plain contiguous grouping. Groups never span frames, so
     * the receiver can recover a loss before the frame's NACK check
     * runs; group membership travels in the chunk headers.
     */
    void
    protect(std::vector<ChunkView> &slices, const ChunkHeader &base,
            const RedundancyDecision &negotiated, FrameSendInfo &info)
    {
        const FecSpec &fec = session.fec;
        if (!fec.enabled) {
            for (const ChunkView &slice : slices)
                sendChunk(slice.header, slice.payload, info);
            return;
        }
        const bool rs = fec.scheme == FecScheme::kReedSolomon;
        const std::size_t group_size = static_cast<std::size_t>(
            std::max(redundancy_on ? negotiated.group_size
                                   : fec.group_size,
                     1));
        const int parity_rows =
            rs ? std::max(redundancy_on ? negotiated.parity_chunks
                                        : fec.parity_chunks,
                          1)
               : 1;
        const std::size_t max_lanes = static_cast<std::size_t>(
            std::max(session.fec_interleave, 1));
        const std::uint8_t fec_flags = static_cast<std::uint8_t>(
            kChunkFlagFec | (rs ? kChunkFlagRsFec : 0));
        const std::size_t window = group_size * max_lanes;
        std::vector<ChunkView> group;
        for (std::size_t begin = 0; begin < slices.size();
             begin += window) {
            const std::size_t count =
                std::min(window, slices.size() - begin);
            const std::size_t lanes = std::min(max_lanes, count);
            const std::uint16_t base_group = next_fec_group;
            next_fec_group =
                static_cast<std::uint16_t>(next_fec_group + lanes);
            for (std::size_t j = 0; j < count; ++j) {
                const std::size_t lane = j % lanes;
                ChunkHeader &header = slices[begin + j].header;
                header.flags |= fec_flags;
                header.fec_group =
                    static_cast<std::uint16_t>(base_group + lane);
                header.fec_seq = static_cast<std::uint8_t>(j / lanes);
                header.fec_group_size = static_cast<std::uint8_t>(
                    count / lanes + (lane < count % lanes ? 1 : 0));
                sendChunk(header, slices[begin + j].payload, info);
            }
            for (std::size_t lane = 0; lane < lanes; ++lane) {
                group.clear();
                for (std::size_t j = lane; j < count; j += lanes)
                    group.push_back(slices[begin + j]);
                ChunkHeader parity = base;
                parity.flags = static_cast<std::uint8_t>(
                    kChunkFlagParity | fec_flags);
                parity.fec_group =
                    static_cast<std::uint16_t>(base_group + lane);
                parity.fec_group_size =
                    static_cast<std::uint8_t>(group.size());
                for (int row = 0; row < parity_rows; ++row) {
                    parity.fec_seq = rsParitySeq(row);
                    buildRsParityInto(group, row, parity_buf,
                                      fec.scheme);
                    sendChunk(parity, ByteSpan(parity_buf), info);
                }
            }
        }
    }

    void
    sendChunk(ChunkHeader header, ByteSpan payload, FrameSendInfo &info)
    {
        header.sequence = next_sequence++;
        serializeChunkInto(header, payload, wire_buf);
        info.wire_bytes += wire_buf.size();
        ++report.stats.chunks_sent;
        if (header.isParity())
            ++report.stats.parity_sent;
        for (const auto &arrival : channel.transmit(wire_buf))
            receiver.ingest(arrival);
    }

    /**
     * Bounded NACK rounds: each round resends only the slices
     * still missing (after FEC recovery), with exponential backoff
     * (modelled latency, no sleeping) from the shared RetryPolicy.
     */
    void
    retransmit(const std::vector<ChunkView> &slices,
               std::uint32_t frame_id, FrameSendInfo &info)
    {
        const RetryPolicy retry = session.retransmitPolicy();
        for (int round = 1; round <= session.max_retransmits;
             ++round) {
            std::vector<std::size_t> missing;
            for (std::size_t i = 0; i < slices.size(); ++i) {
                if (!receiver.hasSlice(frame_id,
                                       slices[i].header.slice_index))
                    missing.push_back(i);
            }
            if (missing.empty())
                break;
            ++info.nack_rounds;
            const double backoff = retry.backoffFor(round);
            info.backoff_s += backoff;
            report.stats.backoff_s += backoff;
            for (const std::size_t i : missing) {
                ChunkHeader resend = slices[i].header;
                resend.flags = static_cast<std::uint8_t>(
                    (resend.flags & ~kChunkFlagFec) |
                    kChunkFlagRetransmit);
                // The original FEC group is already closed; a
                // resent copy must not distort its accounting.
                resend.fec_group = 0;
                resend.fec_seq = 0;
                resend.fec_group_size = 0;
                ++report.stats.nacks;
                ++report.stats.retransmits;
                ++info.retransmits;
                sendChunk(resend, slices[i].payload, info);
            }
        }
    }

    /**
     * Delivery feedback after the NACK rounds. Reorder-held copies
     * may still surface later; finish() catches them, but delivery
     * feedback uses the post-retry state (a held chunk is late,
     * i.e. lost for latency purposes but still usable for decode).
     */
    void
    feedback(std::uint32_t frame_id, Frame::Type type,
             const FrameSendInfo &info)
    {
        const bool delivered = receiver.hasFrame(frame_id);
        if (delivered)
            ++report.stats.frames_delivered;
        else
            ++report.stats.frames_lost;
        // Loss report from the channel-stat deltas of this frame's
        // sends (data + parity + retransmits). Using channel truth —
        // not post-recovery receiver state — keeps the burst
        // estimate honest: losses the parity absorbed must still
        // count, or m would decay and oscillate against the very
        // bursts it covers.
        const ChannelStats &ch = channel.stats();
        const auto lost = [](const ChannelStats &s) {
            return s.dropped + s.truncated + s.bit_flipped;
        };
        const std::size_t lost_d = lost(ch) - lost(reported);
        const std::size_t bursts_d = ch.bursts - reported.bursts;
        const std::size_t burst_drop_d =
            ch.burst_dropped - reported.burst_dropped;
        const int max_burst =
            bursts_d > 0 ? static_cast<int>(
                               (burst_drop_d + bursts_d - 1) / bursts_d)
                         : (lost_d > 0 ? 1 : 0);
        redundancy.onFrameFeedback(
            static_cast<int>(ch.chunks_in - reported.chunks_in),
            static_cast<int>(lost_d), max_burst, delivered);
        reported = ch;
        if (redundancy_on)
            redundancy.onEncodedFrame(type, info.payload_bytes);
    }

    /** Flushes the channel, decodes the stream and attaches each
     *  frame's transport accounting. */
    SessionReport
    finish()
    {
        for (const auto &arrival : channel.flush())
            receiver.ingest(arrival);

        OverloadStats &overload = report.overload;
        overload.enabled = overload_on;
        overload.deadline_s = overload_on ? budget_s : 0.0;
        overload.frames = overload.ladder.size();
        report.frames = receiver.decodeAll(
            static_cast<std::uint32_t>(frames.size()));
        report.wire = receiver.wireStats();
        report.fec = receiver.fecStats();

        for (SessionFrame &frame : report.frames) {
            FrameSendInfo &info = sent[frame.frame_id];
            frame.retransmits = info.retransmits;
            frame.nack_rounds = info.nack_rounds;
            frame.payload_bytes = info.payload_bytes;
            frame.wire_bytes = info.wire_bytes;
            frame.backoff_s = info.backoff_s;
            frame.encode_profile = std::move(info.encode_profile);
            report.stats.wire_bytes += info.wire_bytes;
            switch (frame.outcome) {
              case FrameOutcome::kOk:
                ++report.stats.frames_ok;
                break;
              case FrameOutcome::kResynced:
                ++report.stats.frames_resynced;
                break;
              case FrameOutcome::kConcealed:
                ++report.stats.frames_concealed;
                break;
              case FrameOutcome::kSkipped:
                ++report.stats.frames_skipped;
                break;
            }
        }
        return std::move(report);
    }
};

}  // namespace

RetryPolicy
SessionConfig::retransmitPolicy() const
{
    RetryPolicy policy;
    policy.max_attempts = max_retransmits;
    policy.initial_backoff_s = backoff_ms / 1e3;
    policy.multiplier = 2.0;
    // The historical NACK schedule never clamped; keep its values
    // bit-identical (max_retransmits is small, so no overflow).
    policy.max_backoff_s =
        std::numeric_limits<double>::infinity();
    policy.jitter = 0.0;
    return policy;
}

Status
validateSessionConfig(const SessionConfig &config)
{
    if (config.max_retransmits < 0)
        return invalidArgument(
            "SessionConfig: max_retransmits must be >= 0, got " +
            std::to_string(config.max_retransmits));
    if (config.backoff_ms < 0.0)
        return invalidArgument(
            "SessionConfig: backoff_ms must be >= 0");

    const FecSpec &fec = config.fec;
    if (fec.enabled) {
        if (fec.group_size < 2 || fec.group_size > 255)
            return invalidArgument(
                "SessionConfig: fec.group_size must be in [2, "
                "255], got " +
                std::to_string(fec.group_size));
        if (fec.scheme == FecScheme::kReedSolomon) {
            if (fec.parity_chunks < 1)
                return invalidArgument(
                    "SessionConfig: RS fec.parity_chunks must be "
                    ">= 1, got " +
                    std::to_string(fec.parity_chunks));
            if (fec.parity_chunks >= fec.group_size)
                return invalidArgument(
                    "SessionConfig: RS parity m (" +
                    std::to_string(fec.parity_chunks) +
                    ") must be < group size k (" +
                    std::to_string(fec.group_size) +
                    "); at m >= k plain repetition is cheaper");
            if (fec.group_size + fec.parity_chunks >
                kRsMaxGroupPlusParity)
                return invalidArgument(
                    "SessionConfig: fec.group_size + "
                    "parity_chunks must be <= 255 (GF(256) Cauchy "
                    "bound)");
        }
    } else {
        if (config.fec_interleave > 1)
            return invalidArgument(
                "SessionConfig: fec_interleave > 1 requires "
                "fec.enabled");
    }

    if (config.fec_interleave < 1)
        return invalidArgument(
            "SessionConfig: fec_interleave must be >= 1, got " +
            std::to_string(config.fec_interleave));
    if (config.fec_interleave > 1) {
        if (config.mtu_payload == 0)
            return invalidArgument(
                "SessionConfig: fec_interleave > 1 requires MTU "
                "slicing (mtu_payload != 0) — one chunk per frame "
                "leaves nothing to stripe");
        if (fec.group_size % config.fec_interleave != 0)
            return invalidArgument(
                "SessionConfig: fec_interleave (" +
                std::to_string(config.fec_interleave) +
                ") must divide the group's slice budget "
                "(fec.group_size = " +
                std::to_string(fec.group_size) +
                ") so every lane carries equal-depth groups");
    }

    const RedundancyConfig &red = config.redundancy;
    if (red.min_gop_size < 1 || red.max_gop_size < red.min_gop_size)
        return invalidArgument(
            "SessionConfig: redundancy GOP bounds invalid (need 1 <= "
            "min_gop_size <= max_gop_size)");
    if (red.grow_after_clean < 1)
        return invalidArgument(
            "SessionConfig: redundancy.grow_after_clean must be >= 1");
    if (!(red.ewma_alpha > 0.0 && red.ewma_alpha <= 1.0))
        return invalidArgument(
            "SessionConfig: redundancy.ewma_alpha must be in (0, 1]");
    if (red.enabled) {
        if (!fec.enabled || fec.scheme != FecScheme::kReedSolomon)
            return invalidArgument(
                "SessionConfig: redundancy controller requires "
                "fec.enabled with FecScheme::kReedSolomon");
        if (red.min_group_size < 2 ||
            red.max_group_size < red.min_group_size)
            return invalidArgument(
                "SessionConfig: redundancy group-size bounds "
                "invalid (need 2 <= min <= max)");
        if (red.min_parity < 1 || red.max_parity < red.min_parity)
            return invalidArgument(
                "SessionConfig: redundancy parity bounds invalid "
                "(need 1 <= min <= max)");
        if (red.max_group_size + red.max_parity >
            kRsMaxGroupPlusParity)
            return invalidArgument(
                "SessionConfig: redundancy max_group_size + "
                "max_parity must be <= 255");
        if (red.max_parity_share <= 0.0 ||
            red.max_parity_share >= 1.0)
            return invalidArgument(
                "SessionConfig: redundancy max_parity_share must "
                "be in (0, 1)");
    }

    const OverloadConfig &overload = config.overload;
    if (overload.enabled &&
        (overload.queue_capacity < 0 || overload.target_fps < 0.0 ||
         overload.deadline_s < 0.0 || overload.coarse_drop_bits < 0 ||
         !(overload.stage_soft_timeout_fraction > 0.0)))
        return invalidArgument(
            "SessionConfig: overload queue_capacity, target_fps, "
            "deadline_s and coarse_drop_bits must be >= 0 and "
            "stage_soft_timeout_fraction > 0");
    return Status();
}

StreamSession::StreamSession(CodecConfig codec,
                             SessionConfig session)
    : codec_(std::move(codec)), session_(std::move(session))
{
}

Expected<SessionReport>
StreamSession::run(const std::vector<VoxelCloud> &frames)
{
    if (frames.empty())
        return invalidArgument("StreamSession::run: no frames");
    if (Status valid = validateSessionConfig(session_);
        !valid.isOk())
        return valid;

    ScopedTrace trace("session.run");
    SessionRun sender(codec_, session_, frames);
    for (std::size_t f = 0; f < frames.size(); ++f) {
        if (Status sent = sender.sendFrame(f); !sent.isOk())
            return sent;
    }
    return sender.finish();
}

}  // namespace edgepcc
