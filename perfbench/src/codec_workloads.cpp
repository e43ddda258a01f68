/**
 * @file
 * paper-v1 and paper-intra: one stream in a closed loop at the
 * paper's frame size. Each iteration encodes a frame with
 * VideoEncoder::encode and decodes it with VideoDecoder::decode; the
 * three distinct frames of one IPP GOP are generated in set-up and
 * cycled, so every frame's bitstream and reconstruction must repeat
 * exactly from cycle to cycle.
 */

#include <cmath>
#include <memory>
#include <optional>

#include "edgepcc/core/codec_config.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/parallel/thread_pool.h"
#include "edgepcc/platform/device_model.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using namespace edgepcc;

namespace {

/** Distinct frames: one IPP GOP, so a frame's type and reference are
 *  the same on every cycle. */
constexpr int kDistinctFrames = 3;
/** Frames of the pool-size-0 byte-identity prefix (one I, one P). */
constexpr int kInlinePrefix = 2;
/** Lowest acceptable mean attribute PSNR per config, 2-3 dB below
 *  what the synthetic actors measure. */
constexpr double kPsnrFloorV1 = 44.0;
constexpr double kPsnrFloorIntra = 47.0;

struct PaperSetup {
    std::unique_ptr<ScopedGlobalPool> pool;
    std::vector<VoxelCloud> frames;
    std::vector<double> generate_ms;
    /** Set-up phases, ms: generator construction, frame generation
     *  (wall), encoder + decoder construction and the warm-up GOP. */
    double video_ms = 0.0, frames_ms = 0.0, warmup_ms = 0.0;
    std::unique_ptr<VideoEncoder> encoder;
    std::unique_ptr<VideoDecoder> decoder;
    /** The warm-up GOP: encoded and decoded once in set-up, then
     *  used as the reference every later cycle must reproduce. */
    std::vector<EncodedFrame> warm_encoded;
    std::vector<DecodedFrame> warm_decoded;
    std::string error;
};

std::unique_ptr<PaperSetup>
setUp(const Options &options, const CodecConfig &config)
{
    auto setup = std::make_unique<PaperSetup>();
    setup->pool = std::make_unique<ScopedGlobalPool>(options.threads);
    VideoSpec spec;
    spec.name = "perfbench";
    spec.seed = options.seed;
    spec.target_points = options.tiny ? 20000 : 750000;
    spec.num_frames = kDistinctFrames;
    const double t0 = nowMs();
    const SyntheticHumanVideo video(spec);
    const double t1 = nowMs();
    generateFrames(video, kDistinctFrames, options.threads, &setup->frames,
                   &setup->generate_ms);
    const double t2 = nowMs();
    setup->video_ms = t1 - t0;
    setup->frames_ms = t2 - t1;
    setup->encoder = std::make_unique<VideoEncoder>(config);
    setup->decoder = std::make_unique<VideoDecoder>();
    for (const VoxelCloud &frame : setup->frames) {
        auto encoded = setup->encoder->encode(frame);
        if (!encoded) {
            setup->error = "warm-up encode: " + encoded.status().toString();
            return setup;
        }
        auto decoded = setup->decoder->decode(encoded->bitstream);
        if (!decoded) {
            setup->error = "warm-up decode: " + decoded.status().toString();
            return setup;
        }
        setup->warm_encoded.push_back(encoded.takeValue());
        setup->warm_decoded.push_back(decoded.takeValue());
    }
    setup->warmup_ms = nowMs() - t2;
    return setup;
}

/** What one loop phase measured. */
struct Phase {
    SequenceTotals calls;
    /** encode + decode wall time per frame. */
    std::vector<double> frame_ms;
};

}  // namespace

Result
runPaper(const Options &options, bool inter)
{
    Result result;
    if (options.trace)
        zeroPerLayer(result);
    const CodecConfig config =
        inter ? makeIntraInterV1Config() : makeIntraOnlyConfig();

    std::vector<double> setup_ms, generate_ms;
    std::unique_ptr<PaperSetup> setup = setUpRepeatedly(
        [&] { return setUp(options, config); }, result, &setup_ms,
        &generate_ms);
    if (!setup)
        return result;
    const std::vector<VoxelCloud> &frames = setup->frames;
    result.diagnostics["setup.video_ms"] = setup->video_ms;
    result.diagnostics["setup.frames_ms"] = setup->frames_ms;
    result.diagnostics["setup.warmup_ms"] = setup->warmup_ms;

    // ----- Reference GOP: geometry round trip, quality, digests.
    std::vector<std::uint64_t> ref_bitstream, ref_cloud;
    std::vector<double> psnr;
    std::uint64_t gop_bytes = 0, gop_points = 0;
    for (int f = 0; f < kDistinctFrames; ++f) {
        const EncodedFrame &encoded = setup->warm_encoded[f];
        const VoxelCloud &decoded = setup->warm_decoded[f].cloud;
        result.check(sameVoxelSet(frames[f], decoded),
                     "lossless geometry round trip lost or added voxels");
        psnr.push_back(attributePsnr(frames[f], decoded).psnr);
        ref_bitstream.push_back(digestBytes(encoded.bitstream.data(),
                                            encoded.bitstream.size()));
        ref_cloud.push_back(digestCloud(decoded));
        gop_bytes += encoded.bitstream.size();
        gop_points += frames[f].size();
    }
    std::uint64_t gop_digest = digestBytes(nullptr, 0);
    for (std::uint64_t d : ref_bitstream)
        gop_digest = digestBytes(&d, sizeof d, gop_digest);
    result.digests["gop_bitstreams"] = hexDigest(gop_digest);
    const double mean_psnr = mean(psnr);
    const double floor = inter ? kPsnrFloorV1 : kPsnrFloorIntra;
    result.check(mean_psnr >= floor,
                 "attr_psnr_db " + std::to_string(mean_psnr) +
                     " below the floor " + std::to_string(floor));

    // ----- Closed loop: untraced phase, then (traced run) the traced
    // phase with spans and replays.
    VideoEncoder &encoder = *setup->encoder;
    VideoDecoder &decoder = *setup->decoder;
    SpanLog &log = result.spans;
    ReplayState replay;
    Phase untraced, traced;
    const EdgeDeviceModel model;
    std::uint32_t index = 0;

    const auto step = [&](bool tracing) {
        const int slot = static_cast<int>(index % kDistinctFrames);
        const VoxelCloud &frame = frames[slot];
        std::optional<VideoEncoder::StateSnapshot> snapshot;
        if (tracing && inter && slot != 0)
            snapshot = encoder.snapshotState();
        ++result.attempted;

        const std::uint64_t a0 = heapAllocations();
        const double t0 = nowMs();
        auto encoded = encoder.encode(frame);
        const double t1 = nowMs();
        std::vector<std::uint8_t> damaged;
        const bool corrupt_now = options.corrupt && index == 1;
        if (encoded && corrupt_now) {
            damaged = encoded->bitstream;
            damaged[damaged.size() / 2] ^= 0x5a;
        }
        const double t2 = nowMs();
        auto decoded = encoded ? decoder.decode(corrupt_now
                                                    ? damaged
                                                    : encoded->bitstream)
                               : Expected<DecodedFrame>(encoded.status());
        const double t3 = nowMs();
        const std::uint64_t a2 = heapAllocations();

        if (!encoded || !decoded) {
            ++result.failed;
            if (result.check_failures.size() < 16)
                result.check(false, "frame " + std::to_string(index) +
                                        ": " +
                                        decoded.status().toString());
            encoder.reset();
            decoder.reset();
            replay.has_reference = false;
            index += kDistinctFrames - static_cast<std::uint32_t>(slot);
            return;
        }
        Phase &phase = tracing ? traced : untraced;
        phase.frame_ms.push_back((t1 - t0) + (t3 - t2));
        phase.calls.encode_ms.push_back(t1 - t0);
        phase.calls.decode_ms.push_back(t3 - t2);
        phase.calls.allocs.push_back(static_cast<double>(a2 - a0));
        phase.calls.model_ms.push_back(
            model.evaluate(encoded->profile).modelSeconds() * 1e3);
        if (encoded->stats.type == Frame::Type::kPredicted) {
            phase.calls.reused_blocks +=
                encoded->stats.block_match.reused_blocks;
            phase.calls.matched_blocks +=
                encoded->stats.block_match.num_blocks;
        }

        const std::uint64_t cloud_digest = digestCloud(decoded->cloud);
        if (result.check_failures.size() < 16) {
            result.check(digestBytes(encoded->bitstream.data(),
                                     encoded->bitstream.size()) ==
                             ref_bitstream[slot],
                         "frame " + std::to_string(index) +
                             ": bitstream differs from the same frame "
                             "in the warm-up GOP");
            result.check(cloud_digest == ref_cloud[slot],
                         "frame " + std::to_string(index) +
                             ": decoded frame differs from the same "
                             "frame in the warm-up GOP");
        }

        if (tracing) {
            const int root = log.add("frame", t0, t3, -1, index);
            log.add("core.encode", t0, t1, root, index);
            log.add("core.decode", t2, t3, root, index);
            CodecCall call;
            call.frame = &frame;
            call.config = &config;
            call.stats = &encoded->stats;
            call.encoder_reference =
                snapshot ? &snapshot->reference : nullptr;
            call.decoded_digest = cloud_digest;
            const int replay_root = log.open("replay", -1, index);
            replayCodec(call, replay, log, replay_root, index, result);
            result.check(replayStream(encoded->bitstream,
                                      encoded->stats.type, options.seed,
                                      false, log, replay_root, index),
                         "transport replay of frame " +
                             std::to_string(index) +
                             ": reassembled payload differs from the "
                             "bitstream");
            log.close(replay_root);
        }
        ++index;
    };

    const double untraced_ms =
        (options.trace ? 0.5 : 1.0) * options.seconds * 1e3;
    resetHeapPeak();
    const double start = nowMs();
    while (nowMs() - start < untraced_ms || untraced.frame_ms.size() < 4)
        step(false);
    const double loop_heap_mb = heapPeakMb();
    if (options.trace) {
        // The traced phase starts on an I frame so the replay has its
        // own reference before the first P frame.
        while (index % kDistinctFrames != 0)
            step(false);
        const double traced_start = nowMs();
        while (nowMs() - traced_start < untraced_ms ||
               traced.frame_ms.size() < kDistinctFrames)
            step(true);
    }

    // ----- Byte identity between the full pool and pool size 0.
    std::vector<VoxelCloud> kept_frames = std::move(setup->frames);
    setup.reset();
    {
        ScopedGlobalPool inline_pool(0);
        VideoEncoder inline_encoder(config);
        for (int f = 0; f < kInlinePrefix; ++f) {
            auto encoded = inline_encoder.encode(kept_frames[f]);
            result.check(encoded && digestBytes(encoded->bitstream.data(),
                                                encoded->bitstream.size()) ==
                                        ref_bitstream[f],
                         "bitstream of frame " + std::to_string(f) +
                             " differs between pool size 0 and " +
                             std::to_string(options.threads));
        }
    }

    // The codec calls' own figures: per-layer metrics of a traced
    // run, diag lines of an untraced one.
    Result calls;
    sequenceMetrics(untraced.calls, calls);
    for (const auto &[name, metric] : calls.metrics) {
        if (options.trace)
            result.metrics[name] = metric;
        else
            result.diagnostics[name] = metric.value;
    }
    result.diagnostics["encode_tail_percentile"] =
        calls.diagnostics["encode_tail_percentile"];
    result.diagnostics["frames"] = static_cast<double>(
        untraced.frame_ms.size() + traced.frame_ms.size());
    result.diagnostics["untraced_frames"] =
        static_cast<double>(untraced.frame_ms.size());
    result.diagnostics["peak_rss_mb"] = peakRssMb();
    result.diagnostics["drift_ratio"] = driftRatio(untraced.frame_ms);
    result.diagnostics["psnr_floor_db"] = floor;

    if (!options.trace) {
        // Throughput of the typical GOP: the loop cycles the GOP's
        // frames, so its typical cycle is the sum of each position's
        // median (robust to one stalled frame, unlike a mean).
        double cycle_ms = 0.0;
        for (int slot = 0; slot < kDistinctFrames; ++slot) {
            std::vector<double> at_slot;
            for (std::size_t k = static_cast<std::size_t>(slot);
                 k < untraced.frame_ms.size(); k += kDistinctFrames)
                at_slot.push_back(untraced.frame_ms[k]);
            cycle_ms += median(at_slot);
        }
        result.set("setup_s", median(setup_ms) / 1e3, "s");
        result.set("frames_per_s", kDistinctFrames / (cycle_ms / 1e3),
                   "1/s");
        result.set("frame_ms_p50", median(untraced.frame_ms), "ms");
        result.set("bytes_per_point",
                   static_cast<double>(gop_bytes) /
                       static_cast<double>(gop_points),
                   "B");
        result.set("attr_psnr_db", mean_psnr, "dB");
        result.set("peak_heap_mb", loop_heap_mb, "MiB");
        return result;
    }

    codecLayerMetrics(log, result);
    transportLayerMetrics(log, result);
    loopMetrics(generate_ms, untraced.frame_ms, traced.frame_ms, result);
    // The self times must cover the traced frame exactly; they then
    // differ from the untraced frame by the tracing overhead.
    const double traced_frame_ms = mean(traced.frame_ms);
    result.check(std::abs(result.diagnostics["self_ms.total"] -
                          traced_frame_ms) <= 1e-6 * traced_frame_ms,
                 "layer self times do not add up to the traced frame");
    result.diagnostics["accounting.traced_frame_ms"] = traced_frame_ms;
    result.diagnostics["accounting.untraced_frame_ms"] =
        mean(untraced.frame_ms);
    return result;
}

}  // namespace perfbench
