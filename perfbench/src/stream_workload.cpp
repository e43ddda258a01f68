/**
 * @file
 * lossy-stream: Intra-Inter-V1 frames through StreamSession::run
 * over a seeded lossy channel, MTU slicing and Reed-Solomon FEC
 * under the redundancy controller. One iteration of the closed loop
 * is one whole session; the channel is seeded, so every session of
 * a run must reproduce the warm-up session exactly.
 */

#include <algorithm>
#include <memory>

#include "edgepcc/core/codec_config.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/parallel/thread_pool.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/stream/stream_session.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using namespace edgepcc;

namespace {

/** Lowest acceptable mean PSNR over presentable frames (concealed
 *  frames included), ~3 dB below what the workload measures. */
constexpr double kPsnrFloor = 43.0;

SessionConfig
sessionConfig(std::uint64_t seed)
{
    SessionConfig session;
    session.channel = ChannelSpec::bursty(0.03, 4, seed);
    session.channel.bit_flip_rate = 0.01;
    session.channel.truncate_rate = 0.01;
    session.channel.reorder_rate = 0.02;
    session.channel.duplicate_rate = 0.01;
    session.mtu_payload = kReplayMtu;
    session.fec.enabled = true;
    session.fec.scheme = FecScheme::kReedSolomon;
    session.fec.group_size = kReplayGroup;
    session.fec.parity_chunks = kReplayParity;
    session.redundancy.enabled = true;
    // The paper's IPP GOP, as in the paper workloads. Left free, the
    // controller's GOP length (1..12) follows the loss history, and
    // with it the I/P mix and the cost of a session, which then
    // differs by ~20% from seed to seed.
    session.redundancy.min_gop_size = 3;
    session.redundancy.max_gop_size = 3;
    return session;
}

/** Digest of everything a session reports per frame. */
std::uint64_t
digestReport(const SessionReport &report)
{
    std::uint64_t hash = digestBytes(nullptr, 0);
    for (const SessionFrame &frame : report.frames) {
        const std::uint64_t fields[] = {
            frame.frame_id,
            static_cast<std::uint64_t>(frame.outcome),
            static_cast<std::uint64_t>(frame.type),
            static_cast<std::uint64_t>(frame.retransmits),
            frame.payload_bytes,
            frame.wire_bytes,
            digestCloud(frame.cloud),
        };
        hash = digestBytes(fields, sizeof fields, hash);
    }
    return hash;
}

struct StreamSetup {
    std::unique_ptr<ScopedGlobalPool> pool;
    std::vector<VoxelCloud> frames;
    std::vector<double> generate_ms;
    std::unique_ptr<StreamSession> session;
    /** The warm-up session, the reference later sessions repeat. */
    SessionReport warm;
    std::string error;
};

std::unique_ptr<StreamSetup>
setUp(const Options &options, const CodecConfig &codec)
{
    auto setup = std::make_unique<StreamSetup>();
    setup->pool = std::make_unique<ScopedGlobalPool>(options.threads);
    VideoSpec spec;
    spec.name = "perfbench-stream";
    spec.seed = options.seed;
    spec.target_points = options.tiny ? 3000 : 30000;
    spec.num_frames = options.tiny ? 12 : 60;
    const SyntheticHumanVideo video(spec);
    generateFrames(video, spec.num_frames, options.threads, &setup->frames,
                   &setup->generate_ms);
    setup->session = std::make_unique<StreamSession>(
        codec, sessionConfig(options.seed));
    auto report = setup->session->run(setup->frames);
    if (!report)
        setup->error = "warm-up session: " + report.status().toString();
    else
        setup->warm = report.takeValue();
    return setup;
}

}  // namespace

Result
runLossyStream(const Options &options)
{
    Result result;
    if (options.trace)
        zeroPerLayer(result);
    const CodecConfig codec = makeIntraInterV1Config();

    std::vector<double> setup_ms, generate_ms;
    std::unique_ptr<StreamSetup> setup = setUpRepeatedly(
        [&] { return setUp(options, codec); }, result, &setup_ms,
        &generate_ms);
    if (!setup)
        return result;
    const std::vector<VoxelCloud> &frames = setup->frames;
    const SessionReport warm = std::move(setup->warm);
    const std::size_t n = frames.size();

    // ----- Reference session: every frame accounted, geometry of
    // intact frames lossless, presentable quality above the floor.
    result.check(warm.frames.size() == n,
                 "session returned a different number of frames");
    std::vector<double> psnr;
    std::uint64_t payload_bytes = 0, points = 0;
    for (const SessionFrame &frame : warm.frames) {
        if (frame.frame_id >= n)
            continue;
        const VoxelCloud &input = frames[frame.frame_id];
        payload_bytes += frame.payload_bytes;
        points += input.size();
        if (frame.outcome == FrameOutcome::kSkipped)
            continue;
        if (frame.outcome == FrameOutcome::kOk ||
            frame.outcome == FrameOutcome::kResynced)
            result.check(sameVoxelSet(input, frame.cloud),
                         "frame " + std::to_string(frame.frame_id) +
                             ": delivered geometry is not lossless");
        psnr.push_back(attributePsnr(input, frame.cloud).psnr);
    }
    const double mean_psnr = mean(psnr);
    result.check(mean_psnr >= kPsnrFloor,
                 "attr_psnr_db " + std::to_string(mean_psnr) +
                     " below the floor " + std::to_string(kPsnrFloor));
    const std::uint64_t reference = digestReport(warm);
    result.digests["session"] = hexDigest(reference);

    // ----- Closed loop over whole sessions.
    SpanLog &log = result.spans;
    std::vector<double> untraced_ms, traced_ms, unattributed_ms;
    SequenceTotals totals;
    std::uint32_t next_id = 0;
    const auto step = [&](bool tracing) {
        result.attempted += n;
        const double t0 = nowMs();
        auto report = setup->session->run(frames);
        const double t1 = nowMs();
        if (!report) {
            result.failed += n;
            result.check(false, "session: " + report.status().toString());
            return;
        }
        result.check(digestReport(*report) == reference,
                     "session differs from the warm-up session of the "
                     "same seed");
        (tracing ? traced_ms : untraced_ms).push_back(t1 - t0);
        if (!tracing)
            return;
        log.add("stream.session", t0, t1, -1, next_id);
        const double before = totals.codec_and_transport_ms;
        replaySequence(frames, codec, true, options.seed,
                       options.corrupt && traced_ms.size() == 1, &next_id,
                       log, result, totals);
        unattributed_ms.push_back(
            ((t1 - t0) - (totals.codec_and_transport_ms - before)) /
            static_cast<double>(n));
    };
    const double phase_ms =
        (options.trace ? 0.5 : 1.0) * options.seconds * 1e3;
    resetHeapPeak();
    double start = nowMs();
    while (nowMs() - start < phase_ms || untraced_ms.size() < 3)
        step(false);
    const double loop_heap_mb = heapPeakMb();
    start = nowMs();
    while (options.trace &&
           (nowMs() - start < phase_ms || traced_ms.size() < 1))
        step(true);

    // ----- An untraced run still checks the transport replay, on the
    // first GOPs.
    if (!options.trace) {
        SpanLog scratch;
        SequenceTotals ignored;
        const std::vector<VoxelCloud> head(
            frames.begin(), frames.begin() + std::min<std::ptrdiff_t>(
                                                 6, static_cast<std::ptrdiff_t>(n)));
        replaySequence(head, codec, true, options.seed, options.corrupt,
                       &next_id, scratch, result, ignored);
    }

    // ----- Byte identity between the full pool and pool size 0, on
    // a prefix of the stream.
    const std::vector<VoxelCloud> prefix(
        frames.begin(), frames.begin() + static_cast<std::ptrdiff_t>(n / 5));
    auto pooled = setup->session->run(prefix);
    std::vector<VoxelCloud> kept_frames = std::move(setup->frames);
    setup.reset();
    {
        ScopedGlobalPool inline_pool(0);
        StreamSession session(codec, sessionConfig(options.seed));
        auto inline_report = session.run(prefix);
        result.check(pooled && inline_report &&
                         digestReport(*pooled) == digestReport(*inline_report),
                     "session differs between pool size 0 and " +
                         std::to_string(options.threads));
    }

    result.diagnostics["sessions"] =
        static_cast<double>(untraced_ms.size() + traced_ms.size());
    result.diagnostics["frames_per_session"] = static_cast<double>(n);
    result.diagnostics["peak_rss_mb"] = peakRssMb();
    result.diagnostics["drift_ratio"] = driftRatio(untraced_ms);
    result.diagnostics["session_ms_p50"] = median(untraced_ms);
    result.diagnostics["frames_ok"] = static_cast<double>(warm.stats.frames_ok);
    result.diagnostics["frames_skipped"] =
        static_cast<double>(warm.stats.frames_skipped);
    result.diagnostics["multi_loss_groups"] =
        static_cast<double>(warm.fec.multi_loss_groups);
    result.diagnostics["multi_loss_recovered"] =
        static_cast<double>(warm.fec.multi_loss_recovered);

    if (!options.trace) {
        // Throughput of the median session.
        result.set("setup_s", median(setup_ms) / 1e3, "s");
        result.set("frames_per_s",
                   static_cast<double>(n) / (median(untraced_ms) / 1e3),
                   "1/s");
        result.set("frame_ms_p50",
                   median(untraced_ms) / static_cast<double>(n), "ms");
        result.set("bytes_per_point",
                   static_cast<double>(payload_bytes) /
                       static_cast<double>(points),
                   "B");
        result.set("attr_psnr_db", mean_psnr, "dB");
        result.set("peak_heap_mb", loop_heap_mb, "MiB");
        return result;
    }

    codecLayerMetrics(log, result);
    transportLayerMetrics(log, result);
    result.set("stream.session_unattributed_ms", median(unattributed_ms),
               "ms");
    sequenceMetrics(totals, result);
    loopMetrics(generate_ms, untraced_ms, traced_ms, result);
    result.set("stream.wire_bytes_per_frame",
               static_cast<double>(warm.stats.wire_bytes) /
                   static_cast<double>(n),
               "B");
    result.set("stream.retransmits",
               static_cast<double>(warm.stats.retransmits), "count");
    result.set("stream.parity_chunks",
               static_cast<double>(warm.stats.parity_sent), "count");
    result.set("stream.fec_recovered_chunks",
               static_cast<double>(warm.fec.recovered_chunks), "count");
    result.set("stream.frames_concealed",
               static_cast<double>(warm.stats.frames_concealed), "count");
    result.set("stream.frames_resynced",
               static_cast<double>(warm.stats.frames_resynced), "count");
    result.set("stream.frames_skipped",
               static_cast<double>(warm.stats.frames_skipped), "count");
    result.set("stream.keyframes_forced",
               static_cast<double>(warm.stats.keyframes_forced), "count");
    result.set("stream.multi_loss_recovered_fraction",
               warm.fec.multiLossRecoveredFraction(), "1");
    return result;
}

}  // namespace perfbench
