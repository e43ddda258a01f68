/**
 * @file
 * serve-fleet: eight Intra-Inter-V1 tenants through
 * ServeScheduler::run on two replicas, with the crash-secondary
 * fault preset and checkpointing. Tenants share content in pairs, so
 * the reference cache can serve half the frames. One iteration of
 * the closed loop is one whole fleet run; the schedule runs on the
 * virtual device clock, so every run must reproduce the warm-up run
 * exactly.
 */

#include <algorithm>
#include <memory>

#include "edgepcc/core/codec_config.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/parallel/thread_pool.h"
#include "edgepcc/serve/serve_scheduler.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using namespace edgepcc;
using namespace edgepcc::serve;

namespace {

constexpr int kTenants = 8;
/** Distinct contents: tenants 2c and 2c + 1 share content c. */
constexpr int kContents = kTenants / 2;
/** Lowest acceptable mean PSNR of the served frames, ~2.5 dB below
 *  what the workload measures. */
constexpr double kPsnrFloor = 45.0;

ServeConfig
fleetConfig()
{
    ServeConfig fleet;
    // Admit everyone: the workload measures serving, not rejection.
    fleet.admission_utilization_cap = 1e9;
    fleet.replicas = 2;
    // crash-secondary's crash of replica 1, moved from 60 ms to 1.9 s
    // of device time (the last ~3 frames). At 60 ms the failover
    // splits content pairs apart on frame 2 or not, depending on
    // where admission placed them, so the cache served 7 or 124 of
    // 480 frames depending on the seed. At 1.9 s the same four
    // tenants fail over from checkpoints and the hit rate stays
    // near one half.
    DeviceFaultEvent crash;
    crash.kind = DeviceFaultKind::kCrash;
    crash.replica = 1;
    crash.at_s = 1.9;
    fleet.faults.events.push_back(crash);
    fleet.checkpoint_interval_frames = 2;
    return fleet;
}

/** Digest of every tenant's service record and the recovery trace. */
std::uint64_t
digestReport(const ServeReport &report)
{
    std::uint64_t hash = digestBytes(nullptr, 0);
    for (const TenantReport &tenant : report.tenants) {
        for (const ServedFrame &frame : tenant.frames) {
            const std::uint64_t fields[] = {
                frame.frame_id, static_cast<std::uint64_t>(frame.outcome),
                frame.bitstream.size()};
            hash = digestBytes(fields, sizeof fields, hash);
            hash = digestBytes(frame.bitstream.data(),
                               frame.bitstream.size(), hash);
        }
    }
    const std::string recovery = recoveryTraceString(report);
    return digestBytes(recovery.data(), recovery.size(), hash);
}

/** Frames the fleet did not serve: dropped, faulted, quarantined or
 *  shed. */
std::uint64_t
unservedFrames(const ServeReport &report)
{
    std::uint64_t unserved = 0;
    for (const TenantReport &tenant : report.tenants)
        unserved += tenant.stats.dropped + tenant.stats.faulted +
                    tenant.stats.quarantined + tenant.stats.shed;
    return unserved;
}

struct FleetSetup {
    std::unique_ptr<ScopedGlobalPool> pool;
    /** contents[c]: the frames tenants 2c and 2c + 1 stream. */
    std::vector<std::vector<VoxelCloud>> contents;
    std::vector<double> generate_ms;
    std::vector<TenantSpec> tenants;
    /** The warm-up run, the reference later runs repeat. */
    ServeReport warm;
    std::string error;
};

std::unique_ptr<FleetSetup>
setUp(const Options &options, const CodecConfig &codec)
{
    auto setup = std::make_unique<FleetSetup>();
    setup->pool = std::make_unique<ScopedGlobalPool>(options.threads);
    for (int c = 0; c < kContents; ++c) {
        VideoSpec spec;
        spec.name = "perfbench-serve";
        spec.seed = options.seed * 1000 + static_cast<std::uint64_t>(c);
        spec.target_points = options.tiny ? 1000 : 7500;
        spec.num_frames = options.tiny ? 12 : 60;
        const SyntheticHumanVideo video(spec);
        std::vector<double> ms;
        setup->contents.emplace_back();
        generateFrames(video, spec.num_frames, options.threads,
                       &setup->contents.back(), &ms);
        setup->generate_ms.insert(setup->generate_ms.end(), ms.begin(),
                                  ms.end());
    }
    for (int t = 0; t < kTenants; ++t) {
        TenantSpec tenant;
        tenant.name = "tenant-" + std::to_string(t);
        tenant.codec = codec;
        tenant.frames = setup->contents[static_cast<std::size_t>(t / 2)];
        tenant.deadline_class =
            static_cast<DeadlineClass>(t % kDeadlineClassCount);
        tenant.weight = 1.0 + static_cast<double>(t % 2);
        tenant.arrival_offset_s = 0.004 * static_cast<double>(t);
        tenant.queue_capacity = 64;
        setup->tenants.push_back(std::move(tenant));
    }
    auto report = ServeScheduler(fleetConfig(), setup->tenants).run();
    if (!report)
        setup->error = "warm-up fleet run: " + report.status().toString();
    else
        setup->warm = report.takeValue();
    return setup;
}

}  // namespace

Result
runServeFleet(const Options &options)
{
    Result result;
    if (options.trace)
        zeroPerLayer(result);
    const CodecConfig codec = makeIntraInterV1Config();

    std::vector<double> setup_ms, generate_ms;
    std::unique_ptr<FleetSetup> setup = setUpRepeatedly(
        [&] { return setUp(options, codec); }, result, &setup_ms,
        &generate_ms);
    if (!setup)
        return result;
    const ServeReport warm = std::move(setup->warm);

    // ----- Reference run: frame conservation, then every tenant's
    // served bitstreams decoded in order: lossless geometry and
    // quality above the floor.
    std::size_t offered = 0, served = 0, cache_hits = 0;
    std::uint64_t served_bytes = 0, served_points = 0;
    std::vector<double> psnr;
    double tail_model_ms = 0.0;
    result.check(warm.tenants.size() == kTenants,
                 "fleet reported a different number of tenants");
    for (std::size_t t = 0; t < warm.tenants.size(); ++t) {
        const TenantReport &tenant = warm.tenants[t];
        const TenantStats &s = tenant.stats;
        const std::vector<VoxelCloud> &input = setup->contents[t / 2];
        offered += s.frames;
        served += s.served;
        cache_hits += s.cache_hits;
        result.check(s.frames == input.size() &&
                         s.served + s.dropped + s.faulted + s.quarantined +
                                 s.shed ==
                             s.frames &&
                         s.served == s.encoded + s.cache_hits,
                     tenant.name + ": served + shed + dropped + faulted "
                                   "!= offered");
        double percentile = 0.0;
        tail_model_ms = std::max(
            tail_model_ms, tailValue(s.latency_s, kTailBeyond, &percentile) * 1e3);
        VideoDecoder decoder;
        for (const ServedFrame &frame : tenant.frames) {
            if ((frame.outcome != ServeOutcome::kEncoded &&
                 frame.outcome != ServeOutcome::kCacheHit) ||
                frame.frame_id >= input.size())
                continue;
            std::vector<std::uint8_t> bitstream = frame.bitstream;
            // Injected damage lands in the geometry payload, which
            // the lossless round trip below must catch.
            if (options.corrupt && t == 0 && frame.frame_id == 1)
                bitstream[std::min<std::size_t>(
                    16 + frame.stats.geometry_bytes / 2,
                    bitstream.size() - 1)] ^= 0x5a;
            auto decoded = decoder.decode(bitstream);
            const VoxelCloud &source = input[frame.frame_id];
            if (!decoded) {
                ++result.failed;
                result.check(false, tenant.name + " frame " +
                                        std::to_string(frame.frame_id) +
                                        ": " + decoded.status().toString());
                continue;
            }
            result.check(sameVoxelSet(source, decoded->cloud),
                         tenant.name + " frame " +
                             std::to_string(frame.frame_id) +
                             ": decoded geometry is not lossless");
            served_bytes += frame.bitstream.size();
            served_points += source.size();
            // Pair members serve the same content: one quality sample
            // per content is enough.
            if (t % 2 == 0)
                psnr.push_back(attributePsnr(source, decoded->cloud).psnr);
        }
    }
    const double mean_psnr = mean(psnr);
    result.check(mean_psnr >= kPsnrFloor,
                 "attr_psnr_db " + std::to_string(mean_psnr) +
                     " below the floor " + std::to_string(kPsnrFloor));
    const std::uint64_t reference = digestReport(warm);
    result.digests["fleet"] = hexDigest(reference);

    // ----- Closed loop over whole fleet runs. The scheduler takes its
    // tenants by value; the copy is made outside the timed call.
    SpanLog &log = result.spans;
    std::vector<double> untraced_ms, traced_ms;
    SequenceTotals totals;
    std::uint32_t next_id = 0;
    const auto step = [&](bool tracing) {
        result.attempted += offered;
        ServeScheduler scheduler(fleetConfig(), setup->tenants);
        const double t0 = nowMs();
        auto report = scheduler.run();
        const double t1 = nowMs();
        if (!report) {
            result.failed += offered;
            result.check(false, "fleet run: " + report.status().toString());
            return;
        }
        result.failed += unservedFrames(*report);
        result.check(digestReport(*report) == reference,
                     "fleet run differs from the warm-up run of the same "
                     "seed");
        (tracing ? traced_ms : untraced_ms).push_back(t1 - t0);
        if (!tracing)
            return;
        log.add("serve.run", t0, t1, -1, next_id++);
        // One content per traced run, in turn, replayed layer by layer.
        const std::size_t content = (traced_ms.size() - 1) % kContents;
        replaySequence(setup->contents[content], codec, true, options.seed,
                       false, &next_id, log, result, totals);
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

    // ----- Byte identity between the full pool and pool size 0.
    std::vector<TenantSpec> tenants = std::move(setup->tenants);
    setup.reset();
    {
        ScopedGlobalPool inline_pool(0);
        auto report = ServeScheduler(fleetConfig(), tenants).run();
        result.check(report && digestReport(*report) == reference,
                     "fleet run differs between pool size 0 and " +
                         std::to_string(options.threads));
    }

    result.diagnostics["runs"] =
        static_cast<double>(untraced_ms.size() + traced_ms.size());
    result.diagnostics["tenant_frames_per_run"] = static_cast<double>(offered);
    result.diagnostics["peak_rss_mb"] = peakRssMb();
    result.diagnostics["drift_ratio"] = driftRatio(untraced_ms);
    result.diagnostics["run_ms_p50"] = median(untraced_ms);
    result.diagnostics["cache_hits"] = static_cast<double>(cache_hits);

    if (!options.trace) {
        // Throughput of the median fleet run.
        result.set("setup_s", median(setup_ms) / 1e3, "s");
        result.set("frames_per_s",
                   static_cast<double>(served) / (median(untraced_ms) / 1e3),
                   "1/s");
        result.set("frame_ms_p50",
                   median(untraced_ms) / static_cast<double>(offered), "ms");
        result.set("bytes_per_point",
                   static_cast<double>(served_bytes) /
                       static_cast<double>(served_points),
                   "B");
        result.set("attr_psnr_db", mean_psnr, "dB");
        result.set("peak_heap_mb", loop_heap_mb, "MiB");
        return result;
    }

    codecLayerMetrics(log, result);
    transportLayerMetrics(log, result);
    sequenceMetrics(totals, result);
    loopMetrics(generate_ms, untraced_ms, traced_ms, result);
    result.set("serve.run_ms", median(log.durations("serve.run")), "ms");
    result.set("serve.cache_hit_rate",
               served == 0 ? 0.0
                           : static_cast<double>(cache_hits) /
                                 static_cast<double>(served),
               "1");
    result.set("serve.fairness_index", warm.fairness_index, "1");
    result.set("serve.failovers",
               static_cast<double>(warm.recovery.failovers), "count");
    std::size_t shed = 0;
    for (const TenantReport &tenant : warm.tenants)
        shed += tenant.stats.shed;
    result.set("serve.frames_shed", static_cast<double>(shed), "count");
    result.set("serve.checkpoints",
               static_cast<double>(warm.recovery.checkpoints), "count");
    result.set("serve.tenant_tail_model_ms", tail_model_ms, "model_ms");
    return result;
}

}  // namespace perfbench
