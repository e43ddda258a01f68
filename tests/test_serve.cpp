/**
 * @file
 * Serve-layer tests: Jain fairness math, deadline classes, the
 * pinned DRR schedule trace for a seeded 4-tenant mix, per-tenant
 * byte-identity against solo-session encodes, admission-rejection
 * ordering, reference-cache hit accounting, queue backpressure, and
 * the DRR quantum-bound property sweep over seeded tenant mixes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/parallel/thread_pool.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/serve/reference_cache.h"
#include "edgepcc/serve/serve_scheduler.h"

namespace edgepcc {
namespace serve {
namespace {

std::vector<VoxelCloud>
testVideo(int num_frames, std::uint64_t seed = 91,
          std::size_t points = 2500)
{
    VideoSpec spec;
    spec.name = "serve-test";
    spec.seed = seed;
    spec.target_points = points;
    SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    frames.reserve(static_cast<std::size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f)
        frames.push_back(video.frame(f));
    return frames;
}

TenantSpec
makeTenant(const std::string &name, std::uint64_t seed,
           DeadlineClass deadline_class, int num_frames = 3)
{
    TenantSpec tenant;
    tenant.name = name;
    tenant.codec = makeIntraOnlyConfig();
    tenant.frames = testVideo(num_frames, seed);
    tenant.deadline_class = deadline_class;
    tenant.queue_capacity = 64;  // roomy: no drops unless asked
    return tenant;
}

/** Reference encode: the tenant alone on a fresh encoder. */
std::vector<std::vector<std::uint8_t>>
soloBitstreams(const TenantSpec &tenant)
{
    VideoEncoder encoder(tenant.codec);
    std::vector<std::vector<std::uint8_t>> out;
    for (const VoxelCloud &frame : tenant.frames) {
        auto encoded = encoder.encode(frame);
        EXPECT_TRUE(encoded.hasValue());
        out.push_back(encoded->bitstream);
    }
    return out;
}

const TenantReport &
tenantNamed(const ServeReport &report, const std::string &name)
{
    for (const TenantReport &tenant : report.tenants) {
        if (tenant.name == name)
            return tenant;
    }
    ADD_FAILURE() << "no tenant named " << name;
    static const TenantReport missing;
    return missing;
}

/** Probe utilization exactly the way admission control does. */
double
probeUtilization(const TenantSpec &tenant, const DeviceSpec &device)
{
    VideoEncoder probe(tenant.codec);
    auto encoded = probe.encode(tenant.frames.front());
    EXPECT_TRUE(encoded.hasValue());
    const EdgeDeviceModel model(device);
    return model.evaluate(encoded->profile).modelSeconds() *
           tenant.fps;
}

/** Large-quantum config: every backlogged tenant proceeds each
 *  round, so structural behavior is isolated from DRR pacing. */
ServeConfig
roomyConfig()
{
    ServeConfig config;
    config.quantum_s = 10.0;
    config.batch_max = 8;
    return config;
}

// -----------------------------------------------------------------
// Pure helpers
// -----------------------------------------------------------------

TEST(ServeHelpersTest, JainFairnessIndex)
{
    EXPECT_DOUBLE_EQ(jainFairnessIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairnessIndex({0.0, 0.0}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairnessIndex({3.0, 3.0, 3.0, 3.0}), 1.0);
    // One tenant hogging everything: 1/n.
    EXPECT_DOUBLE_EQ(jainFairnessIndex({5.0, 0.0, 0.0, 0.0}), 0.25);
    const double two_to_one = jainFairnessIndex({2.0, 1.0});
    EXPECT_GT(two_to_one, 0.25);
    EXPECT_LT(two_to_one, 1.0);
}

TEST(ServeHelpersTest, DeadlineClassNamesAndSlack)
{
    EXPECT_STREQ(deadlineClassName(DeadlineClass::kInteractive),
                 "interactive");
    EXPECT_STREQ(deadlineClassName(DeadlineClass::kStandard),
                 "standard");
    EXPECT_STREQ(deadlineClassName(DeadlineClass::kBulk), "bulk");
    EXPECT_DOUBLE_EQ(deadlineClassSlack(DeadlineClass::kInteractive),
                     1.0);
    EXPECT_DOUBLE_EQ(deadlineClassSlack(DeadlineClass::kStandard),
                     2.0);
    EXPECT_DOUBLE_EQ(deadlineClassSlack(DeadlineClass::kBulk), 4.0);
}

TEST(ServeHelpersTest, TraceStringMarksOutcomes)
{
    ServeReport report;
    report.trace.push_back({"A", 0, ServeOutcome::kEncoded, false});
    report.trace.push_back({"B", 1, ServeOutcome::kCacheHit, false});
    report.trace.push_back({"C", 2, ServeOutcome::kEncoded, true});
    report.trace.push_back({"A", 3, ServeOutcome::kDropped, false});
    EXPECT_EQ(traceString(report), "A0 B1* C2! A3-");
}

TEST(ServeHelpersTest, OutcomeNames)
{
    EXPECT_STREQ(serveOutcomeName(ServeOutcome::kEncoded),
                 "encoded");
    EXPECT_STREQ(serveOutcomeName(ServeOutcome::kCacheHit),
                 "cache-hit");
    EXPECT_STREQ(serveOutcomeName(ServeOutcome::kDropped),
                 "dropped");
}

// -----------------------------------------------------------------
// Reference cache unit behavior
// -----------------------------------------------------------------

TEST(ReferenceCacheTest, DigestsSeparateContentAndConfig)
{
    const std::vector<VoxelCloud> a = testVideo(2, 7);
    const std::vector<VoxelCloud> b = testVideo(2, 8);
    EXPECT_EQ(cloudDigest(a[0]), cloudDigest(a[0]));
    EXPECT_NE(cloudDigest(a[0]), cloudDigest(a[1]));
    EXPECT_NE(cloudDigest(a[0]), cloudDigest(b[0]));

    const CodecConfig intra = makeIntraOnlyConfig();
    CodecConfig coarse = intra;
    coarse.segment.quant_step += 1;
    EXPECT_EQ(codecConfigDigest(intra),
              codecConfigDigest(makeIntraOnlyConfig()));
    EXPECT_NE(codecConfigDigest(intra), codecConfigDigest(coarse));

    // Stream keys chain: same digest folded into different
    // prefixes must not collide back together.
    const std::uint64_t digest = cloudDigest(a[0]);
    EXPECT_NE(chainStreamKey(codecConfigDigest(intra), digest),
              chainStreamKey(codecConfigDigest(coarse), digest));
}

TEST(ReferenceCacheTest, LruEvictionAndStats)
{
    ReferenceCache cache(2);
    EXPECT_EQ(cache.find(1), nullptr);

    CacheEntry entry;
    entry.bitstream = {0x01};
    entry.device_cost_s = 0.5;
    cache.insert(1, entry);
    cache.insert(2, entry);
    ASSERT_NE(cache.find(1), nullptr);  // 1 now most recent
    cache.insert(3, entry);             // evicts 2
    EXPECT_EQ(cache.find(2), nullptr);
    ASSERT_NE(cache.find(1), nullptr);
    ASSERT_NE(cache.find(3), nullptr);

    cache.recordSavings(0.25);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 5u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.insertions, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_DOUBLE_EQ(stats.saved_device_s, 0.25);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 3.0 / 5.0);
}

// -----------------------------------------------------------------
// Scheduler validation
// -----------------------------------------------------------------

TEST(ServeSchedulerTest, RejectsInvalidInput)
{
    {
        ServeScheduler scheduler(ServeConfig{}, {});
        EXPECT_FALSE(scheduler.run().hasValue());
    }
    {
        TenantSpec nameless = makeTenant("", 1, DeadlineClass::kStandard);
        ServeScheduler scheduler(ServeConfig{}, {nameless});
        EXPECT_FALSE(scheduler.run().hasValue());
    }
    {
        TenantSpec empty = makeTenant("A", 1, DeadlineClass::kStandard);
        empty.frames.clear();
        ServeScheduler scheduler(ServeConfig{}, {empty});
        EXPECT_FALSE(scheduler.run().hasValue());
    }
    {
        TenantSpec bad = makeTenant("A", 1, DeadlineClass::kStandard);
        bad.weight = 0.0;
        ServeScheduler scheduler(ServeConfig{}, {bad});
        EXPECT_FALSE(scheduler.run().hasValue());
    }
    {
        std::vector<TenantSpec> twins = {
            makeTenant("A", 1, DeadlineClass::kStandard),
            makeTenant("A", 2, DeadlineClass::kStandard)};
        ServeScheduler scheduler(ServeConfig{}, std::move(twins));
        EXPECT_FALSE(scheduler.run().hasValue());
    }
    {
        ServeConfig config;
        config.quantum_s = 0.0;
        ServeScheduler scheduler(
            config, {makeTenant("A", 1, DeadlineClass::kStandard)});
        EXPECT_FALSE(scheduler.run().hasValue());
    }
    {
        // An out-of-range batch size is an error.
        ServeConfig config;
        config.batch_max = 0;
        auto report = ServeScheduler(
            config, {makeTenant("A", 1, DeadlineClass::kStandard)})
                          .run();
        ASSERT_FALSE(report.hasValue());
        EXPECT_EQ(report.status().code(),
                  StatusCode::kInvalidArgument);
    }
    {
        // So is a negative queue capacity.
        TenantSpec negative =
            makeTenant("A", 1, DeadlineClass::kStandard);
        negative.queue_capacity = -1;
        auto report = ServeScheduler(ServeConfig{}, {negative}).run();
        ASSERT_FALSE(report.hasValue());
        EXPECT_EQ(report.status().code(),
                  StatusCode::kInvalidArgument);
    }
}

// -----------------------------------------------------------------
// Byte-identity: solo and mixed runs
// -----------------------------------------------------------------

TEST(ServeSchedulerTest, SoloRunMatchesDirectEncode)
{
    TenantSpec tenant = makeTenant("A", 31, DeadlineClass::kStandard, 4);
    const auto solo = soloBitstreams(tenant);

    ServeScheduler scheduler(roomyConfig(), {tenant});
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());

    const TenantReport &served = tenantNamed(*report, "A");
    EXPECT_TRUE(served.admitted);
    EXPECT_EQ(served.stats.dropped, 0u);
    ASSERT_EQ(served.frames.size(), solo.size());
    for (std::size_t f = 0; f < solo.size(); ++f) {
        EXPECT_EQ(served.frames[f].frame_id, f);
        EXPECT_EQ(served.frames[f].outcome, ServeOutcome::kEncoded);
        EXPECT_EQ(served.frames[f].bitstream, solo[f])
            << "frame " << f << " diverged from the solo encode";
    }
}

/** The acceptance invariant: each tenant's bitstream under the
 *  4-tenant mix is byte-identical to its solo-session encode. */
TEST(ServeSchedulerTest, MixPreservesPerTenantByteIdentity)
{
    std::vector<TenantSpec> tenants = {
        makeTenant("A", 11, DeadlineClass::kInteractive, 4),
        makeTenant("B", 22, DeadlineClass::kStandard, 4),
        makeTenant("C", 33, DeadlineClass::kStandard, 3),
        makeTenant("D", 44, DeadlineClass::kBulk, 3)};
    tenants[1].weight = 2.0;
    tenants[2].arrival_offset_s = 0.01;
    // Inter coding on one tenant: interleaving must not perturb
    // its GOP phase or prediction reference either.
    tenants[3].codec = makeIntraInterV1Config();

    std::vector<std::vector<std::vector<std::uint8_t>>> solo;
    for (const TenantSpec &tenant : tenants)
        solo.push_back(soloBitstreams(tenant));

    ServeScheduler scheduler(roomyConfig(), tenants);
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->fleet.admitted, tenants.size());

    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const TenantReport &served =
            tenantNamed(*report, tenants[t].name);
        EXPECT_TRUE(served.admitted);
        EXPECT_EQ(served.stats.dropped, 0u);
        ASSERT_EQ(served.frames.size(), solo[t].size());
        for (std::size_t f = 0; f < solo[t].size(); ++f) {
            EXPECT_EQ(served.frames[f].bitstream, solo[t][f])
                << tenants[t].name << " frame " << f
                << " diverged from the solo encode";
        }
        // Latency accounting is consistent.
        EXPECT_EQ(served.stats.served, solo[t].size());
        EXPECT_EQ(served.stats.latency_s.size(), solo[t].size());
        for (double latency : served.stats.latency_s)
            EXPECT_GT(latency, 0.0);
    }

    // All four equally backlogged tenants got service.
    EXPECT_GT(report->fairness_index, 0.0);
    EXPECT_LE(report->fairness_index, 1.0 + 1e-12);
    EXPECT_GT(report->fleet.device_busy_s, 0.0);
    EXPECT_GE(report->fleet.makespan_s, report->fleet.device_busy_s);
    EXPECT_GT(report->fleet.utilization(), 0.0);
    EXPECT_GT(report->fleet.sessionsPerDevice(), 0.0);
}

// -----------------------------------------------------------------
// Pinned DRR schedule
// -----------------------------------------------------------------

/** A fleet configuration plus the tenants it serves. */
struct ServeScenario {
    ServeConfig config;
    std::vector<TenantSpec> tenants;
};

/** The seeded 4-tenant mix behind the pinned DRR trace. */
ServeScenario
seededMix()
{
    ServeScenario mix;
    mix.tenants = {makeTenant("A", 11, DeadlineClass::kInteractive, 3),
                   makeTenant("B", 22, DeadlineClass::kStandard, 3),
                   makeTenant("C", 33, DeadlineClass::kStandard, 3),
                   makeTenant("D", 44, DeadlineClass::kBulk, 3)};
    mix.tenants[0].weight = 2.0;
    mix.config.quantum_s = 0.004;
    mix.config.batch_max = 3;  // forces the cursor to carry over rounds
    return mix;
}

/** The exact deterministic schedule for a seeded 4-tenant mix —
 *  the serve-layer analogue of the pinned overload ladder walk.
 *  Everything is virtual-time; the trace depends only on the device
 *  model and the synthetic content, never on the host. */
TEST(ServeSchedulerTest, PinnedDrrTraceForSeededMix)
{
    const ServeScenario mix = seededMix();
    ServeScheduler scheduler(mix.config, mix.tenants);
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());

    // The cut after C0 leaves the cursor at D, so the next batch
    // starts there; later rounds show the same carry-over (D1
    // before A1, C2 before D2's round completes at A2 B2).
    EXPECT_EQ(traceString(*report),
              "A0 B0 C0 D0 D1 A1 B1 C1 C2 D2 A2 B2");

    // The cut batches are visible in the fleet counters.
    EXPECT_EQ(report->fleet.batched_frames, 12u);
    EXPECT_GE(report->fleet.batches, 4u);
    EXPECT_GE(report->fleet.rounds, report->fleet.batches);
}

/** Two replicas, periodic checkpoints and a permanent crash of
 *  replica 1 mid-stream. B is inter-coded, so its checkpoint
 *  restore carries encoder reference state; E replays A's content,
 *  so the reference cache serves hits. */
ServeScenario
crashWithCheckpoints()
{
    ServeScenario crash;
    crash.tenants = {makeTenant("A", 11, DeadlineClass::kInteractive, 8),
                     makeTenant("B", 22, DeadlineClass::kInteractive, 8),
                     makeTenant("C", 33, DeadlineClass::kStandard, 8),
                     makeTenant("D", 44, DeadlineClass::kBulk, 8),
                     makeTenant("E", 11, DeadlineClass::kBulk, 8)};
    crash.tenants[1].codec = makeIntraInterV1Config();
    crash.tenants[4].arrival_offset_s = 0.1;  // A's frames cached first
    crash.config = roomyConfig();
    crash.config.replicas = 2;
    crash.config.checkpoint_interval_frames = 2;
    crash.config.checkpoint_cost_s = 0.0005;
    crash.config.faults = DeviceFaultSpec::crashSecondary();
    return crash;
}

/** What a serve run pins: both traces and every tenant's bytes. */
struct ServeOutput {
    std::string trace;
    std::string recovery;
    std::vector<std::vector<std::vector<std::uint8_t>>> bitstreams;
};

ServeOutput
serveOutput(const ServeScenario &scenario)
{
    ServeOutput out;
    auto report = ServeScheduler(scenario.config, scenario.tenants).run();
    EXPECT_TRUE(report.hasValue()) << report.status().toString();
    if (!report.hasValue())
        return out;
    out.trace = traceString(*report);
    out.recovery = recoveryTraceString(*report);
    for (const TenantReport &tenant : report->tenants) {
        out.bitstreams.emplace_back();
        for (const ServedFrame &frame : tenant.frames)
            out.bitstreams.back().push_back(frame.bitstream);
    }
    return out;
}

/** The batch fan-out may run a batch's encodes on any thread in any
 *  order; the output must not depend on how many threads there are.
 *  Inline (0 workers) is the reference. */
TEST(ServeSchedulerTest, TraceIdenticalAcrossPoolSizes)
{
    for (const ServeScenario &scenario :
         {seededMix(), crashWithCheckpoints()}) {
        ServeOutput reference;
        {
            ScopedGlobalPool pool(0);
            reference = serveOutput(scenario);
        }
        ASSERT_FALSE(reference.trace.empty());
        for (const std::size_t threads : {1u, 3u}) {
            ScopedGlobalPool pool(threads);
            const ServeOutput out = serveOutput(scenario);
            EXPECT_EQ(out.trace, reference.trace)
                << "threads=" << threads;
            EXPECT_EQ(out.recovery, reference.recovery)
                << "threads=" << threads;
            EXPECT_TRUE(out.bitstreams == reference.bitstreams)
                << "threads=" << threads;
        }
    }
    // The crash scenario really restores from checkpoints and
    // really shares encode work through the cache.
    ScopedGlobalPool pool(0);
    const ServeOutput crash = serveOutput(crashWithCheckpoints());
    EXPECT_NE(crash.recovery.find("+ckpt"), std::string::npos);
    EXPECT_NE(crash.trace.find('*'), std::string::npos);
}

// -----------------------------------------------------------------
// Admission control
// -----------------------------------------------------------------

TEST(ServeSchedulerTest, AdmissionRejectsInClassPriorityOrder)
{
    ServeConfig config = roomyConfig();
    std::vector<TenantSpec> tenants = {
        makeTenant("bulk", 3, DeadlineClass::kBulk),
        makeTenant("interactive", 1, DeadlineClass::kInteractive),
        makeTenant("standard", 2, DeadlineClass::kStandard)};
    // All three are probe-identical except for content; size the cap
    // from the measured utilization so exactly two fit.
    const double util =
        probeUtilization(tenants[1], config.device);
    ASSERT_GT(util, 0.0);
    config.admission_utilization_cap = 2.5 * util;

    ServeScheduler scheduler(config, tenants);
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());

    // Class order decides who is shed: bulk first, regardless of
    // input position.
    EXPECT_TRUE(tenantNamed(*report, "interactive").admitted);
    EXPECT_TRUE(tenantNamed(*report, "standard").admitted);
    const TenantReport &bulk = tenantNamed(*report, "bulk");
    EXPECT_FALSE(bulk.admitted);
    EXPECT_EQ(bulk.rejection_reason, RejectionReason::kAdmissionCap);
    EXPECT_STREQ(rejectionReasonName(bulk.rejection_reason),
                 "admission-cap");
    EXPECT_TRUE(bulk.frames.empty());
    EXPECT_GT(bulk.estimated_utilization, 0.0);
    EXPECT_EQ(report->fleet.admitted, 2u);
    EXPECT_EQ(report->fleet.rejected, 1u);
}

TEST(ServeSchedulerTest, OversizedTenantRejectedOutright)
{
    ServeConfig config = roomyConfig();
    TenantSpec modest = makeTenant("modest", 5, DeadlineClass::kBulk);
    TenantSpec hog = makeTenant("hog", 6, DeadlineClass::kInteractive);
    hog.fps = 1.0e6;  // solo utilization far beyond any device
    const double modest_util =
        probeUtilization(modest, config.device);
    config.admission_utilization_cap = 2.0 * modest_util;

    ServeScheduler scheduler(config, {modest, hog});
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());

    // The hog cannot fit even alone, so it must not consume the cap
    // that the (lower-priority!) modest tenant then uses.
    const TenantReport &rejected = tenantNamed(*report, "hog");
    EXPECT_FALSE(rejected.admitted);
    EXPECT_EQ(rejected.rejection_reason,
              RejectionReason::kExceedsDeviceCapacity);
    EXPECT_STREQ(rejectionReasonName(rejected.rejection_reason),
                 "exceeds-device-capacity");
    EXPECT_TRUE(tenantNamed(*report, "modest").admitted);
}

// -----------------------------------------------------------------
// Reference cache inside the scheduler
// -----------------------------------------------------------------

TEST(ServeSchedulerTest, IdenticalStreamsShareEncodeWork)
{
    // Twin tenants: identical codec and content, the follower half
    // a second behind — every follower frame must be served from
    // the reference cache, byte-identical to the leader (and so to
    // the solo encode). Inter coding makes this bite: a cache hit
    // must also adopt the leader's post-frame encoder state.
    TenantSpec leader = makeTenant("leader", 77, DeadlineClass::kStandard, 4);
    leader.codec = makeIntraInterV1Config();
    TenantSpec follower = leader;
    follower.name = "follower";
    follower.arrival_offset_s = 0.5;

    const auto solo = soloBitstreams(leader);

    ServeScheduler scheduler(roomyConfig(), {leader, follower});
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());

    const TenantReport &lead = tenantNamed(*report, "leader");
    const TenantReport &follow = tenantNamed(*report, "follower");
    EXPECT_EQ(lead.stats.cache_hits, 0u);
    EXPECT_EQ(lead.stats.encoded, solo.size());
    EXPECT_EQ(follow.stats.cache_hits, solo.size());
    EXPECT_EQ(follow.stats.encoded, 0u);

    ASSERT_EQ(follow.frames.size(), solo.size());
    for (std::size_t f = 0; f < solo.size(); ++f) {
        EXPECT_EQ(follow.frames[f].outcome, ServeOutcome::kCacheHit);
        EXPECT_EQ(follow.frames[f].bitstream, solo[f]);
        // A hit is charged the cheap cache cost, not the encode.
        EXPECT_LT(follow.frames[f].cost_s,
                  lead.frames[f].cost_s);
    }

    const CacheStats &cache = report->cache;
    EXPECT_EQ(cache.lookups, 2 * solo.size());
    EXPECT_EQ(cache.hits, solo.size());
    EXPECT_EQ(cache.misses, solo.size());
    EXPECT_EQ(cache.insertions, solo.size());
    EXPECT_GT(cache.saved_device_s, 0.0);
}

TEST(ServeSchedulerTest, CacheDisabledEncodesEverything)
{
    TenantSpec leader = makeTenant("leader", 77, DeadlineClass::kStandard);
    TenantSpec follower = leader;
    follower.name = "follower";
    follower.arrival_offset_s = 0.5;

    ServeConfig config = roomyConfig();
    config.cache_enabled = false;
    ServeScheduler scheduler(config, {leader, follower});
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());

    EXPECT_EQ(report->cache.lookups, 0u);
    EXPECT_EQ(report->cache.hits, 0u);
    const TenantReport &follow = tenantNamed(*report, "follower");
    EXPECT_EQ(follow.stats.cache_hits, 0u);
    EXPECT_EQ(follow.stats.encoded, follow.stats.frames);
}

TEST(ServeSchedulerTest, DivergentConfigNeverHitsCache)
{
    // Same content, different quantization: stream keys diverge at
    // the codec-config anchor, so sharing would be wrong and must
    // not happen.
    TenantSpec fine = makeTenant("fine", 77, DeadlineClass::kStandard);
    TenantSpec coarse = fine;
    coarse.name = "coarse";
    coarse.codec.segment.quant_step += 2;
    coarse.arrival_offset_s = 0.5;

    ServeScheduler scheduler(roomyConfig(), {fine, coarse});
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->cache.hits, 0u);
    EXPECT_EQ(tenantNamed(*report, "coarse").stats.cache_hits, 0u);
}

// -----------------------------------------------------------------
// Backpressure
// -----------------------------------------------------------------

TEST(ServeSchedulerTest, QueueBackpressureDropsOldestFrames)
{
    // A 240 fps tenant against a sustained 100x compute slowdown:
    // arrivals outrun the device, so the tiny queue must shed the
    // oldest frames. Admission probes the clean cost, so the tenant
    // is still admitted.
    TenantSpec tenant = makeTenant("hot", 55, DeadlineClass::kStandard, 12);
    tenant.fps = 240.0;
    tenant.queue_capacity = 0;

    ServeConfig config = roomyConfig();
    config.load.slowdown = 100.0;
    ServeScheduler scheduler(config, {tenant});
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());

    const TenantReport &served = tenantNamed(*report, "hot");
    EXPECT_GT(served.stats.dropped, 0u);
    EXPECT_GT(served.stats.served, 0u);
    EXPECT_EQ(served.stats.served + served.stats.dropped,
              served.stats.frames);
    ASSERT_EQ(served.frames.size(), served.stats.frames);
    for (const ServedFrame &frame : served.frames) {
        if (frame.outcome == ServeOutcome::kDropped) {
            EXPECT_TRUE(frame.bitstream.empty());
            EXPECT_DOUBLE_EQ(frame.cost_s, 0.0);
        } else {
            EXPECT_FALSE(frame.bitstream.empty());
        }
    }
    // Oldest-drop: every drop precedes the last served frame.
    std::size_t last_served = 0;
    for (const ServedFrame &frame : served.frames) {
        if (frame.outcome != ServeOutcome::kDropped)
            last_served = frame.frame_id;
    }
    EXPECT_EQ(last_served, served.stats.frames - 1);
}

// -----------------------------------------------------------------
// DRR fairness: the quantum-bound property sweep
// -----------------------------------------------------------------

/** For any seeded tenant mix, no admitted tenant's deficit ever
 *  exceeds its quantum grant, and the overdraft is bounded by one
 *  frame's cost — the classic DRR fairness invariant. */
TEST(ServePropertyTest, DeficitStaysWithinQuantumBound)
{
    constexpr double kEps = 1e-12;
    const double quanta[] = {0.0005, 0.002, 0.01};
    const std::uint64_t seeds[] = {1, 2, 3};

    for (double quantum_s : quanta) {
        for (std::uint64_t seed : seeds) {
            ServeConfig config;
            config.quantum_s = quantum_s;
            config.batch_max = 2;

            std::vector<TenantSpec> tenants = {
                makeTenant("A", seed * 10 + 1,
                           DeadlineClass::kInteractive, 4),
                makeTenant("B", seed * 10 + 2,
                           DeadlineClass::kStandard, 4),
                makeTenant("C", seed * 10 + 3,
                           DeadlineClass::kBulk, 4)};
            tenants[0].weight = 0.5 + static_cast<double>(seed);
            tenants[2].arrival_offset_s =
                0.002 * static_cast<double>(seed);

            ServeScheduler scheduler(config, tenants);
            auto report = scheduler.run();
            ASSERT_TRUE(report.hasValue())
                << "quantum " << quantum_s << " seed " << seed;

            for (const TenantReport &tenant : report->tenants) {
                ASSERT_TRUE(tenant.admitted);
                const TenantStats &stats = tenant.stats;
                EXPECT_LE(stats.max_deficit_s,
                          quantum_s * tenant.weight + kEps)
                    << tenant.name << " banked beyond its quantum";
                EXPECT_GE(stats.min_deficit_s,
                          -(stats.max_frame_cost_s + kEps))
                    << tenant.name
                    << " overdrew more than one frame cost";
                EXPECT_EQ(stats.served + stats.dropped,
                          stats.frames);
            }
            EXPECT_GT(report->fairness_index, 0.0);
            EXPECT_LE(report->fairness_index, 1.0 + kEps);
        }
    }
}

/** Equal tenants must end up with near-equal device share. */
TEST(ServePropertyTest, EqualTenantsShareFairly)
{
    std::vector<TenantSpec> tenants;
    for (int t = 0; t < 4; ++t) {
        tenants.push_back(makeTenant(std::string(1, 'A' + t),
                                     static_cast<std::uint64_t>(t),
                                     DeadlineClass::kStandard, 4));
    }
    ServeConfig config;
    config.quantum_s = 0.002;
    ServeScheduler scheduler(config, std::move(tenants));
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());

    // Identical-shape content: shares differ only by per-frame
    // content variation, so the Jain index sits near 1.
    EXPECT_GT(report->fairness_index, 0.95);
    for (const TenantReport &tenant : report->tenants) {
        EXPECT_GT(tenant.stats.served, 0u)
            << tenant.name << " was starved";
    }
}

}  // namespace
}  // namespace serve
}  // namespace edgepcc
