/**
 * @file
 * Failure-injection tests: randomized corruption of valid
 * bitstreams must never crash, hang or read out of bounds — every
 * decode either fails cleanly or returns a structurally valid
 * cloud. Also the resource-exhaustion contract: the public codec
 * entry points return RESOURCE_EXHAUSTED (never throw) when an
 * allocation fails mid-encode/decode, and degenerate inputs (empty
 * or all-duplicate clouds) round-trip or fail cleanly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "edgepcc/common/rng.h"
#include "edgepcc/common/trace.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/parallel/thread_pool.h"
#include "edgepcc/platform/arena.h"
#include "edgepcc/serve/serve_scheduler.h"
#include "edgepcc/stream/stream_file.h"

// -----------------------------------------------------------------
// Allocation-failure injection
//
// Global operator new replacement with a thread-local single-shot
// countdown: the N-th allocation on the *armed thread* throws
// std::bad_alloc, then the hook disarms itself (so the error path —
// Status strings and all — allocates freely). Worker threads of the
// codec's thread pool are never armed; only the caller-thread
// allocation stream is attacked, which is exactly the path the
// Status-returning wrappers must cover.
// -----------------------------------------------------------------

namespace {
/** Allocations left before the injected failure; -1 = disarmed. */
thread_local std::int64_t g_alloc_countdown = -1;

struct ScopedAllocFailure {
    explicit ScopedAllocFailure(std::int64_t after)
    {
        g_alloc_countdown = after;
    }
    ~ScopedAllocFailure() { g_alloc_countdown = -1; }
    /** True when the injected failure actually fired. */
    bool
    fired() const
    {
        return g_alloc_countdown == -1;
    }
};

void *
countdownAlloc(std::size_t size)
{
    if (g_alloc_countdown >= 0) {
        if (g_alloc_countdown == 0) {
            g_alloc_countdown = -1;  // single shot, then disarm
            throw std::bad_alloc();
        }
        --g_alloc_countdown;
    }
    if (size == 0)
        size = 1;
    void *ptr = std::malloc(size);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}
}  // namespace

void *
operator new(std::size_t size)
{
    return countdownAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countdownAlloc(size);
}

// The nothrow forms share the hook (a fired failure returns null),
// so every allocation and its release go through malloc/free; the
// library's stable_sort takes its temporary buffer this way.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countdownAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countdownAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

namespace edgepcc {
namespace {

class RobustnessTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        VideoSpec spec;
        spec.name = "robust";
        spec.seed = 4321;
        spec.target_points = 8000;
        video_ = new SyntheticHumanVideo(spec);
        frames_.push_back(video_->frame(0));
        frames_.push_back(video_->frame(1));
    }

    static void
    TearDownTestSuite()
    {
        delete video_;
        video_ = nullptr;
        frames_.clear();
    }

    /** Decodes a (possibly corrupted) stream; on success the cloud
     *  must satisfy its invariants. */
    static void
    decodeMustNotMisbehave(VideoDecoder &decoder,
                           const std::vector<std::uint8_t> &stream)
    {
        auto decoded = decoder.decode(stream);
        if (decoded.hasValue()) {
            EXPECT_TRUE(decoded->cloud.checkInvariants());
        }
    }

    static SyntheticHumanVideo *video_;
    static std::vector<VoxelCloud> frames_;
};

SyntheticHumanVideo *RobustnessTest::video_ = nullptr;
std::vector<VoxelCloud> RobustnessTest::frames_;

TEST_F(RobustnessTest, SingleByteFlipsNeverCrash)
{
    for (const CodecConfig &config : allPaperConfigs()) {
        VideoEncoder encoder(config);
        auto encoded = encoder.encode(frames_[0]);
        ASSERT_TRUE(encoded.hasValue()) << config.name;
        Rng rng(1);
        for (int trial = 0; trial < 60; ++trial) {
            auto corrupted = encoded->bitstream;
            const std::size_t pos =
                rng.bounded(corrupted.size());
            corrupted[pos] ^= static_cast<std::uint8_t>(
                1u << rng.bounded(8));
            VideoDecoder decoder;
            decodeMustNotMisbehave(decoder, corrupted);
        }
    }
}

TEST_F(RobustnessTest, TruncationsNeverCrash)
{
    for (const CodecConfig &config : allPaperConfigs()) {
        VideoEncoder encoder(config);
        auto encoded = encoder.encode(frames_[0]);
        ASSERT_TRUE(encoded.hasValue()) << config.name;
        for (const double fraction :
             {0.0, 0.05, 0.3, 0.5, 0.9, 0.999}) {
            auto truncated = encoded->bitstream;
            truncated.resize(static_cast<std::size_t>(
                static_cast<double>(truncated.size()) *
                fraction));
            VideoDecoder decoder;
            decodeMustNotMisbehave(decoder, truncated);
        }
    }
}

TEST_F(RobustnessTest, CorruptedPFrameNeverCrashes)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    auto i_frame = encoder.encode(frames_[0]);
    ASSERT_TRUE(i_frame.hasValue());
    auto p_frame = encoder.encode(frames_[1]);
    ASSERT_TRUE(p_frame.hasValue());

    Rng rng(2);
    for (int trial = 0; trial < 60; ++trial) {
        VideoDecoder decoder;
        ASSERT_TRUE(decoder.decode(i_frame->bitstream).hasValue());
        auto corrupted = p_frame->bitstream;
        const std::size_t pos = rng.bounded(corrupted.size());
        corrupted[pos] ^=
            static_cast<std::uint8_t>(1u << rng.bounded(8));
        decodeMustNotMisbehave(decoder, corrupted);
    }
}

TEST_F(RobustnessTest, RandomGarbageNeverCrashes)
{
    Rng rng(3);
    VideoDecoder decoder;
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::uint8_t> garbage(
            rng.bounded(4096) + 1);
        for (auto &byte : garbage)
            byte = static_cast<std::uint8_t>(rng.bounded(256));
        decodeMustNotMisbehave(decoder, garbage);
    }
}

TEST_F(RobustnessTest, ValidHeaderGarbagePayloadNeverCrashes)
{
    // Keep the container magic intact and scramble everything
    // after it, which stresses the per-codec payload parsers.
    VideoEncoder encoder(makeIntraOnlyConfig());
    auto encoded = encoder.encode(frames_[0]);
    ASSERT_TRUE(encoded.hasValue());
    Rng rng(4);
    for (int trial = 0; trial < 40; ++trial) {
        auto corrupted = encoded->bitstream;
        for (std::size_t i = 8; i < corrupted.size(); ++i) {
            if (rng.uniform() < 0.1) {
                corrupted[i] = static_cast<std::uint8_t>(
                    rng.bounded(256));
            }
        }
        VideoDecoder decoder;
        decodeMustNotMisbehave(decoder, corrupted);
    }
}

TEST_F(RobustnessTest, SwappedFrameOrderIsRejectedOrSafe)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    auto i_frame = encoder.encode(frames_[0]);
    auto p_frame = encoder.encode(frames_[1]);
    ASSERT_TRUE(i_frame.hasValue());
    ASSERT_TRUE(p_frame.hasValue());
    // P before I must fail cleanly.
    VideoDecoder decoder;
    EXPECT_FALSE(decoder.decode(p_frame->bitstream).hasValue());
    // And the decoder must still work afterwards.
    EXPECT_TRUE(decoder.decode(i_frame->bitstream).hasValue());
    EXPECT_TRUE(decoder.decode(p_frame->bitstream).hasValue());
}

TEST_F(RobustnessTest, ReferenceFromDifferentVideoIsSafe)
{
    // Decode a P frame against a *wrong* reference (decoder state
    // from another stream with identical frame counts): must not
    // crash; output may be garbage but structurally valid.
    VideoEncoder encoder_a(makeIntraInterV1Config());
    auto ia = encoder_a.encode(frames_[0]);
    auto pa = encoder_a.encode(frames_[1]);
    ASSERT_TRUE(ia.hasValue());
    ASSERT_TRUE(pa.hasValue());

    VideoSpec other;
    other.name = "other";
    other.seed = 999;
    other.target_points = 8000;
    SyntheticHumanVideo other_video(other);
    VideoEncoder encoder_b(makeIntraInterV1Config());
    auto ib = encoder_b.encode(other_video.frame(0));
    ASSERT_TRUE(ib.hasValue());

    VideoDecoder decoder;
    ASSERT_TRUE(decoder.decode(ib->bitstream).hasValue());
    decodeMustNotMisbehave(decoder, pa->bitstream);
}

// -----------------------------------------------------------------
// Resource exhaustion: Status, not exceptions
// -----------------------------------------------------------------

/** Countdown values past this mean the sweep never converged. */
constexpr std::int64_t kMaxCountdown = 1000000;

bool
sameCloud(const VoxelCloud &a, const VoxelCloud &b)
{
    return a.x() == b.x() && a.y() == b.y() && a.z() == b.z() &&
           a.r() == b.r() && a.g() == b.g() && a.b() == b.b();
}

TEST_F(RobustnessTest, EncodeReturnsStatusOnAllocFailure)
{
    // Every countdown value, from the first allocation on, until an
    // I frame and then a P frame encode without the failure firing:
    // each allocation of both encodes fails once, including those in
    // parallel kernels (the block matcher, the radix sort) whose
    // chunks the caller runs or submits. At pool size 0 everything
    // runs inline; at 1 and 3 the caller also allocates each task it
    // submits. A failed submit runs its chunk inline, so a fired
    // failure may be absorbed: then the frame must be the clean one.
    // The last configuration records trace spans, whose append runs
    // in a destructor: a failed one must drop the span, not
    // terminate. Clearing the tracer before every attempt makes the
    // first append allocate, so the sweep reaches it.
    struct Setup {
        std::size_t threads;
        bool tracing;
    };
    for (const Setup setup : {Setup{0, false}, Setup{1, false},
                              Setup{3, false}, Setup{0, true}}) {
        const std::size_t threads = setup.threads;
        ScopedGlobalPool pool(threads);
        Tracer &tracer = Tracer::global();
        tracer.clear();
        tracer.setEnabled(setup.tracing);
        std::size_t dropped = 0;
        for (const CodecConfig &config : allPaperConfigs()) {
            VideoEncoder clean(config);
            const auto clean_i = clean.encode(frames_[0]);
            const auto clean_p = clean.encode(frames_[1]);
            ASSERT_TRUE(clean_i.hasValue() && clean_p.hasValue());
            const auto expect_clean_or_exhausted =
                [&](const Expected<EncodedFrame> &frame,
                    const Expected<EncodedFrame> &reference,
                    std::int64_t after) {
                    if (frame.hasValue()) {
                        EXPECT_EQ(frame->bitstream,
                                  reference->bitstream)
                            << config.name << " after=" << after
                            << " threads=" << threads;
                        return true;
                    }
                    EXPECT_EQ(frame.status().code(),
                              StatusCode::kResourceExhausted)
                        << config.name << " after=" << after
                        << " threads=" << threads;
                    return false;
                };

            bool saw_exhausted = false;
            std::int64_t after = 0;
            for (; after < kMaxCountdown; ++after) {
                VideoEncoder encoder(config);
                dropped += tracer.droppedEvents();
                tracer.clear();
                ScopedAllocFailure arm(after);
                const auto i_frame = encoder.encode(frames_[0]);
                bool ok = expect_clean_or_exhausted(i_frame, clean_i,
                                                    after);
                if (ok) {
                    const auto p_frame = encoder.encode(frames_[1]);
                    ok = expect_clean_or_exhausted(p_frame, clean_p,
                                                   after);
                }
                saw_exhausted = saw_exhausted || !ok;
                if (!arm.fired()) {
                    ASSERT_TRUE(ok)
                        << config.name << " after=" << after;
                    break;  // the pair no longer reaches `after`
                }
            }
            EXPECT_TRUE(saw_exhausted) << config.name;
            EXPECT_LT(after, kMaxCountdown) << config.name;

            // The encoder survives a failure: the next encode on the
            // same instance succeeds.
            VideoEncoder encoder(config);
            {
                ScopedAllocFailure arm(0);
                (void)encoder.encode(frames_[0]);
            }
            EXPECT_TRUE(encoder.encode(frames_[0]).hasValue())
                << config.name;
        }
        dropped += tracer.droppedEvents();
        tracer.setEnabled(false);
        tracer.clear();
        if (setup.tracing) {
            EXPECT_GT(dropped, 0u);
        }
    }
}

TEST_F(RobustnessTest, DecodeReturnsStatusOnAllocFailure)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    auto i_frame = encoder.encode(frames_[0]);
    auto p_frame = encoder.encode(frames_[1]);
    ASSERT_TRUE(i_frame.hasValue());
    ASSERT_TRUE(p_frame.hasValue());

    // Same sweep as the encode test, decoding the I frame and then
    // the P frame.
    for (const std::size_t threads : {0u, 1u, 3u}) {
        ScopedGlobalPool pool(threads);
        VideoDecoder clean;
        const auto clean_i = clean.decode(i_frame->bitstream);
        const auto clean_p = clean.decode(p_frame->bitstream);
        ASSERT_TRUE(clean_i.hasValue() && clean_p.hasValue());

        bool saw_exhausted = false;
        std::int64_t after = 0;
        for (; after < kMaxCountdown; ++after) {
            VideoDecoder decoder;
            bool fired = false;
            bool ok = false;
            {
                ScopedAllocFailure arm(after);
                auto decoded = decoder.decode(i_frame->bitstream);
                if (decoded.hasValue()) {
                    EXPECT_TRUE(
                        sameCloud(decoded->cloud, clean_i->cloud))
                        << "after=" << after << " threads=" << threads;
                    decoded = decoder.decode(p_frame->bitstream);
                }
                ok = decoded.hasValue();
                if (ok) {
                    EXPECT_TRUE(
                        sameCloud(decoded->cloud, clean_p->cloud))
                        << "after=" << after << " threads=" << threads;
                } else {
                    EXPECT_EQ(decoded.status().code(),
                              StatusCode::kResourceExhausted)
                        << "after=" << after << " threads=" << threads;
                }
                fired = arm.fired();
            }
            saw_exhausted = saw_exhausted || !ok;
            if (!fired) {
                ASSERT_TRUE(ok) << "after=" << after;
                break;
            }
            // The decoder is still usable after the failure.
            EXPECT_TRUE(decoder.decode(i_frame->bitstream).hasValue())
                << "after=" << after << " threads=" << threads;
        }
        EXPECT_TRUE(saw_exhausted);
        EXPECT_LT(after, kMaxCountdown);
    }
}

TEST_F(RobustnessTest, DecodePromotedReturnsStatusOnAllocFailure)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    auto i_frame = encoder.encode(frames_[0]);
    auto p_frame = encoder.encode(frames_[1]);
    ASSERT_TRUE(i_frame.hasValue());
    ASSERT_TRUE(p_frame.hasValue());

    bool saw_exhausted = false;
    for (const std::int64_t after :
         {std::int64_t{0}, std::int64_t{7}, std::int64_t{40},
          std::int64_t{200}, std::int64_t{1000}}) {
        VideoDecoder decoder;  // no reference: promoted path
        bool fired = false;
        bool concealed = false;
        auto promoted = [&] {
            ScopedAllocFailure arm(after);
            auto result = decoder.decodePromoted(
                p_frame->bitstream, &frames_[0], &concealed);
            fired = arm.fired();
            return result;
        }();
        if (fired) {
            saw_exhausted = true;
            ASSERT_FALSE(promoted.hasValue()) << "after=" << after;
            EXPECT_EQ(promoted.status().code(),
                      StatusCode::kResourceExhausted)
                << "after=" << after;
        } else {
            EXPECT_TRUE(promoted.hasValue()) << "after=" << after;
        }
    }
    EXPECT_TRUE(saw_exhausted);
}

TEST_F(RobustnessTest, ServeRunReturnsStatusOnAllocFailure)
{
    // Two tenants with identical content, so the second one hits
    // the reference cache (restoreState) while the first encodes
    // and snapshots; checkpoints snapshot on the caller too. Every
    // countdown value must end in RESOURCE_EXHAUSTED or the clean
    // report, never a hang or std::terminate. At pool size 0 the
    // caller runs every encode task; at 1 it runs those it claims.
    VideoSpec spec;
    spec.name = "robust-serve";
    spec.seed = 99;
    spec.target_points = 1500;
    const SyntheticHumanVideo video(spec);
    std::vector<serve::TenantSpec> tenants(2);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        tenants[t].name = t == 0 ? "A" : "B";
        tenants[t].codec = makeIntraInterV1Config();
        tenants[t].frames = {video.frame(0), video.frame(1)};
        tenants[t].arrival_offset_s = 0.001 * static_cast<double>(t);
        tenants[t].queue_capacity = 8;
    }
    serve::ServeConfig config;
    config.quantum_s = 10.0;
    config.checkpoint_interval_frames = 1;
    const auto summary = [](const serve::ServeReport &report) {
        std::string out = serve::traceString(report);
        for (const serve::TenantReport &tenant : report.tenants) {
            for (const serve::ServedFrame &frame : tenant.frames)
                out.append(frame.bitstream.begin(),
                           frame.bitstream.end());
        }
        return out;
    };

    for (const std::size_t threads : {0u, 1u}) {
        ScopedGlobalPool pool(threads);
        const auto clean =
            serve::ServeScheduler(config, tenants).run();
        ASSERT_TRUE(clean.hasValue()) << clean.status().toString();
        ASSERT_GT(clean->cache.hits, 0u);
        const std::string expected = summary(*clean);

        bool saw_exhausted = false;
        std::int64_t after = 0;
        for (; after < kMaxCountdown; ++after) {
            serve::ServeScheduler scheduler(config, tenants);
            bool fired = false;
            const auto report = [&] {
                ScopedAllocFailure arm(after);
                auto result = scheduler.run();
                fired = arm.fired();
                return result;
            }();
            if (report.hasValue()) {
                EXPECT_EQ(summary(*report), expected)
                    << "after=" << after << " threads=" << threads;
            } else {
                saw_exhausted = true;
                EXPECT_EQ(report.status().code(),
                          StatusCode::kResourceExhausted)
                    << "after=" << after << " threads=" << threads
                    << ": " << report.status().toString();
            }
            if (!fired) {
                ASSERT_TRUE(report.hasValue()) << "after=" << after;
                break;
            }
        }
        EXPECT_TRUE(saw_exhausted) << "threads=" << threads;
        EXPECT_LT(after, kMaxCountdown) << "threads=" << threads;
    }
}

// -----------------------------------------------------------------
// Degenerate inputs
// -----------------------------------------------------------------

TEST_F(RobustnessTest, EmptyCloudReturnsCleanlyEverywhere)
{
    const VoxelCloud empty(frames_[0].gridBits());
    for (const CodecConfig &config : allPaperConfigs()) {
        VideoEncoder encoder(config);
        auto encoded = encoder.encode(empty);
        if (!encoded.hasValue()) {
            // A clean rejection is acceptable — but it must be a
            // Status, which reaching this line proves.
            continue;
        }
        VideoDecoder decoder;
        auto decoded = decoder.decode(encoded->bitstream);
        if (decoded.hasValue()) {
            EXPECT_TRUE(decoded->cloud.checkInvariants())
                << config.name;
            EXPECT_EQ(decoded->cloud.size(), 0u) << config.name;
        }
    }
}

TEST_F(RobustnessTest, AllDuplicatePointsRoundTrip)
{
    // 64 copies of one voxel: the degenerate cloud every dedup,
    // segmentation and block-match path must survive.
    VoxelCloud dupes(frames_[0].gridBits());
    for (int i = 0; i < 64; ++i)
        dupes.add(100, 200, 50, 10, 20, 30);

    for (const CodecConfig &config : allPaperConfigs()) {
        VideoEncoder encoder(config);
        auto encoded = encoder.encode(dupes);
        ASSERT_TRUE(encoded.hasValue()) << config.name;
        VideoDecoder decoder;
        auto decoded = decoder.decode(encoded->bitstream);
        ASSERT_TRUE(decoded.hasValue()) << config.name;
        EXPECT_TRUE(decoded->cloud.checkInvariants())
            << config.name;
        ASSERT_EQ(decoded->cloud.size(), 1u) << config.name;
        EXPECT_EQ(decoded->cloud.x()[0], 100) << config.name;
        EXPECT_EQ(decoded->cloud.y()[0], 200) << config.name;
        EXPECT_EQ(decoded->cloud.z()[0], 50) << config.name;
    }
}

// -----------------------------------------------------------------
// FrameArena: growth failure + steady-state reuse
// -----------------------------------------------------------------

TEST_F(RobustnessTest, ArenaGrowthFailurePropagatesAsBadAlloc)
{
    FrameArena arena(1u << 12);
    {
        ScopedAllocFailure arm(0);
        EXPECT_THROW(arena.allocate(64), std::bad_alloc);
        EXPECT_TRUE(arm.fired());
    }
    // The failed growth must leave the arena consistent: the next
    // attempt (heap healthy again) succeeds.
    EXPECT_NE(arena.allocate(64), nullptr);
}

TEST_F(RobustnessTest, ArenaSteadyStateReusesWarmBlocks)
{
    FrameArena arena;
    // Warm-up frame: carve a realistic mix of scratch sizes,
    // including one spilling past the first block.
    for (int i = 0; i < 8; ++i)
        arena.allocateArray<std::uint64_t>(40000);
    const std::size_t reserved = arena.bytesReserved();
    const std::size_t blocks = arena.upstreamBlockCount();
    arena.reset();
    EXPECT_EQ(arena.bytesUsed(), 0u);
    {
        // Replay the same carve with the very next heap allocation
        // armed to fail: the warm blocks must satisfy it with zero
        // upstream traffic, or the countdown fires and throws.
        ScopedAllocFailure arm(0);
        for (int i = 0; i < 8; ++i)
            arena.allocateArray<std::uint64_t>(40000);
        EXPECT_FALSE(arm.fired());
    }
    EXPECT_EQ(arena.bytesReserved(), reserved);
    EXPECT_EQ(arena.upstreamBlockCount(), blocks);
}

TEST_F(RobustnessTest, ScopedFrameArenaRestoresPreviousBinding)
{
    EXPECT_EQ(currentFrameArena(), nullptr);
    FrameArena outer_arena;
    FrameArena inner_arena;
    {
        ScopedFrameArena outer(&outer_arena);
        EXPECT_EQ(currentFrameArena(), &outer_arena);
        {
            ScopedFrameArena inner(&inner_arena);
            EXPECT_EQ(currentFrameArena(), &inner_arena);
        }
        EXPECT_EQ(currentFrameArena(), &outer_arena);
    }
    EXPECT_EQ(currentFrameArena(), nullptr);
}

#ifdef EDGEPCC_CLI_BINARY
TEST_F(RobustnessTest, CliRejectsTruncatedStreamWithNonZeroExit)
{
    // End-to-end: a .epcv whose frame payload is cut short must
    // make `edgepcc_cli decode` print a diagnostic and exit
    // non-zero, not crash or write a bogus reconstruction.
    VideoEncoder encoder(makeIntraOnlyConfig());
    auto encoded = encoder.encode(frames_[0]);
    ASSERT_TRUE(encoded.hasValue());

    auto truncated = encoded->bitstream;
    ASSERT_GT(truncated.size(), 16u);
    truncated.resize(truncated.size() / 3);

    const std::string dir = ::testing::TempDir();
    const std::string epcv = dir + "edgepcc_truncated.epcv";
    ASSERT_TRUE(writeStreamFile(epcv, {truncated}).isOk());

    const std::string command = std::string(EDGEPCC_CLI_BINARY) +
                                " decode " + epcv + " " + dir +
                                "edgepcc_truncated_out 2>/dev/null";
    const int exit_code = std::system(command.c_str());
    EXPECT_NE(exit_code, 0);

    // Sanity for the harness itself: a pristine stream decodes
    // with exit code 0 through the same path.
    const std::string good = dir + "edgepcc_good.epcv";
    ASSERT_TRUE(
        writeStreamFile(good, {encoded->bitstream}).isOk());
    const std::string good_command =
        std::string(EDGEPCC_CLI_BINARY) + " decode " + good +
        " " + dir + "edgepcc_good_out >/dev/null 2>&1";
    EXPECT_EQ(std::system(good_command.c_str()), 0);
}
#endif  // EDGEPCC_CLI_BINARY

}  // namespace
}  // namespace edgepcc
