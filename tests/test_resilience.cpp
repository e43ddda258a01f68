/**
 * @file
 * Loss-resilient streaming session tests: chunk framing round-trip
 * and resync, deterministic fault-injection channel, the decoder
 * degradation ladder (exact FrameOutcome sequences per loss
 * pattern), adaptive keyframe insertion, and the ISSUE-3 acceptance
 * sweep (5% loss over a 30-frame IPP stream).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "edgepcc/common/crc32c.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/lossy_channel.h"
#include "edgepcc/stream/stream_session.h"

namespace edgepcc {
namespace {

// -----------------------------------------------------------------
// Shared fixtures
// -----------------------------------------------------------------

std::vector<VoxelCloud>
testVideo(int num_frames, std::uint64_t seed = 91,
          std::size_t points = 6000)
{
    VideoSpec spec;
    spec.name = "resilience-test";
    spec.seed = seed;
    spec.target_points = points;
    SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    frames.reserve(static_cast<std::size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f)
        frames.push_back(video.frame(f));
    return frames;
}

/** Encodes `frames` and wraps each bitstream in a chunk. */
struct EncodedStream {
    std::vector<std::vector<std::uint8_t>> chunks;
    std::vector<std::vector<std::uint8_t>> bitstreams;
    std::vector<Frame::Type> types;
};

EncodedStream
encodeChunked(const std::vector<VoxelCloud> &frames,
              const CodecConfig &config)
{
    EncodedStream out;
    VideoEncoder encoder(config);
    std::uint32_t gop_id = 0;
    for (std::size_t f = 0; f < frames.size(); ++f) {
        auto encoded = encoder.encode(frames[f]);
        EXPECT_TRUE(encoded.hasValue());
        if (encoded->stats.type == Frame::Type::kIntra)
            gop_id = static_cast<std::uint32_t>(f);
        ChunkHeader header;
        header.sequence = static_cast<std::uint32_t>(f);
        header.frame_id = static_cast<std::uint32_t>(f);
        header.gop_id = gop_id;
        header.frame_type = encoded->stats.type;
        out.chunks.push_back(
            serializeChunk(header, encoded->bitstream));
        out.bitstreams.push_back(encoded->bitstream);
        out.types.push_back(encoded->stats.type);
    }
    return out;
}

/** Drops the listed frame ids and ladder-decodes the rest. */
std::vector<SessionFrame>
decodeWithDrops(const EncodedStream &stream,
                const std::vector<std::uint32_t> &dropped)
{
    std::vector<std::vector<std::uint8_t>> kept;
    for (std::size_t f = 0; f < stream.chunks.size(); ++f) {
        if (std::find(dropped.begin(), dropped.end(),
                      static_cast<std::uint32_t>(f)) ==
            dropped.end())
            kept.push_back(stream.chunks[f]);
    }
    StreamReceiver receiver;
    receiver.ingest(concatWire(kept));
    return receiver.decodeAll(
        static_cast<std::uint32_t>(stream.chunks.size()));
}

std::vector<FrameOutcome>
outcomes(const std::vector<SessionFrame> &frames)
{
    std::vector<FrameOutcome> out;
    out.reserve(frames.size());
    for (const SessionFrame &frame : frames)
        out.push_back(frame.outcome);
    return out;
}

// -----------------------------------------------------------------
// CRC32C
// -----------------------------------------------------------------

TEST(Crc32c, KnownVectors)
{
    // RFC 3720 test vector: 32 zero bytes.
    std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
    // "123456789" -> 0xE3069283 (Castagnoli check value).
    const char *digits = "123456789";
    EXPECT_EQ(crc32c(reinterpret_cast<const std::uint8_t *>(
                         digits),
                     9),
              0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot)
{
    std::vector<std::uint8_t> data(257);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    const std::uint32_t one_shot = crc32c(data);
    std::uint32_t incremental = crc32c(data.data(), 100);
    incremental =
        crc32c(data.data() + 100, data.size() - 100, incremental);
    EXPECT_EQ(one_shot, incremental);
}

// -----------------------------------------------------------------
// Chunk framing
// -----------------------------------------------------------------

TEST(ChunkStream, RoundTripPreservesEverything)
{
    ChunkHeader header;
    header.sequence = 7;
    header.frame_id = 3;
    header.gop_id = 2;
    header.frame_type = Frame::Type::kPredicted;
    header.flags = kChunkFlagRetransmit;
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};

    const auto wire = serializeChunk(header, payload);
    EXPECT_EQ(wire.size(), kChunkHeaderBytes + payload.size());

    WireScanStats stats;
    const auto chunks = scanWire(wire, &stats);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(stats.chunks_ok, 1u);
    EXPECT_EQ(stats.bytes_skipped, 0u);
    EXPECT_EQ(chunks[0].header.sequence, 7u);
    EXPECT_EQ(chunks[0].header.frame_id, 3u);
    EXPECT_EQ(chunks[0].header.gop_id, 2u);
    EXPECT_EQ(chunks[0].header.frame_type,
              Frame::Type::kPredicted);
    EXPECT_EQ(chunks[0].header.flags, kChunkFlagRetransmit);
    EXPECT_EQ(chunks[0].payload, payload);
}

TEST(ChunkStream, EmptyPayloadAllowed)
{
    const auto wire = serializeChunk(ChunkHeader{}, {});
    const auto chunks = scanWire(wire);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_TRUE(chunks[0].payload.empty());
}

TEST(ChunkStream, ResyncSkipsDamageBetweenChunks)
{
    const std::vector<std::uint8_t> p1 = {10, 11, 12};
    const std::vector<std::uint8_t> p2 = {20, 21};
    ChunkHeader h1, h2;
    h1.frame_id = 0;
    h2.frame_id = 1;

    std::vector<std::uint8_t> wire;
    // Leading garbage, a valid chunk, mid-stream garbage (including
    // a fake marker), another valid chunk, trailing garbage.
    wire.insert(wire.end(), {0xde, 0xad, 0xbe, 0xef});
    const auto c1 = serializeChunk(h1, p1);
    wire.insert(wire.end(), c1.begin(), c1.end());
    wire.insert(wire.end(), {'E', 'P', 'C', 'K', 0x99, 0x01});
    const auto c2 = serializeChunk(h2, p2);
    wire.insert(wire.end(), c2.begin(), c2.end());
    wire.insert(wire.end(), {0x42, 0x42});

    WireScanStats stats;
    const auto chunks = scanWire(wire, &stats);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_EQ(chunks[0].payload, p1);
    EXPECT_EQ(chunks[1].payload, p2);
    EXPECT_EQ(stats.chunks_ok, 2u);
    EXPECT_GT(stats.bytes_skipped, 0u);
}

TEST(ChunkStream, CorruptPayloadFailsCrc)
{
    const std::vector<std::uint8_t> payload(100, 0x5a);
    auto wire = serializeChunk(ChunkHeader{}, payload);
    wire[kChunkHeaderBytes + 50] ^= 0x01;
    WireScanStats stats;
    EXPECT_TRUE(scanWire(wire, &stats).empty());
    EXPECT_EQ(stats.chunks_ok, 0u);
    EXPECT_GT(stats.chunks_bad_crc, 0u);
}

TEST(ChunkStream, TruncatedChunkDetected)
{
    const std::vector<std::uint8_t> payload(64, 0x11);
    auto wire = serializeChunk(ChunkHeader{}, payload);
    wire.resize(wire.size() - 10);
    WireScanStats stats;
    EXPECT_TRUE(scanWire(wire, &stats).empty());
    EXPECT_GT(stats.chunks_truncated, 0u);
}

TEST(ChunkStream, EveryTruncationIsSafeAndNeverFalselyValid)
{
    ChunkHeader header;
    header.frame_id = 9;
    std::vector<std::uint8_t> payload(50);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    const auto wire = serializeChunk(header, payload);
    for (std::size_t len = 0; len < wire.size(); ++len) {
        const std::vector<std::uint8_t> prefix(
            wire.begin(),
            wire.begin() + static_cast<std::ptrdiff_t>(len));
        EXPECT_TRUE(scanWire(prefix).empty()) << "len " << len;
    }
}

// -----------------------------------------------------------------
// Lossy channel
// -----------------------------------------------------------------

TEST(LossyChannel, CleanChannelIsByteIdentical)
{
    std::vector<std::vector<std::uint8_t>> chunks;
    for (int i = 0; i < 10; ++i)
        chunks.push_back(serializeChunk(
            ChunkHeader{.frame_id =
                            static_cast<std::uint32_t>(i)},
            std::vector<std::uint8_t>(
                static_cast<std::size_t>(i * 13 + 1),
                static_cast<std::uint8_t>(i))));
    LossyChannel channel(ChannelSpec::clean());
    EXPECT_EQ(channel.transmitAll(chunks), concatWire(chunks));
    EXPECT_EQ(channel.stats().dropped, 0u);
    EXPECT_EQ(channel.stats().chunks_out, 10u);
}

TEST(LossyChannel, SameSeedSameDamage)
{
    std::vector<std::vector<std::uint8_t>> chunks;
    for (int i = 0; i < 200; ++i)
        chunks.push_back(serializeChunk(
            ChunkHeader{.sequence =
                            static_cast<std::uint32_t>(i)},
            std::vector<std::uint8_t>(40,
                                      static_cast<std::uint8_t>(
                                          i))));
    const ChannelSpec spec = ChannelSpec::lossy(0.3, 77);
    LossyChannel a(spec), b(spec);
    EXPECT_EQ(a.transmitAll(chunks), b.transmitAll(chunks));

    ChannelSpec other = spec;
    other.seed = 78;
    LossyChannel c(other);
    EXPECT_NE(a.transmitAll(chunks), c.transmitAll(chunks));
}

TEST(LossyChannel, FaultRatesRoughlyHonoured)
{
    ChannelSpec spec;
    spec.drop_rate = 0.2;
    spec.duplicate_rate = 0.2;
    spec.seed = 5;
    std::vector<std::vector<std::uint8_t>> chunks(
        1000, std::vector<std::uint8_t>(20, 0xaa));
    LossyChannel channel(spec);
    (void)channel.transmitAll(chunks);
    const ChannelStats &stats = channel.stats();
    EXPECT_EQ(stats.chunks_in, 1000u);
    EXPECT_GT(stats.dropped, 120u);
    EXPECT_LT(stats.dropped, 280u);
    EXPECT_GT(stats.duplicated, 100u);
    // Delivered = in - dropped + duplicated.
    EXPECT_EQ(stats.chunks_out,
              stats.chunks_in - stats.dropped +
                  stats.duplicated);
}

TEST(LossyChannel, ReorderedChunksStillArrive)
{
    ChannelSpec spec;
    spec.reorder_rate = 0.5;
    spec.reorder_window = 2;
    spec.seed = 9;
    std::vector<std::vector<std::uint8_t>> chunks;
    for (int i = 0; i < 50; ++i)
        chunks.push_back(serializeChunk(
            ChunkHeader{.sequence =
                            static_cast<std::uint32_t>(i)},
            {static_cast<std::uint8_t>(i)}));
    LossyChannel channel(spec);
    const auto wire = channel.transmitAll(chunks);
    const auto parsed = scanWire(wire);
    ASSERT_EQ(parsed.size(), 50u);  // nothing lost, order changed
    EXPECT_GT(channel.stats().reordered, 5u);
    bool out_of_order = false;
    for (std::size_t i = 1; i < parsed.size(); ++i)
        out_of_order |= parsed[i].header.sequence <
                        parsed[i - 1].header.sequence;
    EXPECT_TRUE(out_of_order);
}

// -----------------------------------------------------------------
// Degradation ladder: exact outcome sequences per loss pattern
// (6-frame IPP stream, GOP 3: I P P I P P)
// -----------------------------------------------------------------

class LadderTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        frames_ = new std::vector<VoxelCloud>(testVideo(6));
        stream_ = new EncodedStream(
            encodeChunked(*frames_, makeIntraInterV1Config()));
        // Sanity on the GOP pattern the ladder tests assume.
        const std::vector<Frame::Type> expect = {
            Frame::Type::kIntra,     Frame::Type::kPredicted,
            Frame::Type::kPredicted, Frame::Type::kIntra,
            Frame::Type::kPredicted, Frame::Type::kPredicted};
        ASSERT_EQ(stream_->types, expect);
    }

    static void
    TearDownTestSuite()
    {
        delete frames_;
        delete stream_;
        frames_ = nullptr;
        stream_ = nullptr;
    }

    static std::vector<VoxelCloud> *frames_;
    static EncodedStream *stream_;
};

std::vector<VoxelCloud> *LadderTest::frames_ = nullptr;
EncodedStream *LadderTest::stream_ = nullptr;

TEST_F(LadderTest, NoLossAllOk)
{
    const auto results = decodeWithDrops(*stream_, {});
    for (const SessionFrame &frame : results) {
        EXPECT_EQ(frame.outcome, FrameOutcome::kOk)
            << "frame " << frame.frame_id;
        EXPECT_TRUE(frame.delivered);
    }
    // Lossless path is bit-exact against the plain decoder.
    VideoDecoder reference;
    for (std::size_t f = 0; f < results.size(); ++f) {
        auto direct = reference.decode(stream_->bitstreams[f]);
        ASSERT_TRUE(direct.hasValue());
        EXPECT_EQ(results[f].cloud.x(), direct->cloud.x());
        EXPECT_EQ(results[f].cloud.r(), direct->cloud.r());
    }
}

TEST_F(LadderTest, LostLeadingIntra)
{
    const auto results = decodeWithDrops(*stream_, {0});
    const std::vector<FrameOutcome> expect = {
        FrameOutcome::kSkipped,    // no good frame yet
        FrameOutcome::kConcealed,  // P promoted, gray attrs
        FrameOutcome::kConcealed,
        FrameOutcome::kResynced,  // intact I re-anchors
        FrameOutcome::kOk,
        FrameOutcome::kOk,
    };
    EXPECT_EQ(outcomes(results), expect);
    // The promoted P frames still carry real geometry.
    EXPECT_GT(results[1].cloud.size(), 0u);
    const GeometryQuality geom =
        geometryPsnrD1((*frames_)[1], results[1].cloud);
    EXPECT_GT(geom.psnr, 30.0);
}

TEST_F(LadderTest, LostFirstPredicted)
{
    const auto results = decodeWithDrops(*stream_, {1});
    const std::vector<FrameOutcome> expect = {
        FrameOutcome::kOk,
        FrameOutcome::kConcealed,  // frozen from frame 0
        FrameOutcome::kOk,  // still decodable: I-frame ref intact
        FrameOutcome::kResynced,  // next I clears the damage flag
        FrameOutcome::kOk,
        FrameOutcome::kOk,
    };
    EXPECT_EQ(outcomes(results), expect);
    // Freeze concealment: frame 1 output is frame 0's decode, so
    // its quality against the true frame 1 is bounded by the
    // inter-frame motion, not by the codec. Require a sane floor.
    const AttrQuality attr =
        attributePsnr((*frames_)[1], results[1].cloud);
    EXPECT_GT(attr.psnr, 14.0);
    EXPECT_TRUE(std::isfinite(attr.psnr));
}

TEST_F(LadderTest, LostTailPredicted)
{
    const auto results = decodeWithDrops(*stream_, {5});
    const std::vector<FrameOutcome> expect = {
        FrameOutcome::kOk,        FrameOutcome::kOk,
        FrameOutcome::kOk,        FrameOutcome::kOk,
        FrameOutcome::kOk,        FrameOutcome::kConcealed,
    };
    EXPECT_EQ(outcomes(results), expect);
    const AttrQuality attr =
        attributePsnr((*frames_)[5], results[5].cloud);
    EXPECT_GT(attr.psnr, 14.0);
}

TEST_F(LadderTest, BurstLossAcrossGopBoundary)
{
    // Losing the second I frame (3) and its first P (4): frame 5's
    // chunk arrives but references the lost I, so it is promoted,
    // never decoded against the stale frame-0 reference.
    const auto results = decodeWithDrops(*stream_, {3, 4});
    const std::vector<FrameOutcome> expect = {
        FrameOutcome::kOk,        FrameOutcome::kOk,
        FrameOutcome::kOk,        FrameOutcome::kConcealed,
        FrameOutcome::kConcealed, FrameOutcome::kConcealed,
    };
    EXPECT_EQ(outcomes(results), expect);
    // Frame 5 was promoted: real geometry, borrowed attributes.
    EXPECT_TRUE(results[5].delivered);
    const GeometryQuality geom =
        geometryPsnrD1((*frames_)[5], results[5].cloud);
    EXPECT_GT(geom.psnr, 30.0);
    const AttrQuality attr =
        attributePsnr((*frames_)[5], results[5].cloud);
    EXPECT_GT(attr.psnr, 12.0);
}

TEST_F(LadderTest, EverythingLost)
{
    const auto results =
        decodeWithDrops(*stream_, {0, 1, 2, 3, 4, 5});
    for (const SessionFrame &frame : results) {
        EXPECT_EQ(frame.outcome, FrameOutcome::kSkipped);
        EXPECT_FALSE(frame.delivered);
        EXPECT_TRUE(frame.cloud.empty());
    }
}

TEST_F(LadderTest, NackListMatchesMissingFrames)
{
    std::vector<std::vector<std::uint8_t>> kept = {
        stream_->chunks[0], stream_->chunks[2],
        stream_->chunks[5]};
    StreamReceiver receiver;
    receiver.ingest(concatWire(kept));
    EXPECT_TRUE(receiver.hasFrame(0));
    EXPECT_FALSE(receiver.hasFrame(1));
    const std::vector<std::uint32_t> expect = {1, 3, 4};
    EXPECT_EQ(receiver.missingFrames(6), expect);
}

// -----------------------------------------------------------------
// Adaptive GOP controller
// -----------------------------------------------------------------

TEST(AdaptiveGop, SustainedLossShrinksGop)
{
    AdaptiveGopController gop(AdaptiveGopConfig{}, 12);
    for (int i = 0; i < 10; ++i)
        gop.onFrameDelivery(false);
    EXPECT_EQ(gop.gopSize(), 1);
    EXPECT_GT(gop.estimatedLoss(), 0.5);
}

TEST(AdaptiveGop, CleanChannelGrowsBack)
{
    AdaptiveGopConfig config;
    AdaptiveGopController gop(config, 12);
    for (int i = 0; i < 10; ++i)
        gop.onFrameDelivery(false);
    ASSERT_EQ(gop.gopSize(), config.min_gop_size);
    for (int i = 0; i < 200; ++i)
        gop.onFrameDelivery(true);
    EXPECT_EQ(gop.gopSize(), config.max_gop_size);
    EXPECT_LT(gop.estimatedLoss(), config.low_loss);
}

TEST(AdaptiveGop, SporadicLossHoldsSteady)
{
    AdaptiveGopConfig config;
    AdaptiveGopController gop(config, 3);
    // One loss in fifty: EWMA stays under the high watermark.
    for (int i = 0; i < 150; ++i)
        gop.onFrameDelivery(i % 50 != 0);
    EXPECT_GE(gop.gopSize(), 3);
}

// -----------------------------------------------------------------
// End-to-end session
// -----------------------------------------------------------------

TEST(StreamSession, CleanChannelAllOkAndByteIdentical)
{
    const auto frames = testVideo(6);
    const CodecConfig codec = makeIntraInterV1Config();
    SessionConfig session;
    session.channel = ChannelSpec::clean();
    session.adaptive_gop = false;

    StreamSession stream(codec, session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    ASSERT_EQ(report->frames.size(), frames.size());
    EXPECT_EQ(report->stats.frames_ok, frames.size());
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_EQ(report->stats.frames_lost, 0u);
    EXPECT_EQ(report->wire.chunks_bad_crc, 0u);

    // The session must not perturb the encoder: outputs are
    // bit-identical to a plain encode/decode loop.
    VideoEncoder encoder(codec);
    VideoDecoder decoder;
    for (std::size_t f = 0; f < frames.size(); ++f) {
        auto encoded = encoder.encode(frames[f]);
        ASSERT_TRUE(encoded.hasValue());
        auto decoded = decoder.decode(encoded->bitstream);
        ASSERT_TRUE(decoded.hasValue());
        EXPECT_EQ(report->frames[f].cloud.x(),
                  decoded->cloud.x());
        EXPECT_EQ(report->frames[f].cloud.r(),
                  decoded->cloud.r());
        EXPECT_EQ(report->frames[f].type, encoded->stats.type);
    }
}

TEST(StreamSession, RetransmissionRecoversDroppedChunks)
{
    const auto frames = testVideo(8);
    SessionConfig session;
    session.channel.drop_rate = 0.4;
    session.channel.seed = 13;
    session.max_retransmits = 6;  // enough that loss ~0.4^7 ~ 0
    session.adaptive_gop = false;

    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->stats.frames_lost, 0u);
    EXPECT_GT(report->stats.retransmits, 0u);
    EXPECT_GT(report->stats.backoff_s, 0.0);
    for (const SessionFrame &frame : report->frames)
        EXPECT_NE(frame.outcome, FrameOutcome::kSkipped);
}

TEST(StreamSession, UnrecoveredLossForcesKeyframe)
{
    const auto frames = testVideo(10);
    SessionConfig session;
    session.channel.drop_rate = 0.5;
    session.channel.seed = 3;
    session.max_retransmits = 0;  // every drop is unrecovered
    session.adaptive_gop = false;
    session.keyframe_on_loss = true;

    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    EXPECT_GT(report->stats.frames_lost, 0u);
    EXPECT_GT(report->stats.keyframes_forced, 0u);
}

TEST(StreamSession, AcceptanceFivePercentLossThirtyFrames)
{
    // ISSUE 3 acceptance: ChannelSpec{loss=0.05}, 30-frame IPP
    // stream; every frame gets an outcome, >= 90% ok-or-concealed.
    const auto frames = testVideo(30, 17, 4000);
    SessionConfig session;
    session.channel = ChannelSpec::lossy(0.05, 42);

    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    ASSERT_EQ(report->frames.size(), 30u);
    EXPECT_EQ(report->stats.totalFrames(), 30u);
    EXPECT_GE(report->stats.okOrConcealedFraction(), 0.9);
    for (std::size_t f = 0; f < report->frames.size(); ++f)
        EXPECT_EQ(report->frames[f].frame_id, f);
}

/** PR 10 acceptance: a 2-3-loss burst channel is survivable
 *  without any retransmission once RS parity depth covers the
 *  burst length. The redundancy controller is deliberately off so
 *  the geometry under test stays fixed. */
TEST(StreamSession, RsBurstAcceptanceNoNackRoundTrips)
{
    const auto frames = testVideo(20, 17, 4000);
    SessionConfig session;
    session.channel = ChannelSpec::bursty(0.02, 3, 1);
    session.mtu_payload = 400;
    session.fec.enabled = true;
    session.fec.scheme = FecScheme::kReedSolomon;
    session.fec.group_size = 6;
    session.fec.parity_chunks = 3;

    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    EXPECT_GT(report->fec.multi_loss_groups, 0u);
    EXPECT_GE(report->fec.multiLossRecoveredFraction(), 0.9);
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_EQ(report->stats.frames_lost, 0u);
}

TEST(StreamSession, DeterministicAcrossRuns)
{
    const auto frames = testVideo(9);
    SessionConfig session;
    session.channel = ChannelSpec::lossy(0.3, 21);

    StreamSession a(makeIntraInterV1Config(), session);
    StreamSession b(makeIntraInterV1Config(), session);
    auto ra = a.run(frames);
    auto rb = b.run(frames);
    ASSERT_TRUE(ra.hasValue());
    ASSERT_TRUE(rb.hasValue());
    ASSERT_EQ(ra->frames.size(), rb->frames.size());
    for (std::size_t f = 0; f < ra->frames.size(); ++f) {
        EXPECT_EQ(ra->frames[f].outcome, rb->frames[f].outcome);
        EXPECT_EQ(ra->frames[f].cloud.x(),
                  rb->frames[f].cloud.x());
        EXPECT_EQ(ra->frames[f].cloud.r(),
                  rb->frames[f].cloud.r());
    }
    EXPECT_EQ(ra->stats.retransmits, rb->stats.retransmits);
}

TEST(StreamSession, OutcomeNamesAreStable)
{
    EXPECT_STREQ(frameOutcomeName(FrameOutcome::kOk), "ok");
    EXPECT_STREQ(frameOutcomeName(FrameOutcome::kResynced),
                 "resynced");
    EXPECT_STREQ(frameOutcomeName(FrameOutcome::kConcealed),
                 "concealed");
    EXPECT_STREQ(frameOutcomeName(FrameOutcome::kSkipped),
                 "skipped");
}

TEST(StreamSession, RejectsEmptyInput)
{
    StreamSession stream(makeIntraOnlyConfig(), SessionConfig{});
    EXPECT_FALSE(stream.run({}).hasValue());
}

}  // namespace
}  // namespace edgepcc
