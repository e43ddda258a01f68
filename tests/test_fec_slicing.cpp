/**
 * @file
 * ISSUE-4 streaming features: v2 chunk header (slice + FEC fields)
 * with v1 back-compat pinned byte-for-byte, sub-frame slicing and
 * reassembly (reordered slices, one-slice blast radius for a bit
 * flip), XOR-parity FEC through the shared erasure code (parity
 * bytes against a plain XOR of records, each chunk lost in turn,
 * parity itself lost, two losses, final partial group),
 * the session-level 5%-loss acceptance criterion, and the
 * network-aware transport mode of the pipeline evaluator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/lossy_channel.h"
#include "edgepcc/stream/pipeline.h"
#include "edgepcc/stream/rs_fec.h"
#include "edgepcc/stream/stream_session.h"

namespace edgepcc {
namespace {

std::vector<VoxelCloud>
testVideo(int num_frames, std::uint64_t seed = 91,
          std::size_t points = 6000)
{
    VideoSpec spec;
    spec.name = "fec-slicing-test";
    spec.seed = seed;
    spec.target_points = points;
    SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    frames.reserve(static_cast<std::size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f)
        frames.push_back(video.frame(f));
    return frames;
}

std::vector<std::uint8_t>
patternPayload(std::size_t size, std::uint8_t salt)
{
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i)
        payload[i] = static_cast<std::uint8_t>(
            (i * 31 + salt) & 0xff);
    return payload;
}

/** One member of a synthetic FEC group. */
ParsedChunk
makeDataChunk(std::uint8_t fec_seq, std::size_t payload_size,
              std::uint16_t fec_group = 7,
              std::uint8_t group_size = 3)
{
    ParsedChunk chunk;
    chunk.header.frame_id = 5;
    chunk.header.gop_id = 4;
    chunk.header.frame_type = Frame::Type::kPredicted;
    chunk.header.flags = kChunkFlagFec;
    chunk.header.slice_index = fec_seq;
    chunk.header.slice_count = group_size;
    chunk.header.fec_group = fec_group;
    chunk.header.fec_seq = fec_seq;
    chunk.header.fec_group_size = group_size;
    chunk.payload = patternPayload(payload_size, fec_seq);
    return chunk;
}

// -----------------------------------------------------------------
// Wire format: v1 back-compat and v2 round-trip
// -----------------------------------------------------------------

/** A default header must serialize to the exact v1 layout — this
 *  pins the clean-channel byte-identity acceptance criterion. */
TEST(ChunkV2, DefaultHeaderEmitsV1Bytes)
{
    ChunkHeader header;
    header.sequence = 0x04030201u;
    header.frame_id = 0x14131211u;
    header.gop_id = 0x24232221u;
    header.frame_type = Frame::Type::kPredicted;
    const std::vector<std::uint8_t> payload = {0xaa, 0xbb, 0xcc};
    const auto wire = serializeChunk(header, payload);

    ASSERT_EQ(wire.size(), kChunkHeaderBytes + payload.size());
    // Hand-built v1 header, field by field.
    const std::uint8_t expected_prefix[] = {
        'E',  'P',  'C',  'K',         // marker
        0x01, 0x02, 0x03, 0x04,        // sequence LE
        0x11, 0x12, 0x13, 0x14,        // frame_id LE
        0x21, 0x22, 0x23, 0x24,        // gop_id LE
        0x01,                          // frame_type = P
        0x00,                          // flags (no V2 bit)
        0x03, 0x00, 0x00, 0x00,        // payload_size LE
    };
    for (std::size_t i = 0; i < sizeof(expected_prefix); ++i)
        EXPECT_EQ(wire[i], expected_prefix[i]) << "byte " << i;

    WireScanStats stats;
    const auto parsed = scanWire(wire, &stats);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(stats.chunks_ok, 1u);
    EXPECT_FALSE(parsed[0].header.isV2());
    EXPECT_EQ(parsed[0].header.slice_count, 1);
    EXPECT_EQ(parsed[0].payload, payload);
}

TEST(ChunkV2, ExtensionFieldsRoundTrip)
{
    ChunkHeader header;
    header.sequence = 9;
    header.frame_id = 3;
    header.gop_id = 2;
    header.frame_type = Frame::Type::kPredicted;
    header.flags = kChunkFlagFec;
    header.slice_index = 513;
    header.slice_count = 777;
    header.fec_group = 0xbeef;
    header.fec_seq = 3;
    header.fec_group_size = 4;
    const auto payload = patternPayload(64, 1);
    const auto wire = serializeChunk(header, payload);
    ASSERT_EQ(wire.size(), kChunkHeaderBytesV2 + payload.size());

    const auto parsed = scanWire(wire);
    ASSERT_EQ(parsed.size(), 1u);
    const ChunkHeader &h = parsed[0].header;
    EXPECT_TRUE(h.isV2());
    EXPECT_EQ(h.flags & kChunkFlagFec, kChunkFlagFec);
    EXPECT_EQ(h.slice_index, 513);
    EXPECT_EQ(h.slice_count, 777);
    EXPECT_EQ(h.fec_group, 0xbeef);
    EXPECT_EQ(h.fec_seq, 3);
    EXPECT_EQ(h.fec_group_size, 4);
    EXPECT_EQ(parsed[0].payload, payload);
}

/** v1 and v2 chunks interleaved in one buffer both parse — a v2
 *  receiver accepts old streams and vice versa for clean chunks. */
TEST(ChunkV2, MixedVersionsInOneWire)
{
    ChunkHeader v1;
    v1.frame_id = 1;
    ChunkHeader v2;
    v2.frame_id = 2;
    v2.slice_index = 1;
    v2.slice_count = 2;
    const auto wire = concatWire({
        serializeChunk(v1, patternPayload(10, 0)),
        serializeChunk(v2, patternPayload(11, 1)),
        serializeChunk(v1, patternPayload(12, 2)),
    });
    WireScanStats stats;
    const auto parsed = scanWire(wire, &stats);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(stats.bytes_skipped, 0u);
    EXPECT_FALSE(parsed[0].header.isV2());
    EXPECT_TRUE(parsed[1].header.isV2());
    EXPECT_EQ(parsed[1].header.slice_index, 1);
}

/** Flipping the V2 flag bit moves the CRC offset; the scan must
 *  reject the chunk rather than misparse it. */
TEST(ChunkV2, FlippedVersionBitRejected)
{
    ChunkHeader header;
    header.frame_id = 1;
    auto wire = serializeChunk(header, patternPayload(32, 3));
    wire[17] ^= kChunkFlagV2;
    WireScanStats stats;
    const auto parsed = scanWire(wire, &stats);
    EXPECT_TRUE(parsed.empty());
    EXPECT_GE(stats.chunks_bad_crc + stats.chunks_truncated, 1u);
}

// -----------------------------------------------------------------
// Sub-frame slicing
// -----------------------------------------------------------------

TEST(Slicing, SplitAndReassemble)
{
    ChunkHeader base;
    base.frame_id = 6;
    base.gop_id = 6;
    const auto payload = patternPayload(1000, 9);
    const auto slices = sliceFramePayload(base, payload, 300);
    ASSERT_EQ(slices.size(), 4u);  // 300+300+300+100
    std::vector<const std::vector<std::uint8_t> *> parts;
    for (const ParsedChunk &slice : slices) {
        EXPECT_EQ(slice.header.slice_count, 4);
        EXPECT_EQ(slice.header.frame_id, 6u);
        EXPECT_LE(slice.payload.size(), 300u);
        parts.push_back(&slice.payload);
    }
    EXPECT_EQ(slices[3].payload.size(), 100u);
    EXPECT_EQ(assembleSlices(parts), payload);
}

TEST(Slicing, ZeroMtuKeepsV1SingleChunk)
{
    ChunkHeader base;
    const auto payload = patternPayload(5000, 2);
    const auto slices = sliceFramePayload(base, payload, 0);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_FALSE(slices[0].header.isV2());
    EXPECT_EQ(slices[0].payload, payload);
}

/** Slices arriving in reverse order still reassemble and decode. */
TEST(Slicing, ReorderedSlicesReassemble)
{
    const auto frames = testVideo(1);
    VideoEncoder encoder(makeIntraOnlyConfig());
    auto encoded = encoder.encode(frames[0]);
    ASSERT_TRUE(encoded.hasValue());

    ChunkHeader base;
    base.frame_id = 0;
    auto slices =
        sliceFramePayload(base, encoded->bitstream, 256);
    ASSERT_GT(slices.size(), 2u);
    std::reverse(slices.begin(), slices.end());

    StreamReceiver receiver;
    for (const ParsedChunk &slice : slices)
        receiver.ingest(
            serializeChunk(slice.header, slice.payload));
    EXPECT_TRUE(receiver.hasFrame(0));
    const auto decoded = receiver.decodeAll(1);
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].outcome, FrameOutcome::kOk);
}

/** A bit flip knocks out exactly the slice it hit. */
TEST(Slicing, BitFlipCostsOneSlice)
{
    ChunkHeader base;
    base.frame_id = 0;
    const auto payload = patternPayload(900, 5);
    const auto slices = sliceFramePayload(base, payload, 300);
    ASSERT_EQ(slices.size(), 3u);

    StreamReceiver receiver;
    for (std::size_t i = 0; i < slices.size(); ++i) {
        auto wire =
            serializeChunk(slices[i].header, slices[i].payload);
        if (i == 1)
            wire[wire.size() / 2] ^= 0x10;
        receiver.ingest(wire);
    }
    EXPECT_FALSE(receiver.hasFrame(0));
    EXPECT_TRUE(receiver.hasSlice(0, 0));
    EXPECT_FALSE(receiver.hasSlice(0, 1));
    EXPECT_TRUE(receiver.hasSlice(0, 2));
}

// -----------------------------------------------------------------
// XOR-parity FEC reconstruction
// -----------------------------------------------------------------

/** XOR parity of an owning group from the shared erasure builder. */
std::vector<std::uint8_t>
xorParity(const std::vector<ParsedChunk> &group)
{
    std::vector<ChunkView> views;
    for (const ParsedChunk &chunk : group)
        views.push_back({chunk.header, ByteSpan(chunk.payload)});
    std::vector<std::uint8_t> parity;
    buildRsParityInto(views, 0, parity, FecScheme::kXor);
    return parity;
}

/** Recovers a k-data XOR group from `received` and its parity. */
std::optional<std::vector<ParsedChunk>>
recoverXor(int k, const std::vector<ParsedChunk> &received,
           const std::vector<std::uint8_t> &parity)
{
    std::map<std::uint8_t, ParsedChunk> data;
    for (const ParsedChunk &chunk : received)
        data.emplace(chunk.header.fec_seq, chunk);
    return recoverRsChunks(k, data, {{0, parity}}, FecScheme::kXor);
}

/** The shared builder's XOR row is byte for byte the plain XOR of
 *  the group's records, zero-padded to the longest. */
TEST(Fec, XorParityMatchesPlainRecordXor)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 200),
        makeDataChunk(1, 150),
        makeDataChunk(2, 220),
        makeDataChunk(3, 0),
    };
    std::vector<std::uint8_t> expected;
    for (const ParsedChunk &chunk : group) {
        std::vector<std::uint8_t> record(kFecRecordPrefixBytes);
        writeFecRecordPrefix(record.data(), chunk.header,
                             chunk.payload.size());
        record.insert(record.end(), chunk.payload.begin(),
                      chunk.payload.end());
        if (record.size() > expected.size())
            expected.resize(record.size(), 0);
        for (std::size_t i = 0; i < record.size(); ++i)
            expected[i] ^= record[i];
    }
    EXPECT_EQ(xorParity(group), expected);
}

TEST(Fec, RecoversEachChunkInTurn)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 200),
        makeDataChunk(1, 150),  // shorter than the longest
        makeDataChunk(2, 220),
    };
    const auto parity = xorParity(group);
    for (std::size_t lost = 0; lost < group.size(); ++lost) {
        std::vector<ParsedChunk> received;
        for (std::size_t i = 0; i < group.size(); ++i) {
            if (i != lost)
                received.push_back(group[i]);
        }
        const auto rebuilt = recoverXor(3, received, parity);
        ASSERT_TRUE(rebuilt.has_value()) << "lost " << lost;
        ASSERT_EQ(rebuilt->size(), 1u) << "lost " << lost;
        const ChunkHeader &header = rebuilt->front().header;
        EXPECT_EQ(header.frame_id, group[lost].header.frame_id);
        EXPECT_EQ(header.gop_id, group[lost].header.gop_id);
        EXPECT_EQ(header.slice_index,
                  group[lost].header.slice_index);
        EXPECT_EQ(header.slice_count,
                  group[lost].header.slice_count);
        EXPECT_EQ(header.frame_type,
                  group[lost].header.frame_type);
        EXPECT_EQ(header.fec_seq, group[lost].header.fec_seq);
        EXPECT_FALSE(header.isRsFec());
        EXPECT_EQ(rebuilt->front().payload, group[lost].payload);
    }
}

TEST(Fec, TwoLossesRejected)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 200),
        makeDataChunk(1, 150),
        makeDataChunk(2, 220),
    };
    const auto parity = xorParity(group);
    // Only one survivor: one parity row cannot solve two erasures.
    EXPECT_FALSE(recoverXor(3, {group[0]}, parity).has_value());
    // Declaring the group one chunk smaller hides the second loss
    // from the count: the residue then mixes two records, and the
    // zero-slack and fec_seq checks must refuse to fabricate data.
    EXPECT_FALSE(recoverXor(2, {group[0]}, parity).has_value());
}

/** Receiver-level: parity chunk itself lost. The data is complete,
 *  so nothing needs recovery, and the group still counts as a
 *  single loss survived without retransmission. */
TEST(Fec, ParityLostDataComplete)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 100),
        makeDataChunk(1, 100),
        makeDataChunk(2, 100),
    };
    StreamReceiver receiver;
    for (const ParsedChunk &chunk : group)
        receiver.ingest(
            serializeChunk(chunk.header, chunk.payload));
    const FecStats stats = receiver.fecStats();
    EXPECT_EQ(stats.groups, 1u);
    EXPECT_EQ(stats.parity_received, 0u);
    EXPECT_EQ(stats.recovered_chunks, 0u);
    EXPECT_EQ(stats.single_loss_groups, 1u);
    EXPECT_EQ(stats.single_loss_recovered, 1u);
    EXPECT_DOUBLE_EQ(stats.singleLossRecoveredFraction(), 1.0);
}

/** Receiver-level: one data chunk lost, parity arrives late. */
TEST(Fec, ReceiverRecoversFromParity)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 300),
        makeDataChunk(1, 300),
        makeDataChunk(2, 140),
    };
    ChunkHeader parity_header = group[0].header;
    parity_header.flags = kChunkFlagParity | kChunkFlagFec;
    parity_header.slice_index = 0;
    parity_header.fec_seq = kFecParitySeq;
    const auto parity = xorParity(group);

    StreamReceiver receiver;
    receiver.ingest(
        serializeChunk(group[0].header, group[0].payload));
    receiver.ingest(
        serializeChunk(group[2].header, group[2].payload));
    EXPECT_FALSE(receiver.hasSlice(5, 1));
    receiver.ingest(serializeChunk(parity_header, parity));
    EXPECT_TRUE(receiver.hasSlice(5, 1));
    EXPECT_TRUE(receiver.hasFrame(5));

    const FecStats stats = receiver.fecStats();
    EXPECT_EQ(stats.recovered_chunks, 1u);
    EXPECT_EQ(stats.single_loss_groups, 1u);
    EXPECT_EQ(stats.single_loss_recovered, 1u);
    EXPECT_EQ(stats.unrecovered_groups, 0u);
}

/** Receiver-level: two data chunks lost in one group — recovery is
 *  impossible and the group is reported for the NACK fallback. */
TEST(Fec, ReceiverTwoLossesFallBackToNack)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 300),
        makeDataChunk(1, 300),
        makeDataChunk(2, 140),
    };
    ChunkHeader parity_header = group[0].header;
    parity_header.flags = kChunkFlagParity | kChunkFlagFec;
    parity_header.fec_seq = kFecParitySeq;
    const auto parity = xorParity(group);

    StreamReceiver receiver;
    receiver.ingest(
        serializeChunk(group[0].header, group[0].payload));
    receiver.ingest(serializeChunk(parity_header, parity));
    const FecStats stats = receiver.fecStats();
    EXPECT_EQ(stats.recovered_chunks, 0u);
    EXPECT_EQ(stats.single_loss_groups, 0u);
    EXPECT_EQ(stats.unrecovered_groups, 1u);
    EXPECT_FALSE(receiver.hasFrame(5));
}

/** Loss on the final partial group of a frame (fewer data chunks
 *  than FecSpec::group_size) still recovers. */
TEST(Fec, FinalPartialGroupRecovers)
{
    // Group of 2 (e.g. 6 slices with group_size 4 -> 4 + 2).
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 180, /*fec_group=*/9, /*group_size=*/2),
        makeDataChunk(1, 90, /*fec_group=*/9, /*group_size=*/2),
    };
    ChunkHeader parity_header = group[0].header;
    parity_header.flags = kChunkFlagParity | kChunkFlagFec;
    parity_header.fec_seq = kFecParitySeq;
    const auto parity = xorParity(group);

    StreamReceiver receiver;
    receiver.ingest(serializeChunk(parity_header, parity));
    receiver.ingest(
        serializeChunk(group[1].header, group[1].payload));
    const FecStats stats = receiver.fecStats();
    EXPECT_EQ(stats.recovered_chunks, 1u);
    EXPECT_TRUE(receiver.hasSlice(5, 0));
}

// -----------------------------------------------------------------
// Session-level FEC + slicing
// -----------------------------------------------------------------

SessionConfig
fecSessionConfig(double loss, std::uint64_t seed)
{
    SessionConfig session;
    session.channel = ChannelSpec::lossy(loss, seed);
    session.mtu_payload = 400;
    session.fec.enabled = true;
    session.fec.group_size = 4;
    return session;
}

/** ISSUE-4 acceptance: at 5% chunk loss, >= 90% of single-loss
 *  groups recover without a retransmission. */
TEST(SessionFec, AcceptanceFivePercentSingleLossRecovery)
{
    const auto frames = testVideo(30);
    StreamSession stream(makeIntraInterV1Config(),
                         fecSessionConfig(0.05, 17));
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());

    // The sliced stream actually exercised FEC.
    EXPECT_GT(report->stats.parity_sent, 0u);
    EXPECT_GT(report->fec.groups, 0u);
    EXPECT_GT(report->fec.single_loss_groups, 0u);
    EXPECT_GT(report->fec.recovered_chunks, 0u);
    EXPECT_GE(report->fec.singleLossRecoveredFraction(), 0.9);

    // FEC + NACK fallback keeps the stream watchable.
    EXPECT_EQ(report->stats.frames_lost, 0u);
    EXPECT_DOUBLE_EQ(report->stats.okOrConcealedFraction(), 1.0);
}

/** FEC reduces retransmissions vs the identical NACK-only run. */
TEST(SessionFec, FewerRetransmitsThanNackOnly)
{
    const auto frames = testVideo(20);
    SessionConfig with_fec = fecSessionConfig(0.05, 23);
    SessionConfig nack_only = with_fec;
    nack_only.fec.enabled = false;

    auto fec_report =
        StreamSession(makeIntraInterV1Config(), with_fec)
            .run(frames);
    auto nack_report =
        StreamSession(makeIntraInterV1Config(), nack_only)
            .run(frames);
    ASSERT_TRUE(fec_report.hasValue());
    ASSERT_TRUE(nack_report.hasValue());
    EXPECT_LT(fec_report->stats.retransmits,
              nack_report->stats.retransmits);
    EXPECT_EQ(nack_report->stats.parity_sent, 0u);
    EXPECT_EQ(nack_report->fec.groups, 0u);
}

TEST(SessionFec, DeterministicAcrossRuns)
{
    const auto frames = testVideo(12);
    const SessionConfig session = fecSessionConfig(0.08, 5);
    auto a = StreamSession(makeIntraInterV1Config(), session)
                 .run(frames);
    auto b = StreamSession(makeIntraInterV1Config(), session)
                 .run(frames);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_EQ(a->stats.chunks_sent, b->stats.chunks_sent);
    EXPECT_EQ(a->stats.retransmits, b->stats.retransmits);
    EXPECT_EQ(a->stats.wire_bytes, b->stats.wire_bytes);
    EXPECT_EQ(a->fec.recovered_chunks, b->fec.recovered_chunks);
    ASSERT_EQ(a->frames.size(), b->frames.size());
    for (std::size_t f = 0; f < a->frames.size(); ++f)
        EXPECT_EQ(a->frames[f].outcome, b->frames[f].outcome);
}

/** Clean channel with slicing+FEC on: zero recovery activity and
 *  every frame intact. */
TEST(SessionFec, CleanChannelNoRecoveryNeeded)
{
    const auto frames = testVideo(6);
    SessionConfig session = fecSessionConfig(0.0, 1);
    session.channel = ChannelSpec::clean();
    auto report =
        StreamSession(makeIntraInterV1Config(), session)
            .run(frames);
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_EQ(report->fec.recovered_chunks, 0u);
    EXPECT_EQ(report->fec.single_loss_groups, 0u);
    EXPECT_EQ(report->stats.frames_ok, frames.size());
    EXPECT_GT(report->stats.parity_sent, 0u);
}

// -----------------------------------------------------------------
// Burst loss and FEC interleaving
// -----------------------------------------------------------------

/** The bursty channel drops runs of consecutive chunks — the loss
 *  pattern XOR parity is weakest against without interleaving. */
TEST(Fec, BurstChannelDropsConsecutiveRuns)
{
    const ChannelSpec spec = ChannelSpec::bursty(0.04, 4, 11);
    EXPECT_FALSE(spec.isClean());
    LossyChannel channel(spec);

    // 200 distinguishable chunks; record which survive.
    std::vector<bool> arrived(200, false);
    for (std::uint32_t i = 0; i < 200; ++i) {
        ChunkHeader header;
        header.sequence = i;
        header.frame_id = i;
        const auto wire =
            serializeChunk(header, patternPayload(32, 1));
        for (const auto &out : channel.transmit(wire)) {
            WireScanStats stats;
            const auto parsed = scanWire(out, &stats);
            ASSERT_EQ(parsed.size(), 1u);
            arrived[parsed[0].header.frame_id] = true;
        }
    }
    for (const auto &out : channel.flush())
        (void)out;  // pure burst spec never reorders

    const ChannelStats &stats = channel.stats();
    EXPECT_GT(stats.bursts, 0u);
    EXPECT_EQ(stats.dropped, stats.burst_dropped);
    EXPECT_EQ(stats.burst_dropped, stats.bursts * 4);

    // Every loss run is a whole burst (or back-to-back bursts):
    // a multiple of burst_length consecutive chunks.
    std::size_t run = 0;
    std::size_t lost = 0;
    for (std::size_t i = 0; i <= arrived.size(); ++i) {
        if (i < arrived.size() && !arrived[i]) {
            ++run;
            ++lost;
            continue;
        }
        EXPECT_EQ(run % 4, 0u) << "run ending at chunk " << i;
        run = 0;
    }
    EXPECT_EQ(lost, stats.dropped);
}

/**
 * ISSUE-5 satellite: interleaving spreads a drop burst across FEC
 * groups. With contiguous grouping a 3-chunk burst lands 2+ losses
 * in one XOR group (unrecoverable without NACK); with interleave
 * depth 4 the same burst costs 3 different groups one chunk each —
 * all parity-recoverable. Same channel, same codec, FEC-only
 * recovery (no retransmission rounds).
 */
TEST(SessionFec, InterleaveSpreadsBurstAcrossGroups)
{
    const auto frames = testVideo(16, 91, 4000);
    SessionConfig contiguous;
    contiguous.channel = ChannelSpec::bursty(0.025, 3, 29);
    contiguous.mtu_payload = 400;
    contiguous.fec.enabled = true;
    contiguous.fec.group_size = 4;
    contiguous.max_retransmits = 0;
    contiguous.adaptive_gop = false;

    SessionConfig interleaved = contiguous;
    interleaved.fec_interleave = 4;

    auto flat = StreamSession(makeIntraInterV1Config(),
                              contiguous)
                    .run(frames);
    auto striped = StreamSession(makeIntraInterV1Config(),
                                 interleaved)
                       .run(frames);
    ASSERT_TRUE(flat.hasValue());
    ASSERT_TRUE(striped.hasValue());

    // Both runs saw bursts; only the interleaved one turns them
    // into single losses per group.
    EXPECT_GT(flat->fec.unrecovered_groups, 0u);
    EXPECT_LT(striped->fec.unrecovered_groups,
              flat->fec.unrecovered_groups);
    EXPECT_GT(striped->stats.frames_ok, flat->stats.frames_ok);
    EXPECT_GT(striped->fec.recovered_chunks, 0u);
}

/** Interleave depth 1 must keep the contiguous wire bytes exactly
 *  (it is the documented no-op default). */
TEST(SessionFec, InterleaveDepthOneIsByteIdentical)
{
    const auto frames = testVideo(6);
    SessionConfig base = fecSessionConfig(0.0, 1);
    base.channel = ChannelSpec::clean();
    SessionConfig depth_one = base;
    depth_one.fec_interleave = 1;

    auto a = StreamSession(makeIntraInterV1Config(), base)
                 .run(frames);
    auto b = StreamSession(makeIntraInterV1Config(), depth_one)
                 .run(frames);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_EQ(a->stats.wire_bytes, b->stats.wire_bytes);
    EXPECT_EQ(a->stats.chunks_sent, b->stats.chunks_sent);
    EXPECT_EQ(a->stats.parity_sent, b->stats.parity_sent);
}

/** Interleaved groups still recover on a clean channel (the
 *  receiver is header-driven, so striping must be transparent). */
TEST(SessionFec, InterleavedCleanChannelAllOk)
{
    const auto frames = testVideo(6);
    SessionConfig session = fecSessionConfig(0.0, 1);
    session.channel = ChannelSpec::clean();
    session.fec_interleave = 4;
    auto report =
        StreamSession(makeIntraInterV1Config(), session)
            .run(frames);
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->stats.frames_ok, frames.size());
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_GT(report->stats.parity_sent, 0u);
    EXPECT_EQ(report->fec.unrecovered_groups, 0u);
}

// -----------------------------------------------------------------
// Reed-Solomon burst acceptance
// -----------------------------------------------------------------

SessionConfig
rsBurstConfig(double burst_rate, int burst_length,
              std::uint64_t seed)
{
    SessionConfig session;
    session.channel =
        ChannelSpec::bursty(burst_rate, burst_length, seed);
    session.mtu_payload = 400;
    session.fec.enabled = true;
    session.fec.scheme = FecScheme::kReedSolomon;
    session.fec.group_size = 6;
    session.fec.parity_chunks = 3;
    return session;
}

/** PR 10 acceptance: on a bursty channel (burst length >= 3) an RS
 *  session with parity depth >= burst length recovers >= 90% of
 *  multi-loss groups with zero NACK round-trips. */
TEST(SessionRsFec, BurstLossRecoversWithoutRetransmit)
{
    const auto frames = testVideo(20);
    StreamSession stream(makeIntraInterV1Config(),
                         rsBurstConfig(0.02, 3, 1));
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());

    // Bursts actually hit FEC groups with multiple losses --
    // patterns XOR parity could never cover.
    EXPECT_GT(report->fec.multi_loss_groups, 0u);
    EXPECT_GE(report->fec.multiLossRecoveredFraction(), 0.9);
    EXPECT_GT(report->fec.recovered_chunks, 0u);

    // Every group was rebuilt from parity before the NACK
    // fallback fired: no retransmission round-trips at all.
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_EQ(report->stats.frames_lost, 0u);
    EXPECT_EQ(report->stats.frames_ok, frames.size());
}

/** On the identical burst channel, XOR parity (depth 1) leaves
 *  multi-loss groups for the NACK fallback while RS solves them
 *  in-stream. */
TEST(SessionRsFec, FewerRetransmitsThanXorOnBurstChannel)
{
    const auto frames = testVideo(20);
    SessionConfig rs = rsBurstConfig(0.02, 3, 1);
    SessionConfig xor_fec = rs;
    xor_fec.fec.scheme = FecScheme::kXor;

    auto rs_report =
        StreamSession(makeIntraInterV1Config(), rs).run(frames);
    auto xor_report =
        StreamSession(makeIntraInterV1Config(), xor_fec)
            .run(frames);
    ASSERT_TRUE(rs_report.hasValue());
    ASSERT_TRUE(xor_report.hasValue());

    // XOR cannot rebuild any multi-loss group; RS rebuilt them
    // all, so only the XOR run pays retransmission round-trips.
    EXPECT_EQ(xor_report->fec.multi_loss_recovered, 0u);
    EXPECT_GT(xor_report->stats.retransmits,
              rs_report->stats.retransmits);
    EXPECT_GT(rs_report->fec.multi_loss_recovered, 0u);
}

/** Clean channel: RS parity rows ride along but no recovery or
 *  retransmission activity happens. */
TEST(SessionRsFec, CleanChannelSendsParityOnly)
{
    const auto frames = testVideo(6);
    SessionConfig session = rsBurstConfig(0.0, 3, 7);
    session.channel = ChannelSpec::clean();
    auto report =
        StreamSession(makeIntraInterV1Config(), session)
            .run(frames);
    ASSERT_TRUE(report.hasValue());
    EXPECT_GT(report->stats.parity_sent, 0u);
    EXPECT_EQ(report->fec.recovered_chunks, 0u);
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_EQ(report->stats.frames_ok, frames.size());
}

// -----------------------------------------------------------------
// Pinned session wire
// -----------------------------------------------------------------

/** FNV-1a over `size` bytes, chained through `hash`. */
std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t hash = 0xcbf29ce484222325ull)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

template <typename T>
std::uint64_t
fnv1aVector(const std::vector<T> &values, std::uint64_t hash)
{
    return fnv1a(values.data(), values.size() * sizeof(T), hash);
}

/** Digest of every per-frame field, the FEC accounting and the
 *  scan accounting of one session report. */
std::uint64_t
digestSessionReport(const SessionReport &report)
{
    std::uint64_t hash = fnv1a(nullptr, 0);
    for (const SessionFrame &frame : report.frames) {
        const std::uint64_t fields[] = {
            frame.frame_id,
            static_cast<std::uint64_t>(frame.outcome),
            static_cast<std::uint64_t>(frame.type),
            static_cast<std::uint64_t>(frame.retransmits),
            static_cast<std::uint64_t>(frame.nack_rounds),
            frame.payload_bytes,
            frame.wire_bytes,
            static_cast<std::uint64_t>(frame.cloud.gridBits()),
            frame.cloud.size(),
        };
        hash = fnv1a(fields, sizeof fields, hash);
        hash = fnv1aVector(frame.cloud.x(), hash);
        hash = fnv1aVector(frame.cloud.y(), hash);
        hash = fnv1aVector(frame.cloud.z(), hash);
        hash = fnv1aVector(frame.cloud.r(), hash);
        hash = fnv1aVector(frame.cloud.g(), hash);
        hash = fnv1aVector(frame.cloud.b(), hash);
    }
    const FecStats &fec = report.fec;
    const WireScanStats &wire = report.wire;
    const std::uint64_t totals[] = {
        fec.groups,
        fec.parity_received,
        fec.recovered_chunks,
        fec.single_loss_groups,
        fec.single_loss_recovered,
        fec.unrecovered_groups,
        fec.multi_loss_groups,
        fec.multi_loss_recovered,
        wire.bytes_scanned,
        wire.bytes_skipped,
        wire.chunks_ok,
        wire.chunks_bad_crc,
        wire.chunks_truncated,
        report.stats.chunks_sent,
        report.stats.parity_sent,
    };
    return fnv1a(totals, sizeof totals, hash);
}

/**
 * Pins the whole observable session output for every parity scheme
 * at interleave depths 1 and 3, on a seeded burst channel that also
 * flips bits, truncates and reorders. The constants were computed
 * before XOR and Reed-Solomon shared one erasure code, so any change
 * to the wire, the recovery or the accounting shows up here. No FEC
 * with interleaving is an invalid configuration and must stay
 * rejected.
 */
TEST(SessionWire, PinnedReportDigests)
{
    const auto frames = testVideo(10, 91, 4000);
    struct Case {
        const char *name;
        bool fec;
        FecScheme scheme;
        int interleave;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"none/1", false, FecScheme::kXor, 1,
         0x1cd4d5ac73975b37ull},
        {"xor/1", true, FecScheme::kXor, 1,
         0xbf1398c95d4af316ull},
        {"xor/3", true, FecScheme::kXor, 3,
         0xd951f941b5a4be00ull},
        {"rs/1", true, FecScheme::kReedSolomon, 1,
         0x2673a1a0565ab461ull},
        {"rs/3", true, FecScheme::kReedSolomon, 3,
         0x8dcb11bc1f8c5025ull},
    };
    const auto configFor = [](bool fec, FecScheme scheme,
                              int interleave) {
        SessionConfig session;
        session.channel = ChannelSpec::bursty(0.03, 3, 41);
        session.channel.bit_flip_rate = 0.01;
        session.channel.truncate_rate = 0.01;
        session.channel.reorder_rate = 0.03;
        session.mtu_payload = 300;
        session.fec.enabled = fec;
        session.fec.scheme = scheme;
        session.fec.group_size = 6;
        session.fec.parity_chunks = 3;
        session.fec_interleave = interleave;
        return session;
    };
    for (const Case &c : cases) {
        auto report =
            StreamSession(makeIntraInterV1Config(),
                          configFor(c.fec, c.scheme, c.interleave))
                .run(frames);
        ASSERT_TRUE(report.hasValue()) << c.name;
        EXPECT_EQ(digestSessionReport(*report), c.digest)
            << c.name << ": 0x" << std::hex
            << digestSessionReport(*report);
    }
    auto rejected =
        StreamSession(makeIntraInterV1Config(),
                      configFor(false, FecScheme::kXor, 3))
            .run(frames);
    ASSERT_FALSE(rejected.hasValue());
    EXPECT_EQ(rejected.status().code(),
              StatusCode::kInvalidArgument);
}

// -----------------------------------------------------------------
// Network-aware pipeline evaluation
// -----------------------------------------------------------------

TEST(PipelineTransport, ReportsRecoveryLatency)
{
    const auto frames = testVideo(8, 91, 4000);
    PipelineConfig config;
    config.network = NetworkSpec::wifi();
    config.network.packet_loss_rate = 0.05;
    config.transport = true;
    config.transport_seed = 3;
    config.session.mtu_payload = 400;
    config.session.fec.enabled = true;

    auto report = evaluatePipeline(
        frames, makeIntraInterV1Config(), config);
    ASSERT_TRUE(report.hasValue());
    EXPECT_TRUE(report->transport);
    ASSERT_EQ(report->frames.size(), frames.size());
    EXPECT_GT(report->session.chunks_sent, 0u);
    double recovery = 0.0;
    for (const FrameLatency &frame : report->frames) {
        // Wire bytes include framing + parity, so they exceed the
        // raw payload for every delivered frame.
        EXPECT_GT(frame.wire_bytes, frame.bytes);
        EXPECT_GT(frame.transmit_s, 0.0);
        EXPECT_GE(frame.recovery_s, 0.0);
        EXPECT_GE(frame.total(),
                  frame.capture_s + frame.render_s);
        recovery += frame.recovery_s;
        if (frame.retransmits > 0) {
            EXPECT_GT(frame.recovery_s, 0.0);
        }
    }
    EXPECT_EQ(report->meanRecoverySeconds() * frames.size(),
              recovery);
}

/** Without transport the analytic model is untouched: loss-free
 *  session stats stay zero and recovery is zero. */
TEST(PipelineTransport, AnalyticModeUnchanged)
{
    const auto frames = testVideo(3, 91, 3000);
    PipelineConfig config;
    auto report = evaluatePipeline(
        frames, makeIntraOnlyConfig(), config);
    ASSERT_TRUE(report.hasValue());
    EXPECT_FALSE(report->transport);
    EXPECT_EQ(report->session.chunks_sent, 0u);
    for (const FrameLatency &frame : report->frames) {
        EXPECT_EQ(frame.recovery_s, 0.0);
        EXPECT_EQ(frame.outcome, FrameOutcome::kOk);
        EXPECT_EQ(frame.wire_bytes, frame.bytes);
    }
}

/** Transport evaluation is deterministic for a fixed seed. */
TEST(PipelineTransport, Deterministic)
{
    const auto frames = testVideo(5, 91, 3000);
    PipelineConfig config;
    config.network = NetworkSpec::lte();
    config.transport = true;
    config.transport_seed = 11;
    config.session.mtu_payload = 500;
    config.session.fec.enabled = true;

    auto a = evaluatePipeline(frames, makeIntraInterV1Config(),
                              config);
    auto b = evaluatePipeline(frames, makeIntraInterV1Config(),
                              config);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_EQ(a->session.wire_bytes, b->session.wire_bytes);
    ASSERT_EQ(a->frames.size(), b->frames.size());
    for (std::size_t f = 0; f < a->frames.size(); ++f) {
        EXPECT_EQ(a->frames[f].wire_bytes,
                  b->frames[f].wire_bytes);
        EXPECT_DOUBLE_EQ(a->frames[f].total(),
                         b->frames[f].total());
    }
}

}  // namespace
}  // namespace edgepcc
