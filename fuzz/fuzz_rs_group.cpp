/**
 * @file
 * Fuzz target: the FEC erasure decoder shared by XOR and
 * Reed-Solomon groups.
 *
 * The first input byte selects the coefficient rule (odd: XOR, one
 * all-ones parity row; even: Reed-Solomon). The remaining bytes are
 * scanned as chunk wire; every chunk that parses and carries the
 * selected scheme's kChunkFlagRsFec bit is sorted into a synthetic
 * FEC group (data rows keyed by fec_seq, parity payloads keyed by
 * their rsParitySeq row, at most one row for XOR) and fed to
 * recoverRsChunks() under an attacker-chosen k. The decoder must
 * either decline (nullopt) or return fully validated chunks —
 * in-range sequence numbers and payload sizes that match the
 * embedded record — and must never read or write out of bounds no
 * matter how inconsistent the group composition is. The wire also
 * goes through the resilient receiver so the session-level path
 * (group tracking, parity buffering, NACK fallback) sees the same
 * adversarial bytes for both schemes.
 */

#include <iterator>
#include <map>

#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/rs_fec.h"
#include "edgepcc/stream/stream_session.h"

#include "fuzz_common.h"

namespace edgepcc::fuzzing {

namespace {
constexpr int kSeedGroupSize = 4;
constexpr int kSeedParityRows = 2;

/** Appends one pristine group of `k` data chunks of frame
 *  `frame_id` plus its parity rows, exactly as the sender emits
 *  them. */
void
appendGroup(std::vector<std::uint8_t> &wire, FecScheme scheme,
            std::uint32_t frame_id, std::uint16_t fec_group, int k,
            int parity_rows)
{
    const auto fec_flags = static_cast<std::uint8_t>(
        kChunkFlagFec |
        (scheme == FecScheme::kReedSolomon ? kChunkFlagRsFec : 0));
    std::vector<ParsedChunk> group;
    for (int i = 0; i < k; ++i) {
        ParsedChunk chunk;
        chunk.header.sequence = static_cast<std::uint32_t>(i);
        chunk.header.frame_id = frame_id;
        chunk.header.gop_id = 8;
        chunk.header.frame_type = Frame::Type::kPredicted;
        chunk.header.flags = fec_flags;
        chunk.header.slice_index = static_cast<std::uint16_t>(i);
        chunk.header.slice_count = static_cast<std::uint16_t>(k);
        chunk.header.fec_group = fec_group;
        chunk.header.fec_seq = static_cast<std::uint8_t>(i);
        chunk.header.fec_group_size = static_cast<std::uint8_t>(k);
        chunk.payload.assign(
            static_cast<std::size_t>(40 + i * 13),
            static_cast<std::uint8_t>(0x21 * (i + 1)));
        group.push_back(chunk);
    }

    std::vector<ChunkView> views;
    views.reserve(group.size());
    for (const ParsedChunk &chunk : group)
        views.push_back(
            ChunkView{chunk.header, ByteSpan(chunk.payload)});

    for (const ParsedChunk &chunk : group) {
        const auto bytes = serializeChunk(chunk.header,
                                          chunk.payload);
        wire.insert(wire.end(), bytes.begin(), bytes.end());
    }
    std::vector<std::uint8_t> parity;
    for (int row = 0; row < parity_rows; ++row) {
        buildRsParityInto(views, row, parity, scheme);
        ChunkHeader header = group.front().header;
        header.flags =
            static_cast<std::uint8_t>(kChunkFlagParity | fec_flags);
        header.fec_seq = rsParitySeq(row);
        const auto bytes = serializeChunk(header, parity);
        wire.insert(wire.end(), bytes.begin(), bytes.end());
    }
}
}  // namespace

/** The scheme byte (Reed-Solomon), then a k = 4, m = 2 RS group of
 *  frame 9 and a k = 3 XOR group of frame 10. */
std::vector<std::uint8_t>
seedPayload()
{
    std::vector<std::uint8_t> input = {0};
    appendGroup(input, FecScheme::kReedSolomon, 9, 3, kSeedGroupSize,
                kSeedParityRows);
    appendGroup(input, FecScheme::kXor, 10, 4, 3, 1);
    return input;
}

}  // namespace edgepcc::fuzzing

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace edgepcc;
    if (size == 0 || size > fuzzing::kMaxInputBytes)
        return 0;
    const FecScheme scheme = (data[0] & 1u) != 0
                                 ? FecScheme::kXor
                                 : FecScheme::kReedSolomon;
    const std::vector<std::uint8_t> wire(data + 1, data + size);

    // Phase 1: direct group reassembly. Whatever chunks of the
    // selected scheme survive the wire scan become one group; k
    // comes from the first one's claimed group size so mismatched
    // metadata is exercised too.
    std::vector<ParsedChunk> chunks = scanWire(wire);
    std::erase_if(chunks, [scheme](const ParsedChunk &chunk) {
        return chunk.header.isRsFec() !=
               (scheme == FecScheme::kReedSolomon);
    });
    if (!chunks.empty()) {
        std::map<std::uint8_t, ParsedChunk> group_data;
        std::map<int, std::vector<std::uint8_t>> parity_rows;
        for (const ParsedChunk &chunk : chunks) {
            const int row = rsParityRow(chunk.header.fec_seq);
            if ((chunk.header.flags & kChunkFlagParity) != 0 &&
                row >= 0 && row < kRsMaxGroupPlusParity)
                parity_rows[row] = chunk.payload;
            else
                group_data[chunk.header.fec_seq] = chunk;
        }
        const int k = chunks.front().header.fec_group_size != 0
                          ? chunks.front().header.fec_group_size
                          : fuzzing::kSeedGroupSize;
        // XOR has a single parity row.
        if (scheme == FecScheme::kXor && parity_rows.size() > 1)
            parity_rows.erase(std::next(parity_rows.begin()),
                              parity_rows.end());
        const auto recovered =
            recoverRsChunks(k, group_data, parity_rows, scheme);
        if (recovered.has_value()) {
            fuzzing::require(scheme != FecScheme::kXor ||
                                 recovered->size() <= 1,
                             "XOR recovered more than one chunk");
            for (const ParsedChunk &chunk : *recovered) {
                fuzzing::require(chunk.header.fec_seq <
                                     static_cast<unsigned>(k),
                                 "recovered fec_seq out of group");
                fuzzing::require(
                    group_data.find(chunk.header.fec_seq) ==
                        group_data.end(),
                    "recovered a chunk that was never missing");
                fuzzing::require(chunk.payload.size() <=
                                     fuzzing::kMaxInputBytes,
                                 "recovered payload impossibly big");
            }
        }
    }

    // Phase 2: the resilient receiver over the same wire — the
    // session-side group tracker (which recovers on ingest) must
    // stay crash-free for both schemes and report one validated
    // outcome per expected frame.
    StreamReceiver receiver;
    receiver.ingest(wire);
    const std::vector<SessionFrame> frames = receiver.decodeAll(2);
    fuzzing::require(frames.size() == 2,
                     "receiver must report every expected frame");
    for (const SessionFrame &frame : frames) {
        const std::uint32_t grid = frame.cloud.gridSize();
        for (std::size_t i = 0; i < frame.cloud.size(); ++i) {
            fuzzing::require(frame.cloud.x()[i] < grid,
                             "receiver x out of grid");
            fuzzing::require(frame.cloud.y()[i] < grid,
                             "receiver y out of grid");
            fuzzing::require(frame.cloud.z()[i] < grid,
                             "receiver z out of grid");
        }
    }
    return 0;
}
