/**
 * @file
 * Packetized transport framing for .epcv streams.
 *
 * The plain .epcv container (stream_file.h) is a clean-file format:
 * one corrupt length prefix and everything after it is unreachable.
 * For transmission over a lossy channel every encoded frame is
 * instead wrapped in one or more self-delimiting *chunks*:
 *
 *   marker 'E''P''C''K' | sequence u32 | frame_id u32 | gop_id u32 |
 *   frame_type u8 | flags u8 | payload_size u32 |
 *   [v2 extension: slice_index u16 | slice_count u16 |
 *    fec_group u16 | fec_seq u8 | fec_group_size u8] |
 *   crc32c u32 | payload bytes
 *
 * All integers little-endian. The 8-byte v2 extension is present
 * only when `flags & kChunkFlagV2`; a chunk that uses no v2 feature
 * (single-slice, no FEC) serializes to the exact v1 byte layout, so
 * old receivers keep parsing new clean streams and new receivers
 * parse v1 streams unchanged.
 *
 * The CRC32C covers the header fields after the marker plus the
 * payload, so any truncation, bit flip or splice inside a chunk is
 * detected (including a flipped kChunkFlagV2 bit — the CRC offset
 * moves, so the check fails). The fixed marker makes the stream
 * self-synchronizing: scanWire() skips damaged regions byte by byte
 * until the next marker that validates, so one bad chunk costs
 * exactly that chunk, never the rest of the stream.
 *
 * Two v2 features layer on top of the framing:
 *
 *  - Sub-frame slicing: a frame payload is split into up to 65535
 *    MTU-sized slices (`slice_index` of `slice_count`), each an
 *    independently CRC-protected chunk. A bit flip then costs one
 *    slice, not the frame.
 *  - Parity FEC: every `FecSpec::group_size` data chunks form a
 *    group and emit parity chunks (kChunkFlagParity) that combine
 *    the group's *records* (header-identifying prefix + size +
 *    payload) with one erasure code (rs_fec.h): XOR is its one-row
 *    case (one parity chunk, one loss), Reed-Solomon its m-row case
 *    (m parity chunks, up to m losses). The receiver reconstructs
 *    lost data chunks without a NACK round-trip.
 */

#ifndef EDGEPCC_STREAM_CHUNK_STREAM_H
#define EDGEPCC_STREAM_CHUNK_STREAM_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/geometry/point_cloud.h"

namespace edgepcc {

/** Chunk resync marker ("EPCK"). */
inline constexpr std::uint8_t kChunkMarker[4] = {'E', 'P', 'C',
                                                 'K'};

/** Serialized v1 header size including marker and CRC. */
inline constexpr std::size_t kChunkHeaderBytes = 26;

/** Bytes added by the v2 extension (slice + FEC fields). */
inline constexpr std::size_t kChunkExtensionBytes = 8;

/** Serialized v2 header size including marker, extension and CRC. */
inline constexpr std::size_t kChunkHeaderBytesV2 =
    kChunkHeaderBytes + kChunkExtensionBytes;

/** Backstop against absurd payload sizes from damaged headers. */
inline constexpr std::uint32_t kMaxChunkPayload = 1u << 28;

/** `fec_seq` of parity row 0, the only XOR row; parity row `p`
 *  uses kFecParitySeq - p (see rsParitySeq). */
inline constexpr std::uint8_t kFecParitySeq = 0xff;

/** Chunk flag bits. */
enum ChunkFlags : std::uint8_t {
    kChunkFlagRetransmit = 1u << 0,  ///< NACK-driven resend
    kChunkFlagParity = 1u << 1,      ///< payload is FEC parity
    kChunkFlagFec = 1u << 2,         ///< member of an FEC group
    /** Parity-scheme bit: the chunk's FEC group uses Reed-Solomon
     *  parity (up to m losses per group) instead of XOR (one loss).
     *  Never set on XOR or v1 wires, so those stay byte-identical. */
    kChunkFlagRsFec = 1u << 3,
    kChunkFlagV2 = 1u << 7,  ///< extension fields present
};

/** Coefficient rule of an FEC group's erasure code (rs_fec.h). */
enum class FecScheme : std::uint8_t {
    kXor = 0,          ///< one all-ones row, single-loss recovery
    kReedSolomon = 1,  ///< m Cauchy rows, up-to-m-loss recovery
};

/** FEC knob (see docs/RESILIENCE.md "Erasure-code FEC"). */
struct FecSpec {
    bool enabled = false;
    /** Data chunks per parity group. Groups never span frames, so
     *  the last group of a frame may be smaller. */
    int group_size = 4;
    /** Parity scheme. kXor emits one all-ones parity row per
     *  group; kReedSolomon emits `parity_chunks` Cauchy-coded rows
     *  and sets kChunkFlagRsFec on every member. */
    FecScheme scheme = FecScheme::kXor;
    /** RS parity rows per group (m). Ignored for kXor. Must satisfy
     *  1 <= m < group_size and group_size + m <= 255 (the Cauchy
     *  matrix needs k + m distinct field points and the data/parity
     *  fec_seq ranges must not collide). */
    int parity_chunks = 2;
};

/**
 * fec_seq value of Reed-Solomon parity row `row` (0-based):
 * kFecParitySeq - row, growing downward so row 0 coincides with the
 * XOR sentinel and data sequence numbers (0..k-1, k <= 255 - m)
 * can never collide with parity rows.
 */
inline constexpr std::uint8_t
rsParitySeq(int row)
{
    return static_cast<std::uint8_t>(kFecParitySeq - row);
}

/** Inverse of rsParitySeq: the parity row index of a parity
 *  chunk's fec_seq. */
inline constexpr int
rsParityRow(std::uint8_t fec_seq)
{
    return static_cast<int>(kFecParitySeq) -
           static_cast<int>(fec_seq);
}

/** Transport metadata carried by every chunk. */
struct ChunkHeader {
    std::uint32_t sequence = 0;  ///< wire send order (dedup/reorder)
    std::uint32_t frame_id = 0;  ///< capture-order frame index
    std::uint32_t gop_id = 0;    ///< id of the GOP's anchor I frame
    Frame::Type frame_type = Frame::Type::kIntra;
    std::uint8_t flags = 0;

    // v2 extension fields; serialized only when the header needs
    // them (isV2()). Defaults reproduce the v1 wire layout.
    std::uint16_t slice_index = 0;  ///< this slice within the frame
    std::uint16_t slice_count = 1;  ///< total slices of the frame
    std::uint16_t fec_group = 0;    ///< FEC group id (wraps at 64Ki)
    /** Data: index within the FEC group; parity: kFecParitySeq. */
    std::uint8_t fec_seq = 0;
    /** Number of data chunks in this FEC group (on every member). */
    std::uint8_t fec_group_size = 0;

    /** True when any v2 feature is in use; drives serialization. */
    bool
    isV2() const
    {
        return (flags & (kChunkFlagV2 | kChunkFlagParity |
                         kChunkFlagFec)) != 0 ||
               slice_index != 0 || slice_count != 1 ||
               fec_group != 0 || fec_seq != 0 ||
               fec_group_size != 0;
    }

    bool
    isParity() const
    {
        return (flags & kChunkFlagParity) != 0;
    }

    /** True when the chunk's FEC group is Reed-Solomon coded. */
    bool
    isRsFec() const
    {
        return (flags & kChunkFlagRsFec) != 0;
    }

    /** Serialized header size for this chunk's version. */
    std::size_t
    headerBytes() const
    {
        return isV2() ? kChunkHeaderBytesV2 : kChunkHeaderBytes;
    }
};

/** One chunk recovered from the wire. */
struct ParsedChunk {
    ChunkHeader header;
    std::vector<std::uint8_t> payload;
};

/** Read-only view of payload bytes owned elsewhere. */
using ByteSpan = std::span<const std::uint8_t>;

/**
 * Zero-copy send-side chunk: the payload is a view into the
 * encoder's frame bitstream (or a parity scratch buffer), NOT an
 * owned copy. Aliasing rules (docs/PERFORMANCE.md "Zero-copy
 * framing"): a ChunkView is valid only while the viewed buffer is
 * alive and unmodified — for frame slices that means until the
 * frame's send loop (including NACK retransmits) completes.
 */
struct ChunkView {
    ChunkHeader header;
    ByteSpan payload;
};

/** Scan accounting, surfaced for diagnostics and tests. */
struct WireScanStats {
    std::size_t bytes_scanned = 0;
    std::size_t bytes_skipped = 0;  ///< damaged/garbage bytes passed
    std::size_t chunks_ok = 0;
    std::size_t chunks_bad_crc = 0;
    std::size_t chunks_truncated = 0;  ///< header past buffer end
};

/**
 * Serializes one chunk into `out` (cleared first): header + CRC32C
 * + payload bytes. Emits the v1 layout unless the header uses a v2
 * feature, in which case kChunkFlagV2 is set on the wire
 * automatically. This is the send path's only payload copy — the
 * payload view flows untouched from the encoder through slicing and
 * FEC to here. Callers reuse `out` across sends so steady state
 * performs no allocation.
 */
void serializeChunkInto(const ChunkHeader &header, ByteSpan payload,
                        std::vector<std::uint8_t> &out);

/** Convenience wrapper returning a fresh wire buffer. */
std::vector<std::uint8_t> serializeChunk(
    const ChunkHeader &header,
    const std::vector<std::uint8_t> &payload);

/**
 * Scans `wire` for valid chunks (v1 and v2 layouts side by side),
 * resynchronizing on the marker after any damage. Never fails:
 * damaged regions are skipped and counted in `stats` (optional).
 * Chunks are returned in wire order, duplicates included — dedup is
 * the receiver's job.
 */
std::vector<ParsedChunk> scanWire(
    const std::vector<std::uint8_t> &wire,
    WireScanStats *stats = nullptr);

/** Concatenates serialized chunks into one wire buffer. */
std::vector<std::uint8_t> concatWire(
    const std::vector<std::vector<std::uint8_t>> &chunks);

/**
 * Splits a frame payload into MTU-sized slices. Each returned chunk
 * shares `base`'s identity fields and gets slice_index/slice_count
 * set; payload bytes are contiguous ranges of `payload`.
 * `mtu_payload == 0` (or payload <= mtu) yields one chunk with the
 * v1 layout. The slice size is raised transparently when the
 * payload would need more than 65535 slices.
 */
std::vector<ParsedChunk> sliceFramePayload(
    const ChunkHeader &base,
    const std::vector<std::uint8_t> &payload,
    std::size_t mtu_payload);

/**
 * Zero-copy variant of sliceFramePayload(): slice payloads are
 * subspans of `payload`, so no bytes move. The views obey the
 * ChunkView lifetime rules — `payload` must outlive every use of
 * the returned slices (the session keeps the encoded frame alive
 * through its NACK rounds for exactly this reason).
 */
std::vector<ChunkView> sliceFramePayloadViews(
    const ChunkHeader &base, ByteSpan payload,
    std::size_t mtu_payload);

/** Reassembles slice payloads (already in slice_index order) into
 *  the original frame payload. */
std::vector<std::uint8_t> assembleSlices(
    const std::vector<const std::vector<std::uint8_t> *> &slices);

/** Size of the fixed per-chunk prefix of an FEC record (frame_id,
 *  gop_id, slice_index/count, frame_type, fec_seq, payload_size);
 *  the payload follows. Parity codes over records, zero-padded to
 *  the longest in the group, so a recovery rebuilds header identity
 *  and bytes together (rs_fec.h builds and solves the parity). */
inline constexpr std::size_t kFecRecordPrefixBytes = 18;

/** Serializes a chunk's FEC-record prefix into `out`
 *  (kFecRecordPrefixBytes bytes). */
void writeFecRecordPrefix(std::uint8_t *out,
                          const ChunkHeader &header,
                          std::size_t payload_size);

/**
 * Parses a reconstructed FEC record back into a chunk, validating
 * the embedded payload_size against the record length (the slack
 * tail must be all zero — non-zero slack means the erasure algebra
 * was fed an inconsistent group) and rejecting impossible headers
 * (slice_count == 0, payload_size > kMaxChunkPayload). The
 * returned chunk carries kChunkFlagV2 | kChunkFlagFec plus
 * `extra_flags` (Reed-Solomon groups add kChunkFlagRsFec).
 */
std::optional<ParsedChunk> recoverFecRecord(
    const std::vector<std::uint8_t> &record,
    std::uint8_t extra_flags = 0);

}  // namespace edgepcc

#endif  // EDGEPCC_STREAM_CHUNK_STREAM_H
