#include "edgepcc/stream/chunk_stream.h"

#include <algorithm>
#include <cstring>

#include "edgepcc/common/crc32c.h"
#include "edgepcc/common/trace.h"

namespace edgepcc {

namespace {

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t value)
{
    out.push_back(static_cast<std::uint8_t>(value & 0xffu));
    out.push_back(static_cast<std::uint8_t>((value >> 8) & 0xffu));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t value)
{
    out.push_back(static_cast<std::uint8_t>(value & 0xffu));
    out.push_back(static_cast<std::uint8_t>((value >> 8) & 0xffu));
    out.push_back(static_cast<std::uint8_t>((value >> 16) & 0xffu));
    out.push_back(static_cast<std::uint8_t>((value >> 24) & 0xffu));
}

std::uint16_t
getU16(const std::uint8_t *data)
{
    return static_cast<std::uint16_t>(
        static_cast<std::uint32_t>(data[0]) |
        static_cast<std::uint32_t>(data[1]) << 8);
}

std::uint32_t
getU32(const std::uint8_t *data)
{
    return static_cast<std::uint32_t>(data[0]) |
           static_cast<std::uint32_t>(data[1]) << 8 |
           static_cast<std::uint32_t>(data[2]) << 16 |
           static_cast<std::uint32_t>(data[3]) << 24;
}

}  // namespace

void
writeFecRecordPrefix(std::uint8_t *out, const ChunkHeader &header,
                     std::size_t payload_size)
{
    const auto put32 = [&](std::size_t at, std::uint32_t value) {
        out[at] = static_cast<std::uint8_t>(value & 0xffu);
        out[at + 1] =
            static_cast<std::uint8_t>((value >> 8) & 0xffu);
        out[at + 2] =
            static_cast<std::uint8_t>((value >> 16) & 0xffu);
        out[at + 3] =
            static_cast<std::uint8_t>((value >> 24) & 0xffu);
    };
    put32(0, header.frame_id);
    put32(4, header.gop_id);
    out[8] = static_cast<std::uint8_t>(header.slice_index & 0xffu);
    out[9] = static_cast<std::uint8_t>(header.slice_index >> 8);
    out[10] = static_cast<std::uint8_t>(header.slice_count & 0xffu);
    out[11] = static_cast<std::uint8_t>(header.slice_count >> 8);
    out[12] = header.frame_type == Frame::Type::kPredicted ? 1u : 0u;
    out[13] = header.fec_seq;
    put32(14, static_cast<std::uint32_t>(payload_size));
}

std::optional<ParsedChunk>
recoverFecRecord(const std::vector<std::uint8_t> &record,
               std::uint8_t extra_flags)
{
    if (record.size() < kFecRecordPrefixBytes)
        return std::nullopt;
    const std::uint32_t payload_size = getU32(record.data() + 14);
    if (payload_size > kMaxChunkPayload ||
        kFecRecordPrefixBytes + payload_size > record.size())
        return std::nullopt;
    // A consistent reconstruction leaves the padding past the
    // record's true end all zero. Non-zero slack means the erasure
    // algebra was fed the wrong group composition (for XOR: two or
    // more chunks were missing) — reject instead of fabricating.
    for (std::size_t i = kFecRecordPrefixBytes + payload_size;
         i < record.size(); ++i) {
        if (record[i] != 0)
            return std::nullopt;
    }

    ParsedChunk chunk;
    chunk.header.frame_id = getU32(record.data());
    chunk.header.gop_id = getU32(record.data() + 4);
    chunk.header.slice_index = getU16(record.data() + 8);
    chunk.header.slice_count = getU16(record.data() + 10);
    chunk.header.frame_type = record[12] == 1
                                  ? Frame::Type::kPredicted
                                  : Frame::Type::kIntra;
    chunk.header.fec_seq = record[13];
    chunk.header.flags = static_cast<std::uint8_t>(
        kChunkFlagV2 | kChunkFlagFec | extra_flags);
    if (chunk.header.slice_count == 0)
        return std::nullopt;
    chunk.payload.assign(
        record.begin() +
            static_cast<std::ptrdiff_t>(kFecRecordPrefixBytes),
        record.begin() + static_cast<std::ptrdiff_t>(
                             kFecRecordPrefixBytes + payload_size));
    return chunk;
}

void
serializeChunkInto(const ChunkHeader &header, ByteSpan payload,
                   std::vector<std::uint8_t> &out)
{
    const bool v2 = header.isV2();
    out.clear();
    out.reserve(header.headerBytes() + payload.size());
    for (const std::uint8_t byte : kChunkMarker)
        out.push_back(byte);
    putU32(out, header.sequence);
    putU32(out, header.frame_id);
    putU32(out, header.gop_id);
    out.push_back(header.frame_type == Frame::Type::kPredicted
                      ? 1u
                      : 0u);
    out.push_back(v2 ? static_cast<std::uint8_t>(header.flags |
                                                 kChunkFlagV2)
                     : header.flags);
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    if (v2) {
        putU16(out, header.slice_index);
        putU16(out, header.slice_count);
        putU16(out, header.fec_group);
        out.push_back(header.fec_seq);
        out.push_back(header.fec_group_size);
    }

    // CRC over the header fields after the marker, then the payload.
    std::uint32_t crc =
        crc32c(out.data() + 4, out.size() - 4);
    crc = crc32c(payload.data(), payload.size(), crc);
    putU32(out, crc);

    out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t>
serializeChunk(const ChunkHeader &header,
               const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    serializeChunkInto(header, ByteSpan(payload), out);
    return out;
}

std::vector<ParsedChunk>
scanWire(const std::vector<std::uint8_t> &wire,
         WireScanStats *stats)
{
    ScopedTrace trace("stream.scan_wire");
    std::vector<ParsedChunk> chunks;
    WireScanStats local;
    WireScanStats &s = stats != nullptr ? *stats : local;
    s = WireScanStats{};
    s.bytes_scanned = wire.size();

    std::size_t pos = 0;
    while (pos + kChunkHeaderBytes <= wire.size()) {
        if (std::memcmp(wire.data() + pos, kChunkMarker, 4) != 0) {
            ++pos;
            ++s.bytes_skipped;
            continue;
        }
        const std::uint8_t *base = wire.data() + pos;
        // The flags byte selects the header layout. A flipped V2
        // bit moves the CRC offset, so the CRC check below still
        // rejects the chunk — no false accept.
        const bool v2 = (base[17] & kChunkFlagV2) != 0;
        const std::size_t header_bytes =
            v2 ? kChunkHeaderBytesV2 : kChunkHeaderBytes;
        const std::uint32_t payload_size = getU32(base + 18);
        if (pos + header_bytes > wire.size() ||
            payload_size > kMaxChunkPayload ||
            pos + header_bytes + payload_size > wire.size()) {
            // Header claims more bytes than exist: either a damaged
            // size field or a truncated tail chunk. Either way, skip
            // one byte and keep hunting for the next marker.
            ++s.chunks_truncated;
            ++pos;
            ++s.bytes_skipped;
            continue;
        }
        const std::size_t crc_offset = header_bytes - 4;
        const std::uint32_t stored_crc = getU32(base + crc_offset);
        std::uint32_t crc = crc32c(base + 4, crc_offset - 4);
        crc = crc32c(base + header_bytes, payload_size, crc);
        if (crc != stored_crc) {
            ++s.chunks_bad_crc;
            ++pos;
            ++s.bytes_skipped;
            continue;
        }

        ParsedChunk chunk;
        chunk.header.sequence = getU32(base + 4);
        chunk.header.frame_id = getU32(base + 8);
        chunk.header.gop_id = getU32(base + 12);
        chunk.header.frame_type = base[16] == 1
                                      ? Frame::Type::kPredicted
                                      : Frame::Type::kIntra;
        chunk.header.flags = base[17];
        if (v2) {
            chunk.header.slice_index = getU16(base + 22);
            chunk.header.slice_count = getU16(base + 24);
            chunk.header.fec_group = getU16(base + 26);
            chunk.header.fec_seq = base[28];
            chunk.header.fec_group_size = base[29];
        }
        chunk.payload.assign(
            base + header_bytes,
            base + header_bytes + payload_size);
        chunks.push_back(std::move(chunk));
        ++s.chunks_ok;
        pos += header_bytes + payload_size;
    }
    // Trailing bytes too short to hold a header were never consumed.
    if (pos < wire.size())
        s.bytes_skipped += wire.size() - pos;
    return chunks;
}

std::vector<std::uint8_t>
concatWire(const std::vector<std::vector<std::uint8_t>> &chunks)
{
    std::size_t total = 0;
    for (const auto &chunk : chunks)
        total += chunk.size();
    std::vector<std::uint8_t> wire;
    wire.reserve(total);
    for (const auto &chunk : chunks)
        wire.insert(wire.end(), chunk.begin(), chunk.end());
    return wire;
}

std::vector<ChunkView>
sliceFramePayloadViews(const ChunkHeader &base, ByteSpan payload,
                       std::size_t mtu_payload)
{
    ScopedTrace trace("stream.slice");
    std::vector<ChunkView> slices;
    if (mtu_payload == 0 || payload.size() <= mtu_payload) {
        ChunkView whole;
        whole.header = base;
        whole.header.slice_index = 0;
        whole.header.slice_count = 1;
        whole.payload = payload;
        slices.push_back(whole);
        return slices;
    }
    // slice_count is u16: raise the slice size rather than overflow.
    std::size_t mtu = mtu_payload;
    const std::size_t max_slices = 0xffff;
    if ((payload.size() + mtu - 1) / mtu > max_slices)
        mtu = (payload.size() + max_slices - 1) / max_slices;
    const std::size_t count = (payload.size() + mtu - 1) / mtu;
    slices.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t begin = i * mtu;
        const std::size_t end =
            std::min(begin + mtu, payload.size());
        ChunkView slice;
        slice.header = base;
        slice.header.slice_index =
            static_cast<std::uint16_t>(i);
        slice.header.slice_count =
            static_cast<std::uint16_t>(count);
        slice.payload = payload.subspan(begin, end - begin);
        slices.push_back(slice);
    }
    return slices;
}

std::vector<ParsedChunk>
sliceFramePayload(const ChunkHeader &base,
                  const std::vector<std::uint8_t> &payload,
                  std::size_t mtu_payload)
{
    // Owning wrapper over the view-based slicer, kept for tests and
    // callers that outlive the source buffer.
    const std::vector<ChunkView> views =
        sliceFramePayloadViews(base, ByteSpan(payload),
                               mtu_payload);
    std::vector<ParsedChunk> slices;
    slices.reserve(views.size());
    for (const ChunkView &view : views) {
        ParsedChunk slice;
        slice.header = view.header;
        slice.payload.assign(view.payload.begin(),
                             view.payload.end());
        slices.push_back(std::move(slice));
    }
    return slices;
}

std::vector<std::uint8_t>
assembleSlices(
    const std::vector<const std::vector<std::uint8_t> *> &slices)
{
    std::size_t total = 0;
    for (const auto *slice : slices)
        total += slice->size();
    std::vector<std::uint8_t> payload;
    payload.reserve(total);
    for (const auto *slice : slices)
        payload.insert(payload.end(), slice->begin(),
                       slice->end());
    return payload;
}

}  // namespace edgepcc
