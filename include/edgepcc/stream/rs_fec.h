/**
 * @file
 * GF(256) erasure codec over FEC-group records, shared by both
 * parity schemes.
 *
 * A group of k data chunks emits m parity chunks; ANY subset of up
 * to m lost data chunks is recoverable from the surviving rows, no
 * retransmission. The two schemes differ only in the coefficient
 * rule (docs/RESILIENCE.md "Erasure-code FEC"):
 *
 *     P_p = sum_i C[p][i] * R_i
 *
 *  - XOR: one row (m = 1) whose coefficients are all 1, so P_0 is
 *    the plain XOR of the records and recovers one loss per group;
 *  - Reed-Solomon: m rows of Cauchy coefficients
 *    C[p][i] = 1 / ((k + p) ^ i) built from the distinct field
 *    points x_p = k + p and y_i = i. Every square submatrix of a
 *    Cauchy matrix is invertible, which is exactly the MDS property
 *    the erasure decode needs; it holds for any k + m <= 255
 *    (validated at session setup).
 *
 * R_i are the group's FEC *records* (the 18-byte prefix + payload,
 * chunk_stream.h), zero-padded to the longest record. The inner
 * loop is `gfMulAddBytes` (platform/simd.h), dispatched
 * scalar/SSE4/AVX2 with the scalar path as the byte-identical
 * reference; a unit coefficient takes its plain-XOR fast path.
 *
 * Decode is classic erasure algebra: subtract the known data
 * records from each surviving parity row (leaving the syndromes of
 * the e missing records), then solve the e x e coefficient
 * subsystem by Gaussian elimination over GF(256), applying the
 * same row operations to the syndrome byte rows. For XOR that is
 * the one-row, one-erasure case.
 *
 * On the wire parity row p travels as fec_seq = rsParitySeq(p)
 * (0xff, 0xfe, ...), so the XOR parity is row 0. Reed-Solomon sets
 * kChunkFlagRsFec on every group member; m itself is never
 * transmitted: the receiver decodes as soon as
 * (received data rows) + (received parity rows) >= k.
 */

#ifndef EDGEPCC_STREAM_RS_FEC_H
#define EDGEPCC_STREAM_RS_FEC_H

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "edgepcc/stream/chunk_stream.h"

namespace edgepcc {

/** Maximum k + m the Cauchy construction supports. */
inline constexpr int kRsMaxGroupPlusParity = 255;

/** Cauchy encode coefficient C[row][i] for a k-data group:
 *  1 / ((k + row) ^ i). Requires 0 <= i < k and k + row <= 255. */
std::uint8_t rsCoefficient(int k, int row, int i);

/**
 * Builds parity row `row` of `scheme` over one FEC group's data
 * chunks into `parity` (cleared first): the GF(256) combination of
 * the group's records, sized to the longest record. XOR has only
 * row 0. Callers reuse `parity` across rows and groups; the payload
 * bytes are read in place from the views, never copied.
 */
void buildRsParityInto(const std::vector<ChunkView> &group, int row,
                       std::vector<std::uint8_t> &parity,
                       FecScheme scheme = FecScheme::kReedSolomon);

/**
 * Recovers every missing data chunk of a k-data group coded with
 * `scheme` from the received data chunks (`data`, keyed by fec_seq)
 * and parity payloads (`parity_rows`, keyed by parity row index).
 *
 * Succeeds when at least (k - data.size()) parity rows are present
 * and the algebra checks out; the recovered chunks are returned in
 * ascending fec_seq order with validated headers (recoverFecRecord).
 * Returns nullopt on inconsistent input — fewer rows than
 * erasures, data sequence numbers outside [0, k), parity rows
 * shorter than a known record, or recovered records whose embedded
 * sizes don't fit — never fabricated data. Defensive against
 * adversarial metadata: every index is range-checked, so fuzzed
 * group compositions cannot read or write out of bounds.
 */
std::optional<std::vector<ParsedChunk>> recoverRsChunks(
    int k, const std::map<std::uint8_t, ParsedChunk> &data,
    const std::map<int, std::vector<std::uint8_t>> &parity_rows,
    FecScheme scheme = FecScheme::kReedSolomon);

}  // namespace edgepcc

#endif  // EDGEPCC_STREAM_RS_FEC_H
