/**
 * @file
 * Scalar-vs-SIMD equivalence: every dispatched kernel must be
 * *byte-identical* across all instruction-set levels the host can
 * run (docs/PERFORMANCE.md "Dispatch shim"). Each property test
 * runs the kernel under every forceable level and compares against
 * the scalar reference output; the capstone test encodes whole
 * frames under each level and requires identical bitstreams.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "edgepcc/common/crc32c.h"
#include "edgepcc/common/gf256.h"
#include "edgepcc/common/rng.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/platform/simd.h"
#include "edgepcc/stream/rs_fec.h"

namespace edgepcc {
namespace {

/** Every level the host supports, scalar first (the reference). */
std::vector<SimdLevel>
forceableLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::kScalar};
    if (detectSimdLevel() >= SimdLevel::kSse4)
        levels.push_back(SimdLevel::kSse4);
    if (detectSimdLevel() >= SimdLevel::kAvx2)
        levels.push_back(SimdLevel::kAvx2);
    return levels;
}

/** RAII: force a level, restore detection-order dispatch after. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level)
    {
        applied_ = setSimdLevelForTesting(level);
    }
    ~ScopedSimdLevel() { clearSimdLevelForTesting(); }
    SimdLevel applied() const { return applied_; }

  private:
    SimdLevel applied_ = SimdLevel::kScalar;
};

TEST(SimdDispatch, ParseAndNameRoundTrip)
{
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kSse4, SimdLevel::kAvx2}) {
        SimdLevel parsed = SimdLevel::kScalar;
        ASSERT_TRUE(
            simdLevelFromName(simdLevelName(level), &parsed));
        EXPECT_EQ(parsed, level);
    }
    SimdLevel parsed = SimdLevel::kAvx2;
    EXPECT_FALSE(simdLevelFromName("neon", &parsed));
    EXPECT_FALSE(simdLevelFromName("", &parsed));
    EXPECT_EQ(parsed, SimdLevel::kAvx2);  // untouched on failure
}

TEST(SimdDispatch, TestOverrideClampsToDetected)
{
    // Asking for more than the host has must clamp, never crash.
    ScopedSimdLevel forced(SimdLevel::kAvx2);
    EXPECT_LE(forced.applied(), detectSimdLevel());
    EXPECT_EQ(activeSimdLevel(), forced.applied());
}

TEST(SimdEquivalence, MortonEncodeBatchMatchesScalar)
{
    Rng rng(7);
    for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 63u, 1000u}) {
        std::vector<std::uint16_t> x(n), y(n), z(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = static_cast<std::uint16_t>(rng.bounded(1u << 16));
            y[i] = static_cast<std::uint16_t>(rng.bounded(1u << 16));
            z[i] = static_cast<std::uint16_t>(rng.bounded(1u << 16));
        }
        std::vector<std::uint64_t> reference(n);
        for (std::size_t i = 0; i < n; ++i)
            reference[i] = mortonEncode(x[i], y[i], z[i]);
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            std::vector<std::uint64_t> codes(n, ~0ull);
            mortonEncodeBatch(x.data(), y.data(), z.data(), n,
                              codes.data());
            EXPECT_EQ(codes, reference)
                << "n=" << n << " level="
                << simdLevelName(forced.applied());
        }
    }
}

TEST(SimdEquivalence, MortonDecodeBatchMatchesScalar)
{
    Rng rng(8);
    for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 1000u}) {
        std::vector<std::uint64_t> codes(n);
        for (std::size_t i = 0; i < n; ++i) {
            // 48 random bits: the full u16 coordinate space.
            codes[i] = (static_cast<std::uint64_t>(
                            rng.bounded(1u << 24))
                        << 24) |
                       rng.bounded(1u << 24);
        }
        std::vector<std::uint32_t> rx(n), ry(n), rz(n);
        for (std::size_t i = 0; i < n; ++i) {
            const MortonXyz xyz = mortonDecode(codes[i]);
            rx[i] = xyz.x;
            ry[i] = xyz.y;
            rz[i] = xyz.z;
        }
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            std::vector<std::uint32_t> dx(n, ~0u), dy(n, ~0u),
                dz(n, ~0u);
            mortonDecodeBatch(codes.data(), n, dx.data(),
                              dy.data(), dz.data());
            EXPECT_EQ(dx, rx) << simdLevelName(forced.applied());
            EXPECT_EQ(dy, ry) << simdLevelName(forced.applied());
            EXPECT_EQ(dz, rz) << simdLevelName(forced.applied());
        }
    }
}

TEST(SimdEquivalence, Crc32cMatchesScalarTable)
{
    Rng rng(10);
    for (const std::size_t n :
         {0u, 1u, 7u, 8u, 9u, 64u, 1000u}) {
        std::vector<std::uint8_t> data(n);
        for (std::size_t i = 0; i < n; ++i)
            data[i] = static_cast<std::uint8_t>(rng.bounded(256));
        std::uint32_t reference = 0;
        std::uint32_t chained_reference = 0;
        {
            ScopedSimdLevel forced(SimdLevel::kScalar);
            reference = crc32c(data);
            // Chained seeds (the wire format CRCs header and
            // payload as one running state).
            chained_reference =
                crc32c(data.data() + n / 2, n - n / 2,
                       crc32c(data.data(), n / 2));
        }
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            EXPECT_EQ(crc32c(data), reference)
                << "n=" << n << " level="
                << simdLevelName(forced.applied());
            EXPECT_EQ(crc32c(data.data() + n / 2, n - n / 2,
                             crc32c(data.data(), n / 2)),
                      chained_reference)
                << "n=" << n << " level="
                << simdLevelName(forced.applied());
        }
    }
    // Known-answer check ("123456789" -> 0xE3069283, Castagnoli).
    const std::uint8_t kat[] = {'1', '2', '3', '4', '5',
                                '6', '7', '8', '9'};
    for (const SimdLevel level : forceableLevels()) {
        ScopedSimdLevel forced(level);
        EXPECT_EQ(crc32c(kat, sizeof(kat)), 0xE3069283u)
            << simdLevelName(forced.applied());
    }
}

TEST(SimdEquivalence, XorBytesMatchesScalarXor)
{
    Rng rng(11);
    for (const std::size_t n :
         {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 1000u}) {
        std::vector<std::uint8_t> src(n), base(n);
        for (std::size_t i = 0; i < n; ++i) {
            src[i] = static_cast<std::uint8_t>(rng.bounded(256));
            base[i] = static_cast<std::uint8_t>(rng.bounded(256));
        }
        std::vector<std::uint8_t> reference = base;
        for (std::size_t i = 0; i < n; ++i)
            reference[i] ^= src[i];
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            std::vector<std::uint8_t> dst = base;
            xorBytes(dst.data(), src.data(), n);
            EXPECT_EQ(dst, reference)
                << "n=" << n << " level="
                << simdLevelName(forced.applied());
        }
    }
}

TEST(SimdEquivalence, GfMulAddBytesMatchesTableReference)
{
    Rng rng(13);
    for (const std::size_t n :
         {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 1000u}) {
        std::vector<std::uint8_t> src(n), base(n);
        for (std::size_t i = 0; i < n; ++i) {
            src[i] = static_cast<std::uint8_t>(rng.bounded(256));
            base[i] = static_cast<std::uint8_t>(rng.bounded(256));
        }
        // Coefficients hitting the fast paths (0 = no-op, 1 = XOR)
        // and both nibble halves of the PSHUFB tables.
        for (const std::uint8_t coeff : {0, 1, 2, 0x0f, 0x1d,
                                         0x53, 0x80, 0xca, 0xff}) {
            std::vector<std::uint8_t> reference = base;
            for (std::size_t i = 0; i < n; ++i)
                reference[i] ^= gfMul(coeff, src[i]);
            for (const SimdLevel level : forceableLevels()) {
                ScopedSimdLevel forced(level);
                std::vector<std::uint8_t> dst = base;
                gfMulAddBytes(dst.data(), src.data(), coeff, n);
                EXPECT_EQ(dst, reference)
                    << "n=" << n << " coeff=" << int(coeff)
                    << " level="
                    << simdLevelName(forced.applied());
            }
        }
    }
}

TEST(SimdEquivalence, RsParityRowsIdenticalAcrossLevels)
{
    // Whole parity rows built through the dispatcher must be
    // byte-identical to the forced-scalar rows: RS recovery math
    // depends on sender and receiver agreeing bit for bit.
    Rng rng(17);
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<ChunkView> group;
    for (int i = 0; i < 6; ++i) {
        std::vector<std::uint8_t> payload(
            static_cast<std::size_t>(64 + 37 * i));
        for (auto &b : payload)
            b = static_cast<std::uint8_t>(rng.bounded(256));
        payloads.push_back(std::move(payload));
    }
    for (int i = 0; i < 6; ++i) {
        ChunkHeader header;
        header.frame_id = 3;
        header.fec_seq = static_cast<std::uint8_t>(i);
        header.slice_index = static_cast<std::uint16_t>(i);
        header.slice_count = 6;
        group.push_back({header, ByteSpan(payloads[
            static_cast<std::size_t>(i)])});
    }
    for (int row = 0; row < 3; ++row) {
        std::vector<std::uint8_t> reference;
        {
            ScopedSimdLevel forced(SimdLevel::kScalar);
            buildRsParityInto(group, row, reference);
        }
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            std::vector<std::uint8_t> parity;
            buildRsParityInto(group, row, parity);
            EXPECT_EQ(parity, reference)
                << "row=" << row << " level="
                << simdLevelName(forced.applied());
        }
    }
}

// The capstone: whole encoded frames — every kernel, every config —
// must be byte-identical across dispatch levels.
TEST(SimdEquivalence, EncodedBitstreamsIdenticalAcrossLevels)
{
    VideoSpec spec;
    spec.name = "simd";
    spec.seed = 77;
    spec.target_points = 6000;
    SyntheticHumanVideo video(spec);
    const VoxelCloud frame0 = video.frame(0);
    const VoxelCloud frame1 = video.frame(1);

    for (const CodecConfig &config : allPaperConfigs()) {
        std::vector<std::vector<std::uint8_t>> reference;
        {
            ScopedSimdLevel forced(SimdLevel::kScalar);
            VideoEncoder encoder(config);
            auto e0 = encoder.encode(frame0);
            auto e1 = encoder.encode(frame1);
            ASSERT_TRUE(e0.hasValue()) << config.name;
            ASSERT_TRUE(e1.hasValue()) << config.name;
            reference.push_back(e0->bitstream);
            reference.push_back(e1->bitstream);
        }
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            VideoEncoder encoder(config);
            auto e0 = encoder.encode(frame0);
            auto e1 = encoder.encode(frame1);
            ASSERT_TRUE(e0.hasValue()) << config.name;
            ASSERT_TRUE(e1.hasValue()) << config.name;
            EXPECT_EQ(e0->bitstream, reference[0])
                << config.name << " level="
                << simdLevelName(forced.applied());
            EXPECT_EQ(e1->bitstream, reference[1])
                << config.name << " level="
                << simdLevelName(forced.applied());
            // And the decode must round-trip the scalar stream.
            VideoDecoder decoder;
            auto d0 = decoder.decode(reference[0]);
            ASSERT_TRUE(d0.hasValue()) << config.name;
            EXPECT_TRUE(d0->cloud.checkInvariants());
        }
    }
}

}  // namespace
}  // namespace edgepcc
