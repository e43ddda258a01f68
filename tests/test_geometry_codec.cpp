/** @file End-to-end geometry codec tests (encode -> decode). */

#include "edgepcc/octree/geometry_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "edgepcc/common/rng.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {
namespace {

VoxelCloud
uniqueRandomCloud(std::uint64_t seed, std::size_t n, int bits)
{
    Rng rng(seed);
    std::set<std::uint64_t> used;
    VoxelCloud cloud(bits);
    const std::uint32_t grid = 1u << bits;
    while (cloud.size() < n) {
        const auto x =
            static_cast<std::uint16_t>(rng.bounded(grid));
        const auto y =
            static_cast<std::uint16_t>(rng.bounded(grid));
        const auto z =
            static_cast<std::uint16_t>(rng.bounded(grid));
        if (used.insert(mortonEncode(x, y, z)).second) {
            cloud.add(x, y, z,
                      static_cast<std::uint8_t>(rng.bounded(256)),
                      static_cast<std::uint8_t>(rng.bounded(256)),
                      static_cast<std::uint8_t>(rng.bounded(256)));
        }
    }
    return cloud;
}

std::set<std::uint64_t>
voxelSet(const VoxelCloud &cloud)
{
    std::set<std::uint64_t> set;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        set.insert(mortonEncode(cloud.x()[i], cloud.y()[i],
                                cloud.z()[i]));
    return set;
}

GeometryConfig
parallelConfig(bool tight, bool entropy = false)
{
    GeometryConfig config;
    config.builder = GeometryConfig::Builder::kParallelMorton;
    config.tight_bbox = tight;
    config.entropy_coding = entropy;
    return config;
}

GeometryConfig
sequentialConfig(bool entropy = false)
{
    GeometryConfig config;
    config.builder = GeometryConfig::Builder::kSequential;
    config.tight_bbox = false;
    config.entropy_coding = entropy;
    return config;
}

TEST(GeometryCodec, RejectsEmptyCloud)
{
    VoxelCloud empty(6);
    EXPECT_FALSE(
        encodeGeometry(empty, parallelConfig(false)).hasValue());
}

TEST(GeometryCodec, ParallelLosslessRoundtrip)
{
    const VoxelCloud cloud = uniqueRandomCloud(50, 800, 7);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

TEST(GeometryCodec, SequentialLosslessRoundtrip)
{
    const VoxelCloud cloud = uniqueRandomCloud(51, 800, 7);
    auto encoded = encodeGeometry(cloud, sequentialConfig());
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

TEST(GeometryCodec, BothBuildersDecodeToSameCloud)
{
    const VoxelCloud cloud = uniqueRandomCloud(52, 600, 6);
    auto seq = encodeGeometry(cloud, sequentialConfig());
    auto par = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(seq.hasValue());
    ASSERT_TRUE(par.hasValue());
    auto seq_decoded = decodeGeometry(seq->payload);
    auto par_decoded = decodeGeometry(par->payload);
    ASSERT_TRUE(seq_decoded.hasValue());
    ASSERT_TRUE(par_decoded.hasValue());
    EXPECT_EQ(voxelSet(*seq_decoded), voxelSet(*par_decoded));
}

TEST(GeometryCodec, DecodedOrderIsMortonSorted)
{
    const VoxelCloud cloud = uniqueRandomCloud(53, 500, 6);
    for (const auto &config :
         {sequentialConfig(), parallelConfig(false)}) {
        auto encoded = encodeGeometry(cloud, config);
        ASSERT_TRUE(encoded.hasValue());
        auto decoded = decodeGeometry(encoded->payload);
        ASSERT_TRUE(decoded.hasValue());
        for (std::size_t i = 1; i < decoded->size(); ++i) {
            EXPECT_LT(mortonEncode(decoded->x()[i - 1],
                                   decoded->y()[i - 1],
                                   decoded->z()[i - 1]),
                      mortonEncode(decoded->x()[i],
                                   decoded->y()[i],
                                   decoded->z()[i]));
        }
    }
}

TEST(GeometryCodec, SortedCloudAlignsWithDecode)
{
    // The i-th sorted_cloud entry must correspond to the i-th
    // decoded voxel — the contract the attribute codecs rely on.
    const VoxelCloud cloud = uniqueRandomCloud(54, 700, 7);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    ASSERT_EQ(decoded->size(), encoded->sorted_cloud.size());
    for (std::size_t i = 0; i < decoded->size(); ++i) {
        EXPECT_EQ(decoded->x()[i], encoded->sorted_cloud.x()[i]);
        EXPECT_EQ(decoded->y()[i], encoded->sorted_cloud.y()[i]);
        EXPECT_EQ(decoded->z()[i], encoded->sorted_cloud.z()[i]);
    }
}

TEST(GeometryCodec, TightBboxErrorBounded)
{
    // Requantization moves each coordinate by at most one voxel
    // (slope >= 1 injective map, rounding both ways).
    Rng rng(55);
    VoxelCloud cloud(8);
    std::set<std::uint64_t> used;
    while (cloud.size() < 500) {
        // Keep the cloud inside a sub-box so the tight bbox matters.
        const auto x = static_cast<std::uint16_t>(
            17 + rng.bounded(150));
        const auto y = static_cast<std::uint16_t>(
            9 + rng.bounded(120));
        const auto z = static_cast<std::uint16_t>(
            33 + rng.bounded(77));
        if (used.insert(mortonEncode(x, y, z)).second)
            cloud.add(x, y, z, 0, 0, 0);
    }
    auto encoded = encodeGeometry(cloud, parallelConfig(true));
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    ASSERT_EQ(decoded->size(), cloud.size());

    // Match decoded voxels against the original set: every decoded
    // voxel must be within 1 voxel (Chebyshev) of some original.
    const auto originals = voxelSet(cloud);
    for (std::size_t i = 0; i < decoded->size(); ++i) {
        bool close = false;
        for (int dx = -1; dx <= 1 && !close; ++dx) {
            for (int dy = -1; dy <= 1 && !close; ++dy) {
                for (int dz = -1; dz <= 1 && !close; ++dz) {
                    const std::int64_t nx = decoded->x()[i] + dx;
                    const std::int64_t ny = decoded->y()[i] + dy;
                    const std::int64_t nz = decoded->z()[i] + dz;
                    if (nx < 0 || ny < 0 || nz < 0)
                        continue;
                    if (originals.count(mortonEncode(
                            static_cast<std::uint32_t>(nx),
                            static_cast<std::uint32_t>(ny),
                            static_cast<std::uint32_t>(nz)))) {
                        close = true;
                    }
                }
            }
        }
        EXPECT_TRUE(close) << "decoded voxel " << i
                           << " strayed more than 1 voxel";
    }
}

TEST(GeometryCodec, FullGridTightBboxIsIdentity)
{
    // When the cloud spans the full grid, tight-bbox requantization
    // becomes the identity and the roundtrip is lossless.
    VoxelCloud cloud(4);
    cloud.add(0, 0, 0, 0, 0, 0);
    cloud.add(15, 15, 15, 0, 0, 0);
    cloud.add(7, 8, 9, 0, 0, 0);
    auto encoded = encodeGeometry(cloud, parallelConfig(true));
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

TEST(GeometryCodec, ContextualEntropyRoundtripsBothBuilders)
{
    const VoxelCloud cloud = uniqueRandomCloud(160, 1500, 8);
    for (const bool parallel : {false, true}) {
        GeometryConfig config =
            parallel ? parallelConfig(false) : sequentialConfig();
        config.contextual_entropy = true;
        auto encoded = encodeGeometry(cloud, config);
        ASSERT_TRUE(encoded.hasValue()) << parallel;
        auto decoded = decodeGeometry(encoded->payload);
        ASSERT_TRUE(decoded.hasValue()) << parallel;
        EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded))
            << parallel;
    }
}

TEST(GeometryCodec, ContextualEntropyNeverWorseThanOrderZero)
{
    // The encoder makes a per-payload mode decision, so enabling
    // context modelling can never cost more than the order-0
    // stream regardless of data shape.
    Rng rng(161);
    VoxelCloud cloud(9);
    std::set<std::uint64_t> used;
    while (cloud.size() < 20000) {
        const auto x =
            static_cast<std::uint32_t>(rng.bounded(512));
        const auto y =
            static_cast<std::uint32_t>(rng.bounded(512));
        const std::uint32_t z = (x + y) / 2;
        if (used.insert(mortonEncode(x, y, z)).second) {
            cloud.add(static_cast<std::uint16_t>(x),
                      static_cast<std::uint16_t>(y),
                      static_cast<std::uint16_t>(z), 0, 0, 0);
        }
    }
    GeometryConfig order0 = parallelConfig(false, true);
    GeometryConfig contextual = parallelConfig(false);
    contextual.contextual_entropy = true;
    auto a = encodeGeometry(cloud, order0);
    auto b = encodeGeometry(cloud, contextual);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_LE(b->payload.size(), a->payload.size());
}

TEST(GeometryCodec, ContextualEntropyWinsOnMixedDensity)
{
    // Mixed content — a dense slab plus sparse dust — is where
    // per-context byte distributions differ and context modelling
    // pays off: the order-0 model must code the mixture.
    Rng rng(163);
    VoxelCloud cloud(8);
    std::set<std::uint64_t> used;
    for (std::uint16_t x = 40; x < 72; ++x) {
        for (std::uint16_t y = 40; y < 72; ++y) {
            for (std::uint16_t z = 60; z < 68; ++z) {
                cloud.add(x, y, z, 0, 0, 0);
                used.insert(mortonEncode(x, y, z));
            }
        }
    }
    std::size_t dust = 0;
    while (dust < 8000) {
        const auto x =
            static_cast<std::uint16_t>(rng.bounded(256));
        const auto y =
            static_cast<std::uint16_t>(rng.bounded(256));
        const auto z =
            static_cast<std::uint16_t>(rng.bounded(256));
        if (used.insert(mortonEncode(x, y, z)).second) {
            cloud.add(x, y, z, 0, 0, 0);
            ++dust;
        }
    }
    GeometryConfig order0 = parallelConfig(false, true);
    GeometryConfig contextual = parallelConfig(false);
    contextual.contextual_entropy = true;
    auto a = encodeGeometry(cloud, order0);
    auto b = encodeGeometry(cloud, contextual);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_LT(b->payload.size(), a->payload.size());
    auto decoded = decodeGeometry(b->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

TEST(GeometryCodec, ContextualTruncationRejected)
{
    const VoxelCloud cloud = uniqueRandomCloud(162, 800, 7);
    GeometryConfig config = sequentialConfig();
    config.contextual_entropy = true;
    auto encoded = encodeGeometry(cloud, config);
    ASSERT_TRUE(encoded.hasValue());
    auto payload = encoded->payload;
    payload.resize(payload.size() / 2);
    EXPECT_FALSE(decodeGeometry(payload).hasValue());
}

TEST(GeometryCodec, EntropyCodingShrinksPayload)
{
    const VoxelCloud cloud = uniqueRandomCloud(56, 3000, 8);
    auto plain = encodeGeometry(cloud, parallelConfig(false, false));
    auto packed = encodeGeometry(cloud, parallelConfig(false, true));
    ASSERT_TRUE(plain.hasValue());
    ASSERT_TRUE(packed.hasValue());
    EXPECT_LT(packed->payload.size(), plain->payload.size());
    // And decodes identically.
    auto a = decodeGeometry(plain->payload);
    auto b = decodeGeometry(packed->payload);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_EQ(voxelSet(*a), voxelSet(*b));
}

TEST(GeometryCodec, CompressesBelowRawSize)
{
    // Occupancy coding must beat the 12 B/point raw geometry even
    // without entropy coding.
    const VoxelCloud cloud = uniqueRandomCloud(57, 5000, 9);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    EXPECT_LT(encoded->payload.size(), cloud.size() * 12);
}

TEST(GeometryCodec, DuplicateInputVoxelsCollapse)
{
    VoxelCloud cloud(5);
    cloud.add(1, 2, 3, 10, 20, 30);
    cloud.add(1, 2, 3, 40, 50, 60);
    cloud.add(4, 5, 6, 70, 80, 90);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    EXPECT_EQ(encoded->num_voxels, 2u);
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(decoded->size(), 2u);
}

TEST(GeometryCodec, CorruptMagicRejected)
{
    const VoxelCloud cloud = uniqueRandomCloud(58, 100, 5);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    auto payload = encoded->payload;
    payload[0] = 'X';
    EXPECT_FALSE(decodeGeometry(payload).hasValue());
}

TEST(GeometryCodec, TruncatedPayloadRejected)
{
    const VoxelCloud cloud = uniqueRandomCloud(59, 500, 6);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    auto payload = encoded->payload;
    payload.resize(payload.size() / 2);
    const auto decoded = decodeGeometry(payload);
    EXPECT_FALSE(decoded.hasValue());
    EXPECT_EQ(decoded.status().code(),
              StatusCode::kCorruptBitstream);
}

TEST(GeometryCodec, RecordsGeometryStages)
{
    const VoxelCloud cloud = uniqueRandomCloud(60, 400, 6);
    WorkRecorder recorder;
    auto encoded =
        encodeGeometry(cloud, parallelConfig(true), &recorder);
    ASSERT_TRUE(encoded.hasValue());
    const auto profile = recorder.takeProfile();
    ASSERT_GE(profile.stages.size(), 3u);
    EXPECT_EQ(profile.stages[0].name, "geom.normalize");
    bool has_build = false;
    for (const auto &stage : profile.stages)
        has_build |= stage.name == "geom.build";
    EXPECT_TRUE(has_build);
}

/** Seeded cloud in a sub-box of a 10-bit grid (so the tight bbox
 *  shrinks the tree) with every seventh point repeated under a new
 *  color (so deduplication drops points). */
VoxelCloud
pinnedCloud()
{
    Rng rng(77);
    VoxelCloud cloud(10);
    for (int i = 0; i < 3000; ++i) {
        const auto x = static_cast<std::uint16_t>(100 + rng.bounded(300));
        const auto y = static_cast<std::uint16_t>(200 + rng.bounded(150));
        const auto z = static_cast<std::uint16_t>(50 + rng.bounded(400));
        cloud.add(x, y, z, static_cast<std::uint8_t>(i), 1, 2);
        if (i % 7 == 0)
            cloud.add(x, y, z, 9, 9, 9);
    }
    return cloud;
}

/** Every stage and kernel record of `profile`, one line each, with
 *  the integer fields only (model seconds are float sums). */
std::vector<std::string>
modelRecords(const PipelineProfile &profile)
{
    std::vector<std::string> lines;
    for (const StageProfile &stage : profile.stages) {
        lines.push_back("stage " + stage.name);
        for (const KernelWork &k : stage.kernels) {
            lines.push_back(
                k.name + " " + execResourceName(k.resource) + " " +
                std::to_string(k.invocations) + " " +
                std::to_string(k.items) + " " +
                std::to_string(k.ops) + " " +
                std::to_string(k.bytes));
        }
    }
    return lines;
}

/** Encode and decode model records for `config` on pinnedCloud(). */
std::vector<std::string>
roundTripRecords(const GeometryConfig &config)
{
    WorkRecorder encode_recorder;
    auto encoded =
        encodeGeometry(pinnedCloud(), config, &encode_recorder);
    EXPECT_TRUE(encoded.hasValue());
    if (!encoded)
        return {};
    WorkRecorder decode_recorder;
    EXPECT_TRUE(
        decodeGeometry(encoded->payload, &decode_recorder).hasValue());
    std::vector<std::string> lines =
        modelRecords(encode_recorder.takeProfile());
    for (std::string &line :
         modelRecords(decode_recorder.takeProfile()))
        lines.push_back(std::move(line));
    return lines;
}

// The device model prices these records; a host-side rewrite of the
// geometry path must leave every one of them as it is.
TEST(GeometryCodec, PinnedModelRecords)
{
    EXPECT_EQ(roundTripRecords(makeIntraOnlyConfig().geometry),
              (std::vector<std::string>{
                  "stage geom.normalize",
                  "geom.bbox_reduce gpu 1 3429 20574 20574",
                  "geom.requant gpu 1 3429 20574 41148",
                  "stage geom.morton",
                  "morton.generate gpu 1 3429 61722 61722",
                  "morton.sort gpu 4 3429 54864 329184",
                  "stage geom.build",
                  "morton.gather gpu 1 3429 20574 61722",
                  "geom.dedup gpu 1 3429 10287 58293",
                  "octree.par_levels gpu 10 14806 86025 355344",
                  "octree.par_parents gpu 9 14806 88830 177672",
                  "octree.occupancy_merge gpu 1 14805 44415 148050",
                  "stage geom.post",
                  "stage geomdec.parse",
                  "geomdec.parse cpu-seq 1 11806 11806 11820",
                  "geomdec.expand gpu 9 11806 118060 35806",
                  "geomdec.dequant gpu 1 3000 72000 42000",
              }));

    GeometryConfig contextual = parallelConfig(false);
    contextual.contextual_entropy = true;
    EXPECT_EQ(roundTripRecords(contextual),
              (std::vector<std::string>{
                  "stage geom.morton",
                  "morton.generate gpu 1 3429 61722 61722",
                  "morton.sort gpu 4 3429 54864 329184",
                  "stage geom.build",
                  "morton.gather gpu 1 3429 20574 61722",
                  "geom.dedup gpu 1 3429 10287 58293",
                  "octree.par_levels gpu 11 14893 86460 357432",
                  "octree.par_parents gpu 10 14893 89352 178716",
                  "octree.occupancy_merge gpu 1 14892 44676 148920",
                  "stage geom.post",
                  "geom.entropy cpu-seq 1 11893 333004 17669",
                  "stage geomdec.parse",
                  "geomdec.parse cpu-seq 1 11893 356790 5787",
                  "geomdec.expand gpu 10 11893 118930 35893",
                  "geomdec.dequant gpu 1 3000 72000 42000",
              }));
}

/** Sweep: lossless roundtrip across sizes, depths, builders. */
class GeometryCodecSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{
};

TEST_P(GeometryCodecSweep, LosslessRoundtrip)
{
    const auto [n, bits, parallel] = GetParam();
    // Never ask for more unique voxels than half the grid holds.
    const std::size_t capped = std::min<std::size_t>(
        static_cast<std::size_t>(n),
        (std::size_t{1} << (3 * bits)) / 2 + 1);
    const VoxelCloud cloud = uniqueRandomCloud(
        static_cast<std::uint64_t>(n) * 61 +
            static_cast<std::uint64_t>(bits),
        capped, bits);
    const GeometryConfig config =
        parallel ? parallelConfig(false) : sequentialConfig();
    auto encoded = encodeGeometry(cloud, config);
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeometryCodecSweep,
    ::testing::Combine(::testing::Values(1, 7, 64, 1000),
                       ::testing::Values(1, 4, 10),
                       ::testing::Bool()));

/** Clouds around the codec's 2^15-item part boundary, plus the
 *  duplicate-heavy and full-grid edge cases. */
VoxelCloud
poolCaseCloud(const std::string &name)
{
    Rng rng(std::hash<std::string>{}(name));
    if (name == "duplicates") {
        // 60000 points over ~4000 voxels: long runs of equal codes
        // cross part boundaries.
        VoxelCloud cloud(6);
        for (int i = 0; i < 60000; ++i) {
            cloud.add(static_cast<std::uint16_t>(rng.bounded(16)),
                      static_cast<std::uint16_t>(rng.bounded(16)),
                      static_cast<std::uint16_t>(rng.bounded(16)),
                      static_cast<std::uint8_t>(i), 0, 0);
        }
        return cloud;
    }
    if (name == "full_grid") {
        // Spans the whole grid, so the tight bbox is the identity.
        VoxelCloud cloud(7);
        cloud.add(0, 0, 0, 1, 2, 3);
        cloud.add(127, 127, 127, 4, 5, 6);
        for (int i = 0; i < 50000; ++i) {
            cloud.add(static_cast<std::uint16_t>(rng.bounded(128)),
                      static_cast<std::uint16_t>(rng.bounded(128)),
                      static_cast<std::uint16_t>(rng.bounded(128)),
                      7, 8, 9);
        }
        return cloud;
    }
    // "n<count>": unique voxels inside a sub-box of a 10-bit grid.
    const auto n = static_cast<std::size_t>(std::stoul(name.substr(1)));
    VoxelCloud cloud(10);
    std::set<std::uint64_t> used;
    while (cloud.size() < n) {
        const auto x = static_cast<std::uint16_t>(90 + rng.bounded(700));
        const auto y = static_cast<std::uint16_t>(300 + rng.bounded(600));
        const auto z = static_cast<std::uint16_t>(20 + rng.bounded(500));
        if (used.insert(mortonEncode(x, y, z)).second)
            cloud.add(x, y, z, static_cast<std::uint8_t>(x), 0, 0);
    }
    return cloud;
}

void
expectSameCloud(const VoxelCloud &a, const VoxelCloud &b)
{
    EXPECT_EQ(a.gridBits(), b.gridBits());
    EXPECT_EQ(a.x(), b.x());
    EXPECT_EQ(a.y(), b.y());
    EXPECT_EQ(a.z(), b.z());
    EXPECT_EQ(a.r(), b.r());
    EXPECT_EQ(a.g(), b.g());
    EXPECT_EQ(a.b(), b.b());
}

class GeometryCodecPools : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GeometryCodecPools, IdenticalAtEveryPoolSize)
{
    const VoxelCloud cloud = poolCaseCloud(GetParam());
    GeometryConfig raw = parallelConfig(true);
    GeometryConfig order0 = parallelConfig(true, /*entropy=*/true);
    GeometryConfig contextual = parallelConfig(true);
    contextual.contextual_entropy = true;
    for (const GeometryConfig &config : {raw, order0, contextual}) {
        SCOPED_TRACE(config.contextual_entropy ? "contextual"
                     : config.entropy_coding   ? "order-0"
                                               : "raw");
        GeometryEncoded reference;
        VoxelCloud reference_decoded;
        for (const std::size_t pool_size : {0, 1, 4}) {
            SCOPED_TRACE(pool_size);
            ScopedGlobalPool pool(pool_size);
            auto encoded = encodeGeometry(cloud, config);
            ASSERT_TRUE(encoded.hasValue());
            auto decoded = decodeGeometry(encoded->payload);
            ASSERT_TRUE(decoded.hasValue());
            // Integer input: the tight bbox shift is exact, so the
            // decode reproduces sorted_cloud's coordinates.
            EXPECT_EQ(decoded->x(), encoded->sorted_cloud.x());
            EXPECT_EQ(decoded->y(), encoded->sorted_cloud.y());
            EXPECT_EQ(decoded->z(), encoded->sorted_cloud.z());
            if (pool_size == 0) {
                EXPECT_EQ(voxelSet(*decoded), voxelSet(cloud));
                reference = encoded.takeValue();
                reference_decoded = decoded.takeValue();
                continue;
            }
            EXPECT_EQ(encoded->payload, reference.payload);
            expectSameCloud(encoded->sorted_cloud,
                            reference.sorted_cloud);
            expectSameCloud(*decoded, reference_decoded);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PartBoundaries, GeometryCodecPools,
    ::testing::Values("n1", "n32767", "n32768", "n32769", "n100003",
                      "duplicates", "full_grid"));

}  // namespace
}  // namespace edgepcc
