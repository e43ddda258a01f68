/** @file Tests for the proposed Morton-window inter-frame codec. */

#include "edgepcc/interframe/block_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>

#include "edgepcc/common/rng.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {
namespace {

/** Morton-sorted cloud with a smooth color field. */
VoxelCloud
smoothSortedCloud(std::uint64_t seed, std::size_t n, int bits,
                  int color_shift = 0, double noise = 0.0)
{
    Rng rng(seed);
    std::set<std::uint64_t> codes;
    const std::uint32_t grid = 1u << bits;
    while (codes.size() < n) {
        const auto x =
            static_cast<std::uint32_t>(rng.bounded(grid));
        const auto y =
            static_cast<std::uint32_t>(rng.bounded(grid));
        const auto z =
            static_cast<std::uint32_t>(rng.bounded(grid / 2));
        codes.insert(mortonEncode(x, y, z));
    }
    Rng noise_rng(seed ^ 0xabcd);
    VoxelCloud cloud(bits);
    for (const std::uint64_t code : codes) {
        const MortonXyz xyz = mortonDecode(code);
        const double jitter = noise * noise_rng.gaussian();
        const auto clampc = [](double v) {
            return static_cast<std::uint8_t>(
                std::clamp(v, 0.0, 255.0));
        };
        cloud.add(static_cast<std::uint16_t>(xyz.x),
                  static_cast<std::uint16_t>(xyz.y),
                  static_cast<std::uint16_t>(xyz.z),
                  clampc(60.0 + color_shift +
                         (xyz.x * 120.0) / grid + jitter),
                  clampc(40.0 + color_shift +
                         (xyz.y * 140.0) / grid + jitter),
                  clampc(90.0 + color_shift +
                         (xyz.z * 100.0) / grid + jitter));
    }
    return cloud;
}

double
meanAbsColorError(const VoxelCloud &a, const VoxelCloud &b)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sum += std::abs(static_cast<double>(a.r()[i]) - b.r()[i]);
        sum += std::abs(static_cast<double>(a.g()[i]) - b.g()[i]);
        sum += std::abs(static_cast<double>(a.b()[i]) - b.b()[i]);
    }
    return sum / (3.0 * static_cast<double>(a.size()));
}

BlockMatchConfig
defaultConfig()
{
    BlockMatchConfig config;
    config.delta_codec.quant_step = 1;  // lossless deltas
    return config;
}

TEST(BlockMatcher, RejectsEmptyClouds)
{
    VoxelCloud empty(6);
    const VoxelCloud cloud = smoothSortedCloud(90, 100, 6);
    EXPECT_FALSE(encodeInterAttr(empty, cloud, defaultConfig())
                     .hasValue());
    EXPECT_FALSE(encodeInterAttr(cloud, empty, defaultConfig())
                     .hasValue());
    BlockMatchConfig bad = defaultConfig();
    bad.candidate_window = 0;
    EXPECT_FALSE(encodeInterAttr(cloud, cloud, bad).hasValue());
}

TEST(BlockMatcher, IdenticalFramesFullyReused)
{
    const VoxelCloud cloud = smoothSortedCloud(91, 4000, 7);
    auto encoded =
        encodeInterAttr(cloud, cloud, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    EXPECT_EQ(encoded->stats.reused_blocks,
              encoded->stats.num_blocks);
    EXPECT_EQ(encoded->stats.delta_points, 0u);

    VoxelCloud decoded = cloud;
    for (std::size_t i = 0; i < decoded.size(); ++i)
        decoded.setColor(i, Color{});
    ASSERT_TRUE(decodeInterAttrInto(encoded->payload, cloud,
                                    decoded)
                    .isOk());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        EXPECT_EQ(decoded.color(i), cloud.color(i));
}

TEST(BlockMatcher, ReusePayloadIsSmall)
{
    const VoxelCloud cloud = smoothSortedCloud(92, 8000, 7);
    auto encoded =
        encodeInterAttr(cloud, cloud, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    // Full reuse: ~1 byte per block, far below 3 B/point raw.
    EXPECT_LT(encoded->payload.size(), cloud.size() / 2);
}

TEST(BlockMatcher, DissimilarFramesFallBackToDeltas)
{
    const VoxelCloud p = smoothSortedCloud(93, 3000, 7, 0);
    const VoxelCloud i = smoothSortedCloud(93, 3000, 7, 120);
    BlockMatchConfig config = defaultConfig();
    config.reuse_threshold = 1.0;  // strict
    auto encoded = encodeInterAttr(p, i, config);
    ASSERT_TRUE(encoded.hasValue());
    EXPECT_EQ(encoded->stats.reused_blocks, 0u);
    // Lossless delta coding must reconstruct exactly.
    VoxelCloud decoded = p;
    for (std::size_t k = 0; k < decoded.size(); ++k)
        decoded.setColor(k, Color{});
    ASSERT_TRUE(
        decodeInterAttrInto(encoded->payload, i, decoded).isOk());
    for (std::size_t k = 0; k < decoded.size(); ++k)
        EXPECT_EQ(decoded.color(k), p.color(k));
}

TEST(BlockMatcher, ThresholdControlsReuseFraction)
{
    // Similar frames with mild noise: higher threshold -> more
    // direct reuse (the paper's Fig. 10b knob).
    const VoxelCloud i = smoothSortedCloud(94, 5000, 7, 0, 0.0);
    const VoxelCloud p = smoothSortedCloud(94, 5000, 7, 3, 2.0);
    double previous = -1.0;
    for (const double threshold : {2.0, 15.0, 60.0, 400.0}) {
        BlockMatchConfig config = defaultConfig();
        config.reuse_threshold = threshold;
        auto encoded = encodeInterAttr(p, i, config);
        ASSERT_TRUE(encoded.hasValue());
        const double fraction = encoded->stats.reuseFraction();
        EXPECT_GE(fraction, previous);
        previous = fraction;
    }
    EXPECT_GT(previous, 0.9);  // threshold 400 reuses nearly all
}

TEST(BlockMatcher, HigherThresholdSmallerPayloadLowerQuality)
{
    const VoxelCloud i = smoothSortedCloud(95, 6000, 7, 0, 0.0);
    const VoxelCloud p = smoothSortedCloud(95, 6000, 7, 4, 3.0);
    BlockMatchConfig strict = defaultConfig();
    strict.reuse_threshold = 4.0;
    BlockMatchConfig loose = defaultConfig();
    loose.reuse_threshold = 200.0;
    auto a = encodeInterAttr(p, i, strict);
    auto b = encodeInterAttr(p, i, loose);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_LE(b->payload.size(), a->payload.size());

    VoxelCloud da = p, db = p;
    ASSERT_TRUE(decodeInterAttrInto(a->payload, i, da).isOk());
    ASSERT_TRUE(decodeInterAttrInto(b->payload, i, db).isOk());
    EXPECT_LE(meanAbsColorError(p, da),
              meanAbsColorError(p, db) + 1e-9);
}

TEST(BlockMatcher, DifferentPointCountsHandled)
{
    const VoxelCloud p = smoothSortedCloud(96, 3100, 7);
    const VoxelCloud i = smoothSortedCloud(97, 2900, 7);
    auto encoded = encodeInterAttr(p, i, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    VoxelCloud decoded = p;
    ASSERT_TRUE(
        decodeInterAttrInto(encoded->payload, i, decoded).isOk());
}

TEST(BlockMatcher, TinyReferenceFrame)
{
    const VoxelCloud p = smoothSortedCloud(98, 500, 6);
    const VoxelCloud i = smoothSortedCloud(99, 20, 6);
    auto encoded = encodeInterAttr(p, i, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    VoxelCloud decoded = p;
    EXPECT_TRUE(
        decodeInterAttrInto(encoded->payload, i, decoded).isOk());
}

TEST(BlockMatcher, PointCountMismatchRejected)
{
    const VoxelCloud p = smoothSortedCloud(100, 1000, 6);
    auto encoded = encodeInterAttr(p, p, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    VoxelCloud wrong = smoothSortedCloud(101, 900, 6);
    EXPECT_FALSE(
        decodeInterAttrInto(encoded->payload, p, wrong).isOk());
}

TEST(BlockMatcher, CorruptPayloadRejected)
{
    const VoxelCloud p = smoothSortedCloud(102, 1000, 6);
    auto encoded = encodeInterAttr(p, p, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    auto bad = encoded->payload;
    bad[1] = 'X';
    VoxelCloud decoded = p;
    EXPECT_FALSE(decodeInterAttrInto(bad, p, decoded).isOk());
    bad = encoded->payload;
    bad.resize(bad.size() - bad.size() / 4);
    EXPECT_FALSE(decodeInterAttrInto(bad, p, decoded).isOk());
}

TEST(BlockMatcher, RecordsFigNineKernels)
{
    const VoxelCloud p = smoothSortedCloud(103, 2000, 7);
    WorkRecorder recorder;
    auto encoded =
        encodeInterAttr(p, p, defaultConfig(), &recorder);
    ASSERT_TRUE(encoded.hasValue());
    const auto profile = recorder.takeProfile();
    std::set<std::string> kernel_names;
    for (const auto &stage : profile.stages) {
        for (const auto &kernel : stage.kernels)
            kernel_names.insert(kernel.name);
    }
    EXPECT_TRUE(kernel_names.count("bm.diff_squared"));
    EXPECT_TRUE(kernel_names.count("bm.squared_sum"));
    EXPECT_TRUE(kernel_names.count("bm.address_gen"));
}

// -----------------------------------------------------------------
// Matcher equivalence: the parallel early-exit matcher against the
// serial full-scan loop it replaced, kept here as the oracle.
// -----------------------------------------------------------------

/** The serial full-scan encoder: every candidate's full Eq. 2 score,
 *  argmin under strict `<`, then the same delta coding and framing
 *  as encodeInterAttr. */
struct OracleEncoded {
    std::vector<std::uint8_t> payload;
    BlockMatchStats stats;
    std::uint64_t comparisons = 0;
    std::uint64_t reused_points = 0;
};

OracleEncoded
oracleEncodeInterAttr(const VoxelCloud &p, const VoxelCloud &i,
                      const BlockMatchConfig &config)
{
    const std::size_t np = p.size();
    const std::size_t ni = i.size();
    SegmentCodecConfig layout_cfg;
    layout_cfg.num_segments =
        config.num_blocks != 0
            ? config.num_blocks
            : static_cast<std::uint32_t>(
                  std::max<std::size_t>(1, np / 16));
    const SegmentLayout layout = makeSegmentLayout(np, layout_cfg);
    const std::size_t k = layout.points_per_segment;
    const std::size_t i_blocks = (ni + k - 1) / k;
    const std::size_t p_blocks = layout.num_segments;
    const std::size_t window = config.candidate_window;
    const auto window_start = [&](std::size_t pb) {
        const auto center = static_cast<std::size_t>(
            static_cast<double>(pb) * static_cast<double>(i_blocks) /
            static_cast<double>(std::max<std::size_t>(1, p_blocks)));
        std::size_t start = center > window / 2 ? center - window / 2
                                                : 0;
        if (start + window > i_blocks)
            start = i_blocks > window ? i_blocks - window : 0;
        return start;
    };

    OracleEncoded out;
    out.stats.num_blocks = static_cast<std::uint32_t>(p_blocks);
    std::vector<std::uint32_t> best_offset(p_blocks, 0);
    std::vector<std::uint8_t> reuse_flag(p_blocks, 0);
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        const std::size_t p_begin =
            layout.begin(static_cast<std::uint32_t>(pb));
        const std::size_t kp =
            layout.end(static_cast<std::uint32_t>(pb), np) - p_begin;
        const std::size_t start = window_start(pb);
        const std::size_t count = std::min(window, i_blocks - start);
        std::uint64_t best_diff = 0;
        std::size_t best_km = 1;
        bool have_best = false;
        for (std::size_t c = 0; c < count; ++c) {
            const std::size_t i_begin = (start + c) * k;
            const std::size_t km =
                std::min(kp, std::min(ni, i_begin + k) - i_begin);
            if (km == 0)
                continue;
            std::uint64_t diff = 0;
            for (std::size_t j = 0; j < km; ++j) {
                const int dr = p.r()[p_begin + j] - i.r()[i_begin + j];
                const int dg = p.g()[p_begin + j] - i.g()[i_begin + j];
                const int db = p.b()[p_begin + j] - i.b()[i_begin + j];
                diff += static_cast<std::uint64_t>(dr * dr + dg * dg +
                                                   db * db);
            }
            out.comparisons += km;
            if (!have_best || diff * best_km < best_diff * km) {
                best_diff = diff;
                best_offset[pb] = static_cast<std::uint32_t>(c);
                best_km = km;
                have_best = true;
            }
        }
        if (!have_best)
            best_diff = ~std::uint64_t{0} / 2;
        if (static_cast<double>(best_diff) /
                static_cast<double>(best_km) <=
            config.reuse_threshold) {
            reuse_flag[pb] = 1;
            ++out.stats.reused_blocks;
            out.reused_points += kp;
        } else {
            out.stats.delta_points += kp;
        }
    }

    AttrChannels deltas;
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        if (reuse_flag[pb])
            continue;
        const std::size_t p_begin =
            layout.begin(static_cast<std::uint32_t>(pb));
        const std::size_t p_end =
            layout.end(static_cast<std::uint32_t>(pb), np);
        const std::size_t i_begin =
            (window_start(pb) + best_offset[pb]) * k;
        const std::size_t i_last = std::min(ni, i_begin + k) - 1;
        for (std::size_t j = 0; j < p_end - p_begin; ++j) {
            const std::size_t src = std::min(i_begin + j, i_last);
            deltas[0].push_back(p.r()[p_begin + j] - i.r()[src]);
            deltas[1].push_back(p.g()[p_begin + j] - i.g()[src]);
            deltas[2].push_back(p.b()[p_begin + j] - i.b()[src]);
        }
    }
    std::vector<std::uint8_t> delta_payload;
    if (out.stats.delta_points > 0) {
        auto encoded = encodeSegmentAttr(deltas, config.delta_codec);
        EXPECT_TRUE(encoded.hasValue());
        if (encoded.hasValue())
            delta_payload = encoded.takeValue();
    }

    BitWriter writer;
    for (const char c : {'I', 'N', 'T'})
        writer.writeBits(static_cast<std::uint8_t>(c), 8);
    writer.writeVarint(np);
    writer.writeVarint(p_blocks);
    writer.writeVarint(k);
    writer.writeVarint(window);
    const int ptr_bits =
        std::max(1, bitWidth(config.candidate_window - 1));
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        writer.writeBits(reuse_flag[pb], 1);
        writer.writeBits(best_offset[pb], ptr_bits);
    }
    writer.writeVarint(delta_payload.size());
    writer.writeBytes(delta_payload.data(), delta_payload.size());
    out.payload = writer.take();
    return out;
}

/** The `bm.*` kernel records of a profile, in record order. */
std::vector<KernelWork>
blockMatchKernels(const PipelineProfile &profile)
{
    std::vector<KernelWork> kernels;
    for (const auto &stage : profile.stages) {
        for (const auto &kernel : stage.kernels) {
            if (kernel.name.rfind("bm.", 0) == 0)
                kernels.push_back(kernel);
        }
    }
    return kernels;
}

const KernelWork *
findKernel(const std::vector<KernelWork> &kernels,
           const std::string &name)
{
    for (const auto &kernel : kernels) {
        if (kernel.name == name)
            return &kernel;
    }
    return nullptr;
}

/** Overwrites every color with `color`, or with uniform noise when
 *  `color` is null. */
VoxelCloud
recolored(VoxelCloud cloud, std::uint64_t seed,
          const Color *color = nullptr)
{
    Rng rng(seed);
    for (std::size_t j = 0; j < cloud.size(); ++j) {
        const auto channel = [&rng] {
            return static_cast<std::uint8_t>(rng.bounded(256));
        };
        cloud.setColor(j, color != nullptr
                              ? *color
                              : Color{channel(), channel(), channel()});
    }
    return cloud;
}

struct MatcherCase {
    std::string name;
    VoxelCloud p;
    VoxelCloud i;
    BlockMatchConfig config;
};

std::vector<MatcherCase>
matcherCases()
{
    std::vector<MatcherCase> cases;
    const auto with = [](std::uint32_t blocks, std::uint32_t window,
                         double threshold) {
        BlockMatchConfig config = defaultConfig();
        config.num_blocks = blocks;
        config.candidate_window = window;
        config.reuse_threshold = threshold;
        return config;
    };
    // 6007 points in 375 blocks of 17: the last P-block is short, and
    // the I frame's 5803 points end in a short tail block too.
    const VoxelCloud p_geom = smoothSortedCloud(110, 6007, 7);
    const VoxelCloud i_geom = smoothSortedCloud(111, 5803, 7);
    const VoxelCloud p_random = recolored(p_geom, 1);
    const VoxelCloud i_random = recolored(i_geom, 2);
    cases.push_back({"random", p_random, i_random, with(0, 100, 15.0)});
    // A threshold near the random-color mean mixes reuse and deltas.
    cases.push_back(
        {"random-mixed", p_random, i_random, with(0, 100, 30000.0)});
    const Color gray{90, 90, 90};
    const Color teal{20, 140, 150};
    cases.push_back({"equal-zero-ties", recolored(p_geom, 0, &gray),
                     recolored(i_geom, 0, &gray), with(0, 100, 15.0)});
    cases.push_back({"equal-nonzero-ties", recolored(p_geom, 0, &gray),
                     recolored(i_geom, 0, &teal), with(0, 100, 15.0)});
    cases.push_back({"smooth", smoothSortedCloud(112, 6007, 7, 3, 2.0),
                     smoothSortedCloud(112, 5803, 7, 0, 0.0),
                     with(0, 100, 15.0)});
    cases.push_back({"window-1", p_random, i_random, with(0, 1, 15.0)});
    cases.push_back({"window-past-i-blocks", p_random, i_random,
                     with(0, 5000, 15.0)});
    cases.push_back({"explicit-num-blocks", p_random, i_random,
                     with(97, 40, 15.0)});
    return cases;
}

TEST(BlockMatcherEquivalence, MatchesSerialFullScanAtEveryPoolSize)
{
    for (const MatcherCase &c : matcherCases()) {
        const OracleEncoded oracle =
            oracleEncodeInterAttr(c.p, c.i, c.config);
        std::vector<KernelWork> first_kernels;
        for (const std::size_t threads : {0u, 1u, 4u}) {
            ScopedGlobalPool pool(threads);
            WorkRecorder recorder;
            auto encoded =
                encodeInterAttr(c.p, c.i, c.config, &recorder);
            ASSERT_TRUE(encoded.hasValue()) << c.name;
            const std::string where =
                c.name + " threads=" + std::to_string(threads);
            EXPECT_EQ(encoded->payload, oracle.payload) << where;
            EXPECT_EQ(encoded->stats.num_blocks,
                      oracle.stats.num_blocks)
                << where;
            EXPECT_EQ(encoded->stats.reused_blocks,
                      oracle.stats.reused_blocks)
                << where;
            EXPECT_EQ(encoded->stats.delta_points,
                      oracle.stats.delta_points)
                << where;

            const std::vector<KernelWork> kernels =
                blockMatchKernels(recorder.takeProfile());
            const KernelWork *diff =
                findKernel(kernels, "bm.diff_squared");
            const KernelWork *sum =
                findKernel(kernels, "bm.squared_sum");
            const KernelWork *argmin = findKernel(kernels, "bm.argmin");
            const KernelWork *address =
                findKernel(kernels, "bm.address_gen");
            const KernelWork *reuse =
                findKernel(kernels, "bm.reuse_copy");
            ASSERT_TRUE(diff && sum && argmin && address && reuse)
                << where;
            EXPECT_EQ(diff->items, oracle.comparisons) << where;
            EXPECT_EQ(diff->ops, oracle.comparisons * 9) << where;
            EXPECT_EQ(diff->bytes, oracle.comparisons * 6) << where;
            EXPECT_EQ(sum->items, oracle.comparisons) << where;
            EXPECT_EQ(argmin->items,
                      std::uint64_t{oracle.stats.num_blocks} *
                          c.config.candidate_window)
                << where;
            EXPECT_EQ(address->items, oracle.stats.num_blocks +
                                          oracle.stats.delta_points)
                << where;
            EXPECT_EQ(reuse->items, oracle.reused_points) << where;

            // Every bm.* record, field by field, is pool-independent.
            if (threads == 0) {
                first_kernels = kernels;
                continue;
            }
            ASSERT_EQ(kernels.size(), first_kernels.size()) << where;
            for (std::size_t j = 0; j < kernels.size(); ++j) {
                EXPECT_EQ(kernels[j].name, first_kernels[j].name);
                EXPECT_EQ(kernels[j].invocations,
                          first_kernels[j].invocations)
                    << where << " " << kernels[j].name;
                EXPECT_EQ(kernels[j].items, first_kernels[j].items)
                    << where << " " << kernels[j].name;
                EXPECT_EQ(kernels[j].ops, first_kernels[j].ops)
                    << where << " " << kernels[j].name;
                EXPECT_EQ(kernels[j].bytes, first_kernels[j].bytes)
                    << where << " " << kernels[j].name;
            }
        }
    }
}

TEST(BlockMatcherEquivalence, TiesKeepTheFirstCandidate)
{
    // All colors equal: every candidate scores 0, so the strict `<`
    // keeps offset 0 and every block is reused.
    const Color gray{90, 90, 90};
    const VoxelCloud p =
        recolored(smoothSortedCloud(113, 3000, 7), 0, &gray);
    const VoxelCloud i =
        recolored(smoothSortedCloud(114, 3000, 7), 0, &gray);
    BlockMatchConfig config = defaultConfig();
    config.candidate_window = 8;  // 3-bit pointers
    ScopedGlobalPool pool(4);
    auto encoded = encodeInterAttr(p, i, config);
    ASSERT_TRUE(encoded.hasValue());
    EXPECT_EQ(encoded->stats.reused_blocks, encoded->stats.num_blocks);

    BitReader reader(encoded->payload);
    for (int byte = 0; byte < 3; ++byte)
        (void)reader.readBits(8);
    for (int field = 0; field < 4; ++field)
        (void)reader.readVarint();
    for (std::uint32_t pb = 0; pb < encoded->stats.num_blocks; ++pb) {
        EXPECT_EQ(reader.readBits(1), 1u) << pb;
        EXPECT_EQ(reader.readBits(3), 0u) << pb;
    }
    EXPECT_FALSE(reader.overrun());
}

/** Sweep over block counts and windows. */
class BlockMatcherSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t>>
{
};

TEST_P(BlockMatcherSweep, RoundtripReconstructs)
{
    const auto [blocks, window] = GetParam();
    const VoxelCloud i =
        smoothSortedCloud(104 + blocks, 2500, 7, 0, 0.0);
    const VoxelCloud p =
        smoothSortedCloud(104 + blocks, 2500, 7, 2, 1.0);
    BlockMatchConfig config = defaultConfig();
    config.num_blocks = blocks;
    config.candidate_window = window;
    config.reuse_threshold = 0.5;  // force lossless delta path
    auto encoded = encodeInterAttr(p, i, config);
    ASSERT_TRUE(encoded.hasValue());
    VoxelCloud decoded = p;
    for (std::size_t k = 0; k < decoded.size(); ++k)
        decoded.setColor(k, Color{});
    ASSERT_TRUE(
        decodeInterAttrInto(encoded->payload, i, decoded).isOk());
    std::size_t exact = 0;
    for (std::size_t k = 0; k < decoded.size(); ++k)
        exact += decoded.color(k) == p.color(k);
    // Non-reused blocks decode exactly (quant_step 1).
    EXPECT_GT(static_cast<double>(exact) /
                  static_cast<double>(decoded.size()),
              0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockMatcherSweep,
    ::testing::Combine(::testing::Values(0u, 16u, 200u),
                       ::testing::Values(1u, 10u, 100u)));

}  // namespace
}  // namespace edgepcc
