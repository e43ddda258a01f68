/** @file Integration tests: full encode/decode with all presets. */

#include "edgepcc/core/video_codec.h"

#include <gtest/gtest.h>

#include "edgepcc/dataset/catalogue.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"

namespace edgepcc {
namespace {

/** Small but realistic synthetic video shared by the tests. */
class VideoCodecTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        VideoSpec spec;
        spec.name = "test-human";
        spec.seed = 777;
        spec.target_points = 15000;
        spec.num_frames = 4;
        video_ = new SyntheticHumanVideo(spec);
        for (int f = 0; f < 4; ++f)
            frames_.push_back(video_->frame(f));
    }

    static void
    TearDownTestSuite()
    {
        delete video_;
        video_ = nullptr;
        frames_.clear();
    }

    static SyntheticHumanVideo *video_;
    static std::vector<VoxelCloud> frames_;
};

SyntheticHumanVideo *VideoCodecTest::video_ = nullptr;
std::vector<VoxelCloud> VideoCodecTest::frames_;

TEST_F(VideoCodecTest, AllPresetsRoundtripWithReasonableQuality)
{
    for (const CodecConfig &config : allPaperConfigs()) {
        VideoEncoder encoder(config);
        VideoDecoder decoder;
        for (std::size_t f = 0; f < 3; ++f) {
            auto encoded = encoder.encode(frames_[f]);
            ASSERT_TRUE(encoded.hasValue())
                << config.name << " frame " << f << ": "
                << encoded.status().toString();
            auto decoded = decoder.decode(encoded->bitstream);
            ASSERT_TRUE(decoded.hasValue())
                << config.name << " frame " << f << ": "
                << decoded.status().toString();
            EXPECT_EQ(decoded->type, encoded->stats.type);

            const AttrQuality attr =
                attributePsnr(frames_[f], decoded->cloud);
            EXPECT_GT(attr.psnr, 30.0)
                << config.name << " frame " << f;
            const GeometryQuality geom =
                geometryPsnrD1(frames_[f], decoded->cloud);
            EXPECT_GT(geom.psnr, 55.0)
                << config.name << " frame " << f;
            // Compression must beat raw clearly even at this
            // small (sparse) test scale; the paper-scale ratios
            // are covered by the fig8c bench.
            EXPECT_GT(encoded->stats.compressionRatio(), 2.0)
                << config.name << " frame " << f;
        }
    }
}

TEST_F(VideoCodecTest, GopPatternIsIpp)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    std::vector<Frame::Type> types;
    for (int f = 0; f < 6; ++f) {
        auto encoded = encoder.encode(frames_[f % 4]);
        ASSERT_TRUE(encoded.hasValue());
        types.push_back(encoded->stats.type);
    }
    EXPECT_EQ(types[0], Frame::Type::kIntra);
    EXPECT_EQ(types[1], Frame::Type::kPredicted);
    EXPECT_EQ(types[2], Frame::Type::kPredicted);
    EXPECT_EQ(types[3], Frame::Type::kIntra);
    EXPECT_EQ(types[4], Frame::Type::kPredicted);
    EXPECT_EQ(types[5], Frame::Type::kPredicted);
}

TEST_F(VideoCodecTest, HigherReuseThresholdShrinksPFrames)
{
    // The paper's bitrate knob (Sec. VI-E) through the whole codec:
    // a looser reuse threshold reuses more blocks, so the P frames
    // of the same input come out no larger.
    const auto pFrameBytes = [](double reuse_threshold) {
        CodecConfig config = makeIntraInterV1Config();
        config.block_match.reuse_threshold = reuse_threshold;
        VideoEncoder encoder(config);
        std::uint64_t bytes = 0;
        for (int f = 0; f < config.gop_size; ++f) {
            auto encoded = encoder.encode(frames_[f]);
            EXPECT_TRUE(encoded.hasValue());
            if (encoded.hasValue() &&
                encoded->stats.type == Frame::Type::kPredicted)
                bytes += encoded->stats.total_bytes;
        }
        return bytes;
    };
    const std::uint64_t strict = pFrameBytes(15.0);
    const std::uint64_t loose = pFrameBytes(2000.0);
    ASSERT_GT(strict, 0u);
    EXPECT_LT(loose, strict);
}

TEST_F(VideoCodecTest, IntraOnlyNeverEmitsPredicted)
{
    VideoEncoder encoder(makeIntraOnlyConfig());
    for (int f = 0; f < 4; ++f) {
        auto encoded = encoder.encode(frames_[f]);
        ASSERT_TRUE(encoded.hasValue());
        EXPECT_EQ(encoded->stats.type, Frame::Type::kIntra);
    }
}

TEST_F(VideoCodecTest, ResetRestartsGop)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    ASSERT_TRUE(encoder.encode(frames_[0]).hasValue());
    auto second = encoder.encode(frames_[1]);
    ASSERT_TRUE(second.hasValue());
    EXPECT_EQ(second->stats.type, Frame::Type::kPredicted);
    encoder.reset();
    auto after_reset = encoder.encode(frames_[2]);
    ASSERT_TRUE(after_reset.hasValue());
    EXPECT_EQ(after_reset->stats.type, Frame::Type::kIntra);
}

TEST_F(VideoCodecTest, DecoderRejectsPredictedWithoutReference)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    ASSERT_TRUE(encoder.encode(frames_[0]).hasValue());
    auto p_frame = encoder.encode(frames_[1]);
    ASSERT_TRUE(p_frame.hasValue());
    VideoDecoder fresh_decoder;
    const auto decoded = fresh_decoder.decode(p_frame->bitstream);
    EXPECT_FALSE(decoded.hasValue());
}

TEST_F(VideoCodecTest, StatsAccounting)
{
    VideoEncoder encoder(makeIntraOnlyConfig());
    auto encoded = encoder.encode(frames_[0]);
    ASSERT_TRUE(encoded.hasValue());
    const FrameStats &stats = encoded->stats;
    EXPECT_EQ(stats.num_input_points, frames_[0].size());
    EXPECT_EQ(stats.raw_bytes, frames_[0].size() * 15);
    EXPECT_EQ(stats.total_bytes, encoded->bitstream.size());
    EXPECT_GT(stats.geometry_bytes, 0u);
    EXPECT_GT(stats.attr_bytes, 0u);
    EXPECT_LE(stats.geometry_bytes + stats.attr_bytes,
              stats.total_bytes);
}

TEST_F(VideoCodecTest, ProfilesContainGeometryAndAttrStages)
{
    VideoEncoder encoder(makeIntraOnlyConfig());
    auto encoded = encoder.encode(frames_[0]);
    ASSERT_TRUE(encoded.hasValue());
    bool has_geom = false, has_attr = false;
    for (const auto &stage : encoded->profile.stages) {
        has_geom |= stage.name.rfind("geom.", 0) == 0;
        has_attr |= stage.name.rfind("attr.", 0) == 0;
    }
    EXPECT_TRUE(has_geom);
    EXPECT_TRUE(has_attr);
}

TEST_F(VideoCodecTest, V1QualityAtLeastV2)
{
    double v1_psnr = 0.0, v2_psnr = 0.0;
    double v1_bytes = 0.0, v2_bytes = 0.0;
    for (const bool v2 : {false, true}) {
        VideoEncoder encoder(v2 ? makeIntraInterV2Config()
                                : makeIntraInterV1Config());
        VideoDecoder decoder;
        double psnr_sum = 0.0, bytes = 0.0;
        for (int f = 0; f < 3; ++f) {
            auto encoded = encoder.encode(frames_[f]);
            ASSERT_TRUE(encoded.hasValue());
            auto decoded = decoder.decode(encoded->bitstream);
            ASSERT_TRUE(decoded.hasValue());
            psnr_sum +=
                attributePsnr(frames_[f], decoded->cloud).psnr;
            bytes += static_cast<double>(
                encoded->stats.total_bytes);
        }
        if (v2) {
            v2_psnr = psnr_sum;
            v2_bytes = bytes;
        } else {
            v1_psnr = psnr_sum;
            v1_bytes = bytes;
        }
    }
    // The paper's knob: V2 compresses harder at lower quality.
    EXPECT_LE(v2_bytes, v1_bytes);
    EXPECT_GE(v1_psnr, v2_psnr - 1e-6);
}

TEST_F(VideoCodecTest, Tmc13GeometryIsLossless)
{
    VideoEncoder encoder(makeTmc13LikeConfig());
    VideoDecoder decoder;
    auto encoded = encoder.encode(frames_[0]);
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decoder.decode(encoded->bitstream);
    ASSERT_TRUE(decoded.hasValue());
    const GeometryQuality geom =
        geometryPsnrD1(frames_[0], decoded->cloud);
    EXPECT_EQ(geom.mse, 0.0);
}

TEST_F(VideoCodecTest, MacroBlockWithLossyGeometryRejected)
{
    CodecConfig config = makeCwipcLikeConfig();
    config.geometry.builder =
        GeometryConfig::Builder::kParallelMorton;
    config.geometry.tight_bbox = true;
    VideoEncoder encoder(config);
    const auto encoded = encoder.encode(frames_[0]);
    EXPECT_FALSE(encoded.hasValue());
    EXPECT_EQ(encoded.status().code(),
              StatusCode::kInvalidArgument);
}

TEST_F(VideoCodecTest, EmptyCloudRejected)
{
    VideoEncoder encoder(makeIntraOnlyConfig());
    VoxelCloud empty(10);
    EXPECT_FALSE(encoder.encode(empty).hasValue());
}

TEST_F(VideoCodecTest, GarbageBitstreamRejected)
{
    VideoDecoder decoder;
    const std::vector<std::uint8_t> junk{1, 2, 3, 4, 5};
    EXPECT_FALSE(decoder.decode(junk).hasValue());
}

TEST_F(VideoCodecTest, DecoderMatchesEncoderReference)
{
    // Multi-GOP stream: decoded P frames must stay well aligned
    // with the originals (no drift from reference mismatch).
    VideoEncoder encoder(makeIntraInterV2Config());
    VideoDecoder decoder;
    for (int f = 0; f < 4; ++f) {
        auto encoded = encoder.encode(frames_[f]);
        ASSERT_TRUE(encoded.hasValue());
        auto decoded = decoder.decode(encoded->bitstream);
        ASSERT_TRUE(decoded.hasValue());
        const AttrQuality attr =
            attributePsnr(frames_[f], decoded->cloud);
        EXPECT_GT(attr.psnr, 28.0) << "frame " << f;
    }
}

}  // namespace
}  // namespace edgepcc
