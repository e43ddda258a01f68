/** @file Tests for the streaming substrate (network model,
 *  end-to-end pipeline, stream files). */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "edgepcc/common/rng.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/stream/pipeline.h"
#include "edgepcc/stream/stream_file.h"

namespace edgepcc {
namespace {

TEST(NetworkModel, TransferTimeScalesWithBytes)
{
    const NetworkSpec net = NetworkSpec::wifi();
    const double small = net.transferSeconds(1000);
    const double large = net.transferSeconds(1000000);
    EXPECT_GT(large, small);
    // Latency floor: even zero bytes pay half an RTT plus jitter.
    EXPECT_NEAR(net.transferSeconds(0),
                (net.rtt_ms / 2.0 + net.jitter_ms) / 1e3, 1e-12);
}

TEST(NetworkModel, LossInflatesTransferTime)
{
    NetworkSpec clean = NetworkSpec::wifi();
    clean.packet_loss_rate = 0.0;
    clean.jitter_ms = 0.0;
    NetworkSpec lossy = clean;
    lossy.packet_loss_rate = 0.2;

    const std::uint64_t mb = 1000000;
    // Retransmissions: every byte is sent 1/(1-p) times on average.
    EXPECT_NEAR(lossy.transferSeconds(mb) - lossy.rtt_ms / 2e3,
                (clean.transferSeconds(mb) - clean.rtt_ms / 2e3) /
                    0.8,
                1e-9);
    // A silly loss rate degrades gracefully instead of exploding.
    lossy.packet_loss_rate = 1.0;
    EXPECT_TRUE(std::isfinite(lossy.transferSeconds(mb)));
}

TEST(NetworkModel, PresetsCarryLossAndJitter)
{
    for (const NetworkSpec &net :
         {NetworkSpec::wifi(), NetworkSpec::lte(),
          NetworkSpec::fiveG()}) {
        EXPECT_GT(net.packet_loss_rate, 0.0) << net.name;
        EXPECT_LT(net.packet_loss_rate, 0.1) << net.name;
        EXPECT_GT(net.jitter_ms, 0.0) << net.name;
    }
    // LTE is the flakiest of the three.
    EXPECT_GT(NetworkSpec::lte().packet_loss_rate,
              NetworkSpec::fiveG().packet_loss_rate);
    EXPECT_GT(NetworkSpec::fiveG().packet_loss_rate,
              NetworkSpec::wifi().packet_loss_rate);
}

TEST(NetworkModel, PresetsAreOrdered)
{
    // LTE is the slowest uplink of the three presets.
    const std::uint64_t mb = 1000000;
    EXPECT_GT(NetworkSpec::lte().transferSeconds(mb),
              NetworkSpec::fiveG().transferSeconds(mb));
    EXPECT_GT(NetworkSpec::fiveG().transferSeconds(mb),
              NetworkSpec::wifi().transferSeconds(mb));
}

TEST(NetworkModel, RawFrameMissesRealTime)
{
    // The paper's motivation: a raw ~1M-point frame (15 MB) cannot
    // be shipped within a 33 ms frame budget on common links.
    const std::uint64_t raw_bytes = 15000000;
    EXPECT_GT(NetworkSpec::wifi().transferSeconds(raw_bytes),
              0.033);
}

class PipelineTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        VideoSpec spec;
        spec.name = "stream-test";
        spec.seed = 31;
        spec.target_points = 10000;
        SyntheticHumanVideo video(spec);
        for (int f = 0; f < 3; ++f)
            frames_.push_back(video.frame(f));
    }

    static void TearDownTestSuite() { frames_.clear(); }

    static std::vector<VoxelCloud> frames_;
};

std::vector<VoxelCloud> PipelineTest::frames_;

TEST_F(PipelineTest, RejectsEmptyInput)
{
    EXPECT_FALSE(evaluatePipeline({}, makeIntraOnlyConfig(),
                                  PipelineConfig{})
                     .hasValue());
}

TEST_F(PipelineTest, ReportsAllStages)
{
    auto report = evaluatePipeline(
        frames_, makeIntraOnlyConfig(), PipelineConfig{});
    ASSERT_TRUE(report.hasValue());
    ASSERT_EQ(report->frames.size(), frames_.size());
    for (const FrameLatency &frame : report->frames) {
        EXPECT_GT(frame.capture_s, 0.0);
        EXPECT_GT(frame.encode_s, 0.0);
        EXPECT_GT(frame.transmit_s, 0.0);
        EXPECT_GT(frame.decode_s, 0.0);
        EXPECT_GT(frame.render_s, 0.0);
        EXPECT_GT(frame.bytes, 0u);
        EXPECT_NEAR(frame.total(),
                    frame.capture_s + frame.encode_s +
                        frame.transmit_s + frame.decode_s +
                        frame.render_s,
                    1e-12);
        EXPECT_GE(frame.bottleneckSeconds(), frame.capture_s);
        EXPECT_LE(frame.bottleneckSeconds(), frame.total());
    }
    EXPECT_GT(report->pipelinedFps(), 0.0);
    EXPECT_GT(report->meanBitsPerFrame(), 0.0);
}

TEST_F(PipelineTest, ProposedBeatsBaselineEndToEnd)
{
    auto fast = evaluatePipeline(frames_, makeIntraOnlyConfig(),
                                 PipelineConfig{});
    auto slow = evaluatePipeline(frames_, makeTmc13LikeConfig(),
                                 PipelineConfig{});
    ASSERT_TRUE(fast.hasValue());
    ASSERT_TRUE(slow.hasValue());
    EXPECT_LT(fast->meanTotalSeconds(),
              slow->meanTotalSeconds());
    EXPECT_GT(fast->pipelinedFps(), slow->pipelinedFps());
}

TEST_F(PipelineTest, InterModeWorksThroughPipeline)
{
    auto report = evaluatePipeline(
        frames_, makeIntraInterV1Config(), PipelineConfig{});
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->frames[0].type, Frame::Type::kIntra);
    EXPECT_EQ(report->frames[1].type, Frame::Type::kPredicted);
}

TEST(StreamFile, PackUnpackRoundtrip)
{
    Rng rng(55);
    std::vector<std::vector<std::uint8_t>> frames;
    for (int f = 0; f < 5; ++f) {
        std::vector<std::uint8_t> frame(rng.bounded(4000) + 1);
        for (auto &byte : frame)
            byte = static_cast<std::uint8_t>(rng.bounded(256));
        frames.push_back(std::move(frame));
    }
    const auto bytes = packStream(frames);
    auto unpacked = unpackStream(bytes);
    ASSERT_TRUE(unpacked.hasValue());
    EXPECT_EQ(*unpacked, frames);
}

TEST(StreamFile, EmptyStream)
{
    const auto bytes = packStream({});
    auto unpacked = unpackStream(bytes);
    ASSERT_TRUE(unpacked.hasValue());
    EXPECT_TRUE(unpacked->empty());
}

TEST(StreamFile, ZeroLengthFramesAllowed)
{
    std::vector<std::vector<std::uint8_t>> frames{{}, {1, 2}, {}};
    auto unpacked = unpackStream(packStream(frames));
    ASSERT_TRUE(unpacked.hasValue());
    EXPECT_EQ(*unpacked, frames);
}

TEST(StreamFile, BadMagicRejected)
{
    auto bytes = packStream({{1, 2, 3}});
    bytes[0] = 'X';
    EXPECT_FALSE(unpackStream(bytes).hasValue());
}

TEST(StreamFile, TruncationRejected)
{
    auto bytes = packStream({{1, 2, 3, 4, 5, 6, 7, 8}});
    bytes.resize(bytes.size() - 3);
    const auto unpacked = unpackStream(bytes);
    EXPECT_FALSE(unpacked.hasValue());
    EXPECT_EQ(unpacked.status().code(),
              StatusCode::kCorruptBitstream);
}

TEST(StreamFile, FileRoundtrip)
{
    std::vector<std::vector<std::uint8_t>> frames{
        {9, 8, 7}, {6, 5}, {4}};
    const std::string path = std::string(::testing::TempDir()) +
                             "/edgepcc_test_stream.epcv";
    ASSERT_TRUE(writeStreamFile(path, frames).isOk());
    auto loaded = readStreamFile(path);
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(*loaded, frames);
    (void)std::remove(path.c_str());
}

TEST(StreamFile, MissingFileReported)
{
    const auto result = readStreamFile("/no/such/file.epcv");
    EXPECT_FALSE(result.hasValue());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace edgepcc
