/**
 * @file
 * Bandwidth-budgeted streaming: drives the codec with the bitrate
 * rung of the RedundancyController so P-frame sizes converge to a
 * bitrate target by moving the paper's direct-reuse threshold knob
 * (Sec. VI-E) automatically. The controller aims at the payload
 * the wire budget leaves after parity; with no loss reported, that
 * is the budget minus the smallest parity share.
 *
 * Usage: rate_controlled_stream [target_kbit_per_frame] [frames]
 */

#include <cstdio>
#include <cstdlib>

#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/stream/redundancy_controller.h"

int
main(int argc, char **argv)
{
    using namespace edgepcc;
    const double target_kbit =
        argc > 1 ? std::atof(argv[1]) : 300.0;
    const int frames = argc > 2 ? std::atoi(argv[2]) : 12;

    VideoSpec spec;
    spec.name = "rate-controlled";
    spec.target_points = 70000;
    SyntheticHumanVideo video(spec);

    CodecConfig codec = makeIntraInterV1Config();
    RedundancyConfig rc;
    rc.enabled = true;
    rc.wire_budget_bytes =
        static_cast<std::uint64_t>(target_kbit * 1000.0 / 8.0);
    rc.rate_gain = 0.7;
    RedundancyController controller(
        rc, codec.gop_size, codec.block_match.reuse_threshold);

    (void)std::printf("Target: %.0f kbit/frame on the wire (%.2f Mbit/s "
                "at 30 fps), %.0f kbit of payload after parity, "
                "%d frames of ~%zu points\n\n",
                target_kbit, target_kbit * 30.0 / 1e3,
                static_cast<double>(
                    controller.decide().payload_budget_bytes) *
                    8.0 / 1e3,
                frames, spec.target_points);
    (void)std::printf("%5s %5s %10s %11s %10s %10s\n", "frame", "type",
                "kbit", "threshold", "reuse [%]", "PSNR [dB]");

    VideoDecoder decoder;
    // The encoder picks up the controller's threshold at every GOP
    // boundary (mid-GOP changes would desynchronize nothing, but
    // GOP-aligned updates keep the quality steady within a group).
    VideoEncoder encoder(codec);
    for (int f = 0; f < frames; ++f) {
        if (f % codec.gop_size == 0) {
            codec.block_match.reuse_threshold =
                controller.decide().reuse_threshold;
            encoder = VideoEncoder(codec);
        }
        const VoxelCloud frame = video.frame(f);
        auto encoded = encoder.encode(frame);
        if (!encoded) {
            (void)std::fprintf(stderr, "encode failed: %s\n",
                         encoded.status().toString().c_str());
            return 1;
        }
        auto decoded = decoder.decode(encoded->bitstream);
        if (!decoded) {
            (void)std::fprintf(stderr, "decode failed: %s\n",
                         decoded.status().toString().c_str());
            return 1;
        }
        controller.onEncodedFrame(encoded->stats.type,
                                  encoded->stats.total_bytes);
        (void)std::printf(
            "%5d %5s %10.0f %11.1f %10.0f %10.1f\n", f,
            encoded->stats.type == Frame::Type::kPredicted ? "P"
                                                           : "I",
            static_cast<double>(encoded->stats.total_bytes) *
                8.0 / 1e3,
            codec.block_match.reuse_threshold,
            100.0 * encoded->stats.block_match.reuseFraction(),
            attributePsnr(frame, decoded->cloud).psnr);
    }
    (void)std::printf("\nThe controller trades PSNR for bitrate by "
                "raising the reuse threshold until\nP frames fit "
                "the budget (I frames are bounded by the intra "
                "codec).\n");
    return 0;
}
