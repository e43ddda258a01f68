/**
 * @file
 * Bitrate-driven control of the direct-reuse threshold.
 *
 * The paper exposes the reuse threshold as a tunable design knob
 * (Secs. V-B, VI-E): larger thresholds reuse more blocks, shrinking
 * P-frame payloads at a quality cost. This controller closes the
 * loop for streaming applications with a bandwidth budget: after
 * every P frame it nudges the threshold multiplicatively toward the
 * target payload size, clamped to a sane range.
 */

#ifndef EDGEPCC_STREAM_RATE_CONTROLLER_H
#define EDGEPCC_STREAM_RATE_CONTROLLER_H

#include <cstdint>

#include "edgepcc/common/sync.h"
#include "edgepcc/geometry/point_cloud.h"

namespace edgepcc {

/** Controller parameters. */
struct RateControllerConfig {
    /** Target compressed size per P frame, in bytes. */
    std::uint64_t target_bytes_per_frame = 250000;

    /** Multiplicative adjustment strength per frame (0..1]. */
    double gain = 0.5;

    /** Threshold clamp range (per-point mean squared distance,
     *  paper's 300..1200 block thresholds are 15..60 here). */
    double min_threshold = 1.0;
    double max_threshold = 2000.0;

    /** Initial threshold (paper V1 operating point). */
    double initial_threshold = 15.0;
};

/**
 * Multiplicative-increase/decrease controller over the reuse
 * threshold. Stateless with respect to the codec: feed it the
 * actual per-frame payload sizes and apply threshold() to the next
 * P frame's BlockMatchConfig.
 */
class ReuseRateController
{
  public:
    explicit ReuseRateController(RateControllerConfig config);

    double threshold() const { return threshold_; }

    /**
     * Records one encoded frame. Only P frames adjust the
     * threshold (I frames do not depend on it).
     */
    void onFrame(Frame::Type type, std::uint64_t encoded_bytes);

    std::uint64_t framesObserved() const { return frames_; }

  private:
    RateControllerConfig config_;
    double threshold_;
    std::uint64_t frames_ = 0;
};

/** Adaptive keyframe-insertion parameters. */
struct AdaptiveGopConfig {
    int min_gop_size = 1;
    int max_gop_size = 12;

    /** EWMA smoothing for the observed chunk-loss rate (0..1]. */
    double ewma_alpha = 0.25;

    /** Loss estimate above which the GOP is halved (losing an
     *  I frame costs a whole GOP, so sustained loss must shorten
     *  the blast radius). */
    double high_loss = 0.08;
    /** Loss estimate below which the GOP may grow back. */
    double low_loss = 0.02;
    /** Consecutive clean deliveries required per growth step. */
    int grow_after_clean = 6;
};

/**
 * Closes the loop between receiver delivery feedback and the
 * encoder's GOP length. Sustained loss shortens the GOP (bounding
 * how many P frames one lost I frame can invalidate); a clean
 * channel grows it back toward max_gop_size for compression ratio.
 * Deterministic: state depends only on the feedback sequence.
 *
 * Thread-safe: the EWMA state is mutex-guarded so delivery feedback
 * may arrive from a receiver thread while the encode loop polls
 * gopSize(). Feedback ordering across threads is the caller's
 * concern.
 */
class AdaptiveGopController
{
  public:
    AdaptiveGopController(AdaptiveGopConfig config,
                          int initial_gop_size);

    /** Records one frame's delivery outcome (post-retransmission). */
    void onFrameDelivery(bool delivered);

    int
    gopSize() const
    {
        MutexLock lock(mutex_);
        return gop_size_;
    }
    double
    estimatedLoss() const
    {
        MutexLock lock(mutex_);
        return ewma_loss_;
    }

  private:
    AdaptiveGopConfig config_;
    mutable Mutex mutex_;
    int gop_size_ EDGEPCC_GUARDED_BY(mutex_);
    double ewma_loss_ EDGEPCC_GUARDED_BY(mutex_) = 0.0;
    int clean_streak_ EDGEPCC_GUARDED_BY(mutex_) = 0;
};

}  // namespace edgepcc

#endif  // EDGEPCC_STREAM_RATE_CONTROLLER_H
