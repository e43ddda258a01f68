/**
 * @file
 * Loss-driven control of the GOP length for sessions without the
 * redundancy controller.
 *
 * The bitrate side of rate control (the paper's direct-reuse
 * threshold, Secs. V-B, VI-E) lives in RedundancyController, which
 * steers the threshold toward the post-parity payload budget.
 */

#ifndef EDGEPCC_STREAM_RATE_CONTROLLER_H
#define EDGEPCC_STREAM_RATE_CONTROLLER_H

#include "edgepcc/common/sync.h"

namespace edgepcc {

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
