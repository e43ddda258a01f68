#include "edgepcc/stream/rate_controller.h"

#include <algorithm>

namespace edgepcc {

AdaptiveGopController::AdaptiveGopController(
    AdaptiveGopConfig config, int initial_gop_size)
    : config_(config),
      gop_size_(std::clamp(initial_gop_size,
                           config.min_gop_size,
                           config.max_gop_size))
{
}

void
AdaptiveGopController::onFrameDelivery(bool delivered)
{
    MutexLock lock(mutex_);
    ewma_loss_ = (1.0 - config_.ewma_alpha) * ewma_loss_ +
                 config_.ewma_alpha * (delivered ? 0.0 : 1.0);
    if (!delivered) {
        clean_streak_ = 0;
        if (ewma_loss_ > config_.high_loss) {
            gop_size_ = std::max(config_.min_gop_size,
                                 gop_size_ / 2);
        }
        return;
    }
    ++clean_streak_;
    if (ewma_loss_ < config_.low_loss &&
        clean_streak_ >= config_.grow_after_clean &&
        gop_size_ < config_.max_gop_size) {
        ++gop_size_;
        clean_streak_ = 0;
    }
}

}  // namespace edgepcc
