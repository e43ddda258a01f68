#include "edgepcc/stream/rate_controller.h"

#include <algorithm>
#include <cmath>

namespace edgepcc {

ReuseRateController::ReuseRateController(RateControllerConfig config)
    : config_(config), threshold_(config.initial_threshold)
{
    threshold_ = std::clamp(threshold_, config_.min_threshold,
                            config_.max_threshold);
}

void
ReuseRateController::onFrame(Frame::Type type,
                             std::uint64_t encoded_bytes)
{
    ++frames_;
    if (type != Frame::Type::kPredicted)
        return;
    if (config_.target_bytes_per_frame == 0)
        return;

    // Multiplicative update: overshooting the budget raises the
    // threshold (more reuse, smaller frames), undershooting lowers
    // it (better quality). The log keeps the step symmetric in
    // ratio space.
    const double ratio =
        static_cast<double>(encoded_bytes) /
        static_cast<double>(config_.target_bytes_per_frame);
    const double step =
        std::exp(config_.gain * std::log(std::max(ratio, 1e-6)));
    threshold_ = std::clamp(threshold_ * step,
                            config_.min_threshold,
                            config_.max_threshold);
}

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
