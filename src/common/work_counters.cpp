#include "edgepcc/common/work_counters.h"

#include <algorithm>
#include <chrono>

namespace edgepcc {

const char *
execResourceName(ExecResource resource)
{
    switch (resource) {
      case ExecResource::kCpuSequential: return "cpu-seq";
      case ExecResource::kCpuParallel: return "cpu-par";
      case ExecResource::kGpu: return "gpu";
    }
    return "?";
}

std::uint64_t
StageProfile::totalOps() const
{
    std::uint64_t total = 0;
    for (const auto &kernel : kernels)
        total += kernel.ops;
    return total;
}

std::uint64_t
StageProfile::totalBytes() const
{
    std::uint64_t total = 0;
    for (const auto &kernel : kernels)
        total += kernel.bytes;
    return total;
}

double
PipelineProfile::hostSeconds() const
{
    double total = 0.0;
    for (const auto &stage : stages)
        total += stage.host_seconds;
    return total;
}

double
PipelineProfile::hostSecondsWithPrefix(const std::string &prefix) const
{
    double total = 0.0;
    for (const auto &stage : stages) {
        if (stage.name.rfind(prefix, 0) == 0)
            total += stage.host_seconds;
    }
    return total;
}

double
WorkRecorder::nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

void
WorkRecorder::beginStage(const std::string &name)
{
    if (stage_open_)
        endStage();
    // Grow here, not in endStage(): endStage() runs in ScopedStage's
    // destructor, where a bad_alloc would call std::terminate.
    if (profile_.stages.size() == profile_.stages.capacity())
        profile_.stages.reserve(
            std::max<std::size_t>(8, 2 * profile_.stages.capacity()));
    open_stage_ = StageProfile{};
    open_stage_.name = name;
    open_stage_start_ = nowSeconds();
    stage_open_ = true;
}

void
WorkRecorder::endStage()
{
    if (!stage_open_)
        return;
    open_stage_.host_seconds = nowSeconds() - open_stage_start_;
    profile_.stages.push_back(std::move(open_stage_));
    stage_open_ = false;
}

void
WorkRecorder::addKernel(KernelWork work)
{
    if (!stage_open_) {
        StageProfile stage;
        stage.name = work.name;
        stage.kernels.push_back(std::move(work));
        profile_.stages.push_back(std::move(stage));
        return;
    }
    open_stage_.kernels.push_back(std::move(work));
}

PipelineProfile
WorkRecorder::takeProfile()
{
    if (stage_open_)
        endStage();
    PipelineProfile out = std::move(profile_);
    profile_ = PipelineProfile{};
    return out;
}

void
WorkRecorder::clear()
{
    profile_ = PipelineProfile{};
    stage_open_ = false;
}

}  // namespace edgepcc
