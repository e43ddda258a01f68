#include "edgepcc/common/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>
#include <ostream>

namespace edgepcc {

namespace {

/** Fixed origin so event timestamps stay small and positive. */
std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

std::atomic<std::uint32_t> next_thread_id{0};

/** JSON string escape for span names (quotes, backslash, control). */
void
writeJsonString(std::ostream &out, const char *text)
{
    out << '"';
    for (const char *p = text; *p != '\0'; ++p) {
        const char c = *p;
        if (c == '"' || c == '\\') {
            out << '\\' << c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
                << "0123456789abcdef"[c & 0xf];
        } else {
            out << c;
        }
    }
    out << '"';
}

}  // namespace

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

double
Tracer::nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - traceEpoch())
        .count();
}

std::uint32_t
Tracer::currentThreadId()
{
    thread_local const std::uint32_t id =
        next_thread_id.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
Tracer::record(const char *name, double start_s, double dur_s)
{
    TraceEvent event;
    event.name = name;
    event.start_s = start_s;
    event.dur_s = dur_s;
    event.tid = currentThreadId();
    MutexLock lock(mutex_);
    // Runs from ~ScopedTrace, where a throw would terminate: under
    // memory pressure the span is dropped and counted instead.
    try {
        events_.push_back(event);
    } catch (const std::bad_alloc &) {
        ++dropped_;
    }
}

std::vector<TraceEvent>
Tracer::events() const
{
    MutexLock lock(mutex_);
    return events_;
}

void
Tracer::clear()
{
    MutexLock lock(mutex_);
    std::vector<TraceEvent>().swap(events_);
    dropped_ = 0;
}

std::size_t
Tracer::eventCount() const
{
    MutexLock lock(mutex_);
    return events_.size();
}

std::size_t
Tracer::droppedEvents() const
{
    MutexLock lock(mutex_);
    return dropped_;
}

void
writeChromeTrace(const std::vector<TraceEvent> &events,
                 std::ostream &out)
{
    // Complete ("ph":"X") events with microsecond timestamps, the
    // format chrome://tracing and Perfetto ingest directly.
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &event : events) {
        if (!first)
            out << ',';
        first = false;
        out << "{\"name\":";
        writeJsonString(out, event.name);
        out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << event.tid
            << ",\"ts\":" << event.start_s * 1e6
            << ",\"dur\":" << event.dur_s * 1e6 << '}';
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
}

PercentileStats
computePercentiles(std::vector<double> samples)
{
    PercentileStats stats;
    if (samples.empty())
        return stats;
    std::sort(samples.begin(), samples.end());
    stats.count = samples.size();
    for (const double sample : samples)
        stats.total += sample;
    stats.mean = stats.total / static_cast<double>(stats.count);
    stats.max = samples.back();
    const auto at_quantile = [&](double q) {
        // Nearest-rank on the sorted samples.
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        const std::size_t index = rank == 0 ? 0 : rank - 1;
        return samples[std::min(index, samples.size() - 1)];
    };
    stats.p50 = at_quantile(0.50);
    stats.p95 = at_quantile(0.95);
    stats.p99 = at_quantile(0.99);
    return stats;
}

void
StageStatsAggregator::addStageLocked(const std::string &name,
                                     double host_s, double model_s,
                                     std::uint64_t ops,
                                     std::uint64_t bytes)
{
    auto it = stages_.find(name);
    if (it == stages_.end()) {
        it = stages_.emplace(name, Accum{}).first;
        order_.push_back(name);
    }
    Accum &accum = it->second;
    accum.host_samples.push_back(host_s);
    if (model_s >= 0.0)
        accum.model_samples.push_back(model_s);
    accum.ops += ops;
    accum.bytes += bytes;
}

void
StageStatsAggregator::addStage(const std::string &name, double host_s,
                               double model_s, std::uint64_t ops,
                               std::uint64_t bytes)
{
    MutexLock lock(mutex_);
    addStageLocked(name, host_s, model_s, ops, bytes);
}

void
StageStatsAggregator::addProfile(const PipelineProfile &profile)
{
    // One lock for the whole frame so its stages land adjacently
    // even when several sessions aggregate concurrently.
    MutexLock lock(mutex_);
    for (const StageProfile &stage : profile.stages) {
        addStageLocked(stage.name, stage.host_seconds, -1.0,
                       stage.totalOps(), stage.totalBytes());
    }
}

std::vector<StageStatsAggregator::StageSummary>
StageStatsAggregator::summaries() const
{
    MutexLock lock(mutex_);
    std::vector<StageSummary> out;
    out.reserve(order_.size());
    for (const std::string &name : order_) {
        const Accum &accum = stages_.at(name);
        StageSummary summary;
        summary.name = name;
        summary.frames = accum.host_samples.size();
        summary.host_s = computePercentiles(accum.host_samples);
        summary.model_s = computePercentiles(accum.model_samples);
        summary.total_ops = accum.ops;
        summary.total_bytes = accum.bytes;
        out.push_back(std::move(summary));
    }
    return out;
}

}  // namespace edgepcc
