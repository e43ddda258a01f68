/**
 * @file
 * Lightweight scoped-span tracing and cross-frame stage statistics.
 *
 * Two layers of observability exist in EdgePCC:
 *  - WorkRecorder/StageProfile (work_counters.h) records *what a
 *    stage did* (kernels, ops, bytes) for the edge device model;
 *  - the Tracer here records *when spans ran* on the host, across
 *    threads, for timeline inspection and overhead-free production
 *    builds: with tracing disabled a span costs one relaxed atomic
 *    load.
 *
 * Span streams export to the chrome://tracing "traceEvents" JSON
 * format (load in chrome://tracing or https://ui.perfetto.dev), and
 * StageStatsAggregator folds per-stage samples collected over many
 * frames into p50/p95/max percentiles for BENCH_results.json (see
 * tools/bench_runner and docs/OBSERVABILITY.md for the schemas).
 */

#ifndef EDGEPCC_COMMON_TRACE_H
#define EDGEPCC_COMMON_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "edgepcc/common/sync.h"
#include "edgepcc/common/work_counters.h"

namespace edgepcc {

/**
 * One completed span. `name` must outlive the tracer; every call
 * site passes a string literal, which makes recording allocation
 * free.
 */
struct TraceEvent {
    const char *name = "";
    double start_s = 0.0;  ///< seconds on the process trace clock
    double dur_s = 0.0;
    std::uint32_t tid = 0;  ///< dense per-process thread id
};

/**
 * Process-wide span collector.
 *
 * Disabled by default. All methods are thread-safe; recording takes
 * one short mutex-protected append (spans are stage-grained — tens
 * per frame — so contention is negligible, and the mutex keeps the
 * collector trivially TSan-clean).
 */
class Tracer
{
  public:
    static Tracer &global();

    void
    setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Span verbosity. Level 0 (default) records only stage-grained
     * spans; level >= kVerbosityKernel additionally records
     * per-kernel spans (Morton batches, radix passes, GF(256)
     * parity rows, ...), which are far more numerous — keep them
     * off unless inspecting a kernel timeline. Spans opt in by
     * passing their level to ScopedTrace; the check costs one extra
     * relaxed load only while tracing is enabled.
     */
    void
    setVerbosity(int level)
    {
        verbosity_.store(level, std::memory_order_relaxed);
    }
    int
    verbosity() const
    {
        return verbosity_.load(std::memory_order_relaxed);
    }

    /** Verbosity level at which per-kernel spans record. */
    static constexpr int kVerbosityKernel = 1;

    /** Seconds on the tracer's monotonic clock. */
    static double nowSeconds();

    /** Appends one completed span (callers use ScopedTrace). Never
     *  throws: a span whose append fails to allocate is dropped and
     *  counted in droppedEvents(). */
    void record(const char *name, double start_s, double dur_s);

    /** Copies out all recorded events, in recording order. */
    std::vector<TraceEvent> events() const;

    /** Removes every recorded event, releases their storage and
     *  zeroes droppedEvents(). */
    void clear();

    /** Events recorded so far. */
    std::size_t eventCount() const;

    /** Spans dropped since the last clear() because recording them
     *  failed to allocate. */
    std::size_t droppedEvents() const;

    /** Dense id of the calling thread (0 = first thread seen). */
    static std::uint32_t currentThreadId();

  private:
    Tracer() = default;

    mutable Mutex mutex_;
    std::vector<TraceEvent> events_ EDGEPCC_GUARDED_BY(mutex_);
    std::size_t dropped_ EDGEPCC_GUARDED_BY(mutex_) = 0;
    std::atomic<bool> enabled_{false};
    std::atomic<int> verbosity_{0};
};

/**
 * RAII span: records [construction, destruction) into the global
 * tracer when tracing is enabled. `name` must be a string literal
 * (or otherwise outlive the tracer).
 */
class ScopedTrace
{
  public:
    /** `min_verbosity > 0` makes the span conditional on the
     *  tracer's verbosity knob (per-kernel spans pass
     *  Tracer::kVerbosityKernel); stage spans use the default. */
    explicit ScopedTrace(const char *name, int min_verbosity = 0)
    {
        if (Tracer::global().enabled() &&
            Tracer::global().verbosity() >= min_verbosity) {
            name_ = name;
            start_s_ = Tracer::nowSeconds();
        }
    }
    ~ScopedTrace() { stop(); }

    /** Ends the span early (idempotent; destruction is a no-op
     *  afterwards). */
    void
    stop()
    {
        if (name_ != nullptr) {
            Tracer::global().record(
                name_, start_s_, Tracer::nowSeconds() - start_s_);
            name_ = nullptr;
        }
    }

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

  private:
    const char *name_ = nullptr;  ///< null = tracing was disabled
    double start_s_ = 0.0;
};

/**
 * Combined hook for the hot paths: one scope both opens a
 * WorkRecorder stage (device model) and a trace span (host
 * timeline). Either side may be absent (null recorder / tracing
 * disabled) at no cost to the other.
 */
class TracedStage
{
  public:
    TracedStage(WorkRecorder *recorder, const char *name)
        : stage_(recorder, name), trace_(name)
    {
    }

  private:
    ScopedStage stage_;
    ScopedTrace trace_;
};

/** Writes events as a chrome://tracing JSON document. */
void writeChromeTrace(const std::vector<TraceEvent> &events,
                      std::ostream &out);

/** Percentile summary of a sample set. */
struct PercentileStats {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    double total = 0.0;
};

/** Summarizes `samples` (order irrelevant; empty -> zeros). */
PercentileStats computePercentiles(std::vector<double> samples);

/**
 * Folds per-stage metrics across frames into percentile summaries.
 *
 * Feed it one addProfile() (or addStage()) call per encoded/decoded
 * frame; modelled Jetson seconds are supplied by the caller because
 * the device model lives above this module (src/platform).
 *
 * Thread-safe: concurrent sessions may feed one aggregator (the
 * multi-tenant bench does); samples interleave but per-stage
 * accumulation is race-free. First-seen stage order then depends on
 * the interleaving — aggregate from one thread when a stable order
 * matters.
 */
class StageStatsAggregator
{
  public:
    struct StageSummary {
        std::string name;
        std::size_t frames = 0;          ///< samples seen
        PercentileStats host_s;          ///< measured host seconds
        PercentileStats model_s;         ///< modelled Jetson seconds
        std::uint64_t total_ops = 0;
        std::uint64_t total_bytes = 0;
    };

    StageStatsAggregator() = default;

    /** Movable so result structs can carry one by value. Locks the
     *  source; the destination is under construction and private. */
    StageStatsAggregator(StageStatsAggregator &&other) noexcept
    {
        MutexLock lock(other.mutex_);
        stages_ = std::move(other.stages_);
        order_ = std::move(other.order_);
    }
    StageStatsAggregator &
    operator=(StageStatsAggregator &&) = delete;

    /** Adds one stage sample. model_s < 0 means "not modelled". */
    void addStage(const std::string &name, double host_s,
                  double model_s, std::uint64_t ops,
                  std::uint64_t bytes);

    /** Adds every stage of one recorded frame profile. */
    void addProfile(const PipelineProfile &profile);

    /** Summaries in first-seen stage order. */
    std::vector<StageSummary> summaries() const;

    bool
    empty() const
    {
        MutexLock lock(mutex_);
        return stages_.empty();
    }

  private:
    struct Accum {
        std::vector<double> host_samples;
        std::vector<double> model_samples;
        std::uint64_t ops = 0;
        std::uint64_t bytes = 0;
    };

    void addStageLocked(const std::string &name, double host_s,
                        double model_s, std::uint64_t ops,
                        std::uint64_t bytes)
        EDGEPCC_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::map<std::string, Accum> stages_
        EDGEPCC_GUARDED_BY(mutex_);
    /** First-seen insertion order. */
    std::vector<std::string> order_ EDGEPCC_GUARDED_BY(mutex_);
};

}  // namespace edgepcc

#endif  // EDGEPCC_COMMON_TRACE_H
