/**
 * @file
 * The benchmark's workloads. Each one generates its inputs from the
 * seed, sets up several times (setup_s is the median), runs a closed
 * loop for the requested seconds, checks its outputs, and fills a
 * Result with the end-to-end metrics (untraced run) or the
 * per-layer metrics (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "replay.h"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: half the time untraced, half with spans and
     *  replays; prints the per-layer metrics. */
    bool trace = false;
    /** Small frames and short streams, for testing the benchmark. */
    bool tiny = false;
    /** Flip one bitstream byte before it is checked; the run must
     *  then report a failed check. */
    bool corrupt = false;
    /** Worker threads of the global pool: min(nproc, 4). */
    std::size_t threads = 4;
    /** Where span logs are written (traced runs). */
    std::string out_dir = ".bench_out";
};

/** Set-up repetitions per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 3;

/** paper-v1 (`inter` true) and paper-intra. */
Result runPaper(const Options &options, bool inter);
/** lossy-stream. */
Result runLossyStream(const Options &options);
/** serve-fleet. */
Result runServeFleet(const Options &options);

/** Adds every per-layer metric with value 0, so a workload that
 *  never calls a layer still prints all of them; the workload then
 *  overwrites the ones it measures. */
void zeroPerLayer(Result &result);

/** Per-layer metrics that summarize a traced codec replay: the
 *  medians of each layer span and the core.*_unattributed_ms
 *  remainders (encode/decode span minus its replayed layers). */
void codecLayerMetrics(const SpanLog &log, Result &result);

/** Per-layer metrics of the transport replays: the median of each
 *  stream.* stage span. */
void transportLayerMetrics(const SpanLog &log, Result &result);

/** Per-layer metrics of the codec calls replaySequence() made. */
void sequenceMetrics(const SequenceTotals &totals, Result &result);

/** The loop's own per-layer metrics: frame generation time, tracing
 *  overhead (mean traced over mean untraced loop unit), drift and
 *  failed fraction. */
void loopMetrics(const std::vector<double> &generate_ms,
                 const std::vector<double> &untraced_ms,
                 const std::vector<double> &traced_ms, Result &result);

/**
 * Sets up kSetupRepeats times with `make`, releasing each set-up
 * before the next starts, and returns the last. `setup_ms` receives
 * each set-up's duration, `generate_ms` every frame's generation
 * time. Returns null, with the failure recorded in `result`, when a
 * set-up reports an error.
 */
template <typename Make>
auto
setUpRepeatedly(Make make, Result &result, std::vector<double> *setup_ms,
                std::vector<double> *generate_ms)
{
    decltype(make()) setup;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        setup.reset();
        const double t0 = nowMs();
        setup = make();
        setup_ms->push_back(nowMs() - t0);
        generate_ms->insert(generate_ms->end(), setup->generate_ms.begin(),
                            setup->generate_ms.end());
        if (!setup->error.empty()) {
            result.attempted = 1;
            result.failed = 1;
            result.check(false, setup->error);
            return decltype(make())();
        }
    }
    return setup;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
