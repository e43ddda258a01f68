/**
 * @file
 * Shared plumbing of the perfbench binary: the wall clock, the span
 * log of a traced run, order statistics, content digests, the heap
 * allocation counter and the result record every workload fills.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/geometry/point_cloud.h"

namespace perfbench {

/** Milliseconds on a monotonic clock (std::chrono::steady_clock). */
double nowMs();

/** Heap allocations made through operator new since process start
 *  (counted by the replacements in alloc_counter.cpp). */
std::uint64_t heapAllocations();

/** Restarts the live-heap high-water mark at the current live size. */
void resetHeapPeak();
/** Highest live heap (operator new) since the last resetHeapPeak(),
 *  MiB. */
double heapPeakMb();

/** Peak resident set of the process, MiB. */
double peakRssMb();

/**
 * In-memory span log of a traced run. A span has a name, a start and
 * end on the nowMs() clock, the index of the span that caused it
 * (-1 for a root) and the frame it belongs to. Spans are written out
 * once, when the run ends.
 */
class SpanLog
{
  public:
    struct Span {
        const char *name = "";
        double start_ms = 0.0;
        double end_ms = 0.0;
        int parent = -1;
        std::uint32_t frame = 0;

        double durMs() const { return end_ms - start_ms; }
    };

    /** Opens a span now; returns its index. `name` must be a string
     *  literal. */
    int open(const char *name, int parent, std::uint32_t frame);
    /** Closes span `index` now; returns its duration in ms. */
    double close(int index);
    /** Records a span whose times were already taken; returns its
     *  index. */
    int add(const char *name, double start_ms, double end_ms, int parent,
            std::uint32_t frame);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ms) of every span named `name`, in log order. */
    std::vector<double> durations(const std::string &name) const;

    /** Writes the spans as JSON; false when the file cannot be
     *  written. */
    bool writeJson(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** Median of `values`; 0 when empty. */
double median(std::vector<double> values);
/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &values);

/** Samples a reported tail percentile leaves above it. */
inline constexpr std::size_t kTailBeyond = 10;

/**
 * The highest percentile of `values` that leaves at least `beyond`
 * samples above it (nearest rank). `percentile` receives the
 * percentile used; with too few samples it falls back to the median.
 */
double tailValue(std::vector<double> values, std::size_t beyond,
                 double *percentile);

/** Median of the last quarter of `values` over the median of the
 *  first quarter (1.0 when fewer than 8 samples). */
double driftRatio(const std::vector<double> &values);

/** 64-bit FNV-1a digest of a byte range, chained through `seed`. */
std::uint64_t digestBytes(const void *data, std::size_t size,
                          std::uint64_t seed = 0xcbf29ce484222325ull);
/** Digest of every coordinate and color of a cloud, in order. */
std::uint64_t digestCloud(const edgepcc::VoxelCloud &cloud);
/** Lower-case hex rendering of a digest. */
std::string hexDigest(std::uint64_t digest);

/** True when `decoded` holds exactly the voxel positions of
 *  `input` (as a set; order and colors are ignored). */
bool sameVoxelSet(const edgepcc::VoxelCloud &input,
                  const edgepcc::VoxelCloud &decoded);

/**
 * Generates frames [0, count) of `video` on `workers` threads (the
 * generator is serial and const). `generate_ms` receives each
 * frame's generation time.
 */
void generateFrames(const edgepcc::SyntheticHumanVideo &video, int count,
                    std::size_t workers,
                    std::vector<edgepcc::VoxelCloud> *frames,
                    std::vector<double> *generate_ms);

/** One metric as printed: value with its unit. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

/** Everything one invocation measured and checked. */
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed correctness checks, one line each. */
    std::vector<std::string> check_failures;
    /** Printed metrics: end-to-end (untraced run) or per-layer
     *  (traced run). */
    std::map<std::string, Metric> metrics;
    /** Diagnostics that are not metrics (drift, sample counts,
     *  digests, tail percentile). */
    std::map<std::string, double> diagnostics;
    /** Output digests (hex), for comparing runs of one seed. */
    std::map<std::string, std::string> digests;
    /** Spans of the traced phase. */
    SpanLog spans;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            check_failures.push_back(what);
    }
    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
    bool
    correct() const
    {
        return check_failures.empty() && failed == 0;
    }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
