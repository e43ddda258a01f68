/**
 * @file
 * perfbench: the EdgePCC benchmark binary.
 *
 *   perfbench --workload <paper-v1|paper-intra|lossy-stream|serve-fleet>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--tiny] [--corrupt] [--out-dir <dir>]
 *             [--commit <id>] [--source-digest <hex>]
 *
 * Prints one line per metric ("metric <name> <value> <unit>"), the
 * run environment and diagnostics, writes the full result (and, for
 * a traced run, the span log) under --out-dir, and ends with one
 * JSON line {"correct", "attempted", "failed", "metrics"}. Exits 1
 * when a correctness check failed or an operation returned a
 * non-OK status, 2 on a usage error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <sys/stat.h>
#include <thread>

#include "edgepcc/platform/simd.h"
#include "metric_names.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Result;

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<paper-v1|paper-intra|lossy-stream|serve-fleet> "
                 "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
                 "[--corrupt] [--out-dir <dir>] "
                 "[--commit <id>] [--source-digest <hex>]\n",
                 message);
    return 2;
}

/** JSON string literal (the strings here are ASCII). */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
}

std::string
number(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
metricsJson(const Result &result)
{
    std::string out = "{";
    for (const auto &[name, metric] : result.metrics) {
        if (out.size() > 1)
            out += ", ";
        out += quoted(name) + ": {\"value\": " + number(metric.value) +
               ", \"unit\": " + quoted(metric.unit) + "}";
    }
    return out + "}";
}

template <typename Map, typename Render>
std::string
objectJson(const Map &map, Render render)
{
    std::string out = "{";
    for (const auto &[key, value] : map) {
        if (out.size() > 1)
            out += ", ";
        out += quoted(key) + ": " + render(value);
    }
    return out + "}";
}

}  // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    std::map<std::string, std::string> env;
    env["commit"] = "unknown";
    env["source_digest"] = "unknown";
    const unsigned nproc = std::thread::hardware_concurrency();
    options.threads = nproc == 0 ? 1 : (nproc < 4 ? nproc : 4);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--tiny") {
            options.tiny = true;
        } else if (arg == "--corrupt") {
            options.corrupt = true;
        } else if (!has_value) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            options.workload = argv[++i];
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            options.seconds = std::atof(argv[++i]);
            have_seconds = options.seconds > 0.0;
        } else if (arg == "--trace") {
            const std::string value = argv[++i];
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (arg == "--out-dir") {
            options.out_dir = argv[++i];
        } else if (arg == "--commit") {
            env["commit"] = argv[++i];
        } else if (arg == "--source-digest") {
            env["source_digest"] = argv[++i];
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds (> 0) and --trace "
                     "are required");

    Result result;
    if (options.workload == "paper-v1")
        result = perfbench::runPaper(options, true);
    else if (options.workload == "paper-intra")
        result = perfbench::runPaper(options, false);
    else if (options.workload == "lossy-stream")
        result = perfbench::runLossyStream(options);
    else if (options.workload == "serve-fleet")
        result = perfbench::runServeFleet(options);
    else
        return usage(("unknown workload " + options.workload).c_str());

    // Every metric of the run's list must be there, and finite.
    const auto require = [&](const auto &names) {
        for (const perfbench::MetricName &m : names) {
            const auto it = result.metrics.find(m.name);
            result.check(it != result.metrics.end() &&
                             it->second.unit == m.unit,
                         std::string("metric missing: ") + m.name);
        }
    };
    if (options.trace)
        require(perfbench::kPerLayer);
    else
        require(perfbench::kEndToEnd);
    for (auto &[name, metric] : result.metrics) {
        if (!std::isfinite(metric.value)) {
            result.check(false, "metric not finite: " + name);
            metric.value = 0.0;
        }
    }
    if (result.attempted == 0) {
        result.attempted = 1;
        result.check(false, "no operation was attempted");
    }

    env["workload"] = options.workload;
    env["seed"] = std::to_string(options.seed);
    env["seconds"] = number(options.seconds);
    env["trace"] = options.trace ? "1" : "0";
    env["scale"] = options.tiny ? "tiny" : "paper";
    env["nproc"] = std::to_string(nproc);
    env["pool_threads"] = std::to_string(options.threads);
    env["simd"] = edgepcc::simdLevelName(edgepcc::activeSimdLevel());
    env["compiler"] = __VERSION__;
    env["build_type"] = PERFBENCH_BUILD_TYPE;

    for (const auto &[name, metric] : result.metrics)
        std::printf("metric %-38s %.6f %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
    for (const auto &[name, value] : result.diagnostics)
        std::printf("diag   %-38s %.6f\n", name.c_str(), value);
    for (const std::string &failure : result.check_failures)
        std::printf("check  FAILED: %s\n", failure.c_str());
    const std::string env_json = objectJson(env, quoted);
    std::printf("env    %s\n", env_json.c_str());

    // Full record, and the spans of a traced run, for later study.
    mkdir(options.out_dir.c_str(), 0755);
    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             (options.trace ? "-trace" : "");
    if (std::FILE *file = std::fopen((stem + ".json").c_str(), "w")) {
        std::string failures = "[";
        for (const std::string &f : result.check_failures)
            failures += (failures.size() > 1 ? ", " : "") + quoted(f);
        std::fprintf(
            file,
            "{\"env\": %s,\n \"correct\": %s, \"attempted\": %llu, "
            "\"failed\": %llu,\n \"check_failures\": %s],\n"
            " \"metrics\": %s,\n \"diagnostics\": %s,\n"
            " \"digests\": %s}\n",
            env_json.c_str(), result.correct() ? "true" : "false",
            static_cast<unsigned long long>(result.attempted),
            static_cast<unsigned long long>(result.failed),
            failures.c_str(), metricsJson(result).c_str(),
            objectJson(result.diagnostics, number).c_str(),
            objectJson(result.digests, quoted).c_str());
        std::fclose(file);
    }
    if (options.trace && !result.spans.spans().empty())
        result.spans.writeJson(stem + "-spans.json");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.correct() ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metricsJson(result).c_str());
    std::fflush(stdout);
    return result.correct() ? 0 : 1;
}
