#include "workloads.h"

#include <map>

#include "metric_names.h"

namespace perfbench {

void
zeroPerLayer(Result &result)
{
    for (const MetricName &metric : kPerLayer)
        result.set(metric.name, 0.0, metric.unit);
}

void
codecLayerMetrics(const SpanLog &log, Result &result)
{
    static constexpr const char *kLayers[] = {
        "morton.order",           "parallel.radix_sort",
        "octree.build",           "octree.geometry_encode",
        "octree.geometry_decode", "attr.segment_encode",
        "attr.segment_decode",    "interframe.match_encode",
        "interframe.decode",
    };
    for (const char *layer : kLayers)
        result.set(std::string(layer) + "_ms", median(log.durations(layer)),
                   "ms");

    // Remainders: each codec call minus the layer calls it is made
    // of. Sub-calls of encodeGeometry (Morton order, sort, octree
    // build) are inside it, so only the top-level layers subtract.
    struct Call {
        double encode = 0.0, decode = 0.0;
        double encode_layers = 0.0, decode_layers = 0.0;
        bool has_encode = false, has_decode = false;
    };
    std::map<std::uint32_t, Call> calls;
    for (const SpanLog::Span &span : log.spans()) {
        const std::string name = span.name;
        if (name == "core.encode") {
            calls[span.frame].encode = span.durMs();
            calls[span.frame].has_encode = true;
        } else if (name == "core.decode") {
            calls[span.frame].decode = span.durMs();
            calls[span.frame].has_decode = true;
        } else if (name == "octree.geometry_encode" ||
                   name == "attr.segment_encode" ||
                   name == "interframe.match_encode") {
            calls[span.frame].encode_layers += span.durMs();
        } else if (name == "octree.geometry_decode" ||
                   name == "attr.segment_decode" ||
                   name == "interframe.decode") {
            calls[span.frame].decode_layers += span.durMs();
        }
    }
    std::vector<double> encode_rest, decode_rest;
    for (const auto &[frame, call] : calls) {
        if (call.has_encode)
            encode_rest.push_back(call.encode - call.encode_layers);
        if (call.has_decode)
            decode_rest.push_back(call.decode - call.decode_layers);
    }
    result.set("core.encode_unattributed_ms", median(encode_rest), "ms");
    result.set("core.decode_unattributed_ms", median(decode_rest), "ms");

    // Mean self time per layer and frame: these add up to the mean
    // traced encode + decode exactly.
    const auto meanOf = [&](const char *name) {
        const std::vector<double> d = log.durations(name);
        double sum = 0.0;
        for (double v : d)
            sum += v;
        return encode_rest.empty()
                   ? 0.0
                   : sum / static_cast<double>(encode_rest.size());
    };
    const double morton = meanOf("morton.order");
    const double radix = meanOf("parallel.radix_sort");
    const double build = meanOf("octree.build");
    const double geometry = meanOf("octree.geometry_encode");
    std::map<std::string, double> self = {
        {"parallel.radix_sort", radix},
        {"morton.order", morton - radix},
        {"octree.build", build},
        {"octree.geometry_encode", geometry - morton - build},
        {"attr.segment_encode", meanOf("attr.segment_encode")},
        {"interframe.match_encode", meanOf("interframe.match_encode")},
        {"core.encode_unattributed",
         meanOf("core.encode") - geometry - meanOf("attr.segment_encode") -
             meanOf("interframe.match_encode")},
        {"octree.geometry_decode", meanOf("octree.geometry_decode")},
        {"attr.segment_decode", meanOf("attr.segment_decode")},
        {"interframe.decode", meanOf("interframe.decode")},
        {"core.decode_unattributed",
         meanOf("core.decode") - meanOf("octree.geometry_decode") -
             meanOf("attr.segment_decode") - meanOf("interframe.decode")},
    };
    double total = 0.0;
    for (const auto &[name, ms] : self) {
        result.diagnostics["self_ms." + name] = ms;
        total += ms;
    }
    result.diagnostics["self_ms.total"] = total;
}

void
transportLayerMetrics(const SpanLog &log, Result &result)
{
    for (const char *layer :
         {"stream.slice", "stream.parity", "stream.serialize",
          "stream.scan", "stream.recover", "stream.assemble"})
        result.set(std::string(layer) + "_ms", median(log.durations(layer)),
                   "ms");
}

void
sequenceMetrics(const SequenceTotals &totals, Result &result)
{
    double tail_percentile = 0.0;
    result.set("core.encode_ms_p50", median(totals.encode_ms), "ms");
    result.set("core.encode_ms_tail",
               tailValue(totals.encode_ms, kTailBeyond, &tail_percentile),
               "ms");
    result.diagnostics["encode_tail_percentile"] = tail_percentile;
    result.set("core.decode_ms_p50", median(totals.decode_ms), "ms");
    result.set("core.heap_allocs_per_frame", mean(totals.allocs), "count");
    result.set("platform.model_encode_ms_p50", median(totals.model_ms),
               "model_ms");
    result.set("interframe.reuse_fraction",
               totals.matched_blocks == 0
                   ? 0.0
                   : static_cast<double>(totals.reused_blocks) /
                         static_cast<double>(totals.matched_blocks),
               "1");
}

void
loopMetrics(const std::vector<double> &generate_ms,
            const std::vector<double> &untraced_ms,
            const std::vector<double> &traced_ms, Result &result)
{
    result.set("dataset.generate_ms", median(generate_ms), "ms");
    result.set("trace.overhead_fraction",
               mean(traced_ms) / mean(untraced_ms) - 1.0, "1");
    result.set("loop.drift_ratio", driftRatio(untraced_ms), "1");
    result.set("loop.failed_fraction",
               static_cast<double>(result.failed) /
                   static_cast<double>(result.attempted),
               "1");
}

}  // namespace perfbench
