/**
 * @file
 * The metric names and units the binary prints. BENCHMARK.json
 * lists the same names; the benchmark's self-test holds the two
 * lists equal.
 */

#ifndef PERFBENCH_METRIC_NAMES_H
#define PERFBENCH_METRIC_NAMES_H

namespace perfbench {

struct MetricName {
    const char *name;
    const char *unit;
};

/** Printed by an untraced run (--trace 0), on every workload. */
inline constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"frames_per_s", "1/s"},
    {"frame_ms_p50", "ms"},
    {"bytes_per_point", "B"},
    {"attr_psnr_db", "dB"},
    {"peak_heap_mb", "MiB"},
};

/** Printed by a traced run (--trace 1), on every workload. A layer
 *  the workload never calls reads 0. */
inline constexpr MetricName kPerLayer[] = {
    {"dataset.generate_ms", "ms"},
    {"morton.order_ms", "ms"},
    {"parallel.radix_sort_ms", "ms"},
    {"octree.build_ms", "ms"},
    {"octree.geometry_encode_ms", "ms"},
    {"octree.geometry_decode_ms", "ms"},
    {"attr.segment_encode_ms", "ms"},
    {"attr.segment_decode_ms", "ms"},
    {"interframe.match_encode_ms", "ms"},
    {"interframe.decode_ms", "ms"},
    {"interframe.reuse_fraction", "1"},
    {"core.encode_ms_p50", "ms"},
    {"core.encode_ms_tail", "ms"},
    {"core.decode_ms_p50", "ms"},
    {"core.encode_unattributed_ms", "ms"},
    {"core.decode_unattributed_ms", "ms"},
    {"core.heap_allocs_per_frame", "count"},
    {"stream.slice_ms", "ms"},
    {"stream.parity_ms", "ms"},
    {"stream.serialize_ms", "ms"},
    {"stream.scan_ms", "ms"},
    {"stream.recover_ms", "ms"},
    {"stream.assemble_ms", "ms"},
    {"stream.session_unattributed_ms", "ms"},
    {"stream.wire_bytes_per_frame", "B"},
    {"stream.retransmits", "count"},
    {"stream.parity_chunks", "count"},
    {"stream.fec_recovered_chunks", "count"},
    {"stream.frames_concealed", "count"},
    {"stream.frames_resynced", "count"},
    {"stream.frames_skipped", "count"},
    {"stream.keyframes_forced", "count"},
    {"stream.multi_loss_recovered_fraction", "1"},
    {"serve.run_ms", "ms"},
    {"serve.cache_hit_rate", "1"},
    {"serve.fairness_index", "1"},
    {"serve.failovers", "count"},
    {"serve.frames_shed", "count"},
    {"serve.checkpoints", "count"},
    {"serve.tenant_tail_model_ms", "model_ms"},
    {"platform.model_encode_ms_p50", "model_ms"},
    {"trace.overhead_fraction", "1"},
    {"loop.drift_ratio", "1"},
    {"loop.failed_fraction", "1"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRIC_NAMES_H
