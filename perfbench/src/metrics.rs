//! The metric catalogue: every name the benchmark can report, with its
//! unit. `BENCHMARK.json` lists the same names (a test keeps the two in
//! step), and every run reports the whole catalogue of its mode, so each
//! workload's result has the same keys.

use crate::report::Outcome;

/// The five kernel operations `kernels_lib` calls.
pub const OPS: [&str; 5] = ["spmv", "spmm", "spgemm", "mttkrp", "spttm"];

/// Metric-name tags of the 9 matrix formats, in `kernels_lib` order.
pub const MATRIX_FORMATS: [&str; 9] = [
    "dense", "coo", "csr", "csc", "bsr", "dia", "ell", "rlc", "zvc",
];

/// Metric-name tags of the 6 tensor formats, in `kernels_lib` order.
pub const TENSOR_FORMATS: [&str; 6] = ["dense3", "coo3", "csf", "hicoo", "rlc3", "zvc3"];

/// End-to-end metrics: what a user of the library sees, with a bound in
/// `BENCHMARK.json`. The 99th-percentile latency is user-facing too, but
/// on a 2-core virtual host the hypervisor's stalls alone moved it by more
/// than half its median between runs, more than any bound can absorb; it
/// is reported as the first per-layer metric instead.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("success_share", "share"),
    ("modeled_cycles", "cycles"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics measured on the serving workloads.
pub const SERVE_LAYERS: [(&str, &str); 26] = [
    ("accel.simulate_us_p50", "us"),
    ("accel.host_ns_per_modeled_cycle", "ns/cycle"),
    ("mint.convert_us_p50", "us"),
    ("mint.conversion_cycles", "cycles"),
    ("formats.encode_us_p50", "us"),
    ("formats.tile_us_p50", "us"),
    ("planner.execute_us_p50", "us"),
    ("planner.execute_us_p99", "us"),
    ("planner.execute_unattributed_share", "share"),
    ("planner.lookup_us_p50", "us"),
    ("planner.schedule_us_p50", "us"),
    ("planner.cache_hit_share", "share"),
    ("planner.searches_per_key", "count"),
    ("planner.cache_evictions", "count"),
    ("planner.dataflows", "count"),
    ("planner.format_pairs", "count"),
    ("sage.recommend_us_p50", "us"),
    ("wire.decode_job_us_p50", "us"),
    ("wire.encode_result_us_p50", "us"),
    ("wire.job_bytes_per_nnz", "B"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.steal_share", "share"),
    ("service.gen_lag_us_p99", "us"),
    ("service.poll_us_p50", "us"),
    ("trace.overhead_share", "share"),
];

/// Name of the per-operation kernel latency metric.
pub fn kernel_metric(op: &str, size: &str) -> String {
    format!("kernels.{op}.{size}_us_p50")
}

/// Name of the per-format traversal metric.
pub fn traverse_metric(format: &str) -> String {
    format!("formats.traverse_ns_per_nnz.{format}")
}

/// Per-layer metrics, in report order: the 99th-percentile latency, the
/// serving layers, then the kernel and traversal metrics of `kernels_lib`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = std::iter::once(&("latency_p99_us", "us"))
        .chain(&SERVE_LAYERS)
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for op in OPS {
        for size in ["small", "large"] {
            v.push((kernel_metric(op, size), "us"));
        }
    }
    v.push(("kernels.madds_per_s".to_string(), "1/s"));
    for f in MATRIX_FORMATS.iter().chain(&TENSOR_FORMATS) {
        v.push((traverse_metric(f), "ns"));
    }
    v
}

/// Report the catalogue of one mode into `out`, taking each value from
/// `values` by name. A name the workload does not measure reports 0: that
/// layer is not exercised by the workload. Panics on a value whose name
/// is not in the catalogue, so a run cannot emit an unlisted metric.
pub fn emit(out: &mut Outcome, traced: bool, values: &[(String, f64, &str)]) {
    let catalogue: Vec<(String, &'static str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, _, _) in values {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
    }
    for (name, unit) in catalogue {
        match values.iter().find(|(n, _, _)| *n == name) {
            Some((_, v, note)) => out.push_noted(name, *v, unit, note),
            None => out.push_noted(name, 0.0, unit, "not exercised by this workload"),
        }
    }
}
