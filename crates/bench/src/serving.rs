//! Serving exhibit — sustained multi-tenant throughput through
//! [`FlexService`].
//!
//! A fixed mixed-tenant job stream is pushed through the wire format
//! into a service at 1/2/4/8 workers; jobs/sec and p50/p95/p99
//! completion latency are wall-clock measurements (informational — CI
//! machines differ, so tests only assert they are positive and
//! ordered). Rendered into `results/serving.csv` and the
//! `results/BENCH_serving.json` snapshot CI uploads.

use crate::pipeline::bench_system;
use sparseflex_core::StoredTrace;
use sparseflex_formats::{DataType, MatrixData, MatrixFormat};
use sparseflex_serve::{wire, FlexService, JobTicket, Priority, ServeConfig, WireJob};
use sparseflex_workloads::synth::random_matrix;
use std::time::Instant;

/// Worker-pool sizes the throughput sweep covers.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Throughput and latency at one worker-pool size.
#[derive(Debug, Clone)]
pub struct WorkerPoint {
    /// Worker threads (virtual accelerator instances).
    pub workers: usize,
    /// Jobs completed per wall-clock second (measured).
    pub jobs_per_sec: f64,
    /// Median submit→completion latency, milliseconds (measured).
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds (measured).
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds (measured).
    pub p99_ms: f64,
    /// Plan-cache hits during the stream.
    pub cache_hits: u64,
    /// Plan-cache misses during the stream.
    pub cache_misses: u64,
}

/// One full measurement of the serving exhibit.
#[derive(Debug, Clone)]
pub struct ServingMeasurement {
    /// Jobs in the stream each worker-pool size serves.
    pub job_count: usize,
    /// Distinct tenants submitting.
    pub tenants: usize,
    /// Distinct workload shapes (the plan cache's working set).
    pub shapes: usize,
    /// Traces replayed into the calibrator before traffic (0 without
    /// `--warm-start`).
    pub warm_traces: usize,
    /// The throughput sweep over [`WORKER_SWEEP`].
    pub throughput: Vec<WorkerPoint>,
}

/// The mixed-tenant job stream: `count` jobs cycling over a small set
/// of shapes (so the plan cache sees repeats), three tenants with
/// different weights, and a mix of priorities — submitted as wire
/// frames.
fn job_stream(count: usize) -> Vec<Vec<u8>> {
    let shapes = [
        (16usize, 20usize, 12usize, 80usize, 70usize),
        (24, 16, 20, 90, 95),
        (12, 28, 16, 70, 110),
        (20, 20, 20, 120, 120),
        (28, 12, 24, 100, 60),
        (16, 16, 28, 60, 85),
    ];
    (0..count)
        .map(|i| {
            let (m, k, n, nnz_a, nnz_b) = shapes[i % shapes.len()];
            let a = random_matrix(m, k, nnz_a, 1_000 + (i % shapes.len()) as u64);
            let b = random_matrix(k, n, nnz_b, 2_000 + (i % shapes.len()) as u64);
            let job = WireJob {
                tenant: (i % 3) as u32 + 1,
                priority: match i % 5 {
                    0 => Priority::High,
                    4 => Priority::Low,
                    _ => Priority::Normal,
                },
                dtype: DataType::Fp32,
                a: MatrixData::encode(&a, &MatrixFormat::Csr).expect("encode A"),
                b: MatrixData::encode(&b, &MatrixFormat::Coo).expect("encode B"),
            };
            wire::encode_job(&job).expect("encode job frame")
        })
        .collect()
}

/// Serve the stream once at the given pool size and measure it.
fn serve_once(frames: &[Vec<u8>], workers: usize, warm: Option<&[StoredTrace]>) -> WorkerPoint {
    let service = FlexService::start(
        bench_system(),
        ServeConfig {
            workers,
            queue_capacity: frames.len() + 16,
            tenant_inflight_cap: frames.len() + 16,
            start_paused: true,
        },
    )
    .expect("service starts");
    if let Some(traces) = warm {
        service.warm_start(traces);
    }
    service.register_tenant(1, 1);
    service.register_tenant(2, 2);
    service.register_tenant(3, 4);
    let tickets: Vec<JobTicket> = frames
        .iter()
        .map(|f| service.submit_frame(f).expect("stream fits the queue"))
        .collect();
    let t0 = Instant::now();
    service.resume();
    // Completion instants observed in submission order: a later wait
    // returning immediately means the job finished while we blocked on
    // an earlier one, so each observation upper-bounds that job's true
    // completion time (exact for the last).
    let mut latencies_ms: Vec<f64> = tickets
        .into_iter()
        .map(|t| {
            t.wait().expect("job completes");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();
    latencies_ms.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize];
    let stats = service.stats();
    WorkerPoint {
        workers,
        jobs_per_sec: frames.len() as f64 / elapsed,
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        p99_ms: pct(0.99),
        cache_hits: stats.cache.hits,
        cache_misses: stats.cache.misses,
    }
}

/// Measure the whole exhibit once (no warm start).
pub fn measure() -> ServingMeasurement {
    measure_with(None)
}

/// Measure with the calibrator optionally warm-started from stored
/// traces before traffic (the `--warm-start` path of `run_all`).
pub fn measure_with(warm: Option<&[StoredTrace]>) -> ServingMeasurement {
    let frames = job_stream(48);
    let throughput = WORKER_SWEEP
        .iter()
        .map(|&workers| serve_once(&frames, workers, warm))
        .collect();
    ServingMeasurement {
        job_count: frames.len(),
        tenants: 3,
        shapes: 6,
        warm_traces: warm.map_or(0, <[StoredTrace]>::len),
        throughput,
    }
}

/// CSV rows (the `results/serving.csv` exhibit).
pub fn rows() -> Vec<String> {
    rows_from(&measure())
}

/// Render a measurement as the CSV exhibit.
pub fn rows_from(m: &ServingMeasurement) -> Vec<String> {
    let mut out = vec![
        format!(
            "# serving layer: {} mixed-tenant wire jobs, {} tenants, {} shapes, \
             warm_traces={}",
            m.job_count, m.tenants, m.shapes, m.warm_traces
        ),
        "workers,jobs_per_sec,p50_ms,p95_ms,p99_ms,cache_hits,cache_misses".to_string(),
    ];
    for p in &m.throughput {
        out.push(format!(
            "{},{:.2},{:.3},{:.3},{:.3},{},{}",
            p.workers, p.jobs_per_sec, p.p50_ms, p.p95_ms, p.p99_ms, p.cache_hits, p.cache_misses
        ));
    }
    out
}

/// The machine-readable perf snapshot (`results/BENCH_serving.json`).
pub fn snapshot_json() -> String {
    json_from(&measure())
}

/// Render a measurement as the JSON perf snapshot.
pub fn json_from(m: &ServingMeasurement) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"stream\": {{\"jobs\": {}, \"tenants\": {}, \"shapes\": {}, \"warm_traces\": {}}},\n",
        m.job_count, m.tenants, m.shapes, m.warm_traces
    ));
    s.push_str("  \"throughput\": [\n");
    for (i, p) in m.throughput.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workers\": {}, \"jobs_per_sec\": {:.2}, \"p50_ms\": {:.3}, \
             \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"cache_hits\": {}, \
             \"cache_misses\": {}}}{}\n",
            p.workers,
            p.jobs_per_sec,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms,
            p.cache_hits,
            p.cache_misses,
            if i + 1 < m.throughput.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_sweep_serves_every_job() {
        let frames = job_stream(12);
        let p = serve_once(&frames, 2, None);
        assert_eq!(p.workers, 2);
        assert_eq!(p.cache_hits + p.cache_misses, 12, "every job plans once");
        assert!(p.jobs_per_sec > 0.0);
        assert!(p.p50_ms > 0.0 && p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        // A tiny hand-built measurement keeps the test fast.
        let m = ServingMeasurement {
            job_count: 4,
            tenants: 3,
            shapes: 2,
            warm_traces: 0,
            throughput: vec![WorkerPoint {
                workers: 1,
                jobs_per_sec: 10.0,
                p50_ms: 1.0,
                p95_ms: 2.0,
                p99_ms: 3.0,
                cache_hits: 2,
                cache_misses: 2,
            }],
        };
        let json = json_from(&m);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"throughput\""));
        let csv = rows_from(&m);
        assert!(csv.iter().any(|r| r.starts_with("workers,")));
    }
}
