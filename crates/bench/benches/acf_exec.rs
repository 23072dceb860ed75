//! Ablation bench: cycle-accurate simulation throughput per ACF pair —
//! exercises the flexible buffer-partition datapath against the dense
//! baseline on the same operands.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparseflex_accel::exec::simulate_ws;
use sparseflex_accel::AccelConfig;
use sparseflex_formats::{MatrixData, MatrixFormat};
use sparseflex_workloads::synth::random_matrix;

fn bench_acf_pairs(c: &mut Criterion) {
    let mut g = c.benchmark_group("acf_exec");
    g.sample_size(10);
    let cfg = AccelConfig {
        num_pes: 64,
        pe_buffer_elems: 128,
        ..AccelConfig::walkthrough()
    };
    let a = random_matrix(128, 256, 3_000, 11);
    let b = random_matrix(256, 64, 1_500, 12);
    for (name, fa, fb) in [
        ("dense-dense", MatrixFormat::Dense, MatrixFormat::Dense),
        ("csr-dense", MatrixFormat::Csr, MatrixFormat::Dense),
        ("csr-csc", MatrixFormat::Csr, MatrixFormat::Csc),
        ("coo-dense", MatrixFormat::Coo, MatrixFormat::Dense),
    ] {
        let da = MatrixData::encode(&a, &fa).unwrap();
        let db = MatrixData::encode(&b, &fb).unwrap();
        g.bench_with_input(BenchmarkId::new("simulate", name), &name, |bench, _| {
            bench.iter(|| simulate_ws(&da, &db, &cfg).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_acf_pairs);
criterion_main!(benches);
