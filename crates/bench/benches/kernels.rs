//! Criterion benches for the software kernels across density regions —
//! the measured companion to the Fig. 5 device-model sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparseflex_formats::{CsrMatrix, DenseMatrix, MatrixData};
use sparseflex_kernels::{gemm, spgemm, spgemm_with, spmm, SpgemmAlgo};
use sparseflex_workloads::synth::{random_dense_matrix, random_matrix};

const N: usize = 384;

fn bench_mm_across_density(c: &mut Criterion) {
    let mut g = c.benchmark_group("mm_density");
    g.sample_size(10);
    let b_dense = random_dense_matrix(N, N, 7);
    for dens in [0.001, 0.01, 0.1] {
        let nnz = ((N * N) as f64 * dens) as usize;
        let a = random_matrix(N, N, nnz, 1);
        let a_csr = MatrixData::Csr(CsrMatrix::from_coo(&a));
        let b_csr = MatrixData::Csr(CsrMatrix::from_coo(&random_matrix(N, N, nnz, 2)));
        g.bench_with_input(
            BenchmarkId::new("spmm_csr_dense", dens),
            &dens,
            |bench, _| bench.iter(|| spmm(&a_csr, &b_dense).expect("shapes agree")),
        );
        g.bench_with_input(
            BenchmarkId::new("spgemm_csr_csr", dens),
            &dens,
            |bench, _| bench.iter(|| spgemm(&a_csr, &b_csr).expect("shapes agree")),
        );
        g.bench_with_input(
            BenchmarkId::new("spgemm_rowwise_csr_csr", dens),
            &dens,
            |bench, _| {
                bench.iter(|| {
                    spgemm_with(&a_csr, &b_csr, SpgemmAlgo::RowWise).expect("shapes agree")
                })
            },
        );
    }
    let a_dense: DenseMatrix = random_dense_matrix(N, N, 3);
    g.bench_function("gemm_dense", |bench| {
        bench.iter(|| gemm(&a_dense, &b_dense))
    });
    g.finish();
}

criterion_group!(benches, bench_mm_across_density);
criterion_main!(benches);
