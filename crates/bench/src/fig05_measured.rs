//! Measured companion to Fig. 5: wall-clock times of this workspace's own
//! sequential kernels across density regions (scaled to n=1024 so the
//! sweep finishes in seconds). The model (`fig05`) covers the paper-scale
//! n=11k.

use sparseflex_formats::{CsrMatrix, MatrixData};
use sparseflex_kernels::{gemm, spgemm, spmm};
use sparseflex_workloads::synth::{random_dense_matrix, random_matrix};
use std::time::Instant;

/// Problem edge for the measured sweep.
pub const N: usize = 1024;

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Measured rows across density.
pub fn rows() -> Vec<String> {
    let mut out = vec![
        format!("# fig5-measured: this workspace's kernels, M=N=K={N}"),
        "density,gemm_s,spmm_s,spgemm_s".to_string(),
    ];
    let b_dense = random_dense_matrix(N, N, 1);
    let a_dense = random_dense_matrix(N, N, 2);
    let gemm_t = best_of(2, || {
        let _ = gemm(&a_dense, &b_dense);
    });
    for dens in [1e-4, 1e-3, 1e-2, 1e-1] {
        let nnz = ((N * N) as f64 * dens) as usize;
        let a = MatrixData::Csr(CsrMatrix::from_coo(&random_matrix(N, N, nnz.max(1), 3)));
        let b = MatrixData::Csr(CsrMatrix::from_coo(&random_matrix(N, N, nnz.max(1), 4)));
        let spmm_t = best_of(2, || {
            let _ = spmm(&a, &b_dense).expect("shapes agree");
        });
        let spgemm_t = best_of(2, || {
            let _ = spgemm(&a, &b).expect("shapes agree");
        });
        out.push(format!(
            "{dens:.0e},{gemm_t:.4e},{spmm_t:.4e},{spgemm_t:.4e}"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn sparse_kernels_beat_dense_gemm_at_low_density() {
        // The measured Fig. 5 claim at laptop scale: at 0.01% density,
        // both sparse kernels are much faster than dense GEMM.
        let rows = super::rows();
        let first = rows[2].split(',').collect::<Vec<_>>();
        let gemm: f64 = first[1].parse().unwrap();
        let spmm: f64 = first[2].parse().unwrap();
        let spgemm: f64 = first[3].parse().unwrap();
        assert!(spmm < gemm, "spmm {spmm} vs gemm {gemm}");
        assert!(spgemm < gemm, "spgemm {spgemm} vs gemm {gemm}");
    }
}
