//! Format-generic kernel entry points: one per operation.
//!
//! Each kernel is written **once** against the fiber-stream traversal of
//! `sparseflex_formats::traverse`
//! ([`RowMajorStream`] /
//! [`FiberStream3`](sparseflex_formats::traverse::FiberStream3)),
//! so it consumes an operand in *any* of the paper's compression formats
//! (Fig. 3) without pre-conversion — the software analogue of the paper's
//! flexible-ACF accelerator, and the one-implementation-per-operation
//! shape of *Format Abstraction for Sparse Tensor Algebra Compilers*.
//!
//! Every matrix operation runs that one stream path for every format. Three
//! specializations remain: the tensor COO loops (the stream path measured
//! 1.7–2.6× slower at ≥1024² on a 2-core x86 host), the CSF fiber loops
//! (the tree walk the tensor stream path copies), and
//! [`spmm_sparse_b`]'s CSC-stationary path (Fig. 6b's layout, which a
//! row-major stream does not expose). They produce results identical to
//! the stream path.
//!
//! The kernels are sequential. The workspace's only host threads are the
//! serving layer's workers, each running whole jobs.
//!
//! All entry points validate operand shapes and return
//! [`KernelError::ShapeMismatch`] instead of panicking.

use crate::error::{check_dim, KernelError};
use crate::lanes::{axpy, dot_indexed, fold_scaled, scatter_axpy};
use crate::{mttkrp as mttkrp_mod, spgemm as spgemm_mod, spmm as spmm_mod, spttm as spttm_mod};
use sparseflex_formats::{
    CsrMatrix, DenseMatrix, DenseTensor3, MatrixData, RowMajorStream, SparseMatrix, SparseTensor3,
    TensorData, Value,
};

// ---------------------------------------------------------------------------
// SpMV
// ---------------------------------------------------------------------------

/// SpMV over any matrix format: `y = A * x`, one gather dot per row fiber.
pub fn spmv(a: &MatrixData, x: &[Value]) -> Result<Vec<Value>, KernelError> {
    check_dim("spmv", "A cols vs x len", a.cols(), x.len())?;
    let mut y = vec![0.0; a.rows()];
    a.row_stream().for_each_fiber(&mut |r, cols, vals| {
        y[r] = dot_indexed(cols, vals, x);
    });
    Ok(y)
}

// ---------------------------------------------------------------------------
// SpMM (sparse A, dense B)
// ---------------------------------------------------------------------------

/// SpMM over any matrix format: `O = A * B` with dense `B`.
///
/// Each row fiber of `A` scales the matching dense rows of `B` into its
/// output row — for COO this is the paper's Algorithm 1 nnz loop, in the
/// same order.
pub fn spmm(a: &MatrixData, b: &DenseMatrix) -> Result<DenseMatrix, KernelError> {
    spmm_from_stream(a.rows(), a.cols(), a.row_stream(), b)
}

/// SpMM over **any** row-major fiber stream — including payloads that
/// are not [`MatrixData`] variants, such as the descriptor-encoded
/// [`CustomMatrix`](sparseflex_formats::CustomMatrix) open formats. The
/// operand's shape is passed explicitly because a bare stream carries
/// none.
pub fn spmm_from_stream(
    a_rows: usize,
    a_cols: usize,
    a: &dyn RowMajorStream,
    b: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    check_dim("spmm", "A cols vs B rows", a_cols, b.rows())?;
    let n = b.cols();
    let mut o = DenseMatrix::zeros(a_rows, n);
    a.for_each_fiber(&mut |r, cols, vals| {
        let orow = &mut o.data_mut()[r * n..(r + 1) * n];
        for (&c, &v) in cols.iter().zip(vals) {
            axpy(orow, b.row(c), v);
        }
    });
    Ok(o)
}

/// SpMM with the sparse operand on the right: `O = A * B` with dense `A`
/// and `B` in any format.
///
/// CSC operands take the stationary-column fast path (Fig. 6b's
/// weight-stationary layout); every other format streams `B` row-major,
/// scattering each fiber against the matching dense column of `A`.
pub fn spmm_sparse_b(a: &DenseMatrix, b: &MatrixData) -> Result<DenseMatrix, KernelError> {
    check_dim("spmm", "A cols vs B rows", a.cols(), b.rows())?;
    match b {
        MatrixData::Csc(m) => Ok(spmm_mod::dense_csc(a, m)),
        _ => {
            let (m, n) = (a.rows(), b.cols());
            let mut o = DenseMatrix::zeros(m, n);
            b.row_stream().for_each_fiber(&mut |k, cols, vals| {
                for i in 0..m {
                    let aik = a.row(i)[k];
                    if aik == 0.0 {
                        continue;
                    }
                    let orow = &mut o.data_mut()[i * n..(i + 1) * n];
                    scatter_axpy(orow, cols, vals, aik);
                }
            });
            Ok(o)
        }
    }
}

// ---------------------------------------------------------------------------
// SpGEMM (sparse A, sparse B)
// ---------------------------------------------------------------------------

/// SpGEMM dataflow selector: which algorithm computes each output row.
///
/// Both produce **bit-for-bit identical** CSR output (the row-wise merge
/// replays Gustavson's exact per-element addition order); they differ in
/// scratch footprint and access pattern, which is what SAGE prices when
/// choosing one per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpgemmAlgo {
    /// Gustavson's row algorithm: dense sparse-accumulator the width of
    /// `B`, O(1) scatter per partial product, one sort per output row.
    /// Wins when output rows are dense relative to `B`'s width.
    Gustavson,
    /// Row-wise product (*Maple*'s dataflow): k-way heap merge of the
    /// selected B-rows, O(row fan-out) scratch, O(log fan-out) per
    /// partial product. Wins at extreme sparsity / very wide `B`, where
    /// touching a `B`-cols-sized accumulator per row is the cost.
    RowWise,
}

/// Gustavson SpGEMM over any pair of matrix formats: `O = A * B` in CSR.
///
/// `A` streams its row fibers directly into the sparse accumulator; `B`
/// needs random row access, so a non-CSR `B` is materialized once via
/// [`csr_from_stream`](sparseflex_formats::csr_from_stream) (a single
/// stream pass — no COO hub round-trip). [`spgemm_with`] selects the
/// dataflow.
pub fn spgemm(a: &MatrixData, b: &MatrixData) -> Result<CsrMatrix, KernelError> {
    spgemm_with(a, b, SpgemmAlgo::Gustavson)
}

/// SpGEMM over any pair of matrix formats with an explicit dataflow
/// choice — the entry point SAGE's dataflow pricing drives.
pub fn spgemm_with(
    a: &MatrixData,
    b: &MatrixData,
    algo: SpgemmAlgo,
) -> Result<CsrMatrix, KernelError> {
    check_dim("spgemm", "A cols vs B rows", a.cols(), b.rows())?;
    let b_csr = sparseflex_formats::csr_cow(b);
    let (rows, n) = (a.rows(), b.cols());
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0usize);
    let mut col_ids = Vec::new();
    let mut values = Vec::new();
    match algo {
        SpgemmAlgo::Gustavson => {
            let mut scratch = spgemm_mod::Accumulator::new(n);
            a.row_stream().for_each_fiber(&mut |r, acols, avals| {
                while row_ptr.len() <= r {
                    row_ptr.push(values.len());
                }
                spgemm_mod::gustavson_row(
                    acols,
                    avals,
                    &b_csr,
                    &mut scratch,
                    &mut col_ids,
                    &mut values,
                );
            });
        }
        SpgemmAlgo::RowWise => {
            let mut heap: spgemm_mod::MergeHeap = Vec::new();
            a.row_stream().for_each_fiber(&mut |r, acols, avals| {
                while row_ptr.len() <= r {
                    row_ptr.push(values.len());
                }
                spgemm_mod::rowwise_row(acols, avals, &b_csr, &mut heap, &mut col_ids, &mut values);
            });
        }
    }
    while row_ptr.len() <= rows {
        row_ptr.push(values.len());
    }
    Ok(CsrMatrix::from_parts(rows, n, row_ptr, col_ids, values)
        .expect("both SpGEMM dataflows emit ordered valid CSR over an ordered stream"))
}

// ---------------------------------------------------------------------------
// MTTKRP
// ---------------------------------------------------------------------------

/// MTTKRP over any 3-D tensor format:
/// `O[i][j] = Σ_{k,l} A[i][k][l] * B[k][j] * C[l][j]`.
///
/// COO and CSF operands take their own loops; every other format
/// streams its mode-z fibers through the CSF-style factored accumulation
/// (partial sum over `l` per fiber, then one scaling by `B[k][j]`).
pub fn mttkrp(
    a: &TensorData,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    mttkrp_mod::check_factors(a.dim_y(), a.dim_z(), b, c)?;
    match a {
        TensorData::Coo(t) => return Ok(mttkrp_mod::coo(t, b, c)),
        TensorData::Csf(t) => return Ok(mttkrp_mod::csf(t, b, c)),
        _ => {}
    }
    let j = b.cols();
    let mut o = DenseMatrix::zeros(a.dim_x(), j);
    let mut fiber_acc = vec![0.0; j];
    a.fiber_stream().for_each_fiber(&mut |i, k, zs, vals| {
        fiber_acc.iter_mut().for_each(|v| *v = 0.0);
        for (&l, &v) in zs.iter().zip(vals) {
            axpy(&mut fiber_acc, c.row(l), v);
        }
        let orow = &mut o.data_mut()[i * j..(i + 1) * j];
        fold_scaled(orow, &fiber_acc, b.row(k));
    });
    Ok(o)
}

// ---------------------------------------------------------------------------
// SpTTM
// ---------------------------------------------------------------------------

/// SpTTM over any 3-D tensor format:
/// `Y[x][y][j] = Σ_z A[x][y][z] * B[z][j]`.
///
/// COO and CSF operands take their own loops; every other format
/// streams its mode-z fibers through the CSF-style fiber-at-a-time
/// accumulation.
pub fn spttm(a: &TensorData, b: &DenseMatrix) -> Result<DenseTensor3, KernelError> {
    check_dim("spttm", "B rows vs tensor mode-3", a.dim_z(), b.rows())?;
    match a {
        TensorData::Coo(t) => return Ok(spttm_mod::coo(t, b)),
        TensorData::Csf(t) => return Ok(spttm_mod::csf(t, b)),
        _ => {}
    }
    let j = b.cols();
    let mut y = DenseTensor3::zeros(a.dim_x(), a.dim_y(), j);
    let mut acc = vec![0.0; j];
    a.fiber_stream().for_each_fiber(&mut |x, yy, zs, vals| {
        acc.iter_mut().for_each(|v| *v = 0.0);
        for (&z, &v) in zs.iter().zip(vals) {
            axpy(&mut acc, b.row(z), v);
        }
        for (jj, &av) in acc.iter().enumerate() {
            if av != 0.0 {
                y.add_assign(x, yy, jj, av);
            }
        }
    });
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use sparseflex_formats::{CooMatrix, CooTensor3, MatrixFormat, TensorFormat};

    fn all_matrix_formats() -> Vec<MatrixFormat> {
        vec![
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 2, bc: 2 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 4 },
            MatrixFormat::Zvc,
        ]
    }

    fn all_tensor_formats() -> Vec<TensorFormat> {
        vec![
            TensorFormat::Dense,
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::HiCoo { block: 2 },
            TensorFormat::Rlc { run_bits: 4 },
            TensorFormat::Zvc,
        ]
    }

    fn sample_a() -> CooMatrix {
        CooMatrix::from_triplets(
            5,
            4,
            vec![
                (0, 0, 2.0),
                (0, 3, 1.0),
                (1, 1, -1.0),
                (2, 0, 3.0),
                (2, 2, 4.0),
                (4, 3, 5.0),
            ],
        )
        .unwrap()
    }

    fn sample_b_dense() -> DenseMatrix {
        DenseMatrix::from_vec(4, 3, (0..12).map(|i| (i % 7) as f64 - 3.0).collect()).unwrap()
    }

    #[test]
    fn spmv_agrees_across_all_formats() {
        let coo = sample_a();
        let x = vec![1.0, -2.0, 3.0, 0.5];
        let reference = spmv(&MatrixData::Csr(CsrMatrix::from_coo(&coo)), &x).unwrap();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            assert_eq!(spmv(&data, &x).unwrap(), reference, "spmv({fmt})");
        }
    }

    #[test]
    fn spmm_agrees_across_all_formats() {
        let coo = sample_a();
        let b = sample_b_dense();
        let reference = gemm_naive(&coo.clone().into_dense(), &b);
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            assert_eq!(spmm(&data, &b).unwrap(), reference, "spmm({fmt})");
        }
    }

    #[test]
    fn spmm_sparse_b_agrees_across_all_formats() {
        let b_coo = sample_a(); // 5x4 sparse B
        let a =
            DenseMatrix::from_vec(3, 5, (0..15).map(|i| (i % 5) as f64 - 2.0).collect()).unwrap();
        let reference = gemm_naive(&a, &b_coo.clone().into_dense());
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&b_coo, &fmt).unwrap();
            assert_eq!(
                spmm_sparse_b(&a, &data).unwrap(),
                reference,
                "spmm_sparse_b({fmt})"
            );
        }
    }

    #[test]
    fn spgemm_agrees_across_all_format_pairs() {
        let a_coo = sample_a(); // 5x4
        let b_coo = CooMatrix::from_triplets(
            4,
            6,
            vec![(0, 0, 1.0), (0, 5, -2.0), (2, 3, 3.0), (3, 1, 4.0)],
        )
        .unwrap();
        let reference = gemm_naive(&a_coo.clone().into_dense(), &b_coo.clone().into_dense());
        for fa in all_matrix_formats() {
            for fb in all_matrix_formats() {
                let a = MatrixData::encode(&a_coo, &fa).unwrap();
                let b = MatrixData::encode(&b_coo, &fb).unwrap();
                let o = spgemm(&a, &b).unwrap();
                assert_eq!(o.to_dense(), reference, "spgemm({fa}, {fb})");
                let orw = spgemm_with(&a, &b, SpgemmAlgo::RowWise).unwrap();
                assert_eq!(orw, o, "row-wise spgemm({fa}, {fb}) must be bit-identical");
            }
        }
    }

    #[test]
    fn tensor_kernels_agree_across_all_formats() {
        let coo = CooTensor3::from_quads(
            4,
            3,
            5,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 2, 2.0),
                (1, 1, 1, 3.0),
                (2, 2, 4, -2.0),
                (3, 0, 3, 0.5),
                (3, 2, 3, 1.5),
            ],
        )
        .unwrap();
        let b = DenseMatrix::from_vec(3, 2, (0..6).map(|i| i as f64 + 1.0).collect()).unwrap();
        let c = DenseMatrix::from_vec(5, 2, (0..10).map(|i| (i as f64) - 4.0).collect()).unwrap();
        let ref_mttkrp = mttkrp(
            &TensorData::Csf(sparseflex_formats::CsfTensor::from_coo(&coo)),
            &b,
            &c,
        )
        .unwrap();
        let ref_spttm = spttm(&TensorData::Coo(coo.clone()), &c).unwrap();
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&coo, &fmt).unwrap();
            let o = mttkrp(&data, &b, &c).unwrap();
            assert!(o.approx_eq(&ref_mttkrp, 1e-12), "mttkrp({fmt})");
            assert_eq!(spttm(&data, &c).unwrap(), ref_spttm, "spttm({fmt})");
        }
    }

    #[test]
    fn shape_mismatches_surface_as_errors_not_panics() {
        let a = MatrixData::Coo(CooMatrix::empty(3, 5));
        let b = DenseMatrix::zeros(4, 2);
        assert!(matches!(
            spmm(&a, &b),
            Err(KernelError::ShapeMismatch {
                kernel: "spmm",
                expected: 5,
                actual: 4,
                ..
            })
        ));
        assert!(spmv(&a, &[0.0; 4]).is_err());
        assert!(spgemm(&a, &MatrixData::Coo(CooMatrix::empty(4, 2))).is_err());
        let t = TensorData::Coo(CooTensor3::empty(2, 3, 4));
        assert!(spttm(&t, &DenseMatrix::zeros(5, 2)).is_err());
        assert!(mttkrp(&t, &DenseMatrix::zeros(3, 2), &DenseMatrix::zeros(4, 3)).is_err());
    }

    #[test]
    fn empty_operands_yield_zero_outputs() {
        let a = MatrixData::Coo(CooMatrix::empty(3, 4));
        let b = sample_b_dense();
        assert_eq!(spmm(&a, &b).unwrap(), DenseMatrix::zeros(3, 3));
        assert_eq!(spmv(&a, &[1.0; 4]).unwrap(), vec![0.0; 3]);
    }
}
