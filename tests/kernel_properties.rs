//! Property tests on the software kernels: the format-generic entry points
//! agree with the dense reference, and algebraic identities hold.

use proptest::prelude::*;
use sparseflex::formats::{
    CooMatrix, CooTensor3, CsfTensor, CsrMatrix, DenseMatrix, MatrixData, SparseMatrix, TensorData,
};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::kernels::{gemm, mttkrp, spgemm, spmm, spmm_sparse_b, spmv, spttm};

fn arb_sparse(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    proptest::collection::vec(
        ((0..rows), (0..cols), -8i32..8).prop_map(|(r, c, v)| (r, c, v as f64)),
        0..max_nnz,
    )
    .prop_map(move |t| CooMatrix::from_triplets(rows, cols, t).unwrap())
}

fn arb_dense(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-8i32..8, rows * cols).prop_map(move |v| {
        DenseMatrix::from_vec(rows, cols, v.into_iter().map(|x| x as f64).collect()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn spmm_variants_agree_with_dense_reference(
        a in arb_sparse(13, 17, 60),
        b in arb_dense(17, 9),
    ) {
        let expect = gemm_naive(&a.clone().into_dense(), &b);
        let coo = MatrixData::Coo(a.clone());
        let csr = MatrixData::Csr(CsrMatrix::from_coo(&a));
        prop_assert_eq!(spmm(&coo, &b).unwrap(), expect.clone());
        prop_assert_eq!(spmm(&csr, &b).unwrap(), expect);
    }

    #[test]
    fn spgemm_agrees_with_dense_reference(
        a in arb_sparse(11, 14, 50),
        b in arb_sparse(14, 10, 50),
    ) {
        let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        let a = MatrixData::Csr(CsrMatrix::from_coo(&a));
        let b = MatrixData::Csr(CsrMatrix::from_coo(&b));
        let o = spgemm(&a, &b).unwrap();
        prop_assert_eq!(o.to_dense(), expect);
    }

    #[test]
    fn dense_csc_spmm_matches(
        a in arb_dense(7, 12),
        b in arb_sparse(12, 8, 40),
    ) {
        let expect = gemm_naive(&a, &b.clone().into_dense());
        let b_csc = MatrixData::encode(&b, &sparseflex::formats::MatrixFormat::Csc).unwrap();
        prop_assert_eq!(spmm_sparse_b(&a, &b_csc).unwrap(), expect);
    }

    #[test]
    fn gemm_blocked_matches_naive(
        a in arb_dense(9, 21),
        b in arb_dense(21, 11),
    ) {
        prop_assert_eq!(gemm(&a, &b), gemm_naive(&a, &b));
    }

    #[test]
    fn spmv_is_spmm_with_one_column(a in arb_sparse(10, 12, 40), x in proptest::collection::vec(-8i32..8, 12)) {
        let xf: Vec<f64> = x.into_iter().map(|v| v as f64).collect();
        let csr = MatrixData::Csr(CsrMatrix::from_coo(&a));
        let y = spmv(&csr, &xf).unwrap();
        let b = DenseMatrix::from_vec(12, 1, xf).unwrap();
        let o = spmm(&csr, &b).unwrap();
        for (i, yi) in y.iter().enumerate() {
            prop_assert_eq!(*yi, o.get(i, 0));
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a1 in arb_sparse(8, 8, 30),
        a2 in arb_sparse(8, 8, 30),
        b in arb_dense(8, 6),
    ) {
        // (A1 + A2) * B == A1*B + A2*B
        let mut sum_triplets: Vec<(usize, usize, f64)> = a1.iter().collect();
        sum_triplets.extend(a2.iter());
        let a_sum = CooMatrix::from_triplets(8, 8, sum_triplets).unwrap();
        let left = spmm(&MatrixData::Coo(a_sum), &b).unwrap();
        let r1 = spmm(&MatrixData::Coo(a1), &b).unwrap();
        let r2 = spmm(&MatrixData::Coo(a2), &b).unwrap();
        for i in 0..8 {
            for j in 0..6 {
                prop_assert!((left.get(i, j) - (r1.get(i, j) + r2.get(i, j))).abs() < 1e-9);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tensor_kernels_csf_equals_coo(
        quads in proptest::collection::vec(
            ((0usize..6), (0usize..7), (0usize..8), -5i32..5).prop_map(|(x, y, z, v)| (x, y, z, v as f64)),
            0..40,
        ),
        factor in proptest::collection::vec(-5i32..5, 8 * 4),
        b2 in proptest::collection::vec(-5i32..5, 7 * 4),
    ) {
        let t = CooTensor3::from_quads(6, 7, 8, quads).unwrap();
        let coo = TensorData::Coo(t.clone());
        let csf = TensorData::Csf(CsfTensor::from_coo(&t));
        let f = DenseMatrix::from_vec(8, 4, factor.into_iter().map(|v| v as f64).collect()).unwrap();
        prop_assert_eq!(spttm(&coo, &f).unwrap(), spttm(&csf, &f).unwrap());
        let b = DenseMatrix::from_vec(7, 4, b2.into_iter().map(|v| v as f64).collect()).unwrap();
        let o1 = mttkrp(&coo, &b, &f).unwrap();
        let o2 = mttkrp(&csf, &b, &f).unwrap();
        prop_assert!(o1.approx_eq(&o2, 1e-9));
    }
}
