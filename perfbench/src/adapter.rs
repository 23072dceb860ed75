//! The only place the benchmark calls `sparseflex_kernels`: one function
//! per operation, each forwarding to the library's plain entry point.
//! A change to the kernels' public API edits this file and nothing else.

use sparseflex_formats::{CsrMatrix, DenseMatrix, DenseTensor3, MatrixData, TensorData, Value};
use sparseflex_kernels::KernelError;

/// `y = A x`.
pub fn spmv(a: &MatrixData, x: &[Value]) -> Result<Vec<Value>, KernelError> {
    sparseflex_kernels::spmv(a, x)
}

/// `O = A B`, dense `B`.
pub fn spmm(a: &MatrixData, b: &DenseMatrix) -> Result<DenseMatrix, KernelError> {
    sparseflex_kernels::spmm(a, b)
}

/// `O = A B`, sparse `B`, CSR output.
pub fn spgemm(a: &MatrixData, b: &MatrixData) -> Result<CsrMatrix, KernelError> {
    sparseflex_kernels::spgemm(a, b)
}

/// `O[i][j] = sum_{k,l} A[i][k][l] B[k][j] C[l][j]`.
pub fn mttkrp(
    a: &TensorData,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    sparseflex_kernels::mttkrp(a, b, c)
}

/// `Y[x][y][j] = sum_z A[x][y][z] B[z][j]`.
pub fn spttm(a: &TensorData, b: &DenseMatrix) -> Result<DenseTensor3, KernelError> {
    sparseflex_kernels::spttm(a, b)
}
