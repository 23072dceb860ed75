//! # sparseflex-kernels
//!
//! Software reference implementations of the tensor-algebra kernels the
//! paper's accelerator targets (Fig. 2), built around **format-generic
//! fiber streams**: each sparse kernel has one public entry point that
//! takes a [`MatrixData`](sparseflex_formats::MatrixData) /
//! [`TensorData`](sparseflex_formats::TensorData) operand in *any* of the
//! paper's compression formats and consumes it through the
//! `sparseflex_formats::traverse` streaming traversal — no pre-conversion
//! to a blessed format.
//!
//! - **GEMM** — dense matrix × dense matrix ([`gemm()`]).
//! - **SpMV** — any-format matrix × dense vector ([`spmv()`]).
//! - **SpMM** — any-format matrix × dense matrix ([`spmm()`], or
//!   [`spmm_from_stream()`] for descriptor-encoded operands), or dense ×
//!   any-format stationary operand ([`spmm_sparse_b()`], Fig. 6b's
//!   layout).
//! - **SpGEMM** — any-format × any-format ([`spgemm()`]), with a
//!   selectable dataflow ([`spgemm_with()`], [`SpgemmAlgo`]): Gustavson's
//!   dense-accumulator row algorithm or the row-wise k-way merge product;
//!   both emit bit-for-bit identical CSR.
//! - **SpTTM** — any-format tensor × dense matrix ([`spttm()`]).
//! - **MTTKRP** — any-format tensor Khatri-Rao product ([`mttkrp()`]).
//! - **im2col** — convolution → GEMM rearrangement used by the ResNet case
//!   study ([`mod@im2col`]).
//!
//! Every matrix operation runs one stream path for every format; the
//! tensor kernels keep their COO and CSF loops and `spmm_sparse_b` keeps
//! its CSC-stationary path (see [`mod@dispatch`] for why). The kernels are
//! sequential: the workspace's only host threads are the serving
//! layer's workers, each running whole jobs. Shape mismatches surface as
//! [`KernelError`] values rather than panics.
//!
//! These kernels are used three ways across the workspace: as the
//! functional oracle for the accelerator simulator, as the measured
//! software baseline standing in for cuBLAS/cuSPARSE/MKL (Fig. 5 and
//! Fig. 10), and inside the examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;
pub mod error;
pub mod gemm;
pub mod im2col;
pub mod lanes;
pub mod mttkrp;
pub mod spgemm;
pub mod spmm;
pub mod spttm;

pub use dispatch::{
    mttkrp, spgemm, spgemm_with, spmm, spmm_from_stream, spmm_sparse_b, spmv, spttm, SpgemmAlgo,
};
pub use error::KernelError;
pub use gemm::gemm;
pub use im2col::{im2col, ConvLayer};
