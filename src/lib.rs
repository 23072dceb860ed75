//! # sparseflex
//!
//! Umbrella crate for the `sparseflex` workspace — a Rust reproduction of
//! *"Extending Sparse Tensor Accelerators to Support Multiple Compression
//! Formats"* (IPDPS 2021).
//!
//! The workspace implements the paper's three contributions on top of
//! fully-built substrates:
//!
//! | Module | Contents |
//! |---|---|
//! | [`formats`] | every compression format of Fig. 3, conversions, size models |
//! | [`kernels`] | format-generic GEMM / SpMM / SpGEMM / SpMV / SpTTM / MTTKRP / im2col over fiber streams |
//! | [`workloads`] | Table III suite, ResNet Fig. 14a layers, synthetic generators |
//! | [`accel`] | cycle-level weight-stationary accelerator with flexible ACFs (§IV) |
//! | [`mint`] | the MINT hardware format converter (§V) |
//! | [`sage`] | the SAGE MCF/ACF predictor (§VI) |
//! | [`host`] | CPU/GPU offload baseline models (§VII-B) |
//! | [`system`] | the integrated `Flex_Flex_HW` system (§VII-C/D): planner layer (`ExecutionPlan` IR, bounded LRU plan cache) + shared executor |
//! | [`serve`] | multi-tenant job service: admission control, weighted-fair scheduling, a central-queue worker pool (the only host threads), binary wire format |
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]

pub use sparseflex_accel as accel;
pub use sparseflex_core as system;
pub use sparseflex_formats as formats;
pub use sparseflex_host as host;
pub use sparseflex_kernels as kernels;
pub use sparseflex_kernels::KernelError;
pub use sparseflex_mint as mint;
pub use sparseflex_sage as sage;
pub use sparseflex_serve as serve;
pub use sparseflex_workloads as workloads;
