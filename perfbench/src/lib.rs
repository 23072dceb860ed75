//! The sparseflex repository benchmark.
//!
//! Three workloads, each run twice by the caller — untraced for the
//! end-to-end metrics and traced for the per-layer ones:
//!
//! * `serve_hot` and `serve_cold` ([`serve`]): open-loop SpGEMM serving
//!   through `sparseflex_serve` on hot and cold plan-cache paths;
//! * `kernels_lib` ([`kernels`]): the per-operation kernels of
//!   `sparseflex_kernels` on operands in all 15 formats.
//!
//! The benchmark reaches the program only through public functions. The
//! metric catalogue lives in [`metrics`]; `BENCHMARK.json` at the
//! repository root lists the same names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod gen;
pub mod kernels;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod trace;

use report::Outcome;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["serve_hot", "serve_cold", "kernels_lib"];

/// Run workload `name`; `None` for an unknown name. Traced runs write
/// their spans to `spans_out`.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_out: Option<&std::path::Path>,
) -> Option<Outcome> {
    Some(match name {
        "serve_hot" => serve::run(serve::Kind::Hot, seed, seconds, traced, spans_out),
        "serve_cold" => serve::run(serve::Kind::Cold, seed, seconds, traced, spans_out),
        "kernels_lib" => kernels::run(seed, seconds, traced, spans_out),
        _ => return None,
    })
}
