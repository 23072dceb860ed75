#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `sparseflex-analyze` — workspace-native static analysis (`sflint`).
//!
//! A dependency-free, token-level analyzer purpose-built for this
//! workspace's invariants. It is not a general Rust linter: each lint
//! encodes a rule the serving/kernel stack actually relies on, at a
//! precision clippy cannot reach because the rules are about *this*
//! codebase's hot paths, lock graph, and wire format.
//!
//! The five lints:
//!
//! | lint | rule |
//! |---|---|
//! | `alloc-in-hot-path` | no allocation tokens inside fiber-traversal call bodies, `kernels::lanes`, or `spgemm::rowwise_row` |
//! | `lock-order-cycle` | the Mutex-acquisition graph must stay acyclic (deadlock freedom) |
//! | `unwrap-in-library` | no `.unwrap()`/`.expect(` in non-test library code — typed errors end to end |
//! | `unchecked-narrowing-cast` | every `as u32`/`as u16` on wire encode paths needs a dominating range guard |
//! | `thread-spawn-containment` | threads are created only in the serve worker pool and its bench harness |
//!
//! Mechanics:
//!
//! - [`lexer`] strips comments/strings while preserving line structure,
//!   tracks brace depth, marks `#[cfg(test)]`/`mod tests` regions, and
//!   records `// sflint::allow(<lint>)` pragmas (own line + next line).
//! - [`framework`] holds the [`Finding`]/[`LockEdge`] records, the
//!   committed [`AnalysisConfig::workspace`] policy, and the runner.
//! - [`baseline`] freezes existing debt in
//!   `results/lint_baseline.json`; `sflint --gate` fails on any *new*
//!   finding and on any *stale* entry, so debt only shrinks.

pub mod alloc_hot;
pub mod baseline;
pub mod cast_audit;
pub mod framework;
pub mod lexer;
pub mod lock_order;
pub mod spawn;
pub mod unwrap_lib;

pub use baseline::{diff, read_baseline, write_baseline, GateDiff};
pub use framework::{
    analyze_paths, analyze_sources, analyze_workspace, workspace_files, AnalysisConfig, Finding,
    LockEdge, Report,
};
pub use lexer::SourceFile;
