//! The self-run: the live workspace must be clean modulo the committed
//! baseline. This is the same check CI's `sflint --gate` step enforces,
//! kept in-tree so `cargo test` alone catches a regression.

use sparseflex_analyze::{baseline, framework, AnalysisConfig, SourceFile};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_is_clean_modulo_baseline() {
    let root = workspace_root();
    let report = framework::analyze_workspace(&root);
    assert!(report.files_scanned > 100, "walker found too few files");
    let base =
        baseline::read_baseline(&root.join("results/lint_baseline.json")).expect("baseline parses");
    assert!(!base.is_empty(), "committed baseline missing or empty");
    let diff = baseline::diff(&report.findings, &base);
    assert!(
        diff.new.is_empty(),
        "new findings not in baseline:\n{}",
        diff.new
            .iter()
            .map(|f| format!("  [{}] {}:{}: {}", f.lint, f.file, f.line, f.excerpt))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        diff.stale.is_empty(),
        "stale baseline entries (prune with --write-baseline):\n{}",
        diff.stale
            .iter()
            .map(|f| format!("  [{}] {}:{}: {}", f.lint, f.file, f.line, f.excerpt))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn serve_crate_carries_zero_unwrap_debt() {
    // The serving layer promises typed errors end to end; its baseline
    // allotment for unwrap-in-library is exactly zero, now and forever.
    let root = workspace_root();
    let report = framework::analyze_workspace(&root);
    let serve_unwraps: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "unwrap-in-library" && f.file.starts_with("crates/serve/"))
        .collect();
    assert!(serve_unwraps.is_empty(), "{serve_unwraps:?}");
    let base =
        baseline::read_baseline(&root.join("results/lint_baseline.json")).expect("baseline parses");
    assert!(
        base.iter()
            .all(|f| !(f.lint == "unwrap-in-library" && f.file.starts_with("crates/serve/"))),
        "baseline must not carry serve unwrap debt"
    );
}

#[test]
fn lock_graph_stays_acyclic() {
    let root = workspace_root();
    let report = framework::analyze_workspace(&root);
    let cycles = report.of("lock-order-cycle");
    assert!(cycles.is_empty(), "{cycles:?}");
    // The detector is actually looking at the real lock web, not an
    // empty graph: the serve worker loop calls `wait()` while holding
    // the `central` guard, the analyzer resolves that call by name to
    // the same-file `JobTicket::wait`, and that takes a ticket slot's
    // `lock`, so a central->lock edge must exist.
    assert!(
        report
            .edges
            .iter()
            .any(|e| e.from == "central" && e.to == "lock"),
        "expected the serve central->lock edge in {:?}",
        report.edges
    );
}

#[test]
fn every_registered_hot_fn_exists() {
    // A renamed hot function would silently drop out of the
    // alloc-in-hot-path lint; pin that each registration still names a
    // function defined in its file.
    let root = workspace_root();
    for (file, func) in AnalysisConfig::workspace().hot_fns {
        let text = std::fs::read_to_string(root.join(&file)).expect("hot file exists");
        let src = SourceFile::parse(&file, &text);
        assert!(
            src.fns.iter().any(|f| f.name == func),
            "{file} defines no fn {func}"
        );
    }
}
