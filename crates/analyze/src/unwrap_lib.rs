//! `unwrap-in-library`: no `.unwrap()` / `.expect(` in non-test code
//! of the library crates.
//!
//! The serving stack promises typed errors end to end (`WireError`,
//! `ServeError`, `KernelError`, …) — a stray `.unwrap()` in a library
//! crate turns a recoverable condition into a panic inside a worker
//! thread. Existing debt is carried by the committed baseline
//! (`results/lint_baseline.json`) and only ever shrinks; new hits fail
//! the gate.
//!
//! `.unwrap_or(..)` / `.unwrap_or_else(..)` / `.unwrap_or_default()`
//! and `.expect_err(` do not match: they are the sanctioned
//! alternatives.

use crate::framework::{in_scope, AnalysisConfig, Finding};
use crate::lexer::SourceFile;

/// The lint's name, as used in pragmas and baselines.
pub const NAME: &str = "unwrap-in-library";

/// Scan one file for library-code unwraps.
pub fn run(src: &SourceFile, config: &AnalysisConfig) -> Vec<Finding> {
    if !in_scope(&src.path, &config.unwrap_scope) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (li, line) in src.lines.iter().enumerate() {
        if line.in_test || src.is_allowed(NAME, li) {
            continue;
        }
        for pat in [".unwrap()", ".expect("] {
            let mut from = 0usize;
            while let Some(rel) = line.code[from.min(line.code.len())..].find(pat) {
                let col = from + rel;
                from = col + pat.len();
                findings.push(Finding {
                    lint: NAME.to_string(),
                    file: src.path.clone(),
                    line: li + 1,
                    excerpt: src.excerpt(li),
                    message: format!(
                        "`{pat}..` panics in library code; surface a typed error \
                         (WireError/ServeError/KernelError/FormatError) or recover \
                         (`unwrap_or_else`)"
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_and_expect_outside_tests() {
        let src = SourceFile::parse(
            "crates/x/src/lib.rs",
            "fn f() {\n    let a = m.lock().unwrap();\n    let b = n.lock().expect(\"poisoned\");\n    let c = o.lock().unwrap_or_else(|e| e.into_inner());\n}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        );
        let mut cfg = AnalysisConfig::everything();
        let f = run(&src, &cfg);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);

        cfg.unwrap_scope = vec!["crates/y/".into()];
        assert!(run(&src, &cfg).is_empty(), "out-of-scope file must pass");
    }

    #[test]
    fn workspace_policy_covers_the_simulator_crate() {
        let src = SourceFile::parse(
            "crates/accel/src/exec.rs",
            "fn f() {\n    let a = a_csc.expect(\"csc payload\");\n}\n",
        );
        assert_eq!(run(&src, &AnalysisConfig::workspace()).len(), 1);
    }

    #[test]
    fn expect_err_and_pragma_do_not_match() {
        let src = SourceFile::parse(
            "x.rs",
            "fn f() {\n    r.expect_err(\"must fail\");\n    v.first().unwrap(); // sflint::allow(unwrap-in-library)\n}\n",
        );
        assert!(run(&src, &AnalysisConfig::everything()).is_empty());
    }
}
