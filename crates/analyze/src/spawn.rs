//! `thread-spawn-containment`: threads are created only in the
//! sanctioned module.
//!
//! The library has one level of host parallelism: the serving worker
//! pool, where each thread runs whole jobs popped from one central
//! queue. The kernels, the planner's tile executor and `run_batch` all
//! run sequentially on their caller's thread. A `thread::spawn`,
//! `thread::scope` or `thread::Builder` anywhere else adds a second
//! level of threads that no benchmark has shown to pay, so it is
//! flagged.

use crate::framework::{AnalysisConfig, Finding};
use crate::lexer::SourceFile;

/// The lint's name, as used in pragmas and baselines.
pub const NAME: &str = "thread-spawn-containment";

const PATTERNS: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];

/// Scan one file for thread creation outside the sanctioned modules.
pub fn run(src: &SourceFile, config: &AnalysisConfig) -> Vec<Finding> {
    if config.spawn_sanctioned.iter().any(|f| f == &src.path) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (li, line) in src.lines.iter().enumerate() {
        if line.in_test || src.is_allowed(NAME, li) {
            continue;
        }
        for pat in PATTERNS {
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
                        "`{pat}` outside the sanctioned modules; run the work on the \
                         caller's thread, or submit it to the serve worker pool, the \
                         library's one level of host parallelism"
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
    fn stray_spawn_is_flagged_and_sanctioned_files_pass() {
        let text =
            "fn f() {\n    std::thread::spawn(|| work());\n    std::thread::scope(|s| {});\n}\n";
        let src = SourceFile::parse("crates/x/src/other.rs", text);
        let mut cfg = AnalysisConfig::everything();
        assert_eq!(run(&src, &cfg).len(), 2);

        cfg.spawn_sanctioned = vec!["crates/x/src/other.rs".into()];
        assert!(run(&src, &cfg).is_empty());
    }

    #[test]
    fn test_regions_may_spawn() {
        let text = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        let src = SourceFile::parse("x.rs", text);
        assert!(run(&src, &AnalysisConfig::everything()).is_empty());
    }
}
