//! Result assembly: named metrics with units, the host stamp, and the
//! one-line JSON result that ends every run.

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How the number was obtained, when the name does not say it.
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs submitted or kernel calls made).
    pub attempted: u64,
    /// Attempted operations that failed, were rejected, or produced a
    /// wrong output.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the result (choices seen, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Add a metric with a note printed next to it.
    pub fn push_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: &str,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.to_string(),
        });
    }

    /// Count one attempted operation, failed or not.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// True when every attempted operation succeeded with a correct output.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print the human-readable lines (prefixed `#`) for `workload`.
    pub fn print_table(&self, workload: &str, traced: bool) {
        println!(
            "# {workload} ({}) on {}",
            if traced {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            },
            host_stamp()
        );
        for n in &self.notes {
            println!("#   {n}");
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!("#   {:<44} {:>16.4} {}{}", m.name, m.value, m.unit, note);
        }
        println!(
            "#   attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

/// The host and build every number was measured on: cores, build
/// profile, source revision and compiler.
pub fn host_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "cores={cores} profile={} rev={rev} rustc=\"{}\"",
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

/// Cumulative CPU time stolen from this host by its hypervisor, in
/// clock ticks (Linux `/proc/stat`; 0 where unavailable). A run prints
/// the share stolen while it ran, since a virtual host's neighbours
/// slow every wall-clock number.
pub fn steal_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let f: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|x| x.parse().ok())
                .collect();
            Some((f.get(7).copied().unwrap_or(0), f.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`; 0 where
/// `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut o = Outcome::default();
        o.attempt(true);
        o.push_noted("latency_p50_us", 12.5, "us", "per call");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
        o.attempt(false);
        assert!(!o.correct());
    }
}
