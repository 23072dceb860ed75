//! Span recording for the traced runs, and the order statistics every
//! metric is reported with.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the library itself carries no spans yet). A span is
//! `(name, start, end, parent, job)`; spans stay in memory until the run
//! ends and are then written out in one file. A layer's *self time* is
//! its span's duration minus the time its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified span name, e.g. `core.planner.execute`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job (or call) the span belongs to.
    pub job: u64,
}

/// In-memory span recorder. A disabled recorder runs the same closures
/// and records nothing, so the traced and untraced runs execute the same
/// calls and their difference is the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `job`; spans opened inside
    /// `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns, indexed like [`spans`](Self::spans).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per job, the summed self time (µs) of the spans named `name`;
    /// jobs without such a span are left out.
    pub fn per_job_self_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut by_job: std::collections::BTreeMap<u64, u64> = Default::default();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                *by_job.entry(s.job).or_default() += ns;
            }
        }
        by_job.into_values().map(|ns| ns as f64 / 1e3).collect()
    }

    /// Total self time (ns) of the spans named `name`.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Write every span as one tab-separated line
    /// `name start_ns end_ns parent job self_ns` (parent `-` for roots).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\tjob\tself_ns")?;
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.job, own
            )?;
        }
        w.flush()
    }
}

/// The `p`-quantile (0..=1) of `v` by nearest rank; 0 for no samples.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of `v`; 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = t.self_ns();
        let total = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0] + own[1], total);
        assert!(own[1] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, |_| 41) + 1, 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
