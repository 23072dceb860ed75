//! Command line:
//!
//! ```text
//! perfbench --workload <serve_hot|serve_cold|kernels_lib|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints `#`-prefixed lines naming every metric with its unit, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 1` reports the per-layer metrics and writes
//! the spans to `perfbench/out/`. `--workload all` runs every workload
//! untraced and traced and ends with a combined result line. The exit
//! code is 0 only when every output was correct.

use perfbench::report::{steal_ticks, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} outside (0, 60]", args.seconds));
    }
    Ok(args)
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.spans.tsv"))
}

fn run_one(workload: &str, args: &Args, traced: bool) -> Outcome {
    let spans = spans_path(workload, args.seed);
    let (steal0, total0) = steal_ticks();
    let mut out = perfbench::run(
        workload,
        args.seed,
        args.seconds,
        traced,
        traced.then_some(spans.as_path()),
    )
    .expect("workload name checked by the caller");
    let (steal1, total1) = steal_ticks();
    out.notes.push(format!(
        "host CPU time stolen by the hypervisor during the run: {:.1}%",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    ));
    out.print_table(workload, traced);
    out
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        let mut all = Outcome::default();
        for w in perfbench::WORKLOADS {
            for traced in [false, true] {
                let o = run_one(w, &args, traced);
                all.attempted += o.attempted;
                all.failed += o.failed;
            }
        }
        all
    } else if perfbench::WORKLOADS.contains(&args.workload.as_str()) {
        run_one(&args.workload, &args, args.trace)
    } else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
