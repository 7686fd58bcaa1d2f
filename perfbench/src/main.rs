//! `perfbench` — the repository's benchmark of the real binaries.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload cli-ingest --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. It builds `implicate` and
//! `implicate-serve` in release mode, generates the workload's inputs
//! from `--seed`, drives the binaries from outside, checks their answers
//! against a library replay of the same input, and prints as its last
//! line one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced library replay (`--trace 1`). See
//! `PROTOCOL.md` beside this package.

mod gen;
mod json;
mod proc;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{exit, Command};

use workloads::{Bins, Ctx};

const WORKLOADS: [&str; 3] = ["cli-ingest", "cli-catalog", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad("between 1 and 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Builds both binaries from the checkout in the current directory and
/// returns their paths and the target directory.
fn build() -> Result<(Bins, PathBuf), String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "implicate",
            "-p",
            "imp-serve",
        ])
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the binaries failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = std::path::absolute(target).map_err(|e| e.to_string())?;
    let bins = Bins {
        implicate: target.join("release/implicate"),
        serve: target.join("release/implicate-serve"),
    };
    for b in [&bins.implicate, &bins.serve] {
        if !b.is_file() {
            return Err(format!("{} was not built", b.display()));
        }
    }
    Ok((bins, target))
}

fn run(args: &Args) -> Result<(), String> {
    let (bins, target) = build()?;
    let work = target.join("perfbench-work").join(&args.workload);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        bins,
        work,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "serve-mixed" => workloads::serve_mixed(&ctx)?,
        w => workloads::cli(&ctx, w)?,
    };
    let defs = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for e in &outcome.ops.errors {
        println!("error: {e}");
    }
    let ops = &outcome.ops;
    let error_rate = ops.failed as f64 / ops.attempted.max(1) as f64;
    println!(
        "{:<44} {error_rate:>16.4} ratio    ({} failed of {} attempted)",
        "error_rate", ops.failed, ops.attempted
    );
    for d in defs {
        let v = outcome.metrics.get(d.name).copied().unwrap_or(f64::NAN);
        println!(
            "{:<44} {v:>16.4} {:<8} ({} is better)",
            d.name, d.unit, d.better
        );
    }
    let result = report::RunResult {
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: outcome
            .metrics
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
    };
    let line = report::render(&result, defs);
    // The result must name every metric of the catalogue with its unit.
    report::parse(&line, defs).map_err(|e| format!("incomplete result: {e}"))?;
    println!("{line}");
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(proc::LAUNCHER) {
        exit(proc::launcher_main(&raw[1..]));
    }
    let args = parse_args(raw.into_iter()).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload {{{}}} --seed N --seconds S --trace {{0|1}}",
            WORKLOADS.join("|")
        );
        exit(2)
    });
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mixed", 7, 20.0, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "cli-ingest", "--seed", "1", "--seconds", "5"]).is_err());
        assert!(args(&[
            "--workload",
            "cli-ingest",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
