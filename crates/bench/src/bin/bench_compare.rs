//! Diff a fresh `BENCH-v2` run against a committed baseline, or validate
//! documents against the schema.
//!
//! ```text
//! bench_compare --check-schema FILE...
//! bench_compare BASELINE FRESH [--noise FRAC] [--filter PREFIX]
//! ```
//!
//! Schema mode parses and validates each file, exiting non-zero on the
//! first malformed document — CI runs it over every committed BENCH_*.txt
//! so the contract can't silently drift.
//!
//! Compare mode diffs `FRESH` against `BASELINE` entry by entry. The
//! regression direction comes from each entry's unit; a gated metric that
//! moved the wrong way by more than the noise band (default 25%), or that
//! disappeared from the fresh run, fails the gate with exit code 1.
//! Informational entries are printed but never gated.

use qpp_bench::schema::{compare, BenchDoc, Direction};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_compare --check-schema FILE...");
    eprintln!("       bench_compare BASELINE FRESH [--noise FRAC] [--filter PREFIX]");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<BenchDoc, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: read failed: {e}"))?;
    let doc = BenchDoc::parse(&text).map_err(|e| format!("{path}: parse failed: {e}"))?;
    doc.validate().map_err(|e| format!("{path}: invalid: {e}"))?;
    Ok(doc)
}

fn check_schema(files: &[String]) -> ExitCode {
    let mut failed = false;
    for path in files {
        match load(path) {
            Ok(doc) => println!(
                "ok      {path} (tool={}, pr={}, {} benches)",
                doc.tool,
                doc.pr,
                doc.benches.len()
            ),
            Err(e) => {
                eprintln!("FAIL    {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_compare(
    baseline_path: &str,
    fresh_path: &str,
    noise: f64,
    filter: Option<&str>,
) -> ExitCode {
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for e in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("FAIL    {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "comparing {fresh_path} (fresh) against {baseline_path} (baseline), \
         noise band {:.0}%{}",
        noise * 100.0,
        filter.map(|p| format!(", filter {p:?}")).unwrap_or_default()
    );
    let report = compare(&baseline, &fresh, noise, filter);
    for d in &report.deltas {
        let tag = match (d.direction, d.regressed) {
            (Direction::Info, _) => "info",
            (_, true) => "REGRESSED",
            (_, false) => "ok",
        };
        println!(
            "{tag:<9} {:<44} {:>14.6} -> {:>14.6} {:<9} ({:.2}x)",
            d.name, d.baseline, d.fresh, d.unit, d.ratio
        );
    }
    for name in &report.missing_in_fresh {
        println!("MISSING   {name} (gated metric absent from fresh run)");
    }
    if report.passed() {
        println!("PASS: {} metrics within the noise band", report.deltas.len());
        ExitCode::SUCCESS
    } else {
        let n = report.deltas.iter().filter(|d| d.regressed).count()
            + report.missing_in_fresh.len();
        println!("FAIL: {n} metric(s) regressed beyond the noise band");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check-schema") {
        if args.len() < 2 {
            return usage();
        }
        return check_schema(&args[1..]);
    }
    if args.len() < 2 {
        return usage();
    }
    let (baseline, fresh) = (&args[0], &args[1]);
    let mut noise = 0.25;
    let mut filter: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--noise" if i + 1 < args.len() => {
                noise = match args[i + 1].parse() {
                    Ok(v) => v,
                    Err(_) => return usage(),
                };
                i += 2;
            }
            "--filter" if i + 1 < args.len() => {
                filter = Some(args[i + 1].clone());
                i += 2;
            }
            _ => return usage(),
        }
    }
    run_compare(baseline, fresh, noise, filter.as_deref())
}
