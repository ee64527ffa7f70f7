//! `qpp-e2e`: one command that prints every metric by name with its unit
//! and exits non-zero if an output check fails.
//!
//! ```text
//! qpp-e2e --workload <lib_batch|serve_open|wire_closed|train>
//!         [--seed N] [--trace [0|1]] [--seconds S]
//! qpp-e2e --smoke [--workload …] [--trace [0|1]]     (tiny counts, for the tests)
//! ```
//!
//! `--seconds` is part of the benchmark driver's calling convention and
//! is accepted for that reason alone: the work is a fixed operation
//! count ([`Sizes::FULL`]), so its value changes nothing.

use std::process::ExitCode;
use std::time::Instant;

use qpp_e2e::fixture::Sizes;
use qpp_e2e::harness::{self, Check, Outcome, Workload};
use qpp_e2e::lib_batch::LibBatch;
use qpp_e2e::report::{self, WORKLOADS};
use qpp_e2e::serve_open::ServeOpen;
use qpp_e2e::traced;
use qpp_e2e::train::Train;
use qpp_e2e::wire_closed::WireClosed;

struct Args {
    /// `None` (with `--smoke` only) runs all four in turn.
    workload: Option<String>,
    seed: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                value("--seconds")?
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match &args.workload {
        Some(name) if !WORKLOADS.contains(&name.as_str()) => Err(format!(
            "unknown workload {name:?}; expected one of {WORKLOADS:?}"
        )),
        // Only the first workload of a process starts cold, so a full run
        // is one workload per process.
        None if !args.smoke => Err(format!("--workload is required: one of {WORKLOADS:?}")),
        _ => Ok(args),
    }
}

fn print_checks(name: &str, checks: &[Check]) {
    for check in checks {
        println!(
            "# {name}: check {} — {}",
            if check.passed { "ok" } else { "FAILED" },
            check.what
        );
    }
}

/// Prints one untraced outcome; returns whether it was correct.
fn report_outcome(outcome: &Outcome) -> bool {
    let name = outcome.workload;
    println!("# {name}: {}", outcome.context);
    println!(
        "# {name}: set-up {:.3} s (median of {}), then warm-up round {:.3} s, {} rounds ({} undisturbed) in {:.2} s, ops attempted {} succeeded {} failed {}, round_cv {:.4}",
        outcome.setup_s,
        harness::SETUPS,
        outcome.warmup_s,
        outcome.rounds.len(),
        harness::undisturbed(&outcome.rounds).len(),
        outcome.rounds.iter().map(|r| r.wall_s).sum::<f64>(),
        outcome.attempted(),
        outcome.attempted() - outcome.failed(),
        outcome.failed(),
        harness::throughput_cv(&outcome.rounds)
    );
    for (r, round) in outcome.rounds.iter().enumerate() {
        println!(
            "# {name}: round {:>2}: throughput {:.1}/s p50 {:.1} us p99 {:.1} us max {:.1} us, {} of {} within the limit, wall {:.3} s, {:.2} % of CPU stolen",
            r + 1,
            round.throughput,
            round.p50_us,
            round.p99_us,
            round.max_us,
            round.within_limit,
            round.attempted,
            round.wall_s,
            round.stolen_share * 100.0
        );
    }
    // The timings that are diagnostics, not gates (`--trace 1` reports
    // them as per-layer metrics): median over rounds of the round's value,
    // and how much of the VM's CPU time the hypervisor withheld meanwhile.
    println!(
        "# {name}/client.throughput {:?} 1/s",
        harness::median_over(&outcome.rounds, |r| r.throughput)
    );
    println!(
        "# {name}/client.latency_p50_us {:?} us",
        harness::median_over(&outcome.rounds, |r| r.p50_us)
    );
    println!(
        "# {name}/client.stolen_cpu_share {:?} share",
        harness::stolen_cpu_share(&outcome.rounds)
    );
    print_checks(name, &outcome.checks);
    let metrics = report::end_to_end(outcome.end_to_end());
    report::print_metrics(name, &metrics);
    println!(
        "{}",
        report::result_json(
            outcome.correct(),
            outcome.attempted(),
            outcome.failed(),
            &metrics
        )
    );
    outcome.correct()
}

fn run_untraced(name: &str, sizes: &Sizes, seed: u64, started: Instant) -> bool {
    let outcome = match name {
        LibBatch::NAME => harness::run::<LibBatch>(sizes, seed, started),
        ServeOpen::NAME => harness::run::<ServeOpen>(sizes, seed, started),
        WireClosed::NAME => harness::run::<WireClosed>(sizes, seed, started),
        Train::NAME => harness::run::<Train>(sizes, seed, started),
        other => unreachable!("workload {other} was validated"),
    };
    report_outcome(&outcome)
}

fn run_traced(name: &str, sizes: &Sizes, seed: u64) -> bool {
    let outcome = traced::run(name, sizes, seed);
    print_checks(name, &outcome.checks);
    println!(
        "# {name}: spans written to {}",
        outcome.spans_path.display()
    );
    let correct = outcome.checks.iter().all(|c| c.passed);
    let metrics = match report::per_layer(outcome.metrics) {
        Ok(metrics) => metrics,
        Err(msg) => {
            eprintln!("qpp-e2e: {msg}");
            return false;
        }
    };
    report::print_metrics(name, &metrics);
    println!(
        "{}",
        report::result_json(correct, outcome.attempted, outcome.failed, &metrics)
    );
    correct
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("qpp-e2e: {msg}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    println!(
        "# qpp-e2e seed={} trace={} smoke={} nproc={}",
        args.seed,
        args.trace,
        args.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut correct = true;
    for (k, name) in names.iter().enumerate() {
        let t0 = if k == 0 { started } else { Instant::now() };
        correct &= if args.trace {
            run_traced(name, &sizes, args.seed)
        } else {
            run_untraced(name, &sizes, args.seed, t0)
        };
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
