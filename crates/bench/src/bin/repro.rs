//! Prints the paper's Section 5 evaluation (`qpp_bench::paper`) at seed 0,
//! one number per row: an optd-style name (`paper/fig6a/plan_mre`), the
//! measured value with its unit, and what the paper reports where it does.
//! Percentages are mean relative errors. After printing, it checks the
//! paper's orderings (`qpp_bench::shapes`) on the same results, and exits
//! non-zero naming each one that fails on stderr. The output is committed
//! as `experiments_raw.txt`, and the root test suite's `paper_repro`
//! module runs `repro` and compares its output with the file.
//!
//! ```text
//! cargo run --release -p qpp-bench --bin repro > experiments_raw.txt
//! ```

use qpp_bench::paper::{self, Ablation, Fig4, Fig5, Fig6, Fig7, Fig8, Fig9, Section34};
use qpp_bench::{shapes, CvOutcome};
use std::fmt::Display;
use std::process::ExitCode;

/// The one printer: a row's name, its value (a number with a one-letter
/// unit, or a plan) and the paper's value.
fn row(name: impl Display, value: impl Display, paper: &str) {
    let (name, paper) =
        (name.to_string(), if paper.is_empty() { String::new() } else { format!("paper {paper}") });
    println!("{}", format!("paper/{name:<40} {:>14} {paper}", value.to_string()).trim_end());
}

/// A value at `decimals` places with its unit.
fn num(value: f64, decimals: usize, unit: &str) -> String {
    format!("{value:.decimals$} {unit:<1}")
}

/// A fraction as a percentage.
fn pct(fraction: f64, decimals: usize) -> String {
    num(fraction * 100.0, decimals, "%")
}

fn count(n: usize) -> String {
    num(n as f64, 0, "")
}

fn section(title: &str) {
    println!("\n# {title}");
}

/// An error panel: one row per template and their average.
fn templates(panel: &str, out: &CvOutcome) {
    let per = out.per_template_errors();
    for (t, e) in &per {
        row(format_args!("{panel}/t{t}"), pct(*e, 1), "");
    }
    let avg = per.iter().map(|p| p.1).sum::<f64>() / per.len() as f64;
    row(format_args!("{panel}/avg"), pct(avg, 1), "");
}

/// How many templates err below `threshold`, and their mean error.
fn below(panel: &str, out: &CvOutcome, threshold: f64, paper: [&str; 2]) {
    let per = out.per_template_errors();
    let below: Vec<f64> = per.into_iter().map(|p| p.1).filter(|e| *e < threshold).collect();
    let label = format!("below_{}pct", threshold * 100.0);
    row(format_args!("{panel}/templates_{label}"), count(below.len()), paper[0]);
    // With no template below, the mean is 0 / 0: NaN.
    let mre = below.iter().sum::<f64>() / below.len() as f64;
    row(format_args!("{panel}/mre_{label}"), pct(mre, 2), paper[1]);
}

/// A scatter panel: every `stride`-th pair in `x` order (about 40 pairs),
/// then the point count.
fn scatter(panel: &str, (x, x_unit): (&str, &str), y: &str, pairs: &[(f64, f64)]) {
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let stride = (sorted.len() / 40).max(1);
    for (i, (a, b)) in sorted.iter().enumerate().step_by(stride) {
        row(format_args!("{panel}/{i:03}/{x}"), num(*a, 2, x_unit), "");
        row(format_args!("{panel}/{i:03}/{y}"), num(*b, 2, "s"), "");
    }
    row(format_args!("{panel}/points"), count(sorted.len()), "");
}

fn fig5(f: &Fig5) {
    section("Section 5.2 / Fig 5: latency from the optimizer's cost estimate, 18 templates, 10 GB");
    row("fig5/queries", count(f.queries), "960");
    row("fig5/min_rel_err", pct(f.min, 0), "30");
    row("fig5/mean_rel_err", pct(f.mean, 0), "120");
    row("fig5/max_rel_err", pct(f.max, 0), "1744");
    row("fig5/predictive_risk", num(f.risk, 2, ""), "0.93");
    scatter("fig5", ("cost", ""), "latency", &f.pairs);
    let (lo, hi, spread) = f.similar_latency;
    row("fig5/similar_latency/lo", num(lo, 0, "s"), "");
    row("fig5/similar_latency/hi", num(hi, 0, "s"), "");
    row("fig5/similar_latency/cost_spread", num(spread, 1, "x"), "an order of magnitude");
}

fn fig6(f: &Fig6) {
    let pairs =
        |out: &CvOutcome| -> Vec<(f64, f64)> { out.rows.iter().map(|r| (r.1, r.2)).collect() };
    section("Fig 6(a)/(b): plan-level, 18 templates, 10 GB");
    templates("fig6a", &f.plan_10);
    row("fig6a/plan_mre", pct(f.plan_10.overall_error(), 2), "6.75 (t9 80.1)");
    for &(t, dropped, kept) in &f.timed_out {
        let paper = if t == 9 { ["38", "17"] } else { ["", ""] };
        row(format_args!("fig6a/t{t}/timed_out"), count(dropped), paper[0]);
        row(format_args!("fig6a/t{t}/kept"), count(kept), paper[1]);
    }
    scatter("fig6b", ("actual", "s"), "estimate", &pairs(&f.plan_10));
    section("Fig 6(c): plan-level, 18 templates, 1 GB");
    templates("fig6c", &f.plan_1);
    row("fig6c/plan_mre", pct(f.plan_1.overall_error(), 2), "17.43");
    section("Fig 6(d)/(e): operator-level, 14 templates, 10 GB");
    templates("fig6d", &f.op_10);
    below("fig6d", &f.op_10, 0.2, ["11", "7.3"]);
    row("fig6d/op_mre", pct(f.op_10.overall_error(), 2), "53.92");
    scatter("fig6e", ("actual", "s"), "estimate", &pairs(&f.op_10));
    section("Fig 6(f): operator-level, 14 templates, 1 GB");
    templates("fig6f", &f.op_1);
    below("fig6f", &f.op_1, 0.25, ["8", "16.45"]);
    row("fig6f/op_mre", pct(f.op_1.overall_error(), 2), "59.57");
}

fn fig7(f: &Fig7) {
    section("Fig 7(a): train/test feature sources, 10 GB");
    let rows = [
        ("actual_actual", "best"),
        ("estimate_estimate", "close behind"),
        ("actual_estimate", "much worse"),
    ];
    for (i, (train_test, paper)) in rows.into_iter().enumerate() {
        row(format_args!("fig7a/plan/{train_test}"), pct(f.plan[i].overall_error(), 2), paper);
        row(format_args!("fig7a/op/{train_test}"), pct(f.op[i].overall_error(), 2), paper);
    }
    section("Fig 7(b): plan-level trained and tested on actual values, 10 GB");
    templates("fig7b", &f.plan[0]);
    row("fig7b/plan_mre", pct(f.plan[0].overall_error(), 2), "close to 6(a), one 54.4 spike");
}

fn fig8(f: &Fig8) {
    section("Fig 8: hybrid training error per iteration, 14 templates, 10 GB");
    let names = ["error_based", "size_based", "frequency_based"];
    for (name, (_, records)) in names.iter().zip(&f.per_strategy) {
        let accepted: Vec<&String> =
            records.iter().filter(|r| r.accepted).map(|r| &r.description).collect();
        row(format_args!("fig8/{name}/iterations"), count(records.len()), "");
        row(format_args!("fig8/{name}/accepted"), count(accepted.len()), "");
        for (k, plan) in accepted.iter().take(6).enumerate() {
            row(format_args!("fig8/{name}/accepted/{}", k + 1), plan, "");
        }
    }
    for i in 0..f.per_strategy.iter().map(|s| s.1.len()).max().unwrap_or(0) {
        for (name, (_, records)) in names.iter().zip(&f.per_strategy) {
            if let Some(r) = records.get(i) {
                row(format_args!("fig8/iter{:02}/{name}", i + 1), pct(r.error, 1), "");
            }
        }
    }
}

fn fig9(f: &Fig9) {
    section("Fig 9: leave-one-template-out, 12 templates, 10 GB");
    let methods = ["plan", "op", "error_based", "size_based", "online"];
    let rows = f.rows.iter().map(|(t, errors)| (format!("t{t}"), *errors));
    for (label, errors) in rows.chain([("avg".to_string(), f.average())]) {
        for (method, e) in methods.iter().zip(errors) {
            row(format_args!("fig9/{label}/{method}"), pct(e, 1), "");
        }
    }
}

fn fig4(f: &Fig4) {
    section("Fig 4: common sub-plans, 14 templates, 10 GB (plans only)");
    for &(size, cdf) in &f.cdf {
        row(format_args!("fig4a/size{size}/cdf"), num(cdf, 3, ""), "");
    }
    for (k, s) in f.most_common.iter().enumerate() {
        row(format_args!("fig4b/{}/occurrences", k + 1), count(s.frequency()), "");
        row(format_args!("fig4b/{}/templates", k + 1), count(s.templates.len()), "");
        row(format_args!("fig4b/{}/operators", k + 1), count(s.size), "");
        row(format_args!("fig4b/{}/plan", k + 1), &s.description, "");
    }
    for &(t, n) in &f.sharing {
        row(format_args!("fig4c/t{t}/shares_with"), count(n), if t == 6 { "0" } else { ">= 1" });
    }
}

fn section34(f: &Section34) {
    section("Section 3.4: hybrid QPP on the worst template-13 query, 10 GB");
    row("section34/latency", num(f.latency, 1, "s"), "");
    row("section34/op_rel_err", pct(f.before, 0), "114");
    for &(i, op, actual, predicted, error) in &f.operators {
        row(format_args!("section34/node{i:02}/operator"), op, "");
        row(format_args!("section34/node{i:02}/actual"), num(actual, 2, "s"), "");
        row(format_args!("section34/node{i:02}/predicted"), num(predicted, 2, "s"), "");
        row(format_args!("section34/node{i:02}/rel_err"), pct(error, 1), "");
    }
    let (node, plan, error) = &f.root_cause;
    row("section34/root_cause/node", count(*node), "");
    row("section34/root_cause/plan", plan, "");
    row("section34/root_cause/rel_err", pct(*error, 0), "97 (a Materialize)");
    row("section34/hybrid_rel_err", pct(f.after, 0), "14");
}

fn ablation(f: &Ablation) {
    section("Ablations (DESIGN.md §6), 1 GB");
    for &(n, selected, full) in &f.feature_selection {
        row(format_args!("ablation/feature_selection/{n}/selected"), pct(selected, 2), "");
        row(format_args!("ablation/feature_selection/{n}/full"), pct(full, 2), "often worse");
    }
    row("ablation/learner/svr", pct(f.svr_linear.0, 2), "");
    row("ablation/learner/linear", pct(f.svr_linear.1, 2), "");
    row("ablation/start_time/with", pct(f.start_time.0, 2), "");
    row("ablation/start_time/without", pct(f.start_time.1, 2), "");
    for &(epsilon, models, error) in &f.epsilon {
        row(format_args!("ablation/epsilon/{epsilon:.0e}/models"), count(models), "");
        row(format_args!("ablation/epsilon/{epsilon:.0e}/final_err"), pct(error, 2), "");
    }
    for (label, e) in ["none", "multiplicative", "default", "heavy"].iter().zip(f.noise) {
        row(format_args!("ablation/noise/{label}"), pct(e, 2), "");
    }
}

fn main() -> ExitCode {
    let seed = 0;
    let f5 = paper::fig5(seed);
    fig5(&f5);
    let f6 = paper::fig6(seed);
    fig6(&f6);
    let f7 = paper::fig7(&f6);
    fig7(&f7);
    let f8 = paper::fig8(seed);
    fig8(&f8);
    let f9 = paper::fig9(seed);
    fig9(&f9);
    let f4 = paper::fig4(seed);
    fig4(&f4);
    let s34 = paper::section34(seed);
    section34(&s34);
    let abl = paper::ablation(seed);
    ablation(&abl);
    let shapes = [
        shapes::fig4(&f4),
        shapes::fig5(&f5, &f6),
        shapes::fig6(&f6),
        shapes::fig7(&f7),
        shapes::fig8(&f8),
        shapes::fig9(&f9),
        shapes::section34(&s34),
        shapes::ablation(&abl),
    ];
    let failed: Vec<_> = shapes.iter().flatten().filter(|s| !s.holds()).collect();
    for shape in &failed {
        eprintln!("paper shape fails at seed {seed}: {shape}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
