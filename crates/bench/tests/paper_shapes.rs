//! The paper gate: every experiment of `qpp_bench::paper` on seeds 0–5 at
//! the paper's own scale, asserting the orderings and ratios Section 5
//! reports — which method wins, by what factor, where behaviour flips —
//! and never an absolute. Release only (`scripts/ci.sh`, about a minute):
//! a debug build takes minutes, and the shapes need the paper's 55
//! instances per template (at 10, Fig 7's plan-level actual/actual ≤
//! estimate/estimate fails). `--nocapture` prints both sides of every
//! check: EXPERIMENTS.md's shape table is their range over the seeds.

use qpp::PlanOrdering;
use qpp_bench::paper::{self, Fig6};
use std::sync::OnceLock;

const SEEDS: std::ops::Range<u64> = 0..6;

/// Figure 6 at every seed, shared by the Figure 5, 6 and 7 checks.
fn fig6() -> &'static [Fig6] {
    static FIG6: OnceLock<Vec<Fig6>> = OnceLock::new();
    FIG6.get_or_init(|| SEEDS.map(paper::fig6).collect())
}

/// Asserts `lo < hi`, or `lo <= hi` when `or_equal`.
fn check(shape: &str, seed: u64, lo: f64, hi: f64, or_equal: bool) {
    println!("{shape}: seed {seed}: {lo:.4} vs {hi:.4}");
    let holds = if or_equal { lo <= hi } else { lo < hi };
    assert!(holds, "{shape} fails at seed {seed}: {lo} vs {hi}");
}

#[test]
fn fig4_small_fragments_are_the_common_ones() {
    for seed in SEEDS {
        let f = paper::fig4(seed);
        let at_most_4 = f.cdf.iter().filter(|c| c.0 <= 4).map(|c| c.1).fold(0.0, f64::max);
        check("fig4: half the common sub-plans have <= 4 operators", seed, 0.5, at_most_4, true);
    }
}

#[test]
fn fig5_the_cost_model_errs_ten_times_more_than_plan_level() {
    for (seed, f6) in SEEDS.zip(fig6()) {
        let cost = paper::fig5(seed).mean;
        check(
            "fig5: 10 x plan-level <= cost model",
            seed,
            10.0 * f6.plan_10.overall_error(),
            cost,
            true,
        );
    }
}

#[test]
fn fig6_plan_level_beats_operator_level_and_10gb_beats_1gb() {
    for (seed, f) in SEEDS.zip(fig6()) {
        let [plan_10, plan_1, op_10, op_1] =
            [&f.plan_10, &f.plan_1, &f.op_10, &f.op_1].map(|o| o.overall_error());
        check("fig6: plan < op at 10 GB", seed, plan_10, op_10, false);
        check("fig6: plan < op at 1 GB", seed, plan_1, op_1, false);
        check("fig6: plan 10 GB < plan 1 GB", seed, plan_10, plan_1, false);
        check("fig6: op 10 GB < op 1 GB", seed, op_10, op_1, false);
    }
}

#[test]
fn fig7_models_absorb_systematic_estimation_errors() {
    for (seed, f6) in SEEDS.zip(fig6()) {
        let f = paper::fig7(f6);
        for (method, rows) in [("plan", &f.plan), ("op", &f.op)] {
            let [actual, estimate, mixed] = rows.each_ref().map(|o| o.overall_error());
            check(
                &format!("fig7: {method} actual/actual <= estimate/estimate"),
                seed,
                actual,
                estimate,
                true,
            );
            check(
                &format!("fig7: {method} estimate/estimate < actual/estimate"),
                seed,
                estimate,
                mixed,
                false,
            );
        }
    }
}

#[test]
fn fig8_error_based_ordering_converges_first() {
    for seed in SEEDS {
        let f = paper::fig8(seed);
        // Iterations until the training error first drops below 10 %.
        let [error_based, size_based] =
            [PlanOrdering::ErrorBased, PlanOrdering::SizeBased].map(|strategy| {
                let (_, records) =
                    f.per_strategy.iter().find(|s| s.0 == strategy).expect("strategy run");
                records.iter().position(|r| r.error < 0.1).map_or(f64::INFINITY, |i| (i + 1) as f64)
            });
        check(
            "fig8: iterations to 10 %: error-based < size-based",
            seed,
            error_based,
            size_based,
            false,
        );
    }
}

#[test]
fn fig9_the_best_hybrid_beats_operator_level_on_unseen_templates() {
    for seed in SEEDS {
        let [_, op, error_based, size_based, _] = paper::fig9(seed).average();
        check("fig9: best hybrid < op (average)", seed, error_based.min(size_based), op, false);
    }
}

#[test]
fn section34_one_subplan_model_repairs_the_worst_template_13_query() {
    for seed in SEEDS {
        let f = paper::section34(seed);
        check("section34: hybrid < op on the worst t13 query", seed, f.after, f.before, false);
    }
}

#[test]
fn ablations_keep_their_orderings() {
    for seed in SEEDS {
        let f = paper::ablation(seed);
        check(
            "ablation: with start-time features < without",
            seed,
            f.start_time.0,
            f.start_time.1,
            false,
        );
        for (i, pair) in f.noise.windows(2).enumerate() {
            check(
                &format!("ablation: noise level {i} < level {}", i + 1),
                seed,
                pair[0],
                pair[1],
                false,
            );
        }
        // Greedy paths differ with ε, so a larger ε can end a hair lower
        // (ε 0 and 1e-3 at seed 0: 7.5649 % vs 7.5643 %); "does not
        // decrease" holds to within 1 %.
        for pair in f.epsilon.windows(2) {
            let ((e0, models0, err0), (e1, models1, err1)) = (pair[0], pair[1]);
            check(
                &format!("ablation: models at eps {e1:.0e} <= at {e0:.0e}"),
                seed,
                models1 as f64,
                models0 as f64,
                true,
            );
            check(
                &format!("ablation: 0.99 x error at eps {e0:.0e} <= at {e1:.0e}"),
                seed,
                0.99 * err0,
                err1,
                true,
            );
        }
    }
}
