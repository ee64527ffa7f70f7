//! The paper gate: every experiment of `qpp_bench::paper` on seeds 0–5 at
//! the paper's own scale, asserting the orderings of `qpp_bench::shapes`
//! (which method wins, by what factor, where behaviour flips) and never
//! an absolute. Release only (`scripts/ci.sh`, about a minute): a debug
//! build takes minutes, and the shapes need the paper's 55 instances per
//! template (at 10, Fig 7's plan-level actual/actual ≤ estimate/estimate
//! fails). `--nocapture` prints both sides of every check: EXPERIMENTS.md's
//! shape table is their range over the seeds.

use qpp_bench::paper::{self, Fig6};
use qpp_bench::shapes::{self, Shape};
use std::sync::OnceLock;

const SEEDS: std::ops::Range<u64> = 0..6;

/// Figure 6 at every seed, shared by the Figure 5, 6 and 7 checks.
fn fig6() -> &'static [Fig6] {
    static FIG6: OnceLock<Vec<Fig6>> = OnceLock::new();
    FIG6.get_or_init(|| SEEDS.map(paper::fig6).collect())
}

/// Prints and asserts each of `shapes` at `seed`.
fn check(seed: u64, shapes: Vec<Shape>) {
    for shape in shapes {
        println!("seed {seed}: {shape}");
        assert!(shape.holds(), "fails at seed {seed}: {shape:?}");
    }
}

#[test]
fn fig4_small_fragments_are_the_common_ones() {
    for seed in SEEDS {
        check(seed, shapes::fig4(&paper::fig4(seed)));
    }
}

#[test]
fn fig5_the_cost_model_errs_ten_times_more_than_plan_level() {
    for (seed, f6) in SEEDS.zip(fig6()) {
        check(seed, shapes::fig5(&paper::fig5(seed), f6));
    }
}

#[test]
fn fig6_plan_level_beats_operator_level_and_10gb_beats_1gb() {
    for (seed, f6) in SEEDS.zip(fig6()) {
        check(seed, shapes::fig6(f6));
    }
}

#[test]
fn fig7_models_absorb_systematic_estimation_errors() {
    for (seed, f6) in SEEDS.zip(fig6()) {
        check(seed, shapes::fig7(&paper::fig7(f6)));
    }
}

#[test]
fn fig8_error_based_ordering_converges_first() {
    for seed in SEEDS {
        check(seed, shapes::fig8(&paper::fig8(seed)));
    }
}

#[test]
fn fig9_the_best_hybrid_beats_operator_level_on_unseen_templates() {
    for seed in SEEDS {
        check(seed, shapes::fig9(&paper::fig9(seed)));
    }
}

#[test]
fn section34_one_subplan_model_repairs_the_worst_template_13_query() {
    for seed in SEEDS {
        check(seed, shapes::section34(&paper::section34(seed)));
    }
}

#[test]
fn ablations_keep_their_orderings() {
    for seed in SEEDS {
        check(seed, shapes::ablation(&paper::ablation(seed)));
    }
}
