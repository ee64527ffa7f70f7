//! The orderings Section 5 reports — which method wins, by what factor,
//! where behaviour flips — as one list over the experiments' results, and
//! never an absolute. `tests/paper_shapes.rs` asserts it on seeds 0–5, and
//! the `repro` binary on the seed-0 results it prints (it exits non-zero
//! and names each shape that fails). EXPERIMENTS.md's shape table is the
//! range of both sides over the seeds.

use crate::paper::{Ablation, Fig4, Fig5, Fig6, Fig7, Fig8, Fig9, Section34};
use qpp::PlanOrdering;
use std::fmt;

/// One ordering: `lo < hi`, or `lo <= hi` when `or_equal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// What the ordering says, e.g. `fig6: plan < op at 10 GB`.
    pub name: String,
    /// The side that must be lower.
    pub lo: f64,
    /// The side that must be higher.
    pub hi: f64,
    /// Whether equal sides hold.
    pub or_equal: bool,
}

impl Shape {
    fn new(name: impl Into<String>, lo: f64, hi: f64, or_equal: bool) -> Shape {
        Shape { name: name.into(), lo, hi, or_equal }
    }

    /// Whether the ordering holds.
    pub fn holds(&self) -> bool {
        if self.or_equal {
            self.lo <= self.hi
        } else {
            self.lo < self.hi
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {:.4} vs {:.4}", self.name, self.lo, self.hi)
    }
}

/// Figure 4: small fragments are the common ones.
pub fn fig4(f: &Fig4) -> Vec<Shape> {
    let at_most_4 = f.cdf.iter().filter(|c| c.0 <= 4).map(|c| c.1).fold(0.0, f64::max);
    vec![Shape::new("fig4: half the common sub-plans have <= 4 operators", 0.5, at_most_4, true)]
}

/// Figure 5: the cost model errs ten times more than plan-level models
/// (Figure 6's 10 GB outcome at the same seed).
pub fn fig5(f: &Fig5, fig6: &Fig6) -> Vec<Shape> {
    let plan_10 = fig6.plan_10.overall_error();
    vec![Shape::new("fig5: 10 x plan-level <= cost model", 10.0 * plan_10, f.mean, true)]
}

/// Figure 6: plan-level beats operator-level, and 10 GB beats 1 GB.
pub fn fig6(f: &Fig6) -> Vec<Shape> {
    let [plan_10, plan_1, op_10, op_1] =
        [&f.plan_10, &f.plan_1, &f.op_10, &f.op_1].map(|o| o.overall_error());
    vec![
        Shape::new("fig6: plan < op at 10 GB", plan_10, op_10, false),
        Shape::new("fig6: plan < op at 1 GB", plan_1, op_1, false),
        Shape::new("fig6: plan 10 GB < plan 1 GB", plan_10, plan_1, false),
        Shape::new("fig6: op 10 GB < op 1 GB", op_10, op_1, false),
    ]
}

/// Figure 7: models absorb systematic estimation errors.
pub fn fig7(f: &Fig7) -> Vec<Shape> {
    [("plan", &f.plan), ("op", &f.op)]
        .into_iter()
        .flat_map(|(method, rows)| {
            let [actual, estimate, mixed] = rows.each_ref().map(|o| o.overall_error());
            [
                Shape::new(
                    format!("fig7: {method} actual/actual <= estimate/estimate"),
                    actual,
                    estimate,
                    true,
                ),
                Shape::new(
                    format!("fig7: {method} estimate/estimate < actual/estimate"),
                    estimate,
                    mixed,
                    false,
                ),
            ]
        })
        .collect()
}

/// Figure 8: error-based ordering is the first under 10 % training error.
pub fn fig8(f: &Fig8) -> Vec<Shape> {
    // Iterations until the training error first drops below 10 %.
    let [error_based, size_based] =
        [PlanOrdering::ErrorBased, PlanOrdering::SizeBased].map(|strategy| {
            let (_, records) =
                f.per_strategy.iter().find(|s| s.0 == strategy).expect("strategy run");
            records.iter().position(|r| r.error < 0.1).map_or(f64::INFINITY, |i| (i + 1) as f64)
        });
    vec![Shape::new(
        "fig8: iterations to 10 %: error-based < size-based",
        error_based,
        size_based,
        false,
    )]
}

/// Figure 9: the better hybrid beats operator-level on unseen templates.
pub fn fig9(f: &Fig9) -> Vec<Shape> {
    let [_, op, error_based, size_based, _] = f.average();
    vec![Shape::new("fig9: best hybrid < op (average)", error_based.min(size_based), op, false)]
}

/// Section 3.4: one sub-plan model repairs the worst template-13 query.
pub fn section34(f: &Section34) -> Vec<Shape> {
    vec![Shape::new("section34: hybrid < op on the worst t13 query", f.after, f.before, false)]
}

/// The ablations keep their orderings.
pub fn ablation(f: &Ablation) -> Vec<Shape> {
    let mut shapes = vec![Shape::new(
        "ablation: with start-time features < without",
        f.start_time.0,
        f.start_time.1,
        false,
    )];
    for (i, pair) in f.noise.windows(2).enumerate() {
        shapes.push(Shape::new(
            format!("ablation: noise level {i} < level {}", i + 1),
            pair[0],
            pair[1],
            false,
        ));
    }
    // Greedy paths differ with ε, so a larger ε can end a hair lower
    // (ε 0 and 1e-3 at seed 0: 7.5649 % vs 7.5643 %); "does not
    // decrease" holds to within 1 %.
    for pair in f.epsilon.windows(2) {
        let ((e0, models0, err0), (e1, models1, err1)) = (pair[0], pair[1]);
        shapes.push(Shape::new(
            format!("ablation: models at eps {e1:.0e} <= at {e0:.0e}"),
            models1 as f64,
            models0 as f64,
            true,
        ));
        shapes.push(Shape::new(
            format!("ablation: 0.99 x error at eps {e0:.0e} <= at {e1:.0e}"),
            0.99 * err0,
            err1,
            true,
        ));
    }
    shapes
}
