//! The second-order working-set rule held against the first-order one it
//! replaced.
//!
//! Both rules run through the same solver loop (`svr::smo_solve`), so
//! what is compared here is the rule alone: the same optimum must be
//! reached (KKT gap, dual objective, training-row predictions), by a path
//! that is never longer. Every
//! quantity asserted on is recomputed here from the returned dual
//! variables, not read from the solver's own bookkeeping.

use crate::linalg::scan_violating;
use crate::smo_vector_props::training_set;
use crate::svr::{
    first_order_j, second_order_j, smo_solve, Kernel, Prepared, SmoExit, SmoOutcome, C, EPSILON,
    MAX_ITER, STALL_SLACK, TOL,
};
use crate::{Dataset, Learner, MlError, TrainedModel};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The `smo_vector_props` seed grid: shapes × seeds.
fn grid() -> Vec<(Dataset, Vec<f64>)> {
    let mut cases = Vec::new();
    for &(l, d) in &[(12usize, 2usize), (30, 3), (65, 1), (90, 4)] {
        for seed in 0..2u64 {
            cases.push(training_set(l, d, seed));
        }
    }
    cases
}

/// The kernel every fit uses: RBF at the default width.
const RBF: Kernel = Kernel::Rbf { gamma: 0.0 };

/// `K (a_up - a_down)`: the kernel expansion at every training row.
fn expansion(a: &[f64], k: &[f64]) -> Vec<f64> {
    let l = a.len() / 2;
    (0..l)
        .map(|t| (0..l).map(|u| k[t * l + u] * (a[u] - a[u + l])).sum())
        .collect()
}

/// Linear term of the dual: `eps - y` then `eps + y`.
fn linear_term(ys: &[f64], eps: f64) -> Vec<f64> {
    let up = ys.iter().map(|y| eps - y);
    let down = ys.iter().map(|y| eps + y);
    up.chain(down).collect()
}

/// Gradient `Q̄a + p` from scratch.
fn gradient(a: &[f64], k: &[f64], p: &[f64]) -> Vec<f64> {
    let l = a.len() / 2;
    let f = expansion(a, k);
    (0..2 * l)
        .map(|t| if t < l { f[t] + p[t] } else { -f[t - l] + p[t] })
        .collect()
}

/// Dual objective `0.5 aᵀQ̄a + pᵀa = 0.5 Σ a_t (g_t + p_t)`.
fn objective(a: &[f64], g: &[f64], p: &[f64]) -> f64 {
    0.5 * a
        .iter()
        .zip(g)
        .zip(p)
        .map(|((a, g), p)| a * (g + p))
        .sum::<f64>()
}

/// Maximal KKT violation of the epsilon dual (one constraint: the second
/// half is scanned with its sign flipped).
fn eps_gap(a: &[f64], g: &[f64], c: f64) -> f64 {
    let l = a.len() / 2;
    let mut sel = scan_violating::<false>(&a[..l], &g[..l], c);
    sel.merge_later(scan_violating::<true>(&a[l..], &g[l..], c), l);
    sel.g_max - sel.g_min
}

/// One solve, re-measured: everything the comparison needs.
struct Measured {
    exit: SmoExit,
    iterations: usize,
    gap: f64,
    objective: f64,
    /// Standardized predictions at the training rows.
    fitted: Vec<f64>,
}

fn measure(out: &SmoOutcome, k: &[f64], p: &[f64], c: f64) -> Measured {
    let g = gradient(&out.a, k, p);
    Measured {
        exit: out.exit,
        iterations: out.iterations,
        gap: eps_gap(&out.a, &g, c),
        objective: objective(&out.a, &g, p),
        fitted: expansion(&out.a, k).iter().map(|f| f + out.bias).collect(),
    }
}

/// One problem solved by both rules: both end inside the stopping rule,
/// at the same optimum. (Path length is asserted by the caller.)
fn assert_same_optimum(what: &str, tol: f64, first: &Measured, second: &Measured) {
    for (rule, m) in [("first-order", first), ("second-order", second)] {
        // The gradient recomputed from the dual variables differs from
        // the solver's incrementally updated one by rounding only.
        let bound = match m.exit {
            SmoExit::Kkt => tol,
            SmoExit::Stalled => STALL_SLACK * tol,
            SmoExit::IterationCap => panic!("{what}: {rule} rule ran out of iterations"),
        };
        assert!(
            m.gap < bound + 1e-9,
            "{what}: {rule} rule ended ({:?}) with gap {} >= {bound}",
            m.exit,
            m.gap
        );
    }
    // A KKT gap below `tol` bounds a solve's distance from the optimum by
    // `tol` times the dual mass that could still move, so two converged
    // solves agree to `tol` relative to the objective's size, not to an
    // absolute `tol`.
    assert!(
        second.objective <= first.objective + tol * (1.0 + first.objective.abs()),
        "{what}: second-order objective {} worse than first-order {} beyond tol",
        second.objective,
        first.objective
    );
    // Standardized targets have unit standard deviation, so 0.01 is 1 %
    // of the target's standard deviation.
    for (t, (f1, f2)) in first.fitted.iter().zip(&second.fitted).enumerate() {
        assert!(
            (f1 - f2).abs() <= 0.01,
            "{what}: training row {t} predicted {f1} vs {f2}"
        );
    }
}

#[test]
fn epsilon_solver_reaches_the_first_order_optimum_in_no_more_steps() {
    for (x, y) in grid() {
        let pre = Prepared::new(&x, &y, RBF);
        let k = crate::gram::compute_gram_blocked(&pre.xs, RBF, pre.gamma);
        let p = linear_term(&pre.ys, EPSILON);
        let solve = |first_order: bool| {
            let out = if first_order {
                smo_solve(&pre.xs, &pre.ys, pre.gamma, MAX_ITER, first_order_j)
            } else {
                smo_solve(&pre.xs, &pre.ys, pre.gamma, MAX_ITER, second_order_j)
            };
            assert!(out.converged());
            measure(&out, &k, &p, C)
        };
        let what = format!("epsilon-SVR {}x{}", x.n_rows(), x.n_cols());
        let (first, second) = (solve(true), solve(false));
        assert_same_optimum(&what, TOL, &first, &second);
        assert!(
            second.iterations <= first.iterations,
            "{what}: second-order took {} steps, first-order {}",
            second.iterations,
            first.iterations
        );
    }
}

#[test]
fn a_stall_far_from_kkt_is_not_convergence() {
    let (x, y) = training_set(12, 2, 0);
    let pre = Prepared::new(&x, &y, RBF);
    let stalled = |gap: f64| SmoOutcome {
        a: vec![0.0; 24],
        bias: 0.0,
        exit: SmoExit::Stalled,
        iterations: 7,
        gap,
    };
    assert!(stalled(STALL_SLACK * TOL * 0.99).converged());
    let far = stalled(STALL_SLACK * TOL);
    assert!(!far.converged());
    // ... which `fit` reports as the error the ridge fallback catches.
    let err = far.into_model(RBF, pre).unwrap_err();
    assert_eq!(err, MlError::DidNotConverge { iterations: 7 });
}

/// Epsilon-SVR as a [`Learner`] that adds up the SMO steps of its fits.
struct CountingSvr<R> {
    rule: R,
    fits: AtomicUsize,
    iterations: AtomicUsize,
}

impl<R> CountingSvr<R> {
    fn new(rule: R) -> Self {
        CountingSvr {
            rule,
            fits: AtomicUsize::new(0),
            iterations: AtomicUsize::new(0),
        }
    }

    fn mean_iterations(&self) -> f64 {
        self.iterations.load(Ordering::Relaxed) as f64 / self.fits.load(Ordering::Relaxed) as f64
    }
}

impl<R> Learner for CountingSvr<R>
where
    R: Fn(&crate::svr::DualState<'_>, &crate::linalg::ScanResult, &mut [f64]) -> usize + Sync,
{
    fn fit(&self, x: &Dataset, y: &[f64]) -> Result<TrainedModel, MlError> {
        let pre = Prepared::new(x, y, RBF);
        let out = smo_solve(&pre.xs, &pre.ys, pre.gamma, MAX_ITER, &self.rule);
        self.fits.fetch_add(1, Ordering::Relaxed);
        self.iterations.fetch_add(out.iterations, Ordering::Relaxed);
        out.into_model(RBF, pre).map(TrainedModel::Svr)
    }
}

/// The benchmark fixture's training log (`crates/e2e`: `DATA_SEED` 42,
/// sf 0.1, 7 templates × 20 queries, drawn through `rng::StdRng`), as
/// `PlanLevelModel::train` sees it: the plan-level design matrix, the
/// latency target and each row's stratified test fold (`seed` 42).
const PLAN_LOG: &str = include_str!("../testdata/plan_log_seed42.csv");

pub(crate) struct PlanLog {
    names: Vec<String>,
    pub(crate) x: Dataset,
    /// `ln(1 + latency)`, the plan-level training target.
    pub(crate) y: Vec<f64>,
    pub(crate) folds: Vec<crate::cv::Fold>,
}

pub(crate) fn plan_log() -> PlanLog {
    let mut lines = PLAN_LOG.lines();
    let names: Vec<String> = lines
        .next()
        .expect("header line")
        .split(',')
        .skip(2)
        .map(str::to_string)
        .collect();
    let mut x = Dataset::new(names.len());
    let (mut y, mut fold_of) = (Vec::new(), Vec::new());
    for line in lines {
        let mut cells = line.split(',');
        fold_of.push(cells.next().expect("fold").parse::<usize>().expect("fold"));
        let latency: f64 = cells.next().expect("latency").parse().expect("latency");
        y.push((latency.max(0.0) + 1.0).ln());
        let row: Vec<f64> = cells.map(|c| c.parse().expect("feature")).collect();
        x.push_row(&row);
    }
    let n = y.len();
    let folds = (0..5)
        .map(|f| crate::cv::Fold {
            train: (0..n).filter(|&i| fold_of[i] != f).collect(),
            test: (0..n).filter(|&i| fold_of[i] == f).collect(),
        })
        .collect();
    PlanLog { names, x, y, folds }
}

/// Forward selection plus the final fit, as `FeatureModel::train` runs
/// them; returns the selected feature names.
fn train_plan_level<L: Learner + Sync>(log: &PlanLog, learner: &L) -> Vec<String> {
    let selection = crate::ForwardSelection::default();
    let sel =
        crate::feature_selection::select_refitting(&selection, learner, &log.x, &log.y, &log.folds);
    learner
        .fit(&log.x.select_columns(&sel.selected), &log.y)
        .expect("final fit");
    sel.selected.iter().map(|&j| log.names[j].clone()).collect()
}

#[test]
fn fixture_log_trains_in_about_one_step_per_row() {
    let log = plan_log();
    assert_eq!((log.x.n_rows(), log.x.n_cols()), (140, 33));
    let expected = ["p_width", "p_st_cost", "seq_scan_rows", "sort_cnt"];

    let second = CountingSvr::new(second_order_j);
    assert_eq!(train_plan_level(&log, &second), expected);
    let fits = second.fits.load(Ordering::Relaxed);
    assert_eq!(
        fits, 51,
        "11 candidate sets, of which `aggregate_cnt` is bit-equal to the just \
         rejected `aggregate_rows` and inherits its error, x 5 folds + the final fit"
    );
    assert!(
        second.mean_iterations() <= 150.0,
        "mean SMO steps per fit: {}",
        second.mean_iterations()
    );

    // The rule it replaced: same selection, same number of fits, an
    // order of magnitude more steps.
    let first = CountingSvr::new(first_order_j);
    assert_eq!(train_plan_level(&log, &first), expected);
    assert_eq!(first.fits.load(Ordering::Relaxed), fits);
    assert!(
        first.mean_iterations() >= 10.0 * second.mean_iterations(),
        "first-order {} vs second-order {}",
        first.mean_iterations(),
        second.mean_iterations()
    );
}
