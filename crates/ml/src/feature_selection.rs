//! Correlation-ranked forward feature selection (Section 2 of the paper).
//!
//! The paper observes that models using the *full* plan-level feature set
//! are frequently *less* accurate than models using a small selected subset,
//! and uses a best-first forward-selection algorithm guided by linear
//! correlation coefficients (after Witten & Frank). This module implements
//! that procedure:
//!
//! 1. Rank candidate features by |Pearson correlation| with the target.
//! 2. Starting from the empty set, repeatedly try adding the next-ranked
//!    feature; keep it if cross-validated error improves.
//! 3. Stop after `patience` consecutive non-improving additions (best-first
//!    with a bounded frontier).
//!
//! A candidate subset is scored by cross-validation, and how depends on
//! the model family ([`LearnerKind`]). A linear candidate is solved from
//! one normal-equation system per fold, built once for the whole search
//! over every column ([`crate::linreg`]); its fits are those of a refit,
//! bit for bit, without copying a row. An SVR candidate is refitted: each
//! fold's rows of the candidate's columns are copied once and fitted
//! (an SVR standardises each fit on its own rows, so no per-fold state
//! carries over between candidates).
//!
//! Plan-level features duplicate each other on narrow workloads (a count
//! and a row total that coincide on every query of the log). A candidate
//! whose column is bit-equal to one already rejected against the same
//! selected set would be scored on the very same matrix, so it takes that
//! candidate's error without being scored; it still counts as a
//! non-improving addition.

use crate::cv::{cross_validate_columns, CrossValidation, Fold};
use crate::dataset::Dataset;
use crate::linreg::FoldSystems;
use crate::stats::pearson;
use crate::{Learner, LearnerKind, MlError};

/// Minimum relative improvement of CV error for a feature to be kept.
const MIN_IMPROVEMENT: f64 = 1e-3;

/// Configuration for forward selection.
#[derive(Debug, Clone)]
pub struct ForwardSelection {
    /// Number of consecutive non-improving candidate features tolerated
    /// before the search stops.
    pub patience: usize,
    /// Upper bound on the number of selected features (0 = unlimited).
    pub max_features: usize,
}

impl Default for ForwardSelection {
    fn default() -> Self {
        ForwardSelection {
            patience: 4,
            max_features: 0,
        }
    }
}

/// Outcome of a forward-selection run.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Selected column indices into the original dataset, in the order they
    /// were accepted.
    pub selected: Vec<usize>,
    /// Cross-validated mean relative error of the final subset.
    pub cv_error: f64,
    /// The final subset's out-of-fold prediction for every row
    /// ([`crate::CrossValidation::predictions`]); NaN when its
    /// cross-validation failed.
    pub predictions: Vec<f64>,
}

/// Ranks all columns of `x` by |Pearson correlation| with `y`, strongest
/// first; ties keep column order. A constant column, or one holding a
/// non-finite value, ranks as correlation 0.
pub(crate) fn rank_by_correlation(x: &Dataset, y: &[f64]) -> Vec<usize> {
    let mut column = Vec::with_capacity(x.n_rows());
    let mut ranked: Vec<(usize, f64)> = (0..x.n_cols())
        .map(|j| {
            column.clear();
            column.extend(x.rows().map(|row| row[j]));
            let r = pearson(&column, y).abs();
            (j, if r.is_nan() { 0.0 } else { r })
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked.into_iter().map(|(j, _)| j).collect()
}

/// Runs best-first forward selection of feature columns for `learner`.
///
/// `folds` provides the cross-validation splits used to score subsets; the
/// same folds are reused for every candidate so scores are comparable.
///
/// Guarantees at least one feature is selected (the top-correlated one)
/// even if no candidate beats the empty baseline.
pub fn forward_select(
    config: &ForwardSelection,
    learner: &LearnerKind,
    x: &Dataset,
    y: &[f64],
    folds: &[Fold],
) -> Result<SelectionResult, MlError> {
    x.check_targets(y)?;
    Ok(match learner {
        LearnerKind::Linear { ridge } => {
            let systems = FoldSystems::new(*ridge, x, y, folds);
            select(config, x, y, |cols| systems.cross_validate(cols))
        }
        LearnerKind::Svr(_) => select_refitting(config, learner, x, y, folds),
    })
}

/// Forward selection that scores every candidate by refitting `learner`
/// on each fold (the SVR path of [`forward_select`]).
pub(crate) fn select_refitting<L: Learner + Sync>(
    config: &ForwardSelection,
    learner: &L,
    x: &Dataset,
    y: &[f64],
    folds: &[Fold],
) -> SelectionResult {
    select(config, x, y, |cols| {
        cross_validate_columns(learner, x, cols, y, folds)
    })
}

/// The selection loop over the columns of `x`, with `cross_validate`
/// scoring a candidate subset of them.
pub(crate) fn select(
    config: &ForwardSelection,
    x: &Dataset,
    y: &[f64],
    mut cross_validate: impl FnMut(&[usize]) -> Result<CrossValidation, MlError>,
) -> SelectionResult {
    let ranked = rank_by_correlation(x, y);
    // A subset that makes the system unsolvable scores an infinite error
    // and NaN predictions, so it is simply skipped.
    let mut score = |cols: &[usize]| match cross_validate(cols) {
        Ok(cv) => (cv.mean_error(), cv.predictions),
        Err(_) => (f64::INFINITY, vec![f64::NAN; y.len()]),
    };
    let mut selected: Vec<usize> = Vec::new();
    let mut best_error = f64::INFINITY;
    let mut best_predictions = Vec::new();
    let mut misses = 0usize;
    // Candidates rejected since `selected` last changed, with their errors.
    let mut rejected: Vec<(usize, f64)> = Vec::new();

    for &candidate in &ranked {
        if config.max_features > 0 && selected.len() >= config.max_features {
            break;
        }
        let mut trial = selected.clone();
        trial.push(candidate);
        // An inherited error is a rejected one against the same best
        // error, so it is rejected again and needs no predictions.
        let (err, predictions) = match rejected
            .iter()
            .find(|&&(earlier, _)| columns_bit_equal(x, earlier, candidate))
        {
            Some(&(_, err)) => (err, Vec::new()),
            None => score(&trial),
        };
        // Absolute floor of 1e-12 keeps numerical jitter from counting as
        // an improvement once the error is essentially zero.
        let improved = err.is_finite()
            && (best_error.is_infinite() || err < best_error * (1.0 - MIN_IMPROVEMENT) - 1e-12);
        if improved {
            selected = trial;
            best_error = err;
            best_predictions = predictions;
            misses = 0;
            rejected.clear();
        } else {
            rejected.push((candidate, err));
            misses += 1;
            if misses > config.patience {
                break;
            }
        }
    }

    if selected.is_empty() {
        // Degenerate data (e.g. constant target): fall back to the single
        // top-ranked feature so downstream code always has a model.
        let first = ranked.first().copied().unwrap_or(0);
        let (cv_error, predictions) = score(&[first]);
        return SelectionResult {
            selected: vec![first],
            cv_error,
            predictions,
        };
    }

    SelectionResult {
        selected,
        cv_error: best_error,
        predictions: best_predictions,
    }
}

/// Whether columns `a` and `b` of `x` hold the same bits in every row.
fn columns_bit_equal(x: &Dataset, a: usize, b: usize) -> bool {
    x.rows().all(|row| row[a].to_bits() == row[b].to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::{cross_validate, kfold};
    use crate::{LearnerKind, SvrParams, TrainedModel};
    use rng::StdRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The reference `forward_select` must agree with: the selection loop
    /// without the duplicate rule, every candidate scored by
    /// cross-validation.
    fn forward_select_refitting<L: Learner + Sync>(
        config: &ForwardSelection,
        learner: &L,
        x: &Dataset,
        y: &[f64],
        folds: &[Fold],
    ) -> SelectionResult {
        let mut selected: Vec<usize> = Vec::new();
        let mut best_error = f64::INFINITY;
        let mut best_predictions = Vec::new();
        let mut misses = 0usize;
        for &candidate in &rank_by_correlation(x, y) {
            if config.max_features > 0 && selected.len() >= config.max_features {
                break;
            }
            let mut trial = selected.clone();
            trial.push(candidate);
            let sub = x.select_columns(&trial);
            let (err, predictions) = match cross_validate(learner, &sub, y, folds) {
                Ok(cv) => (cv.mean_error(), cv.predictions),
                Err(_) => (f64::INFINITY, Vec::new()),
            };
            let improved = err.is_finite()
                && (best_error.is_infinite() || err < best_error * (1.0 - MIN_IMPROVEMENT) - 1e-12);
            if improved {
                selected = trial;
                best_error = err;
                best_predictions = predictions;
                misses = 0;
            } else {
                misses += 1;
                if misses > config.patience {
                    break;
                }
            }
        }
        assert!(
            !selected.is_empty(),
            "the reference has no degenerate-data fallback"
        );
        SelectionResult {
            selected,
            cv_error: best_error,
            predictions: best_predictions,
        }
    }

    /// A learner that counts its fits.
    struct Counting<L> {
        inner: L,
        fits: AtomicUsize,
    }

    impl<L> Counting<L> {
        fn new(inner: L) -> Self {
            Counting {
                inner,
                fits: AtomicUsize::new(0),
            }
        }

        fn fits(&self) -> usize {
            self.fits.load(Ordering::Relaxed)
        }
    }

    impl<L: Learner> Learner for Counting<L> {
        fn fit(&self, x: &Dataset, y: &[f64]) -> Result<TrainedModel, MlError> {
            self.fits.fetch_add(1, Ordering::Relaxed);
            self.inner.fit(x, y)
        }
    }

    /// [`forward_select`]'s choice of scorer, counting the subsets it
    /// scores per fold: fold systems solved for a linear learner,
    /// `Learner::fit` calls for an SVR.
    fn select_counted(
        config: &ForwardSelection,
        learner: &LearnerKind,
        x: &Dataset,
        y: &[f64],
        folds: &[Fold],
    ) -> (SelectionResult, usize) {
        match learner {
            LearnerKind::Linear { ridge } => {
                let systems = FoldSystems::new(*ridge, x, y, folds);
                let mut scored = 0;
                let sel = select(config, x, y, |cols| {
                    scored += folds.len();
                    systems.cross_validate(cols)
                });
                (sel, scored)
            }
            LearnerKind::Svr(_) => {
                let counting = Counting::new(learner.clone());
                let sel = select_refitting(config, &counting, x, y, folds);
                (sel, counting.fits())
            }
        }
    }

    /// Runs [`forward_select`] and the refitting loop; asserts they agree
    /// to the bit and returns the result with (subsets scored per fold by
    /// `forward_select`, fits of the refitting loop).
    fn select_both_ways(
        config: &ForwardSelection,
        learner: &LearnerKind,
        x: &Dataset,
        y: &[f64],
        folds: &[Fold],
    ) -> (SelectionResult, usize, usize) {
        let got = forward_select(config, learner, x, y, folds).expect("selection");
        let (counted, scored) = select_counted(config, learner, x, y, folds);
        let refitting = Counting::new(learner.clone());
        let want = forward_select_refitting(config, &refitting, x, y, folds);
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for other in [&counted, &want] {
            assert_eq!(got.selected, other.selected);
            assert_eq!(got.cv_error.to_bits(), other.cv_error.to_bits());
            assert_eq!(bits(&got.predictions), bits(&other.predictions));
        }
        assert_eq!(got.predictions.len(), y.len());
        (got, scored, refitting.fits())
    }

    #[test]
    fn fixture_log_selection_equals_the_refitting_loop() {
        let log = crate::solver_tests::plan_log();
        let learner = LearnerKind::Svr(SvrParams::default());
        let (_, skipping, refitting) = select_both_ways(
            &ForwardSelection::default(),
            &learner,
            &log.x,
            &log.y,
            &log.folds,
        );
        // `aggregate_rows` is rejected, then `aggregate_cnt` holds the
        // same bits: one candidate set of five folds is not refitted.
        assert_eq!((skipping, refitting), (50, 55));
        // A linear learner on the same log: the fold systems give the
        // refitting loop's selection, error and predictions to the bit.
        select_both_ways(
            &ForwardSelection::default(),
            &LearnerKind::Linear { ridge: 1e-6 },
            &log.x,
            &log.y,
            &log.folds,
        );
    }

    /// Closed-form noise in [0, 1): identical on every host.
    fn noise(i: usize, k: usize) -> f64 {
        ((i as f64 * 12.9898 + k as f64 * 78.233).sin() * 43_758.545_3).rem_euclid(1.0)
    }

    /// 80 rows whose columns rank `a, a, b, m1, m1, m2, m2, c`: `y` is
    /// `4a + 2b + 0.3c`, the `m`s are `a` under heavy noise (correlated
    /// with `y`, useless beside `a`), and `c` correlates least although
    /// it is the one column left that helps.
    fn duplicated_columns() -> (Dataset, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let (a, b, c) = (noise(i, 0) * 10.0, noise(i, 1) * 10.0, noise(i, 2) * 10.0);
            let (m1, m2) = (a + noise(i, 3) * 25.0, a + noise(i, 4) * 35.0);
            rows.push(vec![a, a, b, m1, m1, m2, m2, c]);
            y.push(4.0 * a + 2.0 * b + 0.3 * c + 5.0);
        }
        (Dataset::from_rows(rows), y)
    }

    #[test]
    fn duplicates_of_rejected_columns_are_misses_that_are_not_refitted() {
        let (x, y) = duplicated_columns();
        assert_eq!(rank_by_correlation(&x, &y), [0, 1, 2, 3, 4, 5, 6, 7]);
        // Dealt by hand: `kfold`'s shuffle depends on which `rand` is linked.
        let folds = mod4_folds(x.n_rows());
        let learner = LearnerKind::Linear { ridge: 1e-9 };
        let with_patience = |patience| {
            let config = ForwardSelection {
                patience,
                ..ForwardSelection::default()
            };
            select_both_ways(&config, &learner, &x, &y, &folds)
        };

        // Column 1 duplicates the *accepted* column 0: `[0, 1]` is a
        // matrix nothing has scored, so it is fitted (and rejected).
        // Columns 4 and 6 duplicate the rejected 3 and 5 against the same
        // `[0, 2]`: they inherit the error. Four misses in a row are
        // within a patience of 4, so `c` is reached and accepted.
        let (sel, skipping, refitting) = with_patience(4);
        assert_eq!(sel.selected, [0, 2, 7]);
        assert_eq!((skipping, refitting), (6 * 4, 8 * 4));

        // With a patience of 3 the fourth miss — the duplicate column 6,
        // which is not fitted — is the one that ends the search.
        let (sel, skipping, refitting) = with_patience(3);
        assert_eq!(sel.selected, [0, 2]);
        assert_eq!((skipping, refitting), (5 * 4, 7 * 4));
    }

    /// y depends on columns 0 and 2; column 1 is pure noise, column 3 is
    /// constant.
    fn informative_dataset() -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(99);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..80 {
            let a: f64 = rng.gen_range(0.0..10.0);
            let unrelated: f64 = rng.gen_range(-1.0..1.0);
            let noise: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(0.0..10.0);
            rows.push(vec![a, unrelated * 100.0, b, 3.0]);
            y.push(4.0 * a + 2.0 * b + 1.0 + noise * 0.01);
        }
        (Dataset::from_rows(rows), y)
    }

    /// Folds dealt by row index mod 4 (`kfold`'s shuffle is not needed).
    fn mod4_folds(n: usize) -> Vec<Fold> {
        (0..4)
            .map(|f| Fold {
                train: (0..n).filter(|i| i % 4 != f).collect(),
                test: (0..n).filter(|i| i % 4 == f).collect(),
            })
            .collect()
    }

    /// The fold systems against a refit of each subset's copied columns:
    /// the same fold errors and predictions to the bit, or both failing.
    fn assert_scores_like_refits(ridge: f64, x: &Dataset, y: &[f64], folds: &[Fold]) {
        let systems = FoldSystems::new(ridge, x, y, folds);
        let n = x.n_cols();
        let mut subsets: Vec<Vec<usize>> = (0..n).map(|j| vec![j]).collect();
        subsets.push((0..n).collect());
        subsets.push((0..n).rev().collect());
        subsets.extend((1..n).map(|j| vec![j, j - 1]));
        subsets.extend((2..n).map(|j| vec![j - 2, j, j - 1]));
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let learner = LearnerKind::Linear { ridge };
        for cols in &subsets {
            let got = systems.cross_validate(cols);
            match cross_validate(&learner, &x.select_columns(cols), y, folds) {
                Ok(want) => {
                    let got = got.unwrap_or_else(|e| panic!("{cols:?}: {e}"));
                    assert_eq!(bits(&got.fold_errors), bits(&want.fold_errors), "{cols:?}");
                    assert_eq!(bits(&got.predictions), bits(&want.predictions), "{cols:?}");
                }
                Err(e) => assert_eq!(got.map(|_| ()), Err(e), "{cols:?}"),
            }
        }
    }

    /// 40 rows of five columns; the target needs columns 0, 2 and 4.
    fn edge_case_base() -> (Vec<Vec<f64>>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| (0..5).map(|k| noise(i, k + 10) * 10.0 + k as f64).collect())
            .collect();
        let y = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 3.0 * r[0] + 2.0 * r[2] + 0.5 * r[4] + noise(i, 20) + 1.0)
            .collect();
        (rows, y)
    }

    #[test]
    fn fold_systems_score_edge_cases_like_refits() {
        let folds = mod4_folds(40);
        let config = ForwardSelection::default();
        // (what, ridge, rows, targets)
        let mut cases = Vec::new();
        let (rows, y) = edge_case_base();
        cases.push(("base", 1e-6, rows.clone(), y.clone()));
        // Column 1 is constant on fold 0's training rows only: dropped in
        // that fold's fits, kept in the others'.
        let mut constant = rows.clone();
        for (i, r) in constant.iter_mut().enumerate() {
            if i % 4 != 0 {
                r[1] = 7.0;
            }
        }
        cases.push(("constant in one fold", 1e-6, constant, y.clone()));
        // An infinity in row 5 of column 3: the column is unusable in the
        // folds that train on row 5, and fold 1 predicts row 5 from it.
        let mut infinite = rows.clone();
        infinite[5][3] = f64::INFINITY;
        cases.push(("non-finite value", 1e-6, infinite, y.clone()));
        // Column 1 duplicates column 0, and no ridge: a subset holding
        // both is singular until the ridge escalates.
        let mut twins = rows.clone();
        for r in &mut twins {
            r[1] = r[0];
        }
        cases.push(("identical columns", 0.0, twins, y.clone()));
        // Fold 0 trains on equal targets only.
        let flat: Vec<f64> = y
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 4 == 0 { v } else { 5.0 })
            .collect();
        cases.push(("equal training targets", 1e-6, rows, flat));
        for (what, ridge, rows, y) in cases {
            let x = Dataset::from_rows(rows);
            assert_scores_like_refits(ridge, &x, &y, &folds);
            let (sel, scored, refits) =
                select_both_ways(&config, &LearnerKind::Linear { ridge }, &x, &y, &folds);
            assert!(!sel.selected.is_empty(), "{what}");
            assert!(scored <= refits, "{what}: {scored} > {refits}");
        }
    }

    #[test]
    fn a_non_finite_column_ranks_last_and_the_others_keep_their_order() {
        // Correlations with y: column 0 about 0.5, column 2 about 0.9,
        // column 3 about 0.1; column 1 is y itself, with a NaN in row 30
        // when `with_nan`.
        let dataset = |with_nan: bool| {
            Dataset::from_rows(
                (0..60)
                    .map(|i| {
                        let t = i as f64;
                        let nan = with_nan && i == 30;
                        vec![
                            t + noise(i, 1) * 120.0,
                            if nan { f64::NAN } else { t },
                            t + noise(i, 2) * 20.0,
                            noise(i, 3) * 10.0 + t * 0.02,
                        ]
                    })
                    .collect(),
            )
        };
        let y: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let x = dataset(true);
        assert!(pearson(&x.column(1), &y).is_nan());
        let r = |j| pearson(&x.column(j), &y).abs();
        assert!(
            r(2) > r(0) && r(0) > r(3) && r(3) > 0.0,
            "{} {} {}",
            r(0),
            r(2),
            r(3)
        );
        assert_eq!(rank_by_correlation(&x, &y), [2, 0, 3, 1]);
        assert_eq!(rank_by_correlation(&dataset(false), &y), [1, 2, 0, 3]);
    }

    #[test]
    fn ranking_puts_informative_features_first() {
        let (x, y) = informative_dataset();
        let ranked = rank_by_correlation(&x, &y);
        // The two informative columns must outrank noise and constant.
        let pos_a = ranked.iter().position(|&c| c == 0).unwrap();
        let pos_b = ranked.iter().position(|&c| c == 2).unwrap();
        let pos_noise = ranked.iter().position(|&c| c == 1).unwrap();
        let pos_const = ranked.iter().position(|&c| c == 3).unwrap();
        assert!(pos_a < pos_noise && pos_b < pos_noise);
        assert!(pos_a < pos_const && pos_b < pos_const);
    }

    #[test]
    fn forward_selection_picks_informative_subset() {
        let (x, y) = informative_dataset();
        let folds = kfold(x.n_rows(), 5, 0);
        let learner = LearnerKind::Linear { ridge: 1e-9 };
        let (result, _, _) =
            select_both_ways(&ForwardSelection::default(), &learner, &x, &y, &folds);
        assert!(result.selected.contains(&0));
        assert!(result.selected.contains(&2));
        assert!(!result.selected.contains(&3), "constant column selected");
        assert!(result.cv_error < 0.02, "cv error {}", result.cv_error);
    }

    #[test]
    fn max_features_is_respected() {
        let (x, y) = informative_dataset();
        let folds = kfold(x.n_rows(), 4, 0);
        let learner = LearnerKind::Linear { ridge: 1e-9 };
        let cfg = ForwardSelection {
            max_features: 1,
            ..ForwardSelection::default()
        };
        let (result, _, _) = select_both_ways(&cfg, &learner, &x, &y, &folds);
        assert_eq!(result.selected.len(), 1);
    }

    #[test]
    fn always_selects_at_least_one_feature() {
        // Constant target: nothing improves, but we still get a model input.
        let x = Dataset::from_rows((0..10).map(|i| vec![i as f64, -(i as f64)]).collect());
        let y = vec![5.0; 10];
        let folds = kfold(10, 2, 0);
        let learner = LearnerKind::Linear { ridge: 1e-6 };
        let result =
            forward_select(&ForwardSelection::default(), &learner, &x, &y, &folds).unwrap();
        assert_eq!(result.selected.len(), 1);
        assert_scores_like_refits(1e-6, &x, &y, &folds);
    }
}
