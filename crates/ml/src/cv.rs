//! K-fold and stratified K-fold cross-validation (Section 2 / Section 5.1).
//!
//! The paper's static-workload results use 5-fold cross-validation with
//! *stratified sampling*: folds contain roughly equal numbers of queries
//! from each TPC-H template. Strata here are arbitrary `usize` labels.
//!
//! [`cross_validate`] trains its folds on [`crate::par`] whatever their
//! size: a fold's fit keeps nothing once it returns ([`crate::gram`]), so
//! fanning out costs no memory, and on the parked-worker pool it pays even
//! for 112-row SVR fits (DESIGN.md §7). Forward selection's linear
//! candidates do not come here: they are solved from per-fold normal
//! equations on the calling thread (`crate::linreg`).

use crate::dataset::Dataset;
use crate::metrics::mean_relative_error;
use crate::{Learner, MlError, PredictScratch};
use rng::StdRng;

/// One train/test split: indices into the original dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Training-row indices.
    pub train: Vec<usize>,
    /// Held-out test-row indices.
    pub test: Vec<usize>,
}

/// Plain K-fold split of `n` rows, shuffled with `seed`.
///
/// Every row appears in exactly one test fold; folds differ in size by at
/// most one row.
///
/// # Panics
/// Panics when `k < 2` or `k > n`.
pub fn kfold(n: usize, k: usize, seed: u64) -> Vec<Fold> {
    assert!(k >= 2, "k-fold requires k >= 2");
    assert!(k <= n, "k-fold requires k <= n (k={k}, n={n})");
    let mut order: Vec<usize> = (0..n).collect();
    StdRng::seed_from_u64(seed).shuffle(&mut order);
    folds_from_order(&order, k, n)
}

/// Stratified K-fold: rows are dealt into folds round-robin *within each
/// stratum*, so every fold receives roughly `|stratum| / k` rows from each
/// stratum (the paper's stratified sampling over templates).
///
/// # Panics
/// Panics when `k < 2` or `k > strata.len()`.
pub fn stratified_kfold(strata: &[usize], k: usize, seed: u64) -> Vec<Fold> {
    let n = strata.len();
    assert!(k >= 2, "k-fold requires k >= 2");
    assert!(k <= n, "k-fold requires k <= n (k={k}, n={n})");
    let mut rng = StdRng::seed_from_u64(seed);

    // Group indices per stratum, shuffle within, then deal round-robin.
    let mut by_stratum: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, &s) in strata.iter().enumerate() {
        match by_stratum.iter_mut().find(|(label, _)| *label == s) {
            Some((_, v)) => v.push(i),
            None => by_stratum.push((s, vec![i])),
        }
    }
    let mut assignment = vec![0usize; n];
    let mut next_fold = 0usize;
    for (_, mut members) in by_stratum {
        rng.shuffle(&mut members);
        for m in members {
            assignment[m] = next_fold;
            next_fold = (next_fold + 1) % k;
        }
    }
    (0..k)
        .map(|f| {
            let mut train = Vec::new();
            let mut test = Vec::new();
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                if assignment[i] == f {
                    test.push(i);
                } else {
                    train.push(i);
                }
            }
            Fold { train, test }
        })
        .collect()
}

/// Single shuffled train/test split of `n` rows: roughly `test_frac` of the
/// rows (clamped so both sides keep at least one row) are held out.
///
/// Used by shadow retraining to score a candidate model against the
/// incumbent on data neither was fit on.
///
/// # Panics
/// Panics when `n < 2` or `test_frac` is not in `(0, 1)`.
pub fn holdout(n: usize, test_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(n >= 2, "holdout requires at least 2 rows (n={n})");
    assert!(
        test_frac > 0.0 && test_frac < 1.0,
        "holdout test_frac must be in (0, 1), got {test_frac}"
    );
    let mut order: Vec<usize> = (0..n).collect();
    StdRng::seed_from_u64(seed).shuffle(&mut order);
    let n_test = ((n as f64 * test_frac).round() as usize).clamp(1, n - 1);
    let test = order[..n_test].to_vec();
    let train = order[n_test..].to_vec();
    (train, test)
}

fn folds_from_order(order: &[usize], k: usize, n: usize) -> Vec<Fold> {
    let base = n / k;
    let extra = n % k;
    let mut folds = Vec::with_capacity(k);
    let mut start = 0usize;
    for f in 0..k {
        let size = base + usize::from(f < extra);
        let test: Vec<usize> = order[start..start + size].to_vec();
        let train: Vec<usize> = order[..start]
            .iter()
            .chain(&order[start + size..])
            .copied()
            .collect();
        folds.push(Fold { train, test });
        start += size;
    }
    folds
}

/// Result of cross-validating a learner.
#[derive(Debug, Clone)]
pub struct CrossValidation {
    /// Mean relative error per fold.
    pub fold_errors: Vec<f64>,
    /// Out-of-fold prediction for every row (in original row order).
    pub predictions: Vec<f64>,
}

impl CrossValidation {
    /// Average of the per-fold mean relative errors (the number the paper
    /// reports).
    pub(crate) fn mean_error(&self) -> f64 {
        self.fold_errors.iter().sum::<f64>() / self.fold_errors.len() as f64
    }
}

/// Trains `learner` on each fold's training rows and predicts its test rows
/// with the serving prediction ([`crate::TrainedModel::predict_into`], one
/// scratch a fold); reports per-fold mean relative error and the
/// out-of-fold predictions.
///
/// Folds fan out over [`crate::par`] (which runs them inline with one
/// thread or on a pool worker); every fold's fit and predictions depend
/// only on that fold's rows and results are merged in fold order, so the
/// output (including which error is reported on failure) is identical to
/// the serial loop.
pub fn cross_validate<L: Learner + Sync>(
    learner: &L,
    x: &Dataset,
    y: &[f64],
    folds: &[Fold],
) -> Result<CrossValidation, MlError> {
    let all: Vec<usize> = (0..x.n_cols()).collect();
    cross_validate_columns(learner, x, &all, y, folds)
}

/// [`cross_validate`] on `x.select_columns(cols)`, bit for bit, copying
/// each fold's rows of those columns once.
pub(crate) fn cross_validate_columns<L: Learner + Sync>(
    learner: &L,
    x: &Dataset,
    cols: &[usize],
    y: &[f64],
    folds: &[Fold],
) -> Result<CrossValidation, MlError> {
    x.check_targets(y)?;
    let run_fold = |fold: &Fold| -> Result<FoldOutcome, MlError> {
        let y_train: Vec<f64> = fold.train.iter().map(|&i| y[i]).collect();
        let model = learner.fit(&x.select(&fold.train, cols), &y_train)?;
        let x_test = x.select(&fold.test, cols);
        let mut scratch = PredictScratch::new();
        Ok(score_fold(fold, y, |t| {
            model.predict_into(x_test.row(t), &mut scratch)
        }))
    };
    let outcomes = crate::par::par_map(folds, |_, fold| run_fold(fold));
    collect_folds(folds, outcomes, y.len())
}

/// One fold's predictions, in the order of its test rows, and their mean
/// relative error (`None` for an empty test set).
pub(crate) type FoldOutcome = (Vec<f64>, Option<f64>);

/// Scores a fold's model: `predict(t)` is its prediction for the fold's
/// `t`-th test row.
pub(crate) fn score_fold(fold: &Fold, y: &[f64], predict: impl FnMut(usize) -> f64) -> FoldOutcome {
    let est: Vec<f64> = (0..fold.test.len()).map(predict).collect();
    let err = (!est.is_empty()).then(|| {
        let actual: Vec<f64> = fold.test.iter().map(|&i| y[i]).collect();
        mean_relative_error(&actual, &est)
    });
    (est, err)
}

/// Merges the fold outcomes of a cross-validation over `n` rows, in fold
/// order: the first failed fold's error, or every fold's error and the
/// out-of-fold prediction of every row.
pub(crate) fn collect_folds(
    folds: &[Fold],
    outcomes: impl IntoIterator<Item = Result<FoldOutcome, MlError>>,
    n: usize,
) -> Result<CrossValidation, MlError> {
    let mut fold_errors = Vec::with_capacity(folds.len());
    let mut predictions = vec![f64::NAN; n];
    for (fold, outcome) in folds.iter().zip(outcomes) {
        let (est, err) = outcome?;
        for (&i, p) in fold.test.iter().zip(est) {
            predictions[i] = p;
        }
        fold_errors.extend(err);
    }
    Ok(CrossValidation {
        fold_errors,
        predictions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LearnerKind, SvrParams, TrainedModel};

    #[test]
    fn kfold_partitions_all_rows() {
        let folds = kfold(10, 3, 1);
        assert_eq!(folds.len(), 3);
        let mut seen: Vec<usize> = folds.iter().flat_map(|f| f.test.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        for f in &folds {
            assert_eq!(f.train.len() + f.test.len(), 10);
            assert!(f.test.len() >= 3);
            // Train and test are disjoint.
            assert!(f.test.iter().all(|t| !f.train.contains(t)));
        }
    }

    #[test]
    fn kfold_is_deterministic_per_seed() {
        assert_eq!(kfold(20, 5, 7), kfold(20, 5, 7));
        assert_ne!(kfold(20, 5, 7), kfold(20, 5, 8));
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn kfold_rejects_k_one() {
        kfold(10, 1, 0);
    }

    #[test]
    fn stratified_folds_balance_strata() {
        // 3 strata with 10 rows each; 5 folds should get 2 from each.
        let strata: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let folds = stratified_kfold(&strata, 5, 42);
        for f in &folds {
            for label in 0..3usize {
                let count = f.test.iter().filter(|&&i| strata[i] == label).count();
                assert_eq!(count, 2, "fold should hold 2 rows of stratum {label}");
            }
        }
    }

    #[test]
    fn stratified_covers_all_rows_exactly_once() {
        let strata: Vec<usize> = (0..23).map(|i| i % 4).collect();
        let folds = stratified_kfold(&strata, 5, 3);
        let mut seen: Vec<usize> = folds.iter().flat_map(|f| f.test.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn holdout_partitions_all_rows() {
        let (train, test) = holdout(10, 0.3, 5);
        assert_eq!(test.len(), 3);
        assert_eq!(train.len(), 7);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // Deterministic per seed.
        assert_eq!(holdout(10, 0.3, 5), holdout(10, 0.3, 5));
    }

    #[test]
    fn holdout_keeps_both_sides_nonempty() {
        let (train, test) = holdout(2, 0.01, 0);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
        let (train, test) = holdout(3, 0.99, 0);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 2);
    }

    /// What cross-validation scores is what the fold's model serves: each
    /// out-of-fold prediction is, bit for bit, the refitted model's
    /// `predict_into` (the lane tree), not a second summation order.
    #[test]
    fn svr_out_of_fold_predictions_are_what_each_fold_model_serves() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![i as f64, ((i * 7) % 11) as f64, ((i * i) % 13) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (0.3 * r[0]).sin() * 4.0 + r[1] * r[2] * 0.2 + 10.0)
            .collect();
        let x = Dataset::from_rows(rows);
        let all: Vec<usize> = (0..x.n_cols()).collect();
        let folds = kfold(x.n_rows(), 5, 3);
        let learner = LearnerKind::Svr(SvrParams::default());
        let cv = cross_validate(&learner, &x, &y, &folds).unwrap();
        let mut scratch = PredictScratch::new();
        for fold in &folds {
            let y_train: Vec<f64> = fold.train.iter().map(|&i| y[i]).collect();
            let model = learner.fit(&x.select(&fold.train, &all), &y_train).unwrap();
            assert!(matches!(model, TrainedModel::Svr(_)));
            for &i in &fold.test {
                let served = model.predict_into(x.row(i), &mut scratch);
                assert_eq!(cv.predictions[i].to_bits(), served.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn cross_validate_linear_on_linear_data_is_accurate() {
        let x = Dataset::from_rows((0..40).map(|i| vec![i as f64]).collect());
        let y: Vec<f64> = (0..40).map(|i| 5.0 + 2.0 * i as f64).collect();
        let folds = kfold(40, 5, 0);
        let cv = cross_validate(&LearnerKind::Linear { ridge: 1e-9 }, &x, &y, &folds).unwrap();
        assert!(cv.mean_error() < 1e-6, "mre = {}", cv.mean_error());
        assert!(cv.predictions.iter().all(|p| p.is_finite()));
    }
}
