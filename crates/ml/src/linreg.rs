//! Ordinary least squares / ridge regression.
//!
//! This is the model family the paper uses for operator-level models
//! (via the Shark library). We solve the normal equations with a small
//! ridge term through Cholesky factorization; if the system is still
//! singular the ridge is escalated a few times before giving up.
//!
//! A fit goes through one normal-equation system: `XᵀX` and `Xᵀy` over
//! *every* column of the training rows, and which columns are usable on
//! them (finite throughout, not constant). A fit on a subset of the
//! columns solves the usable sub-block of that system. Each entry of the
//! sub-block is the sum, in row order, that a system built on the
//! projected rows would compute (products commute), so the fit is
//! bit-identical to copying the columns out first. Linear forward
//! selection ([`crate::feature_selection`]) builds one such system per CV
//! fold, once for the whole search, and scores every candidate subset
//! from those; a refit would copy the candidate's columns and each fold's
//! rows and sum `XᵀX` again.

use crate::bytes::{put_f64, put_f64s, Malformed, Reader};
use crate::cv::{collect_folds, score_fold, CrossValidation, Fold};
use crate::dataset::Dataset;
use crate::linalg::{dot, normal_equations, Matrix};
use crate::MlError;

/// Ridge-regularized linear regression learner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinearRegression {
    /// L2 regularization strength added to the normal-equation diagonal.
    pub ridge: f64,
}

impl LinearRegression {
    /// Creates a learner with the given ridge strength (0 = plain OLS,
    /// though a tiny ridge is recommended for near-collinear features).
    pub(crate) fn new(ridge: f64) -> Self {
        LinearRegression { ridge }
    }

    /// Fits the model on `x` (rows × features) and targets `y`.
    ///
    /// Degenerate columns — constant (zero variance) or containing
    /// non-finite values — would make the Gram matrix singular or poison
    /// the Cholesky solve with NaN; they are dropped up front and get a
    /// zero weight in the returned model instead of failing the fit.
    pub(crate) fn fit(&self, x: &Dataset, y: &[f64]) -> Result<LinearModel, MlError> {
        x.check_targets(y)?;
        let all: Vec<usize> = (0..x.n_cols()).collect();
        let rows = (0..x.n_rows()).map(|i| x.row(i));
        NormalSystem::new(rows, y, x.n_cols()).fit(self.ridge, &all)
    }
}

/// Whether a column with these values can enter a fit: finite throughout
/// and not constant.
fn usable(values: impl Iterator<Item = f64>) -> bool {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        if !v.is_finite() {
            return false;
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    hi - lo > 1e-12 * hi.abs().max(lo.abs()).max(1.0)
}

/// Solves `(XᵀX + λI) β = Xᵀy` from `λ = ridge`, escalating `λ` a few
/// times while the system is singular (e.g. duplicate feature columns).
fn solve_ridge(ridge: f64, xtx: &Matrix, xty: &[f64]) -> Result<Vec<f64>, MlError> {
    let mut lambda = ridge.max(0.0);
    for attempt in 0..6 {
        let mut sys = xtx.clone();
        if lambda > 0.0 {
            sys.add_diagonal(lambda);
        }
        match sys.solve_spd(xty) {
            Ok(beta) => return Ok(beta),
            Err(MlError::NotPositiveDefinite) if attempt < 5 => {
                lambda = if lambda == 0.0 { 1e-8 } else { lambda * 100.0 };
            }
            Err(e) => return Err(e),
        }
    }
    Err(MlError::NotPositiveDefinite)
}

/// The normal equations of one set of training rows over every column,
/// with the rest of what a fit on any subset of those columns reads.
pub(crate) struct NormalSystem {
    /// `XᵀX` with the intercept first, then one row per column.
    xtx: Matrix,
    xty: Vec<f64>,
    /// Per column: usable on these rows ([`usable`]).
    usable: Vec<bool>,
    n_rows: usize,
    y_sum: f64,
    y_finite: bool,
}

impl NormalSystem {
    /// The system of `rows` (each `n_cols` wide) against targets `y`.
    pub(crate) fn new<'a, I>(rows: I, y: &[f64], n_cols: usize) -> NormalSystem
    where
        I: Iterator<Item = &'a [f64]> + Clone,
    {
        let usable = (0..n_cols)
            .map(|j| usable(rows.clone().map(|row| row[j])))
            .collect();
        let (xtx, xty) = normal_equations(rows, y, n_cols);
        NormalSystem {
            xtx,
            xty,
            usable,
            n_rows: y.len(),
            y_sum: y.iter().sum(),
            y_finite: y.iter().all(|v| v.is_finite()),
        }
    }

    /// The ridge fit on columns `cols` of these rows, in that order:
    /// [`LinearRegression::fit`] on those columns copied out, bit for bit.
    /// Unusable columns get a zero weight; with none usable the model is
    /// the targets' mean.
    pub(crate) fn fit(&self, ridge: f64, cols: &[usize]) -> Result<LinearModel, MlError> {
        if self.n_rows == 0 {
            return Err(MlError::EmptyDataset);
        }
        if ridge < 0.0 {
            return Err(MlError::InvalidParameter("ridge must be non-negative"));
        }
        if !self.y_finite {
            return Err(MlError::NonFiniteData);
        }
        let mut weights = vec![0.0; cols.len()];
        // Positions in `cols` of the kept columns, and their indices in
        // the system: the intercept, then column `j` at `1 + j`.
        let keep: Vec<usize> = (0..cols.len()).filter(|&k| self.usable[cols[k]]).collect();
        if keep.is_empty() {
            return Ok(LinearModel {
                intercept: self.y_sum / self.n_rows as f64,
                weights,
            });
        }
        let at = |a: usize| if a == 0 { 0 } else { 1 + cols[keep[a - 1]] };
        let d = keep.len() + 1;
        let mut xtx = Matrix::zeros(d, d);
        for a in 0..d {
            for b in 0..d {
                xtx[(a, b)] = self.xtx[(at(a), at(b))];
            }
        }
        let xty: Vec<f64> = (0..d).map(|a| self.xty[at(a)]).collect();
        let beta = solve_ridge(ridge, &xtx, &xty)?;
        for (&k, &w) in keep.iter().zip(&beta[1..]) {
            weights[k] = w;
        }
        Ok(LinearModel {
            intercept: beta[0],
            weights,
        })
    }
}

/// Linear cross-validation of column subsets over fixed folds: one
/// [`NormalSystem`] per fold, built once over every column of the fold's
/// training rows, and each subset's fold fit solved from it.
pub(crate) struct FoldSystems<'a> {
    ridge: f64,
    x: &'a Dataset,
    y: &'a [f64],
    folds: &'a [Fold],
    systems: Vec<NormalSystem>,
}

impl<'a> FoldSystems<'a> {
    /// The fold systems of `x` against `y` for a ridge of `ridge`.
    pub(crate) fn new(ridge: f64, x: &'a Dataset, y: &'a [f64], folds: &'a [Fold]) -> Self {
        let systems = folds
            .iter()
            .map(|fold| {
                let y_train: Vec<f64> = fold.train.iter().map(|&i| y[i]).collect();
                NormalSystem::new(fold.train.iter().map(|&i| x.row(i)), &y_train, x.n_cols())
            })
            .collect();
        FoldSystems {
            ridge,
            x,
            y,
            folds,
            systems,
        }
    }

    /// [`crate::cv::cross_validate`] of `LinearRegression::new(ridge)` on
    /// `x.select_columns(cols)`, bit for bit, without copying a row.
    pub(crate) fn cross_validate(&self, cols: &[usize]) -> Result<CrossValidation, MlError> {
        let mut row = Vec::with_capacity(cols.len());
        let outcomes = self.folds.iter().zip(&self.systems).map(|(fold, system)| {
            let model = system.fit(self.ridge, cols)?;
            Ok(score_fold(fold, self.y, |t| {
                let full = self.x.row(fold.test[t]);
                row.clear();
                row.extend(cols.iter().map(|&c| full[c]));
                model.predict(&row)
            }))
        });
        collect_folds(self.folds, outcomes, self.y.len())
    }
}

/// A fitted linear model `y = intercept + w · x`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Bias term.
    pub intercept: f64,
    /// Per-feature weights.
    pub weights: Vec<f64>,
}

impl LinearModel {
    /// Predicts the target for one feature row.
    ///
    /// The row length is only checked with a `debug_assert!`; prediction is
    /// a hot path.
    pub(crate) fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(
            row.len(),
            self.weights.len(),
            "linear model expects {} features, got {}",
            self.weights.len(),
            row.len()
        );
        self.intercept + dot(&self.weights, row)
    }

    /// Number of input features.
    pub(crate) fn n_features(&self) -> usize {
        self.weights.len()
    }

    /// True when the intercept and every weight are finite — the
    /// registry's snapshot validation gate.
    pub(crate) fn weights_finite(&self) -> bool {
        self.intercept.is_finite() && self.weights.iter().all(|w| w.is_finite())
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.intercept);
        put_f64s(out, &self.weights);
    }

    pub(crate) fn decode(r: &mut Reader) -> Result<LinearModel, Malformed> {
        Ok(LinearModel {
            intercept: r.f64()?,
            weights: r.counted_f64s()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_function() {
        // y = 2 + 3a - b
        let x = Dataset::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, 3.0],
        ]);
        let y: Vec<f64> = x.rows().map(|r| 2.0 + 3.0 * r[0] - r[1]).collect();
        let m = LinearRegression::new(0.0).fit(&x, &y).unwrap();
        assert!((m.intercept - 2.0).abs() < 1e-9);
        assert!((m.weights[0] - 3.0).abs() < 1e-9);
        assert!((m.weights[1] + 1.0).abs() < 1e-9);
        assert!((m.predict(&[5.0, 5.0]) - 12.0).abs() < 1e-8);
    }

    #[test]
    fn handles_duplicate_columns_via_ridge_escalation() {
        // Two identical columns make XtX singular with ridge = 0; the fit
        // must still succeed by escalating the ridge internally.
        let x = Dataset::from_rows(vec![
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![4.0, 4.0],
        ]);
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let m = LinearRegression::new(0.0).fit(&x, &y).unwrap();
        assert!((m.predict(&[5.0, 5.0]) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let x = Dataset::from_rows(vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let ols = LinearRegression::new(0.0).fit(&x, &y).unwrap();
        let heavy = LinearRegression::new(100.0).fit(&x, &y).unwrap();
        assert!(heavy.weights[0].abs() < ols.weights[0].abs());
    }

    #[test]
    fn rejects_negative_ridge_and_bad_shapes() {
        let x = Dataset::from_rows(vec![vec![1.0]]);
        assert_eq!(
            LinearRegression::new(-1.0).fit(&x, &[1.0]),
            Err(MlError::InvalidParameter("ridge must be non-negative"))
        );
        assert_eq!(
            LinearRegression::new(0.0).fit(&x, &[1.0, 2.0]),
            Err(MlError::ShapeMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            LinearRegression::new(0.0).fit(&Dataset::new(1), &[]),
            Err(MlError::EmptyDataset)
        );
    }

    #[test]
    fn constant_target_yields_constant_model() {
        let x = Dataset::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]);
        let m = LinearRegression::new(1e-6).fit(&x, &[5.0, 5.0, 5.0]).unwrap();
        assert!((m.predict(&[10.0]) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn constant_and_non_finite_columns_are_dropped() {
        // y = 2x0; column 1 is constant, column 2 contains NaN. Both must
        // be dropped (zero weight) without harming the fit on column 0.
        let x = Dataset::from_rows(vec![
            vec![1.0, 7.0, 0.0],
            vec![2.0, 7.0, f64::NAN],
            vec![3.0, 7.0, 1.0],
            vec![4.0, 7.0, 2.0],
        ]);
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let m = LinearRegression::new(0.0).fit(&x, &y).unwrap();
        assert_eq!(m.weights.len(), 3);
        assert_eq!(m.weights[1], 0.0);
        assert_eq!(m.weights[2], 0.0);
        assert!((m.predict(&[5.0, 7.0, 9.0]) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn all_degenerate_columns_yield_intercept_only_model() {
        let x = Dataset::from_rows(vec![vec![3.0, f64::NAN], vec![3.0, 1.0], vec![3.0, 2.0]]);
        let y = vec![4.0, 5.0, 6.0];
        let m = LinearRegression::new(0.0).fit(&x, &y).unwrap();
        assert_eq!(m.weights, vec![0.0, 0.0]);
        assert!((m.predict(&[9.0, 9.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_targets_are_rejected() {
        let x = Dataset::from_rows(vec![vec![1.0], vec![2.0]]);
        assert_eq!(
            LinearRegression::new(0.0).fit(&x, &[1.0, f64::INFINITY]),
            Err(MlError::NonFiniteData)
        );
    }
}
