//! Ordinary least squares / ridge regression.
//!
//! This is the model family the paper uses for operator-level models
//! (via the Shark library). We solve the normal equations with a small
//! ridge term through Cholesky factorization; if the system is still
//! singular the ridge is escalated a few times before giving up.

use crate::bytes::{put_f64, put_f64s, Malformed, Reader};
use crate::dataset::Dataset;
use crate::linalg::{dot, normal_equations};
use crate::MlError;

/// Ridge-regularized linear regression learner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRegression {
    /// L2 regularization strength added to the normal-equation diagonal.
    pub ridge: f64,
}

impl LinearRegression {
    /// Creates a learner with the given ridge strength (0 = plain OLS,
    /// though a tiny ridge is recommended for near-collinear features).
    pub fn new(ridge: f64) -> Self {
        LinearRegression { ridge }
    }

    /// Fits the model on `x` (rows × features) and targets `y`.
    ///
    /// Degenerate columns — constant (zero variance) or containing
    /// non-finite values — would make the Gram matrix singular or poison
    /// the Cholesky solve with NaN; they are dropped up front and get a
    /// zero weight in the returned model instead of failing the fit.
    pub fn fit(&self, x: &Dataset, y: &[f64]) -> Result<LinearModel, MlError> {
        x.check_targets(y)?;
        if self.ridge < 0.0 {
            return Err(MlError::InvalidParameter("ridge must be non-negative"));
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteData);
        }
        let keep = usable_columns(x);
        if keep.is_empty() {
            // Every column degenerate: the best constant model.
            let mean = y.iter().sum::<f64>() / y.len() as f64;
            return Ok(LinearModel {
                intercept: mean,
                weights: vec![0.0; x.n_cols()],
            });
        }
        let beta = if keep.len() == x.n_cols() {
            self.solve(x, y)?
        } else {
            self.solve(&x.select_columns(&keep), y)?
        };
        // Re-expand to the original feature layout (dropped columns get
        // zero weight, so `predict` keeps its input contract).
        let mut weights = vec![0.0; x.n_cols()];
        for (w, &j) in beta[1..].iter().zip(&keep) {
            weights[j] = *w;
        }
        Ok(LinearModel {
            intercept: beta[0],
            weights,
        })
    }

    /// Solves the normal equations, escalating the ridge a few times if
    /// the Gram matrix is singular (e.g. duplicate feature columns).
    fn solve(&self, x: &Dataset, y: &[f64]) -> Result<Vec<f64>, MlError> {
        let (xtx, xty) = normal_equations(x.rows(), y, x.n_cols());
        let mut lambda = self.ridge.max(0.0);
        for attempt in 0..6 {
            let mut sys = xtx.clone();
            if lambda > 0.0 {
                sys.add_diagonal(lambda);
            }
            match sys.solve_spd(&xty) {
                Ok(beta) => return Ok(beta),
                Err(MlError::NotPositiveDefinite) if attempt < 5 => {
                    lambda = if lambda == 0.0 { 1e-8 } else { lambda * 100.0 };
                }
                Err(e) => return Err(e),
            }
        }
        Err(MlError::NotPositiveDefinite)
    }
}

/// Indices of columns that are finite throughout and not constant.
fn usable_columns(x: &Dataset) -> Vec<usize> {
    (0..x.n_cols())
        .filter(|&j| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for i in 0..x.n_rows() {
                let v = x.row(i)[j];
                if !v.is_finite() {
                    return false;
                }
                lo = lo.min(v);
                hi = hi.max(v);
            }
            hi - lo > 1e-12 * hi.abs().max(lo.abs()).max(1.0)
        })
        .collect()
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
    /// a hot path, and the checked variant is [`LinearModel::try_predict`].
    pub fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(
            row.len(),
            self.weights.len(),
            "linear model expects {} features, got {}",
            self.weights.len(),
            row.len()
        );
        self.intercept + dot(&self.weights, row)
    }

    /// Checked prediction: returns [`MlError::ShapeMismatch`] instead of
    /// panicking when the row has the wrong number of features.
    pub fn try_predict(&self, row: &[f64]) -> Result<f64, MlError> {
        if row.len() != self.weights.len() {
            return Err(MlError::ShapeMismatch {
                expected: self.weights.len(),
                got: row.len(),
            });
        }
        Ok(self.predict(row))
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.weights.len()
    }

    /// True when the intercept and every weight are finite — the
    /// registry's snapshot validation gate.
    pub fn weights_finite(&self) -> bool {
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
