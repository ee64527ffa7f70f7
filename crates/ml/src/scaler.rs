//! Z-score standardization of feature columns.
//!
//! SVR with an RBF kernel is scale-sensitive, and the plan-level features
//! span many orders of magnitude (costs in the millions next to operator
//! counts below ten), so features are standardized before training.

use crate::bytes::{put_count, put_f64, Malformed, Reader};
use crate::dataset::Dataset;
use crate::stats;

/// Per-column standardizer: `x' = (x - mean) / std`.
///
/// Columns that are constant in the training data get `std = 1` so they map
/// to zero rather than NaN.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits column means and standard deviations on `x`.
    pub(crate) fn fit(x: &Dataset) -> Self {
        let mut means = Vec::with_capacity(x.n_cols());
        let mut stds = Vec::with_capacity(x.n_cols());
        for j in 0..x.n_cols() {
            let col = x.column(j);
            means.push(stats::mean(&col));
            let sd = stats::std_dev(&col);
            stds.push(if sd > f64::EPSILON { sd } else { 1.0 });
        }
        StandardScaler { means, stds }
    }

    /// Number of columns this scaler was fit on.
    pub(crate) fn n_cols(&self) -> usize {
        self.means.len()
    }

    /// Standardizes a whole dataset.
    pub(crate) fn transform(&self, x: &Dataset) -> Dataset {
        let mut out = Dataset::new(x.n_cols());
        let mut buf = vec![0.0; x.n_cols()];
        for row in x.rows() {
            self.transform_row_into(row, &mut buf);
            out.push_row(&buf);
        }
        out
    }

    /// Standardizes one row into a fresh vector.
    pub(crate) fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; row.len()];
        self.transform_row_into(row, &mut out);
        out
    }

    /// True when every fitted mean and standard deviation is finite (and
    /// no std is zero) — part of the snapshot finite-weights validation.
    pub(crate) fn is_finite(&self) -> bool {
        self.means.iter().all(|m| m.is_finite())
            && self.stds.iter().all(|s| s.is_finite() && *s != 0.0)
    }

    /// Writes the column count once, then the means, then the stds.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.means.len());
        for &v in self.means.iter().chain(&self.stds) {
            put_f64(out, v);
        }
    }

    pub(crate) fn decode(r: &mut Reader) -> Result<StandardScaler, Malformed> {
        let n = r.count(16)?;
        Ok(StandardScaler {
            means: r.f64s(n)?,
            stds: r.f64s(n)?,
        })
    }

    /// Standardizes one row into the provided buffer.
    ///
    /// This sits on the prediction hot path (the serving lane tree calls
    /// it per row), so the length contract — `row` and `out` must match
    /// the fitted column count — is checked with `debug_assert!` only.
    /// Callers are expected to size buffers via [`StandardScaler::n_cols`].
    pub(crate) fn transform_row_into(&self, row: &[f64], out: &mut [f64]) {
        debug_assert_eq!(row.len(), self.means.len(), "scaler column mismatch");
        debug_assert_eq!(out.len(), self.means.len(), "scaler buffer mismatch");
        for j in 0..row.len() {
            out[j] = (row[j] - self.means[j]) / self.stds[j];
        }
    }
}

/// Standardizer for the target vector; used so SVR's epsilon-tube width is
/// expressed in target standard deviations.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TargetScaler {
    mean: f64,
    std: f64,
}

impl TargetScaler {
    /// Fits on the target values.
    pub(crate) fn fit(y: &[f64]) -> Self {
        let sd = stats::std_dev(y);
        TargetScaler {
            mean: stats::mean(y),
            std: if sd > f64::EPSILON { sd } else { 1.0 },
        }
    }

    /// Scales targets to zero mean, unit variance.
    pub(crate) fn transform(&self, y: &[f64]) -> Vec<f64> {
        y.iter().map(|v| (v - self.mean) / self.std).collect()
    }

    /// Maps a model output back to the original target scale.
    pub(crate) fn inverse(&self, v: f64) -> f64 {
        v * self.std + self.mean
    }

    /// True when the fitted mean and (non-zero) std are finite — part of
    /// the snapshot finite-weights validation.
    pub(crate) fn is_finite(&self) -> bool {
        self.mean.is_finite() && self.std.is_finite() && self.std != 0.0
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.mean);
        put_f64(out, self.std);
    }

    pub(crate) fn decode(r: &mut Reader) -> Result<TargetScaler, Malformed> {
        Ok(TargetScaler {
            mean: r.f64()?,
            std: r.f64()?,
        })
    }

    /// Magnitude of the inverse transform's slope. A perturbation of `e`
    /// in scaled-target space becomes `e * slope_abs()` after
    /// [`TargetScaler::inverse`]; the compiled-path tolerance tests use
    /// this to map kernel-sum reordering error into target units.
    #[cfg(test)]
    pub(crate) fn slope_abs(&self) -> f64 {
        self.std.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_columns() {
        let x = Dataset::from_rows(vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]);
        let scaler = StandardScaler::fit(&x);
        let t = x.rows().map(|r| scaler.transform_row(r)).last().unwrap();
        // Column means are (3, 30); last row should be positive in both.
        assert!(t[0] > 0.0 && t[1] > 0.0);
        let scaled = scaler.transform(&x);
        for j in 0..2 {
            let col = scaled.column(j);
            assert!(crate::stats::mean(&col).abs() < 1e-12);
            assert!((crate::stats::std_dev(&col) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let x = Dataset::from_rows(vec![vec![7.0], vec![7.0], vec![7.0]]);
        let scaler = StandardScaler::fit(&x);
        assert_eq!(scaler.transform_row(&[7.0]), vec![0.0]);
        // And unseen values stay finite.
        assert!(scaler.transform_row(&[9.0])[0].is_finite());
    }

    #[test]
    fn target_scaler_roundtrips() {
        let y = [10.0, 20.0, 30.0];
        let ts = TargetScaler::fit(&y);
        let scaled = ts.transform(&y);
        for (orig, s) in y.iter().zip(&scaled) {
            assert!((ts.inverse(*s) - orig).abs() < 1e-12);
        }
    }

    #[test]
    fn target_scaler_constant_is_safe() {
        let ts = TargetScaler::fit(&[5.0, 5.0]);
        assert_eq!(ts.inverse(ts.transform(&[5.0])[0]), 5.0);
    }
}
