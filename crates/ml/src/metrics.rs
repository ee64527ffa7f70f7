//! Accuracy metrics.
//!
//! The paper's headline metric is the *mean relative error*
//! `(1/N) Σ |actual_i − estimate_i| / actual_i` (Section 5.1), which treats
//! all queries equally regardless of their execution time. We also provide
//! R² and the *predictive risk* used by Ganapathi et al. (reference \[1\] of
//! the paper, discussed in the Section 5.2 footnote).

/// Mean relative error `(1/N) Σ |aᵢ − eᵢ| / aᵢ`.
///
/// Actual values of zero are guarded with a small floor so a single
/// zero-latency sample cannot produce an infinite mean.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn mean_relative_error(actual: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(actual.len(), estimate.len(), "metric length mismatch");
    assert!(!actual.is_empty(), "metric on empty slice");
    let n = actual.len() as f64;
    actual
        .iter()
        .zip(estimate)
        .map(|(a, e)| (a - e).abs() / a.abs().max(f64::MIN_POSITIVE.max(1e-12)))
        .sum::<f64>()
        / n
}

/// Relative error of a single prediction: `|actual − estimate| / actual`.
pub fn relative_error(actual: f64, estimate: f64) -> f64 {
    (actual - estimate).abs() / actual.abs().max(1e-12)
}

/// Predictive risk (Ganapathi et al.): `1 − Σ(aᵢ−eᵢ)² / Σ(aᵢ−ā)²`, the
/// coefficient of determination R².
///
/// 1 is a perfect fit; 0 matches predicting the mean; negative is worse
/// than the mean. Returns 0 when the actuals are constant. The paper's
/// Section 5.2 footnote reports it (≈0.93 for the optimizer-cost
/// baseline) to show how a scale-dependent metric can look deceptively
/// good while per-query relative errors are terrible.
pub fn predictive_risk(actual: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(actual.len(), estimate.len(), "metric length mismatch");
    assert!(!actual.is_empty(), "metric on empty slice");
    let mean = actual.iter().sum::<f64>() / actual.len() as f64;
    let ss_tot: f64 = actual.iter().map(|a| (a - mean) * (a - mean)).sum();
    let ss_res: f64 = actual
        .iter()
        .zip(estimate)
        .map(|(a, e)| (a - e) * (a - e))
        .sum();
    if ss_tot <= f64::EPSILON {
        return 0.0;
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mre_basic() {
        // Errors: |10-15|/10 = 0.5 and |20-20|/20 = 0.
        assert!((mean_relative_error(&[10.0, 20.0], &[15.0, 20.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mre_perfect_is_zero() {
        assert_eq!(mean_relative_error(&[3.0, 4.0], &[3.0, 4.0]), 0.0);
    }

    #[test]
    fn mre_handles_zero_actual_without_infinity() {
        let v = mean_relative_error(&[0.0, 1.0], &[1.0, 1.0]);
        assert!(v.is_finite());
    }

    #[test]
    fn relative_error_single() {
        assert!((relative_error(100.0, 214.0) - 1.14).abs() < 1e-12);
    }

    #[test]
    fn r2_perfect_and_mean_baseline() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((predictive_risk(&a, &a) - 1.0).abs() < 1e-12);
        let mean_pred = [2.5; 4];
        assert!(predictive_risk(&a, &mean_pred).abs() < 1e-12);
    }

    #[test]
    fn risk_can_be_high_while_mre_is_high() {
        // The paper's Section 5.2 point: on wide-scale data, a fit can have
        // risk near 1 while mean relative error is ~100%+.
        let actual = [1.0, 2.0, 4.0, 1000.0, 2000.0, 4000.0];
        let estimate = [3.0, 5.0, 9.0, 1010.0, 1990.0, 4005.0];
        assert!(predictive_risk(&actual, &estimate) > 0.95);
        assert!(mean_relative_error(&actual, &estimate) > 0.5);
    }

    #[test]
    fn r2_constant_actuals_is_zero() {
        assert_eq!(predictive_risk(&[2.0, 2.0], &[1.0, 3.0]), 0.0);
    }
}
