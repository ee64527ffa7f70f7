//! Order statistics used to turn per-operation samples into per-round
//! values and per-round values into the reported metric.
//!
//! Every reported timing is a **median over rounds** of a per-round
//! value: interference that hits a minority of rounds moves the mean but
//! not the median, which is what makes two runs of the same code agree.

/// Median of `values` (mean of the two middle elements for an even
/// count). NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an ascending-sorted
/// slice: the smallest element with at least `p` % of the samples at or
/// below it. 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Coefficient of variation (population standard deviation ÷ mean): the
/// run's own reading of how noisy its rounds were.
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}
