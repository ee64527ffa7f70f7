//! The lane layout, the one RBF kernel over it, and the serving path of an
//! SVR model.
//!
//! Vectors are packed by `pack` as **lane-padded SoA blocks** of `LANES`
//! = 8 vectors each, feature-major within a block and zero-padded to a
//! whole block. `rbf_lanes` evaluates the RBF kernel of one row against
//! the eight vectors of one block; it is the only place the workspace
//! evaluates an RBF term. A fitted [`SvrModel`] is stored once, in that
//! layout: support vectors with a zero coefficient are not stored, and
//! padding carries a zero coefficient, so padded lanes only ever add `+0.0`
//! to their own accumulator. The Gram matrix of an SMO solve packs its
//! training rows the same way and fills its tiles with the same function
//! ([`crate::gram`]). A linear model is already a flat weight vector.
//! [`Svr::fit`] and [`SvrModel::decode`] pack the blocks directly, and no
//! other copy of the model exists.
//!
//! An SVR model has one summation order, the lane tree
//! [`SvrModel::predict_into`]: scaling, the kernel expansion, the bias and
//! the target inverse in a single pass over a caller-provided scratch
//! buffer, so a steady-state prediction performs zero heap allocations
//! (`tests/zero_alloc.rs` counts them). [`SvrModel::predict_batch_into`]
//! is that call in a loop over a caller-owned output buffer, and
//! `SvrModel::predict` is it with a scratch of its own. Serving reads it,
//! and so do cross-validation and forward selection, so the errors training
//! records and the features it selects are those of the sums the model
//! serves.
//!
//! # Accumulation order
//!
//! The lane tree evaluates the kernel sum in a **fixed reduction-tree
//! order**: eight independent lane accumulators `s0..s7` (support vector
//! `i` always lands in lane `i % 8`), each updated once per block in block
//! order, combined at the end as `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))`.
//! That order is part of the model's numeric contract: it does not depend
//! on the thread count or on how many rows are evaluated together, and
//! snapshots, prediction caches and `tests/all/golden_snapshot.rs` rely on it.
//! It is plain safe Rust, which the compiler vectorises across the lanes.
//! At the 3–11 columns forward selection leaves, a kernel term is one libm
//! `exp` called lane by lane, so hand-written AVX2 around it measures
//! 1.0–1.1× of this loop row by row — which is how every caller in the
//! workspace evaluates — and the scalar tree is no faster with four rows
//! per pass over the support vectors (0.87–1.07×). DESIGN.md §7 has the
//! tables and the condition under which a SIMD twin would pay.
//!
//! The unit tests keep a left-to-right fold over the support vectors as
//! the reference the tree is held to: the two agree to
//! summation-reordering rounding — within `1e-12 · (1 +
//! SvrModel::sum_magnitude)`, which the `compiled_props` and `simd_props`
//! unit tests assert — rather than bit for bit. The fold is a
//! loop-carried dependence chain — one f64 add latency per support vector
//! — which is exactly what the lane tree exists to break.
//!
//! [`Svr::fit`]: crate::Svr::fit

use crate::svr::SvrModel;

/// Vectors per lane-padded SoA block.
pub(crate) const LANES: usize = 8;

/// Fixed final combine of the eight lane accumulators.
#[inline(always)]
fn combine_tree(s: &[f64; LANES]) -> f64 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// Packs `n` vectors of `d` features into the lane layout: `v(i, k)` is
/// feature `k` of vector `i`, stored at `b * d * LANES + k * LANES + l`
/// for `i = b * LANES + l`; lanes past the last vector are zero.
pub(crate) fn pack(n: usize, d: usize, v: impl Fn(usize, usize) -> f64) -> Box<[f64]> {
    let mut lanes = vec![0.0; n.div_ceil(LANES) * d * LANES];
    for i in 0..n {
        let base = (i / LANES) * d * LANES + i % LANES;
        for k in 0..d {
            lanes[base + k * LANES] = v(i, k);
        }
    }
    lanes.into()
}

/// The RBF kernel `exp(-gamma · ‖x − v‖²)` of `x` against the eight
/// vectors `v` of one packed block (`x.len() * LANES` values): each squared
/// distance is a left-to-right sum over the features started at +0.0.
/// `(v − x)² = (x − v)²` exactly in IEEE 754, so which of two rows is `x`
/// does not move a bit. The only RBF evaluation outside the tests: the
/// Gram matrix and the lane tree both call it.
#[inline(always)]
pub(crate) fn rbf_lanes(x: &[f64], block: &[f64], gamma: f64) -> [f64; LANES] {
    let mut sq = [0.0f64; LANES];
    for (vs, &xk) in block.chunks_exact(LANES).zip(x) {
        for (s, &v) in sq.iter_mut().zip(vs) {
            let diff = v - xk;
            *s += diff * diff;
        }
    }
    sq.map(|s| (-gamma * s).exp())
}

/// Reusable scratch space for [`SvrModel::predict_into`] and
/// [`SvrModel::predict_batch_into`].
///
/// Holds the scaled row of one kernel call so repeated predictions
/// (loops, batches, a cross-validation fold) allocate nothing after the
/// first call. A scratch can be reused across models with different
/// feature counts and across single-row and batched calls; it simply
/// resizes (retaining capacity) as needed.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    /// `n_features` scaled values.
    xr: Vec<f64>,
}

impl PredictScratch {
    /// Creates an empty scratch; the buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn zeroed(&mut self, len: usize) -> &mut [f64] {
        self.xr.clear();
        self.xr.resize(len, 0.0);
        &mut self.xr
    }
}

impl SvrModel {
    /// Predicts one (unscaled) feature row with the lane tree, reusing
    /// `scratch` so the call performs no heap allocation once the scratch
    /// has warmed up. Every prediction of an SVR model is this call.
    ///
    /// The row length is checked with a `debug_assert!` only.
    pub fn predict_into(&self, row: &[f64], scratch: &mut PredictScratch) -> f64 {
        let d = self.n_features;
        debug_assert_eq!(row.len(), d, "svr model expects {d} features");
        let xr = scratch.zeroed(d);
        self.x_scaler.transform_row_into(row, xr);
        self.y_scaler.inverse(self.bias + self.kernel_sum(xr))
    }

    /// [`SvrModel::predict_into`] with a scratch of its own: one
    /// allocation a call. A loop should hold a [`PredictScratch`].
    pub(crate) fn predict(&self, row: &[f64]) -> f64 {
        self.predict_into(row, &mut PredictScratch::new())
    }

    /// Serial batched prediction into a caller-owned output buffer: a
    /// per-row [`SvrModel::predict_into`] loop (so it has that loop's
    /// bits) with zero heap allocations once `out`'s capacity and the
    /// scratch have warmed up.
    pub fn predict_batch_into<R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        out: &mut Vec<f64>,
        scratch: &mut PredictScratch,
    ) {
        out.clear();
        out.reserve(rows.len());
        for row in rows {
            out.push(self.predict_into(row.as_ref(), scratch));
        }
    }

    /// The lane tree over one scaled row: eight independent lane
    /// accumulators, each updated once per block in block order.
    fn kernel_sum(&self, xr: &[f64]) -> f64 {
        let width = self.n_features * LANES;
        let mut acc = [0.0f64; LANES];
        for (b, cs) in self.coef_lanes.chunks_exact(LANES).enumerate() {
            let block = &self.sv_lanes[b * width..(b + 1) * width];
            let k = rbf_lanes(xr, block, self.gamma);
            for ((a, &c), &kl) in acc.iter_mut().zip(cs).zip(&k) {
                *a += c * kl;
            }
        }
        combine_tree(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::linreg::LinearModel;
    use crate::svr::{Svr, SvrParams};
    use crate::TrainedModel;

    fn fitted() -> (Dataset, SvrModel) {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i % 7) as f64, (i * i % 13) as f64])
            .collect();
        let x = Dataset::from_rows(rows);
        let y: Vec<f64> = x
            .rows()
            .map(|r| 2.0 * r[0] + r[1] * r[2] * 0.3 + 5.0)
            .collect();
        let m = Svr::new(SvrParams::default()).fit(&x, &y).unwrap();
        (x, m)
    }

    fn probe_rows(x: &Dataset) -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = x.rows().map(<[f64]>::to_vec).collect();
        rows.push(vec![100.0, 3.5, -2.0]);
        rows.push(vec![-7.0, 0.0, 0.25]);
        rows
    }

    #[test]
    fn lane_tree_stays_within_reorder_tolerance_of_reference() {
        let (x, m) = fitted();
        let mut scratch = PredictScratch::new();
        for row in probe_rows(&x) {
            let reference = m.predict_fold(&row);
            let tree = m.predict_into(&row, &mut scratch);
            let tol = 1e-12 * (1.0 + m.sum_magnitude(&row));
            assert!(
                (reference - tree).abs() <= tol,
                "|{reference} - {tree}| > {tol}"
            );
        }
    }

    #[test]
    fn zero_coefficient_support_vectors_are_pruned_without_changing_bits() {
        let (x, clean) = fitted();
        let mut scratch = PredictScratch::new();
        let before: Vec<u64> = x
            .rows()
            .map(|r| clean.predict_into(r, &mut scratch).to_bits())
            .collect();
        // Rebuild the model from its parts with explicit zero-coefficient
        // vectors around them (fit never produces them, but hand-built
        // models may). They are dropped before lanes are assigned, so the
        // layout — and the bits — match the clean model exactly.
        let d = clean.n_features;
        let mut svs: Vec<Vec<f64>> = (0..clean.n_support_vectors)
            .map(|i| clean.support_vector(i).collect())
            .collect();
        let mut coefs = clean.coef_lanes[..clean.n_support_vectors].to_vec();
        svs.insert(0, vec![0.5; d]);
        coefs.insert(0, 0.0);
        svs.push(vec![0.5; d]);
        coefs.push(-0.0);
        let m = SvrModel::from_parts(
            clean.kernel,
            clean.gamma,
            svs,
            coefs,
            clean.bias,
            clean.x_scaler.clone(),
            clean.y_scaler.clone(),
            d,
        );
        assert_eq!(m.n_support_vectors(), clean.n_support_vectors());
        assert_eq!(m.sv_lanes, clean.sv_lanes);
        assert_eq!(m.coef_lanes, clean.coef_lanes);
        for (row, &bits) in x.rows().zip(&before) {
            assert_eq!(m.predict_into(row, &mut scratch).to_bits(), bits);
        }
    }

    #[test]
    fn batch_matches_single_row_bits_for_all_tail_shapes() {
        let (x, m) = fitted();
        let rows = probe_rows(&x);
        let mut scratch = PredictScratch::new();
        let expect: Vec<u64> = rows
            .iter()
            .map(|r| m.predict_into(r, &mut scratch).to_bits())
            .collect();
        // Empty, short and full batches; the full set checks input order.
        let mut out = vec![f64::NAN];
        for n in (0..=9).chain([rows.len()]) {
            let slice: Vec<&[f64]> = rows[..n].iter().map(Vec::as_slice).collect();
            m.predict_batch_into(&slice, &mut out, &mut scratch);
            let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect[..n], "batch length {n}");
        }
    }

    #[test]
    fn trained_model_serves_both_variants() {
        let (x, m) = fitted();
        let row = x.row(3);
        let mut scratch = PredictScratch::new();
        let bits = m.predict_into(row, &mut scratch).to_bits();
        assert_eq!(m.predict(row).to_bits(), bits);
        // The wrapper runs the lane tree of the bare model.
        let tm = TrainedModel::Svr(m);
        assert_eq!(tm.predict_into(row, &mut scratch).to_bits(), bits);
        assert_eq!(tm.predict(row).to_bits(), bits);

        let lm = TrainedModel::Linear(LinearModel {
            intercept: 1.0,
            weights: vec![2.0, 3.0],
        });
        // A linear model serves what it predicts.
        assert_eq!(
            lm.predict(&[4.0, 5.0]).to_bits(),
            lm.predict_into(&[4.0, 5.0], &mut scratch).to_bits()
        );
    }
}
