//! Compiled low-latency inference path.
//!
//! Training produces [`crate::TrainedModel`]s whose SVR variant stores
//! support vectors as a `Vec<Vec<f64>>` — one heap allocation per vector —
//! and whose prediction path allocates a fresh scaled-row buffer per call.
//! That layout is fine for training but wasteful at optimizer time, where
//! the paper's models are evaluated once per candidate plan under latency
//! pressure.
//!
//! [`CompiledModel`] is a post-training compilation of a trained model.
//! A linear model is already a flat weight vector and passes through
//! unchanged. For an SVR model ([`CompiledSvr`]):
//!
//! - support vectors with a zero dual coefficient are pruned,
//! - the survivors are packed as **lane-padded SoA blocks** of [`LANES`]
//!   = 8 support vectors each, feature-major within a block and
//!   zero-padded to a whole block (padding carries a zero coefficient, so
//!   padded lanes only ever add `+0.0` to their own accumulator),
//! - scaling, the kernel expansion, the bias, and the target inverse run in
//!   a single pass over a caller-provided scratch buffer, so a
//!   steady-state prediction performs zero heap allocations
//!   (`tests/zero_alloc.rs` counts them).
//!
//! There are two entry points, one kernel. [`CompiledSvr::predict_into`]
//! evaluates one row; [`CompiledSvr::predict_batch_into`] is that call in a
//! loop over a caller-owned output buffer.
//!
//! # Accumulation order
//!
//! The kernel sum is evaluated in a **fixed reduction-tree order**: eight
//! independent lane accumulators `s0..s7` (support vector `i` always lands
//! in lane `i % 8`), each updated once per block in block order, combined
//! at the end as `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))`. That order is
//! part of the model's numeric contract: it does not depend on the thread
//! count or on how many rows are evaluated together, and snapshots,
//! prediction caches and `tests/golden_snapshot.rs` rely on it. It is
//! plain safe Rust, which the compiler vectorises across the lanes. At
//! the 3–11 columns forward selection leaves, a kernel term is one libm
//! `exp` called lane by lane, so hand-written AVX2 around it measures
//! 1.0–1.1× of this loop row by row — which is how every caller in the
//! workspace evaluates — and the scalar tree is no faster with four rows
//! per pass over the support vectors (0.87–1.07×). DESIGN.md §7 has the
//! tables and the condition under which a SIMD twin would pay.
//!
//! Relative to the *reference* [`crate::SvrModel::predict`] (a single
//! left-to-right fold, the only one in the crate), the tree order regroups
//! the same additions, so compiled predictions agree with the reference to
//! summation-reordering rounding — within `1e-12 · (1 +`
//! [`crate::SvrModel::sum_magnitude`]`)`, which `tests/compiled_props.rs`
//! asserts — rather than bit-for-bit. The left-to-right fold is a
//! loop-carried dependence chain — one f64 add latency per support vector
//! — which is exactly what the lane tree exists to break.

use crate::linreg::LinearModel;
use crate::scaler::{StandardScaler, TargetScaler};
use crate::svr::SvrModel;
use crate::MlError;

/// Support vectors per lane-padded SoA block.
pub const LANES: usize = 8;

/// Fixed final combine of the eight lane accumulators.
#[inline(always)]
fn combine_tree(s: &[f64; LANES]) -> f64 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// Reusable scratch space for [`CompiledSvr::predict_into`] and
/// [`CompiledSvr::predict_batch_into`].
///
/// Holds the scaled row of one kernel call so repeated predictions
/// (loops, batches) allocate nothing after the first call. A scratch can
/// be reused across models with different feature counts and across
/// single-row and batched calls; it simply resizes (retaining capacity)
/// as needed.
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

/// An SVR model compiled for low-latency inference: lane-padded SoA
/// support-vector storage, zero-coefficient vectors pruned, fused scale →
/// kernel → bias → target-inverse evaluation.
#[derive(Debug, Clone)]
pub struct CompiledSvr {
    gamma: f64,
    /// Lane-padded SoA blocks: `n_blocks * n_features * LANES` values.
    /// Block `b`, feature `k`, lane `l` lives at
    /// `b * n_features * LANES + k * LANES + l` and holds feature `k` of
    /// support vector `b * LANES + l` (zero beyond the last real vector).
    sv_lanes: Vec<f64>,
    /// Coefficients padded with zeros to `n_blocks * LANES`.
    coef_lanes: Vec<f64>,
    /// Support vectors retained after pruning.
    n_support_vectors: usize,
    bias: f64,
    x_scaler: StandardScaler,
    y_scaler: TargetScaler,
    n_features: usize,
}

impl CompiledSvr {
    /// Compiles a trained [`SvrModel`] (see module docs for the layout).
    pub fn compile(model: &SvrModel) -> Self {
        let d = model.n_features;
        let kept: Vec<(&Vec<f64>, f64)> = model
            .support_vectors
            .iter()
            .zip(model.coefficients.iter().copied())
            .filter(|&(_, c)| c != 0.0)
            .collect();
        let n_blocks = kept.len().div_ceil(LANES);
        let mut sv_lanes = vec![0.0; n_blocks * d * LANES];
        let mut coef_lanes = vec![0.0; n_blocks * LANES];
        for (i, &(sv, c)) in kept.iter().enumerate() {
            let (b, l) = (i / LANES, i % LANES);
            coef_lanes[b * LANES + l] = c;
            for k in 0..d {
                sv_lanes[b * d * LANES + k * LANES + l] = sv[k];
            }
        }
        CompiledSvr {
            gamma: model.gamma,
            sv_lanes,
            coef_lanes,
            n_support_vectors: kept.len(),
            bias: model.bias,
            x_scaler: model.x_scaler.clone(),
            y_scaler: model.y_scaler.clone(),
            n_features: d,
        }
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of support vectors retained after pruning.
    pub fn n_support_vectors(&self) -> usize {
        self.n_support_vectors
    }

    /// Predicts one (unscaled) feature row, reusing `scratch` so the call
    /// performs no heap allocation once the scratch has warmed up.
    ///
    /// The row length is checked with a `debug_assert!` only; use
    /// [`CompiledSvr::try_predict_into`] for a checked variant.
    pub fn predict_into(&self, row: &[f64], scratch: &mut PredictScratch) -> f64 {
        let d = self.n_features;
        debug_assert_eq!(row.len(), d, "compiled svr expects {d} features");
        let xr = scratch.zeroed(d);
        self.x_scaler.transform_row_into(row, xr);
        self.y_scaler.inverse(self.bias + self.kernel_sum(xr))
    }

    /// Checked variant of [`CompiledSvr::predict_into`]: returns
    /// [`MlError::ShapeMismatch`] instead of asserting on a wrong-arity row.
    pub fn try_predict_into(&self, row: &[f64], scratch: &mut PredictScratch) -> Result<f64, MlError> {
        if row.len() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                got: row.len(),
            });
        }
        Ok(self.predict_into(row, scratch))
    }

    /// Serial batched prediction into a caller-owned output buffer: a
    /// per-row [`CompiledSvr::predict_into`] loop (so it has that loop's
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
        let d = self.n_features;
        let mut acc = [0.0f64; LANES];
        if d == 0 {
            // Empty kernel rows: exp(-gamma·0) == 1, so each lane just
            // sums its coefficients.
            for cs in self.coef_lanes.chunks_exact(LANES) {
                for (a, &c) in acc.iter_mut().zip(cs) {
                    *a += c;
                }
            }
            return combine_tree(&acc);
        }
        let blocks = self
            .sv_lanes
            .chunks_exact(d * LANES)
            .zip(self.coef_lanes.chunks_exact(LANES));
        for (block, cs) in blocks {
            let mut sq = [0.0f64; LANES];
            for (svs, &x) in block.chunks_exact(LANES).zip(xr.iter()) {
                for (sl, &s) in sq.iter_mut().zip(svs) {
                    let diff = s - x;
                    *sl += diff * diff;
                }
            }
            for ((a, &c), &sv) in acc.iter_mut().zip(cs).zip(&sq) {
                *a += c * (-self.gamma * sv).exp();
            }
        }
        combine_tree(&acc)
    }
}

/// A trained model compiled for low-latency inference.
///
/// Linear models are already a flat weight vector, so they pass through
/// unchanged (bit-identical to their trained form); SVR models get the
/// lane-padded/pruned/fused treatment of [`CompiledSvr`] and its
/// fixed-reduction-tree numeric contract (see the module docs).
#[derive(Debug, Clone)]
pub enum CompiledModel {
    /// Compiled linear model (identical to its trained form).
    Linear(LinearModel),
    /// Compiled SVR model.
    Svr(CompiledSvr),
}

impl CompiledModel {
    /// Predicts one row, reusing `scratch` (zero allocations for the SVR
    /// variant once the scratch has warmed up).
    pub fn predict_into(&self, row: &[f64], scratch: &mut PredictScratch) -> f64 {
        match self {
            CompiledModel::Linear(m) => m.predict(row),
            CompiledModel::Svr(m) => m.predict_into(row, scratch),
        }
    }

    /// Checked variant of [`CompiledModel::predict_into`].
    pub fn try_predict_into(
        &self,
        row: &[f64],
        scratch: &mut PredictScratch,
    ) -> Result<f64, MlError> {
        match self {
            CompiledModel::Linear(m) => m.try_predict(row),
            CompiledModel::Svr(m) => m.try_predict_into(row, scratch),
        }
    }

    /// Serial batched prediction into a caller-owned buffer; zero heap
    /// allocations at steady state for both variants.
    pub fn predict_batch_into<R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        out: &mut Vec<f64>,
        scratch: &mut PredictScratch,
    ) {
        match self {
            CompiledModel::Linear(m) => {
                out.clear();
                out.reserve(rows.len());
                for r in rows {
                    out.push(m.predict(r.as_ref()));
                }
            }
            CompiledModel::Svr(m) => m.predict_batch_into(rows, out, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
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
        let c = CompiledSvr::compile(&m);
        let mut scratch = PredictScratch::new();
        for row in probe_rows(&x) {
            let reference = m.predict(&row);
            let compiled = c.predict_into(&row, &mut scratch);
            let tol = 1e-12 * (1.0 + m.sum_magnitude(&row));
            assert!(
                (reference - compiled).abs() <= tol,
                "|{reference} - {compiled}| > {tol}"
            );
        }
    }

    #[test]
    fn zero_coefficient_support_vectors_are_pruned_without_changing_bits() {
        let (x, clean) = fitted();
        let mut scratch = PredictScratch::new();
        let cc = CompiledSvr::compile(&clean);
        let before: Vec<u64> = x
            .rows()
            .map(|r| cc.predict_into(r, &mut scratch).to_bits())
            .collect();
        // Inject explicit zero-coefficient vectors (fit never produces
        // them, but deserialized or hand-built models may). Pruning runs
        // before lane assignment, so the padded layout — and the bits —
        // match the clean compile exactly.
        let mut m = clean.clone();
        let fake = vec![0.5; m.n_features];
        m.support_vectors.insert(0, fake.clone());
        m.coefficients.insert(0, 0.0);
        m.support_vectors.push(fake);
        m.coefficients.push(-0.0);
        let c = CompiledSvr::compile(&m);
        assert_eq!(c.n_support_vectors(), m.n_support_vectors() - 2);
        for (row, &bits) in x.rows().zip(&before) {
            assert_eq!(c.predict_into(row, &mut scratch).to_bits(), bits);
        }
    }

    #[test]
    fn batch_matches_single_row_bits_for_all_tail_shapes() {
        let (x, m) = fitted();
        let c = CompiledSvr::compile(&m);
        let rows = probe_rows(&x);
        let mut scratch = PredictScratch::new();
        let expect: Vec<u64> = rows
            .iter()
            .map(|r| c.predict_into(r, &mut scratch).to_bits())
            .collect();
        // Empty, short and full batches; the full set checks input order.
        let mut out = vec![f64::NAN];
        for n in (0..=9).chain([rows.len()]) {
            let slice: Vec<&[f64]> = rows[..n].iter().map(Vec::as_slice).collect();
            c.predict_batch_into(&slice, &mut out, &mut scratch);
            let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect[..n], "batch length {n}");
        }
    }

    #[test]
    fn checked_prediction_reports_shape_mismatch() {
        let (_, m) = fitted();
        let c = m.compile();
        let mut scratch = PredictScratch::new();
        assert!(matches!(
            c.try_predict_into(&[1.0], &mut scratch),
            Err(MlError::ShapeMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert!(c.try_predict_into(&[1.0, 2.0, 3.0], &mut scratch).is_ok());
    }

    #[test]
    fn trained_model_compile_dispatches_both_variants() {
        let (x, m) = fitted();
        let c = m.compile();
        let tm = TrainedModel::Svr(m);
        let cm = tm.compile();
        assert!(matches!(cm, CompiledModel::Svr(_)));
        let row = x.row(3);
        let mut scratch = PredictScratch::new();
        // The wrapper runs the same compiled kernel as the bare CompiledSvr.
        assert_eq!(
            cm.predict_into(row, &mut scratch).to_bits(),
            c.predict_into(row, &mut scratch).to_bits()
        );

        let lm = TrainedModel::Linear(LinearModel {
            intercept: 1.0,
            weights: vec![2.0, 3.0],
        });
        let clm = lm.compile();
        // Linear models pass through compilation unchanged.
        assert_eq!(
            lm.predict(&[4.0, 5.0]).to_bits(),
            clm.predict_into(&[4.0, 5.0], &mut scratch).to_bits()
        );
    }
}
