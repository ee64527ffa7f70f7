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
//! - the kernel dispatch is hoisted out of the per-support-vector loop,
//! - scaling, the kernel expansion, the bias, and the target inverse run in
//!   a single pass over a caller-provided scratch buffer, so a
//!   steady-state prediction performs zero heap allocations
//!   (`tests/zero_alloc.rs` counts them).
//!
//! There are two entry points. [`CompiledSvr::predict_into`] evaluates one
//! row. [`CompiledSvr::predict_batch_into`] evaluates rows in blocks of
//! four (tail rows one at a time): each support-vector lane vector is
//! loaded once and feeds four rows' accumulators, turning the load-bound
//! per-row loop into an arithmetic-bound sweep.
//!
//! # Accumulation order
//!
//! The kernel sum is evaluated in a **fixed reduction-tree order**: eight
//! independent lane accumulators `s0..s7` (support vector `i` always lands
//! in lane `i % 8`), each updated once per block in block order, combined
//! at the end as `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))`. That order is
//! part of the model's numeric contract: it does not depend on the thread
//! count, on how many rows are evaluated together, or on which
//! implementation runs. Two implementations exist — an unrolled scalar
//! tree (the portable fallback, and the reference the other is tested
//! against) and one AVX2 kernel generic over the number of rows it
//! evaluates at once, using two 4-wide `f64` vectors per row,
//! runtime-dispatched on `is_x86_feature_detected!("avx2")` — and they
//! are **bit-identical to each other** by construction: the per-lane
//! operation sequences are the same scalar IEEE ops in the same order
//! (the RBF `exp` stays scalar per lane in both), only their interleaving
//! across independent lanes and rows differs. `tests/simd_props.rs`
//! enforces exact equality across random models, arities and batch
//! lengths. The `force-scalar` cargo feature compiles the dispatch out so
//! CI can exercise the fallback on AVX2 hosts.
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
use crate::svr::{Kernel, SvrModel};
use crate::MlError;

/// Support vectors per lane-padded SoA block (two 4-wide AVX2 vectors).
pub const LANES: usize = 8;

/// Rows [`CompiledSvr::predict_batch_into`] evaluates per pass over the
/// support vectors.
const BLOCK_ROWS: usize = 4;

/// True when the dispatched hot path will use the AVX2 kernel on this
/// host. Always false with the `force-scalar` feature or off x86_64.
pub fn simd_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
    {
        false
    }
}

/// Fixed final combine of the eight lane accumulators. Shared by the
/// scalar tree and the AVX2 path so the reduction order is identical.
#[inline(always)]
fn combine_tree(s: &[f64; LANES]) -> f64 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// Reusable scratch space for [`CompiledSvr::predict_into`] and
/// [`CompiledSvr::predict_batch_into`].
///
/// Holds the scaled rows of one kernel call so repeated predictions
/// (loops, batches) allocate nothing after the first call. A scratch can
/// be reused across models with different feature counts and across
/// single-row and batched calls; it simply resizes (retaining capacity)
/// as needed.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    /// `ROWS × n_features` scaled values, row-major.
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
    kernel: Kernel,
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
    /// AVX2 detected at compile() time (and not compiled out).
    use_simd: bool,
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
            kernel: model.kernel,
            gamma: model.gamma,
            sv_lanes,
            coef_lanes,
            n_support_vectors: kept.len(),
            use_simd: simd_available(),
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
    /// Runs the lane-tree kernel (AVX2 when available, scalar tree
    /// otherwise — bit-identical either way). The row length is checked
    /// with a `debug_assert!` only; use [`CompiledSvr::try_predict_into`]
    /// for a checked variant.
    pub fn predict_into(&self, row: &[f64], scratch: &mut PredictScratch) -> f64 {
        self.predict_rows([row], scratch)[0]
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

    /// Forces the unrolled scalar-tree kernel regardless of host features
    /// (same bits as the dispatched path; used by tests and benches).
    pub fn predict_into_scalar(&self, row: &[f64], scratch: &mut PredictScratch) -> f64 {
        let [xr] = self.scaled([row], scratch);
        self.finish(self.kernel_sum_scalar(xr))
    }

    /// Forces the AVX2 kernel; `None` when it is unavailable (non-x86_64,
    /// no AVX2, or the `force-scalar` feature). Used by the bit-identity
    /// property tests and benches.
    pub fn predict_into_simd(&self, row: &[f64], scratch: &mut PredictScratch) -> Option<f64> {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                let xrs = self.scaled([row], scratch);
                // SAFETY: AVX2 presence was just verified, and `scaled`
                // hands out rows of exactly `n_features` values.
                let [sum] = unsafe { self.kernel_sums_avx2(xrs) };
                return Some(self.finish(sum));
            }
        }
        let _ = (row, scratch);
        None
    }

    /// Serial batched prediction into a caller-owned output buffer: zero
    /// heap allocations once `out`'s capacity and the scratch have warmed
    /// up. Rows go through the kernel four at a time — one pass over the
    /// support vectors feeds four rows' accumulators — and the up to three
    /// tail rows one at a time. Each row keeps its own lane accumulators
    /// and per-lane operation order, so the output has the same bits as a
    /// per-row [`CompiledSvr::predict_into`] loop.
    pub fn predict_batch_into<R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        out: &mut Vec<f64>,
        scratch: &mut PredictScratch,
    ) {
        out.clear();
        out.reserve(rows.len());
        let mut blocks = rows.chunks_exact(BLOCK_ROWS);
        for block in &mut blocks {
            let block: [&[f64]; BLOCK_ROWS] = std::array::from_fn(|r| block[r].as_ref());
            out.extend_from_slice(&self.predict_rows(block, scratch));
        }
        for row in blocks.remainder() {
            out.push(self.predict_into(row.as_ref(), scratch));
        }
    }

    /// `ROWS` predictions from one dispatched pass over the support
    /// vectors.
    #[inline]
    fn predict_rows<const ROWS: usize>(
        &self,
        rows: [&[f64]; ROWS],
        scratch: &mut PredictScratch,
    ) -> [f64; ROWS] {
        let xrs = self.scaled(rows, scratch);
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        {
            if self.use_simd && self.n_features > 0 {
                // SAFETY: `use_simd` is only set when AVX2 was detected,
                // and `scaled` hands out rows of exactly `n_features`
                // values.
                return unsafe { self.kernel_sums_avx2(xrs) }.map(|s| self.finish(s));
            }
        }
        xrs.map(|xr| self.finish(self.kernel_sum_scalar(xr)))
    }

    /// Scales `rows` into the scratch and returns them as slices of
    /// exactly `n_features` values each — the length the kernels rely on,
    /// whatever the caller passed (a wrong-arity row is a caller bug,
    /// caught by the `debug_assert!`).
    #[inline]
    fn scaled<'s, const ROWS: usize>(
        &self,
        rows: [&[f64]; ROWS],
        scratch: &'s mut PredictScratch,
    ) -> [&'s [f64]; ROWS] {
        let d = self.n_features;
        let buf = scratch.zeroed(ROWS * d);
        for (r, row) in rows.iter().enumerate() {
            debug_assert_eq!(row.len(), d, "compiled svr expects {d} features");
            self.x_scaler
                .transform_row_into(row, &mut buf[r * d..(r + 1) * d]);
        }
        let buf: &'s [f64] = buf;
        std::array::from_fn(|r| &buf[r * d..(r + 1) * d])
    }

    /// Bias and target inverse: the shared tail of every kernel sum.
    #[inline(always)]
    fn finish(&self, kernel_sum: f64) -> f64 {
        self.y_scaler.inverse(self.bias + kernel_sum)
    }

    /// Unrolled scalar reduction tree: eight independent lane
    /// accumulators, per-lane ops in the exact order the AVX2 path uses.
    fn kernel_sum_scalar(&self, xr: &[f64]) -> f64 {
        let d = self.n_features;
        let mut acc = [0.0f64; LANES];
        if d == 0 {
            // Empty kernel rows: linear dot is +0.0 (never moves a lane
            // accumulator off +0.0); RBF is exp(-gamma·0) == 1, so each
            // lane just sums its coefficients.
            if matches!(self.kernel, Kernel::Rbf { .. }) {
                for cs in self.coef_lanes.chunks_exact(LANES) {
                    for (a, &c) in acc.iter_mut().zip(cs) {
                        *a += c;
                    }
                }
            }
            return combine_tree(&acc);
        }
        let blocks = self
            .sv_lanes
            .chunks_exact(d * LANES)
            .zip(self.coef_lanes.chunks_exact(LANES));
        match self.kernel {
            Kernel::Linear => {
                for (block, cs) in blocks {
                    let mut dot = [0.0f64; LANES];
                    for (svs, &x) in block.chunks_exact(LANES).zip(xr.iter()) {
                        for (dl, &s) in dot.iter_mut().zip(svs) {
                            *dl += s * x;
                        }
                    }
                    for ((a, &c), &dv) in acc.iter_mut().zip(cs).zip(&dot) {
                        *a += c * dv;
                    }
                }
            }
            Kernel::Rbf { .. } => {
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
            }
        }
        combine_tree(&acc)
    }

    /// AVX2 reduction tree for `ROWS` rows at once: two 4-wide vectors per
    /// block and row (lanes 0–3 and 4–7), each support-vector lane vector
    /// loaded once and fed to every row's accumulators. Per row and lane
    /// this performs the same scalar IEEE operations in the same order as
    /// [`CompiledSvr::kernel_sum_scalar`] — multiplies and adds vectorize
    /// element-wise, the RBF `exp` stays scalar per lane — so the result
    /// for a row is bit-identical to the scalar tree's whatever `ROWS` is;
    /// only the interleaving in time differs.
    ///
    /// # Safety
    /// Callers must ensure AVX2 is available. Every row in `xrs` must hold
    /// at least `self.n_features` values.
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    #[target_feature(enable = "avx2")]
    unsafe fn kernel_sums_avx2<const ROWS: usize>(&self, xrs: [&[f64]; ROWS]) -> [f64; ROWS] {
        use std::arch::x86_64::*;
        let d = self.n_features;
        let n_blocks = self.coef_lanes.len() / LANES;
        let sv = self.sv_lanes.as_ptr();
        let cf = self.coef_lanes.as_ptr();
        let mut acc = [[0.0f64; LANES]; ROWS];
        match self.kernel {
            Kernel::Linear => {
                let mut a_lo = [_mm256_setzero_pd(); ROWS];
                let mut a_hi = [_mm256_setzero_pd(); ROWS];
                for b in 0..n_blocks {
                    let base = b * d * LANES;
                    let mut d_lo = [_mm256_setzero_pd(); ROWS];
                    let mut d_hi = [_mm256_setzero_pd(); ROWS];
                    for k in 0..d {
                        let p = sv.add(base + k * LANES);
                        let s_lo = _mm256_loadu_pd(p);
                        let s_hi = _mm256_loadu_pd(p.add(4));
                        for (r, xr) in xrs.iter().enumerate() {
                            let x = _mm256_set1_pd(*xr.get_unchecked(k));
                            d_lo[r] = _mm256_add_pd(d_lo[r], _mm256_mul_pd(s_lo, x));
                            d_hi[r] = _mm256_add_pd(d_hi[r], _mm256_mul_pd(s_hi, x));
                        }
                    }
                    let cp = cf.add(b * LANES);
                    let c_lo = _mm256_loadu_pd(cp);
                    let c_hi = _mm256_loadu_pd(cp.add(4));
                    for r in 0..ROWS {
                        a_lo[r] = _mm256_add_pd(a_lo[r], _mm256_mul_pd(c_lo, d_lo[r]));
                        a_hi[r] = _mm256_add_pd(a_hi[r], _mm256_mul_pd(c_hi, d_hi[r]));
                    }
                }
                for r in 0..ROWS {
                    _mm256_storeu_pd(acc[r].as_mut_ptr(), a_lo[r]);
                    _mm256_storeu_pd(acc[r].as_mut_ptr().add(4), a_hi[r]);
                }
            }
            Kernel::Rbf { .. } => {
                for b in 0..n_blocks {
                    let base = b * d * LANES;
                    let mut sq_lo = [_mm256_setzero_pd(); ROWS];
                    let mut sq_hi = [_mm256_setzero_pd(); ROWS];
                    for k in 0..d {
                        let p = sv.add(base + k * LANES);
                        let s_lo = _mm256_loadu_pd(p);
                        let s_hi = _mm256_loadu_pd(p.add(4));
                        for (r, xr) in xrs.iter().enumerate() {
                            let x = _mm256_set1_pd(*xr.get_unchecked(k));
                            let e_lo = _mm256_sub_pd(s_lo, x);
                            let e_hi = _mm256_sub_pd(s_hi, x);
                            sq_lo[r] = _mm256_add_pd(sq_lo[r], _mm256_mul_pd(e_lo, e_lo));
                            sq_hi[r] = _mm256_add_pd(sq_hi[r], _mm256_mul_pd(e_hi, e_hi));
                        }
                    }
                    for r in 0..ROWS {
                        let mut sq = [0.0f64; LANES];
                        _mm256_storeu_pd(sq.as_mut_ptr(), sq_lo[r]);
                        _mm256_storeu_pd(sq.as_mut_ptr().add(4), sq_hi[r]);
                        // Scalar exp per lane keeps bit-identity with the
                        // scalar tree (and dominates the block cost anyway).
                        for (l, &sqv) in sq.iter().enumerate() {
                            acc[r][l] += *cf.add(b * LANES + l) * (-self.gamma * sqv).exp();
                        }
                    }
                }
            }
        }
        acc.map(|a| combine_tree(&a))
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

    fn fitted(kernel: Kernel) -> (Dataset, SvrModel) {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i % 7) as f64, (i * i % 13) as f64])
            .collect();
        let x = Dataset::from_rows(rows);
        let y: Vec<f64> = x
            .rows()
            .map(|r| 2.0 * r[0] + r[1] * r[2] * 0.3 + 5.0)
            .collect();
        let m = Svr::new(SvrParams {
            kernel,
            ..SvrParams::default()
        })
        .fit(&x, &y)
        .unwrap();
        (x, m)
    }

    fn probe_rows(x: &Dataset) -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = x.rows().map(<[f64]>::to_vec).collect();
        rows.push(vec![100.0, 3.5, -2.0]);
        rows.push(vec![-7.0, 0.0, 0.25]);
        rows
    }

    #[test]
    fn lane_tree_paths_agree_bit_for_bit() {
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.0 }] {
            let (x, m) = fitted(kernel);
            let c = CompiledSvr::compile(&m);
            let mut scratch = PredictScratch::new();
            for row in probe_rows(&x) {
                let dispatched = c.predict_into(&row, &mut scratch);
                let scalar = c.predict_into_scalar(&row, &mut scratch);
                assert_eq!(dispatched.to_bits(), scalar.to_bits());
                if let Some(simd) = c.predict_into_simd(&row, &mut scratch) {
                    assert_eq!(scalar.to_bits(), simd.to_bits());
                }
            }
        }
    }

    #[test]
    fn lane_tree_stays_within_reorder_tolerance_of_reference() {
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.0 }] {
            let (x, m) = fitted(kernel);
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
    }

    #[test]
    fn zero_coefficient_support_vectors_are_pruned_without_changing_bits() {
        let (x, clean) = fitted(Kernel::Rbf { gamma: 0.0 });
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
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.0 }] {
            let (x, m) = fitted(kernel);
            let c = CompiledSvr::compile(&m);
            let rows = probe_rows(&x);
            let mut scratch = PredictScratch::new();
            let expect: Vec<u64> = rows
                .iter()
                .map(|r| c.predict_into(r, &mut scratch).to_bits())
                .collect();
            // Every batch length from 0 to 9 covers whole 4-row blocks
            // and one, two and three tail rows in all combinations; the
            // full set checks input order over many blocks.
            let mut out = vec![f64::NAN];
            for n in (0..=9).chain([rows.len()]) {
                let slice: Vec<&[f64]> = rows[..n].iter().map(Vec::as_slice).collect();
                c.predict_batch_into(&slice, &mut out, &mut scratch);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expect[..n], "batch length {n}");
            }
        }
    }

    #[test]
    fn checked_prediction_reports_shape_mismatch() {
        let (_, m) = fitted(Kernel::Linear);
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
        let (x, m) = fitted(Kernel::Linear);
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
            crate::Model::predict(&lm, &[4.0, 5.0]).to_bits(),
            clm.predict_into(&[4.0, 5.0], &mut scratch).to_bits()
        );
    }
}
