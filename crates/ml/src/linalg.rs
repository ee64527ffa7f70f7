//! Small dense linear algebra: just enough to solve regularized
//! least-squares systems via Cholesky factorization, plus the vectorized
//! inner-loop primitives of the SMO solver.
//!
//! Training sets here are small (≤ a few thousand rows, tens of features),
//! so normal equations with a ridge term are numerically adequate and far
//! simpler than QR/SVD.
//!
//! The SMO primitives ([`grad_pair_update`], [`scan_violating`],
//! [`scan_second_order`]) are the crate's only functions with an AVX2
//! twin: they are `l`-long passes of compares, multiplies and adds with no
//! `exp` in them, and the twins buy 1.2–1.4× on a whole plan-level
//! training (DESIGN.md §7). Both paths perform the identical per-element
//! operation sequence, so results are bit-for-bit equal to the naive
//! sequential loop on any host. A runtime override ([`set_force_scalar`])
//! and the `force-scalar` cargo feature route these three down their
//! scalar paths so benchmarks and identity tests can compare both.

use crate::MlError;
use std::sync::atomic::{AtomicBool, Ordering};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from nested rows.
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut m = Matrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged matrix input");
            for (j, v) in row.iter().enumerate() {
                m[(i, j)] = *v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product `A v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = dot(row, v);
        }
        out
    }

    /// In-place addition of `lambda` to the diagonal (ridge term).
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Cholesky factorization of a symmetric positive-definite matrix;
    /// returns the lower-triangular factor `L` with `A = L Lᵀ`.
    pub fn cholesky(&self) -> Result<Matrix, MlError> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(MlError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, MlError> {
        assert_eq!(b.len(), self.rows, "solve_spd dimension mismatch");
        let l = self.cholesky()?;
        let n = self.rows;
        // Forward substitution: L z = b.
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * z[k];
            }
            z[i] = sum / l[(i, i)];
        }
        // Back substitution: Lᵀ x = z.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for k in (i + 1)..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Computes the Gram-style normal-equation system for least squares over
/// rows with an implicit intercept column: returns `(XᵀX, Xᵀy)` where each
/// design row is `[1, features...]`.
pub fn normal_equations<'a, I>(rows: I, y: &[f64], n_features: usize) -> (Matrix, Vec<f64>)
where
    I: Iterator<Item = &'a [f64]>,
{
    let d = n_features + 1; // intercept
    let mut xtx = Matrix::zeros(d, d);
    let mut xty = vec![0.0; d];
    let mut design = vec![0.0; d];
    for (row, &target) in rows.zip(y) {
        design[0] = 1.0;
        design[1..].copy_from_slice(row);
        for i in 0..d {
            xty[i] += design[i] * target;
            for j in i..d {
                xtx[(i, j)] += design[i] * design[j];
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..d {
        for j in (i + 1)..d {
            xtx[(j, i)] = xtx[(i, j)];
        }
    }
    (xtx, xty)
}

/// Runtime override forcing the SMO primitives down their scalar paths
/// (the compile-time analogue is the `force-scalar` cargo feature).
static FORCE_SCALAR_OVERRIDE: AtomicBool = AtomicBool::new(false);

/// Routes the SMO gradient update and the two working-set scans down
/// their scalar paths when `on` is true; `set_force_scalar(false)`
/// restores normal dispatch. Both paths are bit-identical, so flipping
/// this never changes results — it exists so identity tests can compare
/// both implementations inside one process.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR_OVERRIDE.store(on, Ordering::Relaxed);
}

/// True when the AVX2 twins may run: compiled in (`x86_64` without the
/// `force-scalar` feature), supported by the host, and not overridden by
/// [`set_force_scalar`].
pub fn simd_enabled() -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        !FORCE_SCALAR_OVERRIDE.load(Ordering::Relaxed)
            && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
    {
        false
    }
}

/// Applies one SMO pair step to both gradient halves:
/// `d = ci * row_i[t] + cj * row_j[t]`, then `g_up[t] += d` and
/// `g_down[t] -= d`. This is the per-iteration hot loop of the SMO
/// solver. The AVX2 path performs the same per-element multiply/add
/// sequence (no FMA, no reassociation — the update is element-wise), so
/// it is bit-identical to the scalar loop.
///
/// # Panics
/// Panics if the four slices differ in length.
pub fn grad_pair_update(
    g_up: &mut [f64],
    g_down: &mut [f64],
    row_i: &[f64],
    row_j: &[f64],
    ci: f64,
    cj: f64,
) {
    let l = g_up.len();
    assert!(
        g_down.len() == l && row_i.len() == l && row_j.len() == l,
        "grad_pair_update length mismatch"
    );
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    if simd_enabled() {
        // SAFETY: AVX2 support was just checked.
        unsafe { grad_pair_update_avx2(g_up, g_down, row_i, row_j, ci, cj) };
        return;
    }
    grad_pair_update_scalar(g_up, g_down, row_i, row_j, ci, cj);
}

fn grad_pair_update_scalar(
    g_up: &mut [f64],
    g_down: &mut [f64],
    row_i: &[f64],
    row_j: &[f64],
    ci: f64,
    cj: f64,
) {
    for t in 0..g_up.len() {
        let d = ci * row_i[t] + cj * row_j[t];
        g_up[t] += d;
        g_down[t] -= d;
    }
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[target_feature(enable = "avx2")]
unsafe fn grad_pair_update_avx2(
    g_up: &mut [f64],
    g_down: &mut [f64],
    row_i: &[f64],
    row_j: &[f64],
    ci: f64,
    cj: f64,
) {
    use std::arch::x86_64::*;
    let l = g_up.len();
    let civ = _mm256_set1_pd(ci);
    let cjv = _mm256_set1_pd(cj);
    let mut t = 0;
    while t + 4 <= l {
        let ri = _mm256_loadu_pd(row_i.as_ptr().add(t));
        let rj = _mm256_loadu_pd(row_j.as_ptr().add(t));
        // Same shape as the scalar body: mul, mul, add — no FMA.
        let d = _mm256_add_pd(_mm256_mul_pd(civ, ri), _mm256_mul_pd(cjv, rj));
        let up = _mm256_add_pd(_mm256_loadu_pd(g_up.as_ptr().add(t)), d);
        let dn = _mm256_sub_pd(_mm256_loadu_pd(g_down.as_ptr().add(t)), d);
        _mm256_storeu_pd(g_up.as_mut_ptr().add(t), up);
        _mm256_storeu_pd(g_down.as_mut_ptr().add(t), dn);
        t += 4;
    }
    while t < l {
        let d = ci * row_i[t] + cj * row_j[t];
        g_up[t] += d;
        g_down[t] -= d;
        t += 1;
    }
}

/// Outcome of a max-violating-pair scan over one contiguous gradient
/// block. Indices are local to the scanned slice and `usize::MAX` when no
/// element was eligible (matching the sentinels the SMO loop uses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanResult {
    /// Maximum violation value among "up"-eligible elements.
    pub g_max: f64,
    /// First index attaining `g_max` (`usize::MAX` when none eligible).
    pub i_up: usize,
    /// Minimum violation value among "low"-eligible elements.
    pub g_min: f64,
    /// First index attaining `g_min` (`usize::MAX` when none eligible).
    pub i_low: usize,
}

impl ScanResult {
    /// The neutral element: nothing selected yet.
    pub fn empty() -> ScanResult {
        ScanResult {
            g_max: f64::NEG_INFINITY,
            i_up: usize::MAX,
            g_min: f64::INFINITY,
            i_low: usize::MAX,
        }
    }

    /// Folds in the result of scanning the block that *follows* this one
    /// in index order (`offset` is the later block's starting index).
    /// Strict comparisons keep the earlier block's winner on ties — the
    /// sequential loop's first-occurrence rule.
    pub fn merge_later(&mut self, later: ScanResult, offset: usize) {
        if later.i_up != usize::MAX && later.g_max > self.g_max {
            self.g_max = later.g_max;
            self.i_up = later.i_up + offset;
        }
        if later.i_low != usize::MAX && later.g_min < self.g_min {
            self.g_min = later.g_min;
            self.i_low = later.i_low + offset;
        }
    }
}

/// Working-set selection scan for the SMO solver. For each `t` the
/// violation value is `v = -g[t]` (or `v = g[t]` when `flipped` — used
/// for the alpha* half of the epsilon dual, whose sign is −1, where
/// `-s*g` reduces to `g` exactly); "up"-eligible means `a[t] < c`
/// (flipped: `a[t] > 0`), "low"-eligible means `a[t] > 0` (flipped:
/// `a[t] < c`). Returns the maximal `v` over up-eligible elements and
/// the minimal `v` over low-eligible ones, each with the index of its
/// first occurrence.
///
/// Bit-identical to the sequential scalar loop on every path: the AVX2
/// pass keeps per-lane running extrema with strict compares (a lane
/// keeps the first occurrence in its stream) and the lane combine picks
/// strictly-better values, breaking exact ties toward the smaller index
/// — which reconstructs the sequential first-wins rule, including the
/// `±0.0` and NaN cases (ordered compares never select NaN, exactly as
/// `v > g_max` never does).
///
/// # Panics
/// Panics if `a` and `g` differ in length.
pub fn scan_violating(a: &[f64], g: &[f64], c: f64, flipped: bool) -> ScanResult {
    assert_eq!(a.len(), g.len(), "scan_violating length mismatch");
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    if simd_enabled() && a.len() >= 8 {
        // SAFETY: AVX2 support was just checked.
        return unsafe { scan_violating_avx2(a, g, c, flipped) };
    }
    scan_violating_scalar(a, g, c, flipped)
}

fn scan_violating_scalar(a: &[f64], g: &[f64], c: f64, flipped: bool) -> ScanResult {
    let mut r = ScanResult::empty();
    for t in 0..a.len() {
        let v = if flipped { g[t] } else { -g[t] };
        let (up_ok, low_ok) = if flipped {
            (a[t] > 0.0, a[t] < c)
        } else {
            (a[t] < c, a[t] > 0.0)
        };
        if up_ok && v > r.g_max {
            r.g_max = v;
            r.i_up = t;
        }
        if low_ok && v < r.g_min {
            r.g_min = v;
            r.i_low = t;
        }
    }
    r
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[target_feature(enable = "avx2")]
unsafe fn scan_violating_avx2(a: &[f64], g: &[f64], c: f64, flipped: bool) -> ScanResult {
    use std::arch::x86_64::*;
    let n = a.len();
    let cv = _mm256_set1_pd(c);
    let zero = _mm256_setzero_pd();
    let sign = _mm256_set1_pd(-0.0);
    let neg_inf = _mm256_set1_pd(f64::NEG_INFINITY);
    let pos_inf = _mm256_set1_pd(f64::INFINITY);
    // Per-lane running extrema plus the (f64-encoded) index of each
    // lane's first occurrence; an index of +inf marks "nothing selected
    // in this lane" (an invariant: strict compares never select ∓inf, so
    // a selected lane always carries a finite index).
    let mut max_v = neg_inf;
    let mut max_i = pos_inf;
    let mut min_v = pos_inf;
    let mut min_i = pos_inf;
    let mut idx = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
    let four = _mm256_set1_pd(4.0);
    let mut t = 0;
    while t + 4 <= n {
        let av = _mm256_loadu_pd(a.as_ptr().add(t));
        let gv = _mm256_loadu_pd(g.as_ptr().add(t));
        // Sign-bit xor is the exact unary negation the scalar loop does.
        let v = if flipped { gv } else { _mm256_xor_pd(gv, sign) };
        let lt_c = _mm256_cmp_pd(av, cv, _CMP_LT_OQ);
        let gt_0 = _mm256_cmp_pd(av, zero, _CMP_GT_OQ);
        let (up_ok, low_ok) = if flipped { (gt_0, lt_c) } else { (lt_c, gt_0) };
        // Ineligible lanes become ∓inf so the strict compare never picks
        // them — the same effect as the scalar eligibility guard.
        let v_up = _mm256_blendv_pd(neg_inf, v, up_ok);
        let v_low = _mm256_blendv_pd(pos_inf, v, low_ok);
        let better_up = _mm256_cmp_pd(v_up, max_v, _CMP_GT_OQ);
        max_v = _mm256_blendv_pd(max_v, v_up, better_up);
        max_i = _mm256_blendv_pd(max_i, idx, better_up);
        let better_low = _mm256_cmp_pd(v_low, min_v, _CMP_LT_OQ);
        min_v = _mm256_blendv_pd(min_v, v_low, better_low);
        min_i = _mm256_blendv_pd(min_i, idx, better_low);
        idx = _mm256_add_pd(idx, four);
        t += 4;
    }
    let mut mv = [0.0f64; 4];
    let mut mi = [0.0f64; 4];
    let mut nv = [0.0f64; 4];
    let mut ni = [0.0f64; 4];
    _mm256_storeu_pd(mv.as_mut_ptr(), max_v);
    _mm256_storeu_pd(mi.as_mut_ptr(), max_i);
    _mm256_storeu_pd(nv.as_mut_ptr(), min_v);
    _mm256_storeu_pd(ni.as_mut_ptr(), min_i);
    // Lane combine: a strictly better value wins; an exactly equal value
    // wins only with a smaller index. Each lane holds the first
    // occurrence of its own stream's extremum, so the smallest index
    // among extremal lanes is the sequential first occurrence (±0.0
    // compare equal here, matching the scalar rule where neither strictly
    // beats the other).
    let mut r = ScanResult::empty();
    let mut up_if = f64::INFINITY;
    let mut low_if = f64::INFINITY;
    for lane in 0..4 {
        if mv[lane] > r.g_max || (mv[lane] == r.g_max && mi[lane] < up_if) {
            r.g_max = mv[lane];
            up_if = mi[lane];
        }
        if nv[lane] < r.g_min || (nv[lane] == r.g_min && ni[lane] < low_if) {
            r.g_min = nv[lane];
            low_if = ni[lane];
        }
    }
    if up_if.is_finite() {
        r.i_up = up_if as usize;
    }
    if low_if.is_finite() {
        r.i_low = low_if as usize;
    }
    // Scalar tail: these indices all exceed the vector part's, so the
    // strict compares keep earlier winners on ties, as in one long loop.
    while t < n {
        let v = if flipped { g[t] } else { -g[t] };
        let (up_ok, low_ok) = if flipped {
            (a[t] > 0.0, a[t] < c)
        } else {
            (a[t] < c, a[t] > 0.0)
        };
        if up_ok && v > r.g_max {
            r.g_max = v;
            r.i_up = t;
        }
        if low_ok && v < r.g_min {
            r.g_min = v;
            r.i_low = t;
        }
        t += 1;
    }
    r
}

/// Outcome of a second-order working-set scan ([`scan_second_order`])
/// over one contiguous block. The index is local to the scanned slice and
/// `usize::MAX` when no element was eligible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondOrderPick {
    /// Smallest objective estimate `-(g_max - v)^2 / quad` among eligible
    /// elements (`+inf` when none).
    pub obj_min: f64,
    /// First index attaining `obj_min` (`usize::MAX` when none eligible).
    pub j: usize,
}

impl SecondOrderPick {
    /// The neutral element: nothing selected yet.
    pub fn empty() -> SecondOrderPick {
        SecondOrderPick {
            obj_min: f64::INFINITY,
            j: usize::MAX,
        }
    }

    /// Folds in the pick of the block that *follows* this one in index
    /// order (`offset` is the later block's starting index); the strict
    /// comparison keeps the earlier block's winner on ties.
    pub fn merge_later(&mut self, later: SecondOrderPick, offset: usize) {
        if later.j != usize::MAX && later.obj_min < self.obj_min {
            self.obj_min = later.obj_min;
            self.j = later.j + offset;
        }
    }
}

/// Curvature of the dual along every pair `(i, t)` for a fixed `i`:
/// `quad[t] = max(k_ii + diag[t] - 2 * row_i[t], 1e-12)` with `row_i` the
/// Gram row of `i`, `diag` the Gram diagonal and `k_ii = diag[i]`. The
/// clamp is the one the pair step itself applies (libsvm's `TAU`); it
/// engages for `t == i`, i.e. the `α_i`/`α*_i` pair of one training row.
/// Element-wise with one fixed expression, so every compilation of the
/// loop yields the same bits.
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn second_order_quad(diag: &[f64], row_i: &[f64], k_ii: f64, quad: &mut [f64]) {
    assert!(
        diag.len() == quad.len() && row_i.len() == quad.len(),
        "second_order_quad length mismatch"
    );
    for ((q, &d), &r) in quad.iter_mut().zip(diag).zip(row_i) {
        *q = (k_ii + d - 2.0 * r).max(1e-12);
    }
}

/// Second-order working-set selection (Fan, Chen & Lin 2005, libsvm's
/// default rule): given the maximal up-violation `g_max` found by
/// [`scan_violating`], picks among the "low"-eligible elements that
/// violate against it (`v < g_max`, with `v` and eligibility exactly as
/// in [`scan_violating`]) the one whose pair step promises the largest
/// decrease of the dual objective, `-(g_max - v)^2 / quad[t]`, and
/// returns the first index attaining the minimum. `quad` comes from
/// [`second_order_quad`] and must be positive.
///
/// Bit-identical to the sequential scalar loop on every path, by the
/// same construction as [`scan_violating`]: the AVX2 pass performs the
/// scalar body's operations per lane (subtract, multiply, negate, true
/// division — no FMA, no reciprocal), keeps per-lane minima with strict
/// compares, and combines lanes breaking exact ties toward the smaller
/// index; ordered compares never select a NaN estimate on either path.
///
/// # Panics
/// Panics if `a`, `g` and `quad` differ in length.
pub fn scan_second_order(
    a: &[f64],
    g: &[f64],
    quad: &[f64],
    c: f64,
    g_max: f64,
    flipped: bool,
) -> SecondOrderPick {
    assert!(
        a.len() == g.len() && quad.len() == g.len(),
        "scan_second_order length mismatch"
    );
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    if simd_enabled() && a.len() >= 8 {
        // SAFETY: AVX2 support was just checked.
        return unsafe { scan_second_order_avx2(a, g, quad, c, g_max, flipped) };
    }
    let mut pick = SecondOrderPick::empty();
    scan_second_order_scalar(a, g, quad, c, g_max, flipped, 0, &mut pick);
    pick
}

/// The definition of [`scan_second_order`], from index `from` on,
/// continuing from the running `pick`.
#[allow(clippy::too_many_arguments)]
fn scan_second_order_scalar(
    a: &[f64],
    g: &[f64],
    quad: &[f64],
    c: f64,
    g_max: f64,
    flipped: bool,
    from: usize,
    pick: &mut SecondOrderPick,
) {
    for t in from..a.len() {
        let v = if flipped { g[t] } else { -g[t] };
        let low_ok = if flipped { a[t] < c } else { a[t] > 0.0 };
        let diff = g_max - v;
        if low_ok && diff > 0.0 {
            let obj = -(diff * diff) / quad[t];
            if obj < pick.obj_min {
                pick.obj_min = obj;
                pick.j = t;
            }
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[target_feature(enable = "avx2")]
unsafe fn scan_second_order_avx2(
    a: &[f64],
    g: &[f64],
    quad: &[f64],
    c: f64,
    g_max: f64,
    flipped: bool,
) -> SecondOrderPick {
    use std::arch::x86_64::*;
    let n = a.len();
    let cv = _mm256_set1_pd(c);
    let gm = _mm256_set1_pd(g_max);
    let zero = _mm256_setzero_pd();
    let sign = _mm256_set1_pd(-0.0);
    let pos_inf = _mm256_set1_pd(f64::INFINITY);
    // Per-lane running minimum and the (f64-encoded) index of its first
    // occurrence; +inf marks "nothing selected in this lane", as in
    // `scan_violating_avx2`.
    let mut min_v = pos_inf;
    let mut min_i = pos_inf;
    let mut idx = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
    let four = _mm256_set1_pd(4.0);
    let mut t = 0;
    while t + 4 <= n {
        let av = _mm256_loadu_pd(a.as_ptr().add(t));
        let gv = _mm256_loadu_pd(g.as_ptr().add(t));
        let qv = _mm256_loadu_pd(quad.as_ptr().add(t));
        let v = if flipped { gv } else { _mm256_xor_pd(gv, sign) };
        let low_ok = if flipped {
            _mm256_cmp_pd(av, cv, _CMP_LT_OQ)
        } else {
            _mm256_cmp_pd(av, zero, _CMP_GT_OQ)
        };
        let diff = _mm256_sub_pd(gm, v);
        let ok = _mm256_and_pd(low_ok, _mm256_cmp_pd(diff, zero, _CMP_GT_OQ));
        // Same shape as the scalar body: mul, negate, divide.
        let obj = _mm256_div_pd(_mm256_xor_pd(_mm256_mul_pd(diff, diff), sign), qv);
        // Ineligible lanes become +inf so the strict compare never picks
        // them — the same effect as the scalar eligibility guard.
        let cand = _mm256_blendv_pd(pos_inf, obj, ok);
        let better = _mm256_cmp_pd(cand, min_v, _CMP_LT_OQ);
        min_v = _mm256_blendv_pd(min_v, cand, better);
        min_i = _mm256_blendv_pd(min_i, idx, better);
        idx = _mm256_add_pd(idx, four);
        t += 4;
    }
    let mut nv = [0.0f64; 4];
    let mut ni = [0.0f64; 4];
    _mm256_storeu_pd(nv.as_mut_ptr(), min_v);
    _mm256_storeu_pd(ni.as_mut_ptr(), min_i);
    // Lane combine: strictly smaller wins, exactly equal wins only with a
    // smaller index — the sequential first-occurrence rule.
    let mut pick = SecondOrderPick::empty();
    let mut j_f = f64::INFINITY;
    for lane in 0..4 {
        if nv[lane] < pick.obj_min || (nv[lane] == pick.obj_min && ni[lane] < j_f) {
            pick.obj_min = nv[lane];
            j_f = ni[lane];
        }
    }
    if j_f.is_finite() {
        pick.j = j_f as usize;
    }
    // Scalar tail: later indices, strict compares keep earlier winners.
    scan_second_order_scalar(a, g, quad, c, g_max, flipped, t, &mut pick);
    pick
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_indexing() {
        let m = Matrix::identity(3);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn matvec_multiplies() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn cholesky_factors_spd_matrix() {
        // A = [[4, 2], [2, 3]] is SPD; L = [[2, 0], [1, sqrt(2)]].
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let l = a.cholesky().unwrap();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert_eq!(a.cholesky(), Err(MlError::NotPositiveDefinite));
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        // b = A * [1, -2] = [0, -4].
        let x = a.solve_spd(&[0.0, -4.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn add_diagonal_adds_ridge() {
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(0.5);
        assert_eq!(a[(0, 0)], 0.5);
        assert_eq!(a[(1, 1)], 0.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn normal_equations_build_gram_system() {
        // Rows [[1],[2]] with intercept; X = [[1,1],[1,2]].
        let rows: Vec<Vec<f64>> = vec![vec![1.0], vec![2.0]];
        let y = [2.0, 3.0];
        let (xtx, xty) = normal_equations(rows.iter().map(Vec::as_slice), &y, 1);
        assert_eq!(xtx[(0, 0)], 2.0); // sum 1
        assert_eq!(xtx[(0, 1)], 3.0); // sum x
        assert_eq!(xtx[(1, 0)], 3.0); // symmetric
        assert_eq!(xtx[(1, 1)], 5.0); // sum x^2
        assert_eq!(xty, vec![5.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    fn naive_grad(g_up: &mut [f64], g_down: &mut [f64], ri: &[f64], rj: &[f64], ci: f64, cj: f64) {
        for t in 0..g_up.len() {
            let d = ci * ri[t] + cj * rj[t];
            g_up[t] += d;
            g_down[t] -= d;
        }
    }

    #[test]
    fn grad_pair_update_matches_naive_loop_bitwise() {
        for l in [0usize, 1, 3, 4, 7, 8, 31, 100] {
            let ri: Vec<f64> = (0..l).map(|t| (t as f64 * 0.77).sin()).collect();
            let rj: Vec<f64> = (0..l).map(|t| (t as f64 * 1.31).cos()).collect();
            let base: Vec<f64> = (0..l).map(|t| t as f64 * 0.01 - 0.3).collect();
            let (mut au, mut ad) = (base.clone(), base.clone());
            let (mut bu, mut bd) = (base.clone(), base.clone());
            grad_pair_update(&mut au, &mut ad, &ri, &rj, 0.37, -1.91);
            naive_grad(&mut bu, &mut bd, &ri, &rj, 0.37, -1.91);
            for t in 0..l {
                assert_eq!(au[t].to_bits(), bu[t].to_bits(), "l={l} t={t}");
                assert_eq!(ad[t].to_bits(), bd[t].to_bits(), "l={l} t={t}");
            }
        }
    }

    fn naive_scan(a: &[f64], g: &[f64], c: f64, flipped: bool) -> ScanResult {
        let mut r = ScanResult::empty();
        for t in 0..a.len() {
            let v = if flipped { g[t] } else { -g[t] };
            let (up_ok, low_ok) = if flipped {
                (a[t] > 0.0, a[t] < c)
            } else {
                (a[t] < c, a[t] > 0.0)
            };
            if up_ok && v > r.g_max {
                r.g_max = v;
                r.i_up = t;
            }
            if low_ok && v < r.g_min {
                r.g_min = v;
                r.i_low = t;
            }
        }
        r
    }

    fn assert_scan_matches(a: &[f64], g: &[f64], c: f64) {
        for flipped in [false, true] {
            let want = naive_scan(a, g, c, flipped);
            let got = scan_violating(a, g, c, flipped);
            assert_eq!(got.i_up, want.i_up, "flipped={flipped}");
            assert_eq!(got.i_low, want.i_low, "flipped={flipped}");
            assert_eq!(got.g_max.to_bits(), want.g_max.to_bits(), "flipped={flipped}");
            assert_eq!(got.g_min.to_bits(), want.g_min.to_bits(), "flipped={flipped}");
        }
    }

    #[test]
    fn scan_violating_matches_sequential_rule() {
        let c = 1.0;
        for n in [0usize, 1, 4, 5, 8, 9, 16, 33, 100] {
            let a: Vec<f64> = (0..n).map(|t| (t % 5) as f64 * 0.25).collect();
            let g: Vec<f64> = (0..n).map(|t| ((t * 7 % 13) as f64 - 6.0) * 0.5).collect();
            assert_scan_matches(&a, &g, c);
        }
    }

    #[test]
    fn scan_violating_breaks_ties_on_first_occurrence() {
        // Repeated extrema: the sequential rule keeps the first index.
        let a = vec![0.5; 12];
        let g = vec![-2.0, 1.0, -2.0, 1.0, -2.0, 1.0, -2.0, 1.0, -2.0, 1.0, -2.0, 1.0];
        assert_scan_matches(&a, &g, 1.0);
        // Signed zeros compare equal under strict ordering; first wins.
        let g0 = vec![0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 5.0, -5.0, 0.0, -0.0];
        assert_scan_matches(&a, &g0, 1.0);
    }

    #[test]
    fn scan_violating_skips_ineligible_and_nan() {
        // Boundary alphas are ineligible on one side; NaN gradients are
        // never selected by ordered compares.
        let c = 1.0;
        let a = vec![0.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.25, 0.75, 0.5];
        let mut g: Vec<f64> = (0..12).map(|t| (t as f64 - 6.0) * 0.3).collect();
        g[2] = f64::NAN;
        g[10] = f64::NAN;
        assert_scan_matches(&a, &g, c);
        // Boundary alphas shut off one side entirely: a == 0 leaves no
        // down-candidates, a == C leaves no up-candidates.
        let shut = vec![0.0; 9];
        let r = scan_violating(&shut, &g[..9], c, false);
        assert_eq!(r.i_low, usize::MAX);
        let full = vec![1.0; 9];
        let r = scan_violating(&full, &g[..9], c, false);
        assert_eq!(r.i_up, usize::MAX);
    }

    #[test]
    fn second_order_scan_matches_sequential_rule() {
        // Gram row of i = 5 over unit-diagonal RBF-like values; the own
        // entry clamps, every third alpha sits on a bound.
        for n in [0usize, 1, 7, 8, 9, 12, 33, 100] {
            let diag = vec![1.0; n];
            let row: Vec<f64> = (0..n)
                .map(|t| if t == 5 { 1.0 } else { 0.9 / (1.0 + t as f64) })
                .collect();
            let mut quad = vec![0.0; n];
            second_order_quad(&diag, &row, 1.0, &mut quad);
            if n > 5 {
                assert_eq!(quad[5], 1e-12);
            }
            let a: Vec<f64> = (0..n).map(|t| (t % 3) as f64 * 0.5).collect();
            let g: Vec<f64> = (0..n).map(|t| ((t * 7 % 13) as f64 - 6.0) * 0.5).collect();
            for flipped in [false, true] {
                let mut want = SecondOrderPick::empty();
                for t in 0..n {
                    let v = if flipped { g[t] } else { -g[t] };
                    let low_ok = if flipped { a[t] < 1.0 } else { a[t] > 0.0 };
                    if low_ok && v < 1.25 {
                        let obj = -((1.25 - v) * (1.25 - v)) / quad[t];
                        if obj < want.obj_min {
                            want = SecondOrderPick { obj_min: obj, j: t };
                        }
                    }
                }
                let got = scan_second_order(&a, &g, &quad, 1.0, 1.25, flipped);
                assert_eq!(got.j, want.j, "n={n} flipped={flipped}");
                assert_eq!(got.obj_min.to_bits(), want.obj_min.to_bits());
            }
        }
    }

    #[test]
    fn force_scalar_toggle_routes_and_restores() {
        set_force_scalar(true);
        assert!(!simd_enabled());
        // Paths are bit-identical, so results are toggle-agnostic.
        let a: Vec<f64> = (0..40).map(|t| (t % 3) as f64 * 0.5).collect();
        let g: Vec<f64> = (0..40).map(|t| (t as f64 * 0.9).sin()).collect();
        let scalar = scan_violating(&a, &g, 1.0, false);
        set_force_scalar(false);
        assert_eq!(scan_violating(&a, &g, 1.0, false), scalar);
        // Without the override the twins run wherever they are compiled in
        // and the host has AVX2: a build or dispatch change that silently
        // leaves the scalar loops running fails here.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            simd_enabled(),
            cfg!(not(feature = "force-scalar")) && std::arch::is_x86_feature_detected!("avx2")
        );
    }
}
