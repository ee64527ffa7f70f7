//! Small dense linear algebra: just enough to solve regularized
//! least-squares systems via Cholesky factorization, plus the vectorized
//! inner-loop primitives of the SMO solver.
//!
//! Training sets here are small (≤ a few thousand rows, tens of features),
//! so normal equations with a ridge term are numerically adequate and far
//! simpler than QR/SVD.
//!
//! The SMO primitives ([`grad_pair_update`], [`scan_violating`],
//! [`scan_second_order`]) are `l`-long passes of compares, multiplies and
//! adds with no `exp` in them. Each is written once, as safe code in an
//! `#[inline(always)]` body (the scans over four `f64` lanes, the
//! gradient update element by element), and that body is compiled twice:
//! for the baseline target, and inside a small
//! `#[target_feature(enable = "avx2")]` wrapper that runs when the host
//! has AVX2 (the module's only `unsafe` is the three calls to those
//! wrappers). Rust never contracts to FMA or reassociates at any target
//! feature, so both compilations yield the bits of the naive sequential
//! loop, which is the definition (DESIGN.md §7 has what the AVX2
//! compilation buys).

use crate::MlError;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// A `rows × cols` zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Builds from nested rows.
    ///
    /// # Panics
    /// Panics on ragged input.
    #[cfg(test)]
    fn from_rows(rows: &[Vec<f64>]) -> Self {
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

    /// In-place addition of `lambda` to the diagonal (ridge term).
    pub(crate) fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Cholesky factorization of a symmetric positive-definite matrix;
    /// returns the lower-triangular factor `L` with `A = L Lᵀ`.
    pub(crate) fn cholesky(&self) -> Result<Matrix, MlError> {
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
    pub(crate) fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, MlError> {
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
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Computes the Gram-style normal-equation system for least squares over
/// rows with an implicit intercept column: returns `(XᵀX, Xᵀy)` where each
/// design row is `[1, features...]`.
pub(crate) fn normal_equations<'a, I>(rows: I, y: &[f64], n_features: usize) -> (Matrix, Vec<f64>)
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

/// Applies one SMO pair step to both gradient halves:
/// `d = ci * row_i[t] + cj * row_j[t]`, then `g_up[t] += d` and
/// `g_down[t] -= d`. This is the per-iteration hot loop of the SMO
/// solver. Element-wise with one fixed expression (multiply, multiply,
/// add; Rust never contracts it to an FMA), so the AVX2 compilation and
/// the baseline one yield the same bits.
///
/// # Panics
/// Panics if the four slices differ in length.
pub(crate) fn grad_pair_update(
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
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked on the line above.
        unsafe { grad_pair_update_avx2(g_up, g_down, row_i, row_j, ci, cj) };
        return;
    }
    grad_pair_update_lanes(g_up, g_down, row_i, row_j, ci, cj);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn grad_pair_update_avx2(
    g_up: &mut [f64],
    g_down: &mut [f64],
    row_i: &[f64],
    row_j: &[f64],
    ci: f64,
    cj: f64,
) {
    grad_pair_update_lanes(g_up, g_down, row_i, row_j, ci, cj)
}

/// The body of [`grad_pair_update`], compiled once per target feature set.
#[inline(always)]
fn grad_pair_update_lanes(
    g_up: &mut [f64],
    g_down: &mut [f64],
    row_i: &[f64],
    row_j: &[f64],
    ci: f64,
    cj: f64,
) {
    for (((up, down), &ri), &rj) in g_up.iter_mut().zip(g_down).zip(row_i).zip(row_j) {
        let d = ci * ri + cj * rj;
        *up += d;
        *down -= d;
    }
}

/// Outcome of a max-violating-pair scan over one contiguous gradient
/// block. Indices are local to the scanned slice and `usize::MAX` when no
/// element was eligible (matching the sentinels the SMO loop uses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScanResult {
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
    pub(crate) fn empty() -> ScanResult {
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
    pub(crate) fn merge_later(&mut self, later: ScanResult, offset: usize) {
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
/// violation value is `v = -g[t]` (or `v = g[t]` when `FLIPPED` — used
/// for the alpha* half of the epsilon dual, whose sign is −1, where
/// `-s*g` reduces to `g` exactly); "up"-eligible means `a[t] < c`
/// (flipped: `a[t] > 0`), "low"-eligible means `a[t] > 0` (flipped:
/// `a[t] < c`). Returns the maximal `v` over up-eligible elements and
/// the minimal `v` over low-eligible ones, each with the index of its
/// first occurrence.
///
/// The definition is the sequential loop that applies this rule element
/// by element with strict compares. The body runs four lanes instead.
/// An ineligible element enters a lane as ∓∞, which a strict compare
/// never picks; neither does it pick NaN. Each lane keeps, by branchless
/// selects on the strict compare, the index of the first occurrence of
/// its stream's extremum, and the extremum itself by `f64::max`/`min`.
/// The lane combine takes a strictly better value, or an equal one
/// (`±0.0` included) at a smaller index, which is the sequential first
/// occurrence; the winners' values are read back from their elements,
/// because `max`/`min` may keep either zero on a `±0.0` tie. A sequential
/// tail finishes the slice. Every result bit equals the sequential
/// loop's. (A select for the extremum as well would be the same rule,
/// but the compiler then packs the extrema and indices of all lanes into
/// one eight-wide vector with one half reversed, and the loop runs at
/// half the speed.)
///
/// # Panics
/// Panics if `a` and `g` differ in length.
pub(crate) fn scan_violating<const FLIPPED: bool>(a: &[f64], g: &[f64], c: f64) -> ScanResult {
    assert_eq!(a.len(), g.len(), "scan_violating length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked on the line above.
        return unsafe { scan_violating_avx2::<FLIPPED>(a, g, c) };
    }
    scan_violating_lanes::<FLIPPED>(a, g, c)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_violating_avx2<const FLIPPED: bool>(a: &[f64], g: &[f64], c: f64) -> ScanResult {
    scan_violating_lanes::<FLIPPED>(a, g, c)
}

/// The body of [`scan_violating`], compiled once per target feature set.
#[inline(always)]
fn scan_violating_lanes<const FLIPPED: bool>(a: &[f64], g: &[f64], c: f64) -> ScanResult {
    let violation = |g: f64| if FLIPPED { g } else { -g };
    let eligible = |a: f64| {
        if FLIPPED {
            (a > 0.0, a < c)
        } else {
            (a < c, a > 0.0)
        }
    };
    let (a4, _) = a.as_chunks::<4>();
    let (g4, _) = g.as_chunks::<4>();
    // Per lane: the running extrema and the index of each one's first
    // occurrence, held as `f64` (exact below 2^53) with +∞ for "none".
    let mut max_v = [f64::NEG_INFINITY; 4];
    let mut max_i = [f64::INFINITY; 4];
    let mut min_v = [f64::INFINITY; 4];
    let mut min_i = [f64::INFINITY; 4];
    let mut idx = [0.0, 1.0, 2.0, 3.0];
    for (av, gv) in a4.iter().zip(g4) {
        for k in 0..4 {
            let v = violation(gv[k]);
            let (up_ok, low_ok) = eligible(av[k]);
            let v_up = if up_ok { v } else { f64::NEG_INFINITY };
            let v_low = if low_ok { v } else { f64::INFINITY };
            max_i[k] = if v_up > max_v[k] { idx[k] } else { max_i[k] };
            max_v[k] = max_v[k].max(v_up);
            min_i[k] = if v_low < min_v[k] { idx[k] } else { min_i[k] };
            min_v[k] = min_v[k].min(v_low);
            idx[k] += 4.0;
        }
    }
    let (mut up_at, mut low_at) = (f64::INFINITY, f64::INFINITY);
    let mut r = ScanResult::empty();
    for k in 0..4 {
        if max_v[k] > r.g_max || (max_v[k] == r.g_max && max_i[k] < up_at) {
            (r.g_max, up_at) = (max_v[k], max_i[k]);
        }
        if min_v[k] < r.g_min || (min_v[k] == r.g_min && min_i[k] < low_at) {
            (r.g_min, low_at) = (min_v[k], min_i[k]);
        }
    }
    // The cast saturates +∞ to `usize::MAX`, the "none" sentinel. On a
    // `±0.0` tie `max`/`min` may keep either zero, so the winning values
    // are read back from their elements.
    (r.i_up, r.i_low) = (up_at as usize, low_at as usize);
    if r.i_up != usize::MAX {
        r.g_max = violation(g[r.i_up]);
    }
    if r.i_low != usize::MAX {
        r.g_min = violation(g[r.i_low]);
    }
    // The tail's indices exceed every lane's, so its strict compares keep
    // earlier winners on ties, as in one long loop.
    for t in a4.len() * 4..a.len() {
        let v = violation(g[t]);
        let (up_ok, low_ok) = eligible(a[t]);
        if up_ok && v > r.g_max {
            (r.g_max, r.i_up) = (v, t);
        }
        if low_ok && v < r.g_min {
            (r.g_min, r.i_low) = (v, t);
        }
    }
    r
}

/// Outcome of a second-order working-set scan ([`scan_second_order`])
/// over one contiguous block. The index is local to the scanned slice and
/// `usize::MAX` when no element was eligible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SecondOrderPick {
    /// Smallest objective estimate `-(g_max - v)^2 / quad` among eligible
    /// elements (`+inf` when none).
    pub obj_min: f64,
    /// First index attaining `obj_min` (`usize::MAX` when none eligible).
    pub j: usize,
}

impl SecondOrderPick {
    /// The neutral element: nothing selected yet.
    pub(crate) fn empty() -> SecondOrderPick {
        SecondOrderPick {
            obj_min: f64::INFINITY,
            j: usize::MAX,
        }
    }

    /// Folds in the pick of the block that *follows* this one in index
    /// order (`offset` is the later block's starting index); the strict
    /// comparison keeps the earlier block's winner on ties.
    pub(crate) fn merge_later(&mut self, later: SecondOrderPick, offset: usize) {
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
pub(crate) fn second_order_quad(diag: &[f64], row_i: &[f64], k_ii: f64, quad: &mut [f64]) {
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
/// Built like [`scan_violating`]: four lanes evaluate the sequential
/// loop's expression (subtract, multiply, negate, true division), an
/// ineligible element enters as +∞, each lane keeps its running minimum
/// and the index of its first occurrence by branchless selects, and the
/// lane combine breaks exact ties toward the smaller index, so every
/// result bit equals the sequential loop's.
///
/// # Panics
/// Panics if `a`, `g` and `quad` differ in length.
pub(crate) fn scan_second_order<const FLIPPED: bool>(
    a: &[f64],
    g: &[f64],
    quad: &[f64],
    c: f64,
    g_max: f64,
) -> SecondOrderPick {
    assert!(
        a.len() == g.len() && quad.len() == g.len(),
        "scan_second_order length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked on the line above.
        return unsafe { scan_second_order_avx2::<FLIPPED>(a, g, quad, c, g_max) };
    }
    scan_second_order_lanes::<FLIPPED>(a, g, quad, c, g_max)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_second_order_avx2<const FLIPPED: bool>(
    a: &[f64],
    g: &[f64],
    quad: &[f64],
    c: f64,
    g_max: f64,
) -> SecondOrderPick {
    scan_second_order_lanes::<FLIPPED>(a, g, quad, c, g_max)
}

/// The body of [`scan_second_order`], compiled once per target feature
/// set.
#[inline(always)]
fn scan_second_order_lanes<const FLIPPED: bool>(
    a: &[f64],
    g: &[f64],
    quad: &[f64],
    c: f64,
    g_max: f64,
) -> SecondOrderPick {
    // The estimate of element `t`, +∞ when it is not a candidate.
    let estimate = |a: f64, g: f64, q: f64| {
        let v = if FLIPPED { g } else { -g };
        let low_ok = if FLIPPED { a < c } else { a > 0.0 };
        let diff = g_max - v;
        let obj = -(diff * diff) / q;
        if low_ok && diff > 0.0 {
            obj
        } else {
            f64::INFINITY
        }
    };
    let (a4, _) = a.as_chunks::<4>();
    let (g4, _) = g.as_chunks::<4>();
    let (q4, _) = quad.as_chunks::<4>();
    let mut min_v = [f64::INFINITY; 4];
    let mut min_i = [usize::MAX; 4];
    let mut idx = [0, 1, 2, 3];
    for ((av, gv), qv) in a4.iter().zip(g4).zip(q4) {
        for k in 0..4 {
            let cand = estimate(av[k], gv[k], qv[k]);
            let better = cand < min_v[k];
            min_v[k] = if better { cand } else { min_v[k] };
            min_i[k] = if better { idx[k] } else { min_i[k] };
            idx[k] += 4;
        }
    }
    let mut pick = SecondOrderPick::empty();
    for k in 0..4 {
        if min_v[k] < pick.obj_min || (min_v[k] == pick.obj_min && min_i[k] < pick.j) {
            pick.obj_min = min_v[k];
            pick.j = min_i[k];
        }
    }
    // Later indices: strict compares keep earlier winners on ties.
    for t in a4.len() * 4..a.len() {
        let cand = estimate(a[t], g[t], quad[t]);
        if cand < pick.obj_min {
            pick.obj_min = cand;
            pick.j = t;
        }
    }
    pick
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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

    // The definitions of the three SMO primitives: sequential loops, one
    // element at a time, strict compares.

    fn naive_grad(g_up: &mut [f64], g_down: &mut [f64], ri: &[f64], rj: &[f64], ci: f64, cj: f64) {
        for t in 0..g_up.len() {
            let d = ci * ri[t] + cj * rj[t];
            g_up[t] += d;
            g_down[t] -= d;
        }
    }

    pub(crate) fn naive_scan(a: &[f64], g: &[f64], c: f64, flipped: bool) -> ScanResult {
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

    pub(crate) fn naive_second_order(
        a: &[f64],
        g: &[f64],
        quad: &[f64],
        c: f64,
        g_max: f64,
        flipped: bool,
    ) -> SecondOrderPick {
        let mut pick = SecondOrderPick::empty();
        for t in 0..a.len() {
            let v = if flipped { g[t] } else { -g[t] };
            let low_ok = if flipped { a[t] < c } else { a[t] > 0.0 };
            if low_ok && v < g_max {
                let obj = -((g_max - v) * (g_max - v)) / quad[t];
                if obj < pick.obj_min {
                    pick = SecondOrderPick { obj_min: obj, j: t };
                }
            }
        }
        pick
    }

    // Both compilations of each lane body: the dispatched primitive (the
    // AVX2 wrapper on a host with AVX2) and the body called directly, which
    // inlines it here, compiled for the baseline target.

    fn scan_both(a: &[f64], g: &[f64], c: f64, flipped: bool) -> [ScanResult; 2] {
        if flipped {
            [
                scan_violating::<true>(a, g, c),
                scan_violating_lanes::<true>(a, g, c),
            ]
        } else {
            [
                scan_violating::<false>(a, g, c),
                scan_violating_lanes::<false>(a, g, c),
            ]
        }
    }

    fn second_order_both(
        a: &[f64],
        g: &[f64],
        quad: &[f64],
        c: f64,
        g_max: f64,
        flipped: bool,
    ) -> [SecondOrderPick; 2] {
        if flipped {
            [
                scan_second_order::<true>(a, g, quad, c, g_max),
                scan_second_order_lanes::<true>(a, g, quad, c, g_max),
            ]
        } else {
            [
                scan_second_order::<false>(a, g, quad, c, g_max),
                scan_second_order_lanes::<false>(a, g, quad, c, g_max),
            ]
        }
    }

    fn assert_grad_matches(base: &[f64], ri: &[f64], rj: &[f64], ci: f64, cj: f64) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut want_up, mut want_down) = (base.to_vec(), base.to_vec());
        naive_grad(&mut want_up, &mut want_down, ri, rj, ci, cj);
        let (mut up, mut down) = (base.to_vec(), base.to_vec());
        grad_pair_update(&mut up, &mut down, ri, rj, ci, cj);
        let (mut lane_up, mut lane_down) = (base.to_vec(), base.to_vec());
        grad_pair_update_lanes(&mut lane_up, &mut lane_down, ri, rj, ci, cj);
        for (got_up, got_down) in [(&up, &down), (&lane_up, &lane_down)] {
            assert_eq!(bits(got_up), bits(&want_up), "l={}", base.len());
            assert_eq!(bits(got_down), bits(&want_down), "l={}", base.len());
        }
    }

    fn assert_scan_matches(a: &[f64], g: &[f64], c: f64) {
        let bits = |r: ScanResult| (r.g_max.to_bits(), r.i_up, r.g_min.to_bits(), r.i_low);
        for flipped in [false, true] {
            let want = naive_scan(a, g, c, flipped);
            for got in scan_both(a, g, c, flipped) {
                assert_eq!(bits(got), bits(want), "n={} flipped={flipped}", a.len());
            }
        }
    }

    fn assert_second_order_matches(a: &[f64], g: &[f64], quad: &[f64], c: f64, g_max: f64) {
        for flipped in [false, true] {
            let want = naive_second_order(a, g, quad, c, g_max, flipped);
            for got in second_order_both(a, g, quad, c, g_max, flipped) {
                assert_eq!(
                    (got.j, got.obj_min.to_bits()),
                    (want.j, want.obj_min.to_bits()),
                    "n={} flipped={flipped}",
                    a.len()
                );
            }
        }
    }

    #[test]
    fn grad_pair_update_matches_naive_loop_bitwise() {
        for l in [0usize, 1, 3, 4, 7, 8, 31, 100] {
            let ri: Vec<f64> = (0..l).map(|t| (t as f64 * 0.77).sin()).collect();
            let rj: Vec<f64> = (0..l).map(|t| (t as f64 * 1.31).cos()).collect();
            let base: Vec<f64> = (0..l).map(|t| t as f64 * 0.01 - 0.3).collect();
            assert_grad_matches(&base, &ri, &rj, 0.37, -1.91);
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
        let g = vec![
            -2.0, 1.0, -2.0, 1.0, -2.0, 1.0, -2.0, 1.0, -2.0, 1.0, -2.0, 1.0,
        ];
        assert_scan_matches(&a, &g, 1.0);
        // Signed zeros compare equal under strict ordering; first wins.
        let g0 = vec![
            0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 5.0, -5.0, 0.0, -0.0,
        ];
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
        let r = scan_violating::<false>(&shut, &g[..9], c);
        assert_eq!(r.i_low, usize::MAX);
        let full = vec![1.0; 9];
        let r = scan_violating::<false>(&full, &g[..9], c);
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
            assert_second_order_matches(&a, &g, &quad, 1.0, 1.25);
        }
    }

    /// Solver-like states of length `n` with the cases a lane combine can
    /// get wrong: `(name, a, g, c)`.
    fn lane_cases(n: usize) -> Vec<(&'static str, Vec<f64>, Vec<f64>, f64)> {
        let smooth_a: Vec<f64> = (0..n).map(|t| (t % 7) as f64 * 0.2).collect();
        let smooth_g: Vec<f64> = (0..n).map(|t| (t as f64 * 0.013).sin() * 3.0).collect();
        let zeros: Vec<f64> = (0..n)
            .map(|t| if t % 3 == 1 { -0.0 } else { 0.0 })
            .collect();
        let mut nan_g = smooth_g.clone();
        for v in nan_g.iter_mut().step_by(3) {
            *v = f64::NAN;
        }
        let repeated: Vec<f64> = (0..n).map(|t| [-2.0, 1.0, 1.0, -2.0, 0.5][t % 5]).collect();
        vec![
            ("smooth", smooth_a.clone(), smooth_g.clone(), 1.0),
            ("signed zeros", vec![0.5; n], zeros, 1.0),
            ("nan", smooth_a.clone(), nan_g, 1.0),
            ("repeated extrema", vec![0.5; n], repeated, 1.0),
            // A closed box (c == 0): no element is eligible on either side.
            ("all ineligible", vec![0.0; n], smooth_g, 0.0),
        ]
    }

    /// Every lane body compiled for the baseline target, and its
    /// dispatched compilation, against the sequential loop: lengths across
    /// the lane edge (0–9), the solver's sizes and a long slice.
    #[test]
    fn lane_bodies_match_dispatch_and_naive_loops() {
        for n in (0..=9).chain([33, 100, 40_000]) {
            for (name, a, g, c) in lane_cases(n) {
                println!("case {name}, n = {n}");
                assert_scan_matches(&a, &g, c);
                let scan = naive_scan(&a, &g, c, false);
                let row: Vec<f64> = (0..n).map(|t| 0.9 / (1.0 + (t % 11) as f64)).collect();
                let mut quad = vec![0.0; n];
                second_order_quad(&vec![1.0; n], &row, 1.0, &mut quad);
                for g_max in [scan.g_max, 0.0, -0.0, 1.25] {
                    assert_second_order_matches(&a, &g, &quad, c, g_max);
                }
                assert_grad_matches(&a, &g, &row, 0.37, -1.91);
                assert_grad_matches(&g, &a, &quad, -0.0, 2.5);
            }
        }
    }
}
