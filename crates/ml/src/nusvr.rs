//! nu-SVR — the exact SVR flavor the paper uses (libsvm's `nu-SVR`
//! kernel, Section 5.1).
//!
//! Instead of fixing the epsilon-tube width, nu-SVR fixes `nu ∈ (0, 1]` —
//! an upper bound on the fraction of training errors and a lower bound on
//! the fraction of support vectors — and lets the tube width adapt to the
//! data. The dual adds a second equality constraint
//! `Σ(αᵢ + αᵢ*) = C·ν·l`, solved here with libsvm's `Solver_NU` scheme:
//! the two sign classes maintain separate violating pairs and updates
//! always pair variables of the same class, so both constraints stay
//! satisfied. Working-set selection is libsvm's second-order rule, run
//! per class: each class's `i` is its maximal up-violator, and `j` is the
//! violating same-class partner, over both classes, whose pair step
//! promises the largest decrease of the dual.

use crate::dataset::Dataset;
use crate::linalg::{
    scan_second_order, scan_violating, second_order_quad, ScanResult, SecondOrderPick,
};
use crate::svr::{DualState, Kernel, Prepared, SmoExit, SmoOutcome, SvrModel};
use crate::MlError;

/// Hyper-parameters for nu-SVR.
#[derive(Debug, Clone, PartialEq)]
pub struct NuSvrParams {
    /// Box constraint; larger fits harder.
    pub c: f64,
    /// Fraction parameter in (0, 1]: ≥ ν·l support vectors, ≤ ν·l margin
    /// errors.
    pub nu: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// KKT-violation tolerance for the stopping rule.
    pub tol: f64,
    /// Hard cap on SMO iterations.
    pub max_iter: usize,
}

impl Default for NuSvrParams {
    fn default() -> Self {
        NuSvrParams {
            c: 10.0,
            nu: 0.5,
            kernel: Kernel::Rbf { gamma: 0.0 },
            tol: 1e-3,
            max_iter: 200_000,
        }
    }
}

/// nu-SVR learner.
#[derive(Debug, Clone)]
pub struct NuSvr {
    params: NuSvrParams,
}

impl NuSvr {
    /// Creates a learner with the given hyper-parameters.
    pub fn new(params: NuSvrParams) -> Self {
        NuSvr { params }
    }

    /// Fits the nu-SVR; returns the same dense model type as epsilon-SVR.
    pub fn fit(&self, x: &Dataset, y: &[f64]) -> Result<SvrModel, MlError> {
        x.check_targets(y)?;
        let p = &self.params;
        if p.c <= 0.0 {
            return Err(MlError::InvalidParameter("C must be positive"));
        }
        if !(p.nu > 0.0 && p.nu <= 1.0) {
            return Err(MlError::InvalidParameter("nu must be in (0, 1]"));
        }
        crate::svr::check_finite(x, y)?;

        let pre = Prepared::new(x, y, p.kernel);
        nu_smo_solve(&pre.xs, &pre.ys, p, pre.gamma, second_order_pair)
            .into_model(p.tol, p.kernel, pre)
    }
}

/// The production rule (libsvm's `Solver_NU` WSS2): per class, `i` is the
/// class's maximal up-violator and the candidates are the class's
/// low-eligible `t` with `v_t < g_max`; the pair returned is the one
/// minimising `-(g_max - v_t)^2 / quad_it` over both classes (the alpha
/// class wins an exact tie). `classes` holds the block-local first-pass
/// scans; the indices returned are global.
pub(crate) fn second_order_pair(
    st: &DualState<'_>,
    classes: &[ScanResult; 2],
    quad: &mut [f64],
) -> Option<(usize, usize)> {
    let l = quad.len();
    let mut best = SecondOrderPick::empty();
    let mut best_i = usize::MAX;
    for (class, r) in classes.iter().enumerate() {
        // No low candidate below `g_max`: nothing in this class violates.
        if r.i_up == usize::MAX || r.i_low == usize::MAX || r.g_max <= r.g_min {
            continue;
        }
        let lo = class * l;
        let ii = r.i_up;
        second_order_quad(st.diag, &st.k[ii * l..(ii + 1) * l], st.diag[ii], quad);
        let (a, g) = (&st.a[lo..lo + l], &st.g[lo..lo + l]);
        let pick = scan_second_order(a, g, quad, st.c, r.g_max, false);
        if pick.j != usize::MAX && pick.obj_min < best.obj_min {
            best = SecondOrderPick {
                obj_min: pick.obj_min,
                j: pick.j + lo,
            };
            best_i = r.i_up + lo;
        }
    }
    (best.j != usize::MAX).then_some((best_i, best.j))
}

/// The first-order rule this solver used before (the maximal violating
/// pair of the class with the wider gap): kept as the reference the
/// second-order rule is tested against.
#[cfg(test)]
pub(crate) fn first_order_pair(
    _st: &DualState<'_>,
    classes: &[ScanResult; 2],
    quad: &mut [f64],
) -> Option<(usize, usize)> {
    let l = quad.len();
    let mut best: Option<(usize, usize, f64)> = None;
    for (class, r) in classes.iter().enumerate() {
        if r.i_up != usize::MAX && r.i_low != usize::MAX {
            let gap = r.g_max - r.g_min;
            if best.map(|(_, _, bg)| gap > bg).unwrap_or(true) {
                best = Some((r.i_up + class * l, r.i_low + class * l, gap));
            }
        }
    }
    best.map(|(i, j, _)| (i, j))
}

/// Solver_NU-style SMO: 2l variables (alpha block then alpha* block), two
/// equality constraints maintained by pairing same-class variables only.
/// See [`SmoOutcome::converged`] for what each exit guarantees.
/// `pick_pair` is the working-set rule: [`second_order_pair`] always,
/// except that unit tests also run `first_order_pair` through this
/// very loop.
pub(crate) fn nu_smo_solve(
    xs: &Dataset,
    ys: &[f64],
    p: &NuSvrParams,
    gamma: f64,
    pick_pair: impl Fn(&DualState<'_>, &[ScanResult; 2], &mut [f64]) -> Option<(usize, usize)>,
) -> SmoOutcome {
    let l = xs.n_rows();
    let c = p.c;

    // Kernel matrix, leased for this solve (see `svr::smo_solve`).
    let k_lease = crate::gram::GramCache::global().gram(xs, p.kernel, gamma);
    let k: &[f64] = &k_lease;
    let kij = |i: usize, j: usize| k[i * l + j];
    let diag: Vec<f64> = (0..l).map(|t| kij(t, t)).collect();
    let mut quad = vec![0.0f64; l];

    // Initialization (libsvm): fill both blocks with min(C, remaining
    // budget) so that sum(alpha + alpha*) = C * nu * l exactly.
    let mut a = vec![0.0f64; 2 * l];
    let mut budget = c * p.nu * l as f64 / 2.0;
    for i in 0..l {
        let v = budget.min(c);
        a[i] = v;
        a[i + l] = v;
        budget -= v;
    }

    // Gradient of 0.5 aᵀ Q̄ a + pᵀ a with p = [-y; +y] and
    // Q̄_tu = s_t s_u K_tu. Initial a is nonzero, so compute fully. The
    // net coefficients and the per-row dots are hoisted (each dot serves
    // both blocks).
    let beta0: Vec<f64> = (0..l).map(|i| a[i] - a[i + l]).collect();
    let dot_of = |ti: usize| -> f64 {
        let row = &k[ti * l..(ti + 1) * l];
        let mut dot = 0.0;
        for u in 0..l {
            dot += row[u] * beta0[u];
        }
        dot
    };
    let dots: Vec<f64> = (0..l).map(dot_of).collect();
    let mut g = vec![0.0f64; 2 * l];
    for (t, gt) in g.iter_mut().enumerate() {
        let ti = t % l;
        let s = if t < l { 1.0 } else { -1.0 };
        *gt = s * dots[ti] + if t < l { -ys[ti] } else { ys[ti] };
    }

    let mut exit = SmoExit::IterationCap;
    let mut iterations = 0usize;
    let mut gap = f64::INFINITY;
    while iterations < p.max_iter {
        // First pass: per-class maximal violating pairs. For both classes
        // the update direction that increases a[i] and decreases a[j]
        // keeps both constraints intact; the violation measure for class
        // s is m = max_{a_i < C} (-G_i), M = min_{a_j > 0} (-G_j). Each
        // class block is one blocked SIMD scan (v = −G, up-set `a < C`,
        // low-set `a > 0`) with block-local indices. The stopping rule
        // looks at the wider of the two gaps.
        let classes = [
            scan_violating(&a[..l], &g[..l], c, false),
            scan_violating(&a[l..], &g[l..], c, false),
        ];
        gap = classes
            .iter()
            .filter(|r| r.i_up != usize::MAX && r.i_low != usize::MAX)
            .map(|r| r.g_max - r.g_min)
            .fold(f64::NEG_INFINITY, f64::max);
        if gap < p.tol {
            exit = SmoExit::Kkt;
            break;
        }
        // Second pass: the rule picks the pair (a gap of at least
        // `tol > 0` guarantees one; `tol <= 0` may leave none).
        let state = DualState {
            a: &a,
            g: &g,
            k,
            diag: &diag,
            c,
        };
        let Some((i, j)) = pick_pair(&state, &classes, &mut quad) else {
            exit = SmoExit::Kkt;
            break;
        };
        iterations += 1;
        // Same-class pair update: increase a[i] by d, decrease a[j] by d.
        let (ii, jj) = (i % l, j % l);
        let q_ij = (kij(ii, ii) + kij(jj, jj) - 2.0 * kij(ii, jj)).max(1e-12);
        let mut d = (-g[i] + g[j]) / q_ij;
        d = d.min(c - a[i]).min(a[j]);
        if d <= 0.0 {
            // Stalled at the box boundary: this pair cannot move and the
            // rule would select it again. Whether that counts as
            // converged depends on `gap`.
            exit = SmoExit::Stalled;
            break;
        }
        a[i] += d;
        a[j] -= d;
        // Gradient update: delta beta changes by ±d depending on block.
        // Hoisted row slices and sign-folded steps (±1 factors are exact
        // in IEEE 754, so the values match the naive expression bit for
        // bit while halving the kernel lookups).
        let si = if i < l { 1.0 } else { -1.0 };
        let sj = if j < l { 1.0 } else { -1.0 };
        let row_i = &k[ii * l..(ii + 1) * l];
        let row_j = &k[jj * l..(jj + 1) * l];
        let ci = si * d;
        let cj = sj * d;
        // The blocked pass computes `ci*row_i + (−cj)*row_j`; negation and
        // `x + (−y) = x − y` are exact in IEEE 754, so this matches the
        // naive `ci*row_i[t] − cj*row_j[t]` expression bit for bit.
        let (g_up, g_down) = g.split_at_mut(l);
        crate::linalg::grad_pair_update(g_up, g_down, row_i, row_j, ci, -cj);
    }

    // Bias (libsvm calculate_rho for NU): r1 from the alpha class, r2 from
    // the alpha* class; b = -(r1 - r2) / 2.
    let class_r = |lo: usize, hi: usize, a: &[f64], g: &[f64]| -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut ub = f64::INFINITY;
        let mut lb = f64::NEG_INFINITY;
        for t in lo..hi {
            if a[t] > 1e-12 && a[t] < c - 1e-12 {
                sum += g[t];
                n += 1;
            } else if a[t] <= 1e-12 {
                ub = ub.min(g[t]);
            } else {
                lb = lb.max(g[t]);
            }
        }
        if n > 0 {
            sum / n as f64
        } else if ub.is_finite() && lb.is_finite() {
            (ub + lb) / 2.0
        } else if ub.is_finite() {
            ub
        } else if lb.is_finite() {
            lb
        } else {
            0.0
        }
    };
    let r1 = class_r(0, l, &a, &g);
    let r2 = class_r(l, 2 * l, &a, &g);
    let bias = -(r1 - r2) / 2.0;

    SmoOutcome {
        a,
        bias,
        exit,
        iterations,
        gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mean_relative_error;

    fn grid() -> (Dataset, Vec<f64>) {
        let mut rows = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        let ds = Dataset::from_rows(rows);
        let y = ds.rows().map(|r| 4.0 * r[0] - 2.0 * r[1] + 30.0).collect();
        (ds, y)
    }

    #[test]
    fn nu_svr_fits_linear_data() {
        let (x, y) = grid();
        let m = NuSvr::new(NuSvrParams {
            kernel: Kernel::Linear,
            c: 100.0,
            nu: 0.5,
            ..NuSvrParams::default()
        })
        .fit(&x, &y)
        .unwrap();
        let preds: Vec<f64> = x.rows().map(|r| m.predict(r)).collect();
        let err = mean_relative_error(&y, &preds);
        assert!(err < 0.06, "err = {err}");
    }

    #[test]
    fn nu_svr_fits_nonlinear_data_with_rbf() {
        let mut rows = Vec::new();
        for i in 0..80 {
            rows.push(vec![i as f64 / 10.0]);
        }
        let x = Dataset::from_rows(rows);
        let y: Vec<f64> = x.rows().map(|r| (r[0]).cos() * 4.0 + 12.0).collect();
        let m = NuSvr::new(NuSvrParams {
            c: 50.0,
            nu: 0.6,
            ..NuSvrParams::default()
        })
        .fit(&x, &y)
        .unwrap();
        let preds: Vec<f64> = x.rows().map(|r| m.predict(r)).collect();
        assert!(mean_relative_error(&y, &preds) < 0.08);
    }

    #[test]
    fn nu_spectrum_all_fit_noisy_data() {
        // On noisy data, every nu in the usable range must produce a
        // working model; the stored (net-coefficient) support vectors are
        // non-empty. Note: the classical "ν lower-bounds the SV fraction"
        // statement counts raw α/α* activity — net coefficients
        // `β = α − α*` can cancel, so the dense model may store fewer.
        let mut rng = rng::StdRng::seed_from_u64(5);
        let rows: Vec<Vec<f64>> = (0..90).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 3.0 * r[0] + 5.0 + rng.gen_range(-0.5..0.5))
            .collect();
        let x = Dataset::from_rows(rows);
        for nu in [0.2, 0.5, 0.8] {
            let m = NuSvr::new(NuSvrParams {
                kernel: Kernel::Linear,
                c: 50.0,
                nu,
                ..NuSvrParams::default()
            })
            .fit(&x, &y)
            .unwrap();
            assert!(m.n_support_vectors() >= 1, "nu={nu}");
            let preds: Vec<f64> = x.rows().map(|r| m.predict(r)).collect();
            let err = mean_relative_error(&y, &preds);
            assert!(err < 0.1, "nu={nu}: err {err}");
        }
    }

    #[test]
    fn rejects_invalid_nu() {
        let (x, y) = grid();
        for bad in [0.0, -0.3, 1.5] {
            assert!(matches!(
                NuSvr::new(NuSvrParams {
                    nu: bad,
                    ..NuSvrParams::default()
                })
                .fit(&x, &y),
                Err(MlError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn exhausted_iteration_budget_is_reported() {
        let (x, y) = grid();
        assert!(matches!(
            NuSvr::new(NuSvrParams {
                max_iter: 1,
                ..NuSvrParams::default()
            })
            .fit(&x, &y),
            Err(MlError::DidNotConverge { iterations: 1 })
        ));
    }

    #[test]
    fn non_finite_training_data_is_rejected() {
        let x = Dataset::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]);
        assert!(matches!(
            NuSvr::new(NuSvrParams::default()).fit(&x, &[1.0, f64::NEG_INFINITY, 3.0]),
            Err(MlError::NonFiniteData)
        ));
    }

    #[test]
    fn constant_target_is_safe() {
        let x = Dataset::from_rows((0..10).map(|i| vec![i as f64]).collect());
        let y = vec![3.0; 10];
        let m = NuSvr::new(NuSvrParams::default()).fit(&x, &y).unwrap();
        assert!((m.predict(&[4.0]) - 3.0).abs() < 0.6);
    }
}
