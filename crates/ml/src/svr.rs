//! Epsilon support-vector regression trained with an SMO solver.
//!
//! The paper uses libsvm's nu-SVR for plan-level models. We implement the
//! closely-related epsilon-SVR (same model family and kernel machinery;
//! epsilon parameterizes the tube width directly instead of nu; as the
//! plan-level learner it reaches nu-SVR's held-out error at a fifteenth of
//! the training time or less — DESIGN.md §2 has the table). The dual
//! problem is solved with a libsvm-style sequential minimal optimization
//! (SMO) loop using libsvm's second-order working-set selection (Fan,
//! Chen & Lin 2005): `i` is the maximal up-violator, `j` the violating
//! partner whose pair step promises the largest decrease of the dual.
//!
//! Features and targets are standardized internally (see [`crate::scaler`]),
//! so the tube half-width is expressed in target standard deviations and
//! the default RBF `gamma` of `1 / n_features` is meaningful.

use crate::bytes::{put_f64, put_f64s, Malformed, Reader};
use crate::compiled::{pack, LANES};
use crate::dataset::Dataset;
use crate::linalg::{scan_second_order, scan_violating, second_order_quad, ScanResult};
use crate::scaler::{StandardScaler, TargetScaler};
use crate::MlError;

/// The SVR kernel. Every model this workspace trains is RBF ε-SVR, so
/// there is one family; snapshots still carry its tag (1) so a model
/// written under another kernel is refused rather than misread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Radial basis function `exp(-gamma * ||a - b||^2)`.
    Rbf {
        /// Bandwidth; `gamma <= 0` selects `1 / n_features` at fit time.
        gamma: f64,
    },
}

impl Kernel {
    fn encode(&self, out: &mut Vec<u8>) {
        let Kernel::Rbf { gamma } = *self;
        out.push(1);
        put_f64(out, gamma);
    }

    fn decode(r: &mut Reader) -> Result<Kernel, Malformed> {
        match r.u8()? {
            1 => Ok(Kernel::Rbf { gamma: r.f64()? }),
            _ => Err(Malformed("unknown kernel tag")),
        }
    }

    /// The reference RBF term the tests hold `compiled::rbf_lanes` to: the
    /// squared distance is a left-to-right sum started at +0.0, the order
    /// of each lane there, so the two agree bit for bit. `a` is an
    /// iterator so a support vector can be read where it lies in the lane
    /// layout.
    #[cfg(test)]
    pub(crate) fn eval(
        &self,
        a: impl IntoIterator<Item = f64>,
        b: &[f64],
        resolved_gamma: f64,
    ) -> f64 {
        let sq = a
            .into_iter()
            .zip(b)
            .fold(0.0, |acc, (x, &y)| acc + (x - y) * (x - y));
        (-resolved_gamma * sq).exp()
    }
}

/// Box constraint (regularization/cost); larger fits harder.
pub(crate) const C: f64 = 10.0;

/// Half-width of the insensitive tube, in target standard deviations.
pub(crate) const EPSILON: f64 = 0.05;

/// KKT-violation tolerance for the SMO stopping rule.
pub(crate) const TOL: f64 = 1e-3;

/// Hard cap on SMO iterations (each optimizes one variable pair).
pub(crate) const MAX_ITER: usize = 200_000;

/// Hyper-parameters for epsilon-SVR: the kernel. The box constraint, the
/// tube half-width, the stopping tolerance and the iteration cap are
/// constants of this module, since no caller set them apart from their
/// defaults (DESIGN.md §12).
#[derive(Debug, Clone, PartialEq)]
pub struct SvrParams {
    /// Kernel.
    pub kernel: Kernel,
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            kernel: Kernel::Rbf { gamma: 0.0 },
        }
    }
}

/// Epsilon-SVR learner.
#[derive(Debug, Clone)]
pub struct Svr {
    params: SvrParams,
}

impl Svr {
    /// Creates a learner with the given hyper-parameters.
    pub fn new(params: SvrParams) -> Self {
        Svr { params }
    }

    /// Fits the SVR on `x` and `y`; returns the model in its serving
    /// layout (see [`crate::compiled`]).
    pub fn fit(&self, x: &Dataset, y: &[f64]) -> Result<SvrModel, MlError> {
        self.fit_capped(x, y, MAX_ITER)
    }

    /// [`Svr::fit`] with the SMO iteration cap given: the crate-private
    /// path by which tests reach the cap and the ridge fallback behind it.
    pub(crate) fn fit_capped(
        &self,
        x: &Dataset,
        y: &[f64],
        max_iter: usize,
    ) -> Result<SvrModel, MlError> {
        x.check_targets(y)?;
        check_finite(x, y)?;
        let kernel = self.params.kernel;
        let pre = Prepared::new(x, y, kernel);
        smo_solve(&pre.xs, &pre.ys, pre.gamma, max_iter, second_order_j).into_model(kernel, pre)
    }
}

/// What a fit hands its solver: standardized features and targets, the
/// scalers that produced them, and the resolved RBF width.
pub(crate) struct Prepared {
    pub xs: Dataset,
    pub ys: Vec<f64>,
    pub x_scaler: StandardScaler,
    pub y_scaler: TargetScaler,
    /// `gamma <= 0` resolved to `1 / n_features`.
    pub gamma: f64,
}

impl Prepared {
    pub(crate) fn new(x: &Dataset, y: &[f64], kernel: Kernel) -> Prepared {
        let x_scaler = StandardScaler::fit(x);
        let y_scaler = TargetScaler::fit(y);
        let Kernel::Rbf { gamma } = kernel;
        Prepared {
            xs: x_scaler.transform(x),
            ys: y_scaler.transform(y),
            x_scaler,
            y_scaler,
            gamma: if gamma > 0.0 {
                gamma
            } else {
                1.0 / x.n_cols().max(1) as f64
            },
        }
    }
}

/// Returns an error if any feature or target value is NaN or infinite
/// (such values would silently poison the kernel matrix and gradients).
fn check_finite(x: &Dataset, y: &[f64]) -> Result<(), MlError> {
    let rows_ok = x.rows().all(|r| r.iter().all(|v| v.is_finite()));
    if rows_ok && y.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(MlError::NonFiniteData)
    }
}

/// Which of its three exits an SMO solve took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SmoExit {
    /// The stopping rule fired: `g_max - g_min < TOL` (or one of the two
    /// candidate sets was empty, which leaves no violating pair at all).
    Kkt,
    /// The step on the selected pair changed neither variable (no room
    /// left in floating point); the rule would pick the same pair again,
    /// so the loop ends rather than spin to the cap.
    Stalled,
    /// `max_iter` pair steps were taken without either of the above.
    IterationCap,
}

/// A stalled solve is accepted when its KKT gap is within this factor of
/// [`TOL`]; a stall further out is reported as non-convergence.
pub(crate) const STALL_SLACK: f64 = 10.0;

/// What an SMO solve hands back: the raw dual variables (alpha block, then
/// alpha* block), the bias, and how the loop ended.
#[derive(Debug, Clone)]
pub(crate) struct SmoOutcome {
    /// The `2l` dual variables.
    pub a: Vec<f64>,
    /// Primal bias, in standardized target units.
    pub bias: f64,
    /// The exit taken.
    pub exit: SmoExit,
    /// Pair steps taken (a stalled step counts: it was selected and tried).
    pub iterations: usize,
    /// `g_max - g_min` at the last working-set scan.
    pub gap: f64,
}

impl SmoOutcome {
    /// What a caller may assume about the KKT conditions: after
    /// [`SmoExit::Kkt`] the maximal violation is below [`TOL`]; after
    /// [`SmoExit::Stalled`] it is below `STALL_SLACK * TOL` — a looser
    /// guarantee, taken because the one pair that violates by more has no
    /// room left to move in floating point. A stall with a wider gap and
    /// an exhausted budget are both non-convergence.
    pub(crate) fn converged(&self) -> bool {
        match self.exit {
            SmoExit::Kkt => true,
            SmoExit::Stalled => self.gap < STALL_SLACK * TOL,
            SmoExit::IterationCap => false,
        }
    }

    /// Turns a converged solve into the model (support vectors are the
    /// rows with a nonzero net coefficient `a_i - a_{i+l}`), or reports
    /// [`MlError::DidNotConverge`].
    pub(crate) fn into_model(self, kernel: Kernel, pre: Prepared) -> Result<SvrModel, MlError> {
        let Prepared {
            xs,
            x_scaler,
            y_scaler,
            gamma,
            ..
        } = pre;
        let did_not_converge = MlError::DidNotConverge {
            iterations: self.iterations,
        };
        if !self.converged() {
            return Err(did_not_converge);
        }
        let l = xs.n_rows();
        let coefs: Vec<f64> = (0..l)
            .map(|i| self.a[i] - self.a[i + l])
            .map(|b| if b.abs() > 1e-12 { b } else { 0.0 })
            .collect();
        if !self.bias.is_finite() || coefs.iter().any(|c| !c.is_finite()) {
            return Err(did_not_converge);
        }
        Ok(SvrModel::packed(
            kernel,
            gamma,
            self.bias,
            x_scaler,
            y_scaler,
            &coefs,
            |i, k| xs.row(i)[k],
        ))
    }
}

/// The solver state a working-set rule reads when it picks a partner.
pub(crate) struct DualState<'a> {
    /// Dual variables.
    pub a: &'a [f64],
    /// Gradient.
    pub g: &'a [f64],
    /// Row-major `l x l` Gram matrix.
    pub k: &'a [f64],
    /// Its diagonal.
    pub diag: &'a [f64],
    /// Box constraint.
    pub c: f64,
}

/// The production rule (libsvm's WSS2): with `i = sel.i_up`, among the
/// low-eligible `t` with `v_t < g_max` the one minimising
/// `-(g_max - v_t)^2 / quad_it`. Both sign halves share one `quad` vector
/// because `t` and `t + l` are the same training row. Returns
/// `usize::MAX` when nothing violates against `i`.
pub(crate) fn second_order_j(st: &DualState<'_>, sel: &ScanResult, quad: &mut [f64]) -> usize {
    let l = quad.len();
    let ii = sel.i_up % l;
    second_order_quad(st.diag, &st.k[ii * l..(ii + 1) * l], st.diag[ii], quad);
    let mut pick = scan_second_order::<false>(&st.a[..l], &st.g[..l], quad, st.c, sel.g_max);
    pick.merge_later(
        scan_second_order::<true>(&st.a[l..], &st.g[l..], quad, st.c, sel.g_max),
        l,
    );
    pick.j
}

/// The first-order rule this solver used before (`j` = the minimal
/// low-violator): kept as the reference the second-order rule is tested
/// against — same optimum, many more steps.
#[cfg(test)]
pub(crate) fn first_order_j(_st: &DualState<'_>, sel: &ScanResult, _quad: &mut [f64]) -> usize {
    sel.i_low
}

/// SMO over the 2l-variable epsilon-SVR dual (libsvm formulation):
/// variables `a`, signs `s_t` (+1 for the alpha block, -1 for alpha*),
/// linear term `p_t = eps - y` / `eps + y`, constraint `sum s_t a_t = 0`,
/// box `[0, C]`, at most `max_iter` pair steps ([`MAX_ITER`] outside
/// tests). See [`SmoOutcome::converged`] for what each exit guarantees.
/// `pick_j` is the working-set rule: [`second_order_j`] always, except
/// that unit tests also run `first_order_j` through this very loop.
///
/// The solve builds its dense `l × l` Gram matrix into a buffer of its own
/// and frees it when it returns: no fit leaves training scratch behind
/// ([`crate::gram`]).
pub(crate) fn smo_solve(
    xs: &Dataset,
    ys: &[f64],
    gamma: f64,
    max_iter: usize,
    pick_j: impl Fn(&DualState<'_>, &ScanResult, &mut [f64]) -> usize,
) -> SmoOutcome {
    let l = xs.n_rows();
    let n = 2 * l;
    let c = C;

    // Dense kernel matrix; training sets are small (<= a few thousand rows).
    let k: &[f64] = &crate::gram::solve_gram(xs, gamma);
    let kij = |i: usize, j: usize| k[i * l + j];
    let sign = |t: usize| if t < l { 1.0 } else { -1.0 };
    let idx = |t: usize| if t < l { t } else { t - l };
    let diag: Vec<f64> = (0..l).map(|t| kij(t, t)).collect();
    let mut quad = vec![0.0f64; l];

    let mut a = vec![0.0f64; n];
    // Gradient G_t = sum_u Qbar_tu a_u + p_t; starts at p_t since a = 0.
    let mut g: Vec<f64> = (0..n)
        .map(|t| {
            if t < l {
                EPSILON - ys[t]
            } else {
                EPSILON + ys[t - l]
            }
        })
        .collect();

    let mut exit = SmoExit::IterationCap;
    let mut iterations = 0usize;
    let mut gap = f64::INFINITY;
    while iterations < max_iter {
        // Working-set selection, first pass: the maximal violating pair,
        // which fixes `i` and decides the stopping rule. The 2l scan
        // splits at l into two sign-contiguous halves (s = +1, then
        // s = −1 where `-s*g` reduces exactly to `g`), each one
        // `linalg` scan; merging with strict comparisons preserves the
        // sequential loop's first-wins rule bit for bit.
        let mut sel = scan_violating::<false>(&a[..l], &g[..l], c);
        sel.merge_later(scan_violating::<true>(&a[l..], &g[l..], c), l);
        gap = sel.g_max - sel.g_min;
        if sel.i_up == usize::MAX || sel.i_low == usize::MAX || gap < TOL {
            exit = SmoExit::Kkt;
            break;
        }
        // Second pass: the rule picks `j` (a gap of at least `TOL > 0`
        // guarantees a violating partner).
        let state = DualState {
            a: &a,
            g: &g,
            k,
            diag: &diag,
            c,
        };
        let (i, j) = (sel.i_up, pick_j(&state, &sel, &mut quad));
        if j == usize::MAX {
            exit = SmoExit::Kkt;
            break;
        }
        iterations += 1;
        let (si, sj) = (sign(i), sign(j));
        let (ii, jj) = (idx(i), idx(j));
        let q_ii = kij(ii, ii);
        let q_jj = kij(jj, jj);
        let q_ij_signed = si * sj * kij(ii, jj);

        let old_ai = a[i];
        let old_aj = a[j];

        if (si - sj).abs() > 0.5 {
            // Opposite signs.
            let quad = (q_ii + q_jj + 2.0 * q_ij_signed).max(1e-12);
            let delta = (-g[i] - g[j]) / quad;
            let diff = a[i] - a[j];
            a[i] += delta;
            a[j] += delta;
            if diff > 0.0 {
                if a[j] < 0.0 {
                    a[j] = 0.0;
                    a[i] = diff;
                }
            } else if a[i] < 0.0 {
                a[i] = 0.0;
                a[j] = -diff;
            }
            if diff > 0.0 {
                if a[i] > c {
                    a[i] = c;
                    a[j] = c - diff;
                }
            } else if a[j] > c {
                a[j] = c;
                a[i] = c + diff;
            }
        } else {
            // Same signs.
            let quad = (q_ii + q_jj - 2.0 * q_ij_signed).max(1e-12);
            let delta = (g[i] - g[j]) / quad;
            let sum = a[i] + a[j];
            a[i] -= delta;
            a[j] += delta;
            if sum > c {
                if a[i] > c {
                    a[i] = c;
                    a[j] = sum - c;
                } else if a[j] > c {
                    a[j] = c;
                    a[i] = sum - c;
                }
            } else if a[j] < 0.0 {
                a[j] = 0.0;
                a[i] = sum;
            } else if a[i] < 0.0 {
                a[i] = 0.0;
                a[j] = sum;
            }
        }
        // Clamp against numerical drift.
        a[i] = a[i].clamp(0.0, c);
        a[j] = a[j].clamp(0.0, c);

        let da_i = a[i] - old_ai;
        let da_j = a[j] - old_aj;
        if da_i == 0.0 && da_j == 0.0 {
            // Stalled at the box boundary: this pair cannot move and the
            // rule would select it again, so stop rather than spin to the
            // cap. Whether that counts as converged depends on `gap`. A
            // step that only clears a rounding residue (a variable
            // 1e-16 inside the box snapping onto the bound) is not a
            // stall: it changes which variables are eligible.
            exit = SmoExit::Stalled;
            break;
        }
        // Hoisted row slices and sign-folded step sizes: multiplying by
        // si/sj/st (all ±1) is exact in IEEE 754, so folding them into the
        // constants keeps every gradient value bit-identical to the naive
        // per-element expression while halving the kernel lookups.
        let row_i = &k[ii * l..(ii + 1) * l];
        let row_j = &k[jj * l..(jj + 1) * l];
        let ci = si * da_i;
        let cj = sj * da_j;
        let (g_up, g_down) = g.split_at_mut(l);
        crate::linalg::grad_pair_update(g_up, g_down, row_i, row_j, ci, cj);
    }

    // Bias: for free variables, rho = -s_t G_t equals the primal bias b.
    let mut sum = 0.0;
    let mut count = 0usize;
    for t in 0..n {
        let s = sign(t);
        if a[t] > 1e-12 && a[t] < c - 1e-12 {
            sum += -s * g[t];
            count += 1;
        }
    }
    let bias = if count > 0 {
        sum / count as f64
    } else {
        // No free variables: use the midpoint of the violating-pair bounds.
        let mut g_max = f64::NEG_INFINITY;
        let mut g_min = f64::INFINITY;
        for t in 0..n {
            let s = sign(t);
            let in_up = (s > 0.0 && a[t] < c) || (s < 0.0 && a[t] > 0.0);
            let in_low = (s > 0.0 && a[t] > 0.0) || (s < 0.0 && a[t] < c);
            let v = -s * g[t];
            if in_up {
                g_max = g_max.max(v);
            }
            if in_low {
                g_min = g_min.min(v);
            }
        }
        if g_max.is_finite() && g_min.is_finite() {
            (g_max + g_min) / 2.0
        } else {
            0.0
        }
    };

    SmoOutcome {
        a,
        bias,
        exit,
        iterations,
        gap,
    }
}

/// A fitted SVR model, stored once, in the lane-padded layout its kernel
/// reads ([`crate::compiled`]): support vectors with a zero coefficient
/// are not stored. One summation order runs over that storage, the lane
/// tree [`SvrModel::predict_into`], which serving, cross-validation and
/// forward selection all read.
#[derive(Debug, Clone)]
pub struct SvrModel {
    pub(crate) kernel: Kernel,
    pub(crate) gamma: f64,
    /// Lane-padded SoA blocks: `n_blocks * n_features * LANES` values.
    /// Block `b`, feature `k`, lane `l` lives at
    /// `b * n_features * LANES + k * LANES + l` and holds feature `k` of
    /// support vector `b * LANES + l` (zero beyond the last one).
    pub(crate) sv_lanes: Box<[f64]>,
    /// Coefficients, zero-padded to `n_blocks * LANES`.
    pub(crate) coef_lanes: Box<[f64]>,
    /// Support vectors stored (the non-zero coefficients).
    pub(crate) n_support_vectors: usize,
    pub(crate) bias: f64,
    pub(crate) x_scaler: StandardScaler,
    pub(crate) y_scaler: TargetScaler,
    pub(crate) n_features: usize,
}

impl SvrModel {
    /// The model of `coefficients` over support vectors already in scaled
    /// space (`sv(i, k)` is feature `k` of vector `i`), packed into the
    /// lane layout (`compiled::pack`). A zero coefficient is
    /// dropped with its vector before lanes are assigned, which keeps every
    /// survivor's lane, hence the lane tree's bits.
    fn packed(
        kernel: Kernel,
        gamma: f64,
        bias: f64,
        x_scaler: StandardScaler,
        y_scaler: TargetScaler,
        coefficients: &[f64],
        sv: impl Fn(usize, usize) -> f64,
    ) -> SvrModel {
        let kept: Vec<usize> = (0..coefficients.len())
            .filter(|&i| coefficients[i] != 0.0)
            .collect();
        let n = kept.len();
        let d = x_scaler.n_cols();
        SvrModel {
            kernel,
            gamma,
            sv_lanes: pack(n, d, |s, k| sv(kept[s], k)),
            // One feature a vector: coefficient `s` at index `s`, padded.
            coef_lanes: pack(n, 1, |s, _| coefficients[kept[s]]),
            n_support_vectors: n,
            bias,
            x_scaler,
            y_scaler,
            n_features: d,
        }
    }

    /// Assembles a model from raw parts. Fitting ([`Svr::fit`]) and
    /// snapshot deserialization are the production paths; this exists so
    /// tests can hand-build models with arbitrary support-vector counts,
    /// arities, and coefficient patterns (the lane-tree property tests
    /// sweep shapes a fit would rarely produce). Support vectors are taken
    /// as already living in scaled space, like a fitted model's; those
    /// with a zero coefficient are dropped.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        kernel: Kernel,
        gamma: f64,
        support_vectors: Vec<Vec<f64>>,
        coefficients: Vec<f64>,
        bias: f64,
        x_scaler: StandardScaler,
        y_scaler: TargetScaler,
        n_features: usize,
    ) -> Self {
        assert_eq!(support_vectors.len(), coefficients.len());
        assert!(support_vectors.iter().all(|sv| sv.len() == n_features));
        assert_eq!(x_scaler.n_cols(), n_features);
        SvrModel::packed(
            kernel,
            gamma,
            bias,
            x_scaler,
            y_scaler,
            &coefficients,
            |i, k| support_vectors[i][k],
        )
    }

    /// Support vector `i`'s features, read across its lane.
    pub(crate) fn support_vector(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        let d = self.n_features;
        let base = (i / LANES) * d * LANES + i % LANES;
        (0..d).map(move |k| self.sv_lanes[base + k * LANES])
    }

    /// `c_i · K(sv_i, xr)` for each stored support vector, in order.
    #[cfg(test)]
    fn terms<'a>(&'a self, xr: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        (0..self.n_support_vectors).map(move |i| {
            self.coef_lanes[i] * self.kernel.eval(self.support_vector(i), xr, self.gamma)
        })
    }

    /// The reference the lane tree is held to: the left-to-right fold
    /// `bias + Σᵢ cᵢ·K(svᵢ, x)` over the support vectors, each term
    /// `Kernel::eval`'s. Only tests read it; every prediction is the
    /// lane tree ([`SvrModel::predict_into`]).
    #[cfg(test)]
    pub(crate) fn predict_fold(&self, row: &[f64]) -> f64 {
        let xr = self.x_scaler.transform_row(row);
        let mut acc = self.bias;
        for term in self.terms(&xr) {
            acc += term;
        }
        self.y_scaler.inverse(acc)
    }

    /// The reordering-error scale of a prediction on `row`, in target
    /// units: `(|bias| + Σ|c_i·K_i|) · |target slope|`. Any regrouping of
    /// the left-to-right fold in [`SvrModel::predict_fold`] — the lane
    /// tree included — agrees with it to within a few ULPs of this
    /// magnitude; the lane-tree tolerance tests are phrased against it.
    #[cfg(test)]
    pub(crate) fn sum_magnitude(&self, row: &[f64]) -> f64 {
        let xr = self.x_scaler.transform_row(row);
        let mut mag = self.bias.abs();
        for term in self.terms(&xr) {
            mag += term.abs();
        }
        mag * self.y_scaler.slope_abs()
    }

    /// The model itself: it is stored in its serving layout, so there is
    /// nothing left to compile. Kept because the benchmark harness calls
    /// it.
    pub fn compile(&self) -> &SvrModel {
        self
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of support vectors stored (those with a non-zero
    /// coefficient).
    pub fn n_support_vectors(&self) -> usize {
        self.n_support_vectors
    }

    /// True when every learned parameter (bias, coefficients, support
    /// vectors, kernel width, scalers) is finite — the registry's snapshot
    /// validation gate.
    pub(crate) fn weights_finite(&self) -> bool {
        self.bias.is_finite()
            && self.gamma.is_finite()
            && self.coef_lanes.iter().all(|c| c.is_finite())
            && self.sv_lanes.iter().all(|v| v.is_finite())
            && self.x_scaler.is_finite()
            && self.y_scaler.is_finite()
    }

    /// Appends every learned parameter, floats as their bits: two fits
    /// encode to equal bytes exactly when they are the same model. The
    /// feature count travels once, in the scaler, and the support-vector
    /// count once, with the coefficients, so the shapes a decoded model
    /// relies on cannot disagree. The support vectors follow as rows.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.kernel.encode(out);
        put_f64(out, self.gamma);
        put_f64(out, self.bias);
        self.x_scaler.encode(out);
        self.y_scaler.encode(out);
        put_f64s(out, &self.coef_lanes[..self.n_support_vectors]);
        for i in 0..self.n_support_vectors {
            for v in self.support_vector(i) {
                put_f64(out, v);
            }
        }
    }

    /// Reads what [`SvrModel::encode`] wrote, packing the support vectors
    /// into the lane layout (a zero coefficient, which no fit writes, is
    /// dropped with its vector).
    pub fn decode(r: &mut Reader) -> Result<SvrModel, Malformed> {
        let kernel = Kernel::decode(r)?;
        let gamma = r.f64()?;
        let bias = r.f64()?;
        let x_scaler = StandardScaler::decode(r)?;
        let y_scaler = TargetScaler::decode(r)?;
        let coefficients = r.counted_f64s()?;
        let d = x_scaler.n_cols();
        let rows = r.f64s(coefficients.len().saturating_mul(d))?;
        Ok(SvrModel::packed(
            kernel,
            gamma,
            bias,
            x_scaler,
            y_scaler,
            &coefficients,
            |i, k| rows[i * d + k],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mean_relative_error;

    fn grid_2d() -> (Dataset, Vec<f64>) {
        let mut rows = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        let ds = Dataset::from_rows(rows);
        let y = ds.rows().map(|r| 3.0 * r[0] + 2.0 * r[1] + 10.0).collect();
        (ds, y)
    }

    #[test]
    fn rbf_kernel_fits_smooth_nonlinear_function() {
        let mut rows = Vec::new();
        for i in 0..60 {
            rows.push(vec![i as f64 / 10.0]);
        }
        let x = Dataset::from_rows(rows);
        let y: Vec<f64> = x.rows().map(|r| (r[0]).sin() * 5.0 + 10.0).collect();
        let m = Svr::new(SvrParams::default()).fit(&x, &y).unwrap();
        let preds: Vec<f64> = x.rows().map(|r| m.predict(r)).collect();
        assert!(mean_relative_error(&y, &preds) < 0.05);
    }

    #[test]
    fn exhausted_iteration_budget_is_reported() {
        let (x, y) = grid_2d();
        assert!(matches!(
            Svr::new(SvrParams::default()).fit_capped(&x, &y, 1),
            Err(MlError::DidNotConverge { iterations: 1 })
        ));
    }

    #[test]
    fn non_finite_training_data_is_rejected() {
        let x = Dataset::from_rows(vec![vec![1.0], vec![f64::NAN], vec![3.0]]);
        assert!(matches!(
            Svr::new(SvrParams::default()).fit(&x, &[1.0, 2.0, 3.0]),
            Err(MlError::NonFiniteData)
        ));
        let x = Dataset::from_rows(vec![vec![1.0], vec![2.0]]);
        assert!(matches!(
            Svr::new(SvrParams::default()).fit(&x, &[1.0, f64::NAN]),
            Err(MlError::NonFiniteData)
        ));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x = Dataset::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]);
        let y = [7.0, 7.0, 7.0];
        let m = Svr::new(SvrParams::default()).fit(&x, &y).unwrap();
        assert!((m.predict(&[2.5]) - 7.0).abs() < 0.5);
    }

    #[test]
    fn model_roundtrips_through_its_bytes() {
        let (x, y) = grid_2d();
        let m = Svr::new(SvrParams::default()).fit(&x, &y).unwrap();
        let mut bytes = Vec::new();
        m.encode(&mut bytes);
        let back = SvrModel::decode(&mut Reader::new(&bytes)).unwrap();
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, bytes);
        let r = x.row(42);
        assert_eq!(m.predict(r).to_bits(), back.predict(r).to_bits());
        // A torn write stops at a bounds check, not at an index.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(SvrModel::decode(&mut Reader::new(&bytes[..cut])).is_err());
        }
        // RBF is tag 1; every other tag is refused.
        assert_eq!(bytes[0], 1);
        for tag in [0, 2] {
            let mut other = bytes.clone();
            other[0] = tag;
            assert!(matches!(
                SvrModel::decode(&mut Reader::new(&other)),
                Err(Malformed("unknown kernel tag"))
            ));
        }
    }
}
