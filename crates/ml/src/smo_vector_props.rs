//! Vectorized-SMO bit-identity tests.
//!
//! The SMO inner loop runs on the `ml::linalg` primitives
//! (`scan_violating`, `scan_second_order`, `grad_pair_update`), each one
//! lane body that yields the bits of the sequential loop whichever
//! compilation of it runs (see `ml::linalg`'s docs; its unit tests hold
//! the baseline compilation to the dispatched one). Consequently a whole
//! *fit* must be bit-identical — the same support vectors, the same
//! alphas (dual coefficients), the same bias — on one thread or many.
//! Models are compared through `SvrModel::encode`, which writes every
//! `f64` as its bits (`-0.0` included), so byte equality is value-bit
//! equality across all learned parameters.
//!
//! Data comes from closed-form generators; only the shapes of the random
//! sweep are drawn.

use crate::linalg::scan_violating;
use crate::linalg::tests::naive_scan;
use crate::svr::{Svr, SvrParams};
use crate::Dataset;

/// Deterministic synthetic regression data: smooth multi-feature rows and
/// a mildly nonlinear target. No RNG involved, so the exact same bits are
/// generated on any host, and the solver converges on every grid shape.
pub(crate) fn training_set(l: usize, d: usize, seed: u64) -> (Dataset, Vec<f64>) {
    let phase = (seed % 17) as f64;
    let mut rows = Vec::with_capacity(l);
    let mut y = Vec::with_capacity(l);
    for i in 0..l {
        let row: Vec<f64> = (0..d)
            .map(|k| {
                let t = (i * (k + 3)) as f64 + phase;
                (t * 0.37).sin() * 10.0 + k as f64 * 0.5 + i as f64 * 0.01
            })
            .collect();
        let target = row
            .iter()
            .enumerate()
            .map(|(k, v)| (k as f64 + 1.0) * v)
            .sum::<f64>()
            * 0.3
            + ((i as f64) * 0.11 + phase).cos() * 0.5;
        rows.push(row);
        y.push(target);
    }
    (Dataset::from_rows(rows), y)
}

/// Encodes a fit so equality covers every learned parameter: support
/// vectors, dual coefficients, bias, kernel, and scalers.
fn fit_bytes(x: &Dataset, y: &[f64]) -> Vec<u8> {
    let model = Svr::new(SvrParams::default())
        .fit(x, y)
        .expect("fit must converge on the deterministic grid data");
    let mut bytes = Vec::new();
    model.encode(&mut bytes);
    bytes
}

/// Core property: every thread count reproduces the single-thread
/// reference fit exactly. The worker count is a process global, so the
/// check holds `ml::par`'s test lock while it sets it.
fn assert_fit_config_invariant(l: usize, d: usize, seed: u64) {
    let (x, y) = training_set(l, d, seed);
    let _pinned = crate::par::tests::pin_threads(1);
    let reference = fit_bytes(&x, &y);
    for threads in [1usize, 2, 4] {
        crate::par::set_threads(threads);
        let got = fit_bytes(&x, &y);
        assert_eq!(
            got, reference,
            "epsilon-SVR fit diverged from the single-thread reference for \
             l={l} d={d} threads={threads}",
        );
    }
}

/// First a grid of row counts spanning the gram tile boundary (64) ×
/// arities, then shapes drawn at random.
#[test]
fn smo_fit_identical_for_any_shape() {
    for &(l, d) in &[(12usize, 2usize), (30, 3), (65, 1), (90, 4)] {
        for seed in 0..2u64 {
            assert_fit_config_invariant(l, d, seed);
        }
    }
    rng::cases(12, |rng| {
        let l = rng.gen_range(8usize..70);
        let d = rng.gen_range(1usize..5);
        assert_fit_config_invariant(l, d, rng.next_u64());
    });
}

/// Solver-sized fits scan a few hundred elements; the primitive is swept
/// directly at 40 000: the lane pass and its lane combine must reproduce
/// the sequential rule — first occurrence wins — for both scan
/// orientations.
#[test]
fn large_scan_matches_the_sequential_rule() {
    let n = 40_000;
    let c = 1.0;
    let a: Vec<f64> = (0..n).map(|t| ((t % 7) as f64) * 0.2).collect();
    let g: Vec<f64> = (0..n).map(|t| ((t as f64) * 0.013).sin() * 3.0).collect();
    let got = [
        scan_violating::<false>(&a, &g, c),
        scan_violating::<true>(&a, &g, c),
    ];
    for (flipped, got) in [false, true].into_iter().zip(got) {
        assert_eq!(
            got,
            naive_scan(&a, &g, c, flipped),
            "scan diverged (flipped={flipped})"
        );
    }
}
