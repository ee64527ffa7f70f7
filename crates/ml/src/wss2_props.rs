//! Second-order working-set scan against its definition.
//!
//! `ml::linalg::scan_second_order` picks the SMO solver's `j`. Like
//! `scan_violating` it is one lane body whose every compilation yields the
//! bits of the sequential loop (`ml::linalg`'s unit tests hold the
//! baseline compilation to the dispatched one), and the solver's
//! whole-fit bit-identity (`smo_vector_props`) rests on it
//! agreeing with that loop on the selected index and on every bit of the
//! winning estimate — including exact ties (first occurrence wins), signed
//! zeros, an empty candidate set and the `1e-12` curvature clamp of
//! `second_order_quad`. The definition is the naive loop of `linalg`'s
//! unit tests, and the dispatched primitive is held to it.

use crate::linalg::tests::naive_second_order;
use crate::linalg::{scan_second_order, second_order_quad, SecondOrderPick};

/// The primitive, with the orientation as a value.
fn scan(a: &[f64], g: &[f64], quad: &[f64], c: f64, g_max: f64, flipped: bool) -> SecondOrderPick {
    if flipped {
        scan_second_order::<true>(a, g, quad, c, g_max)
    } else {
        scan_second_order::<false>(a, g, quad, c, g_max)
    }
}

/// Both orientations against the naive rule.
fn assert_paths_agree(a: &[f64], g: &[f64], quad: &[f64], c: f64, g_max: f64) {
    for flipped in [false, true] {
        let want = naive_second_order(a, g, quad, c, g_max, flipped);
        let got = scan(a, g, quad, c, g_max, flipped);
        assert_eq!(
            (got.j, got.obj_min.to_bits()),
            (want.j, want.obj_min.to_bits()),
            "n={} flipped={flipped}: got {got:?}, want {want:?}",
            a.len()
        );
    }
}

/// Closed-form solver-like state: alphas on both bounds and inside the
/// box, gradients of both signs, curvature from a synthetic Gram row whose
/// own entry (`t == i`) clamps.
fn state(n: usize, seed: u64, c: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let phase = (seed % 13) as f64;
    let a: Vec<f64> = (0..n)
        .map(|t| match (t as u64 + seed) % 4 {
            0 => 0.0,
            1 => c,
            _ => c * (((t as f64) * 0.61 + phase).sin() * 0.5 + 0.5),
        })
        .collect();
    let g: Vec<f64> = (0..n)
        .map(|t| ((t as f64) * 0.37 + phase).cos() * 2.0)
        .collect();
    // An RBF-like row: unit diagonal, K_it in (0, 1], exactly 1 at t == i.
    let i = if n == 0 { 0 } else { (seed as usize * 7) % n };
    let diag = vec![1.0; n];
    let row: Vec<f64> = (0..n)
        .map(|t| {
            let d = t as f64 - i as f64;
            (-0.05 * d * d).exp()
        })
        .collect();
    let mut quad = vec![0.0; n];
    second_order_quad(&diag, &row, 1.0, &mut quad);
    (a, g, quad)
}

/// First a grid of lengths around the lane width against several
/// `g_max`, then lengths and seeds drawn at random.
#[test]
fn scan_paths_agree_for_any_seed() {
    let c = 10.0;
    for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 31, 33, 100, 112, 257] {
        for seed in 0..6u64 {
            let (a, g, quad) = state(n, seed, c);
            for g_max in [1.5, 0.0, -0.75, f64::NEG_INFINITY] {
                assert_paths_agree(&a, &g, &quad, c, g_max);
            }
        }
    }
    rng::cases(64, |rng| {
        let n = rng.gen_range(0usize..300);
        let (a, g, quad) = state(n, rng.next_u64() % 1000, c);
        assert_paths_agree(&a, &g, &quad, c, 1.0);
    });
}

/// Values drawn from small sets so that exact ties, bound alphas and
/// zero differences are common rather than measure-zero.
#[test]
fn scan_paths_agree_for_any_state() {
    rng::cases(64, |rng| {
        let c = 2.0;
        let n = rng.gen_range(0usize..80);
        let a: Vec<f64> = (0..n)
            .map(|_| [0.0, c, 0.5, 1.0, 1e-16][rng.gen_range(0usize..5)])
            .collect();
        let g: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(-4i32..5) as f64 * 0.5)
            .collect();
        let quad: Vec<f64> = (0..n)
            .map(|_| [1e-12, 0.5, 1.0, 4.0][rng.gen_range(0usize..4)])
            .collect();
        let g_max = rng.gen_range(-4i32..6) as f64 * 0.5;
        assert_paths_agree(&a, &g, &quad, c, g_max);
    });
}

#[test]
fn exact_ties_keep_the_first_occurrence() {
    // Every candidate has the same estimate; lanes 0..3 of every vector
    // block tie, and so do the blocks and the scalar tail.
    for n in [4usize, 8, 12, 13, 30] {
        let a = vec![0.5; n];
        let g = vec![1.0; n];
        let quad = vec![2.0; n];
        assert_paths_agree(&a, &g, &quad, 1.0, 3.0);
        assert_eq!(scan_second_order::<false>(&a, &g, &quad, 1.0, 3.0).j, 0);
    }
    // Two tying minima late in the slice, in different lanes.
    let a = vec![0.5; 14];
    let mut g = vec![0.0; 14];
    g[6] = 2.0;
    g[9] = 2.0;
    g[13] = 2.0;
    let quad = vec![1.0; 14];
    assert_paths_agree(&a, &g, &quad, 1.0, 1.0);
    assert_eq!(scan_second_order::<false>(&a, &g, &quad, 1.0, 1.0).j, 6);
}

#[test]
fn signed_zeros_do_not_violate() {
    // v = ∓0.0 against g_max = ±0.0: the difference is a zero of either
    // sign, never `> 0`, so nothing is eligible on either path.
    let a = vec![0.5; 12];
    let g: Vec<f64> = (0..12)
        .map(|t| if t % 2 == 0 { 0.0 } else { -0.0 })
        .collect();
    let quad = vec![1.0; 12];
    for g_max in [0.0, -0.0] {
        assert_paths_agree(&a, &g, &quad, 1.0, g_max);
        let pick = scan_second_order::<false>(&a, &g, &quad, 1.0, g_max);
        assert_eq!(pick, SecondOrderPick::empty());
    }
    // A tiny violation squares to an underflowed -0.0 estimate: still a
    // candidate, and equal estimates still go to the first of them.
    let mut g = vec![0.0; 12];
    g[5] = 1e-200;
    g[7] = 1e-200;
    assert_paths_agree(&a, &g, &quad, 1.0, 0.0);
}

#[test]
fn empty_low_set_selects_nothing() {
    let c = 1.0;
    let g: Vec<f64> = (0..20).map(|t| (t as f64 * 0.9).sin()).collect();
    let quad = vec![1.0; 20];
    // a == 0 leaves no low candidate in the alpha half, a == C none in
    // the (flipped) alpha* half.
    for (a, flipped) in [(vec![0.0; 20], false), (vec![c; 20], true)] {
        assert_paths_agree(&a, &g, &quad, c, 5.0);
        let pick = scan(&a, &g, &quad, c, 5.0, flipped);
        assert_eq!(pick, SecondOrderPick::empty());
    }
}

#[test]
fn clamped_curvature_wins_the_scan() {
    // The alpha_i / alpha*_i pair of one row: K_ii + K_ii - 2 K_ii = 0
    // clamps to 1e-12, and that estimate dwarfs every other.
    let n = 24;
    let i = 17;
    let diag = vec![1.0; n];
    let row: Vec<f64> = (0..n).map(|t| if t == i { 1.0 } else { 0.25 }).collect();
    let mut quad = vec![0.0; n];
    second_order_quad(&diag, &row, 1.0, &mut quad);
    assert_eq!(quad[i], 1e-12);
    assert!(quad.iter().enumerate().all(|(t, &q)| t == i || q == 1.5));
    let a = vec![0.5; n];
    let g: Vec<f64> = (0..n).map(|t| 1.0 - t as f64 * 0.01).collect();
    assert_paths_agree(&a, &g, &quad, 1.0, 0.1);
    let pick = scan_second_order::<false>(&a, &g, &quad, 1.0, 0.1);
    assert_eq!(pick.j, i);
}

#[test]
fn merge_keeps_the_earlier_block_on_ties() {
    let mut first = SecondOrderPick {
        obj_min: -2.0,
        j: 3,
    };
    first.merge_later(
        SecondOrderPick {
            obj_min: -2.0,
            j: 0,
        },
        10,
    );
    assert_eq!(first.j, 3);
    first.merge_later(
        SecondOrderPick {
            obj_min: -2.5,
            j: 1,
        },
        10,
    );
    assert_eq!((first.j, first.obj_min), (11, -2.5));
    first.merge_later(SecondOrderPick::empty(), 20);
    assert_eq!(first.j, 11);
}
