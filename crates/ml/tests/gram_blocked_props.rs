//! Blocked-Gram bit-identity tests.
//!
//! `ml::gram::compute_gram_blocked` (the cache-blocked, lane-padded SoA
//! kernel every SMO solve builds its matrix with) must be **exactly equal** — `f64::to_bits`,
//! not a ULP tolerance — to a direct per-pair evaluation for any dataset,
//! because the blocked kernel performs each entry's per-lane operation
//! sequence in the reference order (see `ml::gram`'s module docs): a
//! squared distance summed left to right from `+0.0`, then
//! `exp(-gamma * sq)`. The build is one safe loop on the calling thread —
//! no dispatch, no fan-out — so there is one kernel to hold against the
//! reference.
//!
//! A solve builds its own matrix and keeps nothing once it returns, so
//! the matrix must be the one the reference gives for *its* rows,
//! symmetric. The last test builds datasets that collide under anything
//! weaker than a full comparison of the rows: an equal copy, the same
//! rows with two signs flipped (which the FNV key of a hash-keyed cache
//! could not tell apart), with one column negated, with one cell moved by
//! one ulp, and with the last row missing.

use ml::gram::compute_gram_blocked;
use ml::{Dataset, Kernel};
use rng::StdRng;

/// The reference: the RBF kernel evaluated once per unordered row pair,
/// its squared distance folded left to right, mirrored across the
/// diagonal.
fn direct_gram(xs: &Dataset, gamma: f64) -> Vec<f64> {
    let l = xs.n_rows();
    let mut k = vec![0.0f64; l * l];
    for i in 0..l {
        for j in 0..=i {
            let sq = xs
                .row(i)
                .iter()
                .zip(xs.row(j))
                .fold(0.0, |acc, (x, y)| acc + (x - y) * (x - y));
            let v = (-gamma * sq).exp();
            k[i * l + j] = v;
            k[j * l + i] = v;
        }
    }
    k
}

/// Random dataset of shape `l × d` with values spanning signs and
/// magnitudes.
fn random_rows(l: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..l)
        .map(|_| (0..d).map(|_| rng.gen_range(-100.0..100.0)).collect())
        .collect();
    Dataset::from_rows(rows)
}

/// Core property: blocked == direct to the bit.
fn assert_blocked_matches_direct(xs: &Dataset, gamma: f64) {
    let direct = direct_gram(xs, gamma);
    let blocked = compute_gram_blocked(xs, Kernel::Rbf { gamma }, gamma);
    assert_eq!(direct.len(), blocked.len());
    for (i, (a, b)) in direct.iter().zip(&blocked).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "entry {i} diverged ({a} vs {b}) for gamma {gamma} l={} d={}",
            xs.n_rows(),
            xs.n_cols(),
        );
    }
}

/// First a grid: row counts around the lane (8) boundary and the first
/// two tile and mirror-band (64) edges × several arities and seeds. Then
/// shapes, seeds and gammas drawn at random.
#[test]
fn blocked_gram_equals_direct_exactly() {
    for &l in &[1usize, 2, 7, 8, 9, 16, 63, 64, 65, 127, 128, 129, 130] {
        for &d in &[1usize, 2, 5, 8, 13] {
            for seed in 0..2u64 {
                let xs = random_rows(l, d, seed ^ ((l as u64) << 16) ^ ((d as u64) << 8));
                assert_blocked_matches_direct(&xs, 0.7);
            }
        }
    }
    rng::cases(96, |rng| {
        let xs = random_rows(
            rng.gen_range(1usize..80),
            rng.gen_range(1usize..12),
            rng.next_u64(),
        );
        let gamma = rng.gen_range(0.001f64..3.0);
        assert_blocked_matches_direct(&xs, gamma);
    });
}

/// Zero cells of both signs, zero columns and rows, and no columns at
/// all: a squared distance of no terms is the fold's starting value, and
/// both paths start at `+0.0`.
#[test]
fn blocked_gram_identity_with_signed_zero_cells() {
    for &l in &[9usize, 70] {
        for &d in &[0usize, 1, 3, 8] {
            let mut rng = StdRng::seed_from_u64(0x2e50 ^ ((l as u64) << 16) ^ ((d as u64) << 8));
            let mut rows: Vec<Vec<f64>> = (0..l)
                .map(|_| {
                    let cell = |_| match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-100.0..100.0),
                    };
                    (0..d).map(cell).collect()
                })
                .collect();
            // An all-zero row against an all-negative one.
            rows[0].fill(0.0);
            rows[1].iter_mut().for_each(|v| *v = -1.0 - v.abs());
            // An all-zero column, and one of negative zeros.
            for row in &mut rows[2..] {
                for (column, zero) in row.iter_mut().zip([0.0, -0.0]) {
                    *column = zero;
                }
            }
            let xs = Dataset::from_rows(rows);
            assert_blocked_matches_direct(&xs, 0.7);
        }
    }
}

/// Duplicated and near-identical rows: RBF diagonals hit exactly
/// `exp(-0.0)`, and symmetric entries must mirror exactly.
#[test]
fn blocked_gram_handles_duplicate_rows_and_symmetry() {
    let mut rows: Vec<Vec<f64>> = (0..20)
        .map(|i| vec![(i % 4) as f64, -(i as f64) * 0.5, 3.25])
        .collect();
    rows.push(rows[3].clone());
    rows.push(rows[7].clone());
    let xs = Dataset::from_rows(rows);
    let l = xs.n_rows();
    let gamma = 1.3;
    let g = compute_gram_blocked(&xs, Kernel::Rbf { gamma }, gamma);
    let direct = direct_gram(&xs, gamma);
    assert_eq!(
        g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    for i in 0..l {
        for j in 0..l {
            assert_eq!(g[i * l + j].to_bits(), g[j * l + i].to_bits());
        }
    }
}

/// Gammas each dataset is built at.
const GAMMAS: [f64; 3] = [0.05, 0.3, 1.1];

fn with_cells(base: &Dataset, edit: impl Fn(usize, usize, f64) -> f64) -> Dataset {
    let rows = base.rows().enumerate();
    Dataset::from_rows(
        rows.map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(|(j, &v)| edit(i, j, v))
                .collect()
        })
        .collect(),
    )
}

/// A dataset of shape `l × d` and its near-copies.
fn pool(l: usize, d: usize, seed: u64) -> [Dataset; 6] {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..l)
        .map(|_| (0..d).map(|_| rng.gen_range(-10.0..10.0)).collect())
        .collect();
    let base = Dataset::from_rows(rows);
    let last = l - 1;
    let kept = base.rows().take(last.max(1)).map(<[f64]>::to_vec).collect();
    [
        base.clone(),
        with_cells(&base, |i, j, v| {
            if (i, j) == (0, d - 1) || (i, j) == (last, 0) {
                -v
            } else {
                v
            }
        }),
        with_cells(&base, |_, j, v| if j == 0 { -v } else { v }),
        with_cells(&base, |i, j, v| {
            if (i, j) == (0, 0) {
                f64::from_bits(v.to_bits() + 1)
            } else {
                v
            }
        }),
        Dataset::from_rows(kept),
        base,
    ]
}

/// Builds every pool member's matrix at every gamma and holds it to the
/// direct reference for its own rows.
fn check_pool(pool: &[Dataset; 6]) {
    for (which, xs) in pool.iter().enumerate() {
        let l = xs.n_rows();
        for gamma in GAMMAS {
            let k = compute_gram_blocked(xs, Kernel::Rbf { gamma }, gamma);
            let direct = direct_gram(xs, gamma);
            assert_eq!(k.len(), l * l);
            for i in 0..l {
                for j in 0..l {
                    let at = i * l + j;
                    assert_eq!(
                        k[at].to_bits(),
                        direct[at].to_bits(),
                        "({i},{j}) of pool[{which}] at gamma {gamma}"
                    );
                    assert_eq!(k[at].to_bits(), k[j * l + i].to_bits());
                }
            }
        }
    }
}

/// First a grid of shapes around the lane width and past it; then shapes
/// and seeds drawn at random.
#[test]
fn the_gram_a_solve_reads_is_its_own() {
    for &(l, d) in &[
        (1usize, 1usize),
        (2, 2),
        (7, 3),
        (8, 4),
        (9, 1),
        (23, 4),
        (70, 4),
    ] {
        for seed in 0..3u64 {
            check_pool(&pool(l, d, seed ^ ((l as u64) << 8)));
        }
    }
    rng::cases(48, |rng| {
        let l = rng.gen_range(1usize..24);
        let d = rng.gen_range(1usize..5);
        check_pool(&pool(l, d, rng.next_u64()));
    });
}
