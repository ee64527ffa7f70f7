//! Property tests for the Gram matrix an SMO solve reads.
//!
//! A solve builds its own matrix with `ml::gram::compute_gram_blocked`
//! and keeps nothing once it returns, so the matrix must be exactly —
//! `f64::to_bits` — the one a direct per-pair evaluation gives for *its*
//! rows, symmetric. The datasets are built to collide under anything
//! weaker than a full comparison of the rows: an equal copy, the same
//! rows with two signs flipped (which the FNV key of a hash-keyed cache
//! could not tell apart), with one column negated, with one cell moved by
//! one ulp, and with the last row missing.

use ml::gram::compute_gram_blocked;
use ml::{Dataset, Kernel};
use rng::StdRng;

/// Gammas each dataset is built at.
const GAMMAS: [f64; 3] = [0.05, 0.3, 1.1];

/// The reference: the RBF kernel evaluated once per unordered row pair in
/// `Kernel::eval`'s fold order (a squared distance summed left to right
/// from `+0.0`), mirrored across the diagonal.
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
