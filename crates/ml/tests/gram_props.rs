//! Property tests for the Gram matrix an SMO solve reads.
//!
//! A solve builds its own matrix with `ml::gram::compute_gram_blocked`
//! and keeps nothing once it returns, so whatever sequence of builds went
//! before, the matrix must be exactly — `f64::to_bits` — the one
//! `compute_gram` gives for *its* rows, symmetric. The pool of datasets a
//! sequence draws from is built to collide under anything weaker than a
//! full comparison: an equal copy, the same rows with two signs flipped
//! (which the FNV key of a hash-keyed cache could not tell apart), with
//! one column negated, with one cell moved by one ulp, and with the last
//! row missing.

use ml::gram::{compute_gram, compute_gram_blocked};
use ml::svr::Kernel;
use ml::Dataset;
use rng::StdRng;

/// Gammas a look-up chooses from; few, so that repeats occur.
const GAMMAS: [f64; 2] = [0.3, 1.1];

/// Datasets of one look-up sequence.
const POOL: usize = 6;

/// One look-up: which dataset of the pool, which gamma.
type Lookup = (usize, usize);

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

fn pool(l: usize, d: usize, seed: u64) -> [Dataset; POOL] {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..l)
        .map(|_| (0..d).map(|_| rng.gen_range(-10.0..10.0)).collect())
        .collect();
    let base = Dataset::from_rows(rows);
    let last = l - 1;
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
        base.select_rows(&(0..last.max(1)).collect::<Vec<_>>()),
        base,
    ]
}

/// Builds every look-up's matrix in turn, each after the one before it
/// has been dropped.
fn check_sequence(pool: &[Dataset; POOL], lookups: &[Lookup]) {
    for (step, &(which, gamma)) in lookups.iter().enumerate() {
        let xs = &pool[which];
        let l = xs.n_rows();
        let gamma = GAMMAS[gamma];
        let kernel = Kernel::Rbf { gamma };
        let k = compute_gram_blocked(xs, kernel, gamma);
        let direct = compute_gram(xs, kernel, gamma);
        assert_eq!(k.len(), l * l);
        for i in 0..l {
            for j in 0..l {
                let at = i * l + j;
                assert_eq!(
                    k[at].to_bits(),
                    direct[at].to_bits(),
                    "step {step}: ({i},{j}) of pool[{which}] at gamma {gamma}"
                );
                assert_eq!(k[at].to_bits(), k[j * l + i].to_bits());
            }
        }
    }
}

/// `len` look-ups over the pool.
fn lookups(rng: &mut StdRng, len: usize) -> Vec<Lookup> {
    (0..len)
        .map(|_| (rng.gen_range(0..POOL), rng.gen_range(0..GAMMAS.len())))
        .collect()
}

/// First a grid of shapes around the lane width, with sequences long
/// enough that every pool member follows every other; then shapes, seeds
/// and sequences drawn at random.
#[test]
fn the_gram_a_solve_reads_is_its_own() {
    for &(l, d) in &[(1usize, 1usize), (2, 2), (7, 3), (8, 4), (9, 1), (23, 4)] {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ ((l as u64) << 8));
            check_sequence(&pool(l, d, seed), &lookups(&mut rng, 96));
        }
    }
    rng::cases(48, |rng| {
        let l = rng.gen_range(1usize..24);
        let d = rng.gen_range(1usize..5);
        let seed = rng.next_u64();
        let len = rng.gen_range(1usize..24);
        check_sequence(&pool(l, d, seed), &lookups(rng, len));
    });
}
