//! Property tests for the Gram lease (`ml::gram::GramCache`).
//!
//! Whatever sequence of fits went before, the matrix a solver reads must
//! be exactly — `f64::to_bits` — the one `compute_gram` gives for *its*
//! rows, symmetric; every look-up is counted as a hit or as a miss; and a
//! hit happens only when the rows and gamma equal those of the matrix left
//! behind, bit for bit. The pool of datasets a sequence draws
//! from is built to collide under anything weaker than a full comparison:
//! an equal copy, the same rows with two signs flipped (which the FNV key
//! of the cache this replaced could not tell apart), with one column
//! negated, with one cell moved by one ulp, and with the last row missing.

use ml::gram::{compute_gram, GramCache, GramCacheStats};
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

/// Everything that decides a Gram matrix, as bits.
fn content(xs: &Dataset, gamma: f64) -> (Vec<u64>, usize, u64) {
    let cells = xs.rows().flatten().map(|v| v.to_bits()).collect();
    (cells, xs.n_cols(), gamma.to_bits())
}

/// Runs `lookups` through one cache, a fit at a time, so that exactly the
/// previous look-up's matrix is there to be handed back.
fn check_sequence(pool: &[Dataset; POOL], lookups: &[Lookup]) {
    let cache = GramCache::new();
    let mut left_behind = None;
    let mut want = GramCacheStats::default();
    for (step, &(which, gamma)) in lookups.iter().enumerate() {
        let xs = &pool[which];
        let l = xs.n_rows();
        let gamma = GAMMAS[gamma];
        let asked = Some(content(xs, gamma));
        if asked == left_behind {
            want.hits += 1;
        } else {
            want.misses += 1;
        }
        left_behind = asked;

        let k = cache.gram(xs, gamma);
        let direct = compute_gram(xs, Kernel::Rbf { gamma }, gamma);
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
        drop(k);
        assert_eq!(cache.stats(), want, "after step {step} of {lookups:?}");
    }
    assert_eq!(want.hits + want.misses, lookups.len());
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
fn leased_gram_is_the_callers_own() {
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

/// The first and last pool members are equal copies in different
/// allocations: content decides, not identity.
#[test]
fn an_equal_copy_hits_and_every_near_copy_misses() {
    let pool = pool(12, 3, 7);
    let cache = GramCache::new();
    drop(cache.gram(&pool[0], 0.3));
    drop(cache.gram(&pool[POOL - 1], 0.3));
    assert_eq!(cache.stats(), GramCacheStats { hits: 1, misses: 1 });
    for near in &pool[1..POOL - 1] {
        drop(cache.gram(near, 0.3));
        drop(cache.gram(&pool[0], 0.3));
    }
    assert_eq!(
        cache.stats(),
        GramCacheStats {
            hits: 1,
            misses: 1 + 2 * (POOL - 2)
        }
    );
}
