//! Kernel (Gram) matrices for the SMO solver: built by a blocked,
//! lane-padded kernel, owned by the fit that reads them.
//!
//! An SMO solve builds its dense `l × l` matrix with
//! [`compute_gram_blocked`] into a buffer of its own and frees it when it
//! returns. Nothing is kept between fits: no idle buffer, no copy of the
//! rows a matrix was built from, no per-thread stand-in, so a process
//! that has trained holds no training scratch once the last fit ends.
//! [`GramCache`] only counts the matrices built.
//!
//! Construction is the blocked kernel [`compute_gram_blocked`]: the
//! training rows are packed in the lane layout an SVR model is stored in,
//! the lower triangle is walked in L1-sized row tiles written in place,
//! and each row evaluates 8 kernel columns at once with the one RBF
//! function the lane tree serves with ([`crate::compiled`]) —
//! bit-identical to a direct per-pair evaluation (the tests' reference).
//! It is plain safe Rust: at the widths forward selection leaves (3–11 columns)
//! a cell is one libm `exp`, which hand-written AVX2 around it has to call
//! lane by lane too, and so measures 0.9–1.1× of this loop (DESIGN.md §7).
//! The build runs on the thread that fits: fits run side by side, nothing
//! inside one fans out.

use crate::compiled::{pack, rbf_lanes, LANES};
use crate::dataset::Dataset;
use crate::svr::Kernel;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many Gram matrices SMO solves built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GramCacheStats {
    /// Always 0: no fit takes a matrix another one built.
    pub hits: usize,
    /// Matrices built.
    pub misses: usize,
}

/// The process-wide count of the Gram matrices SMO solves built. It holds
/// no matrix; it stays because the benchmark harness reads and resets it.
pub struct GramCache {
    built: AtomicUsize,
}

impl GramCache {
    /// The counter every SMO solve bumps.
    pub fn global() -> &'static GramCache {
        static GLOBAL: GramCache = GramCache {
            built: AtomicUsize::new(0),
        };
        &GLOBAL
    }

    /// Matrices built since the process started or the last [`clear`](Self::clear).
    pub fn stats(&self) -> GramCacheStats {
        GramCacheStats {
            hits: 0,
            misses: self.built.load(Ordering::Relaxed),
        }
    }

    /// Resets the count.
    pub fn clear(&self) {
        self.built.store(0, Ordering::Relaxed);
    }
}

/// The matrix an SMO solve reads: [`compute_gram_blocked`], counted in
/// [`GramCache::global`]. The solve owns it and frees it when it returns.
pub(crate) fn solve_gram(xs: &Dataset, gamma: f64) -> Vec<f64> {
    GramCache::global().built.fetch_add(1, Ordering::Relaxed);
    compute_gram_blocked(xs, Kernel::Rbf { gamma }, gamma)
}

/// Rows per L1 tile: one 8-lane × d column block (~2 KiB at d ≈ 30) plus
/// the tile's own row data stay cache-resident while the tile is swept.
const TILE_ROWS: usize = 64;

/// Fills one row tile's lower-triangle entries (rows `rows.start..rows.end`,
/// columns `0..=i` per row) directly into `slab` — the row-major window of
/// the output matrix covering exactly those rows. Iteration is column-block
/// outer / row inner so each 8-lane column block is reused across every row
/// of the tile while it sits in L1. Entries right of the diagonal are left
/// untouched; the mirror pass fills them.
fn tile_rows_lower(
    xs: &Dataset,
    lanes: &[f64],
    gamma: f64,
    rows: std::ops::Range<usize>,
    slab: &mut [f64],
) {
    let d = xs.n_cols();
    let (r0, r1) = (rows.start, rows.end);
    let l = slab.len() / (r1 - r0);
    let max_block = (r1 - 1) / LANES;
    for b in 0..=max_block {
        let j0 = b * LANES;
        let block = &lanes[b * d * LANES..(b + 1) * d * LANES];
        // Rows above the block's first column don't need it (j ≤ i).
        for i in r0.max(j0)..r1 {
            let out = rbf_lanes(xs.row(i), block, gamma);
            let row_off = (i - r0) * l;
            let j_end = (j0 + LANES).min(i + 1);
            for (lane, j) in (j0..j_end).enumerate() {
                slab[row_off + j] = out[lane];
            }
        }
    }
}

/// Blocked construction of the dense Gram matrix over the rows packed in
/// the lane layout (`compiled::pack`): the rows are walked in
/// L1-sized tiles of `TILE_ROWS`, each row evaluates `LANES` kernel
/// columns at once with `compiled::rbf_lanes` — the function the
/// lane tree serves with — and writes its lower-triangle entries **in
/// place**; a second tiled pass mirrors the strict upper triangle. One
/// thread does all of it: a fit is serial, and the fits around it are what
/// fan out (DESIGN.md §7).
///
/// Every entry is produced by the ascending-feature fold of that function,
/// making this bit-identical to evaluating each pair directly (the tests
/// hold it to that reference). `Kernel` has one
/// family, RBF, so the matrix depends on the resolved `gamma` alone.
pub fn compute_gram_blocked(xs: &Dataset, _kernel: Kernel, gamma: f64) -> Vec<f64> {
    let l = xs.n_rows();
    let mut k = vec![0.0f64; l * l];
    if l == 0 {
        return k;
    }
    let d = xs.n_cols();
    let lanes = pack(l, d, |i, kf| xs.row(i)[kf]);
    for (t, slab) in k.chunks_mut(TILE_ROWS * l).enumerate() {
        let r0 = t * TILE_ROWS;
        let rows = r0..r0 + slab.len() / l;
        tile_rows_lower(xs, &lanes, gamma, rows, slab);
    }
    // Mirror the strict upper triangle from the lower one, `MIR`-square
    // tiles at a time so both the reads and the transposed writes stay
    // cache-resident within each tile (the naive `k[j*l+i] = v` store
    // during construction walks the matrix at a column stride — 4 KiB at
    // SMO sizes — and costs more than the kernel arithmetic).
    const MIR: usize = 64;
    for jb in (0..l).step_by(MIR) {
        let j_hi = (jb + MIR).min(l);
        for ib in (jb..l).step_by(MIR) {
            for i in ib..(ib + MIR).min(l) {
                // Row `i`'s entries left of the diagonal become column
                // `i` of the rows above it.
                let (above, row_i) = k.split_at_mut(i * l);
                for j in jb..j_hi.min(i) {
                    above[j * l + i] = row_i[j];
                }
            }
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the blocked build is held to: the kernel evaluated
    /// once per unordered row pair, mirrored across the diagonal.
    fn compute_gram(xs: &Dataset, kernel: Kernel, gamma: f64) -> Vec<f64> {
        let l = xs.n_rows();
        let mut k = vec![0.0f64; l * l];
        for i in 0..l {
            for j in 0..=i {
                let v = kernel.eval(xs.row(i).iter().copied(), xs.row(j), gamma);
                k[i * l + j] = v;
                k[j * l + i] = v;
            }
        }
        k
    }

    fn toy() -> Dataset {
        Dataset::from_rows((0..8).map(|i| vec![i as f64, (i * i) as f64]).collect())
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {at}");
        }
    }

    const RBF: Kernel = Kernel::Rbf { gamma: 0.0 };

    /// The hazard of the hash-keyed cache that once stood here: FNV over
    /// whole 64-bit words cancels an even number of sign-bit flips, so
    /// these datasets shared a key. Each must get its own matrix.
    #[test]
    fn datasets_differing_in_two_signs_get_their_own_matrices() {
        let xs = toy();
        let flip = |cells: &[(usize, usize)]| {
            let mut rows: Vec<Vec<f64>> = xs.rows().map(<[f64]>::to_vec).collect();
            for &(i, j) in cells {
                rows[i][j] = -rows[i][j];
            }
            Dataset::from_rows(rows)
        };
        let two_cells = flip(&[(1, 0), (5, 1)]);
        let column: Vec<(usize, usize)> = (0..xs.n_rows()).map(|i| (i, 0)).collect();
        let negated_column = flip(&column);
        let gamma = 0.05;
        let want = compute_gram(&xs, RBF, gamma);
        assert_ne!(want, compute_gram(&two_cells, RBF, gamma));
        for round in 0..2 {
            for (name, data) in [
                ("original", &xs),
                ("two cells", &two_cells),
                ("negated column", &negated_column),
            ] {
                assert_bits_eq(
                    &solve_gram(data, gamma),
                    &compute_gram(data, RBF, gamma),
                    &format!("{name}, round {round}"),
                );
            }
        }
    }

    #[test]
    fn clear_resets_the_count_of_matrices_built() {
        // The counter is process-wide and other tests fit side by side, so
        // it can only be read as at least what this thread built.
        let xs = toy();
        let before = GramCache::global().stats();
        drop(solve_gram(&xs, 0.5));
        drop(solve_gram(&xs, 0.5));
        let after = GramCache::global().stats();
        assert_eq!(after.hits, 0);
        assert!(after.misses >= before.misses + 2);
        GramCache::global().clear();
        assert!(GramCache::global().stats().misses < after.misses);
    }

    #[test]
    fn gram_matrix_is_symmetric_and_correct() {
        let xs = toy();
        let l = xs.n_rows();
        let gamma = 0.05;
        let k = compute_gram(&xs, RBF, gamma);
        for i in 0..l {
            for j in 0..l {
                let sq: f64 = xs
                    .row(i)
                    .iter()
                    .zip(xs.row(j))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                assert_eq!(k[i * l + j].to_bits(), k[j * l + i].to_bits());
                assert!((k[i * l + j] - (-gamma * sq).exp()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn blocked_gram_matches_direct_bitwise() {
        // Shapes straddling the lane width and the tile height.
        for (l, d) in [(1, 1), (3, 2), (7, 5), (8, 8), (9, 3), (20, 17), (70, 4)] {
            let rows: Vec<Vec<f64>> = (0..l)
                .map(|i| {
                    (0..d)
                        .map(|j| ((i * 31 + j * 7) as f64 * 0.73).sin())
                        .collect()
                })
                .collect();
            let xs = Dataset::from_rows(rows);
            let direct = compute_gram(&xs, RBF, 0.4);
            let blocked = compute_gram_blocked(&xs, RBF, 0.4);
            for (a, b) in direct.iter().zip(&blocked) {
                assert_eq!(a.to_bits(), b.to_bits(), "l={l} d={d}");
            }
        }
    }
}
