//! Kernel (Gram) matrices for the SMO solver: built by a blocked,
//! lane-padded kernel, alive exactly as long as the fit that reads them.
//!
//! A solve leases its dense `l × l` matrix from [`GramCache`] and hands
//! the buffer back when it ends, so the next fit builds into memory that
//! is already mapped instead of asking the allocator for another matrix.
//! Nothing else is retained: an idle buffer exists only because a fit
//! returned it, so there are never more of them than fits that once ran
//! at the same time — at most one per thread — and a training leaves
//! behind one matrix per thread however many it built.
//!
//! A returned buffer still holds the last matrix and a copy of the scaled
//! rows it was built from. A fit whose rows and resolved gamma equal that
//! copy **bit for bit** takes the matrix as it is (the start-
//! and run-time heads of a sub-plan model train on one feature matrix,
//! and stratified folds can standardise a per-template constant to the
//! same column); nothing is ever handed back on a hash, so no two
//! datasets can be served each other's matrix.
//!
//! Construction is the blocked, lane-padded SoA kernel
//! [`compute_gram_blocked`]: the lower triangle is walked in L1-sized
//! row tiles written in place and each row evaluates 8 kernel columns at
//! once — bit-identical to the direct per-pair [`compute_gram`]. It is
//! plain safe Rust: at the widths forward selection leaves (3–11 columns)
//! a cell is one libm `exp`, which hand-written AVX2 around it has to call
//! lane by lane too, and so measures 0.9–1.1× of this loop (DESIGN.md §7).
//! The build runs on the thread that fits: fits run side by side, nothing
//! inside one fans out.

use crate::dataset::Dataset;
use crate::svr::Kernel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// How often a fit's matrix had to be built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GramCacheStats {
    /// Fits that took an idle matrix built from exactly their input.
    pub hits: usize,
    /// Matrices built.
    pub misses: usize,
}

/// What decides a Gram matrix besides the cells: rows, columns and the
/// resolved gamma's bits.
type Shape = (usize, usize, u64);

/// A Gram matrix and the exact input it was built from.
struct Built {
    /// Row-major copy of the dataset.
    cells: Vec<f64>,
    shape: Shape,
    k: Vec<f64>,
}

impl Built {
    fn is_of(&self, xs: &Dataset, shape: Shape) -> bool {
        // Bits, not `==`: equal means the same input, with no reasoning
        // about which differences a kernel forgives.
        let same_bits = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
        self.shape == shape && self.cells.iter().zip(xs.as_flat()).all(same_bits)
    }
}

/// Where the SMO solver gets its Gram matrix; see the module docs.
#[derive(Default)]
pub struct GramCache {
    /// Buffers between fits, most recently returned last.
    idle: Mutex<Vec<Built>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// One fit's hold on its row-major `l × l` Gram matrix. Dropping it hands
/// the buffer back for the next fit.
pub struct GramLease<'a> {
    home: &'a GramCache,
    /// `Some` until dropped.
    built: Option<Built>,
}

impl std::ops::Deref for GramLease<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.built.as_ref().expect("held until drop").k
    }
}

impl Drop for GramLease<'_> {
    fn drop(&mut self) {
        self.home.idle().extend(self.built.take());
    }
}

impl GramCache {
    /// Creates a cache holding nothing.
    pub fn new() -> GramCache {
        GramCache::default()
    }

    /// The process-wide instance the SMO solver uses.
    pub fn global() -> &'static GramCache {
        static GLOBAL: OnceLock<GramCache> = OnceLock::new();
        GLOBAL.get_or_init(GramCache::new)
    }

    /// A push or a pop leaves the list valid, so a poisoned lock is
    /// recovered.
    fn idle(&self) -> MutexGuard<'_, Vec<Built>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Leases the RBF Gram matrix of `xs` with the resolved `gamma`: an
    /// idle matrix built from exactly this input if there is one, else
    /// [`compute_gram_blocked`] into the most recently returned buffer.
    pub fn gram(&self, xs: &Dataset, gamma: f64) -> GramLease<'_> {
        let l = xs.n_rows();
        let shape = (l, xs.n_cols(), gamma.to_bits());
        let recycled = {
            let mut idle = self.idle();
            if let Some(at) = idle.iter().rposition(|b| b.is_of(xs, shape)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return self.lease(idle.remove(at));
            }
            idle.pop()
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (mut cells, mut k) = recycled.map(|b| (b.cells, b.k)).unwrap_or_default();
        cells.clear();
        cells.extend_from_slice(xs.as_flat());
        // The build writes every entry, so what the buffer held is not
        // cleared first.
        k.resize(l * l, 0.0);
        fill_gram_blocked(xs, gamma, &mut k);
        self.lease(Built { cells, shape, k })
    }

    fn lease(&self, built: Built) -> GramLease<'_> {
        GramLease {
            home: self,
            built: Some(built),
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> GramCacheStats {
        GramCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Frees the idle buffers and resets the counters.
    pub fn clear(&self) {
        self.idle().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Computes the dense Gram matrix directly, evaluating the kernel once per
/// unordered row pair and mirroring across the diagonal: the reference
/// [`compute_gram_blocked`] is compared against.
///
/// Public so tests can compare leased matrices against a fresh computation.
pub fn compute_gram(xs: &Dataset, kernel: Kernel, gamma: f64) -> Vec<f64> {
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

/// Kernel columns evaluated per row — the SoA lane width.
const GRAM_LANES: usize = 8;

/// Rows per L1 tile: one 8-lane × d column block (~2 KiB at d ≈ 30) plus
/// the tile's own row data stay cache-resident while the tile is swept.
const TILE_ROWS: usize = 64;

/// Lane-padded SoA copy of the dataset: block `b` stores rows
/// `8b .. 8b+8` feature-major at `soa[(b*d + k)*8 + lane]`, zero-padding
/// lanes past the last row. Padded lanes compute garbage kernel values
/// that are never written back.
fn pack_soa(xs: &Dataset) -> Vec<f64> {
    let l = xs.n_rows();
    let d = xs.n_cols();
    let blocks = l.div_ceil(GRAM_LANES);
    let mut soa = vec![0.0f64; blocks * d * GRAM_LANES];
    for i in 0..l {
        let (b, lane) = (i / GRAM_LANES, i % GRAM_LANES);
        let row = xs.row(i);
        for (kf, &v) in row.iter().enumerate() {
            soa[(b * d + kf) * GRAM_LANES + lane] = v;
        }
    }
    soa
}

/// Evaluates 8 kernel values `K(row, block-lane)` with one ascending-`k`
/// accumulation per lane — the exact fold order of `Kernel::eval`, so
/// each lane's value is bit-identical to a direct per-pair evaluation.
fn gram_block_eval(ri: &[f64], block: &[f64], gamma: f64, out: &mut [f64; GRAM_LANES]) {
    let mut acc = [0.0f64; GRAM_LANES];
    for (kf, &x) in ri.iter().enumerate() {
        let col = &block[kf * GRAM_LANES..(kf + 1) * GRAM_LANES];
        for lane in 0..GRAM_LANES {
            let diff = x - col[lane];
            acc[lane] += diff * diff;
        }
    }
    for lane in 0..GRAM_LANES {
        out[lane] = (-gamma * acc[lane]).exp();
    }
}

/// Fills one row tile's lower-triangle entries (rows `rows.start..rows.end`,
/// columns `0..=i` per row) directly into `slab` — the row-major window of
/// the output matrix covering exactly those rows. Iteration is column-block
/// outer / row inner so each 8-lane column block is reused across every row
/// of the tile while it sits in L1. Entries right of the diagonal are left
/// untouched; the mirror pass fills them.
fn tile_rows_lower(
    xs: &Dataset,
    soa: &[f64],
    gamma: f64,
    rows: std::ops::Range<usize>,
    slab: &mut [f64],
) {
    let d = xs.n_cols();
    let (r0, r1) = (rows.start, rows.end);
    let l = slab.len() / (r1 - r0);
    let mut out = [0.0f64; GRAM_LANES];
    let max_block = (r1 - 1) / GRAM_LANES;
    for b in 0..=max_block {
        let j0 = b * GRAM_LANES;
        let block = &soa[b * d * GRAM_LANES..(b + 1) * d * GRAM_LANES];
        // Rows above the block's first column don't need it (j ≤ i).
        for i in r0.max(j0)..r1 {
            gram_block_eval(xs.row(i), block, gamma, &mut out);
            let row_off = (i - r0) * l;
            let j_end = (j0 + GRAM_LANES).min(i + 1);
            for (lane, j) in (j0..j_end).enumerate() {
                slab[row_off + j] = out[lane];
            }
        }
    }
}

/// Blocked, lane-padded SoA construction of the same matrix as
/// [`compute_gram`]: the rows are walked in L1-sized tiles of `TILE_ROWS`,
/// each row evaluates `GRAM_LANES` kernel columns at once and writes its
/// lower-triangle entries **in place**; a second tiled pass mirrors the
/// strict upper triangle. One thread does all of it: a fit is serial, and
/// the fits around it are what fan out (DESIGN.md §7).
///
/// Every entry is produced by the same ascending-`k` fold as
/// `Kernel::eval`, making this bit-identical to [`compute_gram`], whose
/// signature it shares. `Kernel` has one family, RBF, so the matrix
/// depends on the resolved `gamma` alone.
pub fn compute_gram_blocked(xs: &Dataset, _kernel: Kernel, gamma: f64) -> Vec<f64> {
    let mut k = vec![0.0f64; xs.n_rows() * xs.n_rows()];
    fill_gram_blocked(xs, gamma, &mut k);
    k
}

/// [`compute_gram_blocked`] into a caller-supplied `l × l` buffer, every
/// entry of which is overwritten.
fn fill_gram_blocked(xs: &Dataset, gamma: f64, k: &mut [f64]) {
    let l = xs.n_rows();
    assert_eq!(k.len(), l * l, "Gram buffer is not {l} x {l}");
    if l == 0 {
        return;
    }
    let soa = pack_soa(xs);
    for (t, slab) in k.chunks_mut(TILE_ROWS * l).enumerate() {
        let r0 = t * TILE_ROWS;
        let rows = r0..r0 + slab.len() / l;
        tile_rows_lower(xs, &soa, gamma, rows, slab);
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
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn equal_input_is_a_hit_on_the_returned_buffer() {
        let cache = GramCache::new();
        let xs = toy();
        let first = cache.gram(&xs, 0.5);
        let at = first.as_ptr();
        // While the first fit holds its matrix there is nothing to reuse.
        let concurrent = cache.gram(&xs, 0.5);
        assert_ne!(concurrent.as_ptr(), at);
        assert_eq!(cache.stats(), GramCacheStats { hits: 0, misses: 2 });
        drop(concurrent);
        drop(first);
        let again = cache.gram(&xs, 0.5);
        assert_eq!(again.as_ptr(), at);
        assert_eq!(cache.stats(), GramCacheStats { hits: 1, misses: 2 });
        assert_bits_eq(&again, &compute_gram(&xs, RBF, 0.5), "hit");
    }

    #[test]
    fn another_gamma_or_shape_rebuilds_into_the_same_buffer() {
        let cache = GramCache::new();
        let xs = toy();
        let at = cache.gram(&xs, 0.5).as_ptr();
        let fewer_rows = xs.select_rows(&[0, 1, 2, 3, 4]);
        // A zero-column dataset has no cells to tell two row counts apart.
        let no_cols = Dataset::from_rows(vec![vec![]; 8]);
        let cases = [
            (&xs, 0.25),
            (&fewer_rows, 0.25),
            (&xs, 0.5),
            (&no_cols, 0.5),
            (&no_cols.select_rows(&[0, 1]), 0.5),
        ];
        for (case, (data, gamma)) in cases.into_iter().enumerate() {
            let k = cache.gram(data, gamma);
            assert_bits_eq(&k, &compute_gram(data, RBF, gamma), &format!("case {case}"));
            if k.len() == 64 {
                assert_eq!(k.as_ptr(), at, "case {case} did not recycle the buffer");
            }
        }
        assert_eq!(cache.stats(), GramCacheStats { hits: 0, misses: 6 });
    }

    /// The hazard of the hash-keyed cache this one replaced: FNV over whole
    /// 64-bit words cancels an even number of sign-bit flips, so these
    /// datasets shared a key. Each must get its own matrix.
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
        let cache = GramCache::new();
        let want = compute_gram(&xs, RBF, gamma);
        assert_ne!(want, compute_gram(&two_cells, RBF, gamma));
        for round in 0..2 {
            for (name, data) in [
                ("original", &xs),
                ("two cells", &two_cells),
                ("negated column", &negated_column),
            ] {
                assert_bits_eq(
                    &cache.gram(data, gamma),
                    &compute_gram(data, RBF, gamma),
                    &format!("{name}, round {round}"),
                );
            }
        }
        assert_eq!(cache.stats(), GramCacheStats { hits: 0, misses: 6 });
    }

    #[test]
    fn clear_frees_the_idle_buffers_and_resets_the_counters() {
        let cache = GramCache::new();
        let xs = toy();
        drop(cache.gram(&xs, 0.5));
        assert_eq!(cache.idle().len(), 1);
        cache.clear();
        assert!(cache.idle().is_empty());
        assert_eq!(cache.stats(), GramCacheStats::default());
        // The matrix that was kept is gone with it.
        drop(cache.gram(&xs, 0.5));
        assert_eq!(cache.stats(), GramCacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn idle_buffers_never_outnumber_concurrent_fits() {
        let cache = GramCache::new();
        let xs = toy();
        for round in 0..10 {
            let gamma = 0.1 + round as f64;
            let a = cache.gram(&xs, gamma);
            let b = cache.gram(&xs, gamma);
            drop((a, b));
            assert_eq!(cache.idle().len(), 2, "round {round}");
        }
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
