//! What training leaves on the heap.
//!
//! A Gram matrix is owned by the fit that reads it and freed when the fit
//! returns; nothing is kept between fits (`ml::gram`). So a run of fits on
//! ever-new data must end where it began, without even one matrix, and
//! must never hold more than its first fit did. A counting
//! `#[global_allocator]` makes that a hard assertion: keeping one matrix
//! per thread fails it by 100 352 bytes a thread, and a cache that
//! retains matrices by content by megabytes. The whole check lives in one
//! `#[test]` so the process-wide counters never race another test thread.

use ml::{Dataset, LearnerKind, Svr, SvrParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const ROWS: usize = 112;
const COLS: usize = 4;
const DATASETS: usize = 64;
/// One Gram matrix of the largest fit below.
const MATRIX: usize = ROWS * ROWS * std::mem::size_of::<f64>();
/// Allowance for what is not a matrix: the pool's worker thread, which
/// the first fan-out starts (measured: 0 B at one thread, 139 B at two).
/// Well under one matrix.
const SLACK: usize = 4 << 10;

/// Closed-form rows and target, different for every `which`.
fn dataset(which: usize) -> (Dataset, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..ROWS)
        .map(|i| {
            (0..COLS)
                .map(|k| ((i * (k + 3) + which * 17) as f64 * 0.37).sin() * 10.0 + i as f64 * 0.01)
                .collect()
        })
        .collect();
    let y = rows
        .iter()
        .map(|r: &Vec<f64>| r.iter().sum::<f64>() * 0.3 + (which as f64).cos())
        .collect();
    (Dataset::from_rows(rows), y)
}

/// Runs `fit` on every dataset at `threads` and checks the module-doc
/// bounds.
fn assert_leaves_nothing_behind(what: &str, threads: usize, fit: impl Fn(&Dataset, &[f64])) {
    const { assert!(SLACK < MATRIX) };
    ml::par::set_threads(threads);
    let data: Vec<(Dataset, Vec<f64>)> = (0..DATASETS).map(dataset).collect();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    fit(&data[0].0, &data[0].1);
    let first_peak = PEAK.load(Ordering::Relaxed);
    for (x, y) in &data[1..] {
        fit(x, y);
    }
    let (after, peak) = (LIVE.load(Ordering::Relaxed), PEAK.load(Ordering::Relaxed));
    ml::par::set_threads(0);

    assert!(
        after <= before + SLACK,
        "{what}: {DATASETS} trainings left {} bytes live, allowed {SLACK}",
        after - before
    );
    assert!(
        peak <= first_peak + SLACK,
        "{what}: peak grew {} bytes past the first training's, allowed {SLACK}",
        peak - first_peak
    );
}

#[test]
fn fits_on_fresh_data_leave_no_matrix_behind() {
    let params = SvrParams::default();
    assert_leaves_nothing_behind("Svr::fit", 1, |x, y| {
        Svr::new(params.clone()).fit(x, y).expect("fits");
    });

    let learner = LearnerKind::Svr(params.clone());
    let folds = ml::kfold(ROWS, 5, 1);
    assert_leaves_nothing_behind("cross_validate", 2, |x, y| {
        ml::cv::cross_validate(&learner, x, y, &folds).expect("cross-validates");
    });
}
