//! Steady-state allocation counter for the serving path (the lane tree).
//!
//! `predict_into` and the batched `predict_batch_into` perform **zero
//! heap allocations** once their scratch/output buffers have warmed up —
//! also when one `PredictScratch` is shared between single-row and
//! batched calls and between models of different arity (it resizes,
//! retaining capacity). A counting `#[global_allocator]` makes that a
//! hard assertion instead of a doc comment. The whole check lives in one
//! `#[test]` so the process-wide counter never races another test thread.

use ml::compiled::PredictScratch;
use ml::{Dataset, Svr, SvrParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_prediction_allocates_nothing() {
    // Pin to one worker so the batch path cannot spawn threads (thread
    // spawning allocates by design; the serial batched path must not).
    ml::par::set_threads(1);

    let rows: Vec<Vec<f64>> = (0..48)
        .map(|i| vec![i as f64, (i % 5) as f64, (i * 3 % 11) as f64])
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| r[0] * 1.5 + r[1] * r[2] + 3.0)
        .collect();
    let x = Dataset::from_rows(rows.clone());

    let model = Svr::new(SvrParams::default()).fit(&x, &y).expect("fit");

    // Warm up: the scratch's scaled-row buffer grows on first use.
    let mut scratch = PredictScratch::new();
    let mut sink = 0.0;
    for r in &rows {
        sink += model.predict_into(r, &mut scratch);
    }

    let before = allocations();
    for _ in 0..50 {
        for r in &rows {
            sink += model.predict_into(r, &mut scratch);
        }
    }
    assert_eq!(allocations(), before, "single-row predict_into allocated");

    // Batched: once `out` has capacity for the batch, repeat calls
    // must not touch the heap.
    let mut out = Vec::new();
    model.predict_batch_into(&rows, &mut out, &mut scratch);
    let before = allocations();
    for _ in 0..50 {
        model.predict_batch_into(&rows, &mut out, &mut scratch);
    }
    sink += out.iter().sum::<f64>();
    assert_eq!(allocations(), before, "predict_batch_into allocated");

    // One scratch serves single-row and batched calls alternately.
    let before = allocations();
    for r in &rows {
        sink += model.predict_into(r, &mut scratch);
        model.predict_batch_into(&rows[..7], &mut out, &mut scratch);
        sink += out[6];
    }
    assert_eq!(
        allocations(),
        before,
        "interleaved single-row and batched calls allocated"
    );

    // The same scratch shared with a model of another arity: once it
    // has held the wider model's row, switching between the two
    // never reallocates.
    let wide_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| vec![r[0], r[1], r[2], r[0] - r[1], r[2] * 0.5])
        .collect();
    let wide = Svr::new(SvrParams::default())
        .fit(&Dataset::from_rows(wide_rows.clone()), &y)
        .expect("fit");
    let mut wide_out = Vec::new();
    wide.predict_batch_into(&wide_rows, &mut wide_out, &mut scratch);
    let before = allocations();
    for (r, w) in rows.iter().zip(&wide_rows) {
        sink += model.predict_into(r, &mut scratch);
        sink += wide.predict_into(w, &mut scratch);
        model.predict_batch_into(&rows[..6], &mut out, &mut scratch);
        wide.predict_batch_into(&wide_rows[..5], &mut wide_out, &mut scratch);
        sink += out[5] + wide_out[4];
    }
    assert_eq!(
        allocations(),
        before,
        "a scratch shared between arities 3 and 5 allocated"
    );

    // Keep `sink` observable so the predict loops cannot be optimized
    // away in release test runs.
    assert!(sink.is_finite());

    ml::par::set_threads(0);
}
