//! The counting `#[global_allocator]` of the root's three allocation
//! suites (`model_storage`, `prediction_allocations` and
//! `training_allocations`), which each `mod counting_alloc;` it into a
//! binary of their own: the counters are process-wide, so the test
//! harness of a shared binary would move them between tests.
//!
//! It counts each thread's blocks allocated, the bytes and blocks it has
//! live (allocated less freed), and the bytes the whole process has live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

struct CountingAlloc;

thread_local! {
    /// Blocks this thread allocated.
    pub static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed.
    pub static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Blocks this thread allocated less the blocks it freed.
    pub static LIVE_BLOCKS: Cell<isize> = const { Cell::new(0) };
}

/// Bytes the process allocated less the bytes it freed, on any thread.
pub static PROCESS_LIVE: AtomicIsize = AtomicIsize::new(0);

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Adds `blocks` (negative when freed) to this thread's live blocks.
fn count_block(blocks: isize) {
    let _ = LIVE_BLOCKS.try_with(|live| live.set(live.get() + blocks));
}

/// Adds `bytes` (negative when freed) to this thread's and the process's
/// live bytes.
fn count_bytes(bytes: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
    PROCESS_LIVE.fetch_add(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_block(1);
        count_bytes(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_block(1);
        count_bytes(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_bytes(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_block(-1);
        count_bytes(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
