//! The block threads of [`CsrMatrix::spmm_map_blocks`] allocate nothing.
//!
//! A thread that calls `malloc` gets a glibc arena of its own, so the
//! blocks run only [`CsrMatrix::spmm_rows_into`] and the mapped function,
//! in place, in the slice the calling thread handed them. A counting
//! `#[global_allocator]` tallies every allocation (`alloc`, `alloc_zeroed`
//! and `realloc` each count one) made on any thread but the measuring one
//! while a window is open. The standard library's own thread start-up may
//! allocate on the new thread, so the count is compared with a baseline:
//! the same number of scoped threads running an empty closure.

#![allow(clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pup_tensor::{CsrMatrix, Matrix};

thread_local! {
    static MEASURER: Cell<bool> = const { Cell::new(false) };
}

static WINDOW: AtomicBool = AtomicBool::new(false);
static OTHER_THREAD_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts allocations made off the
/// measuring thread while a window is open.
struct Counting;

fn tick() {
    // `try_with`: a `const` thread-local without a destructor never fails,
    // even during thread teardown; this only keeps the allocator panic-free.
    let measurer = MEASURER.try_with(Cell::get).unwrap_or(false);
    if WINDOW.load(Ordering::SeqCst) && !measurer {
        OTHER_THREAD_ALLOCS.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the flags are atomics and a `const` thread-local `Cell`, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made off this thread while `f` runs.
fn other_thread_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    MEASURER.with(|m| m.set(true));
    let before = OTHER_THREAD_ALLOCS.load(Ordering::SeqCst);
    WINDOW.store(true, Ordering::SeqCst);
    let out = f();
    WINDOW.store(false, Ordering::SeqCst);
    (OTHER_THREAD_ALLOCS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn block_threads_allocate_no_more_than_empty_threads() {
    let rows = 301;
    let triplets: Vec<(usize, usize, f64)> = (0..rows)
        .flat_map(|r| (0..3).map(move |k| (r, (r * 5 + k * 11) % rows, 1.0 / (1 + k + r) as f64)))
        .collect();
    let a = CsrMatrix::from_triplets(rows, rows, &triplets);
    let h = Matrix::from_fn(rows, 16, |r, c| ((r * 16 + c) as f64 * 0.01).sin());
    let want = a.spmm(&h).map(f64::tanh);
    for blocks in [2, 3, 4] {
        let (empty, ()) = other_thread_allocs(|| {
            std::thread::scope(|s| {
                for _ in 1..blocks {
                    s.spawn(|| {});
                }
            });
        });
        let (blocked, got) = other_thread_allocs(|| a.spmm_map_blocks(&h, blocks, f64::tanh));
        assert_eq!(got, want, "{blocks} blocks");
        assert_eq!(blocked, empty, "{blocks} blocks: the block threads allocated");
    }
}
