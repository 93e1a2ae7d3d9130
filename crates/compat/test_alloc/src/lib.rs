//! The one `GlobalAlloc` wrapper the workspace's test and bench
//! binaries install to watch the allocator: a binary that wants the
//! counts declares
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: test_alloc::CountingAlloc = test_alloc::CountingAlloc;
//! ```
//!
//! and reads [`thread_calls`], [`total_calls`] or [`live_bytes`]. In a
//! binary that does not install it, all three stay 0. Every method
//! forwards to [`System`] unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`], counting on the way.
pub struct CountingAlloc;

thread_local! {
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}
// Statistics: they publish no other data, so `Relaxed`.
static TOTAL_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// `alloc` + `alloc_zeroed` + `realloc` calls made by the calling
/// thread — what a test running beside the harness's other test
/// threads reads.
pub fn thread_calls() -> u64 {
    THREAD_CALLS.with(Cell::get)
}

/// `alloc` + `alloc_zeroed` + `realloc` calls made by every thread.
pub fn total_calls() -> u64 {
    TOTAL_CALLS.load(Ordering::Relaxed)
}

/// Bytes currently allocated (requested sizes, every thread).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// One allocating call that takes `size` bytes.
fn took(size: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
    TOTAL_CALLS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

fn gave_back(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// a const-initialised thread-local `Cell` and two statics, none of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        took(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        took(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        took(new_size);
        gave_back(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        gave_back(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}
