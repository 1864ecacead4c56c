//! The workspace's counting global allocator: live heap bytes, a
//! resettable peak of them, and a count of allocation events, for test
//! binaries that pin what a piece of code allocates. A binary opts in
//! with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cloudscope_obs::heap::CountingAlloc = cloudscope_obs::heap::CountingAlloc;
//! ```
//!
//! Unlike an RSS probe the numbers are deterministic and immune to the
//! system allocator keeping freed pages: live bytes are the sizes
//! requested and not yet freed. The counters are process-wide, so a
//! binary that reads them holds one `#[test]`; a second test running
//! beside it would count into the same numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

// Statistics only: none of these publishes other data, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Forwards every call to [`System`] and counts what it hands out.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

/// One allocation event that made `bytes` live.
fn allocated(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    /// Counted as a moving reallocation: one event, and the new block is
    /// live before the old one leaves, so the peak sees both — what the
    /// trait's default alloc-copy-free would record.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            allocated(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

/// Heap bytes allocated and not yet freed.
#[must_use]
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// The most live bytes seen since the last [`reset_peak`].
#[must_use]
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) so far.
#[must_use]
pub fn allocations() -> usize {
    ALLOCATIONS.load(Relaxed)
}

/// Starts a new peak window at the current live bytes, and returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Runs `f` and returns its value with the peak live bytes it added
/// above the live bytes at entry.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = reset_peak();
    let value = f();
    (value, peak_bytes().saturating_sub(base))
}

/// Runs `f` and returns its value with the allocation events made while
/// it ran (by any thread: run nothing else meanwhile).
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = allocations();
    let value = f();
    (value, allocations() - before)
}
