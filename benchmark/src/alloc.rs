//! Counting global allocator for the traced run: live-heap bytes and a
//! resettable high-water mark, so every span can report the peak live
//! heap reached while it was open. Switched off (one relaxed load per
//! call) in the untraced run that measures the end-to-end metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The allocator installed in the benchmark binary.
pub struct CountingAlloc;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
// Signed: blocks allocated before counting starts may be freed after.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as isize, Relaxed);
            }
        }
        p
    }
}

/// Starts or pauses counting. Start it before the first large
/// allocation of the section whose live heap is wanted. Blocks freed
/// while paused stay counted as live, so figures read after a pause
/// are not meaningful.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Restarts the high-water mark at the current live size and returns
/// the mark it replaces, for [`close_window`] to fold back in.
pub fn open_window() -> isize {
    PEAK.swap(LIVE.load(Relaxed), Relaxed)
}

/// Ends the window opened by the matching [`open_window`]: returns the
/// peak live bytes seen inside it and restores the enclosing window's
/// mark (which must also cover this one).
pub fn close_window(outer: isize) -> u64 {
    let inner = PEAK.fetch_max(outer, Relaxed);
    u64::try_from(inner).unwrap_or(0)
}
