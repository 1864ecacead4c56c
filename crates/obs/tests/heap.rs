//! The counting allocator's own contract: what each `GlobalAlloc` call
//! does to live bytes, the peak and the event count. Its own binary
//! with one test, because the counters are process-wide.

use cloudscope_obs::heap::{
    allocations, allocations_during, live_bytes, peak_bytes, peak_during, reset_peak, CountingAlloc,
};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: usize = 1 << 20;

#[test]
fn counters_follow_alloc_realloc_and_free() {
    // alloc: one event, the bytes go live, the peak sees them.
    let base = reset_peak();
    let (block, events) = allocations_during(|| black_box(Vec::<u8>::with_capacity(MIB)));
    assert_eq!(events, 1);
    assert_eq!(live_bytes(), base + MIB);
    assert_eq!(peak_bytes(), base + MIB);

    // realloc: one event; the old block counts until the new one is in,
    // so the peak holds both, and live then holds the new size only.
    let mut block = block;
    let (_, events) = allocations_during(|| block.reserve_exact(2 * MIB));
    assert_eq!(events, 1);
    assert_eq!(live_bytes(), base + 2 * MIB);
    assert_eq!(peak_bytes(), base + 3 * MIB);

    // dealloc: the bytes leave, the peak stays until it is reset.
    drop(block);
    assert_eq!(live_bytes(), base);
    assert_eq!(peak_bytes(), base + 3 * MIB);
    assert_eq!(reset_peak(), base);

    // alloc_zeroed counts like alloc; peak_during measures above entry.
    let before = allocations();
    let (zeroed, added) = peak_during(|| black_box(vec![0u8; 4 * MIB]));
    assert_eq!(allocations() - before, 1);
    assert_eq!(added, 4 * MIB);
    drop(zeroed);
    assert_eq!(live_bytes(), base);
}
