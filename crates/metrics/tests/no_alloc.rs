//! Recording into an instrument whose name was seen before must not
//! allocate: the compressor and the fleet record several counters and
//! histogram samples per frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dbgc_metrics::Collector;

thread_local! {
    /// Allocations made by this thread (const-initialized, so reading it
    /// from inside the allocator never allocates).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct CountingAlloc;

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no heap memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn recording_under_a_known_name_does_not_allocate() {
    let c = Collector::new();
    let record = |i: u64| {
        c.incr("net.frames_intact", 1);
        c.add_bytes("dense", i);
        c.record("net.frame_bytes", i);
        c.set_gauge("fleet.conns_open", i as f64);
    };
    record(0); // first use registers each name
    let before = ALLOCS.with(Cell::get);
    for i in 1..=100 {
        record(i);
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "steady-state recording allocated");
    let snap = c.snapshot();
    assert_eq!(snap.counters["net.frames_intact"], 101);
    assert_eq!(snap.bytes["dense"], 5050);
}
