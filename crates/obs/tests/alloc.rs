//! The registry's recording-path allocation contract, enforced: after
//! registration, `Counter::inc`/`add`, `Gauge::set` and
//! `Histogram::record` perform **zero** heap allocations — the property
//! that lets the simulation kernel carry metrics inside the strict
//! zero-allocations-per-cycle bound of `tests/alloc_steady_state.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed
// atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn recording_allocates_nothing_after_registration() {
    // Registration (cold path) may allocate.
    let counter = uvllm_obs::registry().counter("test.alloc.counter");
    let gauge = uvllm_obs::registry().gauge("test.alloc.gauge");
    let histogram = uvllm_obs::registry().histogram("test.alloc.histogram");

    // Recording (hot path) must not: 100k mixed operations, zero heap.
    // The counting allocator is process-global, so a libtest harness
    // thread waking up mid-window can register a stray allocation that
    // has nothing to do with the recording path. Retrying the window a
    // few times filters that noise without weakening the contract: an
    // allocating hot path adds ≥600k to EVERY window and still fails.
    let mut delta = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        for i in 0..100_000u64 {
            counter.inc();
            counter.add(i);
            gauge.set(i as i64);
            gauge.add(-1);
            histogram.record(i);
            histogram.record(u64::MAX - i);
        }
        delta = allocations() - before;
        if delta == 0 {
            break;
        }
    }
    assert_eq!(
        delta, 0,
        "{delta} heap allocations across 600k metric records \
         (the recording path must be allocation-free)"
    );
    assert!(counter.get() > 0 && histogram.count() >= 200_000);
}
