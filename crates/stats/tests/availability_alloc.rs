//! `Availability::error` allocates a label's key once, on its first
//! failure, and never again: `report`'s ledgers call it once per failed
//! record, and an owned key per call would be an allocation per error.
//!
//! One test function only: the counter is global, so parallel test
//! threads would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use edns_stats::{Availability, AvailabilityLedger};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn repeated_error_labels_allocate_once() {
    // 1,000 errors of one label: the label's key is allocated on the
    // first (with the map's first node), never again.
    let mut a = Availability::default();
    let first = allocations(|| a.error("connect_timeout"));
    let rest = allocations(|| {
        for _ in 1..1_000 {
            a.error("connect_timeout");
        }
    });
    println!("1,000 errors of one label: {first} allocations for the first, {rest} after");
    assert!(first <= 2, "the first error allocated {first} times");
    assert_eq!(rest, 0, "999 repeats of one label allocated {rest} times");
    assert_eq!(a.errors["connect_timeout"], 1_000);

    // The ledger allocates a group's key on its first use only, too.
    let mut ledger = AvailabilityLedger::new();
    ledger.success("dns.google");
    ledger.error("dns.google", "query_timeout");
    let repeats = allocations(|| {
        for _ in 0..1_000 {
            ledger.success("dns.google");
            ledger.error("dns.google", "query_timeout");
        }
    });
    assert_eq!(
        repeats, 0,
        "1,000 repeats in a ledger allocated {repeats} times"
    );
    assert_eq!(ledger.get("dns.google").unwrap().total(), 2_002);
}
