//! Proves tracing adds zero per-probe heap allocations: an identically
//! seeded probe is run against a disabled span log and against an enabled
//! pre-allocated one, and both runs must allocate exactly the same number
//! of times.
//!
//! One test function only: the allocation counter is global, so parallel
//! test threads would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dns_wire::Name;
use measure::{ProbeRequest, ProbeTarget, Prober};
use netsim::{SimRng, SimTime};
use obs::SpanLog;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Runs one identically-seeded DoH probe against `log`, returning the
/// allocation count of the probe call alone (setup excluded).
fn probe_allocations(log: &mut SpanLog) -> u64 {
    let entry = catalog::resolvers::find("dns.google").unwrap();
    let mut target = ProbeTarget::from_entry(entry);
    let vantage = measure::vantage::find("ec2-ohio").unwrap();
    let client = vantage.host(0);
    let domain = Name::parse("google.com").unwrap();
    let mut rng = SimRng::derived(7, "alloc:probe");
    let prober = Prober::new();
    let req = ProbeRequest::new(&client, &domain, SimTime::ZERO);
    allocations_during(|| {
        let outcome = prober.probe(&req, &mut target, &mut rng, log).outcome;
        assert!(outcome.is_success(), "probe setup changed: {outcome:?}");
    })
}

#[test]
fn tracing_adds_no_per_probe_allocations() {
    // Warm up lazy statics (catalog tables etc.) outside the measurement.
    probe_allocations(&mut SpanLog::disabled());

    let disabled = probe_allocations(&mut SpanLog::disabled());
    let mut log = SpanLog::with_capacity(64);
    let enabled = probe_allocations(&mut log);

    assert!(log.recorded() > 0, "enabled log saw no events");
    assert_eq!(
        disabled, enabled,
        "tracing must not allocate: disabled run {disabled} vs enabled run {enabled}"
    );
}
