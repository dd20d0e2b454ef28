//! Proves the campaign hot path is allocation-free per record after
//! warm-up: building a `ProbeRecord` from interned labels, streaming it
//! as a JSON line into a pre-grown buffer, reading that line back (retry
//! accounting included), and folding it into an existing metrics cell
//! must not touch the heap.
//!
//! The counter counts the measuring thread only: the test harness's own
//! thread allocates while it prints, at a moment of its choosing, and a
//! budget of exactly zero has no room for that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use measure::{
    observe_record, ProbeErrorKind, ProbeOutcome, ProbeRecord, ProbeTimings, Protocol, RetryInfo,
};
use netsim::{SimDuration, SimTime};
use obs::{Label, MetricsRegistry};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread inside `allocations_during`.
    /// Const-initialised and without a destructor, so reading it never
    /// allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn timings() -> ProbeTimings {
    ProbeTimings::from_legs(
        SimDuration::from_micros(120),
        SimDuration::from_micros(9_300),
        SimDuration::from_micros(14_800),
        SimDuration::from_micros(21_400),
        SimDuration::from_micros(2_100),
        SimDuration::from_micros(90),
    )
}

fn make_record(vantage: Label, resolver: Label, domain: Label, ts_ms: u64) -> ProbeRecord {
    ProbeRecord::new(
        SimTime::ZERO + SimDuration::from_millis(ts_ms),
        vantage,
        resolver,
        netsim::Region::NorthAmerica,
        true,
        domain,
        Protocol::DoH,
        ProbeOutcome::Success {
            timings: timings(),
            cache_hit: false,
            site: 0,
        },
        Some(SimDuration::from_micros(8_400)),
    )
}

#[test]
fn record_build_serialize_and_observe_are_allocation_free() {
    // Intern every label and warm all lazy statics (interner table,
    // protocol label cache, float formatting) outside the measurement.
    let vantage = Label::intern("alloc-test-vantage");
    let resolver = Label::intern("alloc-test-resolver");
    let domain = Label::intern("alloc-test-domain.example");
    let mut buf = String::with_capacity(16 * 1024);
    let mut registry = MetricsRegistry::new();
    {
        let warm = make_record(vantage, resolver, domain, 1);
        warm.write_json_line(&mut buf);
        observe_record(&mut registry, &warm);
        buf.clear();
    }

    let live = allocations_during(|| drop(std::hint::black_box(Box::new(0u8))));
    assert_eq!(live, 1, "the counter sees this thread's allocations");

    // Construction: labels are Copy handles, so building a record is pure
    // stack work (the record owns no heap data at all).
    let construct = allocations_during(|| {
        for i in 0..100u64 {
            let r = make_record(vantage, resolver, domain, i);
            std::hint::black_box(&r);
        }
    });
    assert_eq!(
        construct, 0,
        "ProbeRecord construction allocated {construct} times per 100 records"
    );

    // Serialization: streaming into a warmed, pre-grown buffer.
    let record = make_record(vantage, resolver, domain, 42);
    let serialize = allocations_during(|| {
        for _ in 0..100 {
            buf.clear();
            record.write_json_line(&mut buf);
        }
    });
    assert!(!buf.is_empty());
    assert_eq!(
        serialize, 0,
        "streaming JSONL serialization allocated {serialize} times per 100 records"
    );

    // Reading the line back with the strict reader: labels are already
    // interned and a success record owns no heap data.
    let mut read = None;
    let parse = allocations_during(|| {
        for _ in 0..100 {
            read = ProbeRecord::read_json_line(&buf);
        }
    });
    assert_eq!(read.as_ref(), Some(&record));
    assert_eq!(
        parse, 0,
        "reading a JSONL line back allocated {parse} times per 100 records"
    );

    // Retry accounting is inline: the lines of a recovered success and of
    // an exhausted failure write and read back without the heap too.
    let burned = [ProbeErrorKind::ConnectTimeout, ProbeErrorKind::RateLimited];
    let recovered = record.with_retry(RetryInfo::new(&burned, SimDuration::from_secs(10)));
    let mut exhausted = recovered.with_retry(RetryInfo::new(&burned, SimDuration::ZERO));
    exhausted.outcome = ProbeOutcome::Failure {
        kind: ProbeErrorKind::QueryTimeout,
        elapsed: SimDuration::from_secs(15),
    };
    let retried = [recovered, exhausted];
    let mut reads = [None; 2];
    let retry = allocations_during(|| {
        for _ in 0..100 {
            for (r, read) in retried.iter().zip(&mut reads) {
                buf.clear();
                r.write_json_line(&mut buf);
                *read = ProbeRecord::read_json_line(&buf);
            }
        }
    });
    assert_eq!(reads, retried.map(Some));
    assert_eq!(
        retry, 0,
        "writing and reading retried lines allocated {retry} times per 200 records"
    );

    // Metrics: the record's cell and error entries already exist, so each
    // observation is hash lookups and counter bumps only.
    let observe = allocations_during(|| {
        for _ in 0..100 {
            observe_record(&mut registry, &record);
        }
    });
    assert_eq!(
        observe, 0,
        "metrics observation allocated {observe} times per 100 records"
    );
}
