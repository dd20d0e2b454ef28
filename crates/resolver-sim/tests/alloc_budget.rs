//! The server half of a probe allocates nothing in steady state: once a
//! resolver has seen the probed names, `handle_query_loaded` runs without
//! touching the heap whether the answer is a fresh cache hit, an expired
//! entry refreshed by background traffic, or a real miss that walks the
//! hierarchy and pays the upstream round trips.
//!
//! The counter counts the measuring thread only: the test harness's own
//! thread allocates while it prints, at a moment of its choosing, and a
//! budget of exactly zero has no room for that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use dns_wire::{Name, RecordType};
use netsim::geo::cities;
use netsim::{SimDuration, SimRng, SimTime};
use resolver_sim::{AuthorityTree, ResolverServer, ServerProfile};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread for the measured loop. Const-initialised
    /// and without a destructor, so reading it never allocates.
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

const ROUNDS: u64 = 200;

/// What a steady-state scenario observed, besides its allocation count.
#[derive(Default)]
struct Seen {
    queries: u64,
    hits: u64,
    misses_with_upstream_time: u64,
}

/// Warms a frontend with one round over `names`, then counts the
/// allocations of `ROUNDS` more rounds spaced `gap` apart.
fn steady_state(cache_warmth: f64, gap: SimDuration, names: &[Name]) -> (u64, Seen) {
    let auth = AuthorityTree::standard();
    let mut profile = ServerProfile::midsize();
    profile.cache_warmth = cache_warmth;
    let mut server = ResolverServer::new(cities::FRANKFURT, profile);
    let mut rng = SimRng::from_seed(17);
    let mut round = |server: &mut ResolverServer, at: SimTime, seen: &mut Seen| {
        for name in names {
            let (time, res) =
                server.handle_query_loaded(name, RecordType::A, &auth, at, 1.5, 40.0, &mut rng);
            assert!(!res.records.is_empty(), "{name} must resolve");
            seen.queries += 1;
            seen.hits += u64::from(res.cache_hit);
            if !res.cache_hit {
                assert!(res.upstream_time > SimDuration::ZERO && time > res.upstream_time);
                seen.misses_with_upstream_time += 1;
            }
        }
    };
    MEASURING.with(|m| m.set(true));
    round(&mut server, SimTime::ZERO, &mut Seen::default());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        before > 0,
        "the warm-up inserts cache keys: the counter is live"
    );

    let mut seen = Seen::default();
    for i in 1..=ROUNDS {
        let at = SimTime::ZERO + SimDuration::from_nanos(gap.as_nanos() * i);
        round(&mut server, at, &mut seen);
    }
    MEASURING.with(|m| m.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, seen)
}

#[test]
fn steady_state_queries_do_not_allocate() {
    let names: Vec<Name> = ["google.com", "amazon.com", "wikipedia.com"]
        .iter()
        .map(|d| Name::parse(d).unwrap())
        .collect();

    // Fresh hit: every round falls inside the shortest TTL (60 s).
    let (allocs, seen) = steady_state(1.0, SimDuration::from_millis(100), &names);
    assert_eq!(seen.hits, seen.queries, "every query should hit");
    println!(
        "fresh hit: {allocs} allocations over {} queries",
        seen.queries
    );
    assert_eq!(allocs, 0, "fresh hits must not allocate");

    // Expired-entry refresh: rounds are 18 min apart (the quick profile's
    // interval), past every TTL, so background traffic refetches each
    // entry in place; across 200 rounds the 48 h TLD referral lapses too.
    let (allocs, seen) = steady_state(1.0, SimDuration::from_secs(18 * 60), &names);
    assert_eq!(
        seen.hits, seen.queries,
        "pre-warm should refresh every entry"
    );
    println!(
        "expired refresh: {allocs} allocations over {} queries",
        seen.queries
    );
    assert_eq!(allocs, 0, "refreshing an expired entry must not allocate");

    // Pre-warm skipped: the probe's own query is the one that finds the
    // entry expired, walks the hierarchy and samples the round trips.
    let (allocs, seen) = steady_state(0.0, SimDuration::from_secs(18 * 60), &names);
    assert_eq!(seen.hits, 0);
    assert_eq!(seen.misses_with_upstream_time, seen.queries);
    println!(
        "real miss: {allocs} allocations over {} queries",
        seen.queries
    );
    assert_eq!(allocs, 0, "a timed miss on a known name must not allocate");
}
