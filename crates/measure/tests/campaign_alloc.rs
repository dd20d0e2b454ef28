//! The per-probe allocation budget of campaign generation: what a probe
//! adds to a campaign's allocation count once its pair is set up.
//!
//! A campaign is generated at N and at 2N rounds; per-pair set-up
//! (resolver instance, wire templates, RNG stream, the pre-sized record
//! vector) costs the same number of allocations at both sizes, so the
//! difference divided by the extra probes is the steady-state cost of a
//! probe. Every flavour stays within a quarter of an allocation (new
//! response shapes and HTTP framings, amortised): plain, load × session,
//! and the default fault plan on top, whose failure records and retried
//! attempts keep their accounting inline in the record.
//!
//! One test function only: the allocation counter is global, so parallel
//! test threads would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use measure::{Campaign, CampaignConfig, LoadModel, SessionConfig};

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

const SEED: u64 = 42;
const ROUNDS: u32 = 40;

/// (allocations, probes) of generating `config`'s campaign on one thread.
fn generation_cost(config: CampaignConfig) -> (u64, u64) {
    let campaign = Campaign::new(config);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let generated = campaign.generate(1);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let probes = generated.record_count() as u64;
    assert_eq!(probes, campaign.probe_count() as u64);
    (allocations, probes)
}

/// Allocations per extra probe between `build(ROUNDS)` and
/// `build(2 * ROUNDS)`.
fn per_probe(label: &str, build: impl Fn(u32) -> CampaignConfig) -> f64 {
    let (small_allocs, small_probes) = generation_cost(build(ROUNDS));
    let (large_allocs, large_probes) = generation_cost(build(2 * ROUNDS));
    let extra_probes = large_probes - small_probes;
    assert!(extra_probes > 0);
    let per_probe = large_allocs.saturating_sub(small_allocs) as f64 / extra_probes as f64;
    println!(
        "{label}: {per_probe:.3} allocations/probe \
         ({small_allocs} at {small_probes} probes, {large_allocs} at {large_probes})"
    );
    per_probe
}

#[test]
fn a_probe_stays_within_its_allocation_budget() {
    // Warm up lazy statics (catalog tables, the label interner) outside
    // the measurement.
    generation_cost(CampaignConfig::quick(SEED, 1));

    let plain = |rounds| CampaignConfig::quick(SEED, rounds);
    let load_session = |rounds| {
        CampaignConfig::quick(SEED, rounds)
            .with_load(LoadModel::standard(SEED).with_multiplier(2.0))
            .with_session(SessionConfig::interleaved(0.3))
    };
    let faulted = |rounds| load_session(rounds).with_default_faults();

    let plain = per_probe("plain DoH", plain);
    let load_session = per_probe("load x2 + interleaved sessions", load_session);
    let faulted = per_probe("load x2 + sessions + default faults", faulted);

    assert!(plain <= 0.25, "plain DoH: {plain:.3} allocations/probe");
    assert!(
        load_session <= 0.25,
        "load x session: {load_session:.3} allocations/probe"
    );
    assert!(faulted <= 0.25, "faulted: {faulted:.3} allocations/probe");
}
