//! The peak live heap of an in-memory campaign, as a multiple of its
//! record bytes (`probe_count() × size_of::<ProbeRecord>()`).
//!
//! Generation fills one campaign-sized record buffer and assembly
//! permutes it in place, so `run()` holds each record once: its peak is
//! the records plus the slot table, the permutation and the per-pair
//! set-up, within a quarter of the record bytes. With worker threads, the
//! pairs in flight and those waiting in the reorder buffer come on top,
//! within half. A gather into a second buffer beside the first shows as
//! twice the record bytes.
//!
//! One test function only: the counters are global, so parallel test
//! threads would pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use measure::{Campaign, CampaignConfig, CampaignResult, ProbeRecord, SessionConfig};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const SEED: u64 = 42;
const ROUNDS: u32 = 20;

/// Peak live heap while `run` runs `campaign`, over its record bytes.
fn peak_ratio(campaign: &Campaign, run: impl Fn(&Campaign) -> CampaignResult) -> f64 {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = run(campaign);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(result.records.len(), campaign.probe_count());
    let record_bytes = campaign.probe_count() * std::mem::size_of::<ProbeRecord>();
    peak as f64 / record_bytes as f64
}

#[test]
fn an_in_memory_campaign_holds_each_record_once() {
    // Warm up lazy statics (catalog tables, the label interner) outside
    // the measurement.
    Campaign::new(CampaignConfig::quick(SEED, 1)).run();

    let configs = [
        ("plain DoH", CampaignConfig::quick(SEED, ROUNDS)),
        (
            "default faults + interleaved sessions",
            CampaignConfig::quick(SEED, ROUNDS)
                .with_default_faults()
                .with_session(SessionConfig::interleaved(0.3)),
        ),
    ];
    for (label, config) in configs {
        let campaign = Campaign::new(config);
        let serial = peak_ratio(&campaign, Campaign::run);
        let parallel = peak_ratio(&campaign, |c| c.run_parallel(3));
        println!(
            "{label}: {} records of {} B; peak live heap {serial:.3}x the record bytes \
             serial, {parallel:.3}x with run_parallel(3)",
            campaign.probe_count(),
            std::mem::size_of::<ProbeRecord>(),
        );
        assert!(serial <= 1.25, "{label}: serial peak {serial:.3}x");
        assert!(parallel <= 1.5, "{label}: parallel peak {parallel:.3}x");
    }
}
