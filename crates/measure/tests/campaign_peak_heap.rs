//! Heap budgets of the in-memory engine and of the per-pair folds.
//!
//! * The peak live heap of an in-memory campaign, as a multiple of its
//!   record bytes (`probe_count() × size_of::<ProbeRecord>()`). Generation
//!   cuts one campaign-sized record buffer into a slice per pair, each
//!   lane writes the pairs it claims in place, and assembly permutes the
//!   buffer in place, so a campaign holds each record once at any thread
//!   count: its peak is the records plus the slot table, the permutation
//!   and the set-up of the pairs in flight, within 15 % of the record
//!   bytes. A gather into a second buffer beside the first shows as twice
//!   the record bytes.
//! * The record buffer is the first allocation `generate` makes. A
//!   process that runs campaigns one after another frees a buffer of
//!   exactly the next one's size; glibc's dynamic mmap threshold has by
//!   then moved blocks that size onto the brk heap, so the freed buffer
//!   is a hole the next fits in. An allocation carved out of that hole
//!   before the buffer is reserved leaves it too small, the buffer
//!   extends the heap instead, and peak RSS grows by a buffer.
//! * The campaign's folds hold no map and no string per cell: folding a
//!   campaign's records into them allocates nothing beyond what folding
//!   no record does, and their health rows' heap is a cell per (resolver,
//!   day) plus a few words per pair.
//! * A sharded run holds no (pair, day) table of day cells: its peak live
//!   heap is within a read buffer per shard, the pairs' aggregate and
//!   metrics cells, the (resolver, day) rows and a stated slack — a (pair,
//!   day) table, at 30 days, would add more than the whole budget.
//! * Assembly's read buffers are sized to a step of the campaign order:
//!   the same campaign in 64 shards peaks at most 48 small buffers (and
//!   their bookkeeping) above its run in 16.
//! * Drift detection reads the (resolver, day) rows where they lie: it
//!   holds its findings and no copy of the rows.
//!
//! The peak and live counters are global, so the tests take turns; the
//! allocation counts are the calling thread's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use std::mem::size_of;

use measure::{
    AggregateCell, Campaign, CampaignConfig, CampaignFolds, CampaignResult, DriftConfig,
    DriftFinding, HealthCell, HealthRow, HealthSeries, ProbeRecord, SessionConfig, ShardedRunner,
};
use obs::CellMetrics;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's allocations, and the bytes it holds.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static HELD: Cell<isize> = const { Cell::new(0) };
    /// The size of this thread's next allocation, once armed with 0.
    static FIRST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn grow(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
    HELD.with(|h| h.set(h.get() + by as isize));
}

fn shrink(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
    HELD.with(|h| h.set(h.get() - by as isize));
}

fn count(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    FIRST.with(|f| {
        if f.get() == Some(0) {
            f.set(Some(size));
        }
    });
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// One test at a time: a campaign running beside another's measurement
/// would count in its peak.
static TURN: Mutex<()> = Mutex::new(());

const SEED: u64 = 42;
const ROUNDS: u32 = 20;

/// Assembly's read buffer per shard (`SHARD_READ_BYTES` in `shard.rs`).
const READ_BUFFER: usize = 8 * 1024;

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

/// Peak live heap while `f` runs, over the live heap before it, with what
/// `f` returns.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

/// A fresh `run(0)` of `campaign` in `shards` shards: its peak live heap
/// and its pair count.
fn sharded_peak(campaign: &Campaign, shards: u32) -> (usize, usize) {
    let dir = std::env::temp_dir().join(format!("edns-peak-heap-{}-{shards}", std::process::id()));
    let runner = ShardedRunner::new(campaign, shards, &dir).unwrap();
    let (outcome, peak) = peak_of(|| runner.run(0).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(outcome.records, campaign.probe_count() as u64);
    (peak, outcome.aggregates.pairs().len())
}

/// Allocations the calling thread makes in `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Bytes the calling thread still holds from `f`, with what `f` returns.
fn held<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = HELD.with(Cell::get);
    let out = f();
    (out, HELD.with(Cell::get) - before)
}

#[test]
fn a_record_is_copy_in_104_bytes() {
    fn copy<T: Copy>() {}
    copy::<ProbeRecord>();
    let size = size_of::<ProbeRecord>();
    println!("ProbeRecord: {size} B, Copy");
    assert!(size <= 104, "ProbeRecord is {size} B, over 104");
}

#[test]
fn an_in_memory_campaign_holds_each_record_once() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
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
        assert!(serial <= 1.15, "{label}: serial peak {serial:.3}x");
        assert!(parallel <= 1.15, "{label}: parallel peak {parallel:.3}x");
    }
}

#[test]
fn the_record_buffer_is_the_first_allocation_generate_makes() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = Campaign::new(CampaignConfig::quick(SEED, 2));
    campaign.run();
    let buffer = campaign.probe_count() * std::mem::size_of::<ProbeRecord>();
    for threads in [1, 3] {
        FIRST.with(|f| f.set(Some(0)));
        let generated = campaign.generate(threads);
        let first = FIRST.with(|f| f.replace(None));
        assert_eq!(generated.record_count(), campaign.probe_count());
        assert_eq!(
            first,
            Some(buffer),
            "generate({threads})'s first allocation is not its {buffer} B record buffer"
        );
    }
}

#[test]
fn folding_into_the_health_series_and_aggregates_allocates_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const DAYS: usize = 10;
    let campaign = Campaign::new(CampaignConfig::longitudinal(SEED, DAYS as u32));
    let records = campaign.run().records;

    // One untimed fold first, so that a label's first interning lands in
    // neither count below.
    CampaignFolds::of(&campaign, &records);
    // `of` over no record makes every allocation `of` makes around the
    // fold: the pair table, the (pair, day) scratch and the rows.
    let (_, around) = allocations(|| CampaignFolds::of(&campaign, &[]));
    let (folds, allocs) = allocations(|| CampaignFolds::of(&campaign, &records));
    let (_, folds_bytes) = held(|| CampaignFolds::for_campaign(&campaign));
    // The rows' heap: what a copy of them holds.
    let (series, series_bytes) = held(|| folds.health().clone());
    let (metrics, aggregates, _) = folds.into_parts();
    assert_eq!(series.probes(), records.len() as u64);
    assert_eq!(aggregates.probes(), records.len() as u64);
    assert_eq!(metrics.total_probes(), records.len() as u64);
    let pairs = aggregates.pairs().len();
    let rows = campaign.entries().len() * DAYS;
    let budget = rows * std::mem::size_of::<HealthCell>() + 32 * pairs;
    println!(
        "{} records over {pairs} pairs: {} allocations, {around} of them around the fold; \
         (resolver, day) rows heap {series_bytes} B for {rows} rows of {} B, budget {budget} B; \
         whole CampaignFolds heap {folds_bytes} B",
        records.len(),
        allocs,
        std::mem::size_of::<HealthCell>(),
    );
    assert_eq!(
        allocs,
        around,
        "folding records into CampaignFolds allocated {} times more than folding none: \
         a map or a String key per cell is back",
        allocs as i64 - around as i64
    );
    assert!(
        series_bytes <= budget as isize,
        "the rows hold {series_bytes} B for {rows} (resolver, day) rows over {pairs} pairs, \
         budget {budget} B"
    );
}

#[test]
fn sharded_assembly_holds_no_pair_day_table() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const DAYS: usize = 30;
    const SHARDS: usize = 32;
    // What else a run holds at its peak, the line copy: assembly's 256 KB
    // write buffer, the campaign order's cursors, one shard's cell file and
    // its decoded cells in the cell lane — 0.70 MB over the other terms as
    // measured, here rounded up to 1 MiB.
    const SLACK: usize = 1 << 20;
    let campaign = Campaign::new(CampaignConfig::longitudinal(SEED, DAYS as u32));
    let (peak, pairs) = sharded_peak(&campaign, SHARDS as u32);
    let cells = pairs * (size_of::<AggregateCell>() + size_of::<CellMetrics>());
    let rows = campaign.entries().len() * DAYS * size_of::<HealthCell>();
    let budget = SHARDS * READ_BUFFER + cells + rows + SLACK;
    let pair_days = pairs * DAYS * size_of::<HealthCell>();
    println!(
        "run(0) of longitudinal({SEED}, {DAYS}) in {SHARDS} shards: peak live heap {peak} B; \
         budget {budget} B = {SHARDS} read buffers of {READ_BUFFER} B + {pairs} aggregate and \
         metrics cells ({cells} B) + (resolver, day) rows ({rows} B) + {SLACK} B slack; \
         a (pair, day) table would add {pair_days} B"
    );
    assert!(
        peak <= budget,
        "a sharded run peaks at {peak} B, over its {budget} B budget: \
         a (pair, day) table of day cells ({pair_days} B), or larger read buffers, are back"
    );
}

#[test]
fn assembly_adds_a_small_read_buffer_per_shard() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Per shard beside its reader: the reader's path, its line counts, the
    // shard's extent, manifest entry, span and journal events.
    const PER_SHARD: usize = 1024;
    let campaign = Campaign::new(CampaignConfig::longitudinal(SEED, 10));
    let (few, _) = sharded_peak(&campaign, 16);
    let (many, _) = sharded_peak(&campaign, 64);
    let bound = 48 * (READ_BUFFER + PER_SHARD);
    println!(
        "run(0) of longitudinal({SEED}, 10): peak live heap {few} B in 16 shards, {many} B in \
         64; bound on the difference {bound} B = 48 × ({READ_BUFFER} B reader + {PER_SHARD} B)"
    );
    assert!(
        many.saturating_sub(few) <= bound,
        "64 shards peak {} B above 16, over 48 readers and their bookkeeping ({bound} B): \
         assembly's read buffers grew",
        many - few
    );
}

#[test]
fn drift_in_place_holds_no_copy_of_the_rows() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const DAYS: u32 = 12;
    let entries = ["dns.google", "doh.ffmuc.net", "dns.quad9.net"]
        .into_iter()
        .filter_map(catalog::resolvers::find)
        .collect();
    let config = CampaignConfig::longitudinal(SEED, DAYS).with_default_faults();
    let campaign = Campaign::with_resolvers(config, entries);
    let series = HealthSeries::of(&campaign, &campaign.run().records);
    let cfg = DriftConfig {
        min_probes: 1,
        min_errors: 1,
        ..DriftConfig::default()
    };
    let (findings, peak) = peak_of(|| series.detect_drift(&cfg));
    // The findings' buffer, doubling its way there: at most the new
    // buffer and the old beside it.
    let budget = 2 * findings.capacity() * size_of::<DriftFinding>();
    let copy = series.resolver_rows().len() * size_of::<HealthRow>();
    println!(
        "detect_drift over {} resolvers x {DAYS} days: {} findings, peak live heap {peak} B, \
         budget {budget} B; a copy of the rows would add {copy} B",
        campaign.entries().len(),
        findings.len()
    );
    assert!(!findings.is_empty(), "the faulted campaign must drift");
    assert!(
        peak <= budget && budget < copy,
        "drift detection peaks at {peak} B over its {budget} B of findings: \
         a copy of the {copy} B of rows is back"
    );
}
