//! Heap budgets of the in-memory engine and of the per-pair folds.
//!
//! * The peak live heap of an in-memory campaign, as a multiple of its
//!   record bytes (`probe_count() × size_of::<ProbeRecord>()`). Generation
//!   fills one campaign-sized record buffer and assembly permutes it in
//!   place, so `run()` holds each record once: its peak is the records
//!   plus the slot table, the permutation and the per-pair set-up, within
//!   a quarter of the record bytes. With worker threads, the pairs in
//!   flight and those waiting in the reorder buffer come on top, within
//!   half. A gather into a second buffer beside the first shows as twice
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
//!
//! The peak and live counters are global, so the tests take turns; the
//! allocation counts are the calling thread's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use std::mem::size_of;

use measure::{
    AggregateCell, Campaign, CampaignConfig, CampaignFolds, CampaignResult, HealthCell,
    ProbeRecord, SessionConfig, ShardedRunner,
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
        assert!(serial <= 1.25, "{label}: serial peak {serial:.3}x");
        assert!(parallel <= 1.5, "{label}: parallel peak {parallel:.3}x");
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

    // `of` over no record makes every allocation `of` makes around the
    // fold: the pair table, the (pair, day) scratch and the rows.
    let (_, around) = allocations(|| CampaignFolds::of(&campaign, &[]));
    let (folds, allocs) = allocations(|| CampaignFolds::of(&campaign, &records));
    let (_, folds_bytes) = held(|| CampaignFolds::for_campaign(&campaign));
    // The rows' heap: what a copy of them holds.
    let (series, series_bytes) = held(|| folds.health().clone());
    let metrics = folds.metrics();
    let (aggregates, _) = folds.into_views();
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
        "folding records into CampaignFolds allocated {} times: \
         a map or a String key per cell is back",
        allocs - around
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
    // Assembly's read buffer per shard.
    const READ_BUFFER: usize = 64 * 1024;
    // What else a run holds at its peak: assembly's 256 KB write buffer,
    // the campaign order's cursors and slots, the metrics snapshot beside
    // the cells it is taken from, one shard's cells in the cell lane —
    // 0.70 MB over the other terms as measured, here rounded up to 1 MiB.
    const SLACK: usize = 1 << 20;
    let campaign = Campaign::new(CampaignConfig::longitudinal(SEED, DAYS as u32));
    let dir = std::env::temp_dir().join(format!("edns-peak-heap-{}", std::process::id()));
    let runner = ShardedRunner::new(&campaign, SHARDS as u32, &dir).unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = runner.run(0).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(outcome.records, campaign.probe_count() as u64);

    let pairs = outcome.aggregates.pairs().len();
    let cells = pairs * (size_of::<AggregateCell>() + size_of::<CellMetrics>());
    let rows = campaign.entries().len() * DAYS * size_of::<HealthCell>();
    let budget = SHARDS * READ_BUFFER + cells + rows + SLACK;
    let pair_days = pairs * DAYS * size_of::<HealthCell>();
    println!(
        "run(0) of longitudinal({SEED}, {DAYS}) in {SHARDS} shards: peak live heap {peak} B; \
         budget {budget} B = {SHARDS} read buffers + {pairs} aggregate and metrics cells \
         ({cells} B) + (resolver, day) rows ({rows} B) + {SLACK} B slack; \
         a (pair, day) table would add {pair_days} B"
    );
    assert!(
        peak <= budget,
        "a sharded run peaks at {peak} B, over its {budget} B budget: \
         a (pair, day) table of day cells ({pair_days} B) is back"
    );
}
