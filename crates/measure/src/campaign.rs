//! The campaign runner: schedules every (vantage, resolver, round, domain)
//! probe, runs them deterministically — optionally in parallel — and
//! collects the result records.
//!
//! Determinism under parallelism: every (vantage, resolver) pair gets its
//! own RNG stream derived from the master seed and its labels, and its own
//! simulated resolver state, so results do not depend on thread scheduling.
//! Each pair fills its vantage's slots ([`Campaign::slots`]) in order, and
//! [`CampaignOrder`] says, from the schedule alone, which pair's record
//! comes next: assembly permutes the generated records into that order in
//! place, so output is identical at any thread count without sorting the
//! record vector or comparing a record.

use std::convert::Infallible;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use detlint_macros::deny_alloc;
use dns_wire::Name;
use netsim::rng::SimRng;
use netsim::time::{SimDuration, SimTime};
use obs::{CellMetrics, Label, MetricsRegistry, MetricsSnapshot, Phase, SpanLog};

use crate::config::{CampaignConfig, Span};
use crate::context::{PairContext, Wires};
use crate::errors::ProbeErrorKind;
use crate::population::PairLoad;
use crate::probe::{ProbeJob, ProbeRequest, ProbeTarget, Prober};
use crate::results::{ProbeOutcome, ProbeRecord};
use crate::session::SessionState;
use crate::shard::hand_off;
use crate::vantage::Vantage;

/// A completed campaign: all records plus the configuration that made them.
#[derive(Debug)]
pub struct CampaignResult {
    /// Every probe record, in canonical (time, vantage, resolver, domain)
    /// order.
    pub records: Vec<ProbeRecord>,
    /// The seed the campaign ran with.
    pub seed: u64,
}

impl CampaignResult {
    /// Successful probe count.
    pub fn successes(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.is_success())
            .count()
    }

    /// Failed probe count.
    pub fn errors(&self) -> usize {
        self.records.len() - self.successes()
    }

    /// Serialises all records as JSON Lines — the tool's output format.
    ///
    /// Streams every record straight into one output buffer (no
    /// intermediate JSON tree); byte-identical to serialising each record
    /// through [`ProbeRecord::to_json`], as pinned by the golden-file test.
    pub fn to_json_lines(&self) -> String {
        // Reserving up front keeps buffer growth out of the per-record
        // loop, so the reservation must cover every line: a short one
        // regrows the whole document once.
        let mut out = String::with_capacity(self.records.iter().map(line_bytes_hint).sum());
        for r in &self.records {
            r.write_json_line(&mut out);
            out.push('\n');
        }
        out
    }

    /// Builds the resolver × vantage × protocol metrics snapshot for this
    /// campaign. Records are already in canonical order and the snapshot
    /// sorts its cells, so two same-seed campaigns export byte-identical
    /// snapshots.
    pub fn metrics(&self) -> MetricsSnapshot {
        metrics_of(&self.records)
    }

    /// Parses records back from JSON Lines, one line at a time (blank
    /// lines skipped); an error names the 1-based line it is on.
    pub fn from_json_lines(seed: u64, doc: &str) -> Result<Self, String> {
        let records = doc
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(i, line)| line.parse().map_err(|e| format!("line {}: {e}", i + 1)))
            .collect::<Result<Vec<ProbeRecord>, String>>()?;
        Ok(CampaignResult { records, seed })
    }
}

/// The block [`write_json_blocks`] renders into.
pub(crate) const JSONL_BLOCK_BYTES: usize = 256 * 1024;

/// Renders `records` as JSON Lines, byte for byte
/// [`CampaignResult::to_json_lines`], through one 256 KiB block that
/// `sink` takes each time it fills, and once more, whatever is left, at
/// the end: no more than a block of the document is ever in memory. Stops
/// at the sink's first error.
pub fn write_json_blocks<E>(
    records: &[ProbeRecord],
    mut sink: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let mut block = String::with_capacity(JSONL_BLOCK_BYTES + 4096);
    for r in records {
        r.write_json_line(&mut block);
        block.push('\n');
        if block.len() >= JSONL_BLOCK_BYTES {
            sink(block.as_bytes())?;
            block.clear();
        }
    }
    sink(block.as_bytes())
}

/// A little more than the bytes [`ProbeRecord::write_json_line`] renders
/// for a record of `r`'s shape, newline included: what the fixed keys and
/// typical values take for its outcome, plus its retry keys and attempt
/// errors and its connection mode, when it carries them.
fn line_bytes_hint(r: &ProbeRecord) -> usize {
    let outcome = if r.outcome.is_success() { 500 } else { 260 };
    // `"attempt_errors":[…],"attempts":N` and the ttfb/ttlb fields, then
    // each error's quoted label and comma.
    let retry = r.retry.as_ref().map_or(0, |info| {
        72 + info
            .attempt_errors(&r.outcome)
            .map(|e| e.label().len() + 3)
            .sum::<usize>()
    });
    let conn_mode = if r.conn_mode.is_some() { 22 } else { 0 };
    outcome + retry + conn_mode
}

/// Folds one probe record into a metrics registry. Allocation-free per
/// record once the record's cell and error entries exist: the cell lookup
/// hashes three interned label ids and every tally is a counter bump or a
/// fixed-bucket histogram observation.
#[deny_alloc]
pub fn observe_record(registry: &mut MetricsRegistry, r: &ProbeRecord) {
    // detlint:allow(deny-alloc-reach, interning allocates only on a label's first occurrence; the vocabulary is bounded and warm after setup — the zero-alloc tests hold the runtime line)
    let cell = registry.cell_interned(r.resolver_id(), r.vantage_id(), r.protocol.interned_label());
    observe_cell(cell, r);
    if let ProbeOutcome::Failure { kind, .. } = &r.outcome {
        // Keyed by the kind's static label: no per-failure allocation.
        *cell.errors.entry(kind.label()).or_insert(0) += 1;
    }
}

/// Folds one probe record into its (resolver, vantage, protocol) cell,
/// all but the error tallies — the body of [`observe_record`], and the
/// metrics part of a [`PairFold`](crate::fold::PairFold), whose error
/// tallies are its aggregate's: a pair is one cell, so folding its records
/// in its own order is bit for bit the registry's fold over the whole
/// stream.
#[deny_alloc]
pub(crate) fn observe_cell(cell: &mut CellMetrics, r: &ProbeRecord) {
    cell.probes.inc();
    if let ProbeOutcome::Success {
        timings, cache_hit, ..
    } = &r.outcome
    {
        cell.successes.inc();
        if *cache_hit {
            cell.cache_hits.inc();
        }
        let ms = timings.total().as_millis_f64();
        // The `.observe(…)` calls below resolve by name to every
        // workspace `observe` — including cold-path aggregators that
        // key ledgers by owned strings. The cells here are metric
        // histograms (`obs::metrics`), whose observe is append-only
        // arithmetic on preallocated buckets.
        // detlint:allow(deny-alloc-reach, MetricCell::observe is alloc-free; the name-matched ledger observes are cold-path types)
        cell.response_ms.observe(ms);
        cell.last_response_ms.set(ms);
        for p in Phase::ALL {
            // detlint:allow(deny-alloc-reach, MetricCell::observe is alloc-free; the name-matched ledger observes are cold-path types)
            cell.phase(p).observe(timings.phase(p).as_millis_f64());
        }
    }
    if let Some(retry) = &r.retry {
        // The burned attempts were retried; a failure's final verdict is
        // the outcome's, which the error tallies count.
        for kind in retry.burned_errors() {
            cell.retries(kind.phase()).inc();
        }
        if retry.recovered(&r.outcome) {
            cell.recovered.inc();
        }
        if retry.exhausted(&r.outcome) {
            cell.exhausted.inc();
        }
    }
    if let Some(p) = r.ping() {
        // detlint:allow(deny-alloc-reach, MetricCell::observe is alloc-free; the name-matched ledger observes are cold-path types)
        cell.ping_ms.observe(p.as_millis_f64());
    }
}

/// Builds a metrics snapshot from probe records: counters per cell, error
/// tallies by label, and latency histograms for responses, pings and each
/// of the six probe phases.
#[deny_alloc]
pub fn metrics_of(records: &[ProbeRecord]) -> MetricsSnapshot {
    let mut registry = MetricsRegistry::new();
    for r in records {
        observe_record(&mut registry, r);
    }
    // detlint:allow(deny-alloc-reach, snapshot freezes the finished registry once per campaign, outside the per-record loop the annotation guards)
    registry.snapshot()
}

/// The output of the campaign's generation stage: every record of the
/// campaign in one buffer sized to [`Campaign::probe_count`], as
/// [`Campaign::generate_over`] lays it out, beside the pairs and the slot
/// table the run computed once. [`Campaign::assemble`] permutes the buffer
/// in place, so a campaign's records are held once; the split exists so
/// benches can time probe generation separately from assembly.
#[derive(Debug)]
pub struct GeneratedPairs {
    plans: Vec<PairPlan>,
    slots: Vec<Vec<Slot>>,
    records: Vec<ProbeRecord>,
}

impl GeneratedPairs {
    /// Total records generated across all pairs.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Each pair's vantage label and record stream, in pair order: what
    /// `tests/equivalence.rs` holds to [`Campaign::slots`],
    /// and `tests/campaign_order_oracle.rs` sorts.
    #[doc(hidden)]
    pub fn pairs(&self) -> impl Iterator<Item = (&'static str, &[ProbeRecord])> {
        let vantages = self.plans.iter().map(|p| p.vantage.label);
        let streams = pair_ranges(&self.plans, &self.slots).map(|r| &self.records[r]);
        vantages.zip(streams)
    }
}

/// Where each of `plans`' pairs lies in a buffer laid out by
/// [`Campaign::generate_over`].
pub(crate) fn pair_ranges<'p>(
    plans: &'p [PairPlan],
    slots: &'p [Vec<Slot>],
) -> impl Iterator<Item = Range<usize>> + 'p {
    plans.iter().scan(0, |end, p| {
        let start = *end;
        *end += p.row(slots).len();
        Some(start..*end)
    })
}

/// One probe of a vantage's schedule, where canonical order puts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Simulated time of the probe's round, in nanoseconds.
    pub at: u64,
    /// The queried domain's index in the campaign's domain list.
    pub domain: u32,
    /// The probe's position in schedule order, which is the order a
    /// pair's RNG stream runs its probes in.
    pub probe: u32,
}

/// One queried domain, parsed and interned once per campaign.
#[derive(Debug, Clone)]
struct CampaignDomain {
    label: Label,
    name: Name,
    /// Its rank in sorted-domain order: the slot order compares these
    /// integers instead of domain strings.
    rank: u32,
}

/// One (vantage, resolver) unit of work, with its interned labels and its
/// rank in the canonical (vantage, resolver) string order.
#[derive(Debug, Clone)]
pub(crate) struct PairPlan {
    pub(crate) vantage: Vantage,
    pub(crate) entry: catalog::ResolverEntry,
    pub(crate) vantage_label: Label,
    pub(crate) resolver_label: Label,
    /// Its vantage's index in `config.vantages()`, which is its row of
    /// the [slot table](Campaign::slot_table).
    pub(crate) vantage_index: u32,
    /// Position of this pair when all pairs are sorted by
    /// (vantage label, resolver hostname) — [`CampaignOrder`] compares
    /// this integer instead of the two strings.
    pub(crate) order: u32,
}

impl PairPlan {
    /// Its vantage's row of `table` ([`Campaign::slot_table`]).
    pub(crate) fn row<'s>(&self, table: &'s [Vec<Slot>]) -> &'s [Slot] {
        &table[self.vantage_index as usize]
    }
}

/// The campaign's one record order, walked as (pair, slot): which pair's
/// record comes next, and which of its slots that record fills.
///
/// Over a contiguous slice of pairs it yields every slot of every pair, by
/// `(slot.at, plan.order)`. A pair's own slots come in their order
/// ([`Campaign::slots`]) and pair ranks are unique, duplicate pairs
/// included, so that key orders the whole campaign, and the walk over a
/// range of pairs is the whole walk with the other pairs left out: a
/// shard file written in it is read straight through by assembly.
///
/// All pairs of a vantage fill one slot row ([`PairPlan::row`]), so the
/// walk merges rows by time, not pairs: at each time, the pairs whose row
/// has slots then come in rank order, each with all of its slots at that
/// time. The rank-ordered list of those pairs is rebuilt only when the set
/// of rows with slots at the time changes, so each record costs O(1)
/// amortised, over at most as many rows as vantages.
pub(crate) struct CampaignOrder<'a> {
    /// Per row of the slot table, the walk of its slots (none for a row no
    /// pair of the slice fills).
    rows: Vec<RowWalk<'a>>,
    /// Every pair of the slice with its row, in rank order.
    by_rank: Vec<(u32, u32)>,
    /// The pairs of `by_rank` whose row has slots at the current time, in
    /// rank order: never longer than `by_rank`, whose length it reserves.
    active: Vec<(u32, u32)>,
    /// The entry of `active` being walked, and how many of its row's slots
    /// at the current time it has yielded.
    turn: usize,
    filled: usize,
}

/// One slot row as [`CampaignOrder`] walks it.
struct RowWalk<'a> {
    slots: &'a [Slot],
    /// `slots[next..end]` are its slots at the current time (none when the
    /// two are equal); its later slots start at `end`.
    next: usize,
    end: usize,
}

impl<'a> CampaignOrder<'a> {
    /// The order over `plans`, whose slots are `slots`' rows
    /// ([`Campaign::slot_table`]).
    pub(crate) fn new(plans: &[PairPlan], slots: &'a [Vec<Slot>]) -> Self {
        let mut rows: Vec<RowWalk<'a>> = (slots.iter())
            .map(|_| RowWalk {
                slots: &[],
                next: 0,
                end: 0,
            })
            .collect();
        let mut by_rank: Vec<(u32, u32)> = Vec::with_capacity(plans.len());
        for (pair, p) in plans.iter().enumerate() {
            rows[p.vantage_index as usize].slots = p.row(slots);
            by_rank.push((pair as u32, p.vantage_index));
        }
        by_rank.sort_unstable_by_key(|&(pair, _)| plans[pair as usize].order);
        CampaignOrder {
            rows,
            active: Vec::with_capacity(by_rank.len()),
            by_rank,
            turn: 0,
            filled: 0,
        }
    }

    /// Moves the walk on to the earliest time a row has slots at, and
    /// rebuilds `active` if the rows with slots then are not the rows that
    /// had slots at the previous time. `None` when no slot is left.
    #[deny_alloc]
    fn next_time(&mut self) -> Option<()> {
        let rows = &mut self.rows;
        let now = (rows.iter())
            .filter_map(|row| row.slots.get(row.end))
            .map(|s| s.at)
            .min()?;
        let mut changed = false;
        for row in rows.iter_mut() {
            let had_slots = row.end > row.next;
            row.next = row.end;
            // A row's slots are in time order, and none left is before `now`.
            row.end += row.slots[row.next..].partition_point(|s| s.at == now);
            changed |= (row.end > row.next) != had_slots;
        }
        if changed {
            let has_slots = |&&(_, row): &&(u32, u32)| {
                let row = &rows[row as usize];
                row.end > row.next
            };
            self.active.clear();
            self.active.extend(self.by_rank.iter().filter(has_slots));
        }
        self.turn = 0;
        self.filled = 0;
        Some(())
    }
}

impl Iterator for CampaignOrder<'_> {
    type Item = (usize, Slot);

    #[deny_alloc]
    fn next(&mut self) -> Option<(usize, Slot)> {
        loop {
            let Some(&(pair, row)) = self.active.get(self.turn) else {
                self.next_time()?;
                continue;
            };
            let row = &self.rows[row as usize];
            match row.slots[row.next..row.end].get(self.filled) {
                Some(&slot) => {
                    self.filled += 1;
                    return Some((pair as usize, slot));
                }
                None => {
                    self.turn += 1;
                    self.filled = 0;
                }
            }
        }
    }
}

/// Runs campaigns over a resolver population.
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
    entries: Vec<catalog::ResolverEntry>,
    /// The campaign's domains in config (probe) order.
    domains: Vec<CampaignDomain>,
    /// The probe engine (the authority tree every resolver recurses
    /// against): read-only, so every pair and worker thread borrows it.
    prober: Prober,
}

impl Campaign {
    /// A campaign over the full measured population.
    ///
    /// # Panics
    /// If the configuration is invalid (see [`CampaignConfig::validate`]);
    /// use [`try_new`](Self::try_new) to handle that gracefully.
    pub fn new(config: CampaignConfig) -> Self {
        // detlint:allow(unwrap, documented panicking constructor; try_new is the fallible path)
        Self::try_new(config).expect("invalid campaign config")
    }

    /// A campaign over the full measured population, validating the
    /// configuration (domain syntax) up front.
    pub fn try_new(config: CampaignConfig) -> Result<Self, String> {
        Self::try_with_resolvers(config, catalog::resolvers::all())
    }

    /// A campaign over a chosen subset of resolvers.
    ///
    /// # Panics
    /// If the configuration is invalid (see [`CampaignConfig::validate`]);
    /// use [`try_with_resolvers`](Self::try_with_resolvers) to handle that
    /// gracefully.
    pub fn with_resolvers(config: CampaignConfig, entries: Vec<catalog::ResolverEntry>) -> Self {
        // detlint:allow(unwrap, documented panicking constructor; try_with_resolvers is the fallible path)
        Self::try_with_resolvers(config, entries).expect("invalid campaign config")
    }

    /// A campaign over a chosen subset of resolvers, validating the
    /// configuration (domain syntax) up front. Domains are parsed and
    /// interned exactly once here — not once per (vantage, resolver) pair
    /// — and the vantage, resolver and protocol labels are interned here
    /// too: a label's first interning allocates its string and token, and
    /// here that is before any run's buffers rather than among them or
    /// inside a fold.
    pub fn try_with_resolvers(
        config: CampaignConfig,
        entries: Vec<catalog::ResolverEntry>,
    ) -> Result<Self, String> {
        config.validate()?;
        config.probe.protocol.interned_label();
        for v in config.vantages() {
            Label::from_static(v.label);
        }
        for e in &entries {
            Label::from_static(e.hostname);
        }
        let mut domains: Vec<CampaignDomain> = config
            .domains
            .iter()
            .map(|d| CampaignDomain {
                label: Label::intern(d),
                // validate() proved every domain parses.
                // detlint:allow(unwrap, validate() proved every domain parses)
                name: Name::parse(d).expect("validated domain"),
                rank: 0,
            })
            .collect();
        let mut sorted: Vec<Label> = domains.iter().map(|d| d.label).collect();
        sorted.sort_unstable();
        sorted.dedup();
        for d in &mut domains {
            d.rank = sorted.partition_point(|&l| l < d.label) as u32;
        }
        Ok(Campaign {
            config,
            entries,
            domains,
            prober: Prober::new(),
        })
    }

    /// The number of probes this campaign will issue.
    pub fn probe_count(&self) -> usize {
        self.config.probe_count(self.entries.len())
    }

    /// The campaign's configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The resolver population this campaign probes.
    pub fn entries(&self) -> &[catalog::ResolverEntry] {
        &self.entries
    }

    /// The spans that list `vantage`, in configuration order.
    fn spans_of<'a>(&'a self, vantage: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        let spans = self.config.spans.iter();
        spans.filter(move |s| s.vantages.contains(&vantage))
    }

    /// The days `vantage` probes on, first to last: from its earliest
    /// span's first day to its latest span's end (empty for a vantage no
    /// span lists). Every record of its pairs falls on one of them.
    pub(crate) fn days_of(&self, vantage: &str) -> Range<u32> {
        let first = self.spans_of(vantage).map(|s| s.start_day).min();
        let end = self.spans_of(vantage).map(|s| s.start_day + s.days).max();
        first.unwrap_or(0)..end.unwrap_or(0)
    }

    /// A vantage's probes in schedule order — every span that lists it,
    /// each of its rounds, the domains in list order — as (round time,
    /// domain index).
    fn schedule<'a>(&'a self, vantage: &'a str) -> impl Iterator<Item = (SimTime, usize)> + 'a {
        self.spans_of(vantage)
            .flat_map(|s| s.round_times())
            .flat_map(move |at| (0..self.domains.len()).map(move |d| (at, d)))
    }

    /// Every probe slot of a vantage in canonical order: by time, then by
    /// domain rank, and slots equal in both (overlapping spans, a domain
    /// listed twice) in schedule order. Each of the vantage's pairs fills
    /// exactly these slots, so this is the one definition of a pair's
    /// record order: [`run_pair`](Self::run_pair) places its records by
    /// it, and [`CampaignOrder`] interleaves the pairs by it, so that both
    /// engines order records without reading one.
    pub fn slots(&self, vantage: &str) -> Vec<Slot> {
        // Sized from the schedule, so it never regrows.
        let rounds: usize = self.spans_of(vantage).map(Span::round_count).sum();
        let mut slots = Vec::with_capacity(rounds * self.domains.len());
        let schedule = self.schedule(vantage).enumerate();
        slots.extend(schedule.map(|(probe, (at, domain))| Slot {
            at: at.as_nanos(),
            domain: domain as u32,
            probe: probe as u32,
        }));
        // `probe` is unique, so this is the stable sort by (time, domain
        // rank) without the stable sort's scratch buffer.
        slots.sort_unstable_by_key(|s| (s.at, self.domains[s.domain as usize].rank, s.probe));
        slots
    }

    /// Every vantage's [`slots`](Self::slots), indexed like
    /// `config.vantages()` and so by [`PairPlan::vantage_index`]: computed
    /// once per engine run, each pair's generation reads its row of it and
    /// [`CampaignOrder`] walks it.
    pub(crate) fn slot_table(&self) -> Vec<Vec<Slot>> {
        let vantages = self.config.vantages();
        vantages.iter().map(|v| self.slots(v.label)).collect()
    }

    /// Runs every probe on the calling thread.
    pub fn run(&self) -> CampaignResult {
        self.assemble(self.generate(1))
    }

    /// Runs the campaign across `threads` threads, the calling thread one
    /// of them (deterministic — identical output to [`run`](Self::run) at
    /// any thread count).
    pub fn run_parallel(&self, threads: usize) -> CampaignResult {
        self.assemble(self.generate(threads))
    }

    /// [`run`](Self::run) with nothing cached across probes: every probe
    /// goes through the one-off path ([`Prober::probe`]'s), which routes
    /// it, resolves its faults against the unmasked plan and builds,
    /// encodes and parses back every wire for that probe alone. Same
    /// driver and protocol machines as `run()`, independent inputs to
    /// them: the differential suites pin `run()` byte-identical to this
    /// across seeds, protocols, fault plans, retry policies, load and
    /// session models.
    #[doc(hidden)]
    pub fn run_reference(&self) -> CampaignResult {
        self.assemble(self.generate_all(1, false))
    }

    /// The generation stage: [`generate_over`](Self::generate_over) every
    /// (vantage, resolver) pair across `threads` threads, the calling
    /// thread one of them, into one campaign-sized buffer.
    /// [`assemble`](Self::assemble) permutes the buffer into a
    /// [`CampaignResult`]; split out so the bench harness can time
    /// generation separately from assembly.
    pub fn generate(&self, threads: usize) -> GeneratedPairs {
        self.generate_all(threads, true)
    }

    /// [`generate`](Self::generate) over either wire source (see
    /// [`run_pair`](Self::run_pair)).
    fn generate_all(&self, threads: usize, cached: bool) -> GeneratedPairs {
        // The record buffer is the run's first allocation. A previous
        // run's buffer, freed, leaves a hole of exactly its size in the
        // heap (glibc's dynamic mmap threshold has moved it onto the brk
        // heap); any smaller allocation carved from that hole first would
        // make this one extend the heap instead, and peak RSS would grow
        // by a buffer from one run to the next.
        let mut records = Vec::with_capacity(self.probe_count());
        let plans = self.pair_plans();
        let slots = self.slot_table();
        let workers = threads.saturating_sub(1);
        self.generate_over(&plans, &slots, workers, cached, &mut records);
        GeneratedPairs {
            plans,
            slots,
            records,
        }
    }

    /// Both engines' generation, over a range of pairs: `records` becomes
    /// `plans`' pairs one after another, each a record per slot of its row
    /// of `slots` (the [slot table](Self::slot_table)), in that order. The
    /// pairs go through [`hand_off`] with `workers` beside the calling
    /// thread, each lane writing the pair it claims into its slice.
    pub(crate) fn generate_over(
        &self,
        plans: &[PairPlan],
        slots: &[Vec<Slot>],
        workers: usize,
        cached: bool,
        records: &mut Vec<ProbeRecord>,
    ) {
        if let Some(plan) = plans.first() {
            let len = plans.iter().map(|p| p.row(slots).len()).sum();
            records.resize(len, self.placeholder(plan));
        }
        // Each pair's slice, taken by the lane that claims the pair.
        let mut rest = records.as_mut_slice();
        let slices: Vec<Mutex<&mut [ProbeRecord]>> = (plans.iter())
            .map(|p| {
                let (pair, tail) = std::mem::take(&mut rest).split_at_mut(p.row(slots).len());
                rest = tail;
                Mutex::new(pair)
            })
            .collect();
        let pending: Vec<u32> = (0..plans.len() as u32).collect();
        let (generated, _) = hand_off(
            &pending,
            workers,
            |pair| {
                // Each pair is claimed once, so its lock is taken once and
                // is never found poisoned.
                let slice = slices[pair as usize].lock();
                let mut slice = slice.unwrap_or_else(PoisonError::into_inner);
                let plan = &plans[pair as usize];
                self.run_pair(plan, plan.row(slots), cached, &mut slice);
            },
            Ok::<_, Infallible>,
            |()| Ok(()),
        );
        let Ok(()) = generated;
    }

    /// The assembly stage: [`assemble_in_place`], so the result is the
    /// buffer [`generate`](Self::generate) filled, now in canonical order.
    pub fn assemble(&self, generated: GeneratedPairs) -> CampaignResult {
        let GeneratedPairs {
            plans,
            slots,
            mut records,
        } = generated;
        assemble_in_place(&plans, &slots, &mut records);
        CampaignResult {
            records,
            seed: self.config.seed,
        }
    }

    /// Every (vantage, resolver) pair with its interned labels, its row of
    /// the slot table and its rank.
    pub(crate) fn pair_plans(&self) -> Vec<PairPlan> {
        let vantages = self.config.vantages();
        let mut plans = Vec::with_capacity(vantages.len() * self.entries.len());
        for (vantage_index, v) in vantages.iter().enumerate() {
            let vantage_label = Label::from_static(v.label);
            for e in &self.entries {
                plans.push(PairPlan {
                    vantage: v.clone(),
                    entry: e.clone(),
                    vantage_label,
                    resolver_label: Label::from_static(e.hostname),
                    vantage_index: vantage_index as u32,
                    order: 0,
                });
            }
        }
        // Rank pairs by their (vantage, resolver) strings once; the order
        // then compares only these integers. Stable sort keeps duplicate
        // pairs in schedule order, each with a rank of its own.
        let mut by_key: Vec<usize> = (0..plans.len()).collect();
        by_key.sort_by(|&a, &b| {
            (plans[a].vantage.label, plans[a].entry.hostname)
                .cmp(&(plans[b].vantage.label, plans[b].entry.hostname))
        });
        for (rank, idx) in by_key.into_iter().enumerate() {
            plans[idx].order = rank as u32;
        }
        plans
    }

    /// A record of `plan`'s pair that its slots hold until the pair's
    /// probes overwrite them.
    fn placeholder(&self, plan: &PairPlan) -> ProbeRecord {
        let outcome = ProbeOutcome::Failure {
            kind: ProbeErrorKind::ConnectTimeout,
            elapsed: SimDuration::ZERO,
        };
        let entry = &plan.entry;
        ProbeRecord::new(
            SimTime::ZERO,
            plan.vantage_label,
            plan.resolver_label,
            entry.region(),
            entry.mainstream,
            self.domains[0].label,
            self.config.probe.protocol,
            outcome,
            None,
        )
    }

    /// Runs the full probe series for one (vantage, resolver) pair,
    /// writing its records over `records` in the order of `slots`, its
    /// vantage's row of the slot table: one record per slot.
    ///
    /// Pair-constant work — routing, fault scope matching, query and HTTP
    /// wire templates — is hoisted into a [`PairContext`] built once here
    /// and borrowed by every probe. With `cached` off nothing outlives a
    /// probe except what the model says does (the resolver's caches, the
    /// session state, the RNG stream): each probe is routed, resolves its
    /// faults against the whole plan, rebuilds the pair's load tables and
    /// encodes and re-parses every wire, through [`Prober::probe_fresh`].
    fn run_pair(&self, plan: &PairPlan, slots: &[Slot], cached: bool, records: &mut [ProbeRecord]) {
        let vantage = &plan.vantage;
        let entry = &plan.entry;
        let cfg = self.config.probe;
        let faults = &self.config.faults;
        let prober = &self.prober;
        let mut target = ProbeTarget::from_entry(entry.clone());
        let mut rng = SimRng::derived(
            self.config.seed,
            &format!("probe:{}:{}", vantage.label, entry.hostname),
        );
        let mut log = SpanLog::disabled();
        let mut ctx = cached.then(|| {
            PairContext::build(
                vantage,
                &target,
                cfg.protocol,
                faults,
                self.domains.iter().map(|d| &d.name),
            )
        });
        let client = vantage.host(0);
        // An absent load model and an absent session model build no
        // per-pair state at all: the driver then routes statically and
        // starts every connection cold, and records carry no connection
        // mode — byte for byte the seed goldens.
        let load = self.config.load.as_ref();
        let mut pair_load = load.map(|m| PairLoad::build(m, vantage, &target));
        let session_cfg = self.config.session.as_ref();
        let mut session = session_cfg.map(|_| {
            SessionState::new(
                self.config.seed,
                vantage.label,
                entry.hostname,
                entry.reuse_policy(),
            )
        });

        // Each slot's probe, in slot order: where `place` takes records from.
        let mut sources: Vec<u32> = slots.iter().map(|s| s.probe).collect();
        let schedule = records.iter_mut().zip(self.schedule(vantage.label));
        for (record, (at, domain_idx)) in schedule {
            let domain = &self.domains[domain_idx];
            let session = session_cfg.zip(session.as_mut());
            let report = match &mut ctx {
                Some(ctx) => prober.drive(ProbeJob {
                    client: &ctx.client,
                    ftarget: &ctx.ftarget,
                    scope_mask: Some(&ctx.scope_mask),
                    site: ctx.site,
                    path: &ctx.path,
                    now: at,
                    cfg,
                    faults,
                    target: &mut target,
                    wires: Wires::Cached(&mut ctx.domains[domain_idx]),
                    load: load.zip(pair_load.as_mut()),
                    session,
                    rng: &mut rng,
                    log: &mut log,
                }),
                None => {
                    let mut fresh_load = load.map(|m| PairLoad::build(m, vantage, &target));
                    let req = ProbeRequest {
                        client: &client,
                        domain: &domain.name,
                        now: at,
                        is_home: vantage.is_home(),
                        cfg,
                        faults,
                    };
                    prober.probe_fresh(
                        &req,
                        &mut target,
                        load.zip(fresh_load.as_mut()),
                        session,
                        &mut rng,
                        &mut log,
                    )
                }
            };
            *record = ProbeRecord::new(
                at,
                plan.vantage_label,
                plan.resolver_label,
                entry.region(),
                entry.mainstream,
                domain.label,
                cfg.protocol,
                report.outcome,
                report.ping,
            )
            .with_retry(report.retry)
            .with_conn_mode(report.conn_mode);
        }
        // Probes run in schedule order (the RNG stream depends on it);
        // each record then moves to its slot.
        place(records, &mut sources);
    }
}

/// Moves `plans`' records, laid out by [`Campaign::generate_over`], into
/// [`CampaignOrder`] over `plans` in place: both engines' one step from
/// generated pairs to campaign order, over every pair or a shard's.
pub(crate) fn assemble_in_place(
    plans: &[PairPlan],
    slots: &[Vec<Slot>],
    records: &mut [ProbeRecord],
) {
    // `place` takes u32 sources; no campaign held in memory comes near.
    assert!(records.len() <= u32::MAX as usize, "too many records");
    // Each pair's next unplaced record, from where its records start.
    let mut next: Vec<usize> = pair_ranges(plans, slots).map(|r| r.start).collect();
    // Each position's source: the next unplaced record of its pair.
    let sources = CampaignOrder::new(plans, slots).map(|(pair, _)| {
        let source = next[pair];
        next[pair] += 1;
        source as u32
    });
    let mut sources: Vec<u32> = sources.collect();
    place(records, &mut sources);
}

/// Moves `records[sources[p]]` to position `p` for every `p`, in place:
/// `sources` must be a permutation of `0..records.len()`. One cycle of the
/// permutation at a time, so every record moves once; a filled position's
/// source is overwritten with the position itself, which marks it, so
/// `sources` ends as the identity.
fn place(records: &mut [ProbeRecord], sources: &mut [u32]) {
    assert_eq!(records.len(), sources.len());
    for start in 0..sources.len() {
        let mut p = start;
        loop {
            let q = sources[p] as usize;
            sources[p] = p as u32;
            if q == start {
                break;
            }
            records.swap(p, q);
            p = q;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use proptest::prelude::*;

    fn small_campaign(seed: u64) -> Campaign {
        let entries = [
            "dns.google",
            "dns.quad9.net",
            "doh.ffmuc.net",
            "dns.bebasid.com",
        ]
        .into_iter()
        .map(|h| catalog::resolvers::find(h).unwrap())
        .collect();
        Campaign::with_resolvers(CampaignConfig::quick(seed, 3), entries)
    }

    #[test]
    fn try_new_refuses_a_retry_policy_or_fault_plan_it_cannot_run() {
        use crate::retry::RetryPolicy;
        use netsim::faults::{FaultKind, FaultPlan, FaultScope};
        use netsim::{SimDuration, SimTime};

        let hours = |h| SimTime::ZERO + SimDuration::from_hours(h);
        let google = FaultScope::Resolver("dns.google".into());
        let outage =
            FaultPlan::with_seed(1).event(FaultKind::SiteOutage, google, hours(0), hours(48));
        let brownout = FaultKind::Brownout {
            slowdown: 0.5,
            servfail_rate: 0.0,
        };
        let brownout =
            FaultPlan::with_seed(1).event(brownout, FaultScope::Global, hours(0), hours(1));
        let dig = RetryPolicy::dig_defaults();
        for (retry, faults, error) in [
            (
                RetryPolicy { tries: 9, ..dig },
                &outage,
                "retry policy: tries must be <= 8",
            ),
            (
                RetryPolicy { tries: 0, ..dig },
                &outage,
                "retry policy: tries must be >= 1",
            ),
            (
                RetryPolicy { jitter: 2.0, ..dig },
                &FaultPlan::EMPTY,
                "retry policy: jitter",
            ),
            (
                dig,
                &brownout,
                "fault plan: fault event 0: rate out of range",
            ),
        ] {
            let mut config = CampaignConfig::quick(9, 2);
            config.domains.truncate(1);
            config.probe.retry = retry;
            config.faults = faults.clone();
            let refused = Campaign::try_new(config).unwrap_err();
            assert!(refused.starts_with(error), "{refused}");
        }
    }

    #[test]
    fn the_order_over_a_pair_range_is_the_whole_order_restricted_to_it() {
        // Time ties within a pair (a domain twice, overlapping spans) and across pairs.
        let mut config = CampaignConfig::quick(2, 2);
        config.domains.push(config.domains[0].clone());
        config.spans.push(Span {
            start_day: 0,
            days: 1,
            rounds_per_day: 4,
            vantages: config.spans[0].vantages[..1].to_vec(),
        });
        let c = Campaign::with_resolvers(config, small_campaign(2).entries.clone());
        let (plans, slots) = (c.pair_plans(), c.slot_table());
        let whole: Vec<(usize, Slot)> = CampaignOrder::new(&plans, &slots).collect();
        assert_eq!(whole.len(), c.probe_count());
        for start in 0..=plans.len() {
            for end in start..=plans.len() {
                let range = CampaignOrder::new(&plans[start..end], &slots);
                let walked: Vec<(usize, Slot)> = range.map(|(p, s)| (start + p, s)).collect();
                let mut restricted = whole.clone();
                restricted.retain(|(p, _)| (start..end).contains(p));
                assert_eq!(walked, restricted, "pairs {start}..{end}");
            }
        }
    }

    /// A campaign layout drawn from `seed`. Two to five vantages, whose
    /// spans are disjoint (their rounds never coincide), staggered or
    /// overlapping, a vantage sometimes with a second span over its first;
    /// one to six rounds a day each; domains out of rank order, one
    /// sometimes listed twice; one to four resolvers, one sometimes listed
    /// twice.
    fn random_layout(seed: u64) -> Campaign {
        const VANTAGES: [&str; 7] = [
            "home-1",
            "ec2-ohio",
            "home-2",
            "ec2-frankfurt",
            "home-3",
            "ec2-seoul",
            "home-4",
        ];
        const DOMAINS: [&str; 4] = ["wikipedia.com", "google.com", "amazon.com", "example.org"];
        const RESOLVERS: [&str; 4] = [
            "dns.google",
            "dns.quad9.net",
            "doh.ffmuc.net",
            "dns.bebasid.com",
        ];
        let mut rng = SimRng::from_seed(seed);
        let rounds = |rng: &mut SimRng| 1 + rng.below(6) as u32;
        let (first, layout) = (rng.below(VANTAGES.len()), rng.below(3));
        let mut spans = Vec::new();
        for i in 0..2 + rng.below(4) {
            let vantages = vec![VANTAGES[(first + i) % VANTAGES.len()]];
            let (start_day, days) = match layout {
                0 => (3 * i as u32, 1 + rng.below(2) as u32),
                1 => (i as u32, 2 + rng.below(2) as u32),
                _ => (rng.below(2) as u32, 1 + rng.below(3) as u32),
            };
            if layout == 2 && rng.chance(0.5) {
                let (start_day, rounds_per_day) =
                    (start_day + rng.below(2) as u32, rounds(&mut rng));
                let vantages = vantages.clone();
                spans.push(Span {
                    start_day,
                    days: 1,
                    rounds_per_day,
                    vantages,
                });
            }
            let rounds_per_day = rounds(&mut rng);
            spans.push(Span {
                start_day,
                days,
                rounds_per_day,
                vantages,
            });
        }
        let skip = rng.below(DOMAINS.len() - 1);
        let mut domains: Vec<String> = DOMAINS[skip..].iter().map(|d| d.to_string()).collect();
        if rng.chance(0.3) {
            domains.push(domains[0].clone());
        }
        let mut hosts: Vec<&str> = RESOLVERS[..1 + rng.below(RESOLVERS.len())].to_vec();
        if rng.chance(0.3) {
            hosts.push(hosts[rng.below(hosts.len())]);
        }
        let config = CampaignConfig {
            domains,
            spans,
            ..CampaignConfig::quick(seed, 1)
        };
        let entries = hosts.iter().map(|h| catalog::resolvers::find(h).unwrap());
        Campaign::with_resolvers(config, entries.collect())
    }

    /// The order by its definition, sharing no code with [`CampaignOrder`]:
    /// the slots of `pairs`, pair after pair, stable-sorted by (time,
    /// vantage, resolver, the pair's occurrence among the pairs of its
    /// labels, domain). This is `tests/campaign_order_oracle.rs`'s sort,
    /// over slots instead of records.
    fn sorted_order(
        c: &Campaign,
        plans: &[PairPlan],
        slots: &[Vec<Slot>],
        pairs: Range<usize>,
    ) -> Vec<(usize, Slot)> {
        let labels = |p: &PairPlan| (p.vantage.label, p.entry.hostname);
        let mut walk = Vec::new();
        for pair in pairs {
            let p = &plans[pair];
            let occurrence = plans[..pair]
                .iter()
                .filter(|q| labels(q) == labels(p))
                .count();
            walk.extend(p.row(slots).iter().map(|&s| (pair, occurrence, s)));
        }
        walk.sort_by_key(|&(pair, occurrence, s)| {
            let (vantage, resolver) = labels(&plans[pair]);
            let domain = c.config.domains[s.domain as usize].as_str();
            (s.at, vantage, resolver, occurrence, domain)
        });
        walk.into_iter().map(|(pair, _, s)| (pair, s)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_order_is_the_sorted_order_on_random_layouts(seed in any::<u64>(), cuts in any::<u64>()) {
            let c = random_layout(seed);
            let (plans, slots) = (c.pair_plans(), c.slot_table());
            let n = plans.len();
            let whole: Vec<(usize, Slot)> = CampaignOrder::new(&plans, &slots).collect();
            prop_assert_eq!(whole.len(), c.probe_count());
            prop_assert_eq!(whole, sorted_order(&c, &plans, &slots, 0..n));
            let mut rng = SimRng::from_seed(cuts);
            for _ in 0..4 {
                let start = rng.below(n + 1);
                let end = start + rng.below(n - start + 1);
                let range = CampaignOrder::new(&plans[start..end], &slots);
                let walked: Vec<(usize, Slot)> = range.map(|(p, s)| (start + p, s)).collect();
                prop_assert_eq!(walked, sorted_order(&c, &plans, &slots, start..end), "pairs {}..{}", start, end);
            }
        }
    }

    #[test]
    fn run_produces_expected_record_count() {
        let c = small_campaign(1);
        let result = c.run();
        // 7 vantages × 4 resolvers × 3 rounds × 3 domains.
        assert_eq!(result.records.len(), 7 * 4 * 3 * 3);
        assert_eq!(result.records.len(), c.probe_count());
        assert!(result.successes() > result.errors());
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = small_campaign(7).run();
        let parallel = small_campaign(7).run_parallel(4);
        assert_eq!(serial.records, parallel.records);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_campaign(1).run();
        let b = small_campaign(2).run();
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn records_are_canonically_ordered() {
        let result = small_campaign(3).run();
        for w in result.records.windows(2) {
            let ka = (w[0].at, w[0].vantage(), w[0].resolver(), w[0].domain());
            let kb = (w[1].at, w[1].vantage(), w[1].resolver(), w[1].domain());
            assert!(ka <= kb);
        }
    }

    #[test]
    fn place_moves_every_record_to_its_slot() {
        let result = small_campaign(6).run();
        let cases: [&[u32]; 7] = [
            &[],
            &[0],
            &[0, 1, 2, 3, 4, 5],
            &[5, 4, 3, 2, 1, 0],
            // Two cycles, a fixed point and a swap: 0→3→1→0, 2 stays, 4↔5.
            &[3, 0, 2, 1, 5, 4],
            // One cycle through every position.
            &[1, 2, 3, 4, 5, 0],
            // Fixed points at both ends around two interleaved cycles:
            // 1→3→4→1 and 2↔5.
            &[0, 3, 5, 4, 1, 2, 6],
        ];
        for order in cases {
            let mut sources = order.to_vec();
            let mut records = result.records[..order.len()].to_vec();
            place(&mut records, &mut sources);
            for (p, &source) in order.iter().enumerate() {
                assert_eq!(
                    records[p], result.records[source as usize],
                    "{order:?} slot {p}"
                );
            }
            let identity: Vec<u32> = (0..order.len() as u32).collect();
            assert_eq!(sources, identity, "{order:?}");
        }
    }

    #[test]
    fn assemble_returns_the_buffer_generate_filled() {
        for threads in [1, 3] {
            let c = small_campaign(8);
            let generated = c.generate(threads);
            let (buffer, capacity) = (generated.records.as_ptr(), generated.records.capacity());
            assert_eq!(capacity, c.probe_count());
            let result = c.assemble(generated);
            assert_eq!(result.records.as_ptr(), buffer, "threads {threads}");
            assert_eq!(result.records.capacity(), c.probe_count());
            assert_eq!(result.records, c.run_reference().records);
        }
    }

    #[test]
    fn json_lines_reserve_what_the_records_render() {
        let quick = || CampaignConfig::quick(11, 1);
        let configs = [
            ("plain", quick()),
            (
                "faults + load",
                quick()
                    .with_default_faults()
                    .with_load(crate::LoadModel::standard(11).with_multiplier(2.0)),
            ),
            (
                "faults + sessions",
                quick()
                    .with_default_faults()
                    .with_session(crate::SessionConfig::interleaved(0.3)),
            ),
        ];
        for (label, config) in configs {
            let doc = Campaign::new(config).run().to_json_lines();
            let ratio = doc.capacity() as f64 / doc.len() as f64;
            assert!(
                (1.0..=1.15).contains(&ratio),
                "{label}: capacity {ratio:.3}x the length"
            );
        }
    }

    #[test]
    fn json_lines_round_trip() {
        let result = small_campaign(4).run();
        let doc = result.to_json_lines();
        assert_eq!(doc.lines().count(), result.records.len());
        let back = CampaignResult::from_json_lines(4, &doc).unwrap();
        assert_eq!(back.records, result.records);
    }

    #[test]
    fn home_vantages_only_probe_home_spans() {
        let mut config = CampaignConfig::quick(5, 2);
        config.spans.retain(|s| s.vantages.contains(&"ec2-ohio"));
        let c = Campaign::with_resolvers(
            config,
            vec![catalog::resolvers::find("dns.google").unwrap()],
        );
        let result = c.run();
        assert!(result
            .records
            .iter()
            .all(|r| r.vantage().starts_with("ec2-")));
    }

    #[test]
    fn invalid_domain_is_rejected_at_construction() {
        let mut config = CampaignConfig::quick(1, 1);
        config.domains.push("not..a.domain".to_string());
        let err = Campaign::try_with_resolvers(
            config,
            vec![catalog::resolvers::find("dns.google").unwrap()],
        )
        .unwrap_err();
        assert!(err.contains("not..a.domain"), "{err}");
    }
}
