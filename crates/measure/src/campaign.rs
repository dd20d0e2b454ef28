//! The campaign runner: schedules every (vantage, resolver, round, domain)
//! probe, runs them deterministically — optionally in parallel — and
//! collects the result records.
//!
//! Determinism under parallelism: every (vantage, resolver) pair gets its
//! own RNG stream derived from the master seed and its labels, and its own
//! simulated resolver state, so results do not depend on thread scheduling.
//! Each pair emits its records already in canonical order, and the pair
//! streams are combined by a stable k-way merge keyed on precomputed
//! integer ranks — output is identical at any thread count without ever
//! sorting the full record vector, and without a single string comparison
//! on the merge path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use detlint_macros::deny_alloc;
use dns_wire::Name;
use netsim::rng::SimRng;
use netsim::time::SimTime;
use obs::{CellMetrics, Label, MetricsRegistry, MetricsSnapshot, Phase, SpanLog};

use crate::config::{CampaignConfig, Span};
use crate::context::{PairContext, Wires};
use crate::population::PairLoad;
use crate::probe::{ProbeJob, ProbeRequest, ProbeTarget, Prober};
use crate::results::{ProbeOutcome, ProbeRecord};
use crate::session::SessionState;
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
        // ~470 bytes per rendered record; reserving up front keeps buffer
        // growth out of the per-record loop.
        let mut out = String::with_capacity(self.records.len() * 480);
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

/// Folds one probe record into a metrics registry. Allocation-free per
/// record once the record's cell and error entries exist: the cell lookup
/// hashes three interned label ids and every tally is a counter bump or a
/// fixed-bucket histogram observation.
#[deny_alloc]
pub fn observe_record(registry: &mut MetricsRegistry, r: &ProbeRecord) {
    // detlint:allow(deny-alloc-reach, interning allocates only on a label's first occurrence; the vocabulary is bounded and warm after setup — the zero-alloc tests hold the runtime line)
    let cell = registry.cell_interned(r.resolver_id(), r.vantage_id(), r.protocol.interned_label());
    observe_cell(cell, r);
}

/// Folds one probe record into its (resolver, vantage, protocol) cell —
/// the body of [`observe_record`], and the sharded engine's per-pair
/// metrics fold: a pair is one cell, so folding its records in its own
/// order is bit for bit the registry's fold over the merged stream.
#[deny_alloc]
pub(crate) fn observe_cell(cell: &mut CellMetrics, r: &ProbeRecord) {
    cell.probes.inc();
    match &r.outcome {
        ProbeOutcome::Success {
            timings, cache_hit, ..
        } => {
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
        ProbeOutcome::Failure { kind, .. } => {
            // Keyed by the kind's static label: no per-failure allocation.
            *cell.errors.entry(kind.label()).or_insert(0) += 1;
        }
    }
    if let Some(retry) = &r.retry {
        // Every error in `attempt_errors` names a retried (non-final)
        // attempt on success; on failure the last entry is the probe's
        // final verdict, already tallied in `errors` above.
        let retried = match &r.outcome {
            ProbeOutcome::Success { .. } => retry.attempt_errors.as_slice(),
            ProbeOutcome::Failure { .. } => {
                let n = retry.attempt_errors.len();
                &retry.attempt_errors[..n.saturating_sub(1)]
            }
        };
        for kind in retried {
            cell.retries(kind.phase()).inc();
        }
        if retry.recovered() {
            cell.recovered.inc();
        }
        if matches!(r.outcome, ProbeOutcome::Failure { .. }) && retry.exhausted() {
            cell.exhausted.inc();
        }
    }
    if let Some(p) = r.ping {
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

/// The output of the campaign's generation stage: one record stream per
/// (vantage, resolver) pair, each already in canonical per-pair order.
/// Produced by [`Campaign::generate`], consumed by [`Campaign::assemble`];
/// the split exists so benches can time probe generation separately from
/// the k-way merge.
#[derive(Debug)]
pub struct GeneratedPairs {
    pub(crate) plans: Vec<PairPlan>,
    pub(crate) outputs: Vec<Vec<ProbeRecord>>,
}

impl GeneratedPairs {
    /// Total records generated across all pairs.
    pub fn record_count(&self) -> usize {
        self.outputs.iter().map(Vec::len).sum()
    }

    /// Each pair's vantage label and record stream, in pair order: what
    /// `tests/shard_resume_differential.rs` holds to [`Campaign::slots`].
    #[doc(hidden)]
    pub fn pairs(&self) -> impl Iterator<Item = (&'static str, &[ProbeRecord])> {
        let vantages = self.plans.iter().map(|p| p.vantage.label);
        vantages.zip(self.outputs.iter().map(Vec::as_slice))
    }
}

/// One probe of a vantage's schedule, where canonical order puts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Simulated time of the probe's round, in nanoseconds.
    pub at: u64,
    /// The queried domain's index in the campaign's domain list.
    pub domain: u32,
    /// That domain's rank in sorted-domain order.
    pub rank: u32,
    /// The probe's position in schedule order, which is the order a
    /// pair's RNG stream runs its probes in.
    pub probe: u32,
}

/// One queried domain, parsed and interned once per campaign.
#[derive(Debug, Clone)]
struct CampaignDomain {
    label: Label,
    name: Name,
}

/// One (vantage, resolver) unit of work, with its interned labels and its
/// rank in the canonical (vantage, resolver) string order.
#[derive(Debug, Clone)]
pub(crate) struct PairPlan {
    pub(crate) vantage: Vantage,
    pub(crate) entry: catalog::ResolverEntry,
    pub(crate) vantage_label: Label,
    pub(crate) resolver_label: Label,
    /// Position of this pair when all pairs are sorted by
    /// (vantage label, resolver hostname) — the merge compares this
    /// integer instead of the two strings.
    pub(crate) order: u32,
}

/// Runs campaigns over a resolver population.
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
    entries: Vec<catalog::ResolverEntry>,
    /// The campaign's domains in config (probe) order.
    domains: Vec<CampaignDomain>,
    /// Label-index → rank of the domain in sorted-domain order; the merge
    /// and the per-pair ordering compare these integers instead of domain
    /// strings.
    domain_ranks: Vec<u32>,
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
    /// interned exactly once here — not once per (vantage, resolver) pair.
    pub fn try_with_resolvers(
        config: CampaignConfig,
        entries: Vec<catalog::ResolverEntry>,
    ) -> Result<Self, String> {
        config.validate()?;
        let domains: Vec<CampaignDomain> = config
            .domains
            .iter()
            .map(|d| CampaignDomain {
                label: Label::intern(d),
                // validate() proved every domain parses.
                // detlint:allow(unwrap, validate() proved every domain parses)
                name: Name::parse(d).expect("validated domain"),
            })
            .collect();
        let mut sorted: Vec<Label> = domains.iter().map(|d| d.label).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let table = domains
            .iter()
            .map(|d| d.label.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut domain_ranks = vec![u32::MAX; table];
        for (rank, label) in sorted.iter().enumerate() {
            domain_ranks[label.index()] = rank as u32;
        }
        Ok(Campaign {
            config,
            entries,
            domains,
            domain_ranks,
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

    pub(crate) fn domain_rank(&self, label: Label) -> u32 {
        self.domain_ranks
            .get(label.index())
            .copied()
            .unwrap_or(u32::MAX)
    }

    /// The spans that list `vantage`, in configuration order.
    fn spans_of<'a>(&'a self, vantage: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        let spans = self.config.spans.iter();
        spans.filter(move |s| s.vantages.contains(&vantage))
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
    /// it, and the sharded engine's assembly merges shard files by it
    /// without reading a record.
    pub fn slots(&self, vantage: &str) -> Vec<Slot> {
        // Sized from the schedule, so it never regrows.
        let rounds: usize = self.spans_of(vantage).map(Span::round_count).sum();
        let mut slots = Vec::with_capacity(rounds * self.domains.len());
        let schedule = self.schedule(vantage).enumerate();
        slots.extend(schedule.map(|(probe, (at, domain))| Slot {
            at: at.as_nanos(),
            domain: domain as u32,
            rank: self.domain_rank(self.domains[domain].label),
            probe: probe as u32,
        }));
        // `probe` is unique, so this is the stable sort by (time, rank)
        // without the stable sort's scratch buffer.
        slots.sort_unstable_by_key(|s| (s.at, s.rank, s.probe));
        slots
    }

    /// Runs every probe on the calling thread.
    pub fn run(&self) -> CampaignResult {
        self.assemble(self.generate(1))
    }

    /// Runs the campaign across `threads` worker threads (deterministic —
    /// identical output to [`run`](Self::run) at any thread count).
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
        let plans = self.pair_plans();
        let outputs: Vec<Vec<ProbeRecord>> =
            plans.iter().map(|p| self.run_pair_over(p, false)).collect();
        CampaignResult {
            records: self.merge_pairs(outputs, &plans),
            seed: self.config.seed,
        }
    }

    /// The generation stage: runs every (vantage, resolver) pair — across
    /// `threads` worker threads when `threads > 1` — and returns the
    /// per-pair record streams, each already in canonical order. Output is
    /// independent of the thread count; [`assemble`](Self::assemble)
    /// merges the streams into a [`CampaignResult`]. Split out so the
    /// bench harness can time generation separately from the merge.
    pub fn generate(&self, threads: usize) -> GeneratedPairs {
        let plans = self.pair_plans();
        let threads = threads.max(1).min(plans.len().max(1));
        if threads == 1 {
            let outputs: Vec<Vec<ProbeRecord>> = plans.iter().map(|p| self.run_pair(p)).collect();
            return GeneratedPairs { plans, outputs };
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut outputs: Vec<Vec<ProbeRecord>> = Vec::new();
        outputs.resize_with(plans.len(), Vec::new);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..threads {
                let plans = &plans;
                let next = &next;
                handles.push(scope.spawn(move || {
                    // Each worker returns (pair_index, records): where a
                    // pair ran never affects where its records land.
                    let mut out: Vec<(usize, Vec<ProbeRecord>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= plans.len() {
                            break;
                        }
                        out.push((i, self.run_pair(&plans[i])));
                    }
                    out
                }));
            }
            for h in handles {
                // detlint:allow(unwrap, propagates a worker panic; there is no partial result to salvage)
                for (i, records) in h.join().expect("campaign worker panicked") {
                    outputs[i] = records;
                }
            }
        });
        GeneratedPairs { plans, outputs }
    }

    /// The merge stage: combines generated pair streams into the final
    /// canonical-order result.
    pub fn assemble(&self, generated: GeneratedPairs) -> CampaignResult {
        let GeneratedPairs { plans, outputs } = generated;
        CampaignResult {
            records: self.merge_pairs(outputs, &plans),
            seed: self.config.seed,
        }
    }

    /// Every (vantage, resolver) pair with its interned labels and merge
    /// rank.
    pub(crate) fn pair_plans(&self) -> Vec<PairPlan> {
        let vantages = self.config.vantages();
        let mut plans = Vec::with_capacity(vantages.len() * self.entries.len());
        for v in &vantages {
            let vantage_label = Label::from_static(v.label);
            for e in &self.entries {
                plans.push(PairPlan {
                    vantage: v.clone(),
                    entry: e.clone(),
                    vantage_label,
                    resolver_label: Label::from_static(e.hostname),
                    order: 0,
                });
            }
        }
        // Rank pairs by their (vantage, resolver) strings once; the merge
        // then compares only these integers. Stable sort keeps duplicate
        // pairs in schedule order, mirroring the stable global sort the
        // merge replaces.
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

    /// Runs the full probe series for one (vantage, resolver) pair,
    /// returning its records in canonical (time, domain) order.
    ///
    /// Pair-constant work — routing, fault scope matching, query and HTTP
    /// wire templates — is hoisted into a [`PairContext`] built once here
    /// and borrowed by every probe.
    pub(crate) fn run_pair(&self, plan: &PairPlan) -> Vec<ProbeRecord> {
        self.run_pair_over(plan, true)
    }

    /// [`run_pair`](Self::run_pair) over either wire source. With `cached`
    /// off nothing outlives a probe except what the model says does (the
    /// resolver's caches, the session state, the RNG stream): each probe
    /// is routed, resolves its faults against the whole plan, rebuilds the
    /// pair's load tables and encodes and re-parses every wire, through
    /// [`Prober::probe_fresh`].
    fn run_pair_over(&self, plan: &PairPlan, cached: bool) -> Vec<ProbeRecord> {
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
                cfg,
                faults,
                self.domains.iter().map(|d| &d.name),
            )
        });
        let client = vantage.host(0);
        // A zero (or absent) load model and a cold-only (or absent)
        // session model build no per-pair state at all: the driver then
        // routes statically and starts every connection cold, and records
        // carry no connection mode — byte for byte the seed goldens.
        let load = self.config.load.as_ref().filter(|m| !m.is_zero());
        let mut pair_load = load.map(|m| PairLoad::build(m, vantage, &target));
        let session_cfg = self.config.session.as_ref().filter(|s| s.is_live());
        let mut session = session_cfg.map(|_| {
            SessionState::new(
                self.config.seed,
                vantage.label,
                entry.hostname,
                entry.reuse_policy(),
            )
        });

        let mut slots = self.slots(vantage.label);
        let mut records = Vec::with_capacity(slots.len());
        for (at, domain_idx) in self.schedule(vantage.label) {
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
            records.push(
                ProbeRecord::new(
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
                .with_conn_mode(report.conn_mode),
            );
        }
        // Probes run in schedule order (the RNG stream depends on it);
        // each record then moves to its slot.
        place(&mut records, &mut slots);
        records
    }

    /// Stable k-way merge of per-pair record streams into canonical
    /// (time, vantage, resolver, domain) order. Each stream is already
    /// sorted, so the merge is O(n log pairs) integer-tuple comparisons —
    /// no global sort, no string comparison, no record is copied twice.
    #[deny_alloc]
    pub(crate) fn merge_pairs(
        &self,
        outputs: Vec<Vec<ProbeRecord>>,
        plans: &[PairPlan],
    ) -> Vec<ProbeRecord> {
        debug_assert_eq!(outputs.len(), plans.len());
        let total: usize = outputs.iter().map(Vec::len).sum();
        let mut merged = Vec::with_capacity(total);

        struct Cursor {
            head: Option<ProbeRecord>,
            rest: std::vec::IntoIter<ProbeRecord>,
        }
        let mut cursors: Vec<Cursor> = outputs
            .into_iter()
            .map(|records| {
                let mut rest = records.into_iter();
                Cursor {
                    head: rest.next(),
                    rest,
                }
            })
            .collect();

        // Min-heap keyed by (time, pair rank, domain rank, pair index).
        // The pair index both addresses the cursor and breaks exact-key
        // ties in schedule order (stability).
        let mut heap: BinaryHeap<Reverse<(u64, u32, u32, u32)>> =
            BinaryHeap::with_capacity(cursors.len());
        for (i, c) in cursors.iter().enumerate() {
            if let Some(r) = &c.head {
                heap.push(Reverse((
                    r.at.as_nanos(),
                    plans[i].order,
                    self.domain_rank(r.domain_id()),
                    i as u32,
                )));
            }
        }
        while let Some(Reverse((_, order, _, i))) = heap.pop() {
            let cursor = &mut cursors[i as usize];
            // detlint:allow(unwrap, heap entries are only pushed with a populated head record)
            let record = cursor.head.take().expect("heap entry without record");
            cursor.head = cursor.rest.next();
            if let Some(r) = &cursor.head {
                heap.push(Reverse((
                    r.at.as_nanos(),
                    order,
                    self.domain_rank(r.domain_id()),
                    i,
                )));
            }
            merged.push(record);
        }
        merged
    }
}

/// Moves each of `records`, which are in schedule order, to its slot: the
/// record of probe `slots[p].probe` to position `p`. One cycle of the
/// permutation at a time, so every record moves once, in place; a filled
/// slot's `probe` is overwritten with its own position, which marks it.
fn place(records: &mut [ProbeRecord], slots: &mut [Slot]) {
    debug_assert_eq!(records.len(), slots.len());
    for start in 0..slots.len() {
        let mut p = start;
        loop {
            let q = slots[p].probe as usize;
            slots[p].probe = p as u32;
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
        // Two cycles, a fixed point and a swap: 0→3→1→0, 2 stays, 4↔5.
        let order = [3u32, 0, 2, 1, 5, 4];
        let mut slots: Vec<Slot> = order
            .iter()
            .map(|&probe| Slot {
                at: 0,
                domain: 0,
                rank: 0,
                probe,
            })
            .collect();
        let mut records = result.records[..6].to_vec();
        place(&mut records, &mut slots);
        for (p, &probe) in order.iter().enumerate() {
            assert_eq!(records[p], result.records[probe as usize], "slot {p}");
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
