//! Per-(resolver, day) campaign health: mergeable daily cells and a
//! deterministic drift detector.
//!
//! The paper's headline findings are longitudinal — availability dips and
//! latency shifts over months — so each pair's
//! [`PairFold`](crate::fold::PairFold) folds one [`HealthCell`] (a
//! [`Tally`] + response-latency sketch delta) per **(pair, day)**. Those
//! live only while a pair is folded — in the sharded engine's per-pair
//! scratch, then in its shard's `edns-checkpoint` cell file — and in the
//! (pair, day) scratch of [`CampaignFolds::of`]. What a campaign keeps and
//! exports is a [`HealthSeries`]: one cell per **(resolver, day)**, each
//! the merge of its pairs' cells, over the union of its pairs' vantage
//! days, plus a few words per pair. Memory is O(resolvers × days),
//! bounded however many probes a day carries and however many vantages
//! probe a resolver: a cell is a fixed `size_of::<HealthCell>()` (312 B)
//! with no heap behind it, so at 76 resolvers the rows take ~23.7 KB per
//! campaign day.
//!
//! ## Determinism contract (extends `DESIGN.md` §9/§10)
//!
//! Each (pair, day) cell only ever observes its own pair's records in
//! that pair's canonical order, and each (resolver, day) row is a
//! left-fold of its pairs' cells in pair-index order: both engines merge
//! pair after pair through one routine, the sharded engine as it installs
//! each cell file (shards in order, each listing its pairs in order). Both
//! are independent of shard count, thread count and kill/resume
//! boundaries, so [`HealthSeries::of`] over the one-shot record stream
//! equals the sharded engine's checkpoint-installed series bit-for-bit —
//! and the exported timeseries and drift findings are byte-identical
//! across runs.
//!
//! On top sits [`detect_drift`]: each day's cell is compared against a
//! trailing-window baseline of the same resolver's preceding days,
//! flagging availability burns, p95 drift and error-mix shifts — the
//! paper's outage/degradation narrative as machine-detected findings.
//! [`HealthSeries::detect_drift`] runs the same routine over the series'
//! rows where they lie, one resolver's at a time, so the engines never
//! hold a second copy of the table.

use std::fmt::Write as _;
use std::ops::Range;

use edns_stats::LatencySketch;
use obs::Label;

use crate::campaign::Campaign;
use crate::errors::Tally;
use crate::fold::CampaignFolds;
use crate::json;
use crate::results::ProbeRecord;

/// Simulated nanoseconds per campaign day.
pub const NANOS_PER_DAY: u64 = 86_400_000_000_000;

/// The campaign day index a simulated timestamp falls in.
pub fn day_of(nanos: u64) -> u32 {
    (nanos / NANOS_PER_DAY) as u32
}

/// One day's mergeable health delta: an availability tally plus a
/// response-latency sketch over that day's successful probes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthCell {
    /// Success/error tallies by error kind.
    pub availability: Tally,
    /// Response-time sketch over the day's successful probes, ms.
    pub response: LatencySketch,
}

impl HealthCell {
    /// Merges another cell into this one (bucket counts add exactly,
    /// moments combine pairwise — a left-fold in a fixed order is
    /// deterministic).
    pub fn merge(&mut self, other: &HealthCell) {
        self.availability.merge(&other.availability);
        self.response.merge(&other.response);
    }

    /// Probes observed.
    pub fn probes(&self) -> u64 {
        self.availability.total()
    }
}

/// The present cells of day cells from `first_day` on, with their days,
/// in day order.
pub(crate) fn present_days(
    first_day: u32,
    cells: &[HealthCell],
) -> impl Iterator<Item = (u32, &HealthCell)> + Clone {
    (first_day..).zip(cells).filter(|(_, c)| c.probes() > 0)
}

/// One (resolver, day) row of the reduced health timeseries.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRow {
    /// Resolver hostname.
    pub resolver: Label,
    /// Campaign day index.
    pub day: u32,
    /// The day's merged cell (across every vantage probing the resolver).
    pub cell: HealthCell,
}

/// The campaign health timeseries: per-(resolver, day) rows in
/// (resolver hostname, day) order, each the merge of its pairs' day cells
/// in pair-index order.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSeries {
    /// A row per (resolver, day) in one table, resolver after resolver
    /// in hostname order, each resolver's over `days`.
    rows: Vec<HealthCell>,
    /// The resolvers, in hostname order.
    resolvers: Vec<Label>,
    /// The campaign's days: the union of every pair's. Every vantage
    /// probes every resolver, so each resolver's pairs span them all.
    days: Range<u32>,
    /// Per pair, in pair-index order: its resolver's index in `resolvers`
    /// and its vantage's days ([`Campaign::days_of`]).
    pairs: Vec<(u32, Range<u32>)>,
    /// Pairs merged so far: pairs merge in pair-index order, each once.
    merged: u32,
}

impl HealthSeries {
    /// The series of an in-memory record stream: the projection of
    /// [`CampaignFolds::of`] the benchmark in `benchmark/` times.
    pub fn of(campaign: &Campaign, records: &[ProbeRecord]) -> HealthSeries {
        CampaignFolds::of(campaign, records).into_views().1
    }

    /// Empty rows for pairs of these resolvers and vantage days, in
    /// pair-index order.
    pub(crate) fn for_pairs(pairs: &[(Label, Range<u32>)]) -> HealthSeries {
        let mut resolvers: Vec<Label> = pairs.iter().map(|&(resolver, _)| resolver).collect();
        resolvers.sort();
        resolvers.dedup();
        let spans = pairs.iter().map(|(_, days)| days).filter(|d| !d.is_empty());
        let first = spans.clone().map(|d| d.start).min().unwrap_or(0);
        let days = first..spans.map(|d| d.end).max().unwrap_or(0);
        let pairs = pairs.iter().map(|(resolver, days)| {
            let index = resolvers.partition_point(|r| r < resolver);
            (index as u32, days.clone())
        });
        HealthSeries {
            rows: vec![HealthCell::default(); resolvers.len() * days.len()],
            pairs: pairs.collect(),
            resolvers,
            days,
            merged: 0,
        }
    }

    /// The next pair to merge.
    pub(crate) fn next_pair(&self) -> u32 {
        self.merged
    }

    /// Pair `pair`'s vantage's days.
    pub(crate) fn days_of(&self, pair: u32) -> Range<u32> {
        self.pairs[pair as usize].1.clone()
    }

    /// Merges the next pair's day cells — present, in day order, within its
    /// days — into its resolver's rows: the one place rows are built.
    pub(crate) fn merge_pair<'a>(
        &mut self,
        cells: impl IntoIterator<Item = (u32, &'a HealthCell)>,
    ) {
        let resolver = self.pairs[self.merged as usize].0 as usize;
        let rows = &mut self.rows[resolver * self.days.len()..][..self.days.len()];
        for (day, cell) in cells {
            rows[(day - self.days.start) as usize].merge(cell);
        }
        self.merged += 1;
    }

    /// Each resolver, in hostname order, with its present rows in day
    /// order, read where they lie.
    fn by_resolver(
        &self,
    ) -> impl Iterator<Item = (Label, impl Iterator<Item = (u32, &HealthCell)> + Clone)> {
        // A campaign of no days has no rows to chunk.
        let rows = self.rows.chunks(self.days.len().max(1));
        let first_day = self.days.start;
        self.resolvers
            .iter()
            .zip(rows)
            .map(move |(&resolver, rows)| (resolver, present_days(first_day, rows)))
    }

    /// The present rows, in (resolver hostname, day) order.
    fn present_rows(&self) -> impl Iterator<Item = (Label, u32, &HealthCell)> {
        self.by_resolver()
            .flat_map(|(resolver, rows)| rows.map(move |(day, cell)| (resolver, day, cell)))
    }

    /// Total probes across all rows.
    pub fn probes(&self) -> u64 {
        self.rows.iter().map(HealthCell::probes).sum()
    }

    /// The (resolver, day) rows that saw a probe, in (resolver hostname,
    /// day) order. Deterministic and shard-count-independent.
    pub fn resolver_rows(&self) -> Vec<HealthRow> {
        // One buffer of the table's size: a collect from the flat map would
        // double its way there, a reallocation per step.
        let mut rows = Vec::with_capacity(self.rows.len());
        rows.extend(self.present_rows().map(|(resolver, day, cell)| HealthRow {
            resolver,
            day,
            cell: cell.clone(),
        }));
        rows
    }

    /// [`detect_drift`] over these rows where they lie, one resolver's at a
    /// time: the same findings as over [`resolver_rows`](Self::resolver_rows),
    /// without the copy of the table that takes.
    pub fn detect_drift(&self, cfg: &DriftConfig) -> Vec<DriftFinding> {
        let mut findings = Vec::new();
        for (resolver, rows) in self.by_resolver() {
            resolver_drift(resolver, rows, cfg, &mut findings);
        }
        findings
    }

    /// Exports the (resolver, day) timeseries as JSONL, one row per line
    /// in (resolver hostname, day) order, keys sorted. Latency fields are
    /// omitted on days with no successful probe. Byte-deterministic for a
    /// fixed seed; identical across one-shot, sharded and resumed runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (resolver, day, cell) in self.present_rows() {
            let (availability, response) = (&cell.availability, &cell.response);
            out.push_str("{\"availability\":");
            json::write_float(&mut out, availability.availability());
            let _ = write!(out, ",\"day\":{day},\"errors\":{{");
            for (i, (kind, n)) in availability.errors().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                json::write_str(&mut out, kind.label());
                let _ = write!(out, ":{n}");
            }
            out.push('}');
            let latency = [
                (",\"mean_ms\":", response.mean()),
                (",\"p50_ms\":", response.quantile(0.5)),
                (",\"p95_ms\":", response.quantile(0.95)),
            ];
            for (key, ms) in latency {
                if let Some(ms) = ms {
                    out.push_str(key);
                    json::write_float(&mut out, ms);
                }
            }
            let _ = write!(out, ",\"probes\":{},\"resolver\":", cell.probes());
            json::write_str(&mut out, resolver.as_str());
            let _ = writeln!(out, ",\"successes\":{}}}", availability.successes);
        }
        out
    }
}

/// Thresholds for [`detect_drift`]. The defaults are calibrated to the
/// longitudinal schedule (~100 probes per resolver-day across vantages):
/// loose enough to ignore sampling noise, tight enough that a scheduled
/// outage or brownout window is flagged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Baseline window: each day compares against the merge of up to this
    /// many preceding days.
    pub window_days: u32,
    /// Minimum probes on both sides before a day is judged at all.
    pub min_probes: u64,
    /// Availability burn: flagged when a day's availability drops at
    /// least this far (absolute) below the baseline's.
    pub availability_drop: f64,
    /// Latency drift: flagged when a day's p95 exceeds baseline p95 by
    /// this ratio.
    pub p95_ratio: f64,
    /// Error-mix shift: minimum errors on the day before the dominant
    /// error class is compared.
    pub min_errors: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window_days: 7,
            min_probes: 20,
            availability_drop: 0.05,
            p95_ratio: 1.5,
            min_errors: 3,
        }
    }
}

/// What kind of drift a finding flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftKind {
    /// The day's availability fell below the trailing baseline.
    AvailabilityBurn,
    /// The day's p95 response time rose above the trailing baseline.
    LatencyDrift,
    /// The day's dominant error class changed against the baseline.
    ErrorMixShift,
}

impl DriftKind {
    /// The finding's stable code (also its journal event code).
    pub fn code(self) -> &'static str {
        match self {
            DriftKind::AvailabilityBurn => obs::journal::codes::AVAILABILITY_BURN,
            DriftKind::LatencyDrift => obs::journal::codes::P95_DRIFT,
            DriftKind::ErrorMixShift => obs::journal::codes::ERROR_MIX_SHIFT,
        }
    }
}

/// One machine-detected drift finding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftFinding {
    /// Resolver whose day drifted.
    pub resolver: Label,
    /// The flagged day.
    pub day: u32,
    /// What drifted.
    pub kind: DriftKind,
    /// The day's value (availability fraction, p95 ms, or error count).
    pub value: f64,
    /// The trailing-window baseline's value for the same quantity.
    pub baseline: f64,
    /// Error-mix shifts: the baseline's dominant error class.
    pub from_error: Option<Label>,
    /// Error-mix shifts: the day's dominant error class.
    pub to_error: Option<Label>,
}

/// Compares each (resolver, day) row against a trailing-window baseline
/// of the same resolver's preceding days. Findings come out sorted by
/// (resolver hostname, day, kind) — a pure function of the rows and the
/// config, so two same-seed campaigns produce identical findings. The
/// engine runs [`HealthSeries::detect_drift`], the same routine over its
/// rows in place.
pub fn detect_drift(rows: &[HealthRow], cfg: &DriftConfig) -> Vec<DriftFinding> {
    let mut findings = Vec::new();
    for group in rows.chunk_by(|a, b| a.resolver == b.resolver) {
        let days = group.iter().map(|row| (row.day, &row.cell));
        resolver_drift(group[0].resolver, days, cfg, &mut findings);
    }
    findings
}

/// The drift findings of one resolver's contiguous, day-ascending run of
/// rows, appended to `findings`. Each row's baseline is the merge, in row
/// order, of the rows before it within `cfg.window_days` days.
fn resolver_drift<'a>(
    resolver: Label,
    rows: impl Iterator<Item = (u32, &'a HealthCell)> + Clone,
    cfg: &DriftConfig,
    findings: &mut Vec<DriftFinding>,
) {
    for (pos, (day, cell)) in rows.clone().enumerate() {
        let mut baseline = HealthCell::default();
        for (prior_day, prior) in rows.clone().take(pos) {
            if prior_day < day && day - prior_day <= cfg.window_days {
                baseline.merge(prior);
            }
        }
        if baseline.probes() < cfg.min_probes || cell.probes() < cfg.min_probes {
            continue;
        }
        let day_avail = cell.availability.availability();
        let base_avail = baseline.availability.availability();
        if day_avail + cfg.availability_drop <= base_avail {
            findings.push(DriftFinding {
                resolver,
                day,
                kind: DriftKind::AvailabilityBurn,
                value: day_avail,
                baseline: base_avail,
                from_error: None,
                to_error: None,
            });
        }
        if let (Some(day_p95), Some(base_p95)) = (
            cell.response.quantile(0.95),
            baseline.response.quantile(0.95),
        ) {
            if base_p95 > 0.0 && day_p95 > base_p95 * cfg.p95_ratio {
                findings.push(DriftFinding {
                    resolver,
                    day,
                    kind: DriftKind::LatencyDrift,
                    value: day_p95,
                    baseline: base_p95,
                    from_error: None,
                    to_error: None,
                });
            }
        }
        if cell.availability.error_count() >= cfg.min_errors {
            if let (Some(day_err), Some(base_err)) = (
                cell.availability.dominant_error(),
                baseline.availability.dominant_error(),
            ) {
                if day_err != base_err {
                    findings.push(DriftFinding {
                        resolver,
                        day,
                        kind: DriftKind::ErrorMixShift,
                        value: cell.availability.error_count() as f64,
                        baseline: baseline.availability.error_count() as f64,
                        from_error: Some(Label::intern(base_err)),
                        to_error: Some(Label::intern(day_err)),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use netsim::faults::{FaultKind, FaultPlan, FaultScope};
    use netsim::SimTime;

    fn entries() -> Vec<catalog::ResolverEntry> {
        ["dns.google", "doh.ffmuc.net"]
            .into_iter()
            .filter_map(catalog::resolvers::find)
            .collect()
    }

    #[test]
    fn day_indexing_matches_the_campaign_epoch() {
        assert_eq!(day_of(0), 0);
        assert_eq!(day_of(NANOS_PER_DAY - 1), 0);
        assert_eq!(day_of(NANOS_PER_DAY), 1);
        assert_eq!(day_of(10 * NANOS_PER_DAY + 5), 10);
    }

    #[test]
    fn series_covers_every_record_once() {
        let c = Campaign::with_resolvers(CampaignConfig::longitudinal(3, 4), entries());
        let result = c.run();
        let series = HealthSeries::of(&c, &result.records);
        assert_eq!(series.probes(), result.records.len() as u64);
        // 2 resolvers × 4 days of rows.
        let rows = series.resolver_rows();
        assert_eq!(rows.len(), 8);
        // Rows are (resolver, day)-ordered.
        let keys: Vec<(&str, u32)> = rows.iter().map(|r| (r.resolver.as_str(), r.day)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn jsonl_export_is_deterministic() {
        let build = || {
            let c = Campaign::with_resolvers(CampaignConfig::longitudinal(9, 3), entries());
            let r = c.run();
            HealthSeries::of(&c, &r.records).to_jsonl()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"resolver\":\"dns.google\""), "{a}");
        assert!(a.contains("\"day\":2"), "{a}");
    }

    #[test]
    fn scheduled_outage_is_flagged_as_drift() {
        // Ten clean days, then a full-day site outage against one
        // resolver: the detector must flag an availability burn (and the
        // error-mix shift that comes with it) on exactly that day.
        let mut config = CampaignConfig::longitudinal(7, 14);
        let mut faults = FaultPlan::with_seed(7);
        faults.push(
            FaultKind::SiteOutage,
            FaultScope::Resolver("dns.google".to_string()),
            SimTime::from_nanos(10 * NANOS_PER_DAY),
            SimTime::from_nanos(11 * NANOS_PER_DAY),
        );
        config.faults = faults;
        let c = Campaign::with_resolvers(config, entries());
        let series = HealthSeries::of(&c, &c.run().records);
        let findings = detect_drift(&series.resolver_rows(), &DriftConfig::default());
        let burns: Vec<&DriftFinding> = findings
            .iter()
            .filter(|f| f.kind == DriftKind::AvailabilityBurn)
            .collect();
        assert!(
            burns
                .iter()
                .any(|f| f.resolver.as_str() == "dns.google" && f.day == 10),
            "outage day not flagged: {findings:?}"
        );
        // The untouched resolver stays clean.
        assert!(
            burns.iter().all(|f| f.resolver.as_str() != "doh.ffmuc.net"),
            "{findings:?}"
        );
        // Deterministic output order: (resolver, day, kind).
        let keys: Vec<(&str, u32, DriftKind)> = findings
            .iter()
            .map(|f| (f.resolver.as_str(), f.day, f.kind))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn quiet_campaigns_produce_no_findings() {
        let c = Campaign::with_resolvers(CampaignConfig::longitudinal(5, 10), entries());
        let series = HealthSeries::of(&c, &c.run().records);
        let findings = detect_drift(&series.resolver_rows(), &DriftConfig::default());
        assert!(
            findings
                .iter()
                .all(|f| f.kind != DriftKind::AvailabilityBurn),
            "clean campaign flagged burns: {findings:?}"
        );
    }
}
