//! Per-(resolver, day) campaign health: mergeable daily cells and a
//! deterministic drift detector.
//!
//! The paper's headline findings are longitudinal — availability dips and
//! latency shifts over months — so the flight recorder keeps one
//! [`HealthCell`] (a [`Tally`] + response-latency sketch delta) per
//! **(pair, day)**, folded during sharded execution and persisted in each
//! shard's `edns-checkpoint` cell file. Memory is O(pairs × days) =
//! O(vantages × resolvers × days) with the vantage count a small constant
//! — bounded however many probes a day carries. A cell is a fixed
//! `size_of::<HealthCell>()` (312 B) with no heap behind it, and a
//! [`HealthSeries`] holds them all in one table, each pair's over its
//! vantage's day range, plus 28 B per pair: at 76 resolvers × 7 vantages,
//! ~166 KB per campaign day.
//!
//! ## Determinism contract (extends `DESIGN.md` §9/§10)
//!
//! Each (pair, day) cell only ever observes its own pair's records in
//! that pair's canonical order, and every rollup to (resolver, day) is a
//! left-fold over pair cells in pair-index order. Both are independent of
//! shard count, thread count and kill/resume boundaries, so
//! [`HealthSeries::of`] over the one-shot record stream equals the
//! sharded engine's checkpoint-installed series bit-for-bit — and the
//! exported timeseries and drift findings are byte-identical across runs.
//!
//! On top sits [`detect_drift`]: each day's cell is compared against a
//! trailing-window baseline of the same resolver's preceding days,
//! flagging availability burns, p95 drift and error-mix shifts — the
//! paper's outage/degradation narrative as machine-detected findings.

use std::collections::BTreeMap;

use edns_stats::LatencySketch;
use obs::Label;

use crate::campaign::Campaign;
use crate::errors::Tally;
use crate::json::Json;
use crate::results::{ProbeOutcome, ProbeRecord};

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
    /// Folds one probe record into the cell (mirrors the campaign
    /// aggregate cell, minus the ping sketch).
    pub fn observe(&mut self, r: &ProbeRecord) {
        match &r.outcome {
            ProbeOutcome::Success { timings, .. } => {
                self.availability.success();
                self.response.observe(timings.total().as_millis_f64());
            }
            ProbeOutcome::Failure { kind, .. } => {
                self.availability.error(*kind);
            }
        }
    }

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

/// One pair's day cells, the layout both engines fold a pair's days into:
/// a cell per day from `first_day` on, present iff it saw a probe.
pub(crate) struct DayCells<'a> {
    pub(crate) first_day: u32,
    pub(crate) cells: &'a mut [HealthCell],
}

impl DayCells<'_> {
    /// The cell of `day`, if the range holds it.
    fn cell(&mut self, day: u32) -> Option<&mut HealthCell> {
        let offset = day.checked_sub(self.first_day)?;
        self.cells.get_mut(offset as usize)
    }

    /// Folds `r` into its day's cell; a record outside the range (one
    /// the campaign did not schedule) is ignored.
    pub(crate) fn observe(&mut self, r: &ProbeRecord) {
        if let Some(cell) = self.cell(day_of(r.at.as_nanos())) {
            cell.observe(r);
        }
    }
}

/// The present cells of day cells from `first_day` on, with their days,
/// in day order.
pub(crate) fn present_days(
    first_day: u32,
    cells: &[HealthCell],
) -> impl Iterator<Item = (u32, &HealthCell)> {
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

/// Where one pair's day cells sit in a [`HealthSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairDays {
    resolver: Label,
    /// The first day of the pair's vantage's range.
    first_day: u32,
    /// The pair's cells are `cells[start..end]`, one per day.
    start: u32,
    end: u32,
}

/// A record's route in a [`HealthSeries`]: its (vantage, resolver)
/// interned-label indices.
fn route_key(vantage: Label, resolver: Label) -> (u32, u32) {
    (vantage.index() as u32, resolver.index() as u32)
}

/// The campaign health timeseries: per-(pair, day) cells, reducible to
/// per-(resolver, day) rows in canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSeries {
    /// Every pair's day cells in one table, pair after pair in pair-index
    /// order, each pair's over its vantage's days ([`Campaign::days_of`]).
    /// Sized once, so folding a record never allocates.
    cells: Vec<HealthCell>,
    /// Per pair, in pair-index order.
    pairs: Vec<PairDays>,
    /// (vantage, resolver) interned-label indices → pair index, sorted,
    /// the first pair of a duplicated coordinate only: routes a record.
    /// Process-local indices, but only used for routing — output order
    /// comes from pair indices and hostnames.
    routes: Vec<((u32, u32), u32)>,
}

impl HealthSeries {
    /// An empty series shaped for `campaign`'s pair space and days.
    pub fn for_campaign(campaign: &Campaign) -> HealthSeries {
        let plans = campaign.pair_plans();
        let mut pairs = Vec::with_capacity(plans.len());
        let mut end = 0u32;
        for p in &plans {
            let days = campaign.days_of(p.vantage.label);
            let start = end;
            end += days.len() as u32;
            pairs.push(PairDays {
                resolver: p.resolver_label,
                first_day: days.start,
                start,
                end,
            });
        }
        let mut routes: Vec<((u32, u32), u32)> = (0u32..)
            .zip(&plans)
            .map(|(i, p)| (route_key(p.vantage_label, p.resolver_label), i))
            .collect();
        routes.sort_by_key(|&(key, _)| key);
        routes.dedup_by_key(|&mut (key, _)| key);
        HealthSeries {
            cells: vec![HealthCell::default(); end as usize],
            pairs,
            routes,
        }
    }

    /// The series of an in-memory record stream — the one-shot reference
    /// the sharded engine's checkpoint-installed series must reproduce
    /// bit-for-bit. Records are routed to their pair; the merged stream
    /// preserves each pair's internal order, so per-(pair, day) cells see
    /// the same observation sequence as per-shard execution.
    pub fn of(campaign: &Campaign, records: &[ProbeRecord]) -> HealthSeries {
        let mut series = HealthSeries::for_campaign(campaign);
        for r in records {
            series.observe(r);
        }
        series
    }

    /// Routes one record to its pair and folds it into its day's cell.
    /// Records of a pair or a day the campaign does not schedule are
    /// ignored. Allocation-free.
    pub fn observe(&mut self, r: &ProbeRecord) {
        let key = route_key(r.vantage_id(), r.resolver_id());
        let Ok(i) = self.routes.binary_search_by_key(&key, |&(k, _)| k) else {
            return;
        };
        if let Some(mut days) = self.days_mut(self.routes[i].1) {
            days.observe(r);
        }
    }

    /// Pair `pair`'s day cells.
    fn days_mut(&mut self, pair: u32) -> Option<DayCells<'_>> {
        let p = *self.pairs.get(pair as usize)?;
        Some(DayCells {
            first_day: p.first_day,
            cells: &mut self.cells[p.start as usize..p.end as usize],
        })
    }

    /// Installs a checkpointed (pair, day) cell wholesale (resume path).
    /// The cell must hold a probe, fall in the pair's days, and be the
    /// day's first.
    pub fn install(&mut self, pair: u32, day: u32, cell: HealthCell) -> Result<(), String> {
        if cell.probes() == 0 {
            return Err(format!(
                "pair {pair}'s health cell for day {day} holds no probe"
            ));
        }
        let mut days = self
            .days_mut(pair)
            .ok_or_else(|| format!("health cell for pair {pair}, past the campaign's pairs"))?;
        let range = days.first_day..days.first_day + days.cells.len() as u32;
        let slot = days.cell(day).ok_or_else(|| {
            format!("pair {pair}'s health cell for day {day} lies outside its days {range:?}")
        })?;
        if slot.probes() > 0 {
            return Err(format!("pair {pair} has two health cells for day {day}"));
        }
        *slot = cell;
        Ok(())
    }

    /// Populated (pair, day) cells in ascending key order.
    pub fn pair_cells(&self) -> impl Iterator<Item = ((u32, u32), &HealthCell)> {
        self.pairs.iter().enumerate().flat_map(|(pair, p)| {
            let cells = &self.cells[p.start as usize..p.end as usize];
            present_days(p.first_day, cells).map(move |(day, c)| ((pair as u32, day), c))
        })
    }

    /// Populated cell count.
    pub fn len(&self) -> usize {
        self.pair_cells().count()
    }

    /// Whether no cell is populated.
    pub fn is_empty(&self) -> bool {
        self.pair_cells().next().is_none()
    }

    /// Total probes across all cells.
    pub fn probes(&self) -> u64 {
        self.cells.iter().map(HealthCell::probes).sum()
    }

    /// Reduces to (resolver, day) rows: pair cells merge in pair-index
    /// order, rows sort by (resolver hostname, day). Deterministic and
    /// shard-count-independent.
    pub fn resolver_rows(&self) -> Vec<HealthRow> {
        let mut map: BTreeMap<(Label, u32), HealthCell> = BTreeMap::new();
        for ((pair, day), cell) in self.pair_cells() {
            let resolver = self.pairs[pair as usize].resolver;
            map.entry((resolver, day)).or_default().merge(cell);
        }
        map.into_iter()
            .map(|((resolver, day), cell)| HealthRow {
                resolver,
                day,
                cell,
            })
            .collect()
    }

    /// Exports the (resolver, day) timeseries as JSONL, one row per line
    /// in (resolver hostname, day) order. Latency fields are omitted on
    /// days with no successful probe. Byte-deterministic for a fixed
    /// seed; identical across one-shot, sharded and resumed runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in self.resolver_rows() {
            let errors = row.cell.availability.errors();
            let errors = errors.map(|(k, c)| (k.label().to_string(), Json::Int(c as i64)));
            let mut fields = vec![
                ("resolver", Json::Str(row.resolver.as_str().to_string())),
                ("day", Json::Int(row.day as i64)),
                ("probes", Json::Int(row.cell.probes() as i64)),
                (
                    "successes",
                    Json::Int(row.cell.availability.successes as i64),
                ),
                (
                    "availability",
                    Json::Float(row.cell.availability.availability()),
                ),
                ("errors", Json::Object(errors.collect())),
            ];
            if let Some(mean) = row.cell.response.mean() {
                fields.push(("mean_ms", Json::Float(mean)));
            }
            if let Some(p50) = row.cell.response.quantile(0.5) {
                fields.push(("p50_ms", Json::Float(p50)));
            }
            if let Some(p95) = row.cell.response.quantile(0.95) {
                fields.push(("p95_ms", Json::Float(p95)));
            }
            out.push_str(&Json::object(fields).to_string_compact());
            out.push('\n');
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
/// config, so two same-seed campaigns produce identical findings.
pub fn detect_drift(rows: &[HealthRow], cfg: &DriftConfig) -> Vec<DriftFinding> {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < rows.len() {
        // One resolver's contiguous, day-ascending run of rows.
        let resolver = rows[i].resolver;
        let mut j = i;
        while j < rows.len() && rows[j].resolver == resolver {
            j += 1;
        }
        let group = &rows[i..j];
        for (pos, row) in group.iter().enumerate() {
            let mut baseline = HealthCell::default();
            for prior in &group[..pos] {
                if prior.day < row.day && row.day - prior.day <= cfg.window_days {
                    baseline.merge(&prior.cell);
                }
            }
            if baseline.probes() < cfg.min_probes || row.cell.probes() < cfg.min_probes {
                continue;
            }
            let day_avail = row.cell.availability.availability();
            let base_avail = baseline.availability.availability();
            if day_avail + cfg.availability_drop <= base_avail {
                findings.push(DriftFinding {
                    resolver,
                    day: row.day,
                    kind: DriftKind::AvailabilityBurn,
                    value: day_avail,
                    baseline: base_avail,
                    from_error: None,
                    to_error: None,
                });
            }
            if let (Some(day_p95), Some(base_p95)) = (
                row.cell.response.quantile(0.95),
                baseline.response.quantile(0.95),
            ) {
                if base_p95 > 0.0 && day_p95 > base_p95 * cfg.p95_ratio {
                    findings.push(DriftFinding {
                        resolver,
                        day: row.day,
                        kind: DriftKind::LatencyDrift,
                        value: day_p95,
                        baseline: base_p95,
                        from_error: None,
                        to_error: None,
                    });
                }
            }
            if row.cell.availability.error_count() >= cfg.min_errors {
                if let (Some(day_err), Some(base_err)) = (
                    row.cell.availability.dominant_error(),
                    baseline.availability.dominant_error(),
                ) {
                    if day_err != base_err {
                        findings.push(DriftFinding {
                            resolver,
                            day: row.day,
                            kind: DriftKind::ErrorMixShift,
                            value: row.cell.availability.error_count() as f64,
                            baseline: baseline.availability.error_count() as f64,
                            from_error: Some(Label::intern(base_err)),
                            to_error: Some(Label::intern(day_err)),
                        });
                    }
                }
            }
        }
        i = j;
    }
    findings
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
