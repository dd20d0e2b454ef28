//! Bounded-memory campaign aggregates: one fixed-size sketch cell per
//! (vantage, resolver) pair instead of a whole-campaign record vector.
//!
//! A longitudinal campaign can produce millions of probe records; holding
//! them all to compute availability tables and latency distributions is
//! exactly what the sharded engine exists to avoid. An [`AggregateCell`]
//! keeps a pair's [`Tally`] and two [`LatencySketch`]es (responses and
//! pings) — O(pairs) memory however long the campaign runs, and no heap
//! inside a cell. The cells are folded as part of each pair's
//! [`PairFold`](crate::fold::PairFold); [`CampaignAggregates`] is the
//! rollup view of them that [`CampaignFolds`] hands out, for the
//! per-resolver and per-vantage tables.
//!
//! Determinism contract (the resume invariant of `DESIGN.md` §9): every
//! cross-cell rollup is a left-fold over cells in pair-index order, so a
//! one-shot run, an n-thread sharded run and a resumed run produce
//! bit-identical rollups.

use std::collections::BTreeMap;

use edns_stats::LatencySketch;
use obs::Label;

use crate::campaign::Campaign;
use crate::errors::Tally;
use crate::fold::CampaignFolds;
use crate::results::ProbeRecord;

/// The sketch cell shared by per-pair aggregates and their rollups.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateCell {
    /// Success/error tallies by error kind.
    pub availability: Tally,
    /// Response-time sketch over successful probes, ms.
    pub response: LatencySketch,
    /// Paired ICMP RTT sketch, ms.
    pub ping: LatencySketch,
}

impl AggregateCell {
    /// Merges another cell into this one. Only used by cross-cell
    /// rollups — two cells of the *same* pair never merge (a pair lives
    /// in exactly one shard).
    pub fn merge(&mut self, other: &AggregateCell) {
        self.availability.merge(&other.availability);
        self.response.merge(&other.response);
        self.ping.merge(&other.ping);
    }

    /// Total probes observed.
    pub fn probes(&self) -> u64 {
        self.availability.total()
    }
}

/// One (vantage, resolver) pair's aggregate cell, tagged with its pair
/// index and coordinate labels.
#[derive(Debug, Clone, PartialEq)]
pub struct PairAggregate {
    /// The pair's index in campaign schedule order.
    pub pair: u32,
    /// Vantage label.
    pub vantage: Label,
    /// Resolver hostname.
    pub resolver: Label,
    /// The sketch cell.
    pub cell: AggregateCell,
}

/// Fixed-size aggregates for a whole campaign: one cell per pair, in pair
/// (schedule) order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAggregates {
    pub(crate) pairs: Vec<PairAggregate>,
}

impl CampaignAggregates {
    /// The aggregates of an in-memory record stream: the projection of
    /// [`CampaignFolds::of`] the benchmark in `benchmark/` times.
    pub fn of(campaign: &Campaign, records: &[ProbeRecord]) -> CampaignAggregates {
        CampaignFolds::of(campaign, records).into_views().0
    }

    /// The per-pair cells in pair (schedule) order.
    pub fn pairs(&self) -> &[PairAggregate] {
        &self.pairs
    }

    /// Total probes across all cells.
    pub fn probes(&self) -> u64 {
        self.pairs.iter().map(|p| p.cell.probes()).sum()
    }

    /// The whole-campaign rollup: a left-fold over cells in pair order.
    pub fn overall(&self) -> AggregateCell {
        let mut out = AggregateCell::default();
        for p in &self.pairs {
            out.merge(&p.cell);
        }
        out
    }

    /// Per-resolver rollups (merged across vantages in pair order),
    /// sorted by resolver hostname.
    pub fn by_resolver(&self) -> Vec<(&'static str, AggregateCell)> {
        self.rollup(|p| p.resolver)
    }

    /// Per-vantage rollups (merged across resolvers in pair order),
    /// sorted by vantage label.
    pub fn by_vantage(&self) -> Vec<(&'static str, AggregateCell)> {
        self.rollup(|p| p.vantage)
    }

    /// The cells merged by `key`, in pair order, sorted by its label.
    fn rollup(&self, key: impl Fn(&PairAggregate) -> Label) -> Vec<(&'static str, AggregateCell)> {
        let mut rollup: BTreeMap<Label, AggregateCell> = BTreeMap::new();
        for p in &self.pairs {
            rollup.entry(key(p)).or_default().merge(&p.cell);
        }
        let rollup = rollup.into_iter();
        rollup.map(|(label, cell)| (label.as_str(), cell)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;

    fn campaign() -> Campaign {
        let entries = ["dns.google", "doh.ffmuc.net", "chewbacca.meganerd.nl"]
            .into_iter()
            .map(|h| catalog::resolvers::find(h).unwrap())
            .collect();
        Campaign::with_resolvers(CampaignConfig::quick(11, 4), entries)
    }

    #[test]
    fn aggregates_cover_every_record() {
        let c = campaign();
        let result = c.run();
        let agg = CampaignAggregates::of(&c, &result.records);
        assert_eq!(agg.probes(), result.records.len() as u64);
        // 7 vantages × 3 resolvers.
        assert_eq!(agg.pairs().len(), 21);
        let overall = agg.overall();
        assert_eq!(overall.availability.successes, result.successes() as u64);
        assert_eq!(overall.availability.error_count(), result.errors() as u64);
        assert_eq!(overall.response.count(), result.successes() as u64);
    }

    #[test]
    fn rollups_are_sorted_and_consistent() {
        let c = campaign();
        let agg = CampaignAggregates::of(&c, &c.run().records);
        let by_resolver = agg.by_resolver();
        assert_eq!(by_resolver.len(), 3);
        let names: Vec<&str> = by_resolver.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let total: u64 = by_resolver.iter().map(|(_, cell)| cell.probes()).sum();
        assert_eq!(total, agg.probes());
        assert_eq!(agg.by_vantage().len(), 7);
    }
}
