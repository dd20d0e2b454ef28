//! Bounded-memory campaign aggregates: one fixed-size sketch cell per
//! (vantage, resolver) pair instead of a whole-campaign record vector.
//!
//! A longitudinal campaign can produce millions of probe records; holding
//! them all to compute availability tables and latency distributions is
//! exactly what the sharded engine exists to avoid. [`CampaignAggregates`]
//! keeps, per pair, a [`Tally`] and two [`LatencySketch`]es (responses
//! and pings) — O(pairs) memory however long the campaign runs, and no
//! heap inside a cell.
//!
//! Determinism contract (the resume invariant of `DESIGN.md` §9): every
//! cell only ever observes its own pair's records in that pair's canonical
//! (time, domain) order, and every cross-cell rollup is a left-fold over
//! cells in pair-index order. Both are independent of shard count and of
//! where a kill/resume boundary fell, so a one-shot run, an n-thread
//! sharded run and a resumed run produce bit-identical aggregates.

use std::collections::BTreeMap;

use edns_stats::LatencySketch;
use obs::Label;

use crate::campaign::Campaign;
use crate::errors::Tally;
use crate::results::{ProbeOutcome, ProbeRecord};

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
    /// Folds one probe record into the cell.
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
        if let Some(p) = r.ping {
            self.ping.observe(p.as_millis_f64());
        }
    }

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
    pairs: Vec<PairAggregate>,
    /// (vantage, resolver) → pair index, for record routing.
    index: BTreeMap<(Label, Label), u32>,
}

impl CampaignAggregates {
    /// Empty aggregates shaped for `campaign`'s pair space.
    pub fn for_campaign(campaign: &Campaign) -> CampaignAggregates {
        let plans = campaign.pair_plans();
        let mut pairs = Vec::with_capacity(plans.len());
        let mut index = BTreeMap::new();
        for (i, p) in plans.iter().enumerate() {
            pairs.push(PairAggregate {
                pair: i as u32,
                vantage: p.vantage_label,
                resolver: p.resolver_label,
                cell: AggregateCell::default(),
            });
            index
                .entry((p.vantage_label, p.resolver_label))
                .or_insert(i as u32);
        }
        CampaignAggregates { pairs, index }
    }

    /// Aggregates of an in-memory record stream — the one-shot reference
    /// path the sharded engine must reproduce bit-for-bit.
    pub fn of(campaign: &Campaign, records: &[ProbeRecord]) -> CampaignAggregates {
        let mut agg = CampaignAggregates::for_campaign(campaign);
        for r in records {
            agg.observe(r);
        }
        agg
    }

    /// Routes one record to its pair's cell. Records whose (vantage,
    /// resolver) pair is not part of the campaign are ignored.
    pub fn observe(&mut self, r: &ProbeRecord) {
        if let Some(&i) = self.index.get(&(r.vantage_id(), r.resolver_id())) {
            self.pairs[i as usize].cell.observe(r);
        }
    }

    /// Installs a checkpointed pair aggregate (resume path). Returns an
    /// error when the pair index or its coordinates do not match this
    /// campaign's plan — a checkpoint from a different configuration.
    pub fn install(&mut self, pair: &PairAggregate) -> Result<(), String> {
        let slot = self
            .pairs
            .get_mut(pair.pair as usize)
            .ok_or_else(|| format!("pair index {} out of range", pair.pair))?;
        if slot.vantage != pair.vantage || slot.resolver != pair.resolver {
            return Err(format!(
                "pair {} is ({}, {}) in the plan but ({}, {}) in the checkpoint",
                pair.pair,
                slot.vantage.as_str(),
                slot.resolver.as_str(),
                pair.vantage.as_str(),
                pair.resolver.as_str()
            ));
        }
        slot.cell = pair.cell.clone();
        Ok(())
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
        let mut rollup: BTreeMap<Label, AggregateCell> = BTreeMap::new();
        for p in &self.pairs {
            rollup.entry(p.resolver).or_default().merge(&p.cell);
        }
        rollup
            .into_iter()
            .map(|(label, cell)| (label.as_str(), cell))
            .collect()
    }

    /// Per-vantage rollups (merged across resolvers in pair order),
    /// sorted by vantage label.
    pub fn by_vantage(&self) -> Vec<(&'static str, AggregateCell)> {
        let mut rollup: BTreeMap<Label, AggregateCell> = BTreeMap::new();
        for p in &self.pairs {
            rollup.entry(p.vantage).or_default().merge(&p.cell);
        }
        rollup
            .into_iter()
            .map(|(label, cell)| (label.as_str(), cell))
            .collect()
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

    #[test]
    fn install_rejects_mismatched_pairs() {
        let c = campaign();
        let agg = CampaignAggregates::of(&c, &c.run().records);
        let mut fresh = CampaignAggregates::for_campaign(&c);
        for p in agg.pairs() {
            fresh.install(p).unwrap();
        }
        assert_eq!(fresh, agg);

        let mut bad = agg.pairs()[0].clone();
        bad.pair = 999;
        assert!(fresh.install(&bad).unwrap_err().contains("out of range"));
        let mut swapped = agg.pairs()[0].clone();
        swapped.pair = 1;
        assert!(fresh.install(&swapped).is_err());
    }

    #[test]
    fn unknown_records_are_ignored() {
        let c = campaign();
        let mut agg = CampaignAggregates::for_campaign(&c);
        let other = Campaign::with_resolvers(
            CampaignConfig::quick(11, 1),
            vec![catalog::resolvers::find("dns.quad9.net").unwrap()],
        );
        for r in &other.run().records {
            agg.observe(r);
        }
        assert_eq!(agg.probes(), 0);
    }
}
