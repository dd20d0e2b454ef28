//! One fold per (vantage, resolver) pair, and the campaign's table of them.
//!
//! [`PairFold::observe`] folds a record into its pair's aggregate cell and
//! metrics cell and lists its retry exhaustion, and
//! [`HealthCell::observe`] into its day cell: the sharded engine runs both
//! over each pair's records as it generates a shard ([`fold_pair`]),
//! [`CampaignFolds::of`] per record of an in-memory campaign, and
//! [`HealthSeries::of`] the day cells alone. [`CampaignFolds`] is one pair
//! table beside the (resolver, day) rows of a [`HealthSeries`], with one
//! route from a record to its pair and one
//! [`install`](CampaignFolds::install) of a cell file's [`PairCells`],
//! which merges the pair's day cells into the rows and keeps none of
//! them; the engines hand out its projections, the metrics snapshot,
//! [`CampaignAggregates`] and [`HealthSeries`]. A metrics cell's
//! error tallies are left to the aggregate's tally, which the snapshot
//! reads them from and the cell file stores as their one copy, so folding
//! a record allocates nothing but a retry exhaustion's entry. Every pair's
//! cells observe only its own records, in its canonical order, and merge
//! into the rows in pair-index order, so the folds are the same at any
//! shard count, thread count and kill/resume schedule (`DESIGN.md` §9).

use obs::{CellMetrics, CellSnapshot, Label, MetricKey, MetricsSnapshot};

use crate::aggregate::{AggregateCell, CampaignAggregates, PairAggregate};
use crate::campaign::{observe_cell, Campaign, PairPlan};
use crate::checkpoint::{PairCells, RetryExhausted};
use crate::health::{day_of, present_days, HealthCell, HealthSeries};
use crate::results::{ProbeOutcome, ProbeRecord};

/// One pair's aggregate and metrics cells and retry exhaustions, borrowed
/// from a shard's [`PairCells`] or a [`CampaignFolds`] table; its day
/// cells fold beside them ([`HealthCell::observe`]).
pub(crate) struct PairFold<'a> {
    pub(crate) pair: u32,
    pub(crate) aggregate: &'a mut AggregateCell,
    /// Without error tallies: the aggregate's tally holds them.
    pub(crate) metrics: &'a mut CellMetrics,
    pub(crate) exhausted: &'a mut Vec<RetryExhausted>,
}

impl PairFold<'_> {
    /// Folds one of the pair's records into its aggregate and metrics
    /// cells, and lists it when it failed with its retry budget spent.
    pub(crate) fn observe(&mut self, r: &ProbeRecord) {
        match &r.outcome {
            ProbeOutcome::Success { timings, .. } => {
                self.aggregate.availability.success();
                self.aggregate
                    .response
                    .observe(timings.total().as_millis_f64());
            }
            ProbeOutcome::Failure { kind, .. } => {
                self.aggregate.availability.error(*kind);
                if let Some(retry) = r.retry.filter(|info| info.exhausted(&r.outcome)) {
                    self.exhausted.push(RetryExhausted {
                        pair: self.pair,
                        at: r.at.as_nanos(),
                        attempts: u32::from(retry.attempts),
                    });
                }
            }
        }
        if let Some(ping) = r.ping() {
            self.aggregate.ping.observe(ping.as_millis_f64());
        }
        observe_cell(self.metrics, r);
    }
}

/// Pair `pair`'s cells: its records, in its canonical order, folded over
/// `scratch` day cells that span its vantage's days, of which the cells
/// keep those that saw a probe.
pub(crate) fn fold_pair(
    campaign: &Campaign,
    pair: u32,
    plan: &PairPlan,
    records: &[ProbeRecord],
    scratch: &mut Vec<HealthCell>,
) -> PairCells {
    let days = campaign.days_of(plan.vantage.label);
    scratch.clear();
    scratch.resize(days.len(), HealthCell::default());
    let mut cells = PairCells {
        aggregate: PairAggregate {
            pair,
            vantage: plan.vantage_label,
            resolver: plan.resolver_label,
            cell: AggregateCell::default(),
        },
        metrics: CellMetrics::default(),
        health: Vec::new(),
        exhausted: Vec::new(),
    };
    let mut fold = PairFold {
        pair,
        aggregate: &mut cells.aggregate.cell,
        metrics: &mut cells.metrics,
        exhausted: &mut cells.exhausted,
    };
    for r in records {
        if let Some(day) = day_cell(days.start, scratch, day_of(r.at.as_nanos())) {
            day.observe(r);
        }
        fold.observe(r);
    }
    let present = present_days(days.start, scratch);
    cells.health = present.map(|(day, cell)| (day, cell.clone())).collect();
    cells
}

/// `plans`' empty (resolver, day) rows, and each record's route to its
/// pair: (vantage, resolver) interned-label indices → pair, sorted, a
/// duplicated coordinate routed to its first pair.
fn rows_and_routes(campaign: &Campaign, plans: &[PairPlan]) -> (HealthSeries, Routes) {
    let mut days = Vec::with_capacity(plans.len());
    let mut routes = Vec::with_capacity(plans.len());
    for (pair, p) in (0u32..).zip(plans) {
        days.push((p.resolver_label, campaign.days_of(p.vantage.label)));
        routes.push((route_key(p.vantage_label, p.resolver_label), pair));
    }
    routes.sort_by_key(|&(key, _)| key);
    routes.dedup_by_key(|&mut (key, _)| key);
    (HealthSeries::for_pairs(&days), routes)
}

/// Folds the day cells of an in-memory record stream into `health`'s rows,
/// handing every record of a scheduled pair to `each` with its pair. The
/// pairs' records arrive interleaved, so their day cells fold into a
/// (pair, day) scratch table, each pair's over its vantage's days, and
/// merge into the rows pair by pair once the last record is in.
fn fold_days(
    health: &mut HealthSeries,
    routes: &Routes,
    records: &[ProbeRecord],
    mut each: impl FnMut(u32, &ProbeRecord),
) {
    let n = health.pair_count();
    // Pair `p`'s day cells are `scratch[starts[p]..starts[p + 1]]`.
    let mut starts = Vec::with_capacity(n as usize + 1);
    starts.push(0);
    for pair in 0..n {
        starts.push(starts[pair as usize] + health.days_of(pair).len());
    }
    let mut scratch = vec![HealthCell::default(); starts[n as usize]];
    for r in records {
        let key = route_key(r.vantage_id(), r.resolver_id());
        let Ok(i) = routes.binary_search_by_key(&key, |&(k, _)| k) else {
            continue;
        };
        let pair = routes[i].1;
        let p = pair as usize;
        let days = &mut scratch[starts[p]..starts[p + 1]];
        let first_day = health.days_of(pair).start;
        if let Some(day) = day_cell(first_day, days, day_of(r.at.as_nanos())) {
            day.observe(r);
        }
        each(pair, r);
    }
    for (pair, bounds) in (0u32..).zip(starts.windows(2)) {
        let first_day = health.days_of(pair).start;
        let cells = &scratch[bounds[0]..bounds[1]];
        health.merge_pair(present_days(first_day, cells));
    }
}

/// The (resolver, day) rows of an in-memory record stream, folded alone:
/// [`HealthSeries::of`].
pub(crate) fn health_of(campaign: &Campaign, records: &[ProbeRecord]) -> HealthSeries {
    let (mut health, routes) = rows_and_routes(campaign, &campaign.pair_plans());
    fold_days(&mut health, &routes, records, |_, _| {});
    health
}

/// The cell of `day` among `days`, which start at `first_day`.
fn day_cell(first_day: u32, days: &mut [HealthCell], day: u32) -> Option<&mut HealthCell> {
    days.get_mut(day.checked_sub(first_day)? as usize)
}

/// (vantage, resolver) interned-label indices → pair, sorted by the key.
type Routes = Vec<((u32, u32), u32)>;

/// A record's route: its (vantage, resolver) interned-label indices.
fn route_key(vantage: Label, resolver: Label) -> (u32, u32) {
    (vantage.index() as u32, resolver.index() as u32)
}

/// Every pair's folds for one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignFolds {
    /// The pair table: coordinates and aggregate cell, in pair order.
    aggregates: CampaignAggregates,
    /// Each pair's metrics cell, in pair order, under an empty key until
    /// [`into_parts`](Self::into_parts) names it: the snapshot is these
    /// cells, keyed and put in key order where they lie.
    metrics: Vec<CellSnapshot>,
    /// The (resolver, day) rows every merged pair's day cells went into.
    health: HealthSeries,
    /// Each record's route to its pair ([`rows_and_routes`]).
    routes: Routes,
    /// Every retry exhaustion: pair after pair, each pair's in record
    /// order, as [`install`](Self::install) meets them; in the campaign's
    /// record order from [`of`](Self::of).
    pub(crate) exhausted: Vec<RetryExhausted>,
    /// Every metrics cell's third coordinate.
    protocol: Label,
}

impl CampaignFolds {
    /// Empty folds shaped for `campaign`'s pairs and days.
    pub fn for_campaign(campaign: &Campaign) -> CampaignFolds {
        let plans = campaign.pair_plans();
        let pairs = (0u32..).zip(&plans).map(|(pair, p)| PairAggregate {
            pair,
            vantage: p.vantage_label,
            resolver: p.resolver_label,
            cell: AggregateCell::default(),
        });
        let (health, routes) = rows_and_routes(campaign, &plans);
        CampaignFolds {
            aggregates: CampaignAggregates {
                pairs: pairs.collect(),
            },
            metrics: vec![unkeyed(); plans.len()],
            health,
            routes,
            exhausted: Vec::new(),
            protocol: campaign.config().probe.protocol.interned_label(),
        }
    }

    /// The folds of an in-memory record stream: the one-shot reference the
    /// sharded engine's installed folds must equal bit for bit. A record
    /// of a pair or a day the campaign does not schedule is ignored.
    pub fn of(campaign: &Campaign, records: &[ProbeRecord]) -> CampaignFolds {
        let mut folds = CampaignFolds::for_campaign(campaign);
        let CampaignFolds {
            aggregates,
            metrics,
            health,
            routes,
            exhausted,
            ..
        } = &mut folds;
        fold_days(health, routes, records, |pair, r| {
            let p = pair as usize;
            PairFold {
                pair,
                aggregate: &mut aggregates.pairs[p].cell,
                metrics: &mut metrics[p].metrics,
                exhausted,
            }
            .observe(r);
        });
        folds
    }

    /// Installs one pair's checkpointed cells (the resume path), merging
    /// its day cells into the rows. Pairs install in pair-index order,
    /// each once, under the plan's coordinates; a pair's day cells and
    /// metrics cell must hold exactly its aggregate cell's probes, and its
    /// exhaustions be those its metrics cell counts; its day cells must
    /// each hold a probe, in strictly increasing days within its vantage's.
    pub(crate) fn install(&mut self, cells: PairCells) -> Result<(), String> {
        let PairCells {
            aggregate,
            metrics,
            health,
            exhausted,
        } = cells;
        let (pair, total) = (aggregate.pair, aggregate.cell.probes());
        let slot = self.aggregates.pairs.get(pair as usize);
        let slot = slot.ok_or_else(|| format!("pair index {pair} out of range"))?;
        if (slot.vantage, slot.resolver) != (aggregate.vantage, aggregate.resolver) {
            return Err(format!(
                "pair {pair} is ({}, {}) in the plan but ({}, {}) in the checkpoint",
                slot.vantage.as_str(),
                slot.resolver.as_str(),
                aggregate.vantage.as_str(),
                aggregate.resolver.as_str()
            ));
        }
        let next = self.health.next_pair();
        if pair != next {
            let what = if pair < next {
                "already installed"
            } else {
                "out of order"
            };
            return Err(format!("pair {pair} is {what}: pair {next} is next"));
        }
        let daily: u64 = health.iter().map(|(_, cell)| cell.probes()).sum();
        let (probes, spent) = (metrics.probes.get(), metrics.exhausted.get());
        let listed = exhausted.len() as u64;
        if daily != total || probes != total || listed != spent {
            return Err(format!(
                "pair {pair}'s cells disagree: its aggregate cell holds {total} probes, its \
                 health cells {daily}, its metrics cell {probes} and {spent} retry \
                 exhaustions, of which it lists {listed}"
            ));
        }
        let days = self.health.days_of(pair);
        let mut last = None;
        for &(day, ref cell) in &health {
            if !days.contains(&day) {
                return Err(format!(
                    "pair {pair}'s health cell for day {day} lies outside its days {days:?}"
                ));
            }
            if cell.probes() == 0 || last >= Some(day) {
                return Err(format!(
                    "pair {pair}'s health cell for day {day} is empty or not after the one before"
                ));
            }
            last = Some(day);
        }
        self.health
            .merge_pair(health.iter().map(|(day, cell)| (*day, cell)));
        self.aggregates.pairs[pair as usize] = aggregate;
        self.metrics[pair as usize].metrics = metrics;
        self.exhausted.extend(exhausted);
        Ok(())
    }

    /// The (resolver, day) rows.
    pub fn health(&self) -> &HealthSeries {
        &self.health
    }

    /// The aggregates and the (resolver, day) rows, moved out.
    pub fn into_views(self) -> (CampaignAggregates, HealthSeries) {
        (self.aggregates, self.health)
    }

    /// The metrics snapshot, the aggregates and the (resolver, day) rows,
    /// moved out. The snapshot is what [`metrics_of`](crate::metrics_of)
    /// builds from the same records: a cell per pair that saw a probe, its
    /// error tallies its aggregate's. Its cells are the folds' own, keyed
    /// and moved into key order where they lie, so taking it allocates no
    /// second buffer of the ~1 KB cells (`DESIGN.md` §9: such a buffer made
    /// the sharded run's peak RSS differ from process to process).
    pub fn into_parts(self) -> (MetricsSnapshot, CampaignAggregates, HealthSeries) {
        let CampaignFolds {
            aggregates,
            metrics: mut cells,
            health,
            protocol,
            ..
        } = self;
        let pairs = &aggregates.pairs;
        // The pairs that saw a probe, by a stable sort on the key (the
        // protocol is the campaign's one), like the cells' own would be;
        // `to[i]` is pair `i`'s place in it, `usize::MAX` for no place.
        let key = |i: usize| (pairs[i].resolver.as_str(), pairs[i].vantage.as_str());
        let mut order: Vec<usize> = (0..pairs.len())
            .filter(|&i| pairs[i].cell.probes() > 0)
            .collect();
        order.sort_by(|&a, &b| key(a).cmp(&key(b)));
        let mut to = vec![usize::MAX; cells.len()];
        for (place, &i) in order.iter().enumerate() {
            let (p, cell) = (&pairs[i], &mut cells[i]);
            cell.metrics.errors = p
                .cell
                .availability
                .errors()
                .map(|(kind, n)| (kind.label(), n))
                .collect();
            cell.key = MetricKey {
                resolver: p.resolver.as_str().to_string(),
                vantage: p.vantage.as_str().to_string(),
                protocol: protocol.as_str().to_string(),
            };
            to[i] = place;
        }
        // Each swap puts one cell in its place for good, so a place is
        // never swapped out again; the unplaced cells end up past the
        // last place and are cut off.
        for i in 0..cells.len() {
            while to[i] != i && to[i] != usize::MAX {
                let j = to[i];
                cells.swap(i, j);
                to.swap(i, j);
            }
        }
        cells.truncate(order.len());
        (MetricsSnapshot { cells }, aggregates, health)
    }
}

/// A metrics cell before [`CampaignFolds::into_parts`] keys it.
fn unkeyed() -> CellSnapshot {
    CellSnapshot {
        key: MetricKey {
            resolver: String::new(),
            vantage: String::new(),
            protocol: String::new(),
        },
        metrics: CellMetrics::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;

    fn campaign(hosts: &[&str]) -> Campaign {
        let entries = hosts.iter().map(|h| catalog::resolvers::find(h).unwrap());
        Campaign::with_resolvers(CampaignConfig::quick(11, 4), entries.collect())
    }

    /// Every pair's cells, as a shard folds them.
    fn pair_cells(c: &Campaign) -> Vec<PairCells> {
        let mut scratch = Vec::new();
        let plans = c.pair_plans();
        let generated = c.generate(1);
        let pairs = (0u32..).zip(&plans).zip(generated.pairs());
        let fold = |((pair, plan), (_, records))| fold_pair(c, pair, plan, records, &mut scratch);
        pairs.map(fold).collect()
    }

    #[test]
    fn install_takes_each_pair_once_in_order_and_equals_the_in_memory_folds() {
        let c = campaign(&["dns.google", "doh.ffmuc.net", "chewbacca.meganerd.nl"]);
        let pairs = pair_cells(&c);
        let mut fresh = CampaignFolds::for_campaign(&c);
        assert!(fresh
            .install(pairs[1].clone())
            .unwrap_err()
            .contains("pair 1 is out of order: pair 0 is next"));
        for cells in &pairs {
            fresh.install(cells.clone()).unwrap();
            assert!(fresh
                .install(cells.clone())
                .unwrap_err()
                .contains("already installed"));
        }
        assert_eq!(fresh, CampaignFolds::of(&c, &c.run().records));
    }

    #[test]
    fn install_rejects_mismatched_pairs() {
        let c = campaign(&["dns.google", "doh.ffmuc.net", "chewbacca.meganerd.nl"]);
        let pairs = pair_cells(&c);
        let install = |cells: PairCells| CampaignFolds::for_campaign(&c).install(cells);

        let mut bad = pairs[0].clone();
        bad.aggregate.pair = 999;
        assert!(install(bad.clone()).unwrap_err().contains("out of range"));
        bad.aggregate.pair = 1;
        assert!(install(bad).unwrap_err().contains("in the plan but"));

        let mut bad = pairs[0].clone();
        bad.metrics.probes.inc();
        assert!(install(bad).unwrap_err().contains("disagree"));

        // A day cell split in two under the same day: the totals still
        // agree, the repeated day does not install.
        let mut bad = pairs[0].clone();
        let mut split = HealthCell::default();
        split.availability.successes = 1;
        bad.health[0].1.availability.successes -= 1;
        bad.health.insert(1, (bad.health[0].0, split));
        let err = install(bad).unwrap_err();
        assert!(err.contains("not after the one before"), "{err}");

        let mut bad = pairs[0].clone();
        bad.health[0].0 += 100;
        assert!(install(bad).unwrap_err().contains("lies outside its days"));

        let mut bad = pairs[0].clone();
        bad.health.insert(0, (0, HealthCell::default()));
        let err = install(bad).unwrap_err();
        assert!(err.contains("is empty"), "{err}");
    }

    #[test]
    fn unknown_records_are_ignored() {
        let c = campaign(&["dns.google"]);
        let foreign = campaign(&["dns.quad9.net"]).run().records;
        assert_eq!(CampaignFolds::of(&c, &foreign), CampaignFolds::of(&c, &[]));
    }
}
