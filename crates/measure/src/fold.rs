//! One fold per (vantage, resolver) pair, and the campaign's table of them.
//!
//! [`PairFold::observe`] folds a record into its pair's aggregate cell,
//! metrics cell and day cells, and lists its retry exhaustion: the sharded
//! engine calls it per pair as it generates a shard, [`CampaignFolds::of`]
//! per record of an in-memory campaign. [`CampaignFolds`] is one pair
//! table over one dense day-cell table, with one route from a record to
//! its pair and one [`install`](CampaignFolds::install) of a cell file's
//! [`PairCells`]; the engines hand out its projections, the metrics
//! snapshot, [`CampaignAggregates`] and [`HealthSeries`]. A metrics cell's
//! error tallies are left to the aggregate's tally, which the snapshot
//! and the cell file read them from, so folding a record allocates
//! nothing but a retry exhaustion's entry. Every pair's cells observe only
//! its own records, in its canonical order, so the folds are the same at
//! any shard count, thread count and kill/resume schedule (`DESIGN.md` §9).

use obs::{CellMetrics, CellSnapshot, Label, MetricKey, MetricsSnapshot};

use crate::aggregate::{AggregateCell, CampaignAggregates, PairAggregate};
use crate::campaign::{observe_cell, Campaign};
use crate::checkpoint::{PairCells, RetryExhausted};
use crate::health::{day_of, HealthCell, HealthSeries, PairDays};
use crate::results::{ProbeOutcome, ProbeRecord};

/// One pair's folds, borrowed from a shard's [`PairCells`] or a
/// [`CampaignFolds`] table.
pub(crate) struct PairFold<'a> {
    pub(crate) pair: u32,
    pub(crate) aggregate: &'a mut AggregateCell,
    /// Without error tallies: the aggregate's tally holds them.
    pub(crate) metrics: &'a mut CellMetrics,
    /// A cell per day of the pair's vantage, from `first_day` on.
    pub(crate) first_day: u32,
    pub(crate) days: &'a mut [HealthCell],
    pub(crate) exhausted: &'a mut Vec<RetryExhausted>,
}

impl PairFold<'_> {
    /// Folds one of the pair's records into its aggregate, metrics and day
    /// cells, and lists it when it failed with its retry budget spent.
    pub(crate) fn observe(&mut self, r: &ProbeRecord) {
        let day = day_cell(self.first_day, self.days, day_of(r.at.as_nanos()));
        match &r.outcome {
            ProbeOutcome::Success { timings, .. } => {
                let ms = timings.total().as_millis_f64();
                self.aggregate.availability.success();
                self.aggregate.response.observe(ms);
                if let Some(day) = day {
                    day.availability.success();
                    day.response.observe(ms);
                }
            }
            ProbeOutcome::Failure { kind, .. } => {
                self.aggregate.availability.error(*kind);
                if let Some(day) = day {
                    day.availability.error(*kind);
                }
                if let Some(retry) = r.retry.as_ref().filter(|info| info.exhausted()) {
                    self.exhausted.push(RetryExhausted {
                        pair: self.pair,
                        at: r.at.as_nanos(),
                        attempts: retry.attempts,
                    });
                }
            }
        }
        if let Some(ping) = r.ping {
            self.aggregate.ping.observe(ping.as_millis_f64());
        }
        observe_cell(self.metrics, r);
    }
}

/// The cell of `day` among `days`, which start at `first_day`.
fn day_cell(first_day: u32, days: &mut [HealthCell], day: u32) -> Option<&mut HealthCell> {
    days.get_mut(day.checked_sub(first_day)? as usize)
}

/// A record's route: its (vantage, resolver) interned-label indices.
fn route_key(vantage: Label, resolver: Label) -> (u32, u32) {
    (vantage.index() as u32, resolver.index() as u32)
}

/// Every pair's folds for one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignFolds {
    /// The pair table: coordinates and aggregate cell, in pair order.
    aggregates: CampaignAggregates,
    /// Each pair's metrics cell, in pair order.
    metrics: Vec<CellMetrics>,
    /// Every pair's day cells, over its vantage's days.
    health: HealthSeries,
    /// (vantage, resolver) interned-label indices → pair, sorted; a
    /// duplicated coordinate routes to its first pair.
    routes: Vec<((u32, u32), u32)>,
    /// Every retry exhaustion, pair after pair, each in record order.
    pub(crate) exhausted: Vec<RetryExhausted>,
    /// Every metrics cell's third coordinate.
    protocol: Label,
}

impl CampaignFolds {
    /// Empty folds shaped for `campaign`'s pairs and days.
    pub fn for_campaign(campaign: &Campaign) -> CampaignFolds {
        let plans = campaign.pair_plans();
        let n = plans.len();
        let mut folds = CampaignFolds {
            aggregates: CampaignAggregates {
                pairs: Vec::with_capacity(n),
            },
            metrics: vec![CellMetrics::default(); n],
            health: HealthSeries {
                cells: Vec::new(),
                pairs: Vec::with_capacity(n),
            },
            routes: Vec::with_capacity(n),
            exhausted: Vec::new(),
            protocol: campaign.config().probe.protocol.interned_label(),
        };
        let mut end = 0;
        for (pair, p) in (0u32..).zip(&plans) {
            let (vantage, resolver) = (p.vantage_label, p.resolver_label);
            let (days, start) = (campaign.days_of(p.vantage.label), end);
            end += days.len() as u32;
            folds.health.pairs.push(PairDays {
                resolver,
                first_day: days.start,
                start,
                end,
            });
            folds.aggregates.pairs.push(PairAggregate {
                pair,
                vantage,
                resolver,
                cell: AggregateCell::default(),
            });
            folds.routes.push((route_key(vantage, resolver), pair));
        }
        folds.health.cells = vec![HealthCell::default(); end as usize];
        folds.routes.sort_by_key(|&(key, _)| key);
        folds.routes.dedup_by_key(|&mut (key, _)| key);
        folds
    }

    /// The folds of an in-memory record stream: the one-shot reference the
    /// sharded engine's installed folds must equal bit for bit.
    pub fn of(campaign: &Campaign, records: &[ProbeRecord]) -> CampaignFolds {
        let mut folds = CampaignFolds::for_campaign(campaign);
        for r in records {
            folds.observe(r);
        }
        folds
    }

    /// Routes one record to its pair's fold; a record of a pair or a day
    /// the campaign does not schedule is ignored.
    pub fn observe(&mut self, r: &ProbeRecord) {
        let key = route_key(r.vantage_id(), r.resolver_id());
        if let Ok(i) = self.routes.binary_search_by_key(&key, |&(k, _)| k) {
            let pair = self.routes[i].1;
            let (first_day, days) = self.health.days_mut(pair);
            PairFold {
                pair,
                aggregate: &mut self.aggregates.pairs[pair as usize].cell,
                metrics: &mut self.metrics[pair as usize],
                first_day,
                days,
                exhausted: &mut self.exhausted,
            }
            .observe(r);
        }
    }

    /// Installs one pair's checkpointed cells (the resume path). The pair
    /// must be in the plan under the same coordinates and not installed
    /// yet; its day cells and metrics cell must hold exactly its aggregate
    /// cell's probes, and its exhaustions be those its metrics cell
    /// counts; each day cell must hold a probe and fall in its days, once.
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
        let daily: u64 = health.iter().map(|(_, cell)| cell.probes()).sum();
        let (probes, spent) = (metrics.probes.get(), metrics.exhausted.get());
        let listed = exhausted.len() as u64;
        if slot.cell.probes() > 0 || daily != total || probes != total || listed != spent {
            return Err(format!(
                "pair {pair} is already installed or its cells disagree: its aggregate cell \
                 holds {total} probes, its health cells {daily}, its metrics cell {probes} \
                 and {spent} retry exhaustions, of which it lists {listed}"
            ));
        }
        let (first_day, days) = self.health.days_mut(pair);
        let range = first_day..first_day + days.len() as u32;
        for (day, cell) in health {
            let slot = day_cell(first_day, days, day).ok_or_else(|| {
                format!("pair {pair}'s health cell for day {day} lies outside its days {range:?}")
            })?;
            if cell.probes() == 0 || slot.probes() > 0 {
                return Err(format!(
                    "pair {pair}'s health cell for day {day} is empty or not the day's first"
                ));
            }
            *slot = cell;
        }
        self.aggregates.pairs[pair as usize] = aggregate;
        self.metrics[pair as usize] = metrics;
        self.exhausted.extend(exhausted);
        Ok(())
    }

    /// The metrics snapshot — what [`metrics_of`](crate::metrics_of)
    /// builds from the same records: a cell per pair that saw a probe, its
    /// error tallies its aggregate's.
    pub fn metrics(&self) -> MetricsSnapshot {
        let pairs = self.aggregates.pairs.iter().zip(&self.metrics);
        let mut cells: Vec<CellSnapshot> = pairs
            .filter(|(p, _)| p.cell.probes() > 0)
            .map(|(p, m)| {
                let mut metrics = m.clone();
                let errors = p.cell.availability.errors();
                metrics.errors = errors.map(|(kind, n)| (kind.label(), n)).collect();
                let key = MetricKey {
                    resolver: p.resolver.as_str().to_string(),
                    vantage: p.vantage.as_str().to_string(),
                    protocol: self.protocol.as_str().to_string(),
                };
                CellSnapshot { key, metrics }
            })
            .collect();
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        MetricsSnapshot { cells }
    }

    /// The day-cell table.
    pub fn health(&self) -> &HealthSeries {
        &self.health
    }

    /// The aggregates and the day-cell table, moved out.
    pub fn into_views(self) -> (CampaignAggregates, HealthSeries) {
        (self.aggregates, self.health)
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

    #[test]
    fn install_rejects_mismatched_pairs() {
        let c = campaign(&["dns.google", "doh.ffmuc.net", "chewbacca.meganerd.nl"]);
        let folds = CampaignFolds::of(&c, &c.run().records);
        let mut fresh = CampaignFolds::for_campaign(&c);
        for (pair, aggregate) in folds.aggregates.pairs.iter().enumerate() {
            let days = folds
                .health
                .pair_cells()
                .filter(|((p, _), _)| *p as usize == pair);
            let cells = PairCells {
                aggregate: aggregate.clone(),
                metrics: folds.metrics[pair].clone(),
                health: days.map(|((_, day), c)| (day, c.clone())).collect(),
                exhausted: Vec::new(),
            };
            fresh.install(cells.clone()).unwrap();
            assert!(fresh
                .install(cells)
                .unwrap_err()
                .contains("already installed"));
        }
        assert_eq!(fresh, folds);

        let mut bad = PairCells {
            aggregate: folds.aggregates.pairs[0].clone(),
            metrics: CellMetrics::default(),
            health: Vec::new(),
            exhausted: Vec::new(),
        };
        bad.aggregate.pair = 999;
        let mut empty = CampaignFolds::for_campaign(&c);
        assert!(empty
            .install(bad.clone())
            .unwrap_err()
            .contains("out of range"));
        bad.aggregate.pair = 1;
        assert!(empty.install(bad).unwrap_err().contains("in the plan but"));
    }

    #[test]
    fn unknown_records_are_ignored() {
        let mut folds = CampaignFolds::for_campaign(&campaign(&["dns.google"]));
        let before = folds.clone();
        for r in &campaign(&["dns.quad9.net"]).run().records {
            folds.observe(r);
        }
        assert_eq!(folds, before);
    }
}
