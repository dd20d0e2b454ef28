//! The heap-free cells against what they replaced.
//!
//! * [`Tally`] against the label-keyed [`Availability`] it stands in for,
//!   on seeded sequences of successes, errors and merges: every query
//!   answers alike, `dominant_error` ties included (the map's
//!   `max_by_key` keeps the last maximum in label order).
//! * The dense [`HealthSeries`] table against a `BTreeMap` keyed by
//!   (pair, day) of `Availability` + sketch cells, built here from the
//!   same records: the same present cells, rows, JSONL bytes and drift
//!   findings, on vantages whose day ranges start apart, overlap and
//!   leave gaps — and the sharded engine's series equal to both.

use std::collections::BTreeMap;
use std::path::PathBuf;

use edns_stats::{Availability, LatencySketch};
use measure::json::Json;
use measure::{
    day_of, detect_drift, Campaign, CampaignAggregates, CampaignConfig, DriftConfig, HealthCell,
    HealthRow, HealthSeries, ProbeErrorKind, ProbeOutcome, ProbeRecord, ShardedRunner, Span, Tally,
};
use netsim::rng::SimRng;
use obs::Label;

/// A tally and the ledger it replaces, fed the same observations.
fn both(rng: &mut SimRng, observations: usize) -> (Tally, Availability) {
    let (mut tally, mut ledger) = (Tally::default(), Availability::default());
    let kinds = ProbeErrorKind::all();
    for _ in 0..observations {
        // Half successes, half errors of any kind: over a few dozen
        // observations, ties are common.
        if rng.chance(0.5) {
            tally.success();
            ledger.success();
        } else {
            let kind = kinds[rng.below(kinds.len())];
            tally.error(kind);
            ledger.error(kind.label());
        }
    }
    (tally, ledger)
}

fn assert_answers_alike(tally: &Tally, ledger: &Availability, what: &str) {
    assert_eq!(tally.to_availability(), *ledger, "{what}");
    assert_eq!(tally.successes, ledger.successes, "{what}");
    assert_eq!(tally.total(), ledger.total(), "{what}");
    assert_eq!(tally.error_count(), ledger.error_count(), "{what}");
    assert_eq!(
        tally.availability().to_bits(),
        ledger.availability().to_bits(),
        "{what}"
    );
    assert_eq!(tally.dominant_error(), ledger.dominant_error(), "{what}");
    let labels: Vec<(&str, u64)> = tally.errors().map(|(k, n)| (k.label(), n)).collect();
    let expected: Vec<(&str, u64)> = ledger
        .errors
        .iter()
        .map(|(k, &n)| (k.as_str(), n))
        .collect();
    assert_eq!(labels, expected, "{what}");
}

#[test]
fn a_tally_answers_like_the_label_keyed_ledger() {
    let (empty, none) = (Tally::default(), Availability::default());
    assert_answers_alike(&empty, &none, "empty");
    assert_eq!(empty.availability(), 1.0);
    assert_eq!(empty.dominant_error(), None);

    let mut rng = SimRng::derived(36, "tally-differential");
    let mut ties = 0;
    for case in 0..500 {
        let (mut tally, mut ledger) = both(&mut rng, case % 17);
        assert_answers_alike(&tally, &ledger, &format!("case {case}"));
        let (other_tally, other_ledger) = both(&mut rng, case % 11);
        tally.merge(&other_tally);
        ledger.merge(&other_ledger);
        assert_answers_alike(&tally, &ledger, &format!("case {case}, merged"));
        let max = ledger.errors.values().max().copied().unwrap_or(0);
        ties += usize::from(max > 0 && ledger.errors.values().filter(|&&n| n == max).count() > 1);
    }
    assert!(ties > 50, "only {ties} cases had a tied dominant error");

    // A tie goes to the last label in label order, whatever the order the
    // errors arrived in.
    let mut tally = Tally::default();
    for kind in [ProbeErrorKind::TlsFailure, ProbeErrorKind::ConnectTimeout] {
        tally.error(kind);
    }
    assert_eq!(tally.dominant_error(), Some("tls_failure"));
    tally.error(ProbeErrorKind::ConnectTimeout);
    assert_eq!(tally.dominant_error(), Some("connect_timeout"));
}

/// The oracle's cell: the ledger and sketch a health cell used to hold.
#[derive(Debug, Clone, Default, PartialEq)]
struct OracleCell {
    availability: Availability,
    response: LatencySketch,
}

impl OracleCell {
    fn observe(&mut self, r: &ProbeRecord) {
        match &r.outcome {
            ProbeOutcome::Success { timings, .. } => {
                self.availability.success();
                self.response.observe(timings.total().as_millis_f64());
            }
            ProbeOutcome::Failure { kind, .. } => self.availability.error(kind.label()),
        }
    }

    fn merge(&mut self, other: &OracleCell) {
        self.availability.merge(&other.availability);
        self.response.merge(&other.response);
    }

    /// The same counts as a health cell.
    fn to_health(&self) -> HealthCell {
        let mut availability = Tally::default();
        availability.successes = self.availability.successes;
        for (label, &n) in &self.availability.errors {
            availability.set_errors(ProbeErrorKind::from_label(label).unwrap(), n);
        }
        HealthCell {
            availability,
            response: self.response.clone(),
        }
    }
}

/// (pair, day) → cell, routed by the campaign's pair index.
struct Oracle {
    cells: BTreeMap<(u32, u32), OracleCell>,
    resolvers: Vec<Label>,
}

impl Oracle {
    fn of(c: &Campaign, records: &[ProbeRecord]) -> Oracle {
        let pairs = CampaignAggregates::for_campaign(c);
        let index: BTreeMap<(Label, Label), u32> = pairs
            .pairs()
            .iter()
            .map(|p| ((p.vantage, p.resolver), p.pair))
            .collect();
        let mut cells: BTreeMap<(u32, u32), OracleCell> = BTreeMap::new();
        for r in records {
            let pair = index[&(r.vantage_id(), r.resolver_id())];
            let day = day_of(r.at.as_nanos());
            cells.entry((pair, day)).or_default().observe(r);
        }
        let resolvers = pairs.pairs().iter().map(|p| p.resolver).collect();
        Oracle { cells, resolvers }
    }

    fn rows(&self) -> Vec<(Label, u32, OracleCell)> {
        let mut map: BTreeMap<(Label, u32), OracleCell> = BTreeMap::new();
        for (&(pair, day), cell) in &self.cells {
            let resolver = self.resolvers[pair as usize];
            map.entry((resolver, day)).or_default().merge(cell);
        }
        map.into_iter().map(|((r, d), c)| (r, d, c)).collect()
    }

    /// The health export as it was written from label-keyed cells.
    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (resolver, day, cell) in self.rows() {
            let errors = cell.availability.errors.iter();
            let errors = errors.map(|(k, &c)| (k.clone(), Json::Int(c as i64)));
            let mut fields = vec![
                ("resolver", Json::Str(resolver.as_str().to_string())),
                ("day", Json::Int(day as i64)),
                ("probes", Json::Int(cell.availability.total() as i64)),
                ("successes", Json::Int(cell.availability.successes as i64)),
                (
                    "availability",
                    Json::Float(cell.availability.availability()),
                ),
                ("errors", Json::Object(errors.collect())),
            ];
            let sketch = &cell.response;
            let quantiles = [("p50_ms", 0.5), ("p95_ms", 0.95)];
            let latency = [("mean_ms", sketch.mean())]
                .into_iter()
                .chain(quantiles.map(|(k, q)| (k, sketch.quantile(q))));
            fields.extend(latency.filter_map(|(k, v)| Some((k, Json::Float(v?)))));
            out.push_str(&Json::object(fields).to_string_compact());
            out.push('\n');
        }
        out
    }
}

fn assert_series_matches_the_oracle(c: &Campaign, what: &str) -> HealthSeries {
    let records = c.run().records;
    let series = HealthSeries::of(c, &records);
    let oracle = Oracle::of(c, &records);

    let cells: Vec<((u32, u32), HealthCell)> =
        series.pair_cells().map(|(k, c)| (k, c.clone())).collect();
    let expected: Vec<((u32, u32), HealthCell)> = oracle
        .cells
        .iter()
        .map(|(&k, c)| (k, c.to_health()))
        .collect();
    assert_eq!(cells, expected, "{what}: pair cells");
    assert_eq!(series.len(), oracle.cells.len(), "{what}");
    assert_eq!(series.probes(), records.len() as u64, "{what}");

    let rows = series.resolver_rows();
    let expected: Vec<HealthRow> = oracle
        .rows()
        .into_iter()
        .map(|(resolver, day, cell)| HealthRow {
            resolver,
            day,
            cell: cell.to_health(),
        })
        .collect();
    assert_eq!(rows, expected, "{what}: resolver rows");
    assert_eq!(
        series.to_jsonl(),
        oracle.to_jsonl(),
        "{what}: health export"
    );
    let tight = DriftConfig {
        min_probes: 1,
        min_errors: 1,
        ..DriftConfig::default()
    };
    for cfg in [DriftConfig::default(), tight] {
        assert_eq!(
            detect_drift(&rows, &cfg),
            detect_drift(&expected, &cfg),
            "{what}: drift"
        );
    }
    series
}

fn campaign(config: CampaignConfig) -> Campaign {
    let entries = [
        "dns.google",
        "doh.ffmuc.net",
        "chewbacca.meganerd.nl",
        "dns.quad9.net",
    ];
    let entries = entries.into_iter().filter_map(catalog::resolvers::find);
    Campaign::with_resolvers(config, entries.collect())
}

/// Home vantages on days 0–2; the EC2 vantages on days 5–6, apart from
/// them; ec2-ohio on days 2–3 as well, overlapping the home days and
/// leaving day 4 a gap inside its range.
fn staggered_config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::longitudinal(seed, 1).with_default_faults();
    let span = |start_day, days, vantages: &[&'static str]| Span {
        start_day,
        days,
        rounds_per_day: 2,
        vantages: vantages.to_vec(),
    };
    config.spans = vec![
        span(0, 3, &["home-1", "home-2", "home-3", "home-4"]),
        span(5, 2, &["ec2-ohio", "ec2-frankfurt", "ec2-seoul"]),
        span(2, 2, &["ec2-ohio"]),
    ];
    config
}

#[test]
fn the_dense_series_matches_a_map_of_label_keyed_cells() {
    assert_series_matches_the_oracle(&campaign(CampaignConfig::quick(11, 2)), "quick");
    let faulted = CampaignConfig::longitudinal(7, 3).with_default_faults();
    let series = assert_series_matches_the_oracle(&campaign(faulted), "longitudinal(7, 3)");
    assert!(
        series
            .pair_cells()
            .any(|(_, c)| c.availability.error_count() > 0),
        "the faulted campaign must exercise the error tallies"
    );

    let c = campaign(staggered_config(5));
    let series = assert_series_matches_the_oracle(&c, "staggered spans");
    let days: Vec<u32> = series.pair_cells().map(|((_, day), _)| day).collect();
    assert!(days.contains(&0) && days.contains(&6) && !days.contains(&4));

    // The sharded engine folds each pair over the same day range and
    // installs its cells into the same table.
    let dir = std::env::temp_dir().join(format!("edns-health-differential-{}", std::process::id()));
    let sharded = ShardedRunner::new(&c, 5, &dir).unwrap().run(1).unwrap();
    std::fs::remove_dir_all(PathBuf::from(&dir)).unwrap();
    assert_eq!(sharded.health, series);
}
