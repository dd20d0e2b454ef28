//! The health oracle: a `BTreeMap` keyed by (pair, day) of label-keyed
//! `Availability` + sketch cells, folded from the records with none of the
//! engine's fold code. A sharded run's cell files must hold exactly its
//! present (pair, day) cells, and the health series of the same records
//! its resolver rows, JSONL bytes and drift findings. Shared by
//! `health_differential.rs` and `fold_differential.rs`.

use std::collections::BTreeMap;

use edns_stats::{Availability, LatencySketch};
use measure::json::Json;
use measure::{
    day_of, detect_drift, Campaign, DriftConfig, HealthCell, HealthRow, HealthSeries,
    ProbeErrorKind, ProbeOutcome, ProbeRecord, ShardCells, ShardedRunner, Tally,
};
use obs::Label;

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
        // The campaign's pairs, each vantage's resolvers in list order; a
        // duplicated (vantage, resolver) routes to its first pair.
        let vantages = c.config().vantages();
        let pairs: Vec<(Label, Label)> = vantages
            .iter()
            .flat_map(|v| c.entries().iter().map(|e| (v.label, e.hostname)))
            .map(|(v, r)| (Label::intern(v), Label::intern(r)))
            .collect();
        let mut index: BTreeMap<(Label, Label), u32> = BTreeMap::new();
        for (pair, &key) in (0u32..).zip(&pairs) {
            index.entry(key).or_insert(pair);
        }
        let mut cells: BTreeMap<(u32, u32), OracleCell> = BTreeMap::new();
        for r in records {
            let pair = index[&(r.vantage_id(), r.resolver_id())];
            let day = day_of(r.at.as_nanos());
            cells.entry((pair, day)).or_default().observe(r);
        }
        let resolvers = pairs.iter().map(|&(_, resolver)| resolver).collect();
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

/// The present (pair, day) cells of a sharded run's cell files, in
/// ascending key order: each pair's day cells as its fold persisted them.
fn pair_cells(runner: &ShardedRunner) -> Vec<((u32, u32), HealthCell)> {
    let mut cells = Vec::new();
    for shard in 0..runner.shards() {
        let text = std::fs::read_to_string(runner.cells_path(shard)).unwrap();
        for p in ShardCells::decode(&text).unwrap().pairs {
            let pair = p.aggregate.pair;
            cells.extend(p.health.into_iter().map(|(day, cell)| ((pair, day), cell)));
        }
    }
    cells
}

/// The (pair, day) cells in `runner`'s cell files, written by a run over
/// `records`, against the oracle's.
pub fn assert_cell_files_match_the_oracle(
    c: &Campaign,
    records: &[ProbeRecord],
    runner: &ShardedRunner,
    what: &str,
) {
    let expected: Vec<((u32, u32), HealthCell)> = Oracle::of(c, records)
        .cells
        .iter()
        .map(|(&k, c)| (k, c.to_health()))
        .collect();
    assert_eq!(pair_cells(runner), expected, "{what}: pair cells");
}

/// `series`, the health of `records`, against the oracle's: its rows,
/// their JSONL export and the drift findings over them.
pub fn assert_health_matches_the_oracle(
    c: &Campaign,
    records: &[ProbeRecord],
    series: &HealthSeries,
    what: &str,
) {
    let oracle = Oracle::of(c, records);
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
        let findings = detect_drift(&rows, &cfg);
        assert_eq!(findings, detect_drift(&expected, &cfg), "{what}: drift");
        assert_eq!(
            series.detect_drift(&cfg),
            findings,
            "{what}: drift in place"
        );
    }
}
