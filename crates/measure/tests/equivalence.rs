//! The determinism contract as one table: every engine writes the bytes
//! `run()` writes.
//!
//! Rows are configurations ([`ROWS`]), each at two seeds: plain, default
//! faults with retries, load ×2, interleaved sessions, all four composed,
//! overlapping spans, domains out of rank order, and a resolver listed
//! twice. Columns are engines ([`ENGINES`]). Every cell holds its outcome
//! to the row's `run()` ([`Outcome`]: the JSONL bytes, the metrics
//! snapshot and its render, the aggregates, the health series and the
//! drift findings), and the sharded cells' journals agree at equal shard
//! counts; the sharded engine refuses the resolver listed twice. Each
//! (row, seed)'s `run()` is pinned by its line in
//! `golden/equivalence_anchors.txt`, so the engines agree on a fixed point.
//!
//! Beside the table: every wire (the five protocols) on the composed
//! row's reference column, a proptest over
//! seeds and features driving the in-memory columns, every pair's records
//! filling its vantage's slots, and one complete directory resumed 100
//! times to one outcome.

mod support;

use std::collections::BTreeMap;

use measure::{
    metrics_of, Campaign, CampaignAggregates, CampaignFolds, CampaignResult, CheckpointError,
    DriftConfig, DriftFinding, HealthSeries, LoadModel, SessionConfig, ShardedOutcome,
    ShardedRunner,
};
use obs::MetricsSnapshot;
use proptest::prelude::*;

use support::{anchor_line, campaign, quick, Row, Scratch, ANCHORS_HEADER, PROTOCOLS, ROWS, SEEDS};

/// An engine the rows run through.
#[derive(Debug, Clone, Copy)]
enum Engine {
    /// `run()` again.
    Run,
    Parallel(usize),
    /// `run_reference()`: nothing cached across probes.
    Reference,
    /// A fresh sharded run over this many shards ([`PER_PAIR`]: one per
    /// pair), with two workers.
    Sharded(u32),
    /// [`RESUME_SHARDS`] shards, killed after each number of them in turn,
    /// then resumed with this many workers.
    Resumed(usize),
}

/// More shards than any row has pairs: the runner gives each pair its own.
const PER_PAIR: u32 = u32::MAX;

const RESUME_SHARDS: u32 = 4;

const ENGINES: [Engine; 11] = [
    Engine::Run,
    Engine::Parallel(2),
    Engine::Parallel(3),
    Engine::Parallel(7),
    Engine::Reference,
    Engine::Sharded(1),
    Engine::Sharded(4),
    Engine::Sharded(PER_PAIR),
    Engine::Resumed(0),
    Engine::Resumed(1),
    Engine::Resumed(2),
];

const ANCHOR_TABLE: &str = include_str!("golden/equivalence_anchors.txt");

/// What a cell compares.
struct Outcome {
    records: u64,
    jsonl: String,
    metrics: MetricsSnapshot,
    aggregates: CampaignAggregates,
    health: HealthSeries,
    drift: Vec<DriftFinding>,
}

impl Outcome {
    /// An in-memory outcome: the metrics by label ([`metrics_of`]), the
    /// rest from the campaign's folds.
    fn of(c: &Campaign, result: &CampaignResult) -> Outcome {
        let (aggregates, health) = CampaignFolds::of(c, &result.records).into_views();
        Outcome {
            records: result.records.len() as u64,
            jsonl: result.to_json_lines(),
            metrics: metrics_of(&result.records),
            aggregates,
            drift: health.detect_drift(&DriftConfig::default()),
            health,
        }
    }

    /// A sharded run's outcome, and its journal.
    fn of_sharded(outcome: ShardedOutcome) -> (Outcome, String) {
        let sharded = Outcome {
            records: outcome.records,
            jsonl: std::fs::read_to_string(&outcome.jsonl_path).unwrap(),
            metrics: outcome.metrics,
            aggregates: outcome.aggregates,
            health: outcome.health,
            drift: outcome.drift,
        };
        (sharded, outcome.journal.to_jsonl())
    }

    fn assert_same(&self, other: &Outcome, what: &str) {
        assert_eq!(self.records, other.records, "{what}: record count");
        assert!(self.jsonl == other.jsonl, "{what}: JSONL bytes differ");
        assert_eq!(self.metrics, other.metrics, "{what}: metrics snapshot");
        let render = self.metrics.render() == other.metrics.render();
        assert!(render, "{what}: metrics render differs");
        assert_eq!(self.aggregates, other.aggregates, "{what}: aggregates");
        assert_eq!(self.health, other.health, "{what}: health series");
        assert_eq!(self.drift, other.drift, "{what}: drift findings");
    }
}

/// One run of a cell: where it was killed, its outcome, and a sharded
/// run's shard count and journal.
type Run = (String, Outcome, Option<(u32, String)>);

impl Engine {
    fn in_memory(self) -> bool {
        matches!(self, Engine::Run | Engine::Parallel(_) | Engine::Reference)
    }

    /// Runs `c` through this engine, once per kill point for a resumed
    /// column.
    fn runs(self, c: &Campaign) -> Result<Vec<Run>, CheckpointError> {
        let in_memory = |result| Ok(vec![(String::new(), Outcome::of(c, &result), None)]);
        match self {
            Engine::Run => in_memory(c.run()),
            Engine::Parallel(n) => in_memory(c.run_parallel(n)),
            Engine::Reference => in_memory(c.run_reference()),
            Engine::Sharded(shards) => {
                let dir = Scratch::new();
                let runner = ShardedRunner::new(c, shards, &dir)?;
                let (outcome, journal) = Outcome::of_sharded(runner.run(2)?);
                Ok(vec![(
                    String::new(),
                    outcome,
                    Some((runner.shards(), journal)),
                )])
            }
            Engine::Resumed(workers) => {
                let shards = RESUME_SHARDS as usize;
                let mut runs = Vec::new();
                for killed_after in 0..=shards {
                    let dir = Scratch::new();
                    let killed = ShardedRunner::new(c, RESUME_SHARDS, &dir)?;
                    assert_eq!(killed.advance(killed_after)?, shards - killed_after);
                    let outcome = ShardedRunner::new(c, RESUME_SHARDS, &dir)?.run(workers)?;
                    let what = format!(", killed after {killed_after} shards");
                    // The checkpointed shards are adopted, the rest run, and
                    // the counters are the whole campaign's.
                    let run = &outcome.run;
                    assert_eq!(run.shards_resumed.get(), killed_after as u64, "{what}");
                    let written = run.manifest_writes.get();
                    assert_eq!(written, (shards - killed_after) as u64, "{what}");
                    let pairs = c.config().vantages().len() * c.entries().len();
                    assert_eq!(run.pairs_run.get(), pairs as u64, "{what}");
                    let probes = c.probe_count() as u64;
                    assert_eq!(run.records_produced.get(), probes, "{what}");
                    let (outcome, journal) = Outcome::of_sharded(outcome);
                    runs.push((what, outcome, Some((RESUME_SHARDS, journal))));
                }
                Ok(runs)
            }
        }
    }
}

/// The row's `run()` at each seed against its anchor line, then against
/// every engine.
fn assert_engines_agree(row: &Row) {
    for seed in SEEDS {
        let c = row.campaign(seed);
        let result = c.run();
        let expected = Outcome::of(&c, &result);
        let anchor = anchor_line(row, seed, result.records.len(), &expected.jsonl);
        let anchored = ANCHOR_TABLE.lines().any(|line| line == anchor);
        assert!(anchored, "run() moved off its anchor: {anchor}");
        let faulted = !c.config().faults.is_empty();
        // The first journal at each shard count.
        let mut journals: BTreeMap<u32, String> = BTreeMap::new();
        for engine in ENGINES {
            let what = format!("{} at seed {seed}, {engine:?}", row.name);
            let sharded = !engine.in_memory();
            let runs = match engine.runs(&c) {
                Err(e) => {
                    let refused = e.to_string().contains("duplicate");
                    assert!(row.listed_twice && sharded && refused, "{what}: {e}");
                    continue;
                }
                Ok(runs) => runs,
            };
            assert!(
                !(row.listed_twice && sharded),
                "{what}: a resolver listed twice ran"
            );
            for (killed, outcome, journal) in runs {
                let what = format!("{what}{killed}");
                expected.assert_same(&outcome, &what);
                if let Some((shards, journal)) = journal {
                    assert!(!faulted || journal.contains("fault_window"), "{what}");
                    let first = journals.entry(shards).or_insert_with(|| journal.clone());
                    assert!(*first == journal, "{what}: journal differs");
                }
            }
        }
    }
}

/// One test per row, so that the rows run side by side.
macro_rules! rows {
    ($($test:ident: $row:expr,)*) => {$(
        #[test]
        fn $test() {
            assert_engines_agree(&ROWS[$row]);
        }
    )*};
}

rows! {
    plain: 0,
    faults_with_retries: 1,
    load: 2,
    interleaved_sessions: 3,
    composed: 4,
    overlapping_spans: 5,
    domains_out_of_rank_order: 6,
    a_resolver_listed_twice: 7,
}

#[test]
fn the_anchor_table_pins_every_row_at_each_seed_apart() {
    assert!(ANCHOR_TABLE.starts_with(ANCHORS_HEADER));
    let lines: Vec<&str> = ANCHOR_TABLE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    let field = |line: &str, key: &str| {
        let field = line.split(' ').find(|f| f.starts_with(key)).unwrap();
        field[key.len()..].to_string()
    };
    let keys: Vec<(String, String)> = lines
        .iter()
        .map(|l| (field(l, "row="), field(l, "seed=")))
        .collect();
    let rows = ROWS
        .iter()
        .flat_map(|row| SEEDS.map(|seed| (row.name, seed)));
    let expected: Vec<(String, String)> = rows
        .map(|(row, seed)| (row.to_string(), seed.to_string()))
        .collect();
    assert_eq!(keys, expected, "the anchor table's (row, seed) lines");
    // Each row's seeds write different campaigns.
    for seeds in lines.chunks(SEEDS.len()) {
        assert_ne!(field(seeds[0], "fnv64="), field(seeds[1], "fnv64="));
    }
}

#[test]
fn every_pair_fills_its_vantage_slots_in_order() {
    for row in &ROWS {
        let c = row.campaign(SEEDS[0]);
        let domains = &c.config().domains;
        for (vantage, records) in c.generate(1).pairs() {
            let filled = records.iter().map(|r| (r.at.as_nanos(), r.domain()));
            let slots = c.slots(vantage);
            let scheduled = slots
                .iter()
                .map(|s| (s.at, domains[s.domain as usize].as_str()));
            let what = format!("{}: a pair of {vantage}", row.name);
            assert!(filled.eq(scheduled), "{what}");
        }
    }
}

#[test]
fn the_composed_row_matches_its_reference_on_every_wire() {
    for protocol in PROTOCOLS {
        let mut config = (ROWS[4].config)(SEEDS[0]);
        config.probe.protocol = protocol;
        let c = campaign(config, false);
        let what = format!("composed, {protocol:?}");
        Outcome::of(&c, &c.run()).assert_same(&Outcome::of(&c, &c.run_reference()), &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_in_memory_engines_agree_on_any_seed_and_features(
        seed in any::<u64>(),
        protocol in 0usize..PROTOCOLS.len(),
        faulted in any::<bool>(),
        retry in 0usize..3,
        load in 0usize..3,
        session in 0usize..4,
    ) {
        let mut config = quick(seed, PROTOCOLS[protocol], faulted, retry);
        let load = [0.0, 2.0, 8.0][load];
        if load > 0.0 {
            config = config.with_load(LoadModel::standard(seed).with_multiplier(load));
        }
        if let Some(cold) = [None, Some(0.0), Some(0.25), Some(0.9)][session] {
            config = config.with_session(SessionConfig::interleaved(cold));
        }
        let what = format!("{config:?}");
        let c = campaign(config, false);
        let expected = Outcome::of(&c, &c.run());
        for engine in ENGINES.into_iter().filter(|e| e.in_memory()) {
            for (_, outcome, _) in engine.runs(&c).unwrap() {
                expected.assert_same(&outcome, &format!("{engine:?}: {what}"));
            }
        }
    }
}

#[test]
fn a_complete_directory_resumes_to_the_same_outcome_every_time() {
    // Assembly validates the directory and installs the cells on a second
    // thread while the first merges the data files: whichever lane gets
    // ahead, a resumed run is a function of the directory.
    let c = ROWS[4].campaign(SEEDS[0]);
    let expected = Outcome::of(&c, &c.run());
    let dir = Scratch::new();
    let runner = ShardedRunner::new(&c, RESUME_SHARDS, &dir).unwrap();
    assert_eq!(runner.advance(RESUME_SHARDS as usize).unwrap(), 0);
    let mut first: Option<String> = None;
    for run in 0..100 {
        let outcome = runner.run(1).unwrap();
        let resumed = outcome.run.shards_resumed.get();
        assert_eq!(resumed, u64::from(RESUME_SHARDS), "run {run}");
        let (outcome, journal) = Outcome::of_sharded(outcome);
        expected.assert_same(&outcome, &format!("resumed run {run}"));
        assert!(journal.contains("fault_window"), "run {run}: {journal}");
        let first = first.get_or_insert_with(|| journal.clone());
        assert!(*first == journal, "run {run}: journal differs");
    }
}
