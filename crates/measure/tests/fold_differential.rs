//! `CampaignFolds` against three oracles that share none of its fold
//! code: its metrics snapshot renders like `metrics_of` (a registry keyed
//! by label, which needs no campaign), its aggregates equal a `BTreeMap`
//! keyed by (vantage, resolver) label folded here, and its health equals
//! `health_oracle`'s. On `quick`, default faults with retries, load ×2 and
//! interleaved sessions the sharded engine's cell files hold the oracle's
//! (pair, day) cells; a resolver listed twice, which the sharded engine
//! refuses, is checked in memory, every record of a duplicated pair routed
//! to its first. That the sharded engine's outcome equals the in-memory
//! folds is the equivalence matrix's (`equivalence.rs`).

mod health_oracle;

use std::collections::BTreeMap;

use measure::{
    metrics_of, AggregateCell, Campaign, CampaignConfig, CampaignFolds, Label, LoadModel,
    ProbeOutcome, ProbeRecord, SessionConfig, ShardedRunner,
};
use obs::MetricsSnapshot;

/// The aggregate cells of `records`, by (vantage, resolver) label.
fn aggregate_oracle(records: &[ProbeRecord]) -> BTreeMap<(Label, Label), AggregateCell> {
    let mut cells: BTreeMap<(Label, Label), AggregateCell> = BTreeMap::new();
    for r in records {
        let cell = cells.entry((r.vantage_id(), r.resolver_id())).or_default();
        match &r.outcome {
            ProbeOutcome::Success { timings, .. } => {
                cell.availability.success();
                cell.response.observe(timings.total().as_millis_f64());
            }
            ProbeOutcome::Failure { kind, .. } => cell.availability.error(*kind),
        }
        if let Some(ping) = r.ping() {
            cell.ping.observe(ping.as_millis_f64());
        }
    }
    cells
}

/// The folds of `hosts` under `config` against the oracles, and the
/// sharded engine's cell files when `sharded`: the folds' metrics.
fn assert_folds_match(
    what: &str,
    config: CampaignConfig,
    hosts: &[&str],
    sharded: bool,
) -> MetricsSnapshot {
    let entries = hosts.iter().filter_map(|h| catalog::resolvers::find(h));
    let c = Campaign::with_resolvers(config, entries.collect());
    let records = c.run().records;
    let folds = CampaignFolds::of(&c, &records);

    health_oracle::assert_health_matches_the_oracle(&c, &records, folds.health(), what);
    let (metrics, aggregates, _) = folds.into_parts();
    assert_eq!(metrics.render(), metrics_of(&records).render(), "{what}");
    assert_eq!(metrics, metrics_of(&records), "{what}");
    let mut oracle = aggregate_oracle(&records);
    for p in aggregates.pairs() {
        // A duplicated pair's records all went to its first pair.
        let expected = oracle.remove(&(p.vantage, p.resolver)).unwrap_or_default();
        assert_eq!(p.cell, expected, "{what}: pair {}", p.pair);
    }
    assert!(oracle.is_empty(), "{what}: records of no pair");

    if sharded {
        let dir =
            std::env::temp_dir().join(format!("edns-fold-differential-{}", std::process::id()));
        let runner = ShardedRunner::new(&c, 3, &dir).unwrap();
        assert_eq!(runner.advance(3).unwrap(), 0, "{what}");
        health_oracle::assert_cell_files_match_the_oracle(&c, &records, &runner, what);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    metrics
}

#[test]
fn the_folds_match_three_oracles_in_memory_and_sharded() {
    let hosts = [
        "dns.google",
        "doh.ffmuc.net",
        "chewbacca.meganerd.nl",
        "dns.quad9.net",
    ];
    let quick = CampaignConfig::quick(37, 4);
    let load = LoadModel::standard(37).with_multiplier(2.0);
    let session = SessionConfig::interleaved(0.3);
    for (what, config) in [
        ("quick", quick.clone()),
        ("faults", quick.clone().with_default_faults()),
        ("load", quick.clone().with_load(load)),
        ("sessions", quick.with_session(session)),
    ] {
        let retries = config.probe.retry.enabled();
        let metrics = assert_folds_match(what, config, &hosts, true);
        assert!(metrics.total_successes() < metrics.total_probes(), "{what}");
        assert!(!retries || metrics.total_retries() > 0, "{what}");
    }
}

#[test]
fn a_resolver_listed_twice_folds_into_its_first_pair() {
    let hosts = ["dns.google", "doh.ffmuc.net", "dns.google"];
    assert_folds_match("twice", CampaignConfig::quick(37, 2), &hosts, false);
}
