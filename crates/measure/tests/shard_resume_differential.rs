//! Differential determinism for the sharded, resumable campaign engine:
//! for multiple seeds and shard counts, the one-shot `run()` output must
//! be **byte-identical** to a sharded run — and to a campaign killed and
//! resumed at *every* shard boundary. Compares the final JSONL bytes, the
//! metrics snapshot render, and the bounded-memory aggregate cells. And
//! since both engines order records by the campaign schedule rather than
//! by reading them, every pair's generated records must fill its
//! vantage's slots in order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use measure::{metrics_of, Campaign, CampaignAggregates, CampaignConfig, ShardedRunner, Span};

const HOSTS: [&str; 4] = [
    "dns.google",
    "dns.quad9.net",
    "doh.ffmuc.net",
    "chewbacca.meganerd.nl",
];

fn campaign(config: CampaignConfig) -> Campaign {
    let entries = HOSTS
        .iter()
        .filter_map(|h| catalog::resolvers::find(h))
        .collect();
    Campaign::with_resolvers(config, entries)
}

/// A unique scratch directory per call (no tempfile dependency).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("edns-shard-diff-{}-{tag}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

struct OneShot {
    jsonl: String,
    metrics: String,
    aggregates: CampaignAggregates,
}

fn one_shot(c: &Campaign) -> OneShot {
    let result = c.run();
    OneShot {
        jsonl: result.to_json_lines(),
        metrics: metrics_of(&result.records).render(),
        aggregates: CampaignAggregates::of(c, &result.records),
    }
}

fn assert_matches_one_shot(
    c: &Campaign,
    reference: &OneShot,
    outcome: &measure::ShardedOutcome,
    context: &str,
) {
    let sharded = std::fs::read_to_string(&outcome.jsonl_path).unwrap();
    assert_eq!(sharded, reference.jsonl, "JSONL bytes diverged: {context}");
    assert_eq!(
        outcome.metrics.render(),
        reference.metrics,
        "metrics snapshot diverged: {context}"
    );
    assert_eq!(
        &outcome.aggregates, &reference.aggregates,
        "aggregate cells diverged: {context}"
    );
    assert_eq!(
        outcome.records as usize,
        c.probe_count(),
        "record count diverged: {context}"
    );
}

#[test]
fn sharded_run_matches_one_shot_across_seeds_and_shard_counts() {
    for seed in [11u64, 97] {
        let c = campaign(CampaignConfig::quick(seed, 2));
        let reference = one_shot(&c);
        for shards in [1u32, 3, 7] {
            let dir = scratch_dir("fresh");
            let runner = ShardedRunner::new(&c, shards, &dir).unwrap();
            let outcome = runner.run(3).unwrap();
            assert_matches_one_shot(
                &c,
                &reference,
                &outcome,
                &format!("seed {seed}, {shards} shards"),
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn kill_and_resume_at_every_shard_boundary_is_byte_identical() {
    for seed in [11u64, 97] {
        let c = campaign(CampaignConfig::quick(seed, 2));
        let reference = one_shot(&c);
        let shards = 5u32;
        // Finished by the calling thread alone, and with one and two
        // workers beside it.
        for (stop_after, finishers) in (0..=shards as usize).flat_map(|k| [(k, 0), (k, 1), (k, 2)])
        {
            let dir = scratch_dir("resume");
            {
                // First process: killed after `stop_after` shards.
                let runner = ShardedRunner::new(&c, shards, &dir).unwrap();
                let remaining = runner.advance(stop_after).unwrap();
                assert_eq!(remaining, shards as usize - stop_after);
            }
            // Second process: fresh runner over the same directory resumes
            // and finishes.
            let runner = ShardedRunner::new(&c, shards, &dir).unwrap();
            let outcome = runner.run(finishers).unwrap();
            assert_eq!(
                outcome.run.shards_resumed.get(),
                stop_after as u64,
                "resume must adopt exactly the checkpointed shards"
            );
            assert_eq!(
                outcome.run.manifest_writes.get(),
                (shards as usize - stop_after) as u64,
                "one manifest commit per shard this run executed"
            );
            assert_matches_one_shot(
                &c,
                &reference,
                &outcome,
                &format!(
                    "seed {seed}, killed after {stop_after}/{shards} shards, run({finishers})"
                ),
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn differential_holds_under_faults_and_retries() {
    // The fault plan exercises failure records and per-attempt retry
    // accounting — the full JSON schema must survive the shard files'
    // parse-and-merge round trip.
    let c = campaign(CampaignConfig::quick(23, 2).with_default_faults());
    let reference = one_shot(&c);
    let dir = scratch_dir("faults");
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    runner.advance(2).unwrap();
    let outcome = ShardedRunner::new(&c, 4, &dir).unwrap().run(2).unwrap();
    assert_matches_one_shot(&c, &reference, &outcome, "faulted campaign, resume at 2/4");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn longitudinal_config_runs_sharded_with_bounded_cells() {
    // Two simulated days over the small population: the aggregate side
    // stays O(pairs) regardless of days.
    let c = campaign(CampaignConfig::longitudinal(5, 2));
    let reference = one_shot(&c);
    let dir = scratch_dir("longitudinal");
    let runner = ShardedRunner::new(&c, 6, &dir).unwrap();
    let outcome = runner.run(3).unwrap();
    assert_matches_one_shot(&c, &reference, &outcome, "longitudinal 2-day campaign");
    // 7 vantages x 4 resolvers.
    assert_eq!(outcome.aggregates.pairs().len(), 28);
    assert_eq!(outcome.aggregates.probes(), c.probe_count() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_spans_cover_the_campaign_in_index_order() {
    let c = campaign(CampaignConfig::quick(11, 2));
    let dir = scratch_dir("spans");
    let runner = ShardedRunner::new(&c, 3, &dir).unwrap();
    let outcome = runner.run(2).unwrap();
    let spans = outcome.spans.spans();
    assert_eq!(spans.len(), 3);
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.name, format!("shard-{i}"));
        assert!(s.end >= s.start);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A quick campaign in which one home vantage also runs a second,
/// overlapping span: its rounds at 0 h and 12 h come twice.
fn overlapping_spans(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::quick(seed, 2);
    config.spans.push(Span {
        start_day: 0,
        days: 1,
        rounds_per_day: 4,
        vantages: config.spans[0].vantages[..1].to_vec(),
    });
    config
}

/// A quick campaign whose domains are listed against their rank order,
/// one of them twice.
fn domains_out_of_rank_order(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::quick(seed, 2);
    config.domains = ["wikipedia.com", "google.com", "amazon.com", "google.com"]
        .map(String::from)
        .to_vec();
    config
}

#[test]
fn every_pair_fills_its_vantage_slots_in_order() {
    let configs = [
        ("quick", CampaignConfig::quick(31, 2)),
        (
            "longitudinal, faults and retries",
            CampaignConfig::longitudinal(31, 3).with_default_faults(),
        ),
        ("overlapping spans", overlapping_spans(31)),
        ("domains out of rank order", domains_out_of_rank_order(31)),
    ];
    for (what, config) in configs {
        let c = campaign(config);
        let domains = &c.config().domains;
        let generated = c.generate(1);
        for (vantage, records) in generated.pairs() {
            let slots = c.slots(vantage);
            let filled: Vec<(u64, &str)> = records
                .iter()
                .map(|r| (r.at.as_nanos(), r.domain()))
                .collect();
            let scheduled: Vec<(u64, &str)> = slots
                .iter()
                .map(|s| (s.at, domains[s.domain as usize].as_str()))
                .collect();
            assert_eq!(filled, scheduled, "{what}: a pair of {vantage}");
        }
    }
    // Where slots tie on (time, domain rank), the stable tie-break is
    // all that orders them: the sharded engine must still reproduce the
    // one-shot bytes at any shard count.
    for (what, config) in [
        ("overlapping spans", overlapping_spans(37)),
        ("domains out of rank order", domains_out_of_rank_order(37)),
    ] {
        let c = campaign(config);
        let reference = one_shot(&c);
        for shards in [1u32, 3, 7] {
            let dir = scratch_dir("slots");
            let outcome = ShardedRunner::new(&c, shards, &dir)
                .unwrap()
                .run(2)
                .unwrap();
            assert_matches_one_shot(
                &c,
                &reference,
                &outcome,
                &format!("{what}, {shards} shards"),
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
