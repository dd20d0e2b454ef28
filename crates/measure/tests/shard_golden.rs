//! Golden regression for the shard scheduler and checkpoint format.
//!
//! `golden/shard_manifest_seed4.ckpt` pins the manifest bytes — header,
//! body checksum, per-shard record/byte counts, data-file and cell-file
//! checksums — for the seed-4 quick campaign split into five shards, and
//! `golden/shard_cells_seed4_shard2.cells` pins one of its cell files:
//! every pair entry of shard 2, its aggregate, exhaustions, day and
//! metrics cells. Any drift in
//! shard assignment, checkpoint encoding, or the aggregate and health
//! folds shows up as a byte diff here (in the other four cell files too:
//! the manifest pins their checksums).
//!
//! Regenerate after an intentional format change with:
//! `cargo run --release -p bench --bin shard_golden_regen`.

mod support;

use measure::{CampaignConfig, Protocol, RetryPolicy, ShardedRunner};

use support::{golden_campaign, Scratch};

#[test]
fn shard_manifest_matches_golden_bytes() {
    let expected = include_str!("golden/shard_manifest_seed4.ckpt");
    let c = golden_campaign(CampaignConfig::quick(4, 3));
    let dir = Scratch::new();
    let outcome = ShardedRunner::new(&c, 5, &dir).unwrap().run(2).unwrap();
    let manifest = std::fs::read_to_string(dir.join("manifest.ckpt")).unwrap();

    for (i, (got, want)) in manifest.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "manifest line {} drifted", i + 1);
    }
    assert_eq!(manifest, expected, "manifest bytes drifted from fixture");
    assert_eq!(
        std::fs::read_to_string(dir.join("shard-0002.cells")).unwrap(),
        include_str!("golden/shard_cells_seed4_shard2.cells"),
        "shard 2's cell file drifted from fixture"
    );

    // The assembled campaign stream must still match the one-shot golden
    // JSONL fixture: sharding is invisible in the output.
    let jsonl = std::fs::read_to_string(&outcome.jsonl_path).unwrap();
    assert_eq!(
        jsonl,
        include_str!("golden/campaign_seed4.jsonl"),
        "assembled JSONL drifted from the one-shot golden fixture"
    );
}

#[test]
fn shard_metrics_match_golden_render() {
    let c = golden_campaign(CampaignConfig::quick(4, 3));
    let dir = Scratch::new();
    let outcome = ShardedRunner::new(&c, 5, &dir).unwrap().run(2).unwrap();
    assert_eq!(
        outcome.metrics.render(),
        include_str!("golden/campaign_seed4.metrics.txt"),
        "sharded metrics snapshot drifted from the one-shot golden fixture"
    );
}

/// `ShardedRunner::fingerprint` of configs away from the default probe
/// configuration and with a live session model, whose fields the golden
/// manifest (default probe, no session) never hashes. A checkpoint written
/// by any earlier build for these configs must still be this campaign's.
#[test]
fn fingerprints_of_non_default_probe_and_session_configs_are_pinned() {
    let composed = support::ROWS.iter().find(|r| r.name == "composed").unwrap();
    let mut dot = CampaignConfig::quick(4, 3);
    dot.probe.protocol = Protocol::DoT;
    dot.probe.retry = RetryPolicy::dig_defaults();
    let pins = [
        (
            "composed, seed 11",
            composed.campaign(11),
            4,
            0x19df3f2ed9e3c9c0_u64,
        ),
        (
            "composed, seed 97",
            composed.campaign(97),
            4,
            0x6b0eac7ce787a92c,
        ),
        (
            "quick(4, 3) over DoT, dig retries",
            golden_campaign(dot),
            5,
            0x8acc8c033464a774,
        ),
    ];
    let got: Vec<String> = pins
        .iter()
        .map(|(what, c, shards, _)| {
            let dir = Scratch::new();
            let fingerprint = ShardedRunner::new(c, *shards, &dir).unwrap().fingerprint();
            format!("{what}: {fingerprint:016x}")
        })
        .collect();
    let want: Vec<String> = (pins.iter())
        .map(|(what, _, _, pin)| format!("{what}: {pin:016x}"))
        .collect();
    assert_eq!(got, want);
}
