//! Regenerates the shard-scheduler golden fixtures under
//! `crates/measure/tests/golden/`. Run from the repo root after an
//! *intentional* checkpoint-format change:
//!
//! ```text
//! cargo run --release -p bench --bin shard_golden_regen
//! ```
//!
//! The fixtures pin the complete `manifest.ckpt` bytes (header, checksum,
//! per-shard record/byte counts and file checksums) and shard 2's cell
//! file (one entry per pair: its aggregate, exhaustions, day and metrics
//! cells) for a fixed-seed campaign split into five shards;
//! `crates/measure/tests/shard_golden.rs` asserts the scheduler reproduces
//! them byte-for-byte and that the assembled JSONL still matches the
//! one-shot golden fixture. Both files are decoded by the direct codecs,
//! and `crates/measure/tests/checkpoint_proptests.rs` reads each against
//! its tree oracle, mutated byte by byte.

use measure::{Campaign, CampaignConfig, ShardedRunner};

fn entries() -> Vec<catalog::ResolverEntry> {
    [
        "dns.google",
        "dns.quad9.net",
        "doh.ffmuc.net",
        "chewbacca.meganerd.nl",
    ]
    .into_iter()
    .map(|h| catalog::resolvers::find(h).unwrap())
    .collect()
}

fn main() {
    let golden = std::path::Path::new("crates/measure/tests/golden");
    std::fs::create_dir_all(golden).unwrap();

    let scratch = std::env::temp_dir().join(format!("edns-shard-golden-{}", std::process::id()));
    let campaign = Campaign::with_resolvers(CampaignConfig::quick(4, 3), entries());
    let runner = ShardedRunner::new(&campaign, 5, &scratch).unwrap();
    let outcome = runner.run(2).unwrap();

    let manifest = std::fs::read_to_string(scratch.join("manifest.ckpt")).unwrap();
    std::fs::write(golden.join("shard_manifest_seed4.ckpt"), &manifest).unwrap();
    let cells = std::fs::read_to_string(runner.cells_path(2)).unwrap();
    std::fs::write(golden.join("shard_cells_seed4_shard2.cells"), &cells).unwrap();
    eprintln!(
        "wrote shard_manifest_seed4.ckpt ({} bytes) and shard_cells_seed4_shard2.cells \
         ({} bytes); {} records across 5 shards",
        manifest.len(),
        cells.len(),
        outcome.records
    );
    std::fs::remove_dir_all(&scratch).unwrap();
}
