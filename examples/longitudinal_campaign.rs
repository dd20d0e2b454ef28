//! A sharded, resumable longitudinal campaign: the multi-month extension
//! of the paper's one-week measurement. Splits the probe space into
//! deterministic shards, checkpoints each one to disk, and survives being
//! killed at any shard boundary — rerunning the example over the same
//! checkpoint directory resumes instead of restarting, and the final
//! output is byte-identical either way. Aggregates (availability, latency
//! sketches) stay bounded at one cell per (vantage, resolver) pair no
//! matter how many simulated days the campaign spans.
//!
//! The run exports the flight recorder's three documents under
//! `target/edns-bench-out/`: `events.jsonl` (every event, stamped in
//! simulated time), `health.jsonl` (the per-(resolver, day) series the
//! drift detector reads) and `trace.json` (one bar per shard over its
//! simulated extent; load it in chrome://tracing).
//!
//! ```sh
//! cargo run --release --example longitudinal_campaign              # 14 days
//! cargo run --release --example longitudinal_campaign -- --days 60
//! ```
//!
//! The equivalent CLI workflow:
//!
//! ```sh
//! edns-measure campaign --days 60 --shards 16 --checkpoint-dir ckpt \
//!     --out out.jsonl --observe observed
//! ```

use std::path::Path;

use edns_bench::measure::{Campaign, CampaignConfig, ShardedRunner};
use edns_bench::report::{health_report, sketch_report};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let days: u32 = args
        .iter()
        .position(|a| a == "--days")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(14);
    let shards = 16u32;
    let seed = 2023;
    // `--faults` runs under the seeded fault plan (with dig-default
    // retries): the journal picks up the outage/brownout windows and the
    // drift detector has something to find.
    let faults = args.iter().any(|a| a == "--faults");

    let mut config = CampaignConfig::longitudinal(seed, days);
    if faults {
        config = config.with_default_faults();
    }
    let campaign = Campaign::new(config);
    eprintln!(
        "Longitudinal campaign: {} simulated days, {} probes over {} resolvers, {} shards",
        days,
        campaign.probe_count(),
        edns_bench::catalog::resolvers::all().len(),
        shards,
    );

    let out_dir = Path::new("target/edns-bench-out");
    let dir = out_dir.join(if faults {
        "longitudinal-ckpt-faulted"
    } else {
        "longitudinal-ckpt"
    });
    let runner = ShardedRunner::new(&campaign, shards, &dir)
        .expect("configure sharded runner")
        .with_progress(true);
    let start = edns_bench::obs::clock::Stopwatch::start();
    // One worker per core beside this thread, which works too.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get() - 1);
    let outcome = runner.run(workers).expect("sharded campaign");
    eprintln!(
        "{} records in {:.1}s ({} of {} shards resumed from checkpoints)\nJSONL: {}\n",
        outcome.records,
        start.elapsed_secs(),
        outcome.run.shards_resumed.get(),
        shards,
        outcome.jsonl_path.display(),
    );

    outcome.export(out_dir).expect("write flight recorder");
    eprintln!(
        "flight recorder: {} events ({} warnings) -> {}/events.jsonl, health.jsonl, trace.json\n",
        outcome.journal.recorded(),
        outcome.journal.count_at(edns_bench::obs::EventLevel::Warn),
        out_dir.display(),
    );

    // The summary tables render straight from the bounded-memory sketch
    // cells — no re-reading of the (potentially huge) JSONL stream. The
    // full per-day health table lives in health.jsonl; stdout carries
    // only the drift findings the detector raised against each
    // resolver's trailing-window baseline.
    println!("{}", sketch_report::render(&outcome.aggregates));
    if outcome.drift.is_empty() {
        println!(
            "== drift findings ==\nno drift detected across {} resolver-days\n",
            outcome.health.resolver_rows().len()
        );
    } else {
        println!(
            "== drift findings ==\n{}",
            health_report::drift_table(&outcome.drift).render()
        );
    }
    println!("{}", outcome.run.render());
}
