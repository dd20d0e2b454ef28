//! Regenerates the golden campaign fixtures under
//! `crates/measure/tests/golden/`. Run from the repo root after an
//! *intentional* output-format change:
//!
//! ```text
//! cargo run --release -p bench --bin golden_regen
//! ```
//!
//! The fixtures pin the JSONL byte format and the metrics snapshot render
//! for a fixed-seed campaign; `crates/measure/tests/golden_output.rs`
//! asserts the hot path reproduces them byte-for-byte. The equivalence
//! matrix's anchor table, `equivalence_anchors.txt`, pins the bytes of
//! each of its rows (`crates/measure/tests/support/`) at each seed, which
//! `crates/measure/tests/equivalence.rs` holds every engine to. The metrics-export
//! fixtures under `crates/report/tests/golden/` pin the JSON and CSV
//! export formats the same way (`crates/report/tests/golden_metrics.rs`).
//!
//! `crates/measure/tests/golden/probe_matrix.txt` is not written by a
//! plain run. It holds what a separate reference implementation of the
//! probe path produced (named in its header); rewriting it from today's
//! code would make it agree with itself. Only a deliberate change of the
//! simulated world's random draws — one that a bit-identical commit
//! before it has shown today's code still reproduces the matrix under
//! the old draws — rewrites it, with `--frozen`:
//!
//! ```text
//! cargo run --release -p bench --bin golden_regen -- --frozen
//! FROZEN_REBASELINE=1 cargo test -p measure --lib span_matrix_matches
//! ```
//!
//! The second line rewrites the other frozen fixture, `span_matrix.txt`,
//! from the test that reads it (its probes go through crate-private
//! session plumbing no bin can reach).

use measure::checkpoint::fnv64;
use measure::{
    metrics_of, Campaign, CampaignConfig, LoadModel, ProbeConfig, ProbeRequest, ProbeTarget,
    Prober, Protocol, RetryPolicy, SessionConfig, SpanLog,
};
use netsim::{SimDuration, SimRng, SimTime};

#[path = "../../../measure/tests/support/mod.rs"]
mod support;

fn entries() -> Vec<catalog::ResolverEntry> {
    let hosts = support::GOLDEN_ROSTER.into_iter();
    hosts
        .map(|h| catalog::resolvers::find(h).unwrap())
        .collect()
}

fn main() {
    let dir = std::path::Path::new("crates/measure/tests/golden");
    std::fs::create_dir_all(dir).unwrap();
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("--frozen") => write_probe_matrix(dir),
        Some(other) => panic!("unknown argument {other}: expected nothing or --frozen"),
    }

    // Baseline: retries disabled, no fault plan. This fixture predates the
    // retry layer and must never change when retry/fault code does — the
    // disabled layer is byte-transparent. Regenerated under 4 worker
    // threads and asserted against the serial run, so a fixture can never
    // be written from a thread count that would change its bytes.
    let baseline = Campaign::with_resolvers(CampaignConfig::quick(4, 3), entries());
    let result = baseline.run();
    assert_eq!(
        result.records,
        baseline.run_parallel(4).records,
        "4-thread regeneration must be byte-identical to serial"
    );
    std::fs::write(dir.join("campaign_seed4.jsonl"), result.to_json_lines()).unwrap();
    std::fs::write(
        dir.join("campaign_seed4.metrics.txt"),
        result.metrics().render(),
    )
    .unwrap();
    eprintln!("wrote {} records", result.records.len());

    // Extended schema: the same campaign under dig-default retries and the
    // seeded fault plan, pinning the per-attempt accounting keys.
    let faulted_campaign =
        Campaign::with_resolvers(CampaignConfig::quick(4, 3).with_default_faults(), entries());
    let faulted = faulted_campaign.run();
    assert_eq!(
        faulted.records,
        faulted_campaign.run_parallel(4).records,
        "4-thread faulted regeneration must be byte-identical to serial"
    );
    std::fs::write(
        dir.join("campaign_seed4_retries.jsonl"),
        faulted.to_json_lines(),
    )
    .unwrap();
    std::fs::write(
        dir.join("campaign_seed4_retries.metrics.txt"),
        faulted.metrics().render(),
    )
    .unwrap();
    eprintln!("wrote {} faulted records", faulted.records.len());

    // Metrics exports: the same baseline campaign's snapshot as JSON and
    // CSV, pinning key order, quoting, and float formatting.
    let report_dir = std::path::Path::new("crates/report/tests/golden");
    std::fs::create_dir_all(report_dir).unwrap();
    let snapshot = metrics_of(&result.records);
    let mut json = report::metrics_json(&snapshot).to_string_compact();
    json.push('\n');
    std::fs::write(report_dir.join("metrics_seed4.json"), json).unwrap();
    std::fs::write(
        report_dir.join("metrics_seed4.csv"),
        report::metrics_csv(&snapshot).render(),
    )
    .unwrap();
    eprintln!("wrote metrics exports for {} cells", snapshot.cells.len());

    // Load-sweep table: the same roster at a load ladder, pinning the
    // per-(multiplier, class) tail-latency/availability rows and their
    // render. The 4-thread ≡ serial assertion extends to loaded configs:
    // the load model is a pure function of (model, pair, time), so thread
    // count must not move a single byte.
    let mut sweep = report::LoadSweep::new();
    for multiplier in [0.0, 2.0, 8.0] {
        let mut config = CampaignConfig::quick(4, 3);
        if multiplier > 0.0 {
            config = config.with_load(LoadModel::standard(4).with_multiplier(multiplier));
        }
        let campaign = Campaign::with_resolvers(config, entries());
        let loaded = campaign.run();
        assert_eq!(
            loaded.records,
            campaign.run_parallel(4).records,
            "4-thread loaded regeneration (x{multiplier}) must be byte-identical to serial"
        );
        sweep.add_point(multiplier, &entries(), &loaded.records);
    }
    std::fs::write(report_dir.join("load_sweep_seed4.txt"), sweep.render()).unwrap();
    eprintln!("wrote load sweep with {} rows", sweep.rows().len());

    // Reuse-ablation table: the same roster per connection-oriented
    // protocol under the interleaved session model, pinning the
    // per-(protocol, mode) rows. Session state is per-pair, so the
    // 4-thread ≡ serial assertion must keep holding with live pools.
    let mut ablation = report::ReuseAblation::new();
    for protocol in [Protocol::DoH, Protocol::DoT, Protocol::DoQ] {
        let mut config = CampaignConfig::quick(4, 3).with_session(SessionConfig::interleaved(0.3));
        config.probe.protocol = protocol;
        let campaign = Campaign::with_resolvers(config, entries());
        let warm = campaign.run();
        assert_eq!(
            warm.records,
            campaign.run_parallel(4).records,
            "4-thread session regeneration ({protocol:?}) must be byte-identical to serial"
        );
        ablation.add_campaign(&warm.records);
    }
    std::fs::write(
        report_dir.join("reuse_ablation_seed4.txt"),
        ablation.render(),
    )
    .unwrap();
    eprintln!("wrote reuse ablation with {} rows", ablation.rows().len());

    write_equivalence_anchors(dir);
}

/// Rewrites `equivalence_anchors.txt`: per (row, seed) of the equivalence
/// matrix, the record count, byte count and FNV-1a of `run()`'s JSONL,
/// asserted equal to `run_reference()` and `run_parallel(4)` first.
fn write_equivalence_anchors(dir: &std::path::Path) {
    let mut out = String::from(support::ANCHORS_HEADER);
    for row in &support::ROWS {
        for seed in support::SEEDS {
            let campaign = row.campaign(seed);
            let result = campaign.run();
            for (engine, other) in [
                ("run_reference()", campaign.run_reference()),
                ("run_parallel(4)", campaign.run_parallel(4)),
            ] {
                assert_eq!(
                    result.records, other.records,
                    "run() and {engine} disagree on row {} at seed {seed}",
                    row.name
                );
            }
            let jsonl = result.to_json_lines();
            let line = support::anchor_line(row, seed, result.records.len(), &jsonl);
            out.push_str(&line);
            out.push('\n');
        }
    }
    std::fs::write(dir.join("equivalence_anchors.txt"), out).unwrap();
    eprintln!("wrote the equivalence anchors");
}

/// Rewrites `probe_matrix.txt`: per (seed, protocol, cell) the record
/// count and FNV-1a of the campaign JSONL, asserted equal between
/// `run()` and `run_reference()`, then per (protocol, host) the event
/// count and FNV-1a of three traced probes' span renders.
fn write_probe_matrix(dir: &std::path::Path) {
    const CELLS: [&str; 6] = [
        "plain",
        "faults_dig",
        "faults_jitter3",
        "faults_dig_load2",
        "faults_dig_interleaved",
        "warm",
    ];
    use support::PROTOCOLS;
    let mut out = String::from(
        "# probe matrix. Generated by commit 8f7ec30aa020df042a4cbd59cddf027624d951b0 from\n\
         # its separate reference implementation of the probe path; every later commit\n\
         # reproduced it bit for bit until the normal sampler changed from Box-Muller to\n\
         # the ziggurat, when `golden_regen --frozen` rewrote it under the new draws.\n\
         # campaign lines: run_reference() output, asserted equal to run(); span lines:\n\
         # three traced Prober::probe calls an hour apart under seed 4's fault plan.\n",
    );
    let hosts = support::ROSTER;
    for seed in [4, 23] {
        for protocol in PROTOCOLS {
            for cell in CELLS {
                let config = support::probe_matrix_config(seed, protocol, cell);
                let campaign = support::campaign(config, false);
                let result = campaign.run_reference();
                assert_eq!(
                    result.records,
                    campaign.run().records,
                    "run() and run_reference() disagree on seed={seed} {protocol} {cell}"
                );
                out.push_str(&format!(
                    "campaign seed={seed} protocol={protocol} cell={cell} source=run_reference \
                     records={} fnv64={:016x}\n",
                    result.records.len(),
                    fnv64(result.to_json_lines().as_bytes())
                ));
            }
        }
    }
    let vantage = measure::vantage::find("ec2-ohio").unwrap();
    let client = vantage.host(0);
    let domain = dns_wire::Name::parse("google.com").unwrap();
    let faults = measure::config::default_fault_plan(4, SimDuration::from_hours(24));
    let prober = Prober::new();
    for protocol in PROTOCOLS {
        for host in &hosts[..2] {
            let mut target = ProbeTarget::from_entry(catalog::resolvers::find(host).unwrap());
            let mut rng = SimRng::derived(4, &format!("matrix:{host}"));
            let cfg = ProbeConfig {
                protocol,
                retry: RetryPolicy::dig_defaults(),
            };
            let (mut text, mut events) = (String::new(), 0);
            for i in 0..3u64 {
                let mut log = SpanLog::with_capacity(1024);
                let req = ProbeRequest {
                    cfg,
                    faults: &faults,
                    ..ProbeRequest::new(
                        &client,
                        &domain,
                        SimTime::ZERO + SimDuration::from_hours(i),
                    )
                };
                prober.probe(&req, &mut target, &mut rng, &mut log);
                assert_eq!(log.dropped(), 0);
                events += log.recorded();
                text.push_str(&log.render());
            }
            out.push_str(&format!(
                "spans protocol={protocol} host={host} events={events} fnv64={:016x}\n",
                fnv64(text.as_bytes())
            ));
        }
    }
    std::fs::write(dir.join("probe_matrix.txt"), out).unwrap();
    eprintln!("wrote the probe matrix");
}
