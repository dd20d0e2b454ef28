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
//! asserts the hot path reproduces them byte-for-byte. The metrics-export
//! fixtures under `crates/report/tests/golden/` pin the JSON and CSV
//! export formats the same way (`crates/report/tests/golden_metrics.rs`).
//!
//! `crates/measure/tests/golden/probe_matrix.txt` is deliberately not
//! written here. It holds what the separate reference implementation of
//! the probe path produced at the last commit that had one (named in its
//! header, whose version of this bin generated it); rewriting it from
//! today's code would make it agree with itself.

use measure::{metrics_of, Campaign, CampaignConfig, LoadModel, Protocol, SessionConfig};

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
    let dir = std::path::Path::new("crates/measure/tests/golden");
    std::fs::create_dir_all(dir).unwrap();

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
}
