//! Golden-file test pinning the campaign's observable output bytes.
//!
//! The fixtures under `tests/golden/` were first generated by the
//! pre-interning implementation (global string sort, JSON-tree
//! serializer), and every hot path since — interned labels, pair streams
//! in campaign order, streaming JSONL — reproduced them byte-for-byte, for
//! both the JSON Lines record stream and the rendered metrics snapshot,
//! until the normal sampler became a ziggurat and the draws themselves
//! changed.
//!
//! Regenerate (only when the simulated world intentionally changes) with:
//! `cargo run --release -p bench --bin golden_regen`.

mod support;

use measure::checkpoint::fnv64;
use measure::{
    Campaign, CampaignConfig, ProbeConfig, ProbeRequest, ProbeTarget, Prober, Protocol,
    RetryPolicy, SpanLog,
};
use netsim::{SimDuration, SimRng, SimTime};

fn golden_campaign() -> Campaign {
    support::golden_campaign(CampaignConfig::quick(4, 3))
}

#[test]
fn jsonl_output_matches_golden_bytes() {
    let expected = include_str!("golden/campaign_seed4.jsonl");
    let got = golden_campaign().run().to_json_lines();
    assert_eq!(
        got.lines().count(),
        expected.lines().count(),
        "record count drifted from the golden fixture"
    );
    for (i, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, e, "line {} differs from golden fixture", i + 1);
    }
    assert_eq!(got, expected, "byte-level mismatch with golden fixture");
}

#[test]
fn metrics_render_matches_golden_bytes() {
    let expected = include_str!("golden/campaign_seed4.metrics.txt");
    let got = golden_campaign().run().metrics().render();
    assert_eq!(got, expected, "metrics render drifted from golden fixture");
}

#[test]
fn parallel_run_matches_golden_bytes() {
    let expected = include_str!("golden/campaign_seed4.jsonl");
    let got = golden_campaign().run_parallel(3).to_json_lines();
    assert_eq!(got, expected, "parallel run drifted from golden fixture");
}

// --- Retry/fault-layer fixtures -------------------------------------------
//
// `campaign_seed4.jsonl` predates the retry layer (it is the PR 2 fixture,
// regenerated byte-identically); the tests above therefore double as the
// proof that a retries-disabled campaign is transparent to it. The fixtures
// below pin the *extended* schema: the same campaign under dig-default
// retries and the seeded default fault plan.

fn faulted_campaign() -> Campaign {
    support::golden_campaign(CampaignConfig::quick(4, 3).with_default_faults())
}

#[test]
fn retries_jsonl_output_matches_golden_bytes() {
    let expected = include_str!("golden/campaign_seed4_retries.jsonl");
    let got = faulted_campaign().run().to_json_lines();
    assert_eq!(
        got, expected,
        "retry-enabled output drifted from golden fixture"
    );
    assert!(
        got.contains("\"attempts\":"),
        "retry accounting keys must appear in the faulted fixture"
    );
}

#[test]
fn retries_metrics_render_matches_golden_bytes() {
    let expected = include_str!("golden/campaign_seed4_retries.metrics.txt");
    let got = faulted_campaign().run().metrics().render();
    assert_eq!(
        got, expected,
        "retry-enabled metrics render drifted from golden fixture"
    );
}

#[test]
fn retries_parallel_run_matches_golden_bytes() {
    let expected = include_str!("golden/campaign_seed4_retries.jsonl");
    let got = faulted_campaign().run_parallel(3).to_json_lines();
    assert_eq!(
        got, expected,
        "parallel faulted run drifted from golden fixture"
    );
}

#[test]
fn disabled_retry_layer_is_byte_transparent() {
    // The explicit statement of the contract: a default-config campaign
    // (RetryPolicy::none(), empty fault plan) serialises with no retry
    // keys at all, which is what keeps the PR 2 fixture valid forever.
    let got = golden_campaign().run().to_json_lines();
    for key in [
        "\"attempts\":",
        "\"attempt_errors\":",
        "\"ttfb_ms\":",
        "\"ttlb_ms\":",
    ] {
        assert!(!got.contains(key), "disabled retry layer leaked {key}");
    }
}

// --- Probe matrix ----------------------------------------------------------
//
// `probe_matrix.txt` was written by the last commit that had a separate
// reference implementation of the transport sequencing (named in the
// fixture's header), from that reference's output: one hash per (seed,
// protocol, arm) of the campaign JSONL and one per (protocol, host) of
// traced probes' span renders. It is the stored verdict of the deleted
// twin: today's `run()` and `run_reference()` must both reproduce every
// cell. It is rewritten (`golden_regen --frozen`) only across a change
// of the simulated draws themselves, as when the normal sampler became
// a ziggurat, and only after a bit-identical commit has shown the code
// still reproducing it under the old draws.

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split(' ')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("fixture line lacks {key}: {line}"))
}

#[test]
fn probe_matrix_campaign_cells_match_the_frozen_reference() {
    let fixture = include_str!("golden/probe_matrix.txt");
    let mut cells = 0;
    for line in fixture.lines().filter(|l| l.starts_with("campaign ")) {
        let seed: u64 = field(line, "seed").parse().unwrap();
        let protocol = Protocol::from_label(field(line, "protocol")).unwrap();
        let config = support::probe_matrix_config(seed, protocol, field(line, "cell"));
        let campaign = support::campaign(config, false);
        for (source, result) in [
            ("run", campaign.run()),
            ("run_reference", campaign.run_reference()),
        ] {
            let got = format!(
                "records={} fnv64={:016x}",
                result.records.len(),
                fnv64(result.to_json_lines().as_bytes())
            );
            assert!(line.ends_with(&got), "{line}\n  {source}() now: {got}");
        }
        cells += 1;
    }
    assert_eq!(cells, 2 * 5 * 6, "fixture lost cells");
}

#[test]
fn probe_matrix_span_renders_match_the_frozen_reference() {
    let fixture = include_str!("golden/probe_matrix.txt");
    let vantage = measure::vantage::find("ec2-ohio").unwrap();
    let client = vantage.host(0);
    let domain = dns_wire::Name::parse("google.com").unwrap();
    let faults = measure::config::default_fault_plan(4, SimDuration::from_hours(24));
    let prober = Prober::new();
    let mut lines = 0;
    for line in fixture.lines().filter(|l| l.starts_with("spans ")) {
        let host = field(line, "host");
        let mut target = ProbeTarget::from_entry(catalog::resolvers::find(host).unwrap());
        let mut rng = SimRng::derived(4, &format!("matrix:{host}"));
        let cfg = ProbeConfig {
            protocol: Protocol::from_label(field(line, "protocol")).unwrap(),
            retry: RetryPolicy::dig_defaults(),
            ..ProbeConfig::default()
        };
        let mut text = String::new();
        let mut events = 0;
        for i in 0..3u64 {
            let mut log = SpanLog::with_capacity(1024);
            let req = ProbeRequest {
                cfg,
                faults: &faults,
                ..ProbeRequest::new(&client, &domain, SimTime::ZERO + SimDuration::from_hours(i))
            };
            prober.probe(&req, &mut target, &mut rng, &mut log);
            assert_eq!(log.dropped(), 0);
            events += log.recorded();
            text.push_str(&log.render());
        }
        let got = format!("events={events} fnv64={:016x}", fnv64(text.as_bytes()));
        assert!(line.ends_with(&got), "{line}\n  now: {got}");
        lines += 1;
    }
    assert_eq!(lines, 5 * 2, "fixture lost span lines");
}
