//! Differential pinning of the load model's zero-transparency contract:
//! a campaign configured with `LoadModel::zero()` — or any model whose
//! `is_zero()` holds — must produce **byte-identical** output to the same
//! campaign with no load model at all, across seeds, protocols, fault
//! plans and retry policies, serially and at 3 threads.
//!
//! This is the invariant that lets the load subsystem ride along without
//! invalidating any seed golden: a zero model never builds pair load
//! state, so the driver routes every attempt statically, and that run
//! still matches the fresh-wire reference run. A live model, by contrast,
//! MUST change output (otherwise the sweep measures nothing) — asserted
//! here too, along with its thread-count invariance, its agreement with
//! the reference run for every protocol, and its indifference to a
//! cold-only session config.

use measure::{Campaign, CampaignConfig, LoadModel, Protocol, RetryPolicy, SessionConfig};
use netsim::SimDuration;
use proptest::prelude::*;

/// Same deliberate diversity as the wires differential: healthy anycast
/// mainstream, mostly-down hobbyist, HTTP/1.1-only flaky host.
const HOSTS: [&str; 3] = [
    "dns.google",
    "chewbacca.meganerd.nl",
    "ibksturm.synology.me",
];

const PROTOCOLS: [Protocol; 5] = [
    Protocol::Do53,
    Protocol::DoT,
    Protocol::DoH,
    Protocol::DoQ,
    Protocol::ODoH,
];

fn retry_policy(idx: usize) -> RetryPolicy {
    match idx {
        0 => RetryPolicy::none(),
        1 => RetryPolicy::dig_defaults(),
        _ => RetryPolicy {
            tries: 3,
            attempt_timeout: Some(SimDuration::from_millis(800)),
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(1),
            jitter: 0.5,
        },
    }
}

fn config(seed: u64, protocol: Protocol, faulted: bool, retry: RetryPolicy) -> CampaignConfig {
    let mut config = CampaignConfig::quick(seed, 2);
    config.probe.protocol = protocol;
    config.probe.retry = retry;
    if faulted {
        config = config.with_default_faults();
    }
    config
}

fn campaign_with(config: CampaignConfig) -> Campaign {
    let entries = HOSTS
        .iter()
        .map(|h| catalog::resolvers::find(h).unwrap())
        .collect();
    Campaign::with_resolvers(config, entries)
}

/// The zero-model campaign must be byte-identical to the no-model
/// campaign: records, JSONL, serially and at 3 threads.
fn assert_zero_load_is_transparent(base: CampaignConfig, context: &str) {
    let unloaded = campaign_with(base.clone());
    let baseline = unloaded.run();

    for (label, zero) in [
        ("LoadModel::zero()", LoadModel::zero()),
        (
            "standard().with_multiplier(0.0)",
            LoadModel::standard(base.seed).with_multiplier(0.0),
        ),
    ] {
        let loaded = campaign_with(base.clone().with_load(zero));
        let result = loaded.run();
        assert_eq!(
            baseline.records, result.records,
            "{label} diverged from no-model run: {context}"
        );
        assert_eq!(
            baseline.to_json_lines(),
            result.to_json_lines(),
            "{label} JSONL bytes diverged: {context}"
        );
        let parallel = loaded.run_parallel(3);
        assert_eq!(
            parallel.records, baseline.records,
            "{label} 3-thread run diverged: {context}"
        );
    }
}

#[test]
fn zero_load_transparent_for_every_protocol_under_faults() {
    for protocol in PROTOCOLS {
        assert_zero_load_is_transparent(
            config(23, protocol, true, RetryPolicy::dig_defaults()),
            &format!("{protocol:?}, faulted, dig retries"),
        );
    }
}

#[test]
fn zero_load_still_matches_the_per_probe_reference() {
    // Transitivity check: the zero-model fast path == unloaded fast path
    // == per-probe reference. Run the chain explicitly once.
    let base = config(4, Protocol::DoH, true, RetryPolicy::dig_defaults());
    let zeroed = campaign_with(base.clone().with_load(LoadModel::zero()));
    let reference = campaign_with(base).run_reference();
    assert_eq!(zeroed.run().records, reference.records);
}

#[test]
fn live_load_changes_output_and_is_thread_invariant() {
    let base = config(11, Protocol::DoH, false, RetryPolicy::none());
    let baseline = campaign_with(base.clone()).run();
    let loaded = campaign_with(base.with_load(LoadModel::standard(11).with_multiplier(8.0)));
    let serial = loaded.run();
    assert_ne!(
        baseline.records, serial.records,
        "a saturating load model must change campaign output"
    );
    assert_eq!(
        serial.records,
        loaded.run_parallel(3).records,
        "loaded campaign must not depend on thread count"
    );
    assert_eq!(
        serial.to_json_lines(),
        loaded.run().to_json_lines(),
        "loaded campaign must be rerun-deterministic"
    );
}

#[test]
fn live_load_matches_the_per_probe_reference_for_every_protocol() {
    for protocol in PROTOCOLS {
        let base = config(23, protocol, true, RetryPolicy::dig_defaults());
        let loaded = campaign_with(base.with_load(LoadModel::standard(23).with_multiplier(2.0)));
        let fast = loaded.run();
        let reference = loaded.run_reference();
        assert_eq!(
            fast.records, reference.records,
            "loaded run diverged from its reference: {protocol:?}"
        );
        assert_eq!(fast.to_json_lines(), reference.to_json_lines());
    }
}

#[test]
fn cold_only_sessions_under_live_load_are_load_alone() {
    for protocol in PROTOCOLS {
        let base = config(23, protocol, true, RetryPolicy::dig_defaults())
            .with_load(LoadModel::standard(23).with_multiplier(2.0));
        let alone = campaign_with(base.clone()).run().to_json_lines();
        let cold = campaign_with(base.with_session(SessionConfig::cold_only()))
            .run()
            .to_json_lines();
        assert_eq!(
            alone, cold,
            "a cold-only session config changed a loaded campaign: {protocol:?}"
        );
        assert!(!cold.contains("\"conn_mode\""));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zero_load_transparent(
        seed in any::<u64>(),
        proto_idx in 0usize..PROTOCOLS.len(),
        faulted in any::<bool>(),
        retry_idx in 0usize..3,
    ) {
        assert_zero_load_is_transparent(
            config(seed, PROTOCOLS[proto_idx], faulted, retry_policy(retry_idx)),
            &format!(
                "seed={seed}, protocol={:?}, faulted={faulted}, retry={retry_idx}",
                PROTOCOLS[proto_idx]
            ),
        );
    }
}
