//! Differential pinning of the cached wire source: `Campaign::run()`
//! (pair-constant `PairContext`, wire templates) must produce
//! **byte-identical** records to `Campaign::run_reference()` (same driver
//! and protocol machines, but every probe routed on its own, its faults
//! resolved against the unmasked plan, and every wire freshly built,
//! encoded and parsed back) — across seeds, protocols, fault plans, retry
//! policies and probe options, serially and in parallel.
//!
//! This is the contract that makes the caches safe: every hoisted
//! quantity is RNG-free and every cached wire is a pure function of
//! pair-constant inputs, so the RNG stream and therefore every outcome,
//! timing and retry record is unchanged.

use measure::{Campaign, CampaignConfig, Protocol, RetryPolicy};
use netsim::SimDuration;
use proptest::prelude::*;

/// A small population with deliberate diversity: a healthy anycast
/// mainstream (cache hits, successes), a mostly-down host (connection
/// failures, blackholes) and an HTTP/1.1-only flaky host (the DoH h1
/// fallback branch).
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
        // Backoff with jitter: retries draw extra RNG, so a fast path
        // that mis-sequenced attempts would diverge here.
        _ => RetryPolicy {
            tries: 3,
            attempt_timeout: Some(SimDuration::from_millis(800)),
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(1),
            jitter: 0.5,
        },
    }
}

fn campaign(
    seed: u64,
    protocol: Protocol,
    faulted: bool,
    retry: RetryPolicy,
    doh_get: bool,
    padding: bool,
) -> Campaign {
    let mut config = CampaignConfig::quick(seed, 2);
    config.probe.protocol = protocol;
    config.probe.doh_get = doh_get;
    config.probe.padding = padding;
    config.probe.retry = retry;
    if faulted {
        config = config.with_default_faults();
    }
    let entries = HOSTS
        .iter()
        .map(|h| catalog::resolvers::find(h).unwrap())
        .collect();
    Campaign::with_resolvers(config, entries)
}

fn assert_fast_path_matches_reference(c: &Campaign, context: &str) {
    let fast = c.run();
    let reference = c.run_reference();
    assert_eq!(
        fast.records, reference.records,
        "fast path diverged from reference: {context}"
    );
    assert_eq!(
        fast.to_json_lines(),
        reference.to_json_lines(),
        "JSONL bytes diverged: {context}"
    );
    let parallel = c.run_parallel(3);
    assert_eq!(
        parallel.records, fast.records,
        "parallel fast path diverged: {context}"
    );
}

#[test]
fn every_protocol_matches_reference_under_faults_and_retries() {
    // Deterministic protocol sweep: guarantees each protocol's template
    // branch is exercised regardless of proptest sampling, with the fault
    // plan and dig retries active (failure records, per-attempt errors).
    for protocol in PROTOCOLS {
        let c = campaign(23, protocol, true, RetryPolicy::dig_defaults(), true, true);
        assert_fast_path_matches_reference(&c, &format!("{protocol:?}, faulted, dig retries"));
    }
}

#[test]
fn doh_post_and_unpadded_templates_match_reference() {
    // POST carries the query wire in the body (different template shape);
    // disabling padding changes the query wire the templates cache.
    for (doh_get, padding) in [(false, true), (true, false), (false, false)] {
        let c = campaign(
            7,
            Protocol::DoH,
            false,
            RetryPolicy::none(),
            doh_get,
            padding,
        );
        assert_fast_path_matches_reference(&c, &format!("doh_get={doh_get}, padding={padding}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fast_path_matches_reference(
        seed in any::<u64>(),
        proto_idx in 0usize..PROTOCOLS.len(),
        faulted in any::<bool>(),
        retry_idx in 0usize..3,
        doh_get in any::<bool>(),
        padding in any::<bool>(),
    ) {
        let c = campaign(seed, PROTOCOLS[proto_idx], faulted, retry_policy(retry_idx), doh_get, padding);
        assert_fast_path_matches_reference(
            &c,
            &format!(
                "seed={seed}, protocol={:?}, faulted={faulted}, retry={retry_idx}, doh_get={doh_get}, padding={padding}",
                PROTOCOLS[proto_idx]
            ),
        );
    }
}
