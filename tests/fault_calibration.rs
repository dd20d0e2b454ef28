//! Calibration regression for the default fault plan.
//!
//! The paper's §4 availability headline — 5,098,281 successes against
//! 311,351 errors (≈5.76 % error rate), "related to a failure to
//! establish a connection" as the most common class — is reproduced here
//! as an emergent property: a full-population campaign probed with dig
//! defaults (3 tries, 5 s per-attempt timeout) under the seeded default
//! fault plan must land inside [5.0 %, 6.5 %] with
//! connection-establishment failures the largest error class. If a plan
//! or retry change drifts the simulated Internet away from the paper's
//! numbers, this test moves before the report does.

use measure::{Campaign, CampaignConfig, ProbeErrorKind, ProbeOutcome};

/// Standard CLI scale: the full 76-resolver population, 24 rounds over a
/// simulated day from all 7 vantages, with dig-default retries and the
/// seeded fault plan. Computed once and shared — the same result backs
/// every assertion here.
fn calibrated_campaign(seed: u64) -> &'static measure::CampaignResult {
    assert_eq!(seed, 4, "the shared campaign is pinned to seed 4");
    static RESULT: std::sync::OnceLock<measure::CampaignResult> = std::sync::OnceLock::new();
    RESULT.get_or_init(|| Campaign::new(CampaignConfig::quick(4, 24).with_default_faults()).run())
}

fn error_rate(result: &measure::CampaignResult) -> f64 {
    result.errors() as f64 / result.records.len() as f64
}

#[test]
fn default_plan_reproduces_the_papers_error_rate() {
    let result = calibrated_campaign(4);
    let rate = error_rate(result);
    assert!(
        (0.050..=0.065).contains(&rate),
        "calibrated error rate must bracket the paper's 5.76%: got {:.2}%",
        rate * 100.0
    );
}

#[test]
fn connection_failures_are_the_largest_error_class() {
    let result = calibrated_campaign(4);
    let mut by_kind = std::collections::BTreeMap::new();
    for r in &result.records {
        if let ProbeOutcome::Failure { kind, .. } = &r.outcome {
            *by_kind.entry(*kind).or_insert(0u64) += 1;
        }
    }
    let total: u64 = by_kind.values().sum();
    let conn: u64 = by_kind
        .iter()
        .filter(|(k, _)| k.is_connection_failure())
        .map(|(_, &c)| c)
        .sum();
    assert!(
        conn as f64 / total as f64 > 0.5,
        "connection failures must be the majority of errors: {conn}/{total}"
    );
    let (&dominant, _) = by_kind.iter().max_by_key(|(_, &c)| c).unwrap();
    assert_eq!(
        dominant,
        ProbeErrorKind::ConnectTimeout,
        "the single most common class must be connection establishment"
    );
}

#[test]
fn calibrated_campaign_is_deterministic_across_thread_counts() {
    let sequential = calibrated_campaign(4);
    let parallel =
        Campaign::new(CampaignConfig::quick(4, 24).with_default_faults()).run_parallel(4);
    assert_eq!(sequential.records.len(), parallel.records.len());
    assert_eq!(
        sequential.to_json_lines(),
        parallel.to_json_lines(),
        "fault injection and retries must not break run/run_parallel equivalence"
    );
}

#[test]
fn retries_absorb_transient_faults() {
    let result = calibrated_campaign(4);
    let mut recovered = 0u64;
    let mut exhausted = 0u64;
    for r in &result.records {
        if let Some(retry) = &r.retry {
            recovered += u64::from(retry.recovered(&r.outcome));
            exhausted += u64::from(retry.exhausted(&r.outcome));
        }
    }
    assert!(
        recovered > 0,
        "some probes must fail transiently and recover within budget"
    );
    assert_eq!(
        exhausted,
        result.errors() as u64,
        "with retries on, every surviving error must have exhausted its budget"
    );
    // The transient-recovered population is why the retried error rate sits
    // below the single-shot rate: recovered probes would all have been
    // errors for a 1-try prober.
    let single_shot_rate =
        (result.errors() as u64 + recovered) as f64 / result.records.len() as f64;
    assert!(single_shot_rate > error_rate(result));
}
