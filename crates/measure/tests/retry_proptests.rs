//! Property-based tests for the retry policy engine: the realized backoff
//! schedule is a pure function of (policy, seed), monotone, bounded — and
//! a real probe can never outrun `max_total()`.

use proptest::prelude::*;

use measure::{
    ProbeConfig, ProbeOutcome, ProbeReport, ProbeRequest, ProbeTarget, Prober, RetryPolicy, SpanLog,
};
use netsim::faults::{FaultKind, FaultPlan, FaultScope};
use netsim::{SimDuration, SimRng, SimTime};

/// Valid retry policies with a per-attempt timeout: 1–5 tries, 1–8 s
/// timeouts, bases up to 500 ms, caps at a multiple of the base (or
/// uncapped), jitter anywhere in [0, 1).
fn arb_policy() -> impl Strategy<Value = RetryPolicy> {
    (
        1u32..6,
        1u64..9,
        0u64..501,
        prop_oneof![Just(0u64), Just(1), Just(2), Just(4), Just(8)],
        0.0f64..1.0,
    )
        .prop_map(|(tries, timeout_s, base_ms, cap_mult, jitter)| {
            let base = SimDuration::from_millis(base_ms);
            let cap = SimDuration::from_nanos(base.as_nanos().saturating_mul(cap_mult));
            RetryPolicy {
                tries,
                attempt_timeout: Some(SimDuration::from_secs(timeout_s)),
                backoff_base: base,
                backoff_cap: cap,
                jitter,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn schedule_is_deterministic_per_seed(policy in arb_policy(), seed in any::<u64>()) {
        prop_assert_eq!(policy.validate(), Ok(()));
        let a = policy.backoff_schedule(&mut SimRng::from_seed(seed));
        let b = policy.backoff_schedule(&mut SimRng::from_seed(seed));
        prop_assert_eq!(a, b, "same (policy, seed) must realize the same waits");
    }

    #[test]
    fn schedule_is_monotone_and_bounded(policy in arb_policy(), seed in any::<u64>()) {
        let schedule = policy.backoff_schedule(&mut SimRng::from_seed(seed));
        prop_assert_eq!(schedule.len() as u32, policy.tries - 1);
        let bound = policy.max_backoff();
        let mut prev = SimDuration::ZERO;
        for wait in schedule {
            prop_assert!(wait >= prev, "schedule must be non-decreasing");
            prop_assert!(wait <= bound, "wait {:?} above max_backoff {:?}", wait, bound);
            prev = wait;
        }
    }

    #[test]
    fn schedule_total_fits_inside_max_total(policy in arb_policy(), seed in any::<u64>()) {
        let waits: u64 = policy
            .backoff_schedule(&mut SimRng::from_seed(seed))
            .iter()
            .map(|d| d.as_nanos())
            .sum();
        let timeout = policy.attempt_timeout.unwrap();
        let worst = timeout.as_nanos() * u64::from(policy.tries) + waits;
        let bound = policy.max_total().unwrap();
        prop_assert!(
            worst <= bound.as_nanos(),
            "tries x timeout + waits = {} must fit in {:?}", worst, bound
        );
    }
}

// End-to-end: a probe against a blacked-out site burns its whole budget,
// and its elapsed time never exceeds `max_total()`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exhausted_probe_duration_is_bounded(policy in arb_policy(), seed in any::<u64>()) {
        let entry = catalog::resolvers::find("dns.google").unwrap();
        let mut plan = FaultPlan::with_seed(1);
        plan.push(
            FaultKind::SiteOutage,
            FaultScope::Resolver(entry.hostname.to_string()),
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(24),
        );
        let prober = Prober::new();
        let mut target = ProbeTarget::from_entry(entry);
        let client = measure::vantage::find("ec2-ohio").unwrap().host(0);
        let domain = dns_wire::Name::parse("google.com").unwrap();
        let mut rng = SimRng::from_seed(seed);
        let cfg = ProbeConfig { retry: policy, ..ProbeConfig::default() };
        let req = ProbeRequest { cfg, faults: &plan, ..ProbeRequest::new(&client, &domain, SimTime::ZERO) };
        let ProbeReport { outcome, retry, .. } =
            prober.probe(&req, &mut target, &mut rng, &mut SpanLog::disabled());
        let elapsed = match outcome {
            ProbeOutcome::Failure { elapsed, .. } => elapsed,
            other => return Err(TestCaseError::fail(format!("outage must fail: {other:?}"))),
        };
        let bound = policy.max_total().unwrap();
        prop_assert!(
            elapsed <= bound,
            "elapsed {:?} exceeds budget {:?}", elapsed, bound
        );
        let info = retry.expect("policy with a timeout records attempts");
        prop_assert_eq!(u32::from(info.attempts), policy.tries);
        prop_assert_eq!(info.ttlb(&outcome), elapsed);
    }
}
