//! Failure-injection integration tests: craft resolvers with targeted
//! failure modes and verify the measurement pipeline classifies each one
//! correctly, end to end.

use edns_bench::catalog::{HealthClass, ProfileClass, ResolverEntry};
use edns_bench::dns_wire::Name;
use edns_bench::measure::{
    ProbeConfig, ProbeErrorKind, ProbeOutcome, ProbeReport, ProbeRequest, ProbeTarget, Prober,
    SpanLog,
};
use edns_bench::netsim::geo::cities;
use edns_bench::netsim::{AccessProfile, Host, HostId, SimRng, SimTime};
use edns_bench::resolver_sim::HealthModel;

fn base_entry() -> ResolverEntry {
    ResolverEntry {
        hostname: "injected.test",
        operator: "test",
        mainstream: false,
        doh_path: "/dns-query",
        cities: vec![cities::ASHBURN_VA],
        anycast: false,
        small_site: false,
        profile: ProfileClass::Production,
        health: HealthClass::Reliable,
        icmp_filtered: false,
        region_override: None,
        home_extra_ms: 0.0,
        extra_loss: 0.0,
        proc_override_ms: 0.0,
        http1_only: false,
    }
}

fn client() -> Host {
    Host::in_city(
        HostId(0),
        "c",
        cities::COLUMBUS_OH,
        AccessProfile::cloud_vm(),
    )
}

/// Probes an instance whose health model is overridden to always produce
/// one failure mode, and returns the observed error kinds.
fn observe(health: HealthModel, probes: usize) -> Vec<Option<ProbeErrorKind>> {
    let prober = Prober::new();
    let mut target = ProbeTarget::from_entry(base_entry());
    target.instance.health = health;
    let mut rng = SimRng::from_seed(1);
    let domain = Name::parse("google.com").unwrap();
    (0..probes)
        .map(|i| {
            let outcome = prober
                .probe(
                    &ProbeRequest::new(
                        &client(),
                        &domain,
                        SimTime::from_nanos(i as u64 * 3_600_000_000_000),
                    ),
                    &mut target,
                    &mut rng,
                    &mut SpanLog::disabled(),
                )
                .outcome;
            match outcome {
                ProbeOutcome::Success { .. } => None,
                ProbeOutcome::Failure { kind, .. } => Some(kind),
            }
        })
        .collect()
}

fn always(mode: &str) -> HealthModel {
    let mut m = HealthModel {
        p_refuse: 0.0,
        p_blackhole: 0.0,
        p_tls: 0.0,
        p_bad_cert: 0.0,
        p_http: 0.0,
    };
    match mode {
        "refuse" => m.p_refuse = 1.0,
        "blackhole" => m.p_blackhole = 1.0,
        "tls" => m.p_tls = 1.0,
        "cert" => m.p_bad_cert = 1.0,
        "http" => m.p_http = 1.0,
        _ => unreachable!(),
    }
    m
}

#[test]
fn refused_connections_classify_as_connection_refused() {
    let kinds = observe(always("refuse"), 10);
    assert!(kinds
        .iter()
        .all(|k| *k == Some(ProbeErrorKind::ConnectionRefused)));
}

#[test]
fn blackholes_classify_as_connect_timeout_after_full_backoff() {
    let prober = Prober::new();
    let mut target = ProbeTarget::from_entry(base_entry());
    target.instance.health = always("blackhole");
    let mut rng = SimRng::from_seed(2);
    let outcome = prober
        .probe(
            &ProbeRequest::new(
                &client(),
                &Name::parse("google.com").unwrap(),
                SimTime::ZERO,
            ),
            &mut target,
            &mut rng,
            &mut SpanLog::disabled(),
        )
        .outcome;
    match outcome {
        ProbeOutcome::Failure { kind, elapsed } => {
            assert_eq!(kind, ProbeErrorKind::ConnectTimeout);
            // TCP SYN schedule: 1+2+4+8 s.
            assert_eq!(elapsed.as_secs_f64(), 15.0);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn tls_stalls_classify_as_tls_failure() {
    let kinds = observe(always("tls"), 10);
    assert!(kinds.iter().all(|k| *k == Some(ProbeErrorKind::TlsFailure)));
}

#[test]
fn bad_certificates_classify_as_certificate_error() {
    let kinds = observe(always("cert"), 10);
    assert!(kinds
        .iter()
        .all(|k| *k == Some(ProbeErrorKind::CertificateError)));
}

#[test]
fn http_500s_classify_as_http_status() {
    let kinds = observe(always("http"), 10);
    assert!(kinds.iter().all(|k| *k == Some(ProbeErrorKind::HttpStatus)));
}

#[test]
fn healthy_instances_never_fail_with_clean_paths() {
    let kinds = observe(
        HealthModel {
            p_refuse: 0.0,
            p_blackhole: 0.0,
            p_tls: 0.0,
            p_bad_cert: 0.0,
            p_http: 0.0,
        },
        30,
    );
    // Path loss can still rarely bite, but with datacenter paths and four
    // SYN retries a probe essentially never fails.
    let failures = kinds.iter().filter(|k| k.is_some()).count();
    assert_eq!(failures, 0, "{kinds:?}");
}

#[test]
fn failure_modes_cost_realistic_time() {
    // Refused: ~1 RTT. Bad cert: connect + handshake. TLS stall: retry
    // schedule (1+2+4 s). The taxonomy must preserve these magnitudes for
    // the campaign's error accounting.
    let prober = Prober::new();
    let domain = Name::parse("google.com").unwrap();
    let elapsed_of = |mode: &str| {
        let mut target = ProbeTarget::from_entry(base_entry());
        target.instance.health = always(mode);
        let mut rng = SimRng::from_seed(3);
        let outcome = prober
            .probe(
                &ProbeRequest::new(&client(), &domain, SimTime::ZERO),
                &mut target,
                &mut rng,
                &mut SpanLog::disabled(),
            )
            .outcome;
        match outcome {
            ProbeOutcome::Failure { elapsed, .. } => elapsed.as_millis_f64(),
            other => panic!("{other:?}"),
        }
    };
    let refused = elapsed_of("refuse");
    assert!(refused < 60.0, "refused should fail fast: {refused} ms");
    let cert = elapsed_of("cert");
    assert!(
        (refused..1000.0).contains(&cert),
        "bad cert costs connect+handshake: {cert} ms"
    );
    let tls = elapsed_of("tls");
    assert!(
        (7000.0..7100.0).contains(&tls),
        "TLS stall burns the 1+2+4 s retry schedule plus the connect RTT: {tls} ms"
    );
}

#[test]
fn scheduled_outages_turn_probes_into_connect_timeouts() {
    use edns_bench::netsim::SimDuration;

    let prober = Prober::new();
    let mut target = ProbeTarget::from_entry(base_entry());
    // Outage from hour 48 to hour 96.
    target.instance.add_outage(
        SimTime::ZERO + SimDuration::from_hours(48),
        SimTime::ZERO + SimDuration::from_hours(96),
    );
    let mut rng = SimRng::from_seed(6);
    let domain = Name::parse("google.com").unwrap();
    let mut ok_outside = 0;
    let mut timeouts_inside = 0;
    for hour in (0..144).step_by(6) {
        let now = SimTime::ZERO + SimDuration::from_hours(hour);
        let outcome = prober
            .probe(
                &ProbeRequest::new(&client(), &domain, now),
                &mut target,
                &mut rng,
                &mut SpanLog::disabled(),
            )
            .outcome;
        let inside = (48..96).contains(&hour);
        match (inside, outcome) {
            (true, ProbeOutcome::Failure { kind, .. }) => {
                assert_eq!(kind, ProbeErrorKind::ConnectTimeout);
                timeouts_inside += 1;
            }
            (true, other) => panic!("probe during outage succeeded: {other:?}"),
            (false, o) if o.is_success() => ok_outside += 1,
            (false, _) => {} // rare organic failure
        }
    }
    assert_eq!(timeouts_inside, 8, "every in-outage probe times out");
    assert!(ok_outside >= 15, "{ok_outside} healthy outside the window");
}

// ---------------------------------------------------------------------------
// The failure-mode matrix: every ProbeErrorKind crossed with every retry
// policy, driven end to end through fault injection.
// ---------------------------------------------------------------------------

use edns_bench::measure::{RetryInfo, RetryPolicy};
use edns_bench::netsim::faults::{FaultKind, FaultPlan, FaultScope};
use edns_bench::netsim::SimDuration;

/// The three policies of the matrix: no retries, dig defaults, and an
/// aggressive custom policy with backoff and jitter.
fn policies() -> [(&'static str, RetryPolicy); 3] {
    [
        ("none", RetryPolicy::none()),
        ("dig", RetryPolicy::dig_defaults()),
        (
            "custom",
            RetryPolicy {
                tries: 4,
                attempt_timeout: Some(SimDuration::from_secs(2)),
                backoff_base: SimDuration::from_millis_f64(100.0),
                backoff_cap: SimDuration::from_millis_f64(800.0),
                jitter: 0.5,
            },
        ),
    ]
}

/// Every error kind, produced by a targeted persistent fault: scheduled
/// plan events where the fault layer models them (outages, certificate
/// expiry, rate limiting, brownouts), health overrides where the failure
/// is the server's own (refusals, TLS stalls, HTTP 500s).
fn matrix_modes() -> [(&'static str, ProbeErrorKind); 8] {
    [
        ("outage", ProbeErrorKind::ConnectTimeout),
        ("refuse", ProbeErrorKind::ConnectionRefused),
        ("tls", ProbeErrorKind::TlsFailure),
        ("cert", ProbeErrorKind::CertificateError),
        ("http", ProbeErrorKind::HttpStatus),
        ("ratelimit", ProbeErrorKind::RateLimited),
        ("servfail", ProbeErrorKind::DnsError),
        ("qtimeout", ProbeErrorKind::QueryTimeout),
    ]
}

/// Runs one probe against a resolver under a persistent instance of
/// `mode`, with the given retry policy.
fn run_matrix_probe(mode: &str, policy: RetryPolicy) -> (ProbeOutcome, Option<RetryInfo>) {
    let prober = Prober::new();
    let mut target = ProbeTarget::from_entry(base_entry());
    let mut plan = FaultPlan::with_seed(9);
    let until = SimTime::ZERO + SimDuration::from_hours(10);
    let scope = FaultScope::Resolver("injected.test".to_string());
    match mode {
        "outage" => plan.push(FaultKind::SiteOutage, scope, SimTime::ZERO, until),
        "refuse" => target.instance.health = always("refuse"),
        "tls" => target.instance.health = always("tls"),
        "cert" => plan.push(FaultKind::CertExpiry, scope, SimTime::ZERO, until),
        "http" => target.instance.health = always("http"),
        "ratelimit" => plan.push(
            FaultKind::RateLimit { reject_rate: 1.0 },
            scope,
            SimTime::ZERO,
            until,
        ),
        "servfail" => plan.push(
            FaultKind::Brownout {
                slowdown: 1.0,
                servfail_rate: 1.0,
            },
            scope,
            SimTime::ZERO,
            until,
        ),
        // A brownout so slow that any finite per-attempt timeout fires.
        "qtimeout" => plan.push(
            FaultKind::Brownout {
                slowdown: 1e6,
                servfail_rate: 0.0,
            },
            scope,
            SimTime::ZERO,
            until,
        ),
        other => unreachable!("{other}"),
    }
    let mut rng = SimRng::from_seed(7);
    let cfg = ProbeConfig {
        retry: policy,
        ..ProbeConfig::default()
    };
    let ProbeReport { outcome, retry, .. } = prober.probe(
        &ProbeRequest {
            cfg,
            faults: &plan,
            ..ProbeRequest::new(
                &client(),
                &Name::parse("google.com").unwrap(),
                SimTime::ZERO,
            )
        },
        &mut target,
        &mut rng,
        &mut SpanLog::disabled(),
    );
    (outcome, retry)
}

#[test]
fn failure_mode_matrix_pins_classification_and_attempt_accounting() {
    for (mode, expected) in matrix_modes() {
        for (policy_name, policy) in policies() {
            let (outcome, retry) = run_matrix_probe(mode, policy);
            let label = format!("{mode} × {policy_name}");

            // QueryTimeout only exists where a per-attempt timeout does:
            // with no deadline the pathological brownout still answers.
            if mode == "qtimeout" && policy.attempt_timeout.is_none() {
                assert!(outcome.is_success(), "{label}: {outcome:?}");
                continue;
            }

            let (kind, elapsed) = match outcome {
                ProbeOutcome::Failure { kind, elapsed } => (kind, elapsed),
                other => panic!("{label}: persistent fault must fail: {other:?}"),
            };
            assert_eq!(kind, expected, "{label}");

            if policy.enabled() {
                let info = retry
                    .as_ref()
                    .unwrap_or_else(|| panic!("{label}: enabled policy must record attempts"));
                assert_eq!(
                    u32::from(info.attempts),
                    policy.tries,
                    "{label}: persistent faults burn the whole budget"
                );
                let errors: Vec<_> = info.attempt_errors(&outcome).collect();
                assert_eq!(errors.len() as u32, policy.tries, "{label}");
                assert!(errors.iter().all(|k| *k == expected), "{label}: {errors:?}");
                assert!(info.exhausted(&outcome), "{label}");
                assert!(!info.recovered(&outcome), "{label}");
                if let Some(bound) = policy.max_total() {
                    assert!(
                        elapsed <= bound,
                        "{label}: elapsed {elapsed:?} exceeds budget {bound:?}"
                    );
                }
            } else {
                assert!(
                    retry.is_none(),
                    "{label}: disabled policy must record nothing"
                );
            }
        }
    }
}

#[test]
fn transient_fault_windows_recover_between_attempts() {
    // An outage covering only the first attempt: dig defaults burn one
    // 5 s attempt inside the window, then attempt 2 lands after it.
    let prober = Prober::new();
    let mut target = ProbeTarget::from_entry(base_entry());
    let mut plan = FaultPlan::with_seed(9);
    plan.push(
        FaultKind::SiteOutage,
        FaultScope::Resolver("injected.test".to_string()),
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(1),
    );
    let mut rng = SimRng::from_seed(8);
    let cfg = ProbeConfig {
        retry: RetryPolicy::dig_defaults(),
        ..ProbeConfig::default()
    };
    let ProbeReport { outcome, retry, .. } = prober.probe(
        &ProbeRequest {
            cfg,
            faults: &plan,
            ..ProbeRequest::new(
                &client(),
                &Name::parse("google.com").unwrap(),
                SimTime::ZERO,
            )
        },
        &mut target,
        &mut rng,
        &mut SpanLog::disabled(),
    );
    assert!(outcome.is_success(), "{outcome:?}");
    let info = retry.expect("enabled policy records attempts");
    assert_eq!(info.attempts, 2, "recovered on the second attempt");
    assert_eq!(info.burned_errors(), [ProbeErrorKind::ConnectTimeout]);
    assert!(info.recovered(&outcome));
    assert!(!info.exhausted(&outcome));
}

#[test]
fn connection_failure_class_is_exactly_the_papers_dominant_set() {
    // The paper's §4 "failure to establish a connection" bucket: anything
    // that dies before the DNS exchange. Pinned as an exact set so a new
    // error kind must consciously choose a side.
    let connection: Vec<ProbeErrorKind> = ProbeErrorKind::all()
        .into_iter()
        .filter(|k| k.is_connection_failure())
        .collect();
    assert_eq!(
        connection,
        vec![
            ProbeErrorKind::ConnectTimeout,
            ProbeErrorKind::ConnectionRefused,
            ProbeErrorKind::TlsFailure,
            ProbeErrorKind::CertificateError,
        ]
    );
}

#[test]
fn injected_failures_flow_through_campaign_accounting() {
    use edns_bench::measure::{Campaign, CampaignConfig};
    use edns_bench::report::experiments::availability;
    use edns_bench::report::Dataset;

    // A population where one resolver always refuses.
    let mut bad = base_entry();
    bad.hostname = "always-refuses.test";
    bad.health = HealthClass::MostlyDown;
    let entries = vec![
        edns_bench::catalog::resolvers::find("dns.google").unwrap(),
        bad,
    ];
    let result = Campaign::with_resolvers(CampaignConfig::quick(5, 6), entries).run();
    let d = Dataset::new(result.records);
    let report = availability::run(&d);
    assert!(report
        .mostly_unavailable
        .contains(&"always-refuses.test".to_string()));
    assert!(report.connection_error_share > 0.8);
}
