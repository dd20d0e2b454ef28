//! Flight-recorder integration: the sharded engine's event journal, health
//! timeseries, drift findings and trace must be pure functions of (seed,
//! config) — identical across repeat runs, the trace a well-formed Chrome
//! trace — and the journal must export every event it holds, journal each
//! drift finding and retry exhaustion, and keep each line JSON whatever
//! label it carries. That kill and resume leave the journal, health and
//! drift as a fresh run's, and that the sharded health and drift are the
//! in-memory fold's, is the equivalence matrix's (`equivalence.rs`).

mod support;

use measure::{Campaign, CampaignConfig, ProbeOutcome, ShardedOutcome, ShardedRunner};
use netsim::faults::{FaultKind, FaultScope};
use netsim::{SimDuration, SimTime};

use support::Scratch;

const HOSTS: [&str; 3] = ["dns.google", "dns.quad9.net", "doh.ffmuc.net"];

fn campaign(config: CampaignConfig) -> Campaign {
    let entries = HOSTS
        .iter()
        .filter_map(|h| catalog::resolvers::find(h))
        .collect();
    Campaign::with_resolvers(config, entries)
}

fn run_fresh(c: &Campaign, shards: u32) -> ShardedOutcome {
    let dir = Scratch::new();
    ShardedRunner::new(c, shards, &dir).unwrap().run(2).unwrap()
}

#[test]
fn same_seed_runs_export_identical_recorder_documents() {
    let c = campaign(CampaignConfig::quick(11, 2).with_default_faults());
    let a = run_fresh(&c, 4);
    let b = run_fresh(&c, 4);
    assert!(a.journal.recorded() > 0, "faulted campaign must journal");
    assert_eq!(a.journal.to_jsonl(), b.journal.to_jsonl());
    assert_eq!(a.health.to_jsonl(), b.health.to_jsonl());
    let trace = obs::traceview::chrome_trace(&a.spans);
    assert_eq!(trace, obs::traceview::chrome_trace(&b.spans));
    assert_eq!(a.drift, b.drift);

    // The trace is a Chrome trace-event document: it parses, and every
    // span it begins it ends.
    let doc = measure::json::parse(&trace).expect("trace.json parses as JSON");
    let events = doc.get("traceEvents").and_then(|v| v.as_array());
    assert!(events.is_some(), "{trace}");
    let begins = trace.matches(r#""ph":"B""#).count();
    assert!(begins >= 1, "{trace}");
    assert_eq!(begins, trace.matches(r#""ph":"E""#).count());
}

#[test]
fn drift_findings_are_journaled_under_their_code() {
    // 12 faulted longitudinal days: enough for the trailing baseline to
    // arm and the seeded outage/brownout windows to trip the detector.
    let c = campaign(CampaignConfig::longitudinal(11, 12).with_default_faults());
    let outcome = run_fresh(&c, 4);
    assert!(
        !outcome.drift.is_empty(),
        "the seeded fault plan must produce drift findings"
    );
    for f in &outcome.drift {
        let code = f.kind.code();
        let matched = outcome.journal.events().any(|e| {
            e.code == code && e.data.resolver == Some(f.resolver) && e.data.day == Some(f.day)
        });
        assert!(matched, "finding {f:?} has no journal event");
    }

    // The export is the whole journal, and the journal has a
    // retry_exhausted line for each probe the one-shot run sees burn its
    // retry budget.
    let exported = outcome.journal.to_jsonl();
    assert_eq!(exported.lines().count() as u64, outcome.journal.recorded());
    let exhausted = c
        .run()
        .records
        .iter()
        .filter(|r| matches!(r.outcome, ProbeOutcome::Failure { .. }))
        .filter(|r| r.retry.is_some_and(|retry| retry.exhausted(&r.outcome)))
        .count();
    assert!(exhausted > 0, "the seeded fault plan must exhaust retries");
    let journaled = exported
        .lines()
        .filter(|l| l.contains("\"code\":\"retry_exhausted\""))
        .count();
    assert_eq!(journaled, exhausted);
}

#[test]
fn journal_lines_escape_the_labels_they_carry() {
    // A fault window may scope any resolver name, and its journal event
    // carries the name: the line must stay JSON and read back as the name.
    let odd = "a\"b\\c";
    let mut config = CampaignConfig::quick(11, 2);
    let hour = |h| SimTime::ZERO + SimDuration::from_hours(h);
    let scope = FaultScope::Resolver(odd.to_string());
    config
        .faults
        .push(FaultKind::SiteOutage, scope, hour(1), hour(2));
    let outcome = run_fresh(&campaign(config), 2);
    let exported = outcome.journal.to_jsonl();
    let mut named = 0;
    for line in exported.lines() {
        let event = measure::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let resolver = event.get("resolver").and_then(|r| r.as_str());
        named += usize::from(resolver == Some(odd));
    }
    assert_eq!(named, 1, "{exported}");
}
