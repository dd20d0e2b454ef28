//! Flight-recorder integration: the sharded engine's event journal,
//! health timeseries, and drift findings must be pure functions of
//! (seed, config) — identical across repeat runs, identical across
//! kill+resume, identical to the in-memory fold — and the journal must
//! export every event it holds, each line JSON whatever label it carries.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use measure::{
    detect_drift, Campaign, CampaignConfig, DriftConfig, HealthSeries, ProbeOutcome,
    ShardedOutcome, ShardedRunner,
};
use netsim::faults::{FaultKind, FaultScope};
use netsim::{SimDuration, SimTime};

const HOSTS: [&str; 3] = ["dns.google", "dns.quad9.net", "doh.ffmuc.net"];

fn campaign(config: CampaignConfig) -> Campaign {
    let entries = HOSTS
        .iter()
        .filter_map(|h| catalog::resolvers::find(h))
        .collect();
    Campaign::with_resolvers(config, entries)
}

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "edns-flight-recorder-{}-{tag}-{n}",
        std::process::id()
    ))
}

fn run_fresh(c: &Campaign, shards: u32, tag: &str) -> ShardedOutcome {
    let dir = scratch_dir(tag);
    let outcome = ShardedRunner::new(c, shards, &dir).unwrap().run(2).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    outcome
}

#[test]
fn same_seed_runs_export_identical_recorder_documents() {
    let c = campaign(CampaignConfig::quick(11, 2).with_default_faults());
    let a = run_fresh(&c, 4, "repeat-a");
    let b = run_fresh(&c, 4, "repeat-b");
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
fn kill_and_resume_preserves_recorder_exports() {
    let c = campaign(CampaignConfig::quick(29, 2).with_default_faults());
    let reference = run_fresh(&c, 5, "oneshot");

    let dir = scratch_dir("resume");
    let remaining = ShardedRunner::new(&c, 5, &dir).unwrap().advance(3).unwrap();
    assert_eq!(remaining, 2);
    let resumed = ShardedRunner::new(&c, 5, &dir).unwrap().run(2).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // The journal, event for event, and the exported documents are the
    // one-shot run's: a resume is invisible to the record. What the
    // operator learns of it is `shards_resumed`.
    assert!(resumed.journal.events().eq(reference.journal.events()));
    assert_eq!(resumed.journal.to_jsonl(), reference.journal.to_jsonl());
    assert_eq!(resumed.health.to_jsonl(), reference.health.to_jsonl());
    assert_eq!(resumed.drift, reference.drift);
    assert_eq!(resumed.run.shards_resumed.get(), 3);
}

#[test]
fn resumed_run_counters_match_the_one_shot_run() {
    // Satellite regression: pairs_run / records_produced are campaign-wide
    // totals — a kill+resume must fold the checkpointed shards back in
    // rather than reporting only the pairs this process executed.
    let c = campaign(CampaignConfig::quick(7, 2));
    let reference = run_fresh(&c, 4, "counters-oneshot");

    let dir = scratch_dir("counters-resume");
    ShardedRunner::new(&c, 4, &dir).unwrap().advance(2).unwrap();
    let resumed = ShardedRunner::new(&c, 4, &dir).unwrap().run(2).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(resumed.run.shards_resumed.get(), 2);
    assert_eq!(
        resumed.run.pairs_run.get(),
        reference.run.pairs_run.get(),
        "pairs_run must count resumed shards' pairs"
    );
    assert_eq!(
        resumed.run.records_produced.get(),
        reference.run.records_produced.get(),
        "records_produced must count resumed shards' records"
    );
    assert_eq!(resumed.records, reference.records);
}

#[test]
fn sharded_health_matches_the_in_memory_fold() {
    let c = campaign(CampaignConfig::longitudinal(3, 3).with_default_faults());
    let sharded = run_fresh(&c, 6, "fold");
    let reference = HealthSeries::of(&c, &c.run().records);
    assert_eq!(sharded.health.to_jsonl(), reference.to_jsonl());
    assert_eq!(sharded.health.probes(), c.probe_count() as u64);
    assert_eq!(
        sharded.drift,
        detect_drift(&reference.resolver_rows(), &DriftConfig::default())
    );
}

#[test]
fn drift_findings_are_journaled_under_their_code() {
    // 12 faulted longitudinal days: enough for the trailing baseline to
    // arm and the seeded outage/brownout windows to trip the detector.
    let c = campaign(CampaignConfig::longitudinal(11, 12).with_default_faults());
    let outcome = run_fresh(&c, 4, "drift");
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
    let outcome = run_fresh(&campaign(config), 2, "escaped");
    let exported = outcome.journal.to_jsonl();
    let mut named = 0;
    for line in exported.lines() {
        let event = measure::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let resolver = event.get("resolver").and_then(|r| r.as_str());
        named += usize::from(resolver == Some(odd));
    }
    assert_eq!(named, 1, "{exported}");
}
