//! The session layer's safety net, in four parts.
//!
//! **Cold-only transparency** — a campaign configured with
//! `SessionConfig::cold_only()` (or no session config at all) must produce
//! **byte-identical** records to the legacy fresh-connection path, across
//! seeds, protocols, fault plans and retry policies — and must keep
//! reproducing the seed-4 golden fixture. This is the contract that lets
//! the session subsystem ship inside the measuring tool without perturbing
//! the paper's cold-start methodology. A zero load model under live
//! sessions changes nothing either.
//!
//! **Replay and checkpoints** — session state is a pure function of
//! `(seed, simulated time, outcome sequence)`, pinned by a twin-replay
//! proptest over its fingerprint, and a live session model is part of the
//! checkpoint fingerprint. That a live-session campaign writes the same
//! bytes in every engine — fresh-wire reference, threads, shards, kill
//! and resume — is the equivalence matrix's (`equivalence.rs`).
//!
//! **Fault interaction** — every fault kind must leave the session layer
//! in a defensible state: connection-layer faults (link down, site outage,
//! expired certificate) force every in-window probe cold and destroy
//! cached tickets and pools; after any failed probe the next probe of the
//! pair opens cold; and every record of a live-session campaign carries a
//! connection mode.
//!
//! **Composition with load** — when the load model moves a pair between
//! sites, a connection is only ever reused at the site it was opened to.

mod support;

use measure::{
    Campaign, CampaignConfig, ConnectionMode, LoadModel, ProbeOutcome, ProbeRecord, Protocol,
    SessionConfig, SessionState, ShardedRunner,
};
use netsim::faults::{FaultKind, FaultPlan, FaultScope};
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;

use support::{campaign, golden_campaign, quick, Scratch, PROTOCOLS};

/// One healthy resolver.
fn google() -> Vec<catalog::ResolverEntry> {
    vec![catalog::resolvers::find("dns.google").unwrap()]
}

// ---------------------------------------------------------------------------
// Part 1: cold-only is byte-transparent.
// ---------------------------------------------------------------------------

fn assert_cold_only_transparent(seed: u64, protocol: Protocol, faulted: bool, retry_idx: usize) {
    let context =
        format!("seed={seed}, protocol={protocol:?}, faulted={faulted}, retry={retry_idx}");
    let legacy = quick(seed, protocol, faulted, retry_idx);
    let cold = legacy.clone().with_session(SessionConfig::cold_only());
    let legacy_run = campaign(legacy, false).run();
    let cold_run = campaign(cold, false).run();
    assert_eq!(
        legacy_run.records, cold_run.records,
        "cold-only records diverged from legacy: {context}"
    );
    assert_eq!(
        legacy_run.to_json_lines(),
        cold_run.to_json_lines(),
        "cold-only JSONL bytes diverged from legacy: {context}"
    );
    assert!(
        cold_run.records.iter().all(|r| r.conn_mode.is_none()),
        "cold-only records must not carry a connection mode: {context}"
    );
}

#[test]
fn cold_only_is_byte_identical_to_legacy_for_every_protocol() {
    for protocol in PROTOCOLS {
        assert_cold_only_transparent(23, protocol, true, 1);
    }
}

#[test]
fn cold_only_reproduces_the_seed_goldens() {
    // The golden fixture was written before the session subsystem existed;
    // a cold-only campaign must keep reproducing it byte for byte.
    let golden = include_str!("golden/campaign_seed4.jsonl");
    let config = CampaignConfig::quick(4, 3).with_session(SessionConfig::cold_only());
    let c = golden_campaign(config);
    assert_eq!(
        c.run().to_json_lines(),
        golden,
        "cold-only campaign drifted from the pre-session golden fixture"
    );
}

#[test]
fn zero_load_under_live_sessions_is_sessions_alone() {
    for protocol in PROTOCOLS {
        let alone = quick(23, protocol, true, 1).with_session(SessionConfig::interleaved(0.25));
        let zeroed = campaign(alone.clone().with_load(LoadModel::zero()), false).run();
        let alone = campaign(alone, false).run();
        assert_eq!(
            alone.to_json_lines(),
            zeroed.to_json_lines(),
            "a zero load model changed a live-session campaign: {protocol:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cold_only_matches_legacy(
        seed in any::<u64>(),
        proto_idx in 0usize..PROTOCOLS.len(),
        faulted in any::<bool>(),
        retry_idx in 0usize..3,
    ) {
        assert_cold_only_transparent(seed, PROTOCOLS[proto_idx], faulted, retry_idx);
    }
}

// ---------------------------------------------------------------------------
// Part 2: live-session replay and checkpoints.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Session state is a pure function of (seed, simulated time, outcome
    // sequence): two states built from the same identity and driven
    // through the same schedule report identical decisions and identical
    // fingerprints at every step — the property that lets a killed
    // campaign rebuild per-pair session state by replaying its shard.
    #[test]
    fn session_state_replay_rebuilds_identical_fingerprints(
        seed in any::<u64>(),
        steps in proptest::collection::vec(
            (0u64..2_000_000_000_000u64, any::<bool>()),
            1..40,
        ),
    ) {
        let policy = catalog::resolvers::find("dns.google").unwrap().reuse_policy();
        let scfg = SessionConfig::interleaved(0.2);
        let mut live = SessionState::new(seed, "ec2-ohio", "dns.google", policy);
        let mut replay = SessionState::new(seed, "ec2-ohio", "dns.google", policy);
        let mut now = 0u64;
        for (dt, ok) in steps {
            now += dt;
            let t = SimTime::from_nanos(now);
            let fl = live.draw_forced_cold(&scfg);
            let fr = replay.draw_forced_cold(&scfg);
            prop_assert_eq!(fl, fr, "schedule stream diverged");
            let ml = live.decide(t, Protocol::DoH, true, fl);
            let mr = replay.decide(t, Protocol::DoH, true, fr);
            prop_assert_eq!(ml, mr, "decision diverged");
            if ok {
                live.on_success(t, Protocol::DoH, ml, SimDuration::from_millis(12));
                replay.on_success(t, Protocol::DoH, mr, SimDuration::from_millis(12));
            } else {
                live.on_failure();
                replay.on_failure();
            }
            prop_assert_eq!(live.fingerprint(), replay.fingerprint(), "fingerprint diverged");
        }
    }
}

#[test]
fn session_config_is_part_of_the_checkpoint_fingerprint() {
    let legacy = CampaignConfig::quick(11, 2);
    let cold = campaign(
        legacy.clone().with_session(SessionConfig::cold_only()),
        false,
    );
    let warm = campaign(legacy.clone().with_session(SessionConfig::warm()), false);
    let legacy = campaign(legacy, false);
    let dir = Scratch::new();
    let f_cold = ShardedRunner::new(&cold, 2, &dir).unwrap().fingerprint();
    let f_legacy = ShardedRunner::new(&legacy, 2, &dir).unwrap().fingerprint();
    let f_warm = ShardedRunner::new(&warm, 2, &dir).unwrap().fingerprint();
    assert_eq!(
        f_cold, f_legacy,
        "cold-only must hash like the absence of a session config"
    );
    assert_ne!(
        f_warm, f_legacy,
        "a live session model must change the checkpoint fingerprint"
    );
    // A checkpoint written cold cannot be silently resumed warm.
    ShardedRunner::new(&legacy, 2, &dir)
        .unwrap()
        .advance(1)
        .unwrap();
    let err = ShardedRunner::new(&warm, 2, &dir).unwrap().run(1);
    assert!(
        matches!(err, Err(measure::CheckpointError::ConfigMismatch(_))),
        "resuming a cold checkpoint with a warm config must be a config mismatch: {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Part 3: fault interaction.
// ---------------------------------------------------------------------------

/// All fault kinds the simulator models. The scenario-suite issue speaks
/// of eight fault kinds; `FaultKind` has seven variants — the eighth
/// "kind" in that count is the faultless baseline, covered by every other
/// test in this file.
fn all_fault_kinds() -> [FaultKind; 7] {
    [
        FaultKind::LinkFlap,
        FaultKind::LossBurst { loss: 0.6 },
        FaultKind::LatencyBurst { extra_ms: 250.0 },
        FaultKind::SiteOutage,
        FaultKind::Brownout {
            slowdown: 4.0,
            servfail_rate: 0.5,
        },
        FaultKind::CertExpiry,
        FaultKind::RateLimit { reject_rate: 0.8 },
    ]
}

/// Whether the fault breaks connections outright at decide time — these
/// must invalidate tickets and pools for the whole window.
fn breaks_connections(kind: &FaultKind) -> bool {
    matches!(
        kind,
        FaultKind::LinkFlap | FaultKind::SiteOutage | FaultKind::CertExpiry
    )
}

fn hour(h: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(h * 3600)
}

/// One healthy resolver, one domain (so record order per pair is schedule
/// order), six rounds four hours apart, full reuse, and one fault window
/// covering the 8 h and 12 h rounds.
fn matrix_campaign(kind: FaultKind, protocol: Protocol) -> Campaign {
    let mut config = CampaignConfig::quick(9, 6).with_session(SessionConfig::warm());
    config.domains = vec!["google.com".to_string()];
    config.probe.protocol = protocol;
    config.faults = FaultPlan::EMPTY.event(
        kind,
        FaultScope::Resolver("dns.google".to_string()),
        hour(7),
        hour(13),
    );
    Campaign::with_resolvers(config, google())
}

fn by_vantage(records: &[ProbeRecord]) -> Vec<Vec<&ProbeRecord>> {
    let mut vantages: Vec<&str> = records.iter().map(|r| r.vantage()).collect();
    vantages.sort_unstable();
    vantages.dedup();
    vantages
        .into_iter()
        .map(|v| records.iter().filter(|r| r.vantage() == v).collect())
        .collect()
}

#[test]
fn every_fault_kind_interacts_sanely_with_live_sessions() {
    for kind in all_fault_kinds() {
        for protocol in [Protocol::DoH, Protocol::DoT, Protocol::DoQ] {
            let c = matrix_campaign(kind, protocol);
            let result = c.run();
            let context = format!("kind={kind:?}, protocol={protocol:?}");
            assert!(
                result.records.iter().all(|r| r.conn_mode.is_some()),
                "live-session records must always carry a mode: {context}"
            );
            // Live-session determinism holds under every fault kind.
            assert_eq!(
                result.records,
                c.run_reference().records,
                "fast path diverged from reference: {context}"
            );
            for series in by_vantage(&result.records) {
                // The pre-window round at 4 h finds the ticket minted at
                // 0 h: the pair goes warm before the fault lands.
                assert_ne!(
                    series[1].conn_mode,
                    Some(ConnectionMode::Cold),
                    "pair never warmed up before the window: {context}"
                );
                for pair in series.windows(2) {
                    // Cold fallback: any failure tears down the session,
                    // so the next probe of the pair opens cold.
                    if matches!(pair[0].outcome, ProbeOutcome::Failure { .. }) {
                        assert_eq!(
                            pair[1].conn_mode,
                            Some(ConnectionMode::Cold),
                            "probe after a failure must open cold: {context}"
                        );
                    }
                }
                if breaks_connections(&kind) {
                    // Connection-layer faults invalidate tickets and pools
                    // at decide time: every in-window probe is cold...
                    for r in series.iter().filter(|r| r.at >= hour(7) && r.at < hour(13)) {
                        assert_eq!(
                            r.conn_mode,
                            Some(ConnectionMode::Cold),
                            "in-window probe must be cold at {:?}: {context}",
                            r.at
                        );
                    }
                    // ...and the warm state does not survive the window:
                    // the first post-window probe re-opens cold.
                    let post = series
                        .iter()
                        .find(|r| r.at >= hour(13))
                        .expect("a round after the window");
                    assert_eq!(
                        post.conn_mode,
                        Some(ConnectionMode::Cold),
                        "first post-window probe must re-open cold: {context}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Part 4: sessions under a load model that moves the pair between sites.
// ---------------------------------------------------------------------------

#[test]
fn a_reused_connection_is_always_to_the_site_it_was_opened_to() {
    // An anycast pair at x8 with the spill threshold pulled down into the
    // diurnal swing, probed every two minutes — inside the production
    // pool's 240 s idle window — so the load model moves vantages between
    // sites while their pooled connections are still alive.
    let mut model = LoadModel::standard(5).with_multiplier(8.0);
    model.spill_utilization = 0.001;
    let mut config = CampaignConfig::quick(5, 1)
        .with_load(model)
        .with_session(SessionConfig::warm());
    config.domains = vec!["google.com".to_string()];
    for span in &mut config.spans {
        span.rounds_per_day = 720;
    }
    let c = Campaign::with_resolvers(config, google());
    let result = c.run();
    assert_eq!(result.records, c.run_reference().records);

    let idle = SimDuration::from_secs(240);
    let (mut reused, mut moved_while_pooled) = (0, 0);
    for series in by_vantage(&result.records) {
        let mut previous: Option<(SimTime, u32)> = None;
        for r in series {
            let ProbeOutcome::Success { site, .. } = r.outcome else {
                previous = None;
                continue;
            };
            if let Some((at, prev_site)) = previous {
                if r.conn_mode == Some(ConnectionMode::Reused) {
                    reused += 1;
                    assert_eq!(
                        site,
                        prev_site,
                        "{}: reused a connection to site {prev_site} for a query served by site \
                         {site} at {:?}",
                        r.vantage(),
                        r.at
                    );
                }
                if site != prev_site && r.at.since(at) <= idle {
                    moved_while_pooled += 1;
                }
            }
            previous = Some((r.at, site));
        }
    }
    assert!(
        reused > 1000,
        "the scenario must exercise the pool: {reused}"
    );
    assert!(
        moved_while_pooled > 0,
        "the scenario must move a pair while its connection is pooled"
    );
}
