//! The heap-free cells against what they replaced.
//!
//! * [`Tally`] against the label-keyed [`Availability`] it stands in for,
//!   on seeded sequences of successes, errors and merges: every query
//!   answers alike, `dominant_error` ties included (the map's
//!   `max_by_key` keeps the last maximum in label order).
//! * The [`HealthSeries`] rows against `health_oracle`'s `BTreeMap`
//!   keyed by (pair, day) of `Availability` + sketch cells, built from the
//!   same records: the same rows, JSONL bytes and drift findings, on
//!   vantages whose day ranges start apart, overlap and leave gaps — the
//!   sharded engine's cell files holding the oracle's (pair, day) cells,
//!   and its series equal to the in-memory one.
//! * [`HealthSeries::detect_drift`], which reads the rows where they lie,
//!   against [`detect_drift`] over their copy, on seeds 1–16.

mod health_oracle;

use std::path::PathBuf;

use edns_stats::Availability;
use measure::{
    detect_drift, Campaign, CampaignConfig, DriftConfig, HealthSeries, ProbeErrorKind,
    ShardedRunner, Span, Tally,
};
use netsim::rng::SimRng;

use health_oracle::{assert_cell_files_match_the_oracle, assert_health_matches_the_oracle};

/// A tally and the ledger it replaces, fed the same observations.
fn both(rng: &mut SimRng, observations: usize) -> (Tally, Availability) {
    let (mut tally, mut ledger) = (Tally::default(), Availability::default());
    let kinds = ProbeErrorKind::all();
    for _ in 0..observations {
        // Half successes, half errors of any kind: over a few dozen
        // observations, ties are common.
        if rng.chance(0.5) {
            tally.success();
            ledger.success();
        } else {
            let kind = kinds[rng.below(kinds.len())];
            tally.error(kind);
            ledger.error(kind.label());
        }
    }
    (tally, ledger)
}

fn assert_answers_alike(tally: &Tally, ledger: &Availability, what: &str) {
    assert_eq!(tally.to_availability(), *ledger, "{what}");
    assert_eq!(tally.successes, ledger.successes, "{what}");
    assert_eq!(tally.total(), ledger.total(), "{what}");
    assert_eq!(tally.error_count(), ledger.error_count(), "{what}");
    assert_eq!(
        tally.availability().to_bits(),
        ledger.availability().to_bits(),
        "{what}"
    );
    assert_eq!(tally.dominant_error(), ledger.dominant_error(), "{what}");
    let labels: Vec<(&str, u64)> = tally.errors().map(|(k, n)| (k.label(), n)).collect();
    let expected: Vec<(&str, u64)> = ledger
        .errors
        .iter()
        .map(|(k, &n)| (k.as_str(), n))
        .collect();
    assert_eq!(labels, expected, "{what}");
}

#[test]
fn a_tally_answers_like_the_label_keyed_ledger() {
    let (empty, none) = (Tally::default(), Availability::default());
    assert_answers_alike(&empty, &none, "empty");
    assert_eq!(empty.availability(), 1.0);
    assert_eq!(empty.dominant_error(), None);

    let mut rng = SimRng::derived(36, "tally-differential");
    let mut ties = 0;
    for case in 0..500 {
        let (mut tally, mut ledger) = both(&mut rng, case % 17);
        assert_answers_alike(&tally, &ledger, &format!("case {case}"));
        let (other_tally, other_ledger) = both(&mut rng, case % 11);
        tally.merge(&other_tally);
        ledger.merge(&other_ledger);
        assert_answers_alike(&tally, &ledger, &format!("case {case}, merged"));
        let max = ledger.errors.values().max().copied().unwrap_or(0);
        ties += usize::from(max > 0 && ledger.errors.values().filter(|&&n| n == max).count() > 1);
    }
    assert!(ties > 50, "only {ties} cases had a tied dominant error");

    // A tie goes to the last label in label order, whatever the order the
    // errors arrived in.
    let mut tally = Tally::default();
    for kind in [ProbeErrorKind::TlsFailure, ProbeErrorKind::ConnectTimeout] {
        tally.error(kind);
    }
    assert_eq!(tally.dominant_error(), Some("tls_failure"));
    tally.error(ProbeErrorKind::ConnectTimeout);
    assert_eq!(tally.dominant_error(), Some("connect_timeout"));
}

fn assert_series_matches_the_oracle(c: &Campaign, what: &str) -> HealthSeries {
    let records = c.run().records;
    let series = HealthSeries::of(c, &records);
    assert_health_matches_the_oracle(c, &records, &series, what);
    series
}

fn campaign(config: CampaignConfig) -> Campaign {
    let entries = [
        "dns.google",
        "doh.ffmuc.net",
        "chewbacca.meganerd.nl",
        "dns.quad9.net",
    ];
    let entries = entries.into_iter().filter_map(catalog::resolvers::find);
    Campaign::with_resolvers(config, entries.collect())
}

/// Home vantages on days 0–2; the EC2 vantages on days 5–6, apart from
/// them; ec2-ohio on days 2–3 as well, overlapping the home days and
/// leaving day 4 a gap inside its range.
fn staggered_config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::longitudinal(seed, 1).with_default_faults();
    let span = |start_day, days, vantages: &[&'static str]| Span {
        start_day,
        days,
        rounds_per_day: 2,
        vantages: vantages.to_vec(),
    };
    config.spans = vec![
        span(0, 3, &["home-1", "home-2", "home-3", "home-4"]),
        span(5, 2, &["ec2-ohio", "ec2-frankfurt", "ec2-seoul"]),
        span(2, 2, &["ec2-ohio"]),
    ];
    config
}

#[test]
fn the_dense_series_matches_a_map_of_label_keyed_cells() {
    assert_series_matches_the_oracle(&campaign(CampaignConfig::quick(11, 2)), "quick");
    let faulted = CampaignConfig::longitudinal(7, 3).with_default_faults();
    let series = assert_series_matches_the_oracle(&campaign(faulted), "longitudinal(7, 3)");
    assert!(
        series
            .resolver_rows()
            .iter()
            .any(|row| row.cell.availability.error_count() > 0),
        "the faulted campaign must exercise the error tallies"
    );

    let c = campaign(staggered_config(5));
    let series = assert_series_matches_the_oracle(&c, "staggered spans");
    let days: Vec<u32> = series.resolver_rows().iter().map(|row| row.day).collect();
    assert!(days.contains(&0) && days.contains(&6) && !days.contains(&4));

    // The sharded engine folds each pair over the same day range, persists
    // its present day cells and merges them into the same rows.
    let dir = std::env::temp_dir().join(format!("edns-health-differential-{}", std::process::id()));
    let runner = ShardedRunner::new(&c, 5, &dir).unwrap();
    let sharded = runner.run(1).unwrap();
    let records = c.run().records;
    assert_cell_files_match_the_oracle(&c, &records, &runner, "staggered spans, sharded");
    std::fs::remove_dir_all(PathBuf::from(&dir)).unwrap();
    assert_eq!(sharded.health, series);
}

#[test]
fn drift_in_place_finds_what_drift_over_the_copied_rows_finds() {
    let tight = DriftConfig {
        min_probes: 1,
        min_errors: 1,
        ..DriftConfig::default()
    };
    let mut found = 0;
    for seed in 1..=16 {
        // Twelve faulted days, and the staggered spans' days with a gap.
        let configs = [
            CampaignConfig::longitudinal(seed, 12).with_default_faults(),
            staggered_config(seed),
        ];
        for config in configs {
            let c = campaign(config);
            let series = HealthSeries::of(&c, &c.run().records);
            let rows = series.resolver_rows();
            for cfg in [DriftConfig::default(), tight] {
                let findings = detect_drift(&rows, &cfg);
                assert_eq!(series.detect_drift(&cfg), findings, "seed {seed}, {cfg:?}");
                found += findings.len();
            }
        }
    }
    assert!(found > 100, "only {found} findings over 16 seeds");
}
