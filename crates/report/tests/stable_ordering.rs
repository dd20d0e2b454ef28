//! Regression: report and metrics-export *structure* must not depend on the
//! campaign seed. Values differ between seeds, but every section, row and
//! key must appear in the same order — the property the BTreeMap switches
//! and the detlint `hash-iter` rule exist to protect.

use measure::{metrics_of, Campaign, CampaignConfig, CampaignResult};
use report::{metrics_csv, metrics_json, Dataset};

const HOSTS: [&str; 4] = [
    "dns.google",
    "dns.quad9.net",
    "doh.ffmuc.net",
    "dns.alidns.com",
];

fn run(seed: u64) -> CampaignResult {
    let entries = HOSTS
        .iter()
        .filter_map(|h| catalog::resolvers::find(h))
        .collect();
    Campaign::with_resolvers(CampaignConfig::quick(seed, 2), entries).run()
}

/// The ordered key skeleton of a JSON document: every object key in
/// document order, values discarded.
fn key_skeleton(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            // A string followed by ':' is an object key.
            if bytes.get(j + 1) == Some(&b':') {
                keys.push(json[start..j].to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    keys
}

#[test]
fn dataset_orderings_are_seed_independent() {
    let a = Dataset::new(run(11).records);
    let b = Dataset::new(run(97).records);
    assert_eq!(
        a.resolvers(),
        b.resolvers(),
        "resolver order must be stable"
    );
    for region in [
        netsim::Region::NorthAmerica,
        netsim::Region::Europe,
        netsim::Region::Asia,
    ] {
        assert_eq!(
            a.figure_rows(region),
            b.figure_rows(region),
            "figure row order must be stable for {region:?}"
        );
    }
}

#[test]
fn metrics_export_structure_is_seed_independent() {
    let a = metrics_of(&run(11).records);
    let b = metrics_of(&run(97).records);

    // CSV: identical header, and identical (resolver, vantage, protocol)
    // key-column sequence row for row.
    let rows_a = report::csv::parse(&metrics_csv(&a).render());
    let rows_b = report::csv::parse(&metrics_csv(&b).render());
    let keys = |rows: &[Vec<String>]| -> Vec<Vec<String>> {
        rows.iter().map(|r| r[..3].to_vec()).collect()
    };
    assert_eq!(rows_a[0], rows_b[0], "csv header must be stable");
    assert_eq!(
        keys(&rows_a),
        keys(&rows_b),
        "csv cell order must be stable"
    );

    // JSON: the ordered key skeleton (sections, cells, field names) must be
    // identical even though every value differs between the two seeds.
    let ja = metrics_json(&a).to_string_compact();
    let jb = metrics_json(&b).to_string_compact();
    assert_ne!(ja, jb, "different seeds must produce different values");
    assert_eq!(
        key_skeleton(&ja),
        key_skeleton(&jb),
        "json key order must be stable across seeds"
    );

    // Which error kinds a seed produces is chance: the skeleton may not
    // depend on it.
    let skeleton = key_skeleton(&ja);
    for seed in 1..=16 {
        let json = metrics_json(&metrics_of(&run(seed).records)).to_string_compact();
        assert_eq!(
            key_skeleton(&json),
            skeleton,
            "seed {seed}'s json key skeleton"
        );
    }
}

#[test]
fn health_report_structure_is_seed_independent() {
    // The flight recorder's health table must keep identical
    // (resolver, day) row skeletons across seeds: only the measured
    // values may differ.
    let skeleton = |seed: u64| -> (Vec<(String, String)>, String) {
        let entries = HOSTS
            .iter()
            .filter_map(|h| catalog::resolvers::find(h))
            .collect();
        let c = Campaign::with_resolvers(CampaignConfig::quick(seed, 2), entries);
        let result = c.run();
        let rows = measure::HealthSeries::of(&c, &result.records).resolver_rows();
        let text = report::health_report::health_table(&rows).render();
        let keys = text
            .lines()
            .skip(2) // header + separator
            .filter_map(|l| {
                let mut cols = l.split_whitespace();
                Some((cols.next()?.to_string(), cols.next()?.to_string()))
            })
            .collect();
        (keys, text)
    };
    let (keys_a, text_a) = skeleton(11);
    let (keys_b, text_b) = skeleton(97);
    assert!(!keys_a.is_empty());
    assert_eq!(
        keys_a, keys_b,
        "health (resolver, day) row order must be stable"
    );
    assert_ne!(
        text_a, text_b,
        "different seeds must produce different values"
    );
}

#[test]
fn sketch_table_structure_is_seed_independent() {
    // The sketch-backed summary tables must keep identical row labels and
    // column structure across seeds: only the measured values may differ.
    let skeleton = |seed: u64| -> (Vec<String>, Vec<String>, String, String) {
        let entries = HOSTS
            .iter()
            .filter_map(|h| catalog::resolvers::find(h))
            .collect();
        let c = Campaign::with_resolvers(CampaignConfig::quick(seed, 2), entries);
        let result = c.run();
        let agg = measure::CampaignAggregates::of(&c, &result.records);
        let first_column = |text: &str| -> Vec<String> {
            text.lines()
                .filter_map(|l| l.split_whitespace().next())
                .map(str::to_string)
                .collect()
        };
        let resolver = report::sketch_report::resolver_table(&agg).render();
        let vantage = report::sketch_report::vantage_table(&agg).render();
        (
            first_column(&resolver),
            first_column(&vantage),
            resolver,
            vantage,
        )
    };
    let (res_a, van_a, full_res_a, full_van_a) = skeleton(11);
    let (res_b, van_b, full_res_b, full_van_b) = skeleton(97);
    assert_eq!(res_a, res_b, "resolver row order must be stable");
    assert_eq!(van_a, van_b, "vantage row order must be stable");
    assert_ne!(
        (full_res_a, full_van_a),
        (full_res_b, full_van_b),
        "different seeds must produce different values"
    );
}
