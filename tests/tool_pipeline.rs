//! Integration test of the tool pipeline: campaign → JSON Lines on disk →
//! parse → analysis → reports, as a researcher using the released tool
//! would run it.

use edns_bench::measure::{Campaign, CampaignConfig, CampaignResult};
use edns_bench::report::experiments::{availability, figures};
use edns_bench::report::Dataset;

fn subset() -> Vec<edns_bench::catalog::ResolverEntry> {
    [
        "dns.google",
        "security.cloudflare-dns.com",
        "ordns.he.net",
        "doh.ffmuc.net",
        "dns.alidns.com",
        "dohtrial.att.net",
    ]
    .into_iter()
    .map(|h| edns_bench::catalog::resolvers::find(h).unwrap())
    .collect()
}

#[test]
fn results_survive_the_json_round_trip_exactly() {
    let result = Campaign::with_resolvers(CampaignConfig::quick(9, 5), subset()).run();
    let doc = result.to_json_lines();
    // Every record is one line of valid JSON.
    assert_eq!(doc.lines().count(), result.records.len());
    let back = CampaignResult::from_json_lines(9, &doc).unwrap();
    assert_eq!(back.records, result.records);
}

#[test]
fn reports_from_parsed_results_match_reports_from_live_results() {
    let result = Campaign::with_resolvers(CampaignConfig::quick(10, 5), subset()).run();
    let doc = result.to_json_lines();
    let parsed = CampaignResult::from_json_lines(10, &doc).unwrap();

    let live = Dataset::new(result.records);
    let reparsed = Dataset::new(parsed.records);

    let a = availability::run(&live);
    let b = availability::run(&reparsed);
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.errors, b.errors);

    let fig_a = figures::figure1(&live);
    let fig_b = figures::figure1(&reparsed);
    assert_eq!(fig_a.rows.len(), fig_b.rows.len());
    for (ra, rb) in fig_a.rows.iter().zip(&fig_b.rows) {
        assert_eq!(ra.resolver, rb.resolver);
        let ma = ra.response.as_ref().map(|b| b.summary.median);
        let mb = rb.response.as_ref().map(|b| b.summary.median);
        match (ma, mb) {
            (Some(x), Some(y)) => assert!(
                (x - y).abs() < 1e-4,
                "{}: {x} vs {y} after JSON round trip",
                ra.resolver
            ),
            (None, None) => {}
            other => panic!("{}: {other:?}", ra.resolver),
        }
    }
}

#[test]
fn campaign_json_is_line_oriented_and_parseable_by_field() {
    let result = Campaign::with_resolvers(CampaignConfig::quick(11, 2), subset()).run();
    let doc = result.to_json_lines();
    let first = doc.lines().next().unwrap();
    let v = edns_bench::measure::json::parse(first).unwrap();
    // The documented record schema.
    for field in [
        "ts_ms", "vantage", "resolver", "domain", "protocol", "success",
    ] {
        assert!(v.get(field).is_some(), "missing {field} in {first}");
    }
}

#[test]
fn probe_counts_are_exactly_as_configured() {
    let config = CampaignConfig::quick(12, 3);
    let campaign = Campaign::with_resolvers(config, subset());
    let expected = campaign.probe_count();
    let result = campaign.run();
    assert_eq!(result.records.len(), expected);
    assert_eq!(result.successes() + result.errors(), expected);
}

#[test]
fn ping_data_is_present_for_responders_absent_for_filterers() {
    let entries = vec![
        edns_bench::catalog::resolvers::find("dns.google").unwrap(), // responds
        edns_bench::catalog::resolvers::find("dns.njal.la").unwrap(), // filtered
    ];
    let result = Campaign::with_resolvers(CampaignConfig::quick(13, 6), entries).run();
    let d = Dataset::new(result.records);
    let google_pings: usize = d
        .records
        .iter()
        .filter(|r| r.resolver() == "dns.google" && r.ping().is_some())
        .count();
    let njalla_pings: usize = d
        .records
        .iter()
        .filter(|r| r.resolver() == "dns.njal.la" && r.ping().is_some())
        .count();
    assert!(google_pings > 0);
    assert_eq!(njalla_pings, 0, "njal.la filters ICMP");
}
