//! Reproducibility of the top-level API, and the independence of each
//! pair's stream from the rest of the roster. That every engine writes
//! the same bytes at any thread count, shard count and kill point, and
//! that different seeds differ, is the equivalence matrix's
//! (`crates/measure/tests/equivalence.rs`).

use edns_bench::measure::{Campaign, CampaignConfig};
use edns_bench::{Reproduction, Scale};

#[test]
fn reproduction_api_is_deterministic_end_to_end() {
    let r1 = Reproduction::run_subset(55, Scale::Quick, &["dns.google", "dns0.eu"]);
    let r2 = Reproduction::run_subset(55, Scale::Quick, &["dns.google", "dns0.eu"]);
    assert_eq!(r1.render_all(60), r2.render_all(60));
}

#[test]
fn adding_a_resolver_does_not_perturb_existing_streams() {
    // Each (vantage, resolver) pair derives its own RNG stream, so probing
    // extra resolvers must not change another resolver's records.
    let small = Campaign::with_resolvers(
        CampaignConfig::quick(99, 3),
        vec![edns_bench::catalog::resolvers::find("dns.google").unwrap()],
    )
    .run();
    let big = Campaign::with_resolvers(
        CampaignConfig::quick(99, 3),
        vec![
            edns_bench::catalog::resolvers::find("dns.google").unwrap(),
            edns_bench::catalog::resolvers::find("doh.ffmuc.net").unwrap(),
        ],
    )
    .run();
    let google_small: Vec<_> = small
        .records
        .iter()
        .filter(|r| r.resolver() == "dns.google")
        .collect();
    let google_big: Vec<_> = big
        .records
        .iter()
        .filter(|r| r.resolver() == "dns.google")
        .collect();
    assert_eq!(google_small, google_big);
}
