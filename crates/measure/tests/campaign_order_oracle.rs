//! The campaign's record order held to an oracle that shares no code with
//! `CampaignOrder`: every pair's records concatenated in pair order, then
//! stable-sorted by (time, vantage, resolver, domain), which is what
//! canonical order means. Both engines walk the one order, so only a test
//! like this one can catch an error in it. A resolver listed twice makes
//! two pairs with the same labels; each has a rank of its own, so the
//! first one's probes of a round all come before the second's instead of
//! interleaving with them by domain. The sort key says so with one more
//! term, the pair's occurrence among pairs of its labels, which is 0 for
//! every pair of the other cases.

use std::collections::BTreeMap;

use measure::{Campaign, CampaignConfig, ProbeRecord, Span};

const HOSTS: &str = "dns.google dns.quad9.net doh.ffmuc.net chewbacca.meganerd.nl";

fn campaign(config: CampaignConfig, hosts: &str) -> Campaign {
    let entries = hosts.split(' ');
    let entries = entries.map(|h| catalog::resolvers::find(h).unwrap());
    Campaign::with_resolvers(config, entries.collect())
}

fn oracle(c: &Campaign) -> Vec<ProbeRecord> {
    let generated = c.generate(1);
    let mut seen: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut records: Vec<(usize, ProbeRecord)> = Vec::new();
    for (_, pair) in generated.pairs() {
        let Some(first) = pair.first() else { continue };
        let occurrence = seen.entry((first.vantage(), first.resolver())).or_default();
        records.extend(pair.iter().map(|r| (*occurrence, *r)));
        *occurrence += 1;
    }
    let key = |(k, r): &(usize, ProbeRecord)| (r.at, r.vantage(), r.resolver(), *k, r.domain());
    records.sort_by(|a, b| key(a).cmp(&key(b)));
    records.into_iter().map(|(_, r)| r).collect()
}

#[test]
fn run_is_the_stable_global_sort_of_the_pairs_records() {
    // One home vantage also runs a second span: its rounds at 0 h and
    // 12 h come twice.
    let mut overlapping_spans = CampaignConfig::quick(5, 2);
    overlapping_spans.spans.push(Span {
        start_day: 0,
        days: 1,
        rounds_per_day: 4,
        vantages: overlapping_spans.spans[0].vantages[..1].to_vec(),
    });
    let mut out_of_rank_order = CampaignConfig::quick(6, 2);
    let domains = ["wikipedia.com", "google.com", "amazon.com", "google.com"];
    out_of_rank_order.domains = domains.map(String::from).to_vec();
    let twice = "dns.google dns.quad9.net dns.google";
    let cases = [
        ("quick, seed 3", CampaignConfig::quick(3, 2), HOSTS),
        ("quick, seed 58", CampaignConfig::quick(58, 3), HOSTS),
        ("overlapping spans", overlapping_spans, HOSTS),
        ("domains against rank order", out_of_rank_order, HOSTS),
        ("a resolver twice", CampaignConfig::quick(7, 2), twice),
    ];
    for (what, config, hosts) in cases {
        let c = campaign(config, hosts);
        let expected = oracle(&c);
        assert_eq!(expected.len(), c.probe_count(), "{what}");
        for (engine, got) in [("run()", c.run()), ("run_parallel(3)", c.run_parallel(3))] {
            assert_eq!(got.records.len(), expected.len(), "{what}: {engine}");
            let first_difference = got.records.iter().zip(&expected).position(|(g, e)| g != e);
            assert_eq!(first_difference, None, "{what}: {engine}");
        }
    }
}
