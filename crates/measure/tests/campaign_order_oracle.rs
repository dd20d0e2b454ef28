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

mod support;

use std::collections::BTreeMap;

use measure::{Campaign, ProbeRecord};

use support::{ROWS, SEEDS};

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
    // The equivalence matrix's rows, among them a home vantage whose
    // rounds at 0 h and 12 h come twice (overlapping spans), domains
    // listed against rank order, and a resolver listed twice.
    for (row, seed) in ROWS.iter().flat_map(|row| SEEDS.map(|seed| (row, seed))) {
        let what = format!("{} at seed {seed}", row.name);
        let c = row.campaign(seed);
        let expected = oracle(&c);
        assert_eq!(expected.len(), c.probe_count(), "{what}");
        for (engine, got) in [("run()", c.run()), ("run_parallel(3)", c.run_parallel(3))] {
            assert_eq!(got.records.len(), expected.len(), "{what}: {engine}");
            let first_difference = got.records.iter().zip(&expected).position(|(g, e)| g != e);
            assert_eq!(first_difference, None, "{what}: {engine}");
        }
    }
}
