//! More threads than pairs are safe and write what `run()` writes. That
//! every other thread count does too is the equivalence matrix's
//! (`equivalence.rs`).

use measure::{Campaign, CampaignConfig};

#[test]
fn thread_count_beyond_pair_count_is_safe() {
    // 1 vantage-filtered span × 1 resolver → far fewer pairs than threads.
    let mut config = CampaignConfig::quick(7, 1);
    config.spans.truncate(1);
    let c = Campaign::with_resolvers(
        config,
        vec![catalog::resolvers::find("dns.google").unwrap()],
    );
    let serial = c.run();
    let parallel = c.run_parallel(64);
    assert_eq!(serial.records, parallel.records);
}
