//! The sharded engine's timeline: one span per shard, in index order, each
//! over its simulated extent. That a sharded run, fresh or killed and
//! resumed at any boundary, writes the one-shot engine's bytes is the
//! equivalence matrix's (`equivalence.rs`).

use measure::{Campaign, CampaignConfig, ShardedRunner};

#[test]
fn shard_spans_cover_the_campaign_in_index_order() {
    let hosts = [
        "dns.google",
        "dns.quad9.net",
        "doh.ffmuc.net",
        "chewbacca.meganerd.nl",
    ];
    let entries = hosts.into_iter().filter_map(catalog::resolvers::find);
    let c = Campaign::with_resolvers(CampaignConfig::quick(11, 2), entries.collect());
    let dir = std::env::temp_dir().join(format!("edns-shard-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = ShardedRunner::new(&c, 3, &dir).unwrap();
    let outcome = runner.run(2).unwrap();
    let spans = outcome.spans.spans();
    assert_eq!(spans.len(), 3);
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.name, format!("shard-{i}"));
        assert!(s.end >= s.start);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
