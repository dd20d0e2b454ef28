//! Property-style check that the campaign's output is invariant under the
//! thread count: for several seeds, `run_parallel(n)` must be
//! byte-identical to `run()` for n in {1, 2, 3, 7, 16} — record streams,
//! the rendered JSONL document, and the rendered metrics snapshot.
//!
//! This pins the design: threads claim pairs through one claim loop, the
//! calling thread keeps their streams in pair order, and the schedule alone
//! interleaves them, so scheduling can never leak into the output.

use measure::{Campaign, CampaignConfig};

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 7, 16];

fn campaign(seed: u64) -> Campaign {
    let entries = [
        "dns.google",
        "dns.quad9.net",
        "doh.ffmuc.net",
        "dns.bebasid.com",
        "chewbacca.meganerd.nl",
    ]
    .into_iter()
    .map(|h| catalog::resolvers::find(h).unwrap())
    .collect();
    Campaign::with_resolvers(CampaignConfig::quick(seed, 2), entries)
}

#[test]
fn output_is_invariant_under_thread_count() {
    for seed in [1, 42, 9_999] {
        let c = campaign(seed);
        let serial = c.run();
        let serial_jsonl = serial.to_json_lines();
        let serial_metrics = serial.metrics().render();
        assert!(!serial.records.is_empty());

        for n in THREAD_COUNTS {
            let parallel = c.run_parallel(n);
            assert_eq!(
                serial.records, parallel.records,
                "seed {seed}: record stream diverged at {n} threads"
            );
            assert_eq!(
                serial_jsonl,
                parallel.to_json_lines(),
                "seed {seed}: JSONL diverged at {n} threads"
            );
            assert_eq!(
                serial_metrics,
                parallel.metrics().render(),
                "seed {seed}: metrics snapshot diverged at {n} threads"
            );
        }
    }
}

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
