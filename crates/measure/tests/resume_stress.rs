//! The sharded runner's read side under repetition: validation re-checks a
//! complete directory on two threads and assembly installs the cells on a
//! second thread while the first merges the data files. Whichever lane
//! gets ahead, a resumed run is a function of the directory: one complete
//! faulted 4-shard directory, run again and again, gives the campaign
//! file, aggregates, health series, metrics, journal and resume count of
//! the first run every time — and what the one-shot engine computes from
//! its record vector.

use measure::{
    metrics_of, Campaign, CampaignAggregates, CampaignConfig, HealthSeries, ShardedRunner,
};

const HOSTS: [&str; 4] = [
    "dns.google",
    "dns.quad9.net",
    "doh.ffmuc.net",
    "chewbacca.meganerd.nl",
];

const RUNS: usize = 100;

#[test]
fn a_complete_directory_resumes_to_the_same_outcome_every_time() {
    let entries = HOSTS
        .iter()
        .filter_map(|h| catalog::resolvers::find(h))
        .collect();
    let c = Campaign::with_resolvers(
        CampaignConfig::longitudinal(23, 3).with_default_faults(),
        entries,
    );
    let one_shot = c.run();
    let jsonl = one_shot.to_json_lines();
    let metrics = metrics_of(&one_shot.records);
    let aggregates = CampaignAggregates::of(&c, &one_shot.records);
    let health = HealthSeries::of(&c, &one_shot.records);

    let dir = std::env::temp_dir().join(format!("edns-resume-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert_eq!(runner.advance(4).unwrap(), 0);

    // The journal has no one-shot counterpart: every run's is the first's.
    let mut journal: Option<String> = None;
    for run in 0..RUNS {
        let outcome = runner.run(1).unwrap();
        assert_eq!(outcome.run.shards_resumed.get(), 4, "run {run}");
        assert_eq!(
            std::fs::read_to_string(&outcome.jsonl_path).unwrap(),
            jsonl,
            "run {run}"
        );
        assert_eq!(outcome.metrics, metrics, "run {run}");
        assert_eq!(outcome.aggregates, aggregates, "run {run}");
        assert_eq!(outcome.health, health, "run {run}");
        let said = outcome.journal.to_jsonl();
        assert!(said.contains("fault_window"), "run {run}: {said}");
        assert_eq!(
            journal.get_or_insert_with(|| said.clone()),
            &said,
            "run {run}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
