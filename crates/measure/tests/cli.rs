//! The shipped binary, end to end: `edns-measure campaign` in memory and
//! sharded into a checkpoint directory, a resume, a resume under a changed
//! command line, `report` over the file the campaign wrote, the
//! `--observe` directory, and the flags each subcommand refuses.

use std::path::Path;
use std::process::{Command, Output};

use measure::ProbeRecord;

fn edns_measure(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_edns-measure"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("edns-measure runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("the tool prints UTF-8")
}

#[test]
fn campaign_shards_resumes_refuses_and_reports() {
    let dir = std::env::temp_dir().join(format!("edns-measure-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let quick = ["campaign", "--scale", "quick", "--seed", "9", "--out"];
    let sharded = ["--shards", "4", "--checkpoint-dir", "D"];

    // (a) In memory and sharded: the same bytes.
    let run = edns_measure(&[&quick[..], &["a.jsonl"]].concat(), &dir);
    assert!(run.status.success(), "{}", text(&run.stderr));
    let run = edns_measure(&[&quick[..], &["b.jsonl"], &sharded].concat(), &dir);
    assert!(run.status.success(), "{}", text(&run.stderr));
    let a = std::fs::read_to_string(dir.join("a.jsonl")).unwrap();
    assert!(a == std::fs::read_to_string(dir.join("b.jsonl")).unwrap());

    // (b) The same command again resumes every shard; a command line that
    // makes different records is refused the directory.
    let run = edns_measure(&[&quick[..], &["b.jsonl"], &sharded].concat(), &dir);
    assert!(run.status.success(), "{}", text(&run.stderr));
    let said = text(&run.stdout);
    assert!(said.contains("shards_executed    0"), "{said}");
    assert!(said.contains("shards_resumed     4"), "{said}");
    let faulted = [&quick[..], &["c.jsonl"], &sharded, &["--faults", "default"]].concat();
    let run = edns_measure(&faulted, &dir);
    assert!(!run.status.success(), "{}", text(&run.stdout));
    let said = text(&run.stderr);
    assert!(
        said.contains("checkpoint is for a different campaign"),
        "{said}"
    );
    assert!(!dir.join("c.jsonl").exists());

    // (c) `report` counts what the file holds, and names the line it
    // cannot read.
    let records: Vec<ProbeRecord> = a
        .lines()
        .map(|l| ProbeRecord::read_json_line(l).expect("the engine's own line"))
        .collect();
    let ok = records.iter().filter(|r| r.outcome.is_success()).count();
    let headline = format!(
        "{} records: {ok} ok / {} errors\n",
        records.len(),
        records.len() - ok
    );
    let run = edns_measure(&["report", "a.jsonl"], &dir);
    assert!(run.status.success(), "{}", text(&run.stderr));
    assert!(
        text(&run.stdout).starts_with(&headline),
        "{}",
        text(&run.stdout)
    );

    let torn: Vec<&str> = a
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 2 { "garbage" } else { l })
        .collect();
    std::fs::write(dir.join("torn.jsonl"), torn.join("\n")).unwrap();
    let run = edns_measure(&["report", "torn.jsonl"], &dir);
    assert!(!run.status.success(), "{}", text(&run.stdout));
    let said = text(&run.stderr);
    assert!(said.contains("torn.jsonl:3:"), "{said}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn observe_writes_the_recorder_and_unknown_flags_are_refused() {
    let dir = std::env::temp_dir().join(format!("edns-measure-cli-observe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let quick = ["campaign", "--scale", "quick", "--seed", "9", "--out"];

    // (a) --observe writes the three documents; a second run that resumes
    // every shard leaves each byte-identical.
    let observed = [
        &quick[..],
        &["o.jsonl", "--shards", "4", "--checkpoint-dir", "D"],
        &["--faults", "default", "--observe", "O"],
    ]
    .concat();
    let documents = || {
        ["events.jsonl", "health.jsonl", "trace.json"]
            .map(|name| std::fs::read_to_string(dir.join("O").join(name)).expect(name))
    };
    let run = edns_measure(&observed, &dir);
    assert!(run.status.success(), "{}", text(&run.stderr));
    let said = text(&run.stderr);
    assert!(said.contains("shard 3/4 complete"), "{said}");
    let first = documents();
    assert!(first[0].starts_with("{\"at\":0,"), "{}", first[0]);
    let events = format!("({} events,", first[0].lines().count());
    assert!(said.contains(&events), "{said}");
    let run = edns_measure(&observed, &dir);
    assert!(run.status.success(), "{}", text(&run.stderr));
    assert!(text(&run.stdout).contains("shards_resumed     4"));
    assert!(first == documents());

    // (b) A retired recorder flag, a misspelt flag, a value flag at the
    // end of the line and --days beside --scale each fail naming the
    // flag, before anything runs.
    let replaced = "was replaced by --observe DIR";
    for (tail, flag, why) in [
        (&["--events", "x"][..], "--events", replaced),
        (&["--progress"][..], "--progress", replaced),
        (&["--sede", "3"][..], "--sede", "unknown flag"),
        (&["--seed"][..], "--seed", "requires a value"),
        (&["--days", "3"][..], "--days", "--scale"),
    ] {
        let run = edns_measure(&[&quick[..], &["refused.jsonl"], tail].concat(), &dir);
        assert!(!run.status.success(), "{tail:?}");
        let said = text(&run.stderr);
        assert!(said.starts_with("error: "), "{said}");
        assert!(said.contains(flag) && said.contains(why), "{said}");
        assert!(!dir.join("refused.jsonl").exists(), "{tail:?}");
    }
    let run = edns_measure(&["report", "o.jsonl", "--verbose"], &dir);
    assert!(!run.status.success());
    assert!(text(&run.stderr).contains("unknown flag --verbose"));

    std::fs::remove_dir_all(&dir).unwrap();
}
