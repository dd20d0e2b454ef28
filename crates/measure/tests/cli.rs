//! The shipped binary, end to end: `edns-measure campaign` in memory and
//! sharded into a checkpoint directory, a resume, a resume under a changed
//! command line, `report` over the file the campaign wrote (and over
//! copies with one line torn or unlike any the engine writes), the
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

/// `line` with the value after its first `"key":` rewritten by `edit`.
fn with_value(line: &str, key: &str, edit: fn(&str) -> String) -> String {
    let start = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
    let end = start + line[start..].find([',', '}']).unwrap();
    format!(
        "{}{}{}",
        &line[..start],
        edit(&line[start..end]),
        &line[end..]
    )
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

    // A line the engine would not have written is refused as well: a
    // response time 1 ms off the sum of its phases, a negative site.
    let at = a
        .lines()
        .position(|l| l.contains("\"success\":true"))
        .unwrap();
    let later: fn(&str) -> String = |ms| {
        let (whole, frac) = ms.split_once('.').unwrap();
        format!("{}.{frac}", whole.parse::<u64>().unwrap() + 1)
    };
    let negative: fn(&str) -> String = |_| "-1".to_string();
    for (file, key, edit) in [
        ("late.jsonl", "response_ms", later),
        ("negative.jsonl", "site", negative),
    ] {
        let edited: Vec<String> = a
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == at {
                    with_value(l, key, edit)
                } else {
                    l.to_string()
                }
            })
            .collect();
        std::fs::write(dir.join(file), edited.join("\n")).unwrap();
        let run = edns_measure(&["report", file], &dir);
        assert!(!run.status.success(), "{file}: {}", text(&run.stdout));
        let said = text(&run.stderr);
        assert!(said.contains(&format!("{file}:{}:", at + 1)), "{said}");
    }

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
