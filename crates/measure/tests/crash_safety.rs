//! Crash-safety: a sharded campaign must *detect* — never silently absorb
//! — truncated manifests, flipped bytes, stale format versions, shard
//! data and cell files that no longer match their recorded checksums or,
//! checksummed anew, no longer match the campaign schedule or their own
//! aggregate cells, and checkpoints from a different campaign
//! configuration. Every rejection
//! is a typed [`CheckpointError`] — the same one on every call, though
//! validation and assembly each run on two threads — and a rejected
//! assembly leaves no `campaign.jsonl`. A kill at any point of a shard's
//! commit order (data file → cell file → manifest), and a write that
//! fails on any lane, must resume to the one-shot output; a failed write
//! ends the run where a lone calling thread would, at every thread count.

mod support;

use std::path::{Path, PathBuf};

use measure::checkpoint::checksum;
use measure::shard::CAMPAIGN_FILE;
use measure::{
    Campaign, CampaignConfig, CheckpointError, Manifest, Protocol, ShardState, ShardedRunner,
    CHECKPOINT_VERSION,
};

use support::Scratch;

const HOSTS: [&str; 3] = ["dns.google", "dns.quad9.net", "doh.ffmuc.net"];

fn campaign(config: CampaignConfig) -> Campaign {
    let entries = HOSTS
        .iter()
        .filter_map(|h| catalog::resolvers::find(h))
        .collect();
    Campaign::with_resolvers(config, entries)
}

/// Runs two of four shards and returns the checkpoint directory.
fn partial_run(c: &Campaign) -> Scratch {
    let dir = Scratch::new();
    let runner = ShardedRunner::new(c, 4, &dir).unwrap();
    let remaining = runner.advance(2).unwrap();
    assert_eq!(remaining, 2);
    dir
}

/// Runs all four shards and returns a runner over the complete directory,
/// and the directory.
fn complete_run<'a>(c: &'a Campaign) -> (ShardedRunner<'a>, Scratch) {
    let dir = Scratch::new();
    let runner = ShardedRunner::new(c, 4, &dir).unwrap();
    assert_eq!(runner.advance(4).unwrap(), 0);
    (runner, dir)
}

/// Makes the manifest record shard `index`'s two files as they now are on
/// disk, so that only a check of their content can reject them.
fn rerecord(runner: &ShardedRunner, index: u32) {
    let (data, cells) = (
        std::fs::read(runner.shard_path(index)).unwrap(),
        std::fs::read(runner.cells_path(index)).unwrap(),
    );
    let mut manifest = Manifest::load(&runner.manifest_path()).unwrap();
    match &mut manifest.states[index as usize] {
        ShardState::Complete(entry) => {
            (entry.bytes, entry.checksum) = (data.len() as u64, checksum(&data));
            (entry.cell_bytes, entry.cell_checksum) = (cells.len() as u64, checksum(&cells));
        }
        ShardState::Pending => unreachable!("all four shards ran"),
    }
    manifest.store(&runner.manifest_path()).unwrap();
}

/// Gives shard `index` a data file of valid JSON records that are not
/// `write_json_line` output (a space after each comma), recorded in the
/// manifest.
fn respace_data_file(runner: &ShardedRunner, index: u32) {
    let shard = runner.shard_path(index);
    let respaced = std::fs::read_to_string(&shard)
        .unwrap()
        .replace(",\"", ", \"");
    std::fs::write(&shard, respaced).unwrap();
    rerecord(runner, index);
}

/// Gives shard `index` shard `from`'s cell file, recorded in the manifest:
/// its checksum holds, its content is another shard's.
fn borrow_cell_file(runner: &ShardedRunner, index: u32, from: u32) {
    std::fs::copy(runner.cells_path(from), runner.cells_path(index)).unwrap();
    rerecord(runner, index);
}

/// An edit of a data file's lines, and of a cell file's body.
type LineEdit = fn(&mut Vec<&str>);
type CellEdit = fn(&str) -> String;

/// Rewrites shard `index`'s data file line by line with `edit`, recorded
/// in the manifest.
fn edit_data_file(runner: &ShardedRunner, index: u32, edit: impl FnOnce(&mut Vec<&str>)) {
    let shard = runner.shard_path(index);
    let text = std::fs::read_to_string(&shard).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    edit(&mut lines);
    let edited: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&shard, edited).unwrap();
    rerecord(runner, index);
}

/// Rewrites shard `index`'s cell file body with `edit`, framed anew and
/// recorded in the manifest: its framing and checksums hold, its content
/// does not.
fn edit_cell_file(runner: &ShardedRunner, index: u32, edit: impl FnOnce(&str) -> String) {
    let path = runner.cells_path(index);
    let text = std::fs::read_to_string(&path).unwrap();
    let body = edit(text.split_once('\n').unwrap().1.trim_end());
    let sum = checksum(body.as_bytes());
    let framed = format!("edns-checkpoint v{CHECKPOINT_VERSION} {sum:016x}\n{body}\n");
    std::fs::write(&path, framed).unwrap();
    rerecord(runner, index);
}

/// The vantage a data line closes with.
fn vantage_of(line: &str) -> &str {
    line.rsplit("\"vantage\":\"").next().unwrap()
}

/// Flips one byte in the middle of `path`.
fn flip_a_byte(path: &Path) {
    let mut data = std::fs::read(path).unwrap();
    let mid = data.len() / 2;
    data[mid] = data[mid].wrapping_add(1);
    std::fs::write(path, data).unwrap();
}

/// The `ShardData` message of `result`.
fn shard_data_message<T: std::fmt::Debug>(result: Result<T, CheckpointError>) -> String {
    match result.unwrap_err() {
        CheckpointError::ShardData(msg) => msg,
        other => panic!("expected ShardData, got {other:?}"),
    }
}

#[test]
fn truncated_manifest_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c);
    let path = dir.join("manifest.ckpt");
    let text = std::fs::read_to_string(&path).unwrap();

    // Header only: unambiguously truncated.
    std::fs::write(&path, text.lines().next().unwrap()).unwrap();
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert_eq!(runner.run(1).unwrap_err(), CheckpointError::Truncated);

    // Torn mid-body: the checksum no longer matches.
    std::fs::write(&path, &text[..text.len() * 2 / 3]).unwrap();
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert!(matches!(
        runner.run(1).unwrap_err(),
        CheckpointError::ChecksumMismatch { .. } | CheckpointError::Truncated
    ));
}

#[test]
fn corrupt_manifest_body_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c);
    let path = dir.join("manifest.ckpt");
    let text = std::fs::read_to_string(&path).unwrap();
    // Flip one byte inside the JSON body (after the header line).
    let mut bytes = text.into_bytes();
    let body_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 10;
    bytes[body_start] = bytes[body_start].wrapping_add(1);
    std::fs::write(&path, &bytes).unwrap();

    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert!(matches!(
        runner.run(1).unwrap_err(),
        CheckpointError::ChecksumMismatch { .. }
    ));
}

#[test]
fn stale_format_version_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c);
    let path = dir.join("manifest.ckpt");
    let text = std::fs::read_to_string(&path).unwrap();
    // v5 is the previous format, whose cell files listed the cells in four
    // sections, v4 the one before, whose checksums were byte-serial
    // FNV-1a, v3 the one before that, whose cell files held no metrics
    // cells, and v2, whose manifest held every cell: none may resume.
    for stale in ["v0", "v2", "v3", "v4", "v5"] {
        let header = format!("edns-checkpoint {stale}");
        std::fs::write(&path, text.replacen("edns-checkpoint v6", &header, 1)).unwrap();
        let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
        assert_eq!(
            runner.run(1).unwrap_err(),
            CheckpointError::VersionMismatch {
                found: stale.to_string()
            }
        );
    }
}

#[test]
fn foreign_file_is_rejected_as_bad_magic() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = Scratch::new();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("manifest.ckpt"), "{\"not\": \"a checkpoint\"}\n").unwrap();
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert_eq!(runner.run(1).unwrap_err(), CheckpointError::BadMagic);
}

#[test]
fn corrupt_shard_data_file_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c);
    // Corrupt the first completed shard's data file without touching the
    // manifest: resume must notice via the recorded checksum.
    let shard = dir.join("shard-0000.jsonl");
    let mut data = std::fs::read(&shard).unwrap();
    let mid = data.len() / 2;
    data[mid] = data[mid].wrapping_add(1);
    std::fs::write(&shard, &data).unwrap();

    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert!(matches!(
        runner.run(1).unwrap_err(),
        CheckpointError::ShardData(_)
    ));

    // Truncating the data file changes its size: also detected.
    std::fs::write(&shard, &data[..mid]).unwrap();
    assert!(matches!(
        ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap_err(),
        CheckpointError::ShardData(_)
    ));

    // Deleting it entirely: detected too.
    std::fs::remove_file(&shard).unwrap();
    assert!(matches!(
        ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap_err(),
        CheckpointError::ShardData(_)
    ));
}

#[test]
fn a_shard_file_the_engine_did_not_write_is_rejected_at_assembly() {
    // Valid JSON records, checksummed correctly in the manifest, but not
    // `write_json_line` output (a space after each comma): assembly reads
    // shard files with the strict line reader and must say so, typed.
    let c = campaign(CampaignConfig::quick(3, 2));
    let (runner, _dir) = complete_run(&c);
    respace_data_file(&runner, 1);

    let msg = shard_data_message(runner.run(1));
    assert!(msg.contains("shard-0001.jsonl"), "{msg}");
}

#[test]
fn a_data_file_out_of_step_with_its_schedule_is_rejected_at_assembly() {
    // Each file is checksummed correctly in the manifest, so only the
    // merge's check of every line against the slot it fills can reject
    // it, and it must do so before the merged output takes its name.
    let c = campaign(CampaignConfig::quick(3, 2));
    let edits: [(&str, LineEdit); 3] = [
        ("one line short", |lines| {
            lines.pop();
        }),
        ("a line moved to another vantage's slot", |lines| {
            let other = lines
                .iter()
                .position(|l| vantage_of(l) != vantage_of(lines[0]))
                .expect("shard 1 holds pairs of two vantages");
            lines.swap(0, other);
        }),
        ("a surplus line", |lines| {
            let last = lines[lines.len() - 1];
            lines.push(last);
        }),
    ];
    for (what, edit) in edits {
        let (runner, dir) = complete_run(&c);
        edit_data_file(&runner, 1, edit);
        let msg = shard_data_message(runner.run(1));
        assert!(msg.contains("shard-0001.jsonl"), "{what}: {msg}");
        assert!(
            !dir.join(CAMPAIGN_FILE).exists(),
            "{what}: a torn campaign file"
        );
    }
}

#[test]
fn a_cell_file_whose_metrics_disagree_with_its_aggregates_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let edits: [(&str, CellEdit); 2] = [
        ("the last pair entry dropped", |body| {
            let last = body.rfind(",{\"aggregate\":").unwrap();
            let end = body.rfind("],\"shard\":").unwrap();
            format!("{}{}", &body[..last], &body[end..])
        }),
        ("a probe more in a metrics cell", |body| {
            let (head, metrics) = body.split_at(body.find(",\"metrics\":").unwrap());
            let (before, after) = metrics.split_once(",\"probes\":").unwrap();
            let digits = after.find(|c: char| !c.is_ascii_digit()).unwrap();
            let probes: u64 = after[..digits].parse().unwrap();
            let rest = &after[digits..];
            format!("{head}{before},\"probes\":{}{rest}", probes + 1)
        }),
    ];
    for (what, edit) in edits {
        let (runner, dir) = complete_run(&c);
        edit_cell_file(&runner, 2, edit);
        let msg = shard_data_message(runner.run(1));
        assert!(msg.contains("shard-0002.cells"), "{what}: {msg}");
        assert!(
            !dir.join(CAMPAIGN_FILE).exists(),
            "{what}: a torn campaign file"
        );
    }
}

#[test]
fn a_cell_file_that_fails_its_content_checks_leaves_no_campaign_file() {
    // Shard 0's cell file under shard 1's name, checksummed correctly in
    // the manifest: only the cell lane's content checks can reject it, and
    // they must do so before the merged output takes its name.
    let c = campaign(CampaignConfig::quick(3, 2));
    let (runner, dir) = complete_run(&c);
    borrow_cell_file(&runner, 1, 0);

    let msg = shard_data_message(runner.run(1));
    assert!(msg.contains("shard-0001.cells"), "{msg}");
    assert!(!dir.join(CAMPAIGN_FILE).exists(), "a torn campaign file");
}

#[test]
fn two_damaged_shards_on_different_lanes_name_the_lower_index_every_time() {
    // Validation claims the complete shards on two lanes, the calling
    // thread and one worker; whichever lane finishes first, the error is
    // the one a walk in index order meets first: lowest shard, data file
    // before cell file.
    let c = campaign(CampaignConfig::quick(3, 2));
    for (damaged, named) in [
        ([(1, "cells"), (2, "jsonl")], "shard-0001.cells"),
        ([(2, "cells"), (1, "jsonl")], "shard-0001.jsonl"),
        ([(0, "cells"), (3, "jsonl")], "shard-0000.cells"),
        ([(3, "cells"), (0, "jsonl")], "shard-0000.jsonl"),
        ([(1, "cells"), (1, "jsonl")], "shard-0001.jsonl"),
    ] {
        let (runner, dir) = complete_run(&c);
        for (shard, extension) in damaged {
            flip_a_byte(&dir.join(format!("shard-{shard:04}.{extension}")));
        }
        let first = shard_data_message(runner.load_or_init());
        assert!(first.contains(named), "{damaged:?}: {first}");
        for _ in 0..20 {
            assert_eq!(shard_data_message(runner.load_or_init()), first);
        }
    }
}

#[test]
fn two_damaged_shards_on_one_lane_name_the_lower_index_every_time() {
    // Eight shards, two damaged files either on one lane or on both, and
    // at 20 rounds a data file spans several 64 KB reads. The error is the
    // one a walk in index order meets first.
    let c = campaign(CampaignConfig::quick(3, 20));
    for (damaged, named) in [
        ([(2, "cells"), (6, "jsonl")], "shard-0002.cells"),
        ([(2, "jsonl"), (4, "cells")], "shard-0002.jsonl"),
        ([(0, "jsonl"), (2, "cells")], "shard-0000.jsonl"),
        ([(3, "cells"), (7, "jsonl")], "shard-0003.cells"),
        ([(5, "jsonl"), (5, "cells")], "shard-0005.jsonl"),
    ] {
        let dir = Scratch::new();
        let runner = ShardedRunner::new(&c, 8, &dir).unwrap();
        assert_eq!(runner.advance(8).unwrap(), 0);
        for (shard, extension) in damaged {
            flip_a_byte(&dir.join(format!("shard-{shard:04}.{extension}")));
        }
        let first = shard_data_message(runner.load_or_init());
        assert!(first.contains(named), "{damaged:?}: {first}");
        for _ in 0..20 {
            assert_eq!(shard_data_message(runner.load_or_init()), first);
        }
    }
}

#[test]
fn a_slow_lower_failure_is_named_over_a_fast_higher_one() {
    // Shard 0's lane reads both its files through before meeting the
    // flipped cell file; the lane that claims shard 1 fails at once on its
    // missing data file. The lower shard is still the one named.
    let c = campaign(CampaignConfig::quick(3, 400));
    let (runner, dir) = complete_run(&c);
    flip_a_byte(&dir.join("shard-0000.cells"));
    std::fs::remove_file(dir.join("shard-0001.jsonl")).unwrap();
    for _ in 0..20 {
        let msg = shard_data_message(runner.load_or_init());
        assert!(msg.contains("shard-0000.cells"), "{msg}");
    }
}

#[test]
fn the_merge_error_is_the_one_reported_when_the_cell_lane_fails_too() {
    // A foreign data line in shard 2 and a content-invalid cell file in
    // shard 1, both checksummed correctly: the cell lane meets its error
    // long before the merge reaches shard 2's, and the merge's is still
    // the one returned, every time.
    let c = campaign(CampaignConfig::quick(3, 2));
    let (runner, dir) = complete_run(&c);
    respace_data_file(&runner, 2);
    borrow_cell_file(&runner, 1, 0);

    for _ in 0..20 {
        let msg = shard_data_message(runner.run(1));
        assert!(msg.contains("shard-0002.jsonl"), "{msg}");
        assert!(!dir.join(CAMPAIGN_FILE).exists());
    }
}

#[test]
fn damaged_cell_file_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c);
    let cells = dir.join("shard-0000.cells");
    let intact = std::fs::read(&cells).unwrap();
    let rejected = || {
        let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
        matches!(
            runner.load_or_init().unwrap_err(),
            CheckpointError::ShardData(_)
        )
    };

    // One flipped byte, same length.
    let mut flipped = intact.clone();
    let mid = flipped.len() / 2;
    flipped[mid] = flipped[mid].wrapping_add(1);
    std::fs::write(&cells, &flipped).unwrap();
    assert!(rejected(), "byte-flipped cell file");

    std::fs::write(&cells, &intact[..mid]).unwrap();
    assert!(rejected(), "truncated cell file");

    // Another complete shard's cell file under this shard's name: valid
    // in itself, but not what the manifest recorded.
    std::fs::copy(dir.join("shard-0001.cells"), &cells).unwrap();
    assert!(rejected(), "wrong-shard cell file");

    std::fs::remove_file(&cells).unwrap();
    assert!(rejected(), "missing cell file");

    // Restored, the directory resumes to the one-shot output.
    std::fs::write(&cells, &intact).unwrap();
    let outcome = ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap();
    assert_eq!(
        std::fs::read_to_string(&outcome.jsonl_path).unwrap(),
        c.run().to_json_lines()
    );
}

#[test]
fn a_kill_between_cell_file_and_manifest_commit_resumes_identically() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let records = c.run();
    let reference_dir = Scratch::new();
    let reference = ShardedRunner::new(&c, 4, &reference_dir)
        .unwrap()
        .run(1)
        .unwrap();
    // For every shard k: shards 0..k committed, shard k's data and cell
    // files renamed into place, and the kill before its manifest commit —
    // the manifest is the one from before shard k ran (none at all for
    // k = 0).
    for k in 0..4 {
        let dir = Scratch::new();
        let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
        runner.advance(k).unwrap();
        let manifest = dir.join("manifest.ckpt");
        let before = std::fs::read(&manifest).ok();
        runner.advance(1).unwrap();
        match before {
            Some(bytes) => std::fs::write(&manifest, bytes).unwrap(),
            None => std::fs::remove_file(&manifest).unwrap(),
        }
        assert!(dir.join(format!("shard-{k:04}.jsonl")).exists());
        assert!(dir.join(format!("shard-{k:04}.cells")).exists());

        let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
        let pending = runner.load_or_init().unwrap();
        assert_eq!(
            pending.complete_count(),
            k,
            "shard {k} must still be pending"
        );
        let outcome = runner.run(1).unwrap();
        assert_eq!(outcome.run.shards_resumed.get(), k as u64);
        assert_eq!(
            std::fs::read_to_string(&outcome.jsonl_path).unwrap(),
            records.to_json_lines(),
            "kill before shard {k}'s commit"
        );
        assert_eq!(outcome.metrics, reference.metrics);
        assert_eq!(outcome.aggregates, reference.aggregates);
        assert_eq!(outcome.health.to_jsonl(), reference.health.to_jsonl());
    }
}

/// Runs four shards with `workers` beside the calling thread, the tmp
/// names of `blocked` shards' data files taken by directories, and holds
/// the run to ending as a lone calling thread would: an `Io` error naming
/// the lowest blocked shard's tmp file, and exactly the shards before it
/// complete. Then resumes with the obstacles gone, to the one-shot bytes.
fn a_run_with_blocked_writes(c: &Campaign, workers: usize, blocked: &[u32], expected: &str) {
    let dir = Scratch::new();
    let runner = ShardedRunner::new(c, 4, &dir).unwrap();
    let obstacles: Vec<PathBuf> = blocked
        .iter()
        .map(|shard| dir.join(format!("shard-{shard:04}.jsonl.tmp")))
        .collect();
    for obstacle in &obstacles {
        std::fs::create_dir(obstacle).unwrap();
    }
    // Returning at all means every worker stopped and was joined.
    let lowest = blocked.iter().min().copied().unwrap();
    match runner.run(workers).unwrap_err() {
        CheckpointError::Io(msg) => assert!(
            msg.contains(&format!("shard-{lowest:04}.jsonl.tmp")),
            "{workers} workers: {msg}"
        ),
        other => panic!("expected Io, got {other:?}"),
    }

    // What was committed before the failure still is (`load_or_init`
    // re-validates each complete shard's files), and nothing after it.
    let before = ShardedRunner::new(c, 4, &dir)
        .unwrap()
        .load_or_init()
        .unwrap();
    let complete: Vec<bool> = before.states.iter().map(|s| s.is_complete()).collect();
    let serial: Vec<bool> = (0..4).map(|shard| shard < lowest).collect();
    assert_eq!(complete, serial, "{workers} workers");

    for obstacle in &obstacles {
        std::fs::remove_dir(obstacle).unwrap();
    }
    let outcome = ShardedRunner::new(c, 4, &dir)
        .unwrap()
        .run(workers)
        .unwrap();
    assert_eq!(outcome.run.shards_resumed.get(), lowest as u64);
    assert_eq!(
        std::fs::read_to_string(&outcome.jsonl_path).unwrap(),
        expected,
        "{workers} workers"
    );
}

#[test]
fn a_failed_shard_write_ends_the_run_typed_and_resumes_identically() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let expected = c.run().to_json_lines();
    for workers in [0, 1, 3] {
        // Shard 2's data file cannot be created: its tmp name is taken by
        // a directory. Shards 0 and 1 are committed at every thread count.
        a_run_with_blocked_writes(&c, workers, &[2], &expected);
    }
}

#[test]
fn two_failed_shard_writes_report_the_lower_one_at_every_thread_count() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let expected = c.run().to_json_lines();
    for workers in [0, 1, 3] {
        for _ in 0..20 {
            a_run_with_blocked_writes(&c, workers, &[1, 3], &expected);
        }
    }
}

#[test]
fn checkpoints_from_a_different_campaign_are_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c);

    // A different seed, fault plan, retry policy or protocol each makes
    // different records, so each is a different fingerprint.
    let mut faulted = CampaignConfig::quick(3, 2);
    faulted.faults = CampaignConfig::quick(3, 2).with_default_faults().faults;
    let mut one_more_try = CampaignConfig::quick(3, 2);
    one_more_try.probe.retry.tries = 2;
    let mut over_tls = CampaignConfig::quick(3, 2);
    over_tls.probe.protocol = Protocol::DoT;
    for (what, config) in [
        ("seed", CampaignConfig::quick(4, 2)),
        ("faults", faulted),
        ("retry field", one_more_try),
        ("protocol", over_tls),
    ] {
        let other = campaign(config);
        let err = ShardedRunner::new(&other, 4, &dir).unwrap().run(1).err();
        assert!(
            matches!(err, Some(CheckpointError::ConfigMismatch(_))),
            "a checkpoint met a change of {what} with {err:?}"
        );
    }

    // Different shard count → different fingerprint.
    assert!(matches!(
        ShardedRunner::new(&c, 8, &dir).unwrap().run(1).unwrap_err(),
        CheckpointError::ConfigMismatch(_)
    ));

    // Different population → different fingerprint.
    let other_pop = Campaign::with_resolvers(
        CampaignConfig::quick(3, 2),
        vec![catalog::resolvers::find("dns.google").unwrap()],
    );
    assert!(matches!(
        ShardedRunner::new(&other_pop, 4, &dir)
            .unwrap()
            .run(1)
            .unwrap_err(),
        CheckpointError::ConfigMismatch(_)
    ));
}

#[test]
fn zero_shards_and_duplicate_pairs_are_rejected_up_front() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = Scratch::new();
    assert!(matches!(
        ShardedRunner::new(&c, 0, &dir).unwrap_err(),
        CheckpointError::ShardData(_)
    ));

    let dup = Campaign::with_resolvers(
        CampaignConfig::quick(3, 2),
        vec![
            catalog::resolvers::find("dns.google").unwrap(),
            catalog::resolvers::find("dns.google").unwrap(),
        ],
    );
    assert!(matches!(
        ShardedRunner::new(&dup, 2, &dir).unwrap_err(),
        CheckpointError::ShardData(_)
    ));
}

#[test]
fn a_leftover_tmp_file_never_shadows_real_state() {
    // Simulate a crash between writing the tmp file and the rename: the
    // runner must ignore the orphan and produce correct output.
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c);
    std::fs::write(dir.join("shard-0002.jsonl.tmp"), "garbage half-write").unwrap();
    std::fs::write(dir.join("shard-0002.cells.tmp"), "garbage half-write").unwrap();
    // An orphan next to a *complete* shard's cell file must not be read
    // in its place either.
    std::fs::write(dir.join("shard-0000.cells.tmp"), "garbage half-write").unwrap();
    std::fs::write(dir.join("manifest.ckpt.tmp"), "torn manifest write").unwrap();

    let outcome = ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap();
    let reference = c.run();
    assert_eq!(
        std::fs::read_to_string(&outcome.jsonl_path).unwrap(),
        reference.to_json_lines()
    );
}
