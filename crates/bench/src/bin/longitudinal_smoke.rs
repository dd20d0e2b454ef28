//! Longitudinal campaign smoke: runs a sharded, checkpointed multi-month
//! simulated campaign over the full resolver population and proves the
//! engine's memory stays O(shard) while JSONL streams to disk — the
//! property that makes multi-million-probe campaigns feasible.
//!
//! Two profiles:
//!
//! * `cargo run --release -p bench --bin longitudinal_smoke` — the full
//!   profile: 133 simulated days (>1M probes), 64 shards. The numbers
//!   recorded in `BENCH_campaign.json` at the repo root.
//! * `-- --quick` — the CI profile: 20 simulated days (~150k probes),
//!   16 shards, with a hard peak-RSS cap so an accumulation regression
//!   (anything re-growing a whole-campaign `Vec<ProbeRecord>`) fails the
//!   workflow loudly.
//!
//! Both profiles exercise a kill/resume: the run is stopped after a few
//! shards, resumed by a fresh runner, and the checkpointed shard count is
//! asserted. Prints one JSON object on stdout, and on stderr the stage
//! ledger: where `elapsed_s` went — the killed run as one row, then the
//! resumed run's own [`measure::shard::StageLedger`] stage by stage. The
//! execute phase runs identical lanes side by side (`--threads` workers
//! and this thread, each generating and persisting the shards it claims;
//! this thread also commits them all), so two identities are asserted,
//! each to within 5 %: the execute rows, `wait_s` included, sum to
//! `lanes × execute_wall_s`, and the killed run plus the validate, execute
//! and assemble phases sum to `elapsed_s`. A lane with nothing to do shows
//! it as `wait_s`.
//! Assembly has a second lane too: `assemble_cells_s` is the cell files'
//! decode and install on a thread of their own, overlapped with the copy,
//! so it is no term of the phases' sum and a third assertion bounds it by
//! assembly's wall time (`assemble_read_s + assemble_write_s`).
//!
//! Then a third fresh runner re-runs the completed directory, the path
//! with nothing pending, where validation rides the cell lane and
//! `validate_s` is the manifest load alone: every shard must be resumed,
//! the campaign file must come out byte-identical (FNV-1a and length),
//! and the phases must again sum to its elapsed time. Its ledger is
//! printed on stderr too, and its elapsed time goes into the JSON object
//! as `rerun_s`.

// Bench harness: real elapsed time is the measurement itself.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use measure::checkpoint::fnv64;
use measure::shard::StageLedger;
use measure::{Campaign, CampaignConfig, ShardedRunner};

/// Peak-RSS cap for the CI profile, 20 MiB. The bounded-memory engine
/// peaks at 7.6–7.8 MB on the reference container (three runs,
/// `--threads 1`; 7.6–7.8 MB too in runs alternated with them while
/// assembly's shard readers took 64 KiB each, 8.6–8.8 MB while a record
/// took 152 B, 10.9–11.1 MB while assembly held a (pair, day) table of
/// health cells), and the cap allows 13.2 MB over that — less than the
/// profile's record bytes (150,480 records × 104 B = 15.6 MB), so a run
/// that holds every record again, whatever else it frees, breaches it.
const QUICK_RSS_CAP_KB: u64 = 20 * 1024;

/// Throughput floor for the CI profile: just under half the 258.0k
/// probes/s measured on the reference container (2 vCPUs, one generator
/// thread beside a committing one, median of ten runs;
/// `BENCH_campaign.json`), so only a structural regression — the manifest
/// or assembly going super-linear again, probe generation losing the
/// allocation-free resolver side, or the record codec going back through
/// `f64` in either direction — trips it.
const QUICK_PROBES_PER_SEC_FLOOR: f64 = 125_000.0;

/// How far a ledger identity's two sides may differ, as a share of the
/// larger.
const LEDGER_TOLERANCE: f64 = 0.05;

/// One ledger identity: `parts` must account for `whole`.
fn assert_adds_up(what: &str, parts: f64, whole: f64) {
    assert!(
        (parts - whole).abs() <= LEDGER_TOLERANCE * parts.max(whole),
        "{what}: rows sum to {parts:.3} s, expected {whole:.3} s"
    );
}

/// Peak RSS of this process in kB, from /proc/self/status (VmHWM).
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Prints a run's stage ledger on stderr and asserts that the killed run
/// before it (if any, and in `elapsed`) and the phases sum to `elapsed`,
/// and that the cell lane ends within assembly. Returns the printed rows.
fn ledger(
    stages: &StageLedger,
    killed_run_s: Option<f64>,
    elapsed: f64,
) -> Vec<(&'static str, f64)> {
    let mut rows: Vec<_> = killed_run_s
        .map(|s| ("killed_run_s", s))
        .into_iter()
        .collect();
    let before_s = killed_run_s.unwrap_or(0.0);
    rows.extend(stages.rows());
    rows.push(("unattributed_s", elapsed - before_s - stages.phases_s()));
    for (name, seconds) in &rows {
        eprintln!(
            "  {name:<18} {seconds:>8.3} s  {:>5.1} %",
            seconds / elapsed * 100.0
        );
    }
    eprintln!("  {:<18} {elapsed:>8.3} s", "elapsed_s");
    eprintln!("  the execute rows are totals over the lanes; assemble_cells_s ran beside assemble_read_s + assemble_write_s");
    assert_adds_up("phases", before_s + stages.phases_s(), elapsed);
    let assemble_wall_s = stages.assemble_read_s + stages.assemble_write_s;
    assert!(
        stages.assemble_cells_s <= assemble_wall_s * (1.0 + LEDGER_TOLERANCE),
        "cell lane: {:.3} s cannot outlast assembly's {assemble_wall_s:.3} s",
        stages.assemble_cells_s
    );
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (days, shards, kill_after) = if quick {
        (20, 16u32, 3)
    } else {
        (133, 64u32, 8)
    };

    let config = CampaignConfig::longitudinal(42, days);
    let campaign = Campaign::new(config);
    let probes = campaign.probe_count() as u64;
    assert!(
        quick || probes >= 1_000_000,
        "full profile must simulate at least one million probes, got {probes}"
    );

    let dir = std::env::temp_dir().join(format!("edns-longitudinal-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // `--threads N` pins the workers spawned beside this thread (the
    // scaling CI step sweeps it); the default is one per further core, so
    // local runs keep every core busy.
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|n| n.parse().expect("--threads takes a worker count"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get() - 1));

    let t = Instant::now();
    // Phase 1: run a few shards, then drop the runner — the kill.
    let first = ShardedRunner::new(&campaign, shards, &dir).unwrap();
    let remaining = first.advance(kill_after).unwrap();
    assert_eq!(remaining, shards as usize - kill_after);
    drop(first);
    let killed_run_s = t.elapsed().as_secs_f64();

    // Phase 2: a fresh runner resumes from the checkpoint directory and
    // finishes the campaign.
    let runner = ShardedRunner::new(&campaign, shards, &dir).unwrap();
    let outcome = runner.run(threads).unwrap();
    let elapsed = t.elapsed().as_secs_f64();

    assert_eq!(outcome.records, probes, "record count must match the plan");
    assert_eq!(
        outcome.run.shards_resumed.get(),
        kill_after as u64,
        "resume must adopt exactly the checkpointed shards"
    );
    let jsonl_bytes = std::fs::metadata(&outcome.jsonl_path).unwrap().len();
    let overall = outcome.aggregates.overall();
    let rss_kb = peak_rss_kb();
    let probes_per_sec = outcome.records as f64 / elapsed;
    if quick {
        assert!(
            rss_kb > 0 && rss_kb < QUICK_RSS_CAP_KB,
            "peak RSS {rss_kb} kB breaches the {QUICK_RSS_CAP_KB} kB bounded-memory cap"
        );
        assert!(
            probes_per_sec >= QUICK_PROBES_PER_SEC_FLOOR,
            "{probes_per_sec:.0} probes/s is under the {QUICK_PROBES_PER_SEC_FLOOR} floor"
        );
    }

    // The stage ledger: every row a wall-clock total. Three phases after
    // the killed run, the middle one over every lane.
    let stages = &outcome.stages;
    eprintln!(
        "stage ledger ({} lane(s), each generating and persisting; this thread commits):",
        stages.lanes
    );
    let rows = ledger(stages, Some(killed_run_s), elapsed);
    assert_adds_up(
        "execute lanes",
        stages.lanes_s(),
        stages.lanes as f64 * stages.execute_wall_s,
    );

    // Phase 3: a fresh runner over the completed directory, nothing
    // pending.
    let campaign_file = std::fs::read(&outcome.jsonl_path).unwrap();
    let runner = ShardedRunner::new(&campaign, shards, &dir).unwrap();
    let t = Instant::now();
    let rerun = runner.run(threads).unwrap();
    let rerun_s = t.elapsed().as_secs_f64();
    assert_eq!(
        rerun.run.shards_resumed.get(),
        shards as u64,
        "a re-run must resume every shard"
    );
    let rerun_file = std::fs::read(&rerun.jsonl_path).unwrap();
    assert_eq!(
        (fnv64(&rerun_file), rerun_file.len()),
        (fnv64(&campaign_file), campaign_file.len()),
        "a re-run must assemble the same campaign file"
    );
    eprintln!("re-run of the completed directory (nothing pending; validation on the cell lane):");
    ledger(&rerun.stages, None, rerun_s);

    let stages_json = rows
        .iter()
        .map(|(name, seconds)| format!("\"{name}\":{seconds:.3}"))
        .collect::<Vec<_>>()
        .join(",");

    println!(
        concat!(
            "{{\"profile\":\"{}\",\"keystream_kernel\":\"{}\",",
            "\"days\":{},\"shards\":{},\"threads\":{},\"lanes\":{},",
            "\"probes\":{},\"resumed_shards\":{},\"jsonl_bytes\":{},",
            "\"elapsed_s\":{:.3},\"rerun_s\":{:.3},\"probes_per_sec\":{:.0},",
            "\"peak_rss_kb\":{},\"availability_pct\":{:.2},",
            "\"response_p50_ms\":{:.1},\"response_p95_ms\":{:.1},",
            "\"longitudinal_stages\":{{{}}}}}"
        ),
        if quick { "quick" } else { "full" },
        netsim::rng::keystream_kernel(),
        days,
        shards,
        threads,
        stages.lanes,
        outcome.records,
        kill_after,
        jsonl_bytes,
        elapsed,
        rerun_s,
        probes_per_sec,
        rss_kb,
        overall.availability.availability() * 100.0,
        overall.response.quantile(0.5).unwrap_or(0.0),
        overall.response.quantile(0.95).unwrap_or(0.0),
        stages_json,
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
