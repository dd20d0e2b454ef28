//! The five workloads: what each one is, how it is set up, and one
//! repetition of it — the timed calls into the engine, then the output
//! checks, which run outside the timed region.
//!
//! Every workload drives the engine the way its single caller does: one
//! process, one worker thread, the full resolver catalog, the three
//! standard domains. The campaign seed is the only input that varies.

use std::io::Read as _;
use std::path::{Path, PathBuf};

use measure::shard::{CAMPAIGN_FILE, MANIFEST_FILE};
use measure::{
    detect_drift, metrics_of, AggregateCell, Campaign, CampaignAggregates, CampaignConfig,
    DriftConfig, HealthSeries, LoadModel, Manifest, ProbeRecord, SessionConfig, ShardState,
    ShardedRunner,
};

use crate::trace::Tracer;

/// 10 simulated days × 7 524 probes/day = 75 240 probes per repetition.
pub const LONGITUDINAL_DAYS: u32 = 10;
/// With 10 days, 32 shards put the 32 whole-manifest rewrites at ~40 % of
/// the run — the share they have in the 133-day/64-shard profile users
/// run, at a size that repeats six or seven times in the 15-second window.
pub const SHARDS: u32 = 32;
/// 80 rounds × 1 596 probes/round = 127 680 probes per repetition.
pub const QUICK_ROUNDS: u32 = 80;
/// 60 rounds = 95 760 probes per repetition, ~17 % more bytes per record.
pub const FAULTED_ROUNDS: u32 = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ShardedRunner::run(1)` into a fresh directory.
    ShardedFresh,
    /// `ShardedRunner::run(1)` on a directory whose shards are all complete.
    ShardedResume,
    /// `Campaign::run()` → JSON lines → file → `metrics_of`.
    InMemory,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub config: fn(u64) -> CampaignConfig,
}

fn longitudinal(seed: u64) -> CampaignConfig {
    CampaignConfig::longitudinal(seed, LONGITUDINAL_DAYS)
}

fn inmemory_quick(seed: u64) -> CampaignConfig {
    CampaignConfig::quick(seed, QUICK_ROUNDS)
}

fn faulted_loaded(seed: u64) -> CampaignConfig {
    CampaignConfig::quick(seed, FAULTED_ROUNDS)
        .with_default_faults()
        .with_load(LoadModel::standard(seed).with_multiplier(2.0))
}

fn faulted_warm(seed: u64) -> CampaignConfig {
    CampaignConfig::quick(seed, FAULTED_ROUNDS)
        .with_default_faults()
        .with_session(SessionConfig::interleaved(0.3))
}

/// In `BENCHMARK.json` order; why each exists is recorded there and in
/// the README. The flagship runs last: the sharded engine's large writes
/// take fresh page-cache memory, which is markedly cheaper for the first
/// minutes after a build has freed gigabytes of it, and a series of runs
/// started then drifts by a quarter.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "inmemory_quick",
        kind: Kind::InMemory,
        config: inmemory_quick,
    },
    Workload {
        name: "faulted_loaded",
        kind: Kind::InMemory,
        config: faulted_loaded,
    },
    Workload {
        name: "faulted_warm",
        kind: Kind::InMemory,
        config: faulted_warm,
    },
    Workload {
        name: "resume_assemble",
        kind: Kind::ShardedResume,
        config: longitudinal,
    },
    Workload {
        name: "longitudinal_sharded",
        kind: Kind::ShardedFresh,
        config: longitudinal,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A scratch directory the harness made and removes again — when the
/// guard drops, so on success, on failed checks and on early return alike.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path`. An existing directory is someone else's (or a
    /// killed run's) and is reported, not deleted.
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
        std::fs::create_dir(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// Takes over a directory a set-up child process filled.
    pub fn adopt(path: PathBuf) -> ScratchDir {
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Rounds of the throw-away campaign that opens every set-up (15 960
/// probes). One round would pay for the lazy statics just as well, but
/// leaves a 25 ms set-up that is mostly process start-up, whose jitter on
/// the reference container alone exceeds any bound `setup_s` could carry.
const WARMUP_ROUNDS: u32 = 10;

/// Everything between process start and the first timed call, except the
/// checkpoint directory `resume_assemble` reads (see [`complete_shards`]):
/// lazy statics, the campaign's plans and tables, the scratch root.
pub fn prepare(w: &Workload, seed: u64, root: &Path) -> Result<Campaign, String> {
    // Interner tables, protocol labels and catalog statics are built on
    // first use, once per process; a throw-away campaign pays for them
    // here so the first repetition looks like the rest.
    let warm = Campaign::try_new(CampaignConfig::quick(seed, WARMUP_ROUNDS))?.run();
    std::hint::black_box(warm);
    let campaign = Campaign::try_new((w.config)(seed))?;
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    Ok(campaign)
}

/// Completes every shard of `campaign` in `dir`: the input
/// `resume_assemble` measures. Run in a child process, so the measuring
/// process's `VmHWM` covers the read path only.
pub fn complete_shards(campaign: &Campaign, dir: &Path) -> Result<(), String> {
    ShardedRunner::new(campaign, SHARDS, dir)
        .and_then(|runner| runner.run(1))
        .map(drop)
        .map_err(|e| e.to_string())
}

/// What a run's output *is*, as opposed to how fast it came: a change
/// that only claims speed must leave all five identical for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Identity {
    pub output_fnv64: u64,
    pub output_bytes: u64,
    pub availability_pct: f64,
    pub response_p50_ms: f64,
    pub response_p95_ms: f64,
}

impl Identity {
    fn of(output_fnv64: u64, output_bytes: u64, overall: &AggregateCell) -> Identity {
        Identity {
            output_fnv64,
            output_bytes,
            availability_pct: overall.availability.availability() * 100.0,
            response_p50_ms: overall.response.quantile(0.5).unwrap_or(0.0),
            response_p95_ms: overall.response.quantile(0.95).unwrap_or(0.0),
        }
    }
}

/// One checked repetition.
#[derive(Debug)]
pub struct Repetition {
    /// Wall seconds of the timed region.
    pub seconds: f64,
    pub probes: u64,
    pub identity: Identity,
    /// Exact counts the repetition saw, by per-layer metric name.
    pub facts: Vec<(&'static str, f64)>,
    /// A fresh sharded run's own directory, kept alive for the traced
    /// ledger and removed when this drops.
    pub dir: Option<ScratchDir>,
}

/// Where a run's files go.
pub struct Scratch<'a> {
    /// This run's own directory (pid + workload); everything the run
    /// writes is inside it and goes with it.
    pub run: &'a Path,
    /// The directory of completed shards, for [`Kind::ShardedResume`].
    pub complete: Option<&'a Path>,
}

/// Runs repetition `rep` of `w`: the timed calls, then the output checks.
/// `Err` is a failed repetition — an engine error or a check that did not
/// hold.
pub fn repetition(
    w: &Workload,
    campaign: &Campaign,
    scratch: &Scratch,
    rep: usize,
    tracer: &mut Tracer,
) -> Result<Repetition, String> {
    match w.kind {
        // One output file per run, overwritten by each repetition: a
        // re-run of `--out results.jsonl`. (A fresh file per repetition
        // stalls ~0.3 s on page-cache allocation every few repetitions on
        // the reference VM's ext4, which is the disk's doing.)
        Kind::InMemory => in_memory(campaign, &scratch.run.join(CAMPAIGN_FILE), tracer),
        Kind::ShardedFresh => {
            let dir = ScratchDir::create(scratch.run.join(format!("rep{rep}")))?;
            let mut done = sharded(campaign, dir.path(), 0, tracer)?;
            done.dir = Some(dir);
            Ok(done)
        }
        Kind::ShardedResume => {
            let dir = scratch
                .complete
                .ok_or("resume_assemble has no completed directory")?;
            // The input is shards and manifest, not an earlier assembly:
            // assembling over an existing file also makes ext4 flush the
            // replacement to disk at once, 35 MB of real I/O a repetition.
            remove_assembled(dir)?;
            sharded(campaign, dir, u64::from(SHARDS), tracer)
        }
    }
}

fn remove_assembled(dir: &Path) -> Result<(), String> {
    let path = dir.join(CAMPAIGN_FILE);
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

fn in_memory(campaign: &Campaign, path: &Path, tracer: &mut Tracer) -> Result<Repetition, String> {
    tracer.enter("repetition");
    // `Campaign::run()` is exactly these two calls.
    let generated = tracer.span("campaign.generate", || campaign.generate(1));
    let generated_probes = generated.record_count();
    let result = tracer.span("campaign.merge", || campaign.assemble(generated));
    let jsonl = tracer.span("results.write_json", || result.to_json_lines());
    let written = tracer.span("fs.write", || std::fs::write(path, &jsonl));
    let metrics = tracer.span("campaign.metrics", || metrics_of(&result.records));
    let seconds = tracer.exit("repetition");

    written.map_err(|e| format!("write {}: {e}", path.display()))?;
    let records = &result.records;
    let aggregates = tracer.span("aggregate.fold", || {
        CampaignAggregates::of(campaign, records)
    });
    let health = tracer.span("health.fold", || health_fold(campaign, records));
    let (file_sum, file_len) = tracer.span("check.hash_output", || fnv1a_file(path))?;
    all_equal(
        campaign.probe_count() as u64,
        &[
            ("generated probes", generated_probes as u64),
            ("records", records.len() as u64),
            ("metrics.total_probes", metrics.total_probes()),
            ("aggregates.probes", aggregates.probes()),
            ("health.probes", health.probes()),
        ],
    )?;
    if (file_sum, file_len)
        != (
            measure::checkpoint::fnv64(jsonl.as_bytes()),
            jsonl.len() as u64,
        )
    {
        return Err(format!(
            "{} does not hold the serialised campaign",
            path.display()
        ));
    }

    let mb = jsonl.len() as f64 / 1e6;
    let (attempts_per_probe, failed_share) = attempt_facts(records);
    Ok(Repetition {
        seconds,
        probes: records.len() as u64,
        identity: Identity::of(file_sum, file_len, &aggregates.overall()),
        facts: vec![
            ("campaign.generate_probes", generated_probes as f64),
            ("results.write_json_mb", mb),
            ("fs.mb", mb),
            ("probe.attempts_per_probe", attempts_per_probe),
            ("probe.failed_probe_share", failed_share),
        ],
        dir: None,
    })
}

fn sharded(
    campaign: &Campaign,
    dir: &Path,
    expect_resumed: u64,
    tracer: &mut Tracer,
) -> Result<Repetition, String> {
    tracer.enter("repetition");
    let outcome = ShardedRunner::new(campaign, SHARDS, dir).and_then(|runner| runner.run(1));
    let seconds = tracer.exit("repetition");

    let outcome = outcome.map_err(|e| e.to_string())?;
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = Manifest::load(&manifest_path).map_err(|e| e.to_string())?;
    let shard_bytes: u64 = manifest
        .states
        .iter()
        .map(|state| match state {
            ShardState::Complete(c) => c.bytes,
            ShardState::Pending => 0,
        })
        .sum();
    let (file_sum, file_len) =
        tracer.span("check.hash_output", || fnv1a_file(&outcome.jsonl_path))?;
    all_equal(
        campaign.probe_count() as u64,
        &[
            ("records", outcome.records),
            ("records_merged", outcome.run.records_merged.get()),
            ("metrics.total_probes", outcome.metrics.total_probes()),
            ("aggregates.probes", outcome.aggregates.probes()),
            ("health.probes", outcome.health.probes()),
        ],
    )?;
    all_equal(shard_bytes, &[("campaign.jsonl bytes", file_len)])?;
    all_equal(
        expect_resumed,
        &[("shards_resumed", outcome.run.shards_resumed.get())],
    )?;
    all_equal(
        u64::from(SHARDS) - expect_resumed,
        &[
            ("shards_executed", outcome.run.shards_executed.get()),
            ("manifest_writes", outcome.run.manifest_writes.get()),
        ],
    )?;

    let run = &outcome.run;
    Ok(Repetition {
        seconds,
        probes: outcome.records,
        identity: Identity::of(file_sum, file_len, &outcome.aggregates.overall()),
        facts: vec![
            ("shard.shards_executed", run.shards_executed.get() as f64),
            ("shard.shards_resumed", run.shards_resumed.get() as f64),
            ("shard.manifest_writes", run.manifest_writes.get() as f64),
            ("shard.checkpoint_bytes", run.checkpoint_bytes.get() as f64),
            ("shard.records_merged", run.records_merged.get() as f64),
        ],
        dir: None,
    })
}

/// The health layer's whole fold: the per-(pair, day) series, its
/// resolver rows, and drift detection over them.
pub fn health_fold(campaign: &Campaign, records: &[ProbeRecord]) -> HealthSeries {
    let health = HealthSeries::of(campaign, records);
    std::hint::black_box(detect_drift(
        &health.resolver_rows(),
        &DriftConfig::default(),
    ));
    health
}

/// Every `(what, value)` must equal `expected`.
fn all_equal(expected: u64, got: &[(&str, u64)]) -> Result<(), String> {
    match got.iter().find(|(_, value)| *value != expected) {
        Some((what, value)) => Err(format!("{what} is {value}, expected {expected}")),
        None => Ok(()),
    }
}

/// Mean attempts per probe and the share of probes that failed, from the
/// records' retry info and outcomes. A probe without retry info made one
/// attempt.
pub fn attempt_facts(records: &[ProbeRecord]) -> (f64, f64) {
    let attempts: u64 = records
        .iter()
        .map(|r| {
            r.retry
                .as_ref()
                .map_or(1, |retry| u64::from(retry.attempts))
        })
        .sum();
    let failed = records.iter().filter(|r| !r.outcome.is_success()).count();
    let n = records.len().max(1) as f64;
    (attempts as f64 / n, failed as f64 / n)
}

/// FNV-1a (the engine's `checkpoint::fnv64`) and length of a file,
/// streamed through a fixed buffer: the check must not raise the peak
/// RSS it sits beside, which reading a whole campaign into memory would.
pub fn fnv1a_file(path: &Path) -> Result<(u64, u64), String> {
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut buf = vec![0u8; 1 << 16];
    let (mut sum, mut len) = (0xcbf2_9ce4_8422_2325u64, 0u64);
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        if n == 0 {
            return Ok((sum, len));
        }
        for &b in &buf[..n] {
            sum = (sum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        len += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "campaign-benchmark-test-{}-{name}",
            std::process::id()
        ))
    }

    #[test]
    fn streamed_hash_matches_the_engine_checksum() {
        let dir = ScratchDir::create(temp("hash")).unwrap();
        let path = dir.path().join("blob");
        let blob: Vec<u8> = (0..200_000u32).map(|i| (i * 31 % 251) as u8).collect();
        std::fs::write(&path, &blob).unwrap();
        assert_eq!(
            fnv1a_file(&path).unwrap(),
            (measure::checkpoint::fnv64(&blob), blob.len() as u64)
        );
        assert!(fnv1a_file(&dir.path().join("absent")).is_err());
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_never_adopts_a_stranger() {
        let path = temp("scratch");
        let dir = ScratchDir::create(path.clone()).unwrap();
        std::fs::write(dir.path().join("f"), b"x").unwrap();
        assert!(
            ScratchDir::create(path.clone()).is_err(),
            "existing directory must be refused"
        );
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn a_mismatched_count_names_itself() {
        assert!(all_equal(3, &[("a", 3), ("b", 3)]).is_ok());
        assert_eq!(
            all_equal(3, &[("a", 3), ("b", 4)]).unwrap_err(),
            "b is 4, expected 3"
        );
    }

    /// A small campaign through both repetition bodies: checks pass, the
    /// sharded and in-memory engines agree on the output, and a resume
    /// repetition on the completed directory reports every shard resumed.
    #[test]
    fn repetitions_pass_their_checks_and_agree_across_engines() {
        let campaign = Campaign::new(CampaignConfig::longitudinal(7, 1));
        let root = ScratchDir::create(temp("reps")).unwrap();
        let mut tracer = Tracer::new(false);

        let mem = in_memory(&campaign, &root.path().join("mem.jsonl"), &mut tracer).unwrap();
        let dir = root.path().join("shards");
        let fresh = sharded(&campaign, &dir, 0, &mut tracer).unwrap();
        let resumed = sharded(&campaign, &dir, u64::from(SHARDS), &mut tracer).unwrap();

        assert_eq!(mem.probes, campaign.probe_count() as u64);
        assert_eq!(mem.identity, fresh.identity);
        assert_eq!(fresh.identity, resumed.identity);
        assert!(mem.seconds > 0.0 && fresh.seconds > resumed.seconds);
        let fact = |r: &Repetition, name: &str| r.facts.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(fact(&mem, "probe.attempts_per_probe"), 1.0);
        assert_eq!(fact(&fresh, "shard.shards_executed"), f64::from(SHARDS));
        assert_eq!(fact(&resumed, "shard.shards_resumed"), f64::from(SHARDS));
        remove_assembled(&dir).unwrap();
        assert!(!dir.join(CAMPAIGN_FILE).exists());
        remove_assembled(&dir).expect("nothing to remove is not an error");
        // A fresh-run expectation on a completed directory is a failed check.
        assert!(sharded(&campaign, &dir, 0, &mut tracer)
            .unwrap_err()
            .contains("shards_resumed"));
    }
}
