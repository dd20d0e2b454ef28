//! The sharded, resumable campaign engine.
//!
//! A campaign's probe space is split into `K` deterministic *shards*:
//! contiguous, balanced ranges of the (vantage, resolver) pair list. A
//! whole pair always lives in exactly one shard — the per-pair RNG stream
//! is sequential, so a pair can never be split without replaying it.
//! A shard is the in-memory engine over its pairs, plus persistence, in
//! two halves. The *generate* half runs the pairs into one buffer
//! ([`Campaign::generate_over`]) and folds each pair's aggregate, metrics
//! and health cells and its retry exhaustions; the *persist* half puts the
//! buffer into [`CampaignOrder`] in place
//! ([`campaign::assemble_in_place`]), writes it front to back as a JSONL
//! data file and the folds as a cell file (both tmp + rename, so a crash
//! never leaves a torn file under the real name), after which the shard is
//! marked complete in the campaign [`Manifest`] — a commit that costs
//! O(shards), not O(work done so far). In [`hand_off`] every
//! execute-phase thread, the calling thread included, claims the next
//! pending shard, generates it and persists it; the calling thread alone
//! commits, in shard order. [`ShardedRunner::run`] spawns workers beside
//! it, [`ShardedRunner::advance`] none.
//!
//! The read side has two lanes as well. *Validation* re-checks every
//! complete shard's files through [`hand_off`] with one worker.
//! *Assembly* copies the shard files' lines into the final campaign JSONL
//! without parsing one: [`CampaignOrder`] over every pair says which
//! pair's probe comes next, so the next line of that pair's shard file is
//! copied, after a check that it closes like the record of that slot. A
//! second thread installs the cells one cell file at a time — metrics,
//! aggregates, health and journal events all come from them, and drift is
//! detected over the health rows where they lie. Memory stays O(shards)
//! small read buffers + O(pairs) cells and cursors + O(resolvers × days)
//! health rows, held once, never O(records).
//!
//! Determinism contract (DESIGN.md §9): for any seed, shard count, thread
//! count, and any kill/resume schedule,
//!
//! ```text
//! run() == run_parallel(n) == ShardedRunner::run(t) == kill+resume
//! ```
//!
//! — byte-identical final JSONL, identical metrics snapshot, identical
//! aggregate cells. Both engines walk the one [`CampaignOrder`]: a pair's
//! records take its vantage's slot order, and pairs interleave by
//! `(time, pair rank)`. The walk over a shard's pairs is the campaign's
//! walk restricted to them, so each shard file, written in it, is read
//! straight through.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind, Read as _, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::channel;

use netsim::faults::FaultScope;
use obs::clock::Stopwatch;
use obs::journal::codes;
use obs::{
    EventData, EventLevel, Journal, JournalEvent, Label, MetricsSnapshot, ShardRunMetrics, SpanLog,
};

use crate::aggregate::CampaignAggregates;
use crate::campaign::{self, Campaign, CampaignOrder, PairPlan, Slot};
use crate::checkpoint::{
    checksum, fnv64, io_err, write_atomic, write_atomic_bytes, CheckpointError, Checksum, Manifest,
    ShardCells, ShardCheckpoint, ShardState,
};
use crate::fold::{fold_pair, CampaignFolds};
use crate::health::{DriftConfig, DriftFinding, HealthSeries, NANOS_PER_DAY};
use crate::probe::ProbeConfig;
use crate::results::ProbeRecord;
use crate::retry::RetryPolicy;

/// The manifest's file name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.ckpt";

/// The assembled campaign's file name inside a checkpoint directory.
pub const CAMPAIGN_FILE: &str = "campaign.jsonl";

/// Everything a sharded run produces.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Path of the assembled campaign JSONL (byte-identical to the
    /// one-shot engine's `to_json_lines` output).
    pub jsonl_path: PathBuf,
    /// Records in the assembled file.
    pub records: u64,
    /// The campaign metrics snapshot, identical to `metrics_of` over the
    /// one-shot record vector.
    pub metrics: MetricsSnapshot,
    /// Bounded-memory per-pair aggregates.
    pub aggregates: CampaignAggregates,
    /// Scheduler telemetry: planned/executed/resumed shard counts,
    /// checkpoint traffic, assembly volume.
    pub run: ShardRunMetrics,
    /// One span per shard laying its simulated-time extent on a timeline.
    pub spans: SpanLog,
    /// The per-(resolver, day) health rows, each pair's checkpointed
    /// (pair, day) cells merged into them as its cell file is installed —
    /// identical to [`HealthSeries::of`] over the one-shot record vector.
    pub health: HealthSeries,
    /// Deterministic drift findings over the health timeseries
    /// (default [`DriftConfig`]).
    pub drift: Vec<DriftFinding>,
    /// The flight-recorder journal: shard lifecycle, checkpoint traffic,
    /// fault windows, retry exhaustions and drift findings in simulated
    /// time, every event of the campaign.
    pub journal: Journal,
    /// Where this run's wall-clock time went, stage by stage.
    pub stages: StageLedger,
}

impl ShardedOutcome {
    /// Writes the flight recorder's three documents into `dir` (created if
    /// absent): `events.jsonl` (the journal), `health.jsonl` (the
    /// per-(resolver, day) series) and `trace.json` (one bar per shard
    /// over its simulated extent, Chrome trace-event JSON). All three are
    /// pure functions of seed and configuration.
    pub fn export(&self, dir: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(io_err("create", dir))?;
        let write = |name, text: String| write_atomic_bytes(&dir.join(name), text.as_bytes());
        write("events.jsonl", self.journal.to_jsonl())?;
        write("health.jsonl", self.health.to_jsonl())?;
        write("trace.json", obs::traceview::chrome_trace(&self.spans))
    }
}

/// Wall-clock seconds per stage of one [`ShardedRunner::run`]. Operator
/// telemetry from the audited [`obs::clock::Stopwatch`]: nothing here
/// flows into any deterministic output.
///
/// A run is three phases one after another — validate, execute,
/// assemble — so
///
/// ```text
/// validate_s + execute_wall_s + assemble_read_s + assemble_write_s == elapsed
/// ```
///
/// less the few milliseconds of drift detection and journal assembly.
/// Validation and assembly each keep a second thread busy, but only the
/// calling thread's time is a term here: `assemble_cells_s` runs inside
/// `assemble_read_s + assemble_write_s`, not after them.
/// The execute phase runs `lanes` identical lanes side by side, each
/// generating and persisting the shards it claims, and the calling
/// thread's lane also commits them all. Every execute row is a total over
/// the lanes, so together they account for the phase's wall time on each:
///
/// ```text
/// generate_s + fold_s + serialise_s + data_write_s + cell_write_s
///     + commit_s + wait_s
///     == lanes * execute_wall_s
/// ```
///
/// A lane with nothing to do shows it as wait.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageLedger {
    /// `load_or_init`: manifest decode plus re-validation of every
    /// complete shard's data and cell file — wall time of one [`hand_off`]
    /// with one worker, each lane reading a shard's files straight through.
    pub validate_s: f64,
    /// The execute phase's wall time: from the first worker's spawn to the
    /// last worker's join, after the last shard's commit. Next to nothing
    /// when no shard is pending.
    pub execute_wall_s: f64,
    /// Lanes the execute phase ran: the calling thread and the workers
    /// `run` spawned beside it.
    pub lanes: usize,
    /// [`Campaign::generate_over`] over each executed shard's pairs.
    pub generate_s: f64,
    /// The per-pair fold: aggregate, metrics and per-(pair, day) health
    /// cells, and the retry exhaustions.
    pub fold_s: f64,
    /// Each shard's records put into [`CampaignOrder`] in place and
    /// rendered, each block checksummed before it is written.
    pub serialise_s: f64,
    /// Data-file write + rename.
    pub data_write_s: f64,
    /// Cell-file encode + write + rename.
    pub cell_write_s: f64,
    /// Manifest commits: encode, write + rename (calling thread).
    pub commit_s: f64,
    /// Lanes not working: the calling thread out of shards to claim while
    /// others are still landing, a worker before its start and after its
    /// last shard.
    pub wait_s: f64,
    /// Assembly's wall time less its writes: the walk of the
    /// [`CampaignOrder`], and each line's read, check and copy on the
    /// calling thread, then whatever wait is left for the cell lane to
    /// finish.
    pub assemble_read_s: f64,
    /// Assembly's writes of the campaign JSONL.
    pub assemble_write_s: f64,
    /// The cell lane's own wall time: every cell file read, decoded in
    /// one pass with no `Json` tree, checked and installed — aggregates,
    /// metrics, health and retry exhaustions — on a second thread while
    /// the line copy runs, which takes longer. Overlapped with the two rows
    /// above, so not a term of [`phases_s`](Self::phases_s).
    pub assemble_cells_s: f64,
}

impl StageLedger {
    /// The stages in pipeline order, by field name.
    pub fn rows(&self) -> [(&'static str, f64); 12] {
        [
            ("validate_s", self.validate_s),
            ("execute_wall_s", self.execute_wall_s),
            ("generate_s", self.generate_s),
            ("fold_s", self.fold_s),
            ("serialise_s", self.serialise_s),
            ("data_write_s", self.data_write_s),
            ("cell_write_s", self.cell_write_s),
            ("commit_s", self.commit_s),
            ("wait_s", self.wait_s),
            ("assemble_read_s", self.assemble_read_s),
            ("assemble_write_s", self.assemble_write_s),
            ("assemble_cells_s", self.assemble_cells_s),
        ]
    }

    /// What the execute phase's lanes spent on their stages, wait
    /// included: `lanes * execute_wall_s`.
    pub fn lanes_s(&self) -> f64 {
        self.generate_s
            + self.fold_s
            + self.serialise_s
            + self.data_write_s
            + self.cell_write_s
            + self.commit_s
            + self.wait_s
    }

    /// The three phases' wall time on the calling thread: what a run's
    /// elapsed time must match.
    pub fn phases_s(&self) -> f64 {
        self.validate_s + self.execute_wall_s + self.assemble_read_s + self.assemble_write_s
    }
}

/// A validation lane's block: each file is read straight through it.
const VALIDATE_READ_BYTES: usize = 64 * 1024;

/// Assembly's read buffer per shard. [`CampaignOrder`] interleaves the
/// pairs by time, so it takes a shard's lines about one per pair in turn:
/// at 32 shards ~17 pairs' lines of ~470 B, about one refill of this
/// buffer. Assembly holds one per shard, so a larger buffer buys fewer
/// `read` calls with shards × its size of heap.
const SHARD_READ_BYTES: usize = 8 * 1024;

/// One of a complete shard's files: its path, and the size and checksum
/// its manifest entry records.
type Recorded = (PathBuf, u64, u64);

/// Re-validates `files`, in order, against the sizes and checksums their
/// manifest entries record, reading each straight through one 64 KiB block
/// on the stack, so that validation holds a block, never a file. Stops at the first file that is
/// missing, unreadable, or of another size or checksum, with an error that
/// names it.
fn validate_files(files: &[Recorded]) -> Result<(), CheckpointError> {
    let mut block = [0u8; VALIDATE_READ_BYTES];
    for (path, bytes, recorded) in files {
        let fail = CheckpointError::ShardData;
        let unreadable = |e: std::io::Error| fail(format!("read {}: {e}", path.display()));
        let mut file = File::open(path).map_err(unreadable)?;
        let (mut found, mut sum) = (0u64, Checksum::default());
        loop {
            match file.read(&mut block) {
                Ok(0) => break,
                Ok(n) => {
                    found += n as u64;
                    sum.update(&block[..n]);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(unreadable(e)),
            }
        }
        let (path, sum) = (path.display(), sum.finish());
        if found != *bytes {
            return Err(fail(format!(
                "{path} is {found} bytes, manifest says {bytes}"
            )));
        }
        if sum != *recorded {
            return Err(fail(format!(
                "{path} hashes to {sum:016x}, manifest says {recorded:016x}"
            )));
        }
    }
    Ok(())
}

/// One shard data file as assembly reads it: straight through, a line
/// at a time, each into the output block.
struct ShardReader {
    path: PathBuf,
    reader: BufReader<File>,
    /// Lines copied so far.
    lines: u64,
    /// Lines its pairs' slots add up to.
    expected: u64,
}

/// The shards `manifest` does not hold complete, lowest index first.
fn pending_shards(manifest: &Manifest) -> Vec<u32> {
    (0..manifest.states.len() as u32)
        .filter(|&i| !manifest.states[i as usize].is_complete())
        .collect()
}

/// A stopwatch read as consecutive laps.
struct Laps {
    watch: Stopwatch,
    mark: f64,
}

impl Laps {
    fn start() -> Laps {
        Laps {
            watch: Stopwatch::start(),
            mark: 0.0,
        }
    }

    /// Seconds since the previous lap ended (or the start).
    fn lap(&mut self) -> f64 {
        let since = self.mark;
        self.mark = self.watch.elapsed_secs();
        self.mark - since
    }
}

/// One shard as the generate half hands it to the persist half.
struct GeneratedShard {
    /// Its pairs' records, as [`Campaign::generate_over`] lays them out.
    records: Vec<ProbeRecord>,
    cells: ShardCells,
    /// The generate stages (`generate_s`, `fold_s`).
    stages: StageLedger,
}

/// One shard as the persist half hands it to the commit: both files are
/// under their real names, the manifest does not know yet.
struct PersistedShard {
    checkpoint: ShardCheckpoint,
    /// The generate stages and, added to them, the persist stages.
    stages: StageLedger,
}

/// What the calling thread owns for the length of a run: no lock, the
/// workers never see it.
struct RunState {
    manifest: Manifest,
    run: ShardRunMetrics,
    stages: StageLedger,
    /// Started when progress lines are on.
    progress: Option<Stopwatch>,
}

/// How one [`hand_off`] went: as the [`StageLedger`] fields of the same
/// names.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HandOff {
    pub lanes: usize,
    pub execute_wall_s: f64,
    pub wait_s: f64,
}

/// The one claim loop: the execute phase over shards,
/// [`ShardedRunner::load_or_init`]'s validation over complete shards, and
/// [`Campaign::generate_over`] over pairs. Identical lanes, one per thread. Up
/// to `workers` threads are spawned beside the calling thread
/// (`edns-lane-0`, …; none for fewer than two items, and a worker the OS
/// will not start is simply absent). Every lane claims the next of
/// `pending`'s items off one atomic cursor, `generate`s it and `persist`s
/// it, then claims the next. The calling thread also `commit`s: it keeps
/// the persisted items in a reorder buffer and commits the longest prefix
/// of `pending` that has landed, so commits follow `pending`'s order
/// whatever the worker count.
/// A lane holds one generated item at most, and only persisted ones wait.
///
/// A failed `persist` stops every lane from claiming more. The calling
/// thread still lands and commits every item before it, commits nothing
/// after it, and returns the error of the lowest failing item — what a
/// lone calling thread would have. A failed `commit` ends the run at once.
/// All workers are joined before this returns; what they persist after
/// the end is never committed.
///
/// Public for `tests/handoff_stress.rs`, which drives it with fakes.
#[doc(hidden)]
pub fn hand_off<T, P: Send, E: Send>(
    pending: &[u32],
    workers: usize,
    generate: impl Fn(u32) -> T + Sync,
    persist: impl Fn(T) -> Result<P, E> + Sync,
    mut commit: impl FnMut(P) -> Result<(), E>,
) -> (Result<(), E>, HandOff) {
    let next = AtomicUsize::new(0);
    // Set when an item fails to persist or the run ends: no lane claims
    // another item. Every item before a failed one is claimed already.
    // Relaxed: it publishes no data, and a lane that misses it claims an
    // item past the failure, which is never committed.
    let stop = AtomicBool::new(false);
    // One lane's step: the next item's place in `pending`, persisted.
    let work = || {
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        let at = next.fetch_add(1, Ordering::Relaxed);
        let persisted = persist(generate(*pending.get(at)?));
        if persisted.is_err() {
            stop.store(true, Ordering::Relaxed);
        }
        Some((at, persisted))
    };
    let mut lanes = HandOff::default();
    let execute = Stopwatch::start();
    let landed = std::thread::scope(|scope| {
        let (land, landing) = channel::<(usize, Result<P, E>)>();
        let handles: Vec<_> = (0..workers.min(pending.len().saturating_sub(1)))
            .filter_map(|i| {
                let (land, work) = (land.clone(), &work);
                let worker = std::thread::Builder::new().name(format!("edns-lane-{i}"));
                let spawned = worker.spawn_scoped(scope, move || {
                    let started_at = execute.elapsed_secs();
                    while let Some(landed) = work() {
                        if land.send(landed).is_err() {
                            break;
                        }
                    }
                    (started_at, execute.elapsed_secs())
                });
                spawned.ok()
            })
            .collect();
        lanes.lanes = 1 + handles.len();
        drop(land);

        // Persisted items by their place in `pending`, each waiting for
        // every one before it.
        let mut buffer = BTreeMap::new();
        let mut committed = 0;
        let mut land_all = || loop {
            buffer.extend(landing.try_iter());
            while let Some(persisted) = buffer.remove(&committed) {
                commit(persisted?)?;
                committed += 1;
            }
            if committed == pending.len() {
                return Ok(());
            }
            if let Some((at, persisted)) = work() {
                buffer.insert(at, persisted);
                continue;
            }
            let idle = Stopwatch::start();
            let landed = landing.recv();
            lanes.wait_s += idle.elapsed_secs();
            // Every worker hung up with an item unlanded: one panicked,
            // and its join below re-raises the panic.
            let Ok((at, persisted)) = landed else {
                return Ok(());
            };
            buffer.insert(at, persisted);
        };
        let landed = land_all();
        stop.store(true, Ordering::Relaxed);
        drop(landing);
        let spans: Vec<(f64, f64)> = handles
            .into_iter()
            // detlint:allow(unwrap, propagates a worker panic; there is no partial result to salvage)
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        lanes.execute_wall_s = execute.elapsed_secs();
        for (started_at, exited_at) in spans {
            lanes.wait_s += started_at + (lanes.execute_wall_s - exited_at);
        }
        landed
    });
    (landed, lanes)
}

/// The tag opening every fingerprint's input. It was once the format
/// version; that is the header's alone now (a file of another version is
/// refused before its fingerprint is read), so a format change that
/// changes no configuration leaves every fingerprint as it was.
const FINGERPRINT_TAG: &str = "v3";

/// Every field of a probe configuration, spelled for the fingerprint. The
/// patterns are exhaustive, so a new field cannot be left out of it.
fn probe_fingerprint(probe: &ProbeConfig) -> String {
    let ProbeConfig {
        protocol,
        ping_timeout,
        doh_get,
        padding,
        retry,
    } = probe;
    let RetryPolicy {
        tries,
        attempt_timeout,
        backoff_base,
        backoff_cap,
        jitter,
    } = retry;
    format!(
        "probe={},{},{doh_get},{padding};retry={tries},{:?},{},{},{jitter};",
        protocol.label(),
        ping_timeout.as_nanos(),
        attempt_timeout.map(|t| t.as_nanos()),
        backoff_base.as_nanos(),
        backoff_cap.as_nanos(),
    )
}

/// Splits a campaign into shards and executes them resumably.
#[derive(Debug)]
pub struct ShardedRunner<'a> {
    campaign: &'a Campaign,
    /// Every (vantage, resolver) pair in schedule order, ranked once here
    /// rather than on each use.
    plans: Vec<PairPlan>,
    /// Every vantage's slots ([`Campaign::slot_table`]): what
    /// [`CampaignOrder`] walks to write the shard files and to assemble.
    slots: Vec<Vec<Slot>>,
    shards: u32,
    dir: PathBuf,
    /// Operator-facing wall-clock progress lines on stderr.
    progress: bool,
}

impl<'a> ShardedRunner<'a> {
    /// A runner over `campaign` with `shards` shards, checkpointing into
    /// `dir` (created if absent).
    ///
    /// Rejects a shard count of zero and campaigns with duplicate
    /// (vantage, resolver) pairs — a duplicated pair's cells would install
    /// twice under one (vantage, resolver) label pair.
    pub fn new(
        campaign: &'a Campaign,
        shards: u32,
        dir: impl Into<PathBuf>,
    ) -> Result<ShardedRunner<'a>, CheckpointError> {
        if shards == 0 {
            return Err(CheckpointError::ShardData(
                "shard count must be at least 1".to_string(),
            ));
        }
        let plans = campaign.pair_plans();
        let mut seen: BTreeSet<(Label, Label)> = BTreeSet::new();
        for p in &plans {
            if !seen.insert((p.vantage_label, p.resolver_label)) {
                return Err(CheckpointError::ShardData(format!(
                    "duplicate (vantage, resolver) pair ({}, {})",
                    p.vantage_label.as_str(),
                    p.resolver_label.as_str()
                )));
            }
        }
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| CheckpointError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(ShardedRunner {
            campaign,
            shards: shards.min(plans.len().max(1) as u32),
            plans,
            slots: campaign.slot_table(),
            dir,
            progress: false,
        })
    }

    /// Enables operator-facing progress lines on stderr (builder-style).
    /// Timing comes from the audited [`obs::clock::Stopwatch`]; nothing
    /// wall-clock flows into any deterministic output.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// The effective shard count (clamped to the pair count).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The manifest path.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    /// The data-file path of shard `index`.
    pub fn shard_path(&self, index: u32) -> PathBuf {
        self.dir.join(format!("shard-{index:04}.jsonl"))
    }

    /// The cell-file path of shard `index`.
    pub fn cells_path(&self, index: u32) -> PathBuf {
        self.dir.join(format!("shard-{index:04}.cells"))
    }

    /// Pair range of shard `index`: contiguous and balanced (sizes differ
    /// by at most one).
    pub fn shard_range(&self, index: u32) -> Range<usize> {
        let pairs = self.plans.len();
        let k = self.shards as usize;
        let i = index as usize;
        (i * pairs / k)..((i + 1) * pairs / k)
    }

    /// The fingerprint binding checkpoints to this campaign configuration:
    /// seed, shard count, schedule, domains, probe configuration, fault
    /// plan, load and session models, and the exact pair list.
    pub fn fingerprint(&self) -> u64 {
        let config = self.campaign.config();
        let mut s = String::new();
        let _ = write!(
            s,
            "{FINGERPRINT_TAG};seed={:x};shards={};",
            config.seed, self.shards
        );
        for d in &config.domains {
            let _ = write!(s, "domain={d};");
        }
        for span in &config.spans {
            let _ = write!(
                s,
                "span={},{},{},[{}];",
                span.start_day,
                span.days,
                span.rounds_per_day,
                span.vantages.join(",")
            );
        }
        // A live load model changes every record, so it is part of the
        // fingerprint — a checkpoint can never silently resume across a
        // load change. A zero model is byte-transparent and hashes like
        // its absence.
        if let Some(load) = config.load.as_ref().filter(|m| !m.is_zero()) {
            let _ = write!(
                s,
                "load={:x},{},{},{},{},{},{};",
                load.seed,
                load.multiplier,
                load.mainstream_share,
                load.niche_share,
                load.spill_utilization,
                load.day_jitter,
                load.regions.len()
            );
            for r in &load.regions {
                let _ = write!(
                    s,
                    "region={:?},{},{},{},{};",
                    r.region, r.clients, r.queries_per_client_day, r.diurnal_amplitude, r.peak_hour
                );
            }
        }
        // A live session model changes connection modes (and with them the
        // timing of most records), so it fingerprints too. Cold-only is
        // byte-transparent and hashes like its absence, exactly mirroring
        // the campaign-layer gate.
        if let Some(session) = config.session.as_ref().filter(|s| s.is_live()) {
            let _ = write!(s, "session={},{};", session.reuse, session.cold_fraction);
        }
        // So do the probe configuration and the fault plan. The default
        // probe configuration and a plan without events hash like their
        // absence, as above (and as the golden manifest was written).
        let probe = probe_fingerprint(&config.probe);
        if probe != probe_fingerprint(&ProbeConfig::default()) {
            s.push_str(&probe);
        }
        if !config.faults.is_empty() {
            let _ = write!(s, "faults={:x};", config.faults.seed);
            for e in &config.faults.events {
                let (from, until) = (e.from.as_nanos(), e.until.as_nanos());
                let _ = write!(s, "fault={:?},{:?},{from},{until};", e.kind, e.scope);
            }
        }
        for p in &self.plans {
            let _ = write!(
                s,
                "pair={}/{};",
                p.vantage_label.as_str(),
                p.resolver_label.as_str()
            );
        }
        fnv64(s.as_bytes())
    }

    /// Loads the manifest if one exists and belongs to this configuration,
    /// re-validating every complete shard's data file and cell file;
    /// otherwise starts a fresh one. A manifest for a different
    /// configuration, a corrupt manifest, or a complete shard with a file
    /// that is missing or fails its checksum is a typed error — never a
    /// silent restart. The complete shards go through [`hand_off`] with
    /// one worker; each reads its data file, then its cell file, straight
    /// through one 64 KiB block on its lane's stack ([`validate_files`]).
    /// Of several damaged shards the error names the lowest, its data file
    /// first.
    pub fn load_or_init(&self) -> Result<Manifest, CheckpointError> {
        let path = self.manifest_path();
        if !path.exists() {
            return Ok(Manifest::new(
                self.fingerprint(),
                self.campaign.config().seed,
                self.shards,
                self.plans.len() as u32,
            ));
        }
        let manifest = Manifest::load(&path)?;
        let expected = self.fingerprint();
        if manifest.fingerprint != expected {
            return Err(CheckpointError::ConfigMismatch(format!(
                "manifest fingerprint {:016x}, this campaign is {expected:016x}",
                manifest.fingerprint
            )));
        }
        if manifest.states.len() != self.shards as usize {
            return Err(CheckpointError::ConfigMismatch(format!(
                "manifest has {} shards, this run wants {}",
                manifest.states.len(),
                self.shards
            )));
        }
        let complete: Vec<&ShardCheckpoint> = (manifest.states.iter())
            .filter_map(|state| match state {
                ShardState::Complete(c) => Some(c),
                ShardState::Pending => None,
            })
            .collect();
        let items: Vec<u32> = (0..complete.len() as u32).collect();
        let (validated, _) = hand_off(
            &items,
            1,
            |item| complete[item as usize],
            |c| {
                let data = (self.shard_path(c.shard), c.bytes, c.checksum);
                let cells = (self.cells_path(c.shard), c.cell_bytes, c.cell_checksum);
                validate_files(&[data, cells])
            },
            |()| Ok(()),
        );
        validated.map(|()| manifest)
    }

    /// The generate half of a shard: runs its pairs and folds their cells.
    /// Touches no file.
    fn generate_shard(&self, index: u32) -> GeneratedShard {
        let mut laps = Laps::start();
        let mut stages = StageLedger::default();

        let range = self.shard_range(index);
        let plans = &self.plans[range.clone()];
        let mut records = Vec::new();
        (self.campaign).generate_over(plans, &self.slots, 0, true, &mut records);
        stages.generate_s = laps.lap();

        // Each pair's cells, folded in its own canonical order (the
        // campaign order never reorders records within a pair) — so they
        // are what the one-shot engine folds over the whole stream,
        // whatever the shard count and resume schedule. The day cells span
        // the pair's vantage's days, one pair at a time in one scratch;
        // the file keeps those that saw a probe.
        let mut scratch = Vec::new();
        let pairs = campaign::pair_ranges(plans, &self.slots).map(|r| &records[r]);
        let pairs = (range.start as u32..).zip(plans).zip(pairs);
        let fold =
            |((pair, plan), records)| fold_pair(self.campaign, pair, plan, records, &mut scratch);
        let cells = ShardCells {
            shard: index,
            pairs: pairs.map(fold).collect(),
        };
        stages.fold_s = laps.lap();
        GeneratedShard {
            records,
            cells,
            stages,
        }
    }

    /// The persist half of a shard: puts its records into
    /// [`CampaignOrder`] over its pairs in place, writes them as its data
    /// file, then its cell file (each tmp + rename), timing itself. The
    /// shard is not complete until [`commit_shard`](Self::commit_shard)
    /// puts the checkpoint in the manifest; a kill before that leaves files
    /// the re-run simply overwrites.
    fn persist_shard(&self, shard: GeneratedShard) -> Result<PersistedShard, CheckpointError> {
        let mut laps = Laps::start();
        let GeneratedShard {
            mut records,
            cells,
            mut stages,
        } = shard;
        let index = cells.shard;
        let plans = &self.plans[self.shard_range(index)];
        campaign::assemble_in_place(plans, &self.slots, &mut records);

        // Each block is summed before it is written, while it is still in
        // cache. Time inside `write_all` is the data write; the rest is
        // ordering and serialisation.
        let path = self.shard_path(index);
        let mut sum = Checksum::default();
        let mut bytes = 0u64;
        let mut write_s = 0.0;
        let watch = &laps.watch;
        write_atomic(&path, |file| {
            campaign::write_json_blocks(&records, |block| {
                sum.update(block);
                let started = watch.elapsed_secs();
                let written = file.write_all(block).map_err(io_err("write", &path));
                bytes += block.len() as u64;
                write_s += watch.elapsed_secs() - started;
                written
            })
        })?;
        stages.data_write_s = write_s;
        stages.serialise_s = laps.lap() - write_s;

        let encoded_cells = cells.encode();
        write_atomic_bytes(&self.cells_path(index), encoded_cells.as_bytes())?;
        stages.cell_write_s = laps.lap();

        Ok(PersistedShard {
            checkpoint: ShardCheckpoint {
                shard: index,
                records: records.len() as u64,
                bytes,
                checksum: sum.finish(),
                cell_bytes: encoded_cells.len() as u64,
                cell_checksum: checksum(encoded_cells.as_bytes()),
            },
            stages,
        })
    }

    /// Commits one persisted shard: marks it complete and rewrites the
    /// manifest atomically (this is the resume boundary). The one way a
    /// shard becomes complete, whether [`run`](Self::run) or
    /// [`advance`](Self::advance) executed it.
    fn commit_shard(
        &self,
        state: &mut RunState,
        shard: PersistedShard,
    ) -> Result<(), CheckpointError> {
        let commit = Stopwatch::start();
        let RunState {
            manifest,
            run,
            stages,
            progress,
        } = state;
        let PersistedShard {
            checkpoint,
            stages: shard_stages,
        } = shard;
        stages.generate_s += shard_stages.generate_s;
        stages.fold_s += shard_stages.fold_s;
        stages.serialise_s += shard_stages.serialise_s;
        stages.data_write_s += shard_stages.data_write_s;
        stages.cell_write_s += shard_stages.cell_write_s;
        run.shards_executed.add(1);
        run.pairs_run
            .add(self.shard_range(checkpoint.shard).len() as u64);
        run.records_produced.add(checkpoint.records);
        run.cell_bytes.add(checkpoint.cell_bytes);
        let index = checkpoint.shard as usize;
        let records = checkpoint.records;
        manifest.states[index] = ShardState::Complete(checkpoint);
        let encoded = manifest.encode();
        write_atomic_bytes(&self.manifest_path(), encoded.as_bytes())?;
        run.manifest_writes.add(1);
        run.checkpoint_bytes.add(encoded.len() as u64);
        stages.commit_s += commit.elapsed_secs();
        // Operator feedback only — stderr, audited wall clock, and nothing
        // here flows into any deterministic output.
        if let Some(w) = progress {
            eprintln!(
                "[{:7.1}s] shard {index}/{} complete: {records} records ({} of {} shards done)",
                w.elapsed_secs(),
                self.shards,
                manifest.complete_count(),
                self.shards,
            );
        }
        Ok(())
    }

    /// Runs the whole campaign, resuming from any existing checkpoints,
    /// and assembles the final output.
    ///
    /// `threads` is the number of workers spawned beside the calling
    /// thread, which always works too: `run(0)` is the calling thread
    /// alone, `run(n - 1)` keeps n cores busy. Every thread claims pending
    /// shards, generates and persists them ([`hand_off`]); the calling
    /// thread commits them in index order at every thread count. One shard
    /// of records per thread is in flight at most, so memory stays
    /// O(shard); assembly then holds what [`assemble`](Self::assemble)
    /// lists, which grows with shards, pairs and days but not with records.
    /// No worker is spawned for fewer than two pending shards.
    /// Whatever `threads` is, validation before the execute phase
    /// ([`load_or_init`](Self::load_or_init), one [`hand_off`] worker) and
    /// assembly after it (its cell lane) each run one thread of their own
    /// beside the calling thread.
    pub fn run(&self, threads: usize) -> Result<ShardedOutcome, CheckpointError> {
        let mut run = ShardRunMetrics::new();
        run.shards_planned.add(self.shards as u64);
        let validate = Stopwatch::start();
        let manifest = self.load_or_init()?;
        let stages = StageLedger {
            validate_s: validate.elapsed_secs(),
            ..StageLedger::default()
        };
        let pending = pending_shards(&manifest);
        run.shards_resumed
            .add((self.shards as usize - pending.len()) as u64);
        // Fold resumed shards' work into the campaign-wide counters, so a
        // kill+resume reports the same pair/record totals as a one-shot run.
        for (i, state) in manifest.states.iter().enumerate() {
            if let ShardState::Complete(c) = state {
                run.pairs_run.add(self.shard_range(i as u32).len() as u64);
                run.records_produced.add(c.records);
            }
        }

        let mut state = RunState {
            manifest,
            run,
            stages,
            progress: self.progress.then(Stopwatch::start),
        };
        let lanes = self.execute(&mut state, &pending, threads)?;
        state.stages.lanes = lanes.lanes;
        state.stages.execute_wall_s = lanes.execute_wall_s;
        state.stages.wait_s = lanes.wait_s;
        self.assemble(&state.manifest, state.run, state.stages)
    }

    /// Executes up to `max_shards` pending shards on the calling thread
    /// alone (lowest index first), committing after each — the kill/resume
    /// simulation hook. Returns the number of shards still pending
    /// afterwards.
    pub fn advance(&self, max_shards: usize) -> Result<usize, CheckpointError> {
        let mut state = RunState {
            manifest: self.load_or_init()?,
            run: ShardRunMetrics::new(),
            stages: StageLedger::default(),
            progress: None,
        };
        let pending = pending_shards(&state.manifest);
        let now = &pending[..max_shards.min(pending.len())];
        self.execute(&mut state, now, 0)?;
        Ok(pending.len() - now.len())
    }

    /// The execute phase over `pending`, `workers` beside the calling
    /// thread: [`run`](Self::run)'s and [`advance`](Self::advance)'s path.
    fn execute(
        &self,
        state: &mut RunState,
        pending: &[u32],
        workers: usize,
    ) -> Result<HandOff, CheckpointError> {
        let (landed, lanes) = hand_off(
            pending,
            workers,
            |index| self.generate_shard(index),
            |shard| self.persist_shard(shard),
            |shard| self.commit_shard(state, shard),
        );
        landed.map(|()| lanes)
    }

    /// The cell half of assembly: installs the checkpointed cells, one
    /// cell file at a time in shard order. A cell file must list exactly
    /// its shard's pairs, in pair-index order, and each pair's cells must
    /// pass [`CampaignFolds::install`]'s checks. A file that breaks any of
    /// this, or does not decode, is `ShardData` naming the file.
    fn install_cells(&self) -> Result<CampaignFolds, CheckpointError> {
        let mut folds = CampaignFolds::for_campaign(self.campaign);
        for i in 0..self.shards {
            let path = self.cells_path(i);
            let text = std::fs::read_to_string(&path).map_err(io_err("read", &path))?;
            let invalid =
                |what: String| CheckpointError::ShardData(format!("{}: {what}", path.display()));
            let cells = ShardCells::decode(&text).map_err(|e| invalid(e.to_string()))?;
            let pairs = cells.pairs.iter().map(|p| p.aggregate.pair as usize);
            if cells.shard != i || !pairs.eq(self.shard_range(i)) {
                return Err(invalid(format!(
                    "holds shard {}'s cells, not shard {i}'s pairs {:?}",
                    cells.shard,
                    self.shard_range(i)
                )));
            }
            for p in cells.pairs {
                folds.install(p).map_err(invalid)?;
            }
        }
        Ok(folds)
    }

    /// The fault plan's windows, as journal events.
    fn fault_windows(&self) -> impl Iterator<Item = JournalEvent> + '_ {
        self.campaign.config().faults.events.iter().map(|f| {
            let from = f.from.as_nanos();
            let mut data = EventData::default()
                .with_value((f.until.as_nanos().saturating_sub(from)) as f64 / 1e6);
            match &f.scope {
                FaultScope::Resolver(host) => data.resolver = Some(Label::intern(host)),
                FaultScope::Vantage(v) => data.vantage = Some(Label::intern(v)),
                _ => {}
            }
            JournalEvent {
                at: from,
                level: EventLevel::Info,
                code: codes::FAULT_WINDOW,
                data,
            }
        })
    }

    /// Copies the completed shard files' lines into the final campaign
    /// JSONL in schedule order, while a second thread
    /// [installs the checkpointed cells](Self::install_cells) — the same
    /// way whether this process executed the shard or resumed it. No
    /// record is parsed: [`CampaignOrder`] over every pair names the pair
    /// whose probe comes next, and the next line of that pair's shard file
    /// is copied once it closes like that probe's record
    /// ([`ProbeRecord::line_closes_at`]). A line that does not, a file
    /// that ends early and a file with lines to spare are `ShardData`
    /// errors naming the file. The campaign file takes its name only once
    /// both halves have succeeded; when both fail, the line copy's error
    /// is the one returned. Memory: an 8 KiB read buffer per shard (about
    /// what one step of the order takes from it), the order's cursor per
    /// pair, each vantage's slots, the 256 KiB write block, one shard's cell
    /// file and cells, the O(pairs) aggregate and metrics cells (the
    /// metrics snapshot is those cells, keyed in place by
    /// [`CampaignFolds::into_parts`]), and the O(resolvers × days) health
    /// rows each pair's day cells merge into as it is installed. Drift is
    /// detected over those rows in place ([`HealthSeries::detect_drift`]),
    /// so they are held once.
    fn assemble(
        &self,
        manifest: &Manifest,
        mut run: ShardRunMetrics,
        mut stages: StageLedger,
    ) -> Result<ShardedOutcome, CheckpointError> {
        if !manifest.is_complete() {
            return Err(CheckpointError::ShardData(
                "cannot assemble: shards still pending".to_string(),
            ));
        }
        let watch = Stopwatch::start();
        let jsonl_path = self.dir.join(CAMPAIGN_FILE);
        let (records, extents, folds) = std::thread::scope(|scope| {
            // The cell lane: nothing in the line copy reads what it builds.
            let cell_lane = std::thread::Builder::new()
                .name("edns-cells".to_string())
                .spawn_scoped(scope, || {
                    let lane = Stopwatch::start();
                    let folds = self.install_cells();
                    (folds, lane.elapsed_secs())
                })
                .map_err(|e| CheckpointError::Io(format!("spawn edns-cells: {e}")))?;

            // Per shard: its reader, the lines its pairs' slots add up to
            // and its simulated extent; per pair, its shard and vantage.
            let vantages = self.campaign.config().vantages();
            let tails: Vec<Vec<u8>> = vantages
                .iter()
                .map(|v| ProbeRecord::line_tail(v.label))
                .collect();
            let slots_of = |pair: usize| self.plans[pair].row(&self.slots);
            let mut readers = Vec::with_capacity(self.shards as usize);
            let mut extents = Vec::with_capacity(self.shards as usize);
            let mut of_pair = Vec::with_capacity(self.plans.len());
            for (i, state) in manifest.states.iter().enumerate() {
                let range = self.shard_range(i as u32);
                let slots = || range.clone().map(slots_of).filter(|s| !s.is_empty());
                let first = slots().map(|s| s[0].at).min().unwrap_or(0);
                let last = slots().map(|s| s[s.len() - 1].at).max().unwrap_or(0);
                let expected: u64 = slots().map(|s| s.len() as u64).sum();
                let path = self.shard_path(i as u32);
                if let ShardState::Complete(c) = state {
                    if c.records != expected {
                        return Err(CheckpointError::ShardData(format!(
                            "{}: the manifest records {} lines, its pairs' slots add up to {expected}",
                            path.display(),
                            c.records
                        )));
                    }
                }
                let file = File::open(&path).map_err(io_err("open", &path))?;
                readers.push(ShardReader {
                    reader: BufReader::with_capacity(SHARD_READ_BYTES, file),
                    path,
                    lines: 0,
                    expected,
                });
                extents.push((first, last));
                let plans = &self.plans[range];
                of_pair.extend(plans.iter().map(|p| (i, p.vantage_index as usize)));
            }

            let (records, folds) = write_atomic(&jsonl_path, |file| {
                let mut out: Vec<u8> = Vec::with_capacity(campaign::JSONL_BLOCK_BYTES + 4096);
                let mut flush = |out: &mut Vec<u8>| {
                    let started = watch.elapsed_secs();
                    let written = file.write_all(out).map_err(io_err("write", &jsonl_path));
                    out.clear();
                    stages.assemble_write_s += watch.elapsed_secs() - started;
                    written
                };
                let mut ts = String::new();
                for (pair, Slot { at, .. }) in CampaignOrder::new(&self.plans, &self.slots) {
                    let (shard, vantage) = of_pair[pair];
                    let shard = &mut readers[shard];
                    let start = out.len();
                    let read = shard
                        .reader
                        .read_until(b'\n', &mut out)
                        .map_err(io_err("read", &shard.path))?;
                    if read == 0 {
                        return Err(CheckpointError::ShardData(format!(
                            "{}: ends after {} lines, its pairs' slots add up to {}",
                            shard.path.display(),
                            shard.lines,
                            shard.expected
                        )));
                    }
                    shard.lines += 1;
                    if !ProbeRecord::line_closes_at(&out[start..], &tails[vantage], at, &mut ts) {
                        return Err(CheckpointError::ShardData(format!(
                            "{}: line {} is not the engine-written record of its slot, \
                             {} at {at} ns",
                            shard.path.display(),
                            shard.lines,
                            vantages[vantage].label
                        )));
                    }
                    if out.len() >= campaign::JSONL_BLOCK_BYTES {
                        flush(&mut out)?;
                    }
                }
                flush(&mut out)?;
                for shard in &mut readers {
                    let rest = shard
                        .reader
                        .fill_buf()
                        .map_err(io_err("read", &shard.path))?;
                    if !rest.is_empty() {
                        return Err(CheckpointError::ShardData(format!(
                            "{}: holds more than the {} lines its pairs' slots add up to",
                            shard.path.display(),
                            shard.expected
                        )));
                    }
                }
                // The two lanes meet before the rename: a cell file that
                // fails its content checks leaves no campaign file behind.
                // detlint:allow(unwrap, propagates the cell lane's panic like a worker's; there is no partial result to salvage)
                let (folds, cells_s) = cell_lane.join().expect("cell lane panicked");
                stages.assemble_cells_s = cells_s;
                let records = readers.iter().map(|r| r.lines).sum::<u64>();
                folds.map(|folds| (records, folds))
            })?;
            Ok::<_, CheckpointError>((records, extents, folds))
        })?;
        run.records_merged.add(records);

        stages.assemble_read_s = watch.elapsed_secs() - stages.assemble_write_s;
        let drift = folds.health().detect_drift(&DriftConfig::default());
        let mut events: Vec<JournalEvent> = folds
            .exhausted
            .iter()
            .map(|e| {
                let plan = &self.plans[e.pair as usize];
                JournalEvent {
                    at: e.at,
                    level: EventLevel::Warn,
                    code: codes::RETRY_EXHAUSTED,
                    data: EventData {
                        resolver: Some(plan.resolver_label),
                        vantage: Some(plan.vantage_label),
                        count: Some(e.attempts as u64),
                        ..EventData::default()
                    },
                }
            })
            .collect();
        let (metrics, aggregates, health) = folds.into_parts();

        // Shard spans, recorded in shard-index order so the log is
        // independent of execution interleaving.
        let mut spans = SpanLog::with_capacity((self.shards as usize * 2).max(16));
        for (i, &(first, last)) in extents.iter().enumerate() {
            obs::sharding::record_shard_span(&mut spans, i as u32, first, last);
        }

        // Shard lifecycle + checkpoint traffic, from the shards' simulated
        // extents and the manifest.
        for (i, &(first, last)) in extents.iter().enumerate() {
            if let ShardState::Complete(ckpt) = &manifest.states[i] {
                let shard = i as u32;
                events.push(JournalEvent {
                    at: first,
                    level: EventLevel::Info,
                    code: codes::SHARD_START,
                    data: EventData::shard(shard),
                });
                events.push(JournalEvent {
                    at: last,
                    level: EventLevel::Info,
                    code: codes::SHARD_FINISH,
                    data: EventData::shard(shard).with_count(ckpt.records),
                });
                events.push(JournalEvent {
                    at: last,
                    level: EventLevel::Debug,
                    code: codes::CHECKPOINT_STORE,
                    data: EventData::shard(shard).with_count(ckpt.bytes),
                });
            }
        }
        events.extend(self.fault_windows());
        // Drift findings, stamped at the end of the flagged day.
        for d in &drift {
            events.push(JournalEvent {
                at: (d.day as u64 + 1) * NANOS_PER_DAY,
                level: EventLevel::Warn,
                code: d.kind.code(),
                data: EventData {
                    resolver: Some(d.resolver),
                    day: Some(d.day),
                    value: Some(d.value),
                    ..EventData::default()
                },
            });
        }

        Ok(ShardedOutcome {
            jsonl_path,
            records,
            metrics,
            aggregates,
            run,
            spans,
            health,
            drift,
            journal: Journal::from_events(events),
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the streaming validator must agree with: the whole file read
    /// at once, its length and its checksum.
    fn whole_file_accepts((path, bytes, recorded): &Recorded) -> bool {
        std::fs::read(path)
            .is_ok_and(|found| found.len() as u64 == *bytes && checksum(&found) == *recorded)
    }

    #[test]
    fn streaming_validation_accepts_exactly_what_a_whole_file_read_accepts() {
        let dir = std::env::temp_dir().join(format!("edns-validate-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Validates `files` and holds the verdict to the whole-file reads':
        // the first file they reject is the one the error names. The
        // error's message, if any.
        let check = |files: &[Recorded]| {
            let whole = files.iter().position(|f| !whole_file_accepts(f));
            match (validate_files(files), whole) {
                (Ok(()), None) => None,
                (Err(CheckpointError::ShardData(m)), Some(at))
                    if m.contains(&*files[at].0.to_string_lossy()) =>
                {
                    Some(m)
                }
                (streamed, _) => panic!("{streamed:?}, the whole-file reads reject {whole:?}"),
            }
        };
        // One file of each size either side of the block and of several
        // blocks, in one list.
        let b = VALIDATE_READ_BYTES;
        let files: Vec<Recorded> = [0, 1, b - 1, b, b + 1, 3 * b + 7]
            .into_iter()
            .enumerate()
            .map(|(k, size)| {
                let intact: Vec<u8> = (0..size).map(|i| ((i + 7 * k) * 31 % 251) as u8).collect();
                let path = dir.join(format!("file-{k}"));
                std::fs::write(&path, &intact).unwrap();
                (path, size as u64, checksum(&intact))
            })
            .collect();
        assert_eq!(check(&files), None);
        let last = &files[files.len() - 1].0;
        let last_intact = std::fs::read(last).unwrap();
        for (path, ..) in &files {
            // The file flipped in its first, a middle and its last block,
            // cut short by a byte, and missing.
            let intact = std::fs::read(path).unwrap();
            let n = intact.len();
            let flipped = [0, n / 2, n.saturating_sub(1)]
                .into_iter()
                .filter(|&at| at < n);
            let mut damaged: Vec<(Option<Vec<u8>>, &str)> = flipped
                .map(|at| {
                    let mut flipped = intact.clone();
                    flipped[at] ^= 0x40;
                    (Some(flipped), "hashes to")
                })
                .collect();
            if n > 0 {
                damaged.push((Some(intact[..n - 1].to_vec()), " bytes, manifest says"));
            }
            damaged.push((None, "read "));
            for (content, what) in damaged {
                match content {
                    Some(content) => std::fs::write(path, content).unwrap(),
                    None => std::fs::remove_file(path).unwrap(),
                }
                assert!(check(&files).unwrap().contains(what), "{what}");
                // And the last file missing too: the lower index is named.
                if path != last {
                    std::fs::remove_file(last).unwrap();
                    check(&files);
                    std::fs::write(last, &last_intact).unwrap();
                }
            }
            std::fs::write(path, &intact).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
