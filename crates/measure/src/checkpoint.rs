//! Versioned, checksummed campaign checkpoints.
//!
//! A sharded campaign persists its progress as a *manifest*: one file
//! recording, per shard, whether the shard is still pending or complete —
//! and for complete shards, the record count of the shard, and the byte
//! count and checksum of its two write-once files: the JSONL data file and
//! the *cell file* ([`ShardCells`]) holding everything the shard's pairs
//! fold to — per pair an aggregate cell, a metrics cell and its retry
//! exhaustions, per (pair, day) a health cell. The manifest is O(shards)
//! however long the campaign runs; a commit rewrites a few KB. A killed
//! campaign resumes by loading the manifest, re-validating every complete
//! shard's two files against the recorded checksums, and running only
//! what is left.
//!
//! Manifest and cell file share one framing, a header line followed by a
//! JSON body:
//!
//! ```text
//! edns-checkpoint v4 <16-hex fnv64 of body>
//! {"entries":[...],"fingerprint":"...","pairs":21,"seed":"2a","shards":4}
//! ```
//!
//! ```text
//! edns-checkpoint v4 <16-hex fnv64 of body>
//! {"cells":[...],"exhausted":[...],"health":[...],"metrics":[...],"shard":2}
//! ```
//!
//! The header carries the format version and a checksum of the body, so a
//! truncated write, a corrupt byte, or a file from a different format
//! version is detected and rejected with a typed [`CheckpointError`] — the
//! engine then re-runs from scratch rather than silently resuming from bad
//! state. The `fingerprint` binds the manifest to one campaign
//! configuration (seed, pair list, schedule); resuming with a different
//! configuration is a [`CheckpointError::ConfigMismatch`].
//!
//! Every float in a body is written with the workspace's
//! shortest-round-trip formatter ([`crate::json::write_float`]), which
//! re-parses bit-exactly — a decode of an encode reproduces the aggregate
//! cells down to the last bit, which the resume-determinism tests rely on.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use edns_stats::{Availability, LatencySketch, RunningMoments};
use obs::{CellMetrics, Counter, Gauge, Histogram, Label, Phase};

use crate::aggregate::{AggregateCell, PairAggregate};
use crate::errors::ProbeErrorKind;
use crate::health::HealthCell;
use crate::json::Json;

/// The checkpoint format version this build reads and writes.
///
/// v4 cell files carry each pair's metrics cell and retry exhaustions, so
/// assembly reads no record. Earlier versions are rejected: the engine
/// re-runs from scratch rather than resuming from cells it no longer
/// reads or cell files that lack what it needs.
pub const CHECKPOINT_VERSION: u32 = 4;

/// The magic token opening every checkpoint header line.
pub const CHECKPOINT_MAGIC: &str = "edns-checkpoint";

/// The FNV-1a offset basis: the checksum of no bytes, and the state
/// [`fnv64_extend`] starts from.
pub(crate) const FNV64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a — the workspace's dependency-free content checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV64_INIT, bytes)
}

/// Continues an FNV-1a checksum `h` over `bytes`, so a writer can sum
/// what it produces piece by piece: extending over the pieces in order
/// equals [`fnv64`] over their concatenation.
pub(crate) fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `map_err` adapter for the filesystem calls of the checkpoint and shard
/// layers: names the operation and the path in a [`CheckpointError::Io`].
pub(crate) fn io_err<'a>(
    op: &'a str,
    path: &'a Path,
) -> impl Fn(std::io::Error) -> CheckpointError + 'a {
    move |e| CheckpointError::Io(format!("{op} {}: {e}", path.display()))
}

/// Writes `path` atomically: `fill` writes the content to a `<name>.tmp`
/// sibling, which is then renamed over `path` — so a crash never leaves a
/// half-written file under the real name, and a leftover `.tmp` is never
/// read. The one write protocol of shard data files, cell files, the
/// manifest and the assembled campaign.
pub(crate) fn write_atomic<T>(
    path: &Path,
    fill: impl FnOnce(&mut File) -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp).map_err(io_err("create", &tmp))?;
    let filled = fill(&mut file)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io_err("rename to", path))?;
    Ok(filled)
}

/// [`write_atomic`] with `bytes` as the whole content.
pub(crate) fn write_atomic_bytes(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    write_atomic(path, |file| {
        file.write_all(bytes).map_err(io_err("write", path))
    })
}

/// Why a checkpoint could not be loaded or trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (message includes the path and OS error).
    Io(String),
    /// The file does not start with the `edns-checkpoint` magic — not a
    /// checkpoint at all.
    BadMagic,
    /// The file is a checkpoint, but from a different format version.
    VersionMismatch {
        /// The version token found in the header (e.g. `"v2"`).
        found: String,
    },
    /// The body does not hash to the checksum recorded in the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the body as found on disk.
        actual: u64,
    },
    /// The file ends before the body (or the body is empty) — a torn
    /// write.
    Truncated,
    /// The body is not valid JSON, or is missing required fields.
    Parse(String),
    /// The manifest belongs to a different campaign configuration.
    ConfigMismatch(String),
    /// A shard's recorded data is internally inconsistent, or its data
    /// file fails re-validation.
    ShardData(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint version {found} is not supported (this build reads v{CHECKPOINT_VERSION})"
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:016x}, body hashes to {actual:016x}"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Parse(msg) => write!(f, "checkpoint body malformed: {msg}"),
            CheckpointError::ConfigMismatch(msg) => {
                write!(f, "checkpoint is for a different campaign: {msg}")
            }
            CheckpointError::ShardData(msg) => write!(f, "shard data invalid: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One completed shard's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Shard index.
    pub shard: u32,
    /// Probe records in the shard's data file.
    pub records: u64,
    /// Size of the shard's JSONL data file in bytes.
    pub bytes: u64,
    /// FNV-1a checksum of the shard's JSONL data file.
    pub checksum: u64,
    /// Size of the shard's cell file in bytes.
    pub cell_bytes: u64,
    /// FNV-1a checksum of the shard's cell file (header line included).
    pub cell_checksum: u64,
}

/// One shard's cells: the content of its write-once cell file, written
/// before the manifest commit that marks the shard complete and decoded
/// again, one file at a time, by assembly.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCells {
    /// Shard index (a cell file under another shard's name is rejected).
    pub shard: u32,
    /// The shard's per-pair aggregate cells, in pair-index order.
    pub pairs: Vec<PairAggregate>,
    /// The shard's per-pair metrics cells, one per aggregate cell and in
    /// the same order.
    pub metrics: Vec<PairMetrics>,
    /// The shard's per-(pair, day) health cells, in (pair, day) order —
    /// the flight recorder's health timeseries deltas.
    pub health: Vec<PairDayHealth>,
    /// Every probe of the shard's pairs that failed with its retry budget
    /// spent, in (pair, canonical record) order — the journal's
    /// `retry_exhausted` events.
    pub exhausted: Vec<RetryExhausted>,
}

impl ShardCells {
    /// Serialises the cells: header line plus compact JSON body.
    pub fn encode(&self) -> String {
        frame(
            &Json::object([
                ("shard", Json::Int(self.shard as i64)),
                (
                    "cells",
                    Json::Array(self.pairs.iter().map(pair_aggregate_to_json).collect()),
                ),
                (
                    "metrics",
                    Json::Array(self.metrics.iter().map(pair_metrics_to_json).collect()),
                ),
                (
                    "health",
                    Json::Array(self.health.iter().map(pair_day_health_to_json).collect()),
                ),
                (
                    "exhausted",
                    Json::Array(self.exhausted.iter().map(retry_exhausted_to_json).collect()),
                ),
            ])
            .to_string_compact(),
        )
    }

    /// Parses and validates a serialised cell file.
    pub fn decode(text: &str) -> Result<ShardCells, CheckpointError> {
        let v = unframe(text)?;
        Ok(ShardCells {
            shard: int_field(&v, "shard")? as u32,
            pairs: array_field(&v, "cells")?
                .iter()
                .map(pair_aggregate_from_json)
                .collect::<Result<_, _>>()?,
            metrics: array_field(&v, "metrics")?
                .iter()
                .map(pair_metrics_from_json)
                .collect::<Result<_, _>>()?,
            health: array_field(&v, "health")?
                .iter()
                .map(pair_day_health_from_json)
                .collect::<Result<_, _>>()?,
            exhausted: array_field(&v, "exhausted")?
                .iter()
                .map(retry_exhausted_from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// One pair's metrics cell as persisted in a cell file: what
/// [`observe_record`](crate::observe_record) folds the pair's records to,
/// installed under the pair's (resolver, vantage, protocol) key.
#[derive(Debug, Clone, PartialEq)]
pub struct PairMetrics {
    /// Pair index within the campaign plan.
    pub pair: u32,
    /// The pair's metrics cell.
    pub cell: CellMetrics,
}

/// One probe that failed with every retry attempt spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryExhausted {
    /// Pair index within the campaign plan.
    pub pair: u32,
    /// Simulated time of the probe, nanoseconds.
    pub at: u64,
    /// Attempts it made.
    pub attempts: u32,
}

/// One (pair, day) health delta as persisted in a cell file.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDayHealth {
    /// Pair index within the campaign plan.
    pub pair: u32,
    /// Campaign day index.
    pub day: u32,
    /// The day's health cell.
    pub cell: HealthCell,
}

/// A shard's state in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardState {
    /// Not yet executed (or its previous execution did not survive).
    Pending,
    /// Executed, with its durable state.
    Complete(ShardCheckpoint),
}

impl ShardState {
    /// Whether this shard is complete.
    pub fn is_complete(&self) -> bool {
        matches!(self, ShardState::Complete(_))
    }
}

/// The campaign's durable progress record.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Fingerprint of the campaign configuration this manifest belongs to.
    pub fingerprint: u64,
    /// Campaign seed (also folded into the fingerprint; kept separately
    /// for human inspection).
    pub seed: u64,
    /// Total (vantage, resolver) pairs in the campaign.
    pub pairs: u32,
    /// Per-shard states; `states.len()` is the shard count.
    pub states: Vec<ShardState>,
}

impl Manifest {
    /// A fresh manifest with every shard pending.
    pub fn new(fingerprint: u64, seed: u64, shards: u32, pairs: u32) -> Manifest {
        Manifest {
            fingerprint,
            seed,
            pairs,
            states: vec![ShardState::Pending; shards as usize],
        }
    }

    /// Number of complete shards.
    pub fn complete_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_complete()).count()
    }

    /// Whether every shard is complete.
    pub fn is_complete(&self) -> bool {
        self.states.iter().all(ShardState::is_complete)
    }

    /// Serialises the manifest: header line plus compact JSON body.
    pub fn encode(&self) -> String {
        let entries: Vec<Json> = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| match s {
                ShardState::Pending => Json::object([
                    ("shard", Json::Int(i as i64)),
                    ("state", Json::Str("pending".to_string())),
                ]),
                ShardState::Complete(c) => Json::object([
                    ("shard", Json::Int(i as i64)),
                    ("state", Json::Str("complete".to_string())),
                    ("records", Json::Int(c.records as i64)),
                    ("bytes", Json::Int(c.bytes as i64)),
                    ("checksum", Json::Str(format!("{:016x}", c.checksum))),
                    ("cell_bytes", Json::Int(c.cell_bytes as i64)),
                    (
                        "cell_checksum",
                        Json::Str(format!("{:016x}", c.cell_checksum)),
                    ),
                ]),
            })
            .collect();
        frame(
            &Json::object([
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", self.fingerprint)),
                ),
                ("seed", Json::Str(format!("{:x}", self.seed))),
                ("shards", Json::Int(self.states.len() as i64)),
                ("pairs", Json::Int(self.pairs as i64)),
                ("entries", Json::Array(entries)),
            ])
            .to_string_compact(),
        )
    }

    /// Parses and validates a serialised manifest.
    pub fn decode(text: &str) -> Result<Manifest, CheckpointError> {
        let v = unframe(text)?;

        let fingerprint = hex_field(&v, "fingerprint")?;
        let seed = hex_field(&v, "seed")?;
        let shards = int_field(&v, "shards")? as usize;
        let pairs = int_field(&v, "pairs")? as u32;
        let entries = array_field(&v, "entries")?;
        if entries.len() != shards {
            return Err(parse_err("entries length disagrees with shard count"));
        }
        let mut states = Vec::with_capacity(shards);
        for (i, e) in entries.iter().enumerate() {
            if int_field(e, "shard")? != i as u64 {
                return Err(parse_err("entries out of order"));
            }
            let state = e
                .get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| parse_err("missing shard state"))?;
            match state {
                "pending" => states.push(ShardState::Pending),
                "complete" => states.push(ShardState::Complete(ShardCheckpoint {
                    shard: i as u32,
                    records: int_field(e, "records")?,
                    bytes: int_field(e, "bytes")?,
                    checksum: hex_field(e, "checksum")?,
                    cell_bytes: int_field(e, "cell_bytes")?,
                    cell_checksum: hex_field(e, "cell_checksum")?,
                })),
                other => {
                    return Err(parse_err_owned(format!("unknown shard state {other:?}")));
                }
            }
        }
        Ok(Manifest {
            fingerprint,
            seed,
            pairs,
            states,
        })
    }

    /// Writes the manifest atomically (tmp sibling + rename), so a crash
    /// never leaves a half-written manifest under the real name.
    pub fn store(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic_bytes(path, self.encode().as_bytes())
    }

    /// Loads and validates a manifest from `path`.
    pub fn load(path: &Path) -> Result<Manifest, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(io_err("read", path))?;
        Manifest::decode(&text)
    }
}

/// Frames a JSON body: the versioned, checksummed header line, then the
/// body, then a newline.
fn frame(body: &str) -> String {
    format!(
        "{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} {:016x}\n{body}\n",
        fnv64(body.as_bytes())
    )
}

/// Checks a framed file's magic, version and body checksum, and parses
/// the body.
fn unframe(text: &str) -> Result<Json, CheckpointError> {
    let mut lines = text.splitn(2, '\n');
    let header = lines.next().unwrap_or("");
    let mut tokens = header.split(' ');
    if tokens.next() != Some(CHECKPOINT_MAGIC) {
        return Err(CheckpointError::BadMagic);
    }
    let version = tokens.next().ok_or(CheckpointError::Truncated)?;
    if version != format!("v{CHECKPOINT_VERSION}") {
        return Err(CheckpointError::VersionMismatch {
            found: version.to_string(),
        });
    }
    let checksum_hex = tokens.next().ok_or(CheckpointError::Truncated)?;
    let expected = u64::from_str_radix(checksum_hex, 16)
        .map_err(|_| CheckpointError::Parse("unreadable header checksum".to_string()))?;
    let body = lines.next().ok_or(CheckpointError::Truncated)?;
    let body = body.strip_suffix('\n').unwrap_or(body);
    if body.is_empty() {
        return Err(CheckpointError::Truncated);
    }
    let actual = fnv64(body.as_bytes());
    if actual != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, actual });
    }
    crate::json::parse(body).map_err(|e| CheckpointError::Parse(e.to_string()))
}

fn parse_err(msg: &str) -> CheckpointError {
    CheckpointError::Parse(msg.to_string())
}

fn parse_err_owned(msg: String) -> CheckpointError {
    CheckpointError::Parse(msg)
}

fn int_field(v: &Json, key: &str) -> Result<u64, CheckpointError> {
    v.get(key)
        .and_then(Json::as_i64)
        .filter(|&n| n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| parse_err_owned(format!("missing or invalid field {key:?}")))
}

fn array_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], CheckpointError> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| parse_err_owned(format!("missing or invalid array {key:?}")))
}

fn hex_field(v: &Json, key: &str) -> Result<u64, CheckpointError> {
    v.get(key)
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| parse_err_owned(format!("missing or invalid hex field {key:?}")))
}

fn parse_float_field(v: &Json, key: &str) -> Result<f64, CheckpointError> {
    v.get(key)
        .and_then(Json::as_f64)
        .filter(|f| f.is_finite())
        .ok_or_else(|| parse_err_owned(format!("missing or invalid float field {key:?}")))
}

/// Encodes a latency sketch. Empty sketches collapse to `{"n":0}`, which
/// keeps the infinite min/max sentinels of an empty [`RunningMoments`] out
/// of the JSON (JSON has no `Infinity`).
pub fn sketch_to_json(s: &LatencySketch) -> Json {
    if s.count() == 0 {
        return Json::object([("n", Json::Int(0))]);
    }
    Json::object([
        ("n", Json::Int(s.count() as i64)),
        ("mean", Json::Float(s.mean().unwrap_or(0.0))),
        ("m2", Json::Float(s.moments().m2().unwrap_or(0.0))),
        ("min", Json::Float(s.min().unwrap_or(0.0))),
        ("max", Json::Float(s.max().unwrap_or(0.0))),
        (
            "buckets",
            Json::Array(
                s.bucket_counts()
                    .iter()
                    .map(|&c| Json::Int(c as i64))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a latency sketch, validating bucket arity and that the bucket
/// total matches the moment count.
pub fn sketch_from_json(v: &Json) -> Result<LatencySketch, CheckpointError> {
    let n = int_field(v, "n")?;
    if n == 0 {
        return Ok(LatencySketch::new());
    }
    let moments = RunningMoments::from_parts(
        n,
        parse_float_field(v, "mean")?,
        parse_float_field(v, "m2")?,
        parse_float_field(v, "min")?,
        parse_float_field(v, "max")?,
    );
    let counts = counts_field(v, "buckets")?;
    if counts.iter().sum::<u64>() != n {
        return Err(parse_err("sketch bucket total disagrees with count"));
    }
    Ok(LatencySketch::from_parts(moments, counts))
}

/// A fixed-arity array of counts.
fn counts_field<const N: usize>(v: &Json, key: &str) -> Result<[u64; N], CheckpointError> {
    let items = array_field(v, key)?;
    if items.len() != N {
        return Err(parse_err_owned(format!(
            "{key:?} holds {} counts, not {N}",
            items.len()
        )));
    }
    let mut counts = [0u64; N];
    for (slot, item) in counts.iter_mut().zip(items) {
        *slot = item
            .as_i64()
            .filter(|&c| c >= 0)
            .ok_or_else(|| parse_err_owned(format!("{key:?} holds something not a count")))?
            as u64;
    }
    Ok(counts)
}

/// Encodes a metrics histogram. Empty ones collapse to `{"n":0}`, as
/// sketches do.
fn histogram_to_json(h: &Histogram) -> Json {
    if h.count() == 0 {
        return Json::object([("n", Json::Int(0))]);
    }
    Json::object([
        ("n", Json::Int(h.count() as i64)),
        ("sum", Json::Float(h.sum())),
        (
            "buckets",
            Json::Array(
                h.bucket_counts()
                    .iter()
                    .map(|&c| Json::Int(c as i64))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a metrics histogram, validating bucket arity and that the
/// bucket total matches the count.
fn histogram_from_json(v: &Json) -> Result<Histogram, CheckpointError> {
    let n = int_field(v, "n")?;
    if n == 0 {
        return Ok(Histogram::default());
    }
    let counts = counts_field(v, "buckets")?;
    if counts.iter().sum::<u64>() != n {
        return Err(parse_err("histogram bucket total disagrees with count"));
    }
    Ok(Histogram::from_parts(counts, parse_float_field(v, "sum")?))
}

/// Encodes an availability tally.
pub fn availability_to_json(a: &Availability) -> Json {
    let errors: BTreeMap<String, Json> = a
        .errors
        .iter()
        .map(|(k, &c)| (k.clone(), Json::Int(c as i64)))
        .collect();
    Json::object([
        ("successes", Json::Int(a.successes as i64)),
        ("errors", Json::Object(errors)),
    ])
}

/// Decodes an availability tally.
pub fn availability_from_json(v: &Json) -> Result<Availability, CheckpointError> {
    let successes = int_field(v, "successes")?;
    let errors_obj = match v.get("errors") {
        Some(Json::Object(m)) => m,
        _ => return Err(parse_err("availability missing errors object")),
    };
    let mut errors = BTreeMap::new();
    for (k, c) in errors_obj {
        let c = c
            .as_i64()
            .filter(|&n| n >= 0)
            .ok_or_else(|| parse_err("availability error count invalid"))?;
        errors.insert(k.clone(), c as u64);
    }
    Ok(Availability { successes, errors })
}

/// Encodes one pair's aggregate cell.
pub fn pair_aggregate_to_json(p: &PairAggregate) -> Json {
    Json::object([
        ("pair", Json::Int(p.pair as i64)),
        ("vantage", Json::Str(p.vantage.as_str().to_string())),
        ("resolver", Json::Str(p.resolver.as_str().to_string())),
        ("availability", availability_to_json(&p.cell.availability)),
        ("response", sketch_to_json(&p.cell.response)),
        ("ping", sketch_to_json(&p.cell.ping)),
    ])
}

/// Decodes one pair's aggregate cell.
pub fn pair_aggregate_from_json(v: &Json) -> Result<PairAggregate, CheckpointError> {
    let vantage = v
        .get("vantage")
        .and_then(Json::as_str)
        .ok_or_else(|| parse_err("cell missing vantage"))?;
    let resolver = v
        .get("resolver")
        .and_then(Json::as_str)
        .ok_or_else(|| parse_err("cell missing resolver"))?;
    let availability = availability_from_json(
        v.get("availability")
            .ok_or_else(|| parse_err("cell missing availability"))?,
    )?;
    let response = sketch_from_json(
        v.get("response")
            .ok_or_else(|| parse_err("cell missing response sketch"))?,
    )?;
    let ping = sketch_from_json(
        v.get("ping")
            .ok_or_else(|| parse_err("cell missing ping sketch"))?,
    )?;
    Ok(PairAggregate {
        pair: int_field(v, "pair")? as u32,
        vantage: Label::intern(vantage),
        resolver: Label::intern(resolver),
        cell: AggregateCell {
            availability,
            response,
            ping,
        },
    })
}

/// Encodes one (pair, day) health cell.
pub fn pair_day_health_to_json(h: &PairDayHealth) -> Json {
    Json::object([
        ("pair", Json::Int(h.pair as i64)),
        ("day", Json::Int(h.day as i64)),
        ("availability", availability_to_json(&h.cell.availability)),
        ("response", sketch_to_json(&h.cell.response)),
    ])
}

/// Decodes one (pair, day) health cell.
pub fn pair_day_health_from_json(v: &Json) -> Result<PairDayHealth, CheckpointError> {
    let availability = availability_from_json(
        v.get("availability")
            .ok_or_else(|| parse_err("health cell missing availability"))?,
    )?;
    let response = sketch_from_json(
        v.get("response")
            .ok_or_else(|| parse_err("health cell missing response sketch"))?,
    )?;
    Ok(PairDayHealth {
        pair: int_field(v, "pair")? as u32,
        day: int_field(v, "day")? as u32,
        cell: HealthCell {
            availability,
            response,
        },
    })
}

/// Encodes one pair's metrics cell. Floats (histogram sums, the last
/// response) round-trip bit-exactly, so a decoded cell snapshots exactly
/// like the fold that produced it.
pub fn pair_metrics_to_json(m: &PairMetrics) -> Json {
    let c = &m.cell;
    let count = |n: Counter| Json::Int(n.get() as i64);
    let errors: BTreeMap<String, Json> = c
        .errors
        .iter()
        .map(|(&k, &n)| (k.to_string(), Json::Int(n as i64)))
        .collect();
    Json::object([
        ("pair", Json::Int(m.pair as i64)),
        ("probes", count(c.probes)),
        ("successes", count(c.successes)),
        ("cache_hits", count(c.cache_hits)),
        ("errors", Json::Object(errors)),
        ("response", histogram_to_json(&c.response_ms)),
        ("ping", histogram_to_json(&c.ping_ms)),
        (
            "phases",
            Json::Array(c.phase_ms.iter().map(histogram_to_json).collect()),
        ),
        ("last_response_ms", Json::Float(c.last_response_ms.get())),
        (
            "retries",
            Json::Array(c.retries_by_phase.iter().map(|&n| count(n)).collect()),
        ),
        ("recovered", count(c.recovered)),
        ("exhausted", count(c.exhausted)),
    ])
}

/// Decodes one pair's metrics cell. An error label must be one a probe
/// can fail with.
pub fn pair_metrics_from_json(v: &Json) -> Result<PairMetrics, CheckpointError> {
    let counter = |key: &str| int_field(v, key).map(counter_of);
    let histogram = |key: &str| {
        histogram_from_json(
            v.get(key)
                .ok_or_else(|| parse_err_owned(format!("metrics cell missing {key:?}")))?,
        )
    };
    let mut errors = BTreeMap::new();
    let Some(Json::Object(tallies)) = v.get("errors") else {
        return Err(parse_err("metrics cell missing errors object"));
    };
    for (label, n) in tallies {
        let kind = ProbeErrorKind::from_label(label)
            .ok_or_else(|| parse_err_owned(format!("unknown error label {label:?}")))?;
        let n = n
            .as_i64()
            .filter(|&n| n >= 0)
            .ok_or_else(|| parse_err("metrics error count invalid"))?;
        errors.insert(kind.label(), n as u64);
    }
    let phases = array_field(v, "phases")?;
    if phases.len() != Phase::COUNT {
        return Err(parse_err("metrics phase histogram arity mismatch"));
    }
    let mut phase_ms: [Histogram; Phase::COUNT] = Default::default();
    for (slot, h) in phase_ms.iter_mut().zip(phases) {
        *slot = histogram_from_json(h)?;
    }
    let mut last_response_ms = Gauge::default();
    last_response_ms.set(parse_float_field(v, "last_response_ms")?);
    Ok(PairMetrics {
        pair: int_field(v, "pair")? as u32,
        cell: CellMetrics {
            probes: counter("probes")?,
            successes: counter("successes")?,
            cache_hits: counter("cache_hits")?,
            errors,
            response_ms: histogram("response")?,
            ping_ms: histogram("ping")?,
            phase_ms,
            last_response_ms,
            retries_by_phase: counts_field::<{ Phase::COUNT }>(v, "retries")?.map(counter_of),
            recovered: counter("recovered")?,
            exhausted: counter("exhausted")?,
        },
    })
}

fn counter_of(n: u64) -> Counter {
    let mut c = Counter::default();
    c.add(n);
    c
}

/// Encodes one retry exhaustion.
fn retry_exhausted_to_json(e: &RetryExhausted) -> Json {
    Json::object([
        ("pair", Json::Int(e.pair as i64)),
        ("at", Json::Int(e.at as i64)),
        ("attempts", Json::Int(e.attempts as i64)),
    ])
}

/// Decodes one retry exhaustion.
fn retry_exhausted_from_json(v: &Json) -> Result<RetryExhausted, CheckpointError> {
    Ok(RetryExhausted {
        pair: int_field(v, "pair")? as u32,
        at: int_field(v, "at")?,
        attempts: int_field(v, "attempts")? as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> AggregateCell {
        let mut cell = AggregateCell::default();
        cell.availability.success();
        cell.availability.success();
        cell.availability.error("query_timeout");
        cell.response.observe(12.5);
        cell.response.observe(48.25);
        cell.ping.observe(3.75);
        cell
    }

    fn sample_health() -> Vec<PairDayHealth> {
        let mut day0 = HealthCell::default();
        day0.availability.success();
        day0.availability.success();
        day0.response.observe(12.5);
        day0.response.observe(48.25);
        let mut day1 = HealthCell::default();
        day1.availability.error("query_timeout");
        vec![
            PairDayHealth {
                pair: 2,
                day: 0,
                cell: day0,
            },
            PairDayHealth {
                pair: 2,
                day: 1,
                cell: day1,
            },
        ]
    }

    fn sample_manifest() -> Manifest {
        let mut m = Manifest::new(0xfeed_beef, 42, 3, 4);
        m.states[1] = ShardState::Complete(ShardCheckpoint {
            shard: 1,
            records: 120,
            bytes: 34_567,
            checksum: 0xdead_beef_dead_beef,
            cell_bytes: 1_234,
            cell_checksum: 0x0123_4567_89ab_cdef,
        });
        m
    }

    fn sample_cells() -> ShardCells {
        ShardCells {
            shard: 1,
            pairs: vec![
                PairAggregate {
                    pair: 2,
                    vantage: Label::intern("home-us-east"),
                    resolver: Label::intern("dns.google"),
                    cell: sample_cell(),
                },
                PairAggregate {
                    pair: 3,
                    vantage: Label::intern("home-us-east"),
                    resolver: Label::intern("dns.quad9.net"),
                    cell: AggregateCell::default(),
                },
            ],
            metrics: vec![
                PairMetrics {
                    pair: 2,
                    cell: sample_metrics(),
                },
                PairMetrics {
                    pair: 3,
                    cell: CellMetrics::default(),
                },
            ],
            health: sample_health(),
            exhausted: vec![RetryExhausted {
                pair: 2,
                at: 7_200_000_000_000,
                attempts: 3,
            }],
        }
    }

    fn sample_metrics() -> CellMetrics {
        let mut m = CellMetrics::default();
        m.probes.add(3);
        m.successes.add(2);
        m.cache_hits.inc();
        m.errors.insert("query_timeout", 1);
        // Sums that only a bit-exact float codec gets back: 0.1 + 0.2.
        m.response_ms.observe(0.1);
        m.response_ms.observe(0.2);
        m.last_response_ms.set(0.2);
        m.phase(Phase::Connect).observe(0.1);
        m.ping_ms.observe(3.75);
        m.retries(Phase::TlsHandshake).add(2);
        m.exhausted.inc();
        m
    }

    #[test]
    fn manifest_round_trips_exactly() {
        let m = sample_manifest();
        let text = m.encode();
        let back = Manifest::decode(&text).unwrap();
        assert_eq!(back, m);
        // Encoding is a fixed point.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn shard_cells_round_trip_exactly() {
        let cells = sample_cells();
        let text = cells.encode();
        let back = ShardCells::decode(&text).unwrap();
        assert_eq!(back, cells);
        assert_eq!(back.encode(), text);
        // The framing is the manifest's: a flipped body byte and a torn
        // write are both caught.
        assert!(matches!(
            ShardCells::decode(&text.replacen("home-us-east", "home-us-west", 1)),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        assert_eq!(
            ShardCells::decode(text.lines().next().unwrap()),
            Err(CheckpointError::Truncated)
        );
        // A manifest is not a cell file.
        assert!(matches!(
            ShardCells::decode(&sample_manifest().encode()),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn header_is_versioned_and_checksummed() {
        for text in [sample_manifest().encode(), sample_cells().encode()] {
            let header = text.lines().next().unwrap();
            assert!(header.starts_with("edns-checkpoint v4 "));
            let hex = header.rsplit(' ').next().unwrap();
            assert_eq!(hex.len(), 16);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(
            Manifest::decode("not-a-checkpoint v2 00\n{}"),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn other_versions_are_rejected() {
        // A future format, and the earlier ones: v3 cell files had no
        // metrics cells, v2 kept every cell in the manifest, v1 had no
        // health cells. No silent resume from any — the engine re-runs
        // from scratch.
        for other in ["v5", "v3", "v2", "v1"] {
            let text = sample_manifest().encode().replacen("v4", other, 1);
            assert_eq!(
                Manifest::decode(&text),
                Err(CheckpointError::VersionMismatch {
                    found: other.to_string()
                })
            );
        }
    }

    #[test]
    fn metrics_cells_round_trip_bit_exactly() {
        let m = PairMetrics {
            pair: 2,
            cell: sample_metrics(),
        };
        let back = pair_metrics_from_json(&pair_metrics_to_json(&m)).unwrap();
        assert_eq!(back, m);
        assert_eq!(
            back.cell.response_ms.sum().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        // An error label no probe fails with, and a histogram whose
        // buckets disagree with its count, are both rejected.
        let tamper = |key: &str, value: Json| {
            let Json::Object(mut obj) = pair_metrics_to_json(&m) else {
                unreachable!()
            };
            obj.insert(key.to_string(), value);
            pair_metrics_from_json(&Json::Object(obj))
        };
        let bogus = Json::object([("gremlins", Json::Int(1))]);
        assert!(
            matches!(tamper("errors", bogus), Err(CheckpointError::Parse(m)) if m.contains("gremlins"))
        );
        let mut response = pair_metrics_to_json(&m).get("response").unwrap().clone();
        if let Json::Object(h) = &mut response {
            h.insert("n".to_string(), Json::Int(3));
        }
        assert!(tamper("response", response).is_err());
    }

    #[test]
    fn health_cells_round_trip_bit_exactly() {
        for h in sample_health() {
            let back = pair_day_health_from_json(&pair_day_health_to_json(&h)).unwrap();
            assert_eq!(back, h);
        }
        // A tampered day count is caught by the sketch validator.
        let h = &sample_health()[0];
        let mut obj = match pair_day_health_to_json(h) {
            Json::Object(m) => m,
            _ => unreachable!(),
        };
        obj.insert("response".to_string(), Json::object([("n", Json::Int(3))]));
        assert!(pair_day_health_from_json(&Json::Object(obj)).is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let text = sample_manifest().encode();
        // Flip one digit inside the body.
        let corrupted = text.replacen("120", "121", 1);
        assert!(matches!(
            Manifest::decode(&corrupted),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample_manifest().encode();
        let header_only = text.lines().next().unwrap().to_string();
        assert_eq!(
            Manifest::decode(&header_only),
            Err(CheckpointError::Truncated)
        );
        let half = &text[..text.len() / 2];
        assert!(matches!(
            Manifest::decode(half),
            Err(CheckpointError::ChecksumMismatch { .. } | CheckpointError::Truncated)
        ));
    }

    #[test]
    fn empty_sketch_encodes_compactly() {
        let s = LatencySketch::new();
        let v = sketch_to_json(&s);
        assert_eq!(v.to_string_compact(), r#"{"n":0}"#);
        assert_eq!(sketch_from_json(&v).unwrap(), s);
    }

    #[test]
    fn sketch_round_trip_is_bit_exact() {
        let mut s = LatencySketch::new();
        for x in [0.125, 3.9, 17.0, 230.75, 1999.5, 0.3] {
            s.observe(x);
        }
        let back = sketch_from_json(&sketch_to_json(&s)).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.mean().unwrap().to_bits(), s.mean().unwrap().to_bits());
        assert_eq!(
            back.moments().m2().unwrap().to_bits(),
            s.moments().m2().unwrap().to_bits()
        );
    }

    #[test]
    fn sketch_validation_catches_tampering() {
        let mut s = LatencySketch::new();
        s.observe(5.0);
        let v = sketch_to_json(&s);
        let mut tampered = match v {
            Json::Object(m) => m,
            _ => unreachable!(),
        };
        tampered.insert("n".to_string(), Json::Int(2));
        assert!(sketch_from_json(&Json::Object(tampered)).is_err());
    }

    #[test]
    fn store_and_load_round_trip() {
        let dir = std::env::temp_dir().join("edns-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.ckpt");
        let m = sample_manifest();
        m.store(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        // The tmp sibling does not linger.
        assert!(!dir.join("manifest.ckpt.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        // Summing piece by piece equals summing the whole.
        assert_eq!(
            fnv64_extend(fnv64_extend(FNV64_INIT, b"foo"), b"bar"),
            fnv64(b"foobar")
        );
    }
}
