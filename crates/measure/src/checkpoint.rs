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
//! edns-checkpoint v5 <16 lower-case hex digits: checksum of body>
//! {"entries":[...],"fingerprint":"...","pairs":21,"seed":"2a","shards":4}
//! ```
//!
//! ```text
//! edns-checkpoint v5 <16 lower-case hex digits: checksum of body>
//! {"cells":[...],"exhausted":[...],"health":[...],"metrics":[...],"shard":2}
//! ```
//!
//! The header carries the format version and a checksum of the body, so a
//! truncated write, a corrupt byte, or a file from a different format
//! version is detected and rejected with a typed [`CheckpointError`] — the
//! engine then re-runs from scratch rather than silently resuming from bad
//! state. One checksum, [`Checksum`], sums every byte the checkpoint
//! vouches for: the framed bodies, and the data and cell files whose
//! checksums the manifest records. It is FNV-1a's step over little-endian
//! `u64` words in four lanes, which runs at memory speed where byte-serial
//! FNV-1a ([`fnv64`], kept for fingerprints and content hashes) waits on a
//! multiply at every byte. The `fingerprint` binds the manifest to one
//! campaign configuration (seed, pair list, schedule); resuming with a
//! different configuration is a [`CheckpointError::ConfigMismatch`].
//!
//! Every float in a body is written with the workspace's
//! shortest-round-trip formatter ([`crate::json::write_float`]), which
//! re-parses bit-exactly — a decode of an encode reproduces the aggregate
//! cells down to the last bit, which the resume-determinism tests rely on.
//!
//! The manifest, a few KB, goes through the [`Json`] tree both ways. A
//! cell file, which resume reads for every shard, has a direct codec
//! instead, as records do: [`ShardCells::encode`] writes the body field by
//! field and [`ShardCells::decode`] reads it back in one strict pass over
//! the [`LineReader`] primitives, building no tree. The tree codec the
//! cell files had before is kept in `tests/checkpoint_proptests.rs` as the
//! oracle: the writer must emit its bytes, and the reader must read what
//! it reads or decline the body.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use detlint_macros::deny_alloc;
use edns_stats::{LatencySketch, RunningMoments};
use obs::{CellMetrics, Counter, Gauge, Histogram, Label, Phase};

use crate::aggregate::{AggregateCell, PairAggregate};
use crate::errors::{ProbeErrorKind, Tally};
use crate::health::HealthCell;
use crate::json::{self, Json, LineReader};

/// The checkpoint format version this build reads and writes.
///
/// v5 sums files and bodies with [`Checksum`]; v4, the same files under
/// byte-serial FNV-1a, and earlier versions are rejected: the engine
/// re-runs from scratch rather than resuming from checksums it does not
/// compute or cell files that lack what it needs.
pub const CHECKPOINT_VERSION: u32 = 5;

/// The magic token opening every checkpoint header line.
pub const CHECKPOINT_MAGIC: &str = "edns-checkpoint";

/// The FNV-1a offset basis: the state [`fnv64`] and every fold of
/// [`Checksum::finish`] start from.
const FNV64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step: `x` xored into `h`, then a multiply by the odd prime.
/// A bijection of `h` for any `x`, and of `x` for any `h`.
fn fnv_step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV64_PRIME)
}

/// 64-bit FNV-1a, one step per byte — the workspace's dependency-free
/// content hash: fingerprints, ticket ids and golden hashes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV64_INIT, |h, &b| fnv_step(h, b.into()))
}

/// Bytes [`Checksum`] takes per round: one word for each of its lanes.
const STRIDE: usize = 32;

/// The checkpoint checksum. Each 32-byte stride of the input is four
/// little-endian `u64` words, and word `i` takes one FNV-1a step of lane
/// `i`: four independent multiplies in flight, where byte-serial FNV-1a
/// waits on one per byte. [`finish`](Self::finish) takes the [`fnv64`] of
/// the tail of fewer than 32 bytes, then steps it over each lane as one
/// word, then over the length.
///
/// Each step is a bijection of the state it updates, so two inputs of one
/// length that differ in a single byte never sum alike. Unlike byte-serial
/// FNV-1a, a word's top bits reach only its lane's top bits, so changes
/// confined to the high bytes of several words of one lane can cancel: a
/// guard against damage, not against an adversary. [`update`](Self::update)
/// over the pieces of an input, split anywhere, equals [`checksum`].
#[derive(Debug)]
pub struct Checksum {
    lanes: [u64; 4],
    /// The first `len % STRIDE` bytes of a stride not yet whole.
    stride: [u8; STRIDE],
    len: u64,
}

impl Default for Checksum {
    fn default() -> Checksum {
        let (lanes, stride) = ([FNV64_INIT; 4], [0; STRIDE]);
        Checksum {
            lanes,
            stride,
            len: 0,
        }
    }
}

impl Checksum {
    /// Sums `bytes` after everything summed so far.
    #[deny_alloc]
    pub fn update(&mut self, mut bytes: &[u8]) {
        let held = self.len as usize % STRIDE;
        self.len += bytes.len() as u64;
        if held > 0 {
            let (head, rest) = bytes.split_at(bytes.len().min(STRIDE - held));
            self.stride[held..held + head.len()].copy_from_slice(head);
            if held + head.len() < STRIDE {
                return;
            }
            let stride = self.stride;
            run_lanes(&mut self.lanes, &stride);
            bytes = rest;
        }
        let rest = run_lanes(&mut self.lanes, bytes);
        self.stride[..rest.len()].copy_from_slice(rest);
    }

    /// The checksum of everything summed so far.
    pub fn finish(&self) -> u64 {
        let tail = fnv64(&self.stride[..self.len as usize % STRIDE]);
        let lanes = self.lanes.iter().fold(tail, |h, &lane| fnv_step(h, lane));
        fnv_step(lanes, self.len)
    }
}

/// Steps `lanes` over every whole stride of `bytes`; returns the rest.
fn run_lanes<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
    let (strides, rest) = bytes.as_chunks::<STRIDE>();
    let mut state = *lanes;
    for stride in strides {
        let (words, _) = stride.as_chunks::<8>();
        for (lane, word) in state.iter_mut().zip(words) {
            *lane = fnv_step(*lane, u64::from_le_bytes(*word));
        }
    }
    *lanes = state;
    rest
}

/// [`Checksum`] of `bytes` in one call.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::default();
    sum.update(bytes);
    sum.finish()
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
    /// [`checksum`] of the shard's JSONL data file.
    pub checksum: u64,
    /// Size of the shard's cell file in bytes.
    pub cell_bytes: u64,
    /// [`checksum`] of the shard's cell file (header line included).
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
    /// Serialises the cells: header line plus compact JSON body, written
    /// field by field — keys sorted, floats through
    /// [`json::write_float`] — with no [`Json`] tree in between.
    pub fn encode(&self) -> String {
        let mut body = String::new();
        put_list(&mut body, "{\"cells\":", &self.pairs, put_pair_aggregate);
        put_list(
            &mut body,
            ",\"exhausted\":",
            &self.exhausted,
            put_retry_exhausted,
        );
        put_list(&mut body, ",\"health\":", &self.health, put_pair_day_health);
        put_list(&mut body, ",\"metrics\":", &self.metrics, put_pair_metrics);
        put_count(&mut body, ",\"shard\":", self.shard.into());
        body.push('}');
        frame(&body)
    }

    /// Parses and validates a serialised cell file in one pass over the
    /// body. Strict, like the record reader: a body of a shape
    /// [`encode`](Self::encode) does not write — whitespace, another key
    /// order, a float where it writes a count — is a
    /// [`CheckpointError::Parse`], and so are a bucket total that disagrees
    /// with its count, a negative count, a non-finite float, an error label
    /// no probe fails with, a pair, day, shard or attempt count past `u32`,
    /// and a histogram or retry count too many or too few for the phases.
    pub fn decode(text: &str) -> Result<ShardCells, CheckpointError> {
        let mut r = LineReader::new(unframe(text)?);
        match take_cells(&mut r) {
            Some(cells) if r.pos == r.s.len() => Ok(cells),
            _ => Err(parse_err_owned(format!(
                "cell file body unreadable at byte {}",
                r.pos
            ))),
        }
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
        let v = json::parse(unframe(text)?).map_err(|e| CheckpointError::Parse(e.to_string()))?;

        let fingerprint = hex_field(&v, "fingerprint")?;
        let seed = hex_field(&v, "seed")?;
        let shards = int_field(&v, "shards")? as usize;
        let pairs =
            u32::try_from(int_field(&v, "pairs")?).map_err(|_| parse_err("pair count past u32"))?;
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
        checksum(body.as_bytes())
    )
}

/// Checks a framed file's magic, version and body checksum, and returns
/// the body. The header is read as strictly as [`frame`] writes it: its
/// checksum is 16 lower-case hex digits and ends the line, so no two
/// spellings of one header read alike.
fn unframe(text: &str) -> Result<&str, CheckpointError> {
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
    let lower_hex = |b: u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
    let expected = Some(checksum_hex)
        .filter(|hex| hex.len() == 16 && hex.bytes().all(lower_hex) && tokens.next().is_none())
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| parse_err("header checksum is not 16 lower-case hex digits"))?;
    let body = lines.next().ok_or(CheckpointError::Truncated)?;
    let body = body.strip_suffix('\n').unwrap_or(body);
    if body.is_empty() {
        return Err(CheckpointError::Truncated);
    }
    let actual = checksum(body.as_bytes());
    if actual != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, actual });
    }
    Ok(body)
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

// The cell codec. Each `put_*` writes one value of a cell file's body and
// each `take_*` reads it back: the same `"key":` literals in the same
// (sorted) order, so that a body is one pass each way. A `lit` opens with
// the `{` or `,` before its key.

fn put_count(out: &mut String, lit: &str, n: u64) {
    out.push_str(lit);
    let _ = write!(out, "{n}");
}

fn put_float(out: &mut String, lit: &str, f: f64) {
    out.push_str(lit);
    json::write_float(out, f);
}

fn put_counts(out: &mut String, lit: &str, counts: &[u64]) {
    put_list(out, lit, counts, |out, &n| put_count(out, "", n));
}

fn put_list<T>(out: &mut String, lit: &str, items: &[T], put: impl Fn(&mut String, &T)) {
    out.push_str(lit);
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put(out, item);
    }
    out.push(']');
}

/// A label → count object (availability and metrics error tallies).
fn put_tallies<'k>(out: &mut String, lit: &str, tallies: impl Iterator<Item = (&'k str, u64)>) {
    out.push_str(lit);
    out.push('{');
    for (i, (label, n)) in tallies.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, label);
        put_count(out, ":", n);
    }
    out.push('}');
}

/// A latency sketch. An empty one collapses to `{"n":0}`, which keeps the
/// infinite min/max sentinels of an empty [`RunningMoments`] out of the
/// body (JSON has no `Infinity`).
fn put_sketch(out: &mut String, lit: &str, s: &LatencySketch) {
    out.push_str(lit);
    let m = s.moments();
    let (Some(mean), Some(m2), Some(min), Some(max)) = (m.mean(), m.m2(), m.min(), m.max()) else {
        return out.push_str("{\"n\":0}");
    };
    put_counts(out, "{\"buckets\":", s.bucket_counts());
    put_float(out, ",\"m2\":", m2);
    put_float(out, ",\"max\":", max);
    put_float(out, ",\"mean\":", mean);
    put_float(out, ",\"min\":", min);
    put_count(out, ",\"n\":", s.count());
    out.push('}');
}

/// A metrics histogram; empty ones collapse to `{"n":0}`, as sketches do.
fn put_histogram(out: &mut String, lit: &str, h: &Histogram) {
    out.push_str(lit);
    if h.count() == 0 {
        return out.push_str("{\"n\":0}");
    }
    put_counts(out, "{\"buckets\":", h.bucket_counts());
    put_count(out, ",\"n\":", h.count());
    put_float(out, ",\"sum\":", h.sum());
    out.push('}');
}

fn put_availability(out: &mut String, lit: &str, a: &Tally) {
    out.push_str(lit);
    let errors = a.errors().map(|(k, n)| (k.label(), n));
    put_tallies(out, "{\"errors\":", errors);
    put_count(out, ",\"successes\":", a.successes);
    out.push('}');
}

fn put_pair_aggregate(out: &mut String, p: &PairAggregate) {
    put_availability(out, "{\"availability\":", &p.cell.availability);
    put_count(out, ",\"pair\":", p.pair.into());
    put_sketch(out, ",\"ping\":", &p.cell.ping);
    out.push_str(",\"resolver\":");
    json::write_str(out, p.resolver.as_str());
    put_sketch(out, ",\"response\":", &p.cell.response);
    out.push_str(",\"vantage\":");
    json::write_str(out, p.vantage.as_str());
    out.push('}');
}

fn put_retry_exhausted(out: &mut String, e: &RetryExhausted) {
    put_count(out, "{\"at\":", e.at);
    put_count(out, ",\"attempts\":", e.attempts.into());
    put_count(out, ",\"pair\":", e.pair.into());
    out.push('}');
}

fn put_pair_day_health(out: &mut String, h: &PairDayHealth) {
    put_availability(out, "{\"availability\":", &h.cell.availability);
    put_count(out, ",\"day\":", h.day.into());
    put_count(out, ",\"pair\":", h.pair.into());
    put_sketch(out, ",\"response\":", &h.cell.response);
    out.push('}');
}

/// One pair's metrics cell. Floats (histogram sums, the last response)
/// round-trip bit-exactly, so a decoded cell snapshots exactly like the
/// fold that produced it.
fn put_pair_metrics(out: &mut String, m: &PairMetrics) {
    let c = &m.cell;
    put_count(out, "{\"cache_hits\":", c.cache_hits.get());
    put_tallies(out, ",\"errors\":", c.errors.iter().map(|(&k, &n)| (k, n)));
    put_count(out, ",\"exhausted\":", c.exhausted.get());
    put_float(out, ",\"last_response_ms\":", c.last_response_ms.get());
    put_count(out, ",\"pair\":", m.pair.into());
    put_list(out, ",\"phases\":", &c.phase_ms, |out, h| {
        put_histogram(out, "", h)
    });
    put_histogram(out, ",\"ping\":", &c.ping_ms);
    put_count(out, ",\"probes\":", c.probes.get());
    put_count(out, ",\"recovered\":", c.recovered.get());
    put_histogram(out, ",\"response\":", &c.response_ms);
    let retries = c.retries_by_phase.map(Counter::get);
    put_counts(out, ",\"retries\":", &retries);
    put_count(out, ",\"successes\":", c.successes.get());
    out.push('}');
}

fn take_cells(r: &mut LineReader) -> Option<ShardCells> {
    let cells = ShardCells {
        pairs: take_list(r, "{\"cells\":", take_pair_aggregate)?,
        exhausted: take_list(r, ",\"exhausted\":", take_retry_exhausted)?,
        health: take_list(r, ",\"health\":", take_pair_day_health)?,
        metrics: take_list(r, ",\"metrics\":", take_pair_metrics)?,
        shard: take_index(r, ",\"shard\":")?,
    };
    r.eat("}")?;
    Some(cells)
}

fn take_count(r: &mut LineReader, lit: &str) -> Option<u64> {
    r.eat(lit)?;
    u64::try_from(r.int()?).ok()
}

/// A count that must fit the `u32` it is stored in.
fn take_index(r: &mut LineReader, lit: &str) -> Option<u32> {
    u32::try_from(take_count(r, lit)?).ok()
}

fn take_float(r: &mut LineReader, lit: &str) -> Option<f64> {
    r.eat(lit)?;
    r.number().filter(|f| f.is_finite())
}

fn take_list<T>(
    r: &mut LineReader,
    lit: &str,
    mut take: impl FnMut(&mut LineReader) -> Option<T>,
) -> Option<Vec<T>> {
    r.eat(lit)?;
    r.eat("[")?;
    let mut items = Vec::new();
    if r.try_eat("]") {
        return Some(items);
    }
    loop {
        items.push(take(r)?);
        if !r.try_eat(",") {
            r.eat("]")?;
            return Some(items);
        }
    }
}

/// A fixed-arity array of counts.
fn take_counts<const N: usize>(r: &mut LineReader, lit: &str) -> Option<[u64; N]> {
    take_list(r, lit, |r| take_count(r, ""))?.try_into().ok()
}

/// Counts whose total is `n`, which no overflow reaches.
fn total_is(counts: &[u64], n: u64) -> bool {
    counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) == Some(n)
}

/// A label → count object; `key` vets each label. A repeated label keeps
/// its last count, as a parsed object would.
fn take_tallies<K: Ord>(
    r: &mut LineReader,
    lit: &str,
    key: impl Fn(&str) -> Option<K>,
) -> Option<BTreeMap<K, u64>> {
    r.eat(lit)?;
    r.eat("{")?;
    let mut tallies = BTreeMap::new();
    if r.try_eat("}") {
        return Some(tallies);
    }
    loop {
        let label = key(&r.string()?)?;
        tallies.insert(label, take_count(r, ":")?);
        if !r.try_eat(",") {
            r.eat("}")?;
            return Some(tallies);
        }
    }
}

/// A latency sketch whose bucket total is its count.
fn take_sketch(r: &mut LineReader, lit: &str) -> Option<LatencySketch> {
    r.eat(lit)?;
    if r.try_eat("{\"n\":0}") {
        return Some(LatencySketch::new());
    }
    let counts = take_counts(r, "{\"buckets\":")?;
    let m2 = take_float(r, ",\"m2\":")?;
    let max = take_float(r, ",\"max\":")?;
    let mean = take_float(r, ",\"mean\":")?;
    let min = take_float(r, ",\"min\":")?;
    let n = take_count(r, ",\"n\":").filter(|&n| n > 0 && total_is(&counts, n))?;
    r.eat("}")?;
    let moments = RunningMoments::from_parts(n, mean, m2, min, max);
    Some(LatencySketch::from_parts(moments, counts))
}

/// A metrics histogram whose bucket total is its count.
fn take_histogram(r: &mut LineReader, lit: &str) -> Option<Histogram> {
    r.eat(lit)?;
    if r.try_eat("{\"n\":0}") {
        return Some(Histogram::default());
    }
    let counts = take_counts(r, "{\"buckets\":")?;
    take_count(r, ",\"n\":").filter(|&n| n > 0 && total_is(&counts, n))?;
    let sum = take_float(r, ",\"sum\":")?;
    r.eat("}")?;
    Some(Histogram::from_parts(counts, sum))
}

/// A tally: each error label must be one a probe can fail with.
fn take_availability(r: &mut LineReader, lit: &str) -> Option<Tally> {
    r.eat(lit)?;
    let errors = take_tallies(r, "{\"errors\":", ProbeErrorKind::from_label)?;
    let mut tally = Tally::default();
    tally.successes = take_count(r, ",\"successes\":")?;
    r.eat("}")?;
    for (kind, n) in errors {
        tally.set_errors(kind, n);
    }
    Some(tally)
}

fn take_label(r: &mut LineReader, lit: &str) -> Option<Label> {
    r.eat(lit)?;
    Some(Label::intern(&r.string()?))
}

fn take_pair_aggregate(r: &mut LineReader) -> Option<PairAggregate> {
    let availability = take_availability(r, "{\"availability\":")?;
    let pair = take_index(r, ",\"pair\":")?;
    let ping = take_sketch(r, ",\"ping\":")?;
    let resolver = take_label(r, ",\"resolver\":")?;
    let response = take_sketch(r, ",\"response\":")?;
    let vantage = take_label(r, ",\"vantage\":")?;
    r.eat("}")?;
    Some(PairAggregate {
        pair,
        vantage,
        resolver,
        cell: AggregateCell {
            availability,
            response,
            ping,
        },
    })
}

fn take_retry_exhausted(r: &mut LineReader) -> Option<RetryExhausted> {
    let at = take_count(r, "{\"at\":")?;
    let attempts = take_index(r, ",\"attempts\":")?;
    let pair = take_index(r, ",\"pair\":")?;
    r.eat("}")?;
    Some(RetryExhausted { pair, at, attempts })
}

fn take_pair_day_health(r: &mut LineReader) -> Option<PairDayHealth> {
    let availability = take_availability(r, "{\"availability\":")?;
    let day = take_index(r, ",\"day\":")?;
    let pair = take_index(r, ",\"pair\":")?;
    let response = take_sketch(r, ",\"response\":")?;
    r.eat("}")?;
    Some(PairDayHealth {
        pair,
        day,
        cell: HealthCell {
            availability,
            response,
        },
    })
}

/// One pair's metrics cell. An error label must be one a probe can fail
/// with, and there is a histogram and a retry count per phase.
fn take_pair_metrics(r: &mut LineReader) -> Option<PairMetrics> {
    let counter = |n| {
        let mut c = Counter::default();
        c.add(n);
        c
    };
    let cache_hits = take_count(r, "{\"cache_hits\":")?;
    let errors = take_tallies(r, ",\"errors\":", |label| {
        ProbeErrorKind::from_label(label).map(ProbeErrorKind::label)
    })?;
    let exhausted = take_count(r, ",\"exhausted\":")?;
    let mut last_response_ms = Gauge::default();
    last_response_ms.set(take_float(r, ",\"last_response_ms\":")?);
    let pair = take_index(r, ",\"pair\":")?;
    let phases = take_list(r, ",\"phases\":", |r| take_histogram(r, ""))?;
    let ping_ms = take_histogram(r, ",\"ping\":")?;
    let probes = take_count(r, ",\"probes\":")?;
    let recovered = take_count(r, ",\"recovered\":")?;
    let response_ms = take_histogram(r, ",\"response\":")?;
    let retries = take_counts::<{ Phase::COUNT }>(r, ",\"retries\":")?;
    let successes = take_count(r, ",\"successes\":")?;
    r.eat("}")?;
    Some(PairMetrics {
        pair,
        cell: CellMetrics {
            probes: counter(probes),
            successes: counter(successes),
            cache_hits: counter(cache_hits),
            errors,
            response_ms,
            ping_ms,
            phase_ms: phases.try_into().ok()?,
            last_response_ms,
            retries_by_phase: retries.map(counter),
            recovered: counter(recovered),
            exhausted: counter(exhausted),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> AggregateCell {
        let mut cell = AggregateCell::default();
        cell.availability.success();
        cell.availability.success();
        cell.availability.error(ProbeErrorKind::QueryTimeout);
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
        day1.availability.error(ProbeErrorKind::QueryTimeout);
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
            assert!(header.starts_with("edns-checkpoint v5 "));
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
        // A future format, and the earlier ones: v4 summed with
        // byte-serial FNV-1a, v3 cell files had no metrics cells, v2 kept
        // every cell in the manifest, v1 had no health cells. No silent
        // resume from any — the engine re-runs from scratch.
        for other in ["v6", "v4", "v3", "v2", "v1"] {
            let text = sample_manifest().encode().replacen("v5", other, 1);
            assert_eq!(
                Manifest::decode(&text),
                Err(CheckpointError::VersionMismatch {
                    found: other.to_string()
                })
            );
        }
    }

    /// `cells` encoded, its body edited and framed anew: past the
    /// checksum, into the field readers.
    fn reframed(cells: &ShardCells, edit: impl FnOnce(&str) -> String) -> String {
        let text = cells.encode();
        let edited = frame(&edit(unframe(&text).unwrap()));
        assert_ne!(edited, text, "the edit changed nothing");
        edited
    }

    #[test]
    fn metrics_cells_round_trip_bit_exactly() {
        let cells = ShardCells {
            pairs: Vec::new(),
            health: Vec::new(),
            ..sample_cells()
        };
        let back = ShardCells::decode(&cells.encode()).unwrap();
        assert_eq!(back, cells);
        assert_eq!(
            back.metrics[0].cell.response_ms.sum().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        // An error label no probe fails with, a histogram whose buckets
        // disagree with its count, and one phase histogram too many are
        // all rejected.
        for (from, to) in [
            ("\"query_timeout\":", "\"gremlins\":"),
            ("\"n\":2,\"sum\"", "\"n\":3,\"sum\""),
            ("],\"ping\":", ",{\"n\":0}],\"ping\":"),
        ] {
            let text = reframed(&cells, |body| body.replacen(from, to, 1));
            assert!(
                matches!(ShardCells::decode(&text), Err(CheckpointError::Parse(_))),
                "{to}"
            );
        }
    }

    #[test]
    fn health_cells_round_trip_bit_exactly() {
        let cells = ShardCells {
            pairs: Vec::new(),
            metrics: Vec::new(),
            ..sample_cells()
        };
        assert_eq!(ShardCells::decode(&cells.encode()).unwrap(), cells);
        // A tampered day count is caught by the sketch validator.
        let text = reframed(&cells, |body| body.replacen("\"n\":2}", "\"n\":3}", 1));
        assert!(matches!(
            ShardCells::decode(&text),
            Err(CheckpointError::Parse(_))
        ));
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

    fn sketch_round_trip(s: &LatencySketch) -> (String, Option<LatencySketch>) {
        let mut text = String::new();
        put_sketch(&mut text, "", s);
        let mut r = LineReader::new(&text);
        let back = take_sketch(&mut r, "").filter(|_| r.pos == text.len());
        (text, back)
    }

    #[test]
    fn empty_sketch_encodes_compactly() {
        let s = LatencySketch::new();
        assert_eq!(sketch_round_trip(&s), (r#"{"n":0}"#.to_string(), Some(s)));
    }

    #[test]
    fn sketch_round_trip_is_bit_exact() {
        let mut s = LatencySketch::new();
        for x in [0.125, 3.9, 17.0, 230.75, 1999.5, 0.3] {
            s.observe(x);
        }
        let back = sketch_round_trip(&s).1.unwrap();
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
        let text = sketch_round_trip(&s).0;
        for tampered in [
            text.replacen("\"n\":1}", "\"n\":2}", 1),
            text.replacen("\"n\":1}", "\"n\":0}", 1),
            text.replacen("\"mean\":5.0", "\"mean\":1e999", 1),
        ] {
            assert_ne!(tampered, text);
            let mut r = LineReader::new(&tampered);
            assert_eq!(take_sketch(&mut r, ""), None, "{tampered}");
        }
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
    }
}
