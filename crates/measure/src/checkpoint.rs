//! Versioned, checksummed campaign checkpoints.
//!
//! A sharded campaign persists its progress as a *manifest*: one file
//! recording, per shard, whether the shard is still pending or complete —
//! and for complete shards, the record count of the shard, and the byte
//! count and checksum of its two write-once files: the JSONL data file and
//! the *cell file* ([`ShardCells`]) holding everything the shard's pairs
//! fold to — per pair ([`PairCells`]) an aggregate cell, a metrics cell,
//! a health cell per day and its retry exhaustions. The manifest is O(shards)
//! however long the campaign runs; a commit rewrites a few KB. A killed
//! campaign resumes by loading the manifest, re-validating every complete
//! shard's two files against the recorded checksums, and running only
//! what is left.
//!
//! Manifest and cell file share one framing, a header line followed by a
//! JSON body:
//!
//! ```text
//! edns-checkpoint v6 <16 lower-case hex digits: checksum of body>
//! {"entries":[...],"fingerprint":"...","pairs":21,"seed":"2a","shards":4}
//! ```
//!
//! ```text
//! edns-checkpoint v6 <16 lower-case hex digits: checksum of body>
//! {"pairs":[{"aggregate":{...},"exhausted":[...],"health":[...],"metrics":{...},"pair":8},...],"shard":2}
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
//! Both bodies have one codec, as records do: `encode` writes the body
//! field by field, keys in sorted order, and `decode` reads it back in one
//! strict pass over the [`LineReader`] primitives, building no tree. A
//! cell file lists one entry per pair, as [`PairCells`] holds it. The tree
//! codecs both files had before are kept in `tests/checkpoint_proptests.rs`
//! as the oracles: each writer must emit its tree's bytes, and each reader
//! must read what its tree reads or decline the body.

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
use crate::json::{self, LineReader};

/// The checkpoint format version this build reads and writes.
///
/// v6 lists a cell file's cells pair by pair; v5, the same cells in four
/// sections, v4, summed with byte-serial FNV-1a, and earlier versions are
/// rejected: the engine re-runs from scratch rather than resuming from
/// files it does not read or checksums it does not compute.
pub const CHECKPOINT_VERSION: u32 = 6;

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
    /// The shard's pairs' cells, in pair-index order.
    pub pairs: Vec<PairCells>,
}

/// One pair's cells: what its [`PairFold`](crate::fold::PairFold) and
/// day cells fold its records to.
#[derive(Debug, Clone, PartialEq)]
pub struct PairCells {
    /// The aggregate cell, with the pair's index and coordinates.
    pub aggregate: PairAggregate,
    /// The metrics cell, its error tallies left to the aggregate's.
    pub metrics: CellMetrics,
    /// The day cells that saw a probe, with their days, in day order.
    pub health: Vec<(u32, HealthCell)>,
    /// The probes that failed with their retry budget spent, in record
    /// order: the journal's `retry_exhausted` events.
    pub exhausted: Vec<RetryExhausted>,
}

impl ShardCells {
    /// Serialises the cells: header line plus compact JSON body, written
    /// field by field — keys sorted, floats through
    /// [`json::write_float`] — with no tree in between. The body lists
    /// one entry per pair, in the order [`pairs`](Self::pairs) holds them.
    pub fn encode(&self) -> String {
        let mut body = String::new();
        put_list(&mut body, "{\"pairs\":", &self.pairs, put_pair);
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
        read_body(text, "cell file", take_cells)
    }
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

    /// Serialises the manifest: header line plus compact JSON body,
    /// written field by field in the cell files' codec.
    pub fn encode(&self) -> String {
        let mut body = String::new();
        let entries = self.states.iter().enumerate();
        put_list(&mut body, "{\"entries\":", entries, put_entry);
        put_hex(&mut body, ",\"fingerprint\":", self.fingerprint, true);
        put_count(&mut body, ",\"pairs\":", self.pairs.into());
        put_hex(&mut body, ",\"seed\":", self.seed, false);
        put_count(&mut body, ",\"shards\":", self.states.len() as u64);
        body.push('}');
        frame(&body)
    }

    /// Parses and validates a serialised manifest in one strict pass, as
    /// [`ShardCells::decode`] reads a cell file: a body of another shape
    /// than [`encode`](Self::encode) writes, hex spelt otherwise, entries
    /// out of shard order or other than the shard count is a
    /// [`CheckpointError::Parse`].
    pub fn decode(text: &str) -> Result<Manifest, CheckpointError> {
        read_body(text, "manifest", take_manifest)
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
    let expected = Some(checksum_hex)
        .filter(|_| tokens.next().is_none())
        .and_then(|hex| read_hex(hex, true))
        .ok_or_else(|| {
            CheckpointError::Parse("header checksum is not 16 lower-case hex digits".into())
        })?;
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

/// Unframes `text` and reads its body with `take`, which must read all
/// of it; otherwise a [`CheckpointError::Parse`] naming where it stopped.
fn read_body<T>(
    text: &str,
    what: &str,
    take: fn(&mut LineReader) -> Option<T>,
) -> Result<T, CheckpointError> {
    let mut r = LineReader::new(unframe(text)?);
    let read = take(&mut r).filter(|_| r.pos == r.s.len());
    read.ok_or_else(|| CheckpointError::Parse(format!("{what} body unreadable at byte {}", r.pos)))
}

/// `hex` as a `u64`, only when spelt as [`put_hex`] writes it: lower-case
/// digits, sixteen of them when `padded`, else no leading zero.
fn read_hex(hex: &str, padded: bool) -> Option<u64> {
    let n = u64::from_str_radix(hex, 16).ok()?;
    let written = if padded {
        format!("{n:016x}")
    } else {
        format!("{n:x}")
    };
    (written == hex).then_some(n)
}

// The body codec. Each `put_*` writes one value of a manifest's or a cell
// file's body and each `take_*` reads it back: the same `"key":` literals
// in the same (sorted) order, so that a body is one pass each way. A `lit`
// opens with the `{` or `,` before its key.

fn put_count(out: &mut String, lit: &str, n: u64) {
    out.push_str(lit);
    let _ = write!(out, "{n}");
}

fn put_float(out: &mut String, lit: &str, f: f64) {
    out.push_str(lit);
    json::write_float(out, f);
}

/// A `u64` as a quoted string of lower-case hex digits: sixteen when
/// `padded` (fingerprint and checksums), else as few as it takes (seed).
fn put_hex(out: &mut String, lit: &str, n: u64, padded: bool) {
    out.push_str(lit);
    let _ = if padded {
        write!(out, "\"{n:016x}\"")
    } else {
        write!(out, "\"{n:x}\"")
    };
}

fn put_counts(out: &mut String, lit: &str, counts: &[u64]) {
    put_list(out, lit, counts, |out, &n| put_count(out, "", n));
}

/// `items`, comma-separated.
fn put_each<T>(out: &mut String, items: impl IntoIterator<Item = T>, put: impl Fn(&mut String, T)) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put(out, item);
    }
}

fn put_list<T>(
    out: &mut String,
    lit: &str,
    items: impl IntoIterator<Item = T>,
    put: impl Fn(&mut String, T),
) {
    out.push_str(lit);
    out.push('[');
    put_each(out, items, put);
    out.push(']');
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

/// A tally: its error counts as a label → count object, then its
/// successes.
fn put_availability(out: &mut String, lit: &str, a: &Tally) {
    out.push_str(lit);
    out.push_str("{\"errors\":{");
    put_each(out, a.errors(), |out, (kind, n)| {
        json::write_str(out, kind.label());
        put_count(out, ":", n);
    });
    put_count(out, "},\"successes\":", a.successes);
    out.push('}');
}

/// One manifest entry: a pending shard's index, or a complete shard's
/// record.
fn put_entry(out: &mut String, (shard, state): (usize, &ShardState)) {
    let state = match state {
        ShardState::Pending => {
            put_count(out, "{\"shard\":", shard as u64);
            "pending"
        }
        ShardState::Complete(c) => {
            put_count(out, "{\"bytes\":", c.bytes);
            put_count(out, ",\"cell_bytes\":", c.cell_bytes);
            put_hex(out, ",\"cell_checksum\":", c.cell_checksum, true);
            put_hex(out, ",\"checksum\":", c.checksum, true);
            put_count(out, ",\"records\":", c.records);
            put_count(out, ",\"shard\":", shard as u64);
            "complete"
        }
    };
    let _ = write!(out, ",\"state\":\"{state}\"}}");
}

/// One pair's entry, as [`PairCells`] holds it: the aggregate cell, the
/// retry exhaustions and day cells, the metrics cell, and the pair index,
/// written once for all four.
fn put_pair(out: &mut String, p: &PairCells) {
    let a = &p.aggregate;
    out.push_str("{\"aggregate\":");
    put_availability(out, "{\"availability\":", &a.cell.availability);
    put_sketch(out, ",\"ping\":", &a.cell.ping);
    out.push_str(",\"resolver\":");
    json::write_str(out, a.resolver.as_str());
    put_sketch(out, ",\"response\":", &a.cell.response);
    out.push_str(",\"vantage\":");
    json::write_str(out, a.vantage.as_str());
    put_list(out, "},\"exhausted\":", &p.exhausted, |out, e| {
        put_count(out, "{\"at\":", e.at);
        put_count(out, ",\"attempts\":", e.attempts.into());
        out.push('}');
    });
    put_list(out, ",\"health\":", &p.health, |out, (day, cell)| {
        put_availability(out, "{\"availability\":", &cell.availability);
        put_count(out, ",\"day\":", (*day).into());
        put_sketch(out, ",\"response\":", &cell.response);
        out.push('}');
    });
    put_metrics(out, ",\"metrics\":", &p.metrics);
    put_count(out, ",\"pair\":", a.pair.into());
    out.push('}');
}

/// A metrics cell without its error tallies, which are its aggregate's.
/// Floats (histogram sums, the last response) round-trip bit-exactly, so
/// a decoded cell snapshots exactly like the fold that produced it.
fn put_metrics(out: &mut String, lit: &str, c: &CellMetrics) {
    out.push_str(lit);
    put_count(out, "{\"cache_hits\":", c.cache_hits.get());
    put_count(out, ",\"exhausted\":", c.exhausted.get());
    put_float(out, ",\"last_response_ms\":", c.last_response_ms.get());
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

/// A manifest: its entries must list the shards in order, one each.
fn take_manifest(r: &mut LineReader) -> Option<Manifest> {
    let mut next = 0;
    let states = take_list(r, "{\"entries\":", |r| {
        let (shard, state) = take_entry(r)?;
        if shard != next {
            return None;
        }
        next += 1;
        Some(state)
    })?;
    let fingerprint = take_hex(r, ",\"fingerprint\":", true)?;
    let pairs = take_index(r, ",\"pairs\":")?;
    let seed = take_hex(r, ",\"seed\":", false)?;
    take_count(r, ",\"shards\":").filter(|&n| n == states.len() as u64)?;
    r.eat("}")?;
    Some(Manifest {
        fingerprint,
        seed,
        pairs,
        states,
    })
}

fn take_entry(r: &mut LineReader) -> Option<(u32, ShardState)> {
    if r.try_eat("{\"shard\":") {
        let shard = take_index(r, "")?;
        r.eat(",\"state\":\"pending\"}")?;
        return Some((shard, ShardState::Pending));
    }
    let bytes = take_count(r, "{\"bytes\":")?;
    let cell_bytes = take_count(r, ",\"cell_bytes\":")?;
    let cell_checksum = take_hex(r, ",\"cell_checksum\":", true)?;
    let checksum = take_hex(r, ",\"checksum\":", true)?;
    let records = take_count(r, ",\"records\":")?;
    let shard = take_index(r, ",\"shard\":")?;
    r.eat(",\"state\":\"complete\"}")?;
    let complete = ShardCheckpoint {
        shard,
        records,
        bytes,
        checksum,
        cell_bytes,
        cell_checksum,
    };
    Some((shard, ShardState::Complete(complete)))
}

fn take_cells(r: &mut LineReader) -> Option<ShardCells> {
    let pairs = take_list(r, "{\"pairs\":", take_pair)?;
    let shard = take_index(r, ",\"shard\":")?;
    r.eat("}")?;
    Some(ShardCells { shard, pairs })
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

fn take_hex(r: &mut LineReader, lit: &str, padded: bool) -> Option<u64> {
    r.eat(lit)?;
    read_hex(&r.string()?, padded)
}

/// Comma-separated items up to `close`: `take` reads each.
fn take_each(
    r: &mut LineReader,
    close: &str,
    mut take: impl FnMut(&mut LineReader) -> Option<()>,
) -> Option<()> {
    if r.try_eat(close) {
        return Some(());
    }
    loop {
        take(r)?;
        if !r.try_eat(",") {
            return r.eat(close);
        }
    }
}

fn take_list<T>(
    r: &mut LineReader,
    lit: &str,
    mut take: impl FnMut(&mut LineReader) -> Option<T>,
) -> Option<Vec<T>> {
    r.eat(lit)?;
    r.eat("[")?;
    let mut items = Vec::new();
    take_each(r, "]", |r| {
        items.push(take(r)?);
        Some(())
    })?;
    Some(items)
}

/// A fixed-arity array of counts.
fn take_counts<const N: usize>(r: &mut LineReader, lit: &str) -> Option<[u64; N]> {
    take_list(r, lit, |r| take_count(r, ""))?.try_into().ok()
}

/// Counts whose total is `n`, which no overflow reaches.
fn total_is(counts: &[u64], n: u64) -> bool {
    counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) == Some(n)
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

/// A tally: each error label must be one a probe can fail with. A
/// repeated label keeps its last count, as a parsed object would.
fn take_availability(r: &mut LineReader, lit: &str) -> Option<Tally> {
    r.eat(lit)?;
    r.eat("{\"errors\":{")?;
    let mut tally = Tally::default();
    take_each(r, "}", |r| {
        let kind = ProbeErrorKind::from_label(&r.string()?)?;
        tally.set_errors(kind, take_count(r, ":")?);
        Some(())
    })?;
    tally.successes = take_count(r, ",\"successes\":")?;
    r.eat("}")?;
    Some(tally)
}

fn take_label(r: &mut LineReader, lit: &str) -> Option<Label> {
    r.eat(lit)?;
    Some(Label::intern(&r.string()?))
}

/// One pair's entry. The pair index comes last, and is its aggregate
/// cell's and each of its exhaustions'.
fn take_pair(r: &mut LineReader) -> Option<PairCells> {
    let availability = take_availability(r, "{\"aggregate\":{\"availability\":")?;
    let ping = take_sketch(r, ",\"ping\":")?;
    let resolver = take_label(r, ",\"resolver\":")?;
    let response = take_sketch(r, ",\"response\":")?;
    let vantage = take_label(r, ",\"vantage\":")?;
    let exhausted = take_list(r, "},\"exhausted\":", |r| {
        let at = take_count(r, "{\"at\":")?;
        let attempts = take_index(r, ",\"attempts\":")?;
        r.eat("}")?;
        Some((at, attempts))
    })?;
    let health = take_list(r, ",\"health\":", |r| {
        let availability = take_availability(r, "{\"availability\":")?;
        let day = take_index(r, ",\"day\":")?;
        let response = take_sketch(r, ",\"response\":")?;
        r.eat("}")?;
        let cell = HealthCell {
            availability,
            response,
        };
        Some((day, cell))
    })?;
    let metrics = take_metrics(r, ",\"metrics\":")?;
    let pair = take_index(r, ",\"pair\":")?;
    r.eat("}")?;
    let exhausted = exhausted.into_iter();
    let exhausted = exhausted.map(|(at, attempts)| RetryExhausted { pair, at, attempts });
    Some(PairCells {
        aggregate: PairAggregate {
            pair,
            vantage,
            resolver,
            cell: AggregateCell {
                availability,
                response,
                ping,
            },
        },
        metrics,
        health,
        exhausted: exhausted.collect(),
    })
}

/// A metrics cell, its error tallies left empty: there is a histogram and
/// a retry count per phase.
fn take_metrics(r: &mut LineReader, lit: &str) -> Option<CellMetrics> {
    let counter = |n| {
        let mut c = Counter::default();
        c.add(n);
        c
    };
    r.eat(lit)?;
    let cache_hits = take_count(r, "{\"cache_hits\":")?;
    let exhausted = take_count(r, ",\"exhausted\":")?;
    let mut last_response_ms = Gauge::default();
    last_response_ms.set(take_float(r, ",\"last_response_ms\":")?);
    let phases = take_list(r, ",\"phases\":", |r| take_histogram(r, ""))?;
    let ping_ms = take_histogram(r, ",\"ping\":")?;
    let probes = take_count(r, ",\"probes\":")?;
    let recovered = take_count(r, ",\"recovered\":")?;
    let response_ms = take_histogram(r, ",\"response\":")?;
    let retries = take_counts::<{ Phase::COUNT }>(r, ",\"retries\":")?;
    let successes = take_count(r, ",\"successes\":")?;
    r.eat("}")?;
    Some(CellMetrics {
        probes: counter(probes),
        successes: counter(successes),
        cache_hits: counter(cache_hits),
        errors: Default::default(),
        response_ms,
        ping_ms,
        phase_ms: phases.try_into().ok()?,
        last_response_ms,
        retries_by_phase: retries.map(counter),
        recovered: counter(recovered),
        exhausted: counter(exhausted),
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

    fn sample_health() -> Vec<(u32, HealthCell)> {
        let mut day0 = HealthCell::default();
        day0.availability.success();
        day0.availability.success();
        day0.response.observe(12.5);
        day0.response.observe(48.25);
        let mut day1 = HealthCell::default();
        day1.availability.error(ProbeErrorKind::QueryTimeout);
        vec![(0, day0), (1, day1)]
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
        let pair = |pair, resolver, cell| PairAggregate {
            pair,
            vantage: Label::intern("home-us-east"),
            resolver: Label::intern(resolver),
            cell,
        };
        ShardCells {
            shard: 1,
            pairs: vec![
                PairCells {
                    aggregate: pair(2, "dns.google", sample_cell()),
                    metrics: sample_metrics(),
                    health: sample_health(),
                    exhausted: vec![RetryExhausted {
                        pair: 2,
                        at: 7_200_000_000_000,
                        attempts: 3,
                    }],
                },
                PairCells {
                    aggregate: pair(3, "dns.quad9.net", AggregateCell::default()),
                    metrics: CellMetrics::default(),
                    health: Vec::new(),
                    exhausted: Vec::new(),
                },
            ],
        }
    }

    fn sample_metrics() -> CellMetrics {
        let mut m = CellMetrics::default();
        m.probes.add(3);
        m.successes.add(2);
        m.cache_hits.inc();
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
            assert!(header.starts_with("edns-checkpoint v6 "));
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
        // A future format, and the earlier ones: v5 cell files listed the
        // cells in four sections, v4 summed with byte-serial FNV-1a, v3
        // cell files had no metrics cells, v2 kept every cell in the
        // manifest, v1 had no health cells. No silent resume from any —
        // the engine re-runs from scratch.
        for other in ["v7", "v5", "v4", "v3", "v2", "v1"] {
            let text = sample_manifest().encode().replacen("v6", other, 1);
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
        let (cells, text) = (sample_cells(), sample_cells().encode());
        let back = ShardCells::decode(&text).unwrap();
        assert_eq!(
            back.pairs[0].metrics.response_ms.sum().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        // The aggregate's tally is the one copy of the errors: a metrics
        // cell holds none, and the pair index is the entry's alone.
        let metrics = text.split(",\"metrics\":").nth(1).unwrap();
        assert!(metrics.starts_with("{\"cache_hits\":1,\"exhausted\":1,"));
        assert_eq!(text.matches("\"errors\":").count(), 4);
        assert_eq!(text.matches("\"pair\":").count(), 2);
        // An error label no probe fails with, a histogram whose buckets
        // disagree with its count, one phase histogram too many, and the
        // v5 shapes — errors in a metrics cell, a pair index in an
        // aggregate cell — are all rejected.
        for (from, to) in [
            ("\"query_timeout\":", "\"gremlins\":"),
            ("\"n\":2,\"sum\"", "\"n\":3,\"sum\""),
            ("],\"ping\":", ",{\"n\":0}],\"ping\":"),
            (
                "{\"cache_hits\":1,\"exhausted\"",
                "{\"cache_hits\":1,\"errors\":{},\"exhausted\"",
            ),
            ("},\"ping\":{", "},\"pair\":2,\"ping\":{"),
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
        let cells = sample_cells();
        let back = ShardCells::decode(&cells.encode()).unwrap();
        assert_eq!(back.pairs[0].health, sample_health());
        // A tampered day count is caught by the sketch validator; a day
        // past u32 and an exhaustion naming a pair (v5's shape) are
        // refused.
        let health = |from: &'static str, to: &'static str| {
            move |body: &str| {
                let (head, tail) = body.split_once(",\"health\":").unwrap();
                format!("{head},\"health\":{}", tail.replacen(from, to, 1))
            }
        };
        for text in [
            reframed(&cells, health("\"n\":2}", "\"n\":3}")),
            reframed(&cells, health("\"day\":1,", "\"day\":4294967296,")),
            reframed(&cells, |body| {
                body.replacen("\"attempts\":3}", "\"attempts\":3,\"pair\":2}", 1)
            }),
        ] {
            assert!(matches!(
                ShardCells::decode(&text),
                Err(CheckpointError::Parse(_))
            ));
        }
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
