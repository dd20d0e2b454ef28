//! Support shared by the campaign suites: one roster, one config builder
//! and one scratch-dir helper, and the rows of the equivalence matrix
//! (`equivalence.rs`) with the anchor line that pins each (row, seed)'s
//! `run()` in `golden/equivalence_anchors.txt`. `golden_regen` includes
//! this file to write that table.

#![allow(dead_code)]

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use measure::checkpoint::fnv64;
use measure::{Campaign, CampaignConfig, LoadModel, Protocol, RetryPolicy, SessionConfig, Span};
use netsim::SimDuration;

/// A healthy anycast mainstream resolver (cache hits, successes), a
/// mostly-down host (connection failures, blackholes) and an
/// HTTP/1.1-only flaky host (the DoH h1 fallback).
pub const ROSTER: [&str; 3] = [
    "dns.google",
    "chewbacca.meganerd.nl",
    "ibksturm.synology.me",
];

pub const PROTOCOLS: [Protocol; 5] = [
    Protocol::Do53,
    Protocol::DoT,
    Protocol::DoH,
    Protocol::DoQ,
    Protocol::ODoH,
];

/// `config` over the roster, its first resolver listed again when `twice`.
pub fn campaign(config: CampaignConfig, twice: bool) -> Campaign {
    let hosts = ROSTER.iter().chain(ROSTER.iter().take(usize::from(twice)));
    over(config, hosts)
}

/// The roster of the seed-4 golden fixtures (`golden/campaign_seed4*`).
pub const GOLDEN_ROSTER: [&str; 4] = [
    "dns.google",
    "dns.quad9.net",
    "doh.ffmuc.net",
    "chewbacca.meganerd.nl",
];

/// `config` over the golden fixtures' roster.
pub fn golden_campaign(config: CampaignConfig) -> Campaign {
    over(config, GOLDEN_ROSTER.iter())
}

fn over<'a>(config: CampaignConfig, hosts: impl Iterator<Item = &'a &'a str>) -> Campaign {
    let entries = hosts.map(|h| catalog::resolvers::find(h).unwrap());
    Campaign::with_resolvers(config, entries.collect())
}

/// `quick(seed, 2)` over `protocol`, under the default fault plan when
/// `faulted`, with retry policy `retry`: none, dig's defaults, or three
/// tries with jittered backoff (retries draw extra RNG, so a path that
/// mis-sequenced attempts would diverge).
pub fn quick(seed: u64, protocol: Protocol, faulted: bool, retry: usize) -> CampaignConfig {
    let mut config = CampaignConfig::quick(seed, 2);
    if faulted {
        config = config.with_default_faults();
    }
    config.probe.protocol = protocol;
    config.probe.retry = match retry {
        0 => RetryPolicy::none(),
        1 => RetryPolicy::dig_defaults(),
        _ => RetryPolicy {
            tries: 3,
            attempt_timeout: Some(SimDuration::from_millis(800)),
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(1),
            jitter: 0.5,
        },
    };
    config
}

/// The probe matrix's campaign cells (`golden/probe_matrix.txt`), each
/// `quick(seed, 2)` over `protocol` under one named arm.
pub fn probe_matrix_config(seed: u64, protocol: Protocol, cell: &str) -> CampaignConfig {
    let faulted = || quick(seed, protocol, true, 1);
    match cell {
        "plain" => quick(seed, protocol, false, 0),
        "faults_dig" => faulted(),
        "faults_jitter3" => quick(seed, protocol, true, 2),
        "faults_dig_load2" => faulted().with_load(LoadModel::standard(seed).with_multiplier(2.0)),
        "faults_dig_interleaved" => faulted().with_session(SessionConfig::interleaved(0.3)),
        "warm" => quick(seed, protocol, false, 0).with_session(SessionConfig::warm()),
        other => panic!("unknown matrix cell {other}"),
    }
}

/// A directory of its own under the system temp dir, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = format!("edns-test-{}-{n}", std::process::id());
        let dir = std::env::temp_dir().join(dir);
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<OsStr> for Scratch {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every row of the matrix runs at both.
pub const SEEDS: [u64; 2] = [11, 97];

/// One configuration of the matrix.
pub struct Row {
    pub name: &'static str,
    pub config: fn(u64) -> CampaignConfig,
    /// The roster's first resolver is listed again at its end: the
    /// in-memory engine routes its records to the first pair, the sharded
    /// engine refuses the campaign.
    pub listed_twice: bool,
}

impl Row {
    /// The row's campaign at `seed`.
    pub fn campaign(&self, seed: u64) -> Campaign {
        campaign((self.config)(seed), self.listed_twice)
    }
}

/// The default fault plan with dig retries, a client population at ×2 and
/// interleaved sessions: every feature that moves a record at once, over
/// two days, so that the health series has more than one.
fn composed(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::quick(seed, 2);
    for span in &mut config.spans {
        span.days = 2;
    }
    config
        .with_default_faults()
        .with_load(LoadModel::standard(seed).with_multiplier(2.0))
        .with_session(SessionConfig::interleaved(0.25))
}

/// One home vantage also runs a second, overlapping span: its rounds at
/// 0 h and 12 h come twice, and only the stable tie-break orders them.
fn overlapping_spans(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::quick(seed, 2);
    config.spans.push(Span {
        start_day: 0,
        days: 1,
        rounds_per_day: 4,
        vantages: config.spans[0].vantages[..1].to_vec(),
    });
    config
}

/// Domains listed against their rank order, one of them twice.
fn domains_out_of_rank_order(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::quick(seed, 2);
    config.domains = ["wikipedia.com", "google.com", "amazon.com", "google.com"]
        .map(String::from)
        .to_vec();
    config
}

const fn row(name: &'static str, config: fn(u64) -> CampaignConfig) -> Row {
    Row {
        name,
        config,
        listed_twice: false,
    }
}

pub const ROWS: [Row; 8] = [
    row("plain", |seed| CampaignConfig::quick(seed, 2)),
    row("faults", |seed| quick(seed, Protocol::DoH, true, 1)),
    row("load", |seed| {
        let load = LoadModel::standard(seed).with_multiplier(2.0);
        CampaignConfig::quick(seed, 2).with_load(load)
    }),
    row("sessions", |seed| {
        CampaignConfig::quick(seed, 2).with_session(SessionConfig::interleaved(0.25))
    }),
    row("composed", composed),
    row("overlapping_spans", overlapping_spans),
    row("domains_out_of_rank_order", domains_out_of_rank_order),
    Row {
        listed_twice: true,
        ..row("listed_twice", |seed| CampaignConfig::quick(seed, 2))
    },
];

/// The anchor table's header.
pub const ANCHORS_HEADER: &str = "\
# equivalence anchors: per (row, seed) of tests/support's matrix rows, the
# record count, byte count and FNV-1a (checkpoint::fnv64) of run()'s JSONL,
# which every engine of tests/equivalence.rs reproduces. Written by
# golden_regen.
";

/// The anchor line of `row` at `seed`, whose `run()` wrote `jsonl`.
pub fn anchor_line(row: &Row, seed: u64, records: usize, jsonl: &str) -> String {
    format!(
        "row={} seed={seed} records={records} bytes={} fnv64={:016x}",
        row.name,
        jsonl.len(),
        fnv64(jsonl.as_bytes())
    )
}
