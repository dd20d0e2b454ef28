//! Differential pinning of the strict line reader against the tree path:
//! for every line the engine writes, `ProbeRecord::read_json_line(l)` must
//! equal `ProbeRecord::from_json(json::parse(l))` — both record shapes,
//! with and without the retry and `conn_mode` keys — so `FromStr` and
//! `edns-measure report`, which read each line back with the former, get
//! exactly the records the tree path does.
//!
//! On hostile input (every truncation, seeded single-byte mutations) the
//! reader may be stricter than the tree path, never different: it must
//! not panic, and a record it does return is the tree path's record.

mod support;

use measure::json;
use measure::{
    CampaignConfig, ConnectionMode, Label, LoadModel, ProbeErrorKind, ProbeOutcome, ProbeRecord,
    ProbeTimings, Protocol, RetryInfo, SessionConfig,
};
use netsim::{Region, SimDuration, SimTime};
use proptest::prelude::*;

use support::{campaign, quick, PROTOCOLS};

fn tree(line: &str) -> Option<ProbeRecord> {
    json::parse(line)
        .ok()
        .as_ref()
        .and_then(ProbeRecord::from_json)
}

/// An engine-written line: both paths read it, to the same record.
fn assert_reads_like_the_tree(line: &str, context: &str) {
    let read = ProbeRecord::read_json_line(line);
    assert!(read.is_some(), "unread engine line ({context}): {line}");
    assert_eq!(read, tree(line), "{context}: {line}");
}

/// Any text at all: whatever the reader returns, the tree path returns.
fn assert_never_differs(text: &str, context: &str) {
    if let Some(record) = ProbeRecord::read_json_line(text) {
        assert_eq!(Some(record), tree(text), "{context}: {text}");
    }
}

/// The four campaign flavours whose lines differ in shape: plain, faults
/// with retries, faults under 2x load, faults with interleaved sessions.
fn flavours(seed: u64, protocol: Protocol) -> Vec<(&'static str, CampaignConfig)> {
    let faulted = || quick(seed, protocol, true, 1);
    let load = LoadModel::standard(seed).with_multiplier(2.0);
    let sessions = SessionConfig::interleaved(0.3);
    vec![
        ("plain", quick(seed, protocol, false, 0)),
        ("faults + retries", faulted()),
        ("faults + retries + load 2", faulted().with_load(load)),
        (
            "faults + retries + interleaved sessions",
            faulted().with_session(sessions),
        ),
    ]
}

/// The roster's JSONL under `config`: successes, failures and retries all
/// occur.
fn lines_of(config: CampaignConfig) -> String {
    campaign(config, false).run().to_json_lines()
}

#[test]
fn golden_fixtures_read_like_the_tree() {
    for (name, fixture) in [
        (
            "campaign_seed4.jsonl",
            include_str!("golden/campaign_seed4.jsonl"),
        ),
        (
            "campaign_seed4_retries.jsonl",
            include_str!("golden/campaign_seed4_retries.jsonl"),
        ),
    ] {
        assert!(fixture.lines().count() > 100, "{name} is populated");
        for line in fixture.lines() {
            assert_reads_like_the_tree(line, name);
        }
    }
}

#[test]
fn every_flavour_and_protocol_reads_like_the_tree() {
    let (mut failures, mut retried, mut warm) = (0, 0, 0);
    for protocol in PROTOCOLS {
        for (flavour, config) in flavours(23, protocol) {
            for line in lines_of(config).lines() {
                assert_reads_like_the_tree(line, &format!("{protocol:?}, {flavour}"));
                failures += usize::from(line.contains("\"success\":false"));
                retried += usize::from(line.contains("\"attempt_errors\":[\""));
                warm += usize::from(line.contains("\"conn_mode\":\"re"));
            }
        }
    }
    // The sweep reached every optional key and both shapes.
    assert!(
        failures > 0 && retried > 0 && warm > 0,
        "{failures} {retried} {warm}"
    );
}

/// Both shapes in every combination of the optional keys, with a vantage
/// label that needs each escape the writer can emit — the lines a
/// campaign cannot be relied on to produce. The retry accounting is what
/// the engine makes for each shape: a first-try success, a success
/// recovered after two burned attempts, a failure on its only attempt and
/// one that exhausted three.
#[test]
fn hand_built_records_round_trip_through_both_paths() {
    use ProbeErrorKind::{ConnectTimeout, QueryTimeout};
    let success = ProbeOutcome::Success {
        timings: ProbeTimings::from_legs(
            SimDuration::from_nanos(5_200),
            SimDuration::from_millis_f64(7.2),
            SimDuration::from_millis_f64(8.1),
            SimDuration::from_millis_f64(7.9),
            SimDuration::from_millis_f64(0.5),
            SimDuration::from_nanos(6_000),
        ),
        cache_hit: false,
        site: 3,
    };
    let failure = ProbeOutcome::Failure {
        kind: ConnectTimeout,
        elapsed: SimDuration::from_secs(15),
    };
    let shapes = [
        (success, None),
        (success, RetryInfo::new(&[], SimDuration::ZERO)),
        (
            success,
            RetryInfo::new(
                &[ConnectTimeout, QueryTimeout],
                SimDuration::from_millis_f64(10_000.25),
            ),
        ),
        (failure, None),
        (failure, RetryInfo::new(&[], SimDuration::ZERO)),
        (
            failure,
            RetryInfo::new(&[QueryTimeout, ConnectTimeout], SimDuration::ZERO),
        ),
    ];
    for vantage in ["home-1", "we\"ird\\van\ntage\r\t\u{1}\u{1f}é漢"] {
        for (outcome, retry) in shapes {
            for mode in [
                None,
                Some(ConnectionMode::Cold),
                Some(ConnectionMode::Reused),
            ] {
                let record = ProbeRecord::new(
                    SimTime::from_nanos(86_400_000_000_123),
                    Label::intern(vantage),
                    Label::intern("doh.example"),
                    Region::Europe,
                    false,
                    Label::intern("amazon.com"),
                    Protocol::DoH,
                    outcome,
                    None,
                )
                .with_retry(retry)
                .with_conn_mode(mode);
                let mut line = String::new();
                record.write_json_line(&mut line);
                assert_reads_like_the_tree(&line, "hand-built");
                assert_eq!(ProbeRecord::read_json_line(&line), Some(record));
            }
        }
    }
}

/// Retry accounting no probe makes: the engine writes a success's burned
/// attempts and a failure's as well as its final `error`, one attempt at
/// least, and the `ttfb_ms` and `ttlb_ms` that the outcome and the burned
/// time make. The strict reader holds a line to all of that.
#[test]
fn retry_accounting_the_engine_never_writes_is_declined() {
    let fixture = include_str!("golden/campaign_seed4_retries.jsonl");
    let line = |prefix: &str| {
        fixture
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no line starts {prefix}"))
    };
    let first_try = line(r#"{"attempt_errors":[],"attempts":1,"cache_hit""#);
    let recovered = line(r#"{"attempt_errors":["connect_timeout"],"attempts":2,"cache_hit""#);
    let exhausted = line(
        r#"{"attempt_errors":["connect_timeout","connect_timeout","connect_timeout"],"attempts":3,"domain""#,
    );
    for engine_line in [first_try, recovered, exhausted] {
        assert_reads_like_the_tree(engine_line, "fixture");
    }
    let nudged_both = |l: &str| nudged(&nudged(l, "ttfb_ms"), "ttlb_ms");
    for (what, text) in [
        (
            "no attempt",
            first_try.replacen(r#""attempts":1"#, r#""attempts":0"#, 1),
        ),
        (
            "more errors than attempts",
            recovered.replacen(
                r#"["connect_timeout"],"attempts":2"#,
                r#"["connect_timeout","connect_timeout","connect_timeout"],"attempts":2"#,
                1,
            ),
        ),
        (
            "a success with as many errors as attempts",
            recovered.replacen(
                r#"["connect_timeout"],"attempts":2"#,
                r#"["connect_timeout","connect_timeout"],"attempts":2"#,
                1,
            ),
        ),
        (
            "a success with fewer errors than attempts - 1",
            recovered.replacen(r#""attempts":2"#, r#""attempts":3"#, 1),
        ),
        (
            "a failure with fewer errors than attempts",
            exhausted.replacen(
                r#","connect_timeout"],"attempts":3"#,
                r#"],"attempts":3"#,
                1,
            ),
        ),
        (
            "a failure whose last error is not its error",
            exhausted.replacen(
                r#""connect_timeout"],"attempts":3"#,
                r#""query_timeout"],"attempts":3"#,
                1,
            ),
        ),
        (
            "a success's ttfb off its ttlb",
            nudged(recovered, "ttfb_ms"),
        ),
        (
            "a success's ttlb off its ttfb",
            nudged(recovered, "ttlb_ms"),
        ),
        ("a first try that burned time", nudged_both(first_try)),
        (
            "a failure's ttfb off its elapsed",
            nudged(exhausted, "ttfb_ms"),
        ),
        (
            "a failure's ttlb off its elapsed",
            nudged(exhausted, "ttlb_ms"),
        ),
        ("a failure's legs off its elapsed", nudged_both(exhausted)),
        (
            "a ping of 2^64 - 1 ns",
            with_number(recovered, "ping_ms", |_| {
                "18446744073709.551615".to_string()
            }),
        ),
    ] {
        assert!(
            ![first_try, recovered, exhausted].contains(&text.as_str()),
            "{what}"
        );
        assert_eq!(ProbeRecord::read_json_line(&text), None, "{what}: {text}");
        assert!(text.parse::<ProbeRecord>().is_err(), "{what}");
    }
    // `ttfb_ms` is derived and the tree path never looked at it; a
    // success's `ttlb_ms` holds its burned time, and moving it and
    // `ttfb_ms` together is another engine line.
    let record = ProbeRecord::read_json_line(recovered).unwrap();
    assert_eq!(tree(&nudged(recovered, "ttfb_ms")), Some(record));
    let later = ProbeRecord::read_json_line(&nudged_both(recovered)).expect("an engine line");
    let burned = |r: &ProbeRecord| r.retry.unwrap().burned().as_nanos();
    assert_eq!(burned(&later), burned(&record) + 1);
}

#[test]
fn what_the_writer_would_not_write_is_rejected() {
    let fixture = include_str!("golden/campaign_seed4.jsonl");
    let line = fixture.lines().find(|l| l.contains("\"site\":0,")).unwrap();
    assert!(ProbeRecord::read_json_line(line).is_some());
    for (what, text) in [
        ("leading space", format!(" {line}")),
        ("trailing space", format!("{line} ")),
        ("trailing newline", format!("{line}\n")),
        ("space after a colon", line.replacen("\":", "\": ", 1)),
        ("an extra key", line.replacen('{', "{\"a\":1,", 1)),
        (
            "an escape it never emits",
            line.replacen("\"doh\"", "\"do\\u0068\"", 1),
        ),
        (
            "a float where it writes a count",
            line.replacen("\"site\":0,", "\"site\":0.0,", 1),
        ),
        (
            "a negative site",
            line.replacen("\"site\":0,", "\"site\":-1,", 1),
        ),
        ("two records", format!("{line}{line}")),
        ("nothing", String::new()),
    ] {
        assert_eq!(ProbeRecord::read_json_line(&text), None, "{what}: {text}");
    }
    // The tree path reads most of those; that is what it is kept for.
    assert!(tree(&format!(" {line} ")).is_some());
}

/// `line` with the number after the first `"key":` replaced.
fn with_number(line: &str, key: &str, new: impl Fn(&str) -> String) -> String {
    let start = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
    let end = start + line[start..].find([',', '}']).unwrap();
    let new = new(&line[start..end]);
    format!("{}{new}{}", &line[..start], &line[end..])
}

/// `line` with the number after the first `"key":` a nanosecond larger.
fn nudged(line: &str, key: &str) -> String {
    with_number(line, key, |old| {
        let nanos = (old.parse::<f64>().unwrap() * 1e6).round() as u64 + 1;
        format!("{}.{:06}", nanos / 1_000_000, nanos % 1_000_000)
    })
}

/// The four top-level legs of a success line repeat what `phases` holds.
/// The strict reader holds them to it, to the nanosecond, and so does
/// `FromStr`, which is that reader alone; the tree path never looked at
/// them.
#[test]
fn a_derived_field_that_disagrees_with_the_phases_is_declined() {
    let fixture = include_str!("golden/campaign_seed4_retries.jsonl");
    let line = fixture.lines().find(|l| l.contains("\"site\":0,")).unwrap();
    let record = ProbeRecord::read_json_line(line).expect("an engine line");
    // In line order, so the first `"connect_ms":` is the top-level one.
    for key in ["connect_ms", "query_ms", "response_ms", "secure_ms"] {
        let text = nudged(line, key);
        assert_ne!(text, line);
        assert_eq!(ProbeRecord::read_json_line(&text), None, "{key}: {text}");
        assert_eq!(tree(&text).as_ref(), Some(&record), "{key}: {text}");
        assert!(text.parse::<ProbeRecord>().is_err(), "{key}");
    }
    // A phase moved without its legs is as inconsistent.
    for key in ["tls_handshake_ms", "server_processing_ms", "dns_decode_ms"] {
        assert_eq!(
            ProbeRecord::read_json_line(&nudged(line, key)),
            None,
            "{key}"
        );
    }
    // Legs whose sum does not fit 64 bits equal nothing, and panic nowhere.
    let huge = ["http_exchange_ms", "server_processing_ms"]
        .iter()
        .fold(line.to_string(), |l, key| {
            with_number(&l, key, |_| "1e13".to_string())
        });
    assert!(tree(&huge).is_some());
    assert_eq!(ProbeRecord::read_json_line(&huge), None);
}

/// Every 7th line of a faulted, retried, session-driven campaign (both
/// shapes, every optional key) and of the plain golden fixture.
fn hostile_sample() -> Vec<String> {
    let warm = lines_of(flavours(9, Protocol::DoH).pop().unwrap().1);
    let sample: Vec<String> = warm
        .lines()
        .chain(include_str!("golden/campaign_seed4.jsonl").lines())
        .step_by(7)
        .map(str::to_string)
        .collect();
    assert!(sample.iter().any(|l| l.contains("\"success\":false")));
    assert!(sample.iter().any(|l| l.contains("\"conn_mode\"")));
    sample
}

#[test]
fn truncation_at_every_offset_never_panics_or_differs() {
    for line in hostile_sample() {
        for end in 0..line.len() {
            if line.is_char_boundary(end) {
                assert_never_differs(&line[..end], "truncated");
                assert_eq!(ProbeRecord::read_json_line(&line[..end]), None);
            }
        }
    }
}

#[test]
fn seeded_single_byte_mutations_never_panic_or_differ() {
    // splitmix64: seeded, so a failure names a reproducible mutation.
    let mut state = 0x5eed_0012u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut still_read = 0;
    for line in hostile_sample() {
        for _ in 0..400 {
            let mut bytes = line.clone().into_bytes();
            let at = (next() % bytes.len() as u64) as usize;
            // Mostly the bytes a record is made of, so that mutations land
            // on other valid tokens; sometimes any ASCII byte at all.
            let pool = b"0123456789.eE+-\",:{}[]\\ntrufalsn ";
            bytes[at] = match next() % 4 {
                0 => (next() % 128) as u8,
                _ => pool[(next() % pool.len() as u64) as usize],
            };
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            assert_never_differs(&text, &format!("byte {at} mutated"));
            still_read += usize::from(ProbeRecord::read_json_line(&text).is_some());
        }
    }
    // Digit-for-digit mutations keep a line readable: the comparison above
    // was not vacuous.
    assert!(still_read > 100, "{still_read} mutated lines still read");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_campaigns_read_like_the_tree(
        seed in any::<u64>(),
        proto_idx in 0usize..PROTOCOLS.len(),
    ) {
        for (flavour, config) in flavours(seed, PROTOCOLS[proto_idx]) {
            for line in lines_of(config).lines() {
                assert_reads_like_the_tree(
                    line,
                    &format!("seed={seed}, {:?}, {flavour}", PROTOCOLS[proto_idx]),
                );
            }
        }
    }
}
