//! The campaign flight recorder's structured event journal.
//!
//! A [`Journal`] is the complete, severity-leveled list of a campaign's
//! [`JournalEvent`]s stamped in **simulated** time: shard lifecycle,
//! checkpoint traffic, fault-plan activations, retry exhaustions, SLO/drift
//! findings. Its one producer (`measure`'s shard assembly) collects the
//! events and hands them over in whatever order it met them;
//! [`Journal::from_events`] puts them in one canonical order, so the
//! [`to_jsonl`](Journal::to_jsonl) export is a pure function of the
//! campaign seed and configuration — two same-seed runs, or a one-shot run
//! and its kill+resume twin, export byte-identical `events.jsonl` streams,
//! every event included.
//!
//! Nothing about *this process*'s execution is an event: how many shards a
//! run adopted from checkpoints is `ShardRunMetrics::shards_resumed`.
//! Checkpoint *rejects* (bad magic, checksum or fingerprint mismatch) do
//! not appear either: the engine surfaces them as typed
//! `CheckpointError`s and aborts rather than resuming from bad state, so
//! there is no journal left to ship.

use std::fmt::Write as _;

use crate::intern::Label;
use crate::span::Nanos;
use crate::traceview::write_json_str;

/// Stable codes for the events the campaign engine records. Free-form
/// codes are allowed (any `&'static str`); these constants just keep the
/// engine, tests and docs in agreement.
pub mod codes {
    /// A shard's first probe fired.
    pub const SHARD_START: &str = "shard_start";
    /// A shard's last probe completed; `count` is its records.
    pub const SHARD_FINISH: &str = "shard_finish";
    /// A shard checkpoint was persisted; `count` is the shard's JSONL
    /// byte size (shard content is deterministic).
    pub const CHECKPOINT_STORE: &str = "checkpoint_store";
    /// A fault-plan window opened; `value` is its duration in ms.
    pub const FAULT_WINDOW: &str = "fault_window";
    /// A probe burned its whole retry budget; `count` is attempts.
    pub const RETRY_EXHAUSTED: &str = "retry_exhausted";
    /// Daily availability fell below the trailing baseline.
    pub const AVAILABILITY_BURN: &str = "availability_burn";
    /// Daily p95 response time drifted above the trailing baseline.
    pub const P95_DRIFT: &str = "p95_drift";
    /// The dominant error class changed against the baseline.
    pub const ERROR_MIX_SHIFT: &str = "error_mix_shift";
}

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventLevel {
    /// High-volume diagnostics (checkpoint traffic).
    Debug,
    /// Normal lifecycle (shard start/finish, fault windows).
    Info,
    /// Findings worth an operator's attention (drift, exhausted retries).
    Warn,
    /// Hard failures.
    Error,
}

impl EventLevel {
    /// The level's lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            EventLevel::Debug => "debug",
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

/// The optional, `Copy`-only payload of an event. Absent fields are
/// omitted from the JSONL line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventData {
    /// Shard index.
    pub shard: Option<u32>,
    /// Resolver hostname (interned).
    pub resolver: Option<Label>,
    /// Vantage label (interned).
    pub vantage: Option<Label>,
    /// Campaign day index.
    pub day: Option<u32>,
    /// A count (records, bytes, attempts — per code).
    pub count: Option<u64>,
    /// A measurement (ms, a ratio, an availability — per code).
    pub value: Option<f64>,
}

impl EventData {
    /// Payload with just a shard index.
    pub fn shard(index: u32) -> EventData {
        EventData {
            shard: Some(index),
            ..EventData::default()
        }
    }

    /// Builder: sets the count.
    pub fn with_count(mut self, count: u64) -> EventData {
        self.count = Some(count);
        self
    }

    /// Builder: sets the value.
    pub fn with_value(mut self, value: f64) -> EventData {
        self.value = Some(value);
        self
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEvent {
    /// Simulated time of the event, nanoseconds.
    pub at: Nanos,
    /// Severity.
    pub level: EventLevel,
    /// Stable event code (see [`codes`]).
    pub code: &'static str,
    /// Optional payload.
    pub data: EventData,
}

/// A campaign's events, all of them, in canonical order.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    events: Vec<JournalEvent>,
}

impl Journal {
    /// The journal of `events`, whatever order they arrive in. The
    /// canonical order is time, then code, then payload coordinates
    /// (shard, resolver, vantage, day, count): a pure function of the
    /// events themselves, so the export does not depend on shard execution
    /// interleaving. Events equal under that key keep their arrival order.
    pub fn from_events(mut events: Vec<JournalEvent>) -> Journal {
        events.sort_by_cached_key(|e| {
            (
                e.at,
                e.code,
                e.data.shard.unwrap_or(u32::MAX),
                e.data.resolver.map(|l| l.as_str()).unwrap_or(""),
                e.data.vantage.map(|l| l.as_str()).unwrap_or(""),
                e.data.day.unwrap_or(u32::MAX),
                e.data.count.unwrap_or(0),
            )
        });
        Journal { events }
    }

    /// Events recorded: the number of lines [`to_jsonl`](Self::to_jsonl)
    /// exports.
    pub fn recorded(&self) -> u64 {
        self.events.len() as u64
    }

    /// Events recorded at `level`.
    pub fn count_at(&self, level: EventLevel) -> u64 {
        self.events.iter().filter(|e| e.level == level).count() as u64
    }

    /// The events in canonical order.
    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> {
        self.events.iter()
    }

    /// Writes one event as a compact JSON line (no trailing newline).
    /// Fields appear in a fixed order; absent payload fields are omitted.
    fn write_event(out: &mut String, ev: &JournalEvent) {
        let _ = write!(
            out,
            "{{\"at\":{},\"level\":\"{}\",\"code\":\"{}\"",
            ev.at,
            ev.level.as_str(),
            ev.code
        );
        if let Some(s) = ev.data.shard {
            let _ = write!(out, ",\"shard\":{s}");
        }
        if let Some(r) = ev.data.resolver {
            out.push_str(",\"resolver\":");
            write_json_str(out, r.as_str());
        }
        if let Some(v) = ev.data.vantage {
            out.push_str(",\"vantage\":");
            write_json_str(out, v.as_str());
        }
        if let Some(d) = ev.data.day {
            let _ = write!(out, ",\"day\":{d}");
        }
        if let Some(c) = ev.data.count {
            let _ = write!(out, ",\"count\":{c}");
        }
        if let Some(v) = ev.data.value {
            // Rust's shortest-round-trip float formatting: deterministic,
            // re-parses bit-exactly.
            if v.is_finite() {
                let _ = write!(out, ",\"value\":{v}");
            }
        }
        out.push('}');
    }

    /// Exports every event as JSONL, in canonical order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            Self::write_event(&mut out, ev);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(at: Nanos, code: &'static str, data: EventData) -> JournalEvent {
        JournalEvent {
            at,
            level: EventLevel::Info,
            code,
            data,
        }
    }

    #[test]
    fn events_export_in_fixed_field_order() {
        let data = EventData::shard(3).with_count(42);
        let j = Journal::from_events(vec![info(5_000, codes::SHARD_START, data)]);
        assert_eq!(
            j.to_jsonl(),
            "{\"at\":5000,\"level\":\"info\",\"code\":\"shard_start\",\"shard\":3,\"count\":42}\n"
        );
    }

    #[test]
    fn labels_and_values_render() {
        let j = Journal::from_events(vec![JournalEvent {
            at: 1,
            level: EventLevel::Warn,
            code: codes::P95_DRIFT,
            data: EventData {
                resolver: Some(Label::intern("dns.google")),
                day: Some(9),
                value: Some(187.5),
                ..EventData::default()
            },
        }]);
        assert_eq!(j.count_at(EventLevel::Warn), 1);
        let line = j.to_jsonl();
        assert!(line.contains("\"level\":\"warn\""), "{line}");
        assert!(line.contains("\"resolver\":\"dns.google\""), "{line}");
        assert!(line.contains("\"day\":9"), "{line}");
        assert!(line.contains("\"value\":187.5"), "{line}");
    }

    #[test]
    fn every_event_is_exported_first_event_first() {
        let events = (0..10_000u64)
            .map(|i| info(i, "tick", EventData::default().with_count(i)))
            .collect();
        let j = Journal::from_events(events);
        assert_eq!(j.recorded(), 10_000);
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), 10_000);
        assert_eq!(
            text.lines().next(),
            Some("{\"at\":0,\"level\":\"info\",\"code\":\"tick\",\"count\":0}")
        );
        assert_eq!(
            text.lines().last(),
            Some("{\"at\":9999,\"level\":\"info\",\"code\":\"tick\",\"count\":9999}")
        );
    }

    #[test]
    fn same_inputs_export_byte_identically() {
        let exhausted = |at, resolver: &str, vantage: &str, count| {
            let data = EventData {
                resolver: Some(Label::intern(resolver)),
                vantage: Some(Label::intern(vantage)),
                ..EventData::default()
            };
            info(at, codes::RETRY_EXHAUSTED, data.with_count(count))
        };
        let stored = EventData::shard(0).with_count(4096);
        let canonical = vec![
            info(10, codes::SHARD_START, EventData::shard(0)),
            info(10, codes::SHARD_START, EventData::shard(1)),
            exhausted(20, "dns.google", "home-1", 3),
            exhausted(20, "dns.google", "home-2", 3),
            exhausted(20, "doh.ffmuc.net", "home-1", 2),
            exhausted(20, "doh.ffmuc.net", "home-1", 3),
            info(30, codes::CHECKPOINT_STORE, stored),
            info(30, codes::SHARD_FINISH, EventData::shard(0)),
        ];
        let expected = Journal::from_events(canonical.clone());
        assert!(
            expected.events().eq(&canonical),
            "listed in canonical order"
        );
        let expected = expected.to_jsonl();

        // Every rotation of the list and of its reverse: 16 arrival orders.
        let mut arrivals = canonical.clone();
        for _ in 0..2 {
            for _ in 0..canonical.len() {
                arrivals.rotate_left(1);
                assert_eq!(Journal::from_events(arrivals.clone()).to_jsonl(), expected);
            }
            arrivals.reverse();
        }
    }
}
