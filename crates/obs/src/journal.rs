//! The campaign flight recorder's structured event journal.
//!
//! A [`Journal`] is a bounded, severity-leveled ring of [`JournalEvent`]s
//! stamped in **simulated** time: shard lifecycle, checkpoint traffic,
//! fault-plan activations, retry exhaustions, SLO/drift findings. It
//! follows the [`SpanLog`](crate::SpanLog) hot-path contract — once
//! constructed, recording never allocates (event payloads are `Copy`, the
//! ring is reserved up front), and a disabled journal costs one branch per
//! call. The JSONL export allocates, but only on the export path.
//!
//! ## Determinism and event classes
//!
//! Events carry an [`EventClass`]:
//!
//! * [`Sim`](EventClass::Sim) events are a pure function of the campaign
//!   seed and configuration (stamped in simulated time). They are what
//!   [`to_jsonl`](Journal::to_jsonl) exports — two same-seed runs, or a
//!   one-shot run and its kill+resume twin, export byte-identical
//!   `events.jsonl` streams.
//! * [`Ops`](EventClass::Ops) events describe *this process*'s execution
//!   (e.g. which shards were adopted from checkpoints on resume). They are
//!   operator telemetry: visible through [`events`](Journal::events) and
//!   [`render`](Journal::render), but excluded from the JSONL export so
//!   resume schedules can never leak into the deterministic record.
//!
//! Checkpoint *rejects* (bad magic, checksum or fingerprint mismatch) do
//! not appear as events: the engine surfaces them as typed
//! `CheckpointError`s and aborts rather than resuming from bad state, so
//! there is no journal left to ship.

use detlint_macros::rng_neutral;

use std::fmt::Write as _;

use crate::intern::Label;
use crate::span::Nanos;

/// Stable codes for the events the campaign engine records. Free-form
/// codes are allowed (any `&'static str`); these constants just keep the
/// engine, tests and docs in agreement.
pub mod codes {
    /// A shard's first probe fired (Sim).
    pub const SHARD_START: &str = "shard_start";
    /// A shard's last probe completed (Sim).
    pub const SHARD_FINISH: &str = "shard_finish";
    /// A shard checkpoint was persisted; `count` is the shard's JSONL
    /// byte size (Sim — shard content is deterministic).
    pub const CHECKPOINT_STORE: &str = "checkpoint_store";
    /// A shard was adopted from a valid checkpoint instead of re-running
    /// (Ops — depends on where this process resumed).
    pub const SHARD_RESUME: &str = "shard_resume";
    /// A fault-plan window opened; `value` is its duration in ms (Sim).
    pub const FAULT_WINDOW: &str = "fault_window";
    /// A probe burned its whole retry budget; `count` is attempts (Sim).
    pub const RETRY_EXHAUSTED: &str = "retry_exhausted";
    /// Daily availability fell below the trailing baseline (Sim).
    pub const AVAILABILITY_BURN: &str = "availability_burn";
    /// Daily p95 response time drifted above the trailing baseline (Sim).
    pub const P95_DRIFT: &str = "p95_drift";
    /// The dominant error class changed against the baseline (Sim).
    pub const ERROR_MIX_SHIFT: &str = "error_mix_shift";
    /// A span ring overflowed; `count` is the events it dropped (Sim).
    pub const SPAN_OVERFLOW: &str = "span_overflow";
    /// Synthetic trailer appended by the export when the journal ring
    /// itself overflowed; `count` is the events lost.
    pub const JOURNAL_TRUNCATED: &str = "journal_truncated";
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

    fn index(self) -> usize {
        match self {
            EventLevel::Debug => 0,
            EventLevel::Info => 1,
            EventLevel::Warn => 2,
            EventLevel::Error => 3,
        }
    }
}

/// Whether an event is part of the deterministic simulated record or
/// process-local operator telemetry. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Deterministic: a pure function of seed + configuration.
    Sim,
    /// Operational: describes this process's execution (resume schedule,
    /// adoption of checkpoints). Excluded from the JSONL export.
    Ops,
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
    /// A count (records, bytes, attempts, dropped events — per code).
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

    /// Payload with just a count.
    pub fn count(count: u64) -> EventData {
        EventData {
            count: Some(count),
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

/// One recorded event. `Copy`, so recording moves no heap data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEvent {
    /// Simulated time of the event, nanoseconds.
    pub at: Nanos,
    /// Severity.
    pub level: EventLevel,
    /// Deterministic record or operator telemetry.
    pub class: EventClass,
    /// Stable event code (see [`codes`]).
    pub code: &'static str,
    /// Optional payload.
    pub data: EventData,
}

/// A bounded, pre-allocated structured event journal.
#[derive(Debug, Clone)]
pub struct Journal {
    enabled: bool,
    capacity: usize,
    ring: Vec<JournalEvent>,
    /// Next overwrite position once the ring is full.
    head: usize,
    /// Events accepted (including overwritten ones).
    recorded: u64,
    /// Accepted events per level, including overwritten ones.
    by_level: [u64; 4],
}

impl Journal {
    /// A disabled journal: records nothing, allocates nothing, costs one
    /// branch per call.
    pub fn disabled() -> Journal {
        Journal {
            enabled: false,
            capacity: 0,
            ring: Vec::new(),
            head: 0,
            recorded: 0,
            by_level: [0; 4],
        }
    }

    /// An enabled journal retaining the most recent `capacity` events.
    /// All storage is reserved here; recording never allocates.
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            enabled: capacity > 0,
            capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
            by_level: [0; 4],
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one deterministic (Sim-class) event.
    #[inline]
    #[rng_neutral]
    pub fn record(&mut self, at: Nanos, level: EventLevel, code: &'static str, data: EventData) {
        self.push(at, level, EventClass::Sim, code, data);
    }

    /// Records one operational (Ops-class) event. Excluded from the JSONL
    /// export; see the module docs.
    #[inline]
    #[rng_neutral]
    pub fn record_ops(
        &mut self,
        at: Nanos,
        level: EventLevel,
        code: &'static str,
        data: EventData,
    ) {
        self.push(at, level, EventClass::Ops, code, data);
    }

    #[inline]
    fn push(
        &mut self,
        at: Nanos,
        level: EventLevel,
        class: EventClass,
        code: &'static str,
        data: EventData,
    ) {
        if !self.enabled {
            return;
        }
        let ev = JournalEvent {
            at,
            level,
            class,
            code,
            data,
        };
        if self.ring.len() < self.capacity {
            // Within reserved capacity: never reallocates.
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
        self.by_level[level.index()] += 1;
    }

    /// Events accepted, including any lost to ring overwrite.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring overwrite — the journal's overflow counter.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }

    /// Accepted events at `level` (including overwritten ones).
    pub fn count_at(&self, level: EventLevel) -> u64 {
        self.by_level[level.index()]
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> {
        let (wrapped, linear) = self.ring.split_at(self.head);
        linear.iter().chain(wrapped.iter())
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
            let _ = write!(out, ",\"resolver\":\"{}\"", r.as_str());
        }
        if let Some(v) = ev.data.vantage {
            let _ = write!(out, ",\"vantage\":\"{}\"", v.as_str());
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

    /// Exports the retained **Sim-class** events as JSONL, oldest first
    /// (allocates; export path only). Ops-class events are skipped — see
    /// the module docs. When the ring overflowed, a final
    /// [`journal_truncated`](codes::JOURNAL_TRUNCATED) trailer records how
    /// many events were lost, so truncation is visible in the stream
    /// itself. Output depends only on the recorded Sim events, so two
    /// same-seed campaigns export byte-identical files.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            if ev.class != EventClass::Sim {
                continue;
            }
            Self::write_event(&mut out, ev);
            out.push('\n');
        }
        if self.dropped() > 0 {
            let last_at = self.events().last().map(|e| e.at).unwrap_or(0);
            Self::write_event(
                &mut out,
                &JournalEvent {
                    at: last_at,
                    level: EventLevel::Warn,
                    class: EventClass::Sim,
                    code: codes::JOURNAL_TRUNCATED,
                    data: EventData::count(self.dropped()),
                },
            );
            out.push('\n');
        }
        out
    }

    /// Renders every retained event (Sim and Ops) as an operator-facing
    /// text log, oldest first. Allocates; export path only.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            let ms = ev.at as f64 / 1e6;
            let tag = match ev.class {
                EventClass::Sim => "",
                EventClass::Ops => " [ops]",
            };
            let _ = write!(
                out,
                "[{ms:>14.3} ms] {:<5} {}{tag}",
                ev.level.as_str(),
                ev.code
            );
            if let Some(s) = ev.data.shard {
                let _ = write!(out, " shard={s}");
            }
            if let Some(r) = ev.data.resolver {
                let _ = write!(out, " resolver={}", r.as_str());
            }
            if let Some(v) = ev.data.vantage {
                let _ = write!(out, " vantage={}", v.as_str());
            }
            if let Some(d) = ev.data.day {
                let _ = write!(out, " day={d}");
            }
            if let Some(c) = ev.data.count {
                let _ = write!(out, " count={c}");
            }
            if let Some(v) = ev.data.value {
                let _ = write!(out, " value={v}");
            }
            out.push('\n');
        }
        if self.dropped() > 0 {
            let _ = writeln!(out, "({} earlier events dropped)", self.dropped());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::disabled();
        j.record(1, EventLevel::Error, "x", EventData::default());
        assert!(!j.is_enabled());
        assert_eq!(j.recorded(), 0);
        assert_eq!(j.events().count(), 0);
        assert_eq!(j.to_jsonl(), "");
    }

    #[test]
    fn events_export_in_fixed_field_order() {
        let mut j = Journal::with_capacity(8);
        j.record(
            5_000,
            EventLevel::Info,
            codes::SHARD_START,
            EventData::shard(3).with_count(42),
        );
        let line = j.to_jsonl();
        assert_eq!(
            line,
            "{\"at\":5000,\"level\":\"info\",\"code\":\"shard_start\",\"shard\":3,\"count\":42}\n"
        );
    }

    #[test]
    fn labels_and_values_render() {
        let mut j = Journal::with_capacity(8);
        j.record(
            1,
            EventLevel::Warn,
            codes::P95_DRIFT,
            EventData {
                resolver: Some(Label::intern("dns.google")),
                day: Some(9),
                value: Some(187.5),
                ..EventData::default()
            },
        );
        let line = j.to_jsonl();
        assert!(line.contains("\"resolver\":\"dns.google\""), "{line}");
        assert!(line.contains("\"day\":9"), "{line}");
        assert!(line.contains("\"value\":187.5"), "{line}");
    }

    #[test]
    fn ring_drops_oldest_and_counts_overflow() {
        let mut j = Journal::with_capacity(4);
        for i in 0..10u64 {
            j.record(i, EventLevel::Info, "tick", EventData::count(i));
        }
        assert_eq!(j.recorded(), 10);
        assert_eq!(j.dropped(), 6);
        let times: Vec<Nanos> = j.events().map(|e| e.at).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
        // The export carries a truncation trailer.
        let text = j.to_jsonl();
        assert!(
            text.contains("\"code\":\"journal_truncated\",\"count\":6"),
            "{text}"
        );
    }

    #[test]
    fn ops_events_are_excluded_from_export_but_rendered() {
        let mut j = Journal::with_capacity(8);
        j.record_ops(
            0,
            EventLevel::Info,
            codes::SHARD_RESUME,
            EventData::shard(2),
        );
        j.record(1, EventLevel::Info, codes::SHARD_START, EventData::shard(0));
        let jsonl = j.to_jsonl();
        assert!(!jsonl.contains("shard_resume"), "{jsonl}");
        assert!(jsonl.contains("shard_start"), "{jsonl}");
        let text = j.render();
        assert!(text.contains("shard_resume"), "{text}");
        assert!(text.contains("[ops]"), "{text}");
    }

    #[test]
    fn same_inputs_export_byte_identically() {
        let build = || {
            let mut j = Journal::with_capacity(16);
            j.record(
                10,
                EventLevel::Info,
                codes::SHARD_START,
                EventData::shard(0),
            );
            j.record(
                20,
                EventLevel::Warn,
                codes::RETRY_EXHAUSTED,
                EventData {
                    resolver: Some(Label::intern("doh.ffmuc.net")),
                    vantage: Some(Label::intern("home-1")),
                    count: Some(3),
                    ..EventData::default()
                },
            );
            j.record(
                30,
                EventLevel::Debug,
                codes::CHECKPOINT_STORE,
                EventData::shard(0).with_count(4096),
            );
            j
        };
        assert_eq!(build().to_jsonl(), build().to_jsonl());
        assert_eq!(build().render(), build().render());
    }

    #[test]
    fn span_overflow_counter_is_exposed_through_the_journal() {
        // A span ring that dropped events surfaces its overflow counter as
        // a journal event (the engine records this during assembly).
        let mut spans = crate::SpanLog::with_capacity(2);
        for i in 0..5u64 {
            spans.instant(i, "tick");
        }
        assert_eq!(spans.dropped(), 3);
        let mut j = Journal::with_capacity(8);
        j.record(
            4,
            EventLevel::Warn,
            codes::SPAN_OVERFLOW,
            EventData::count(spans.dropped()),
        );
        let text = j.to_jsonl();
        assert!(
            text.contains("\"code\":\"span_overflow\",\"count\":3"),
            "{text}"
        );
    }
}
