//! Chrome trace-event export for [`SpanLog`] rings.
//!
//! Converts a span log into the Trace Event JSON format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) render: one
//! `B`/`E` (begin/end) event per span boundary, `i` for instants, and `M`
//! metadata events naming the tracks. Simulated-time nanoseconds map to
//! the format's microsecond `ts` field with three decimals, so the
//! timeline is exact to the nanosecond.
//!
//! Output is a pure function of the recorded events — two identical logs
//! export byte-identical JSON — and everything is hand-serialised, keeping
//! `obs` dependency-free.
//!
//! ```
//! use obs::{SpanLog, traceview};
//!
//! let mut log = SpanLog::with_capacity(16);
//! log.enter(0, "probe");
//! log.enter(1_000, "connect");
//! log.exit(31_000, "connect");
//! log.exit(40_000, "probe");
//! let json = traceview::chrome_trace(&log);
//! assert!(json.contains("\"ph\":\"B\""));
//! ```

use std::fmt::Write as _;

use crate::span::{SpanEventKind, SpanLog};

/// A Chrome trace-event JSON document under construction. Add one or more
/// span logs (each on its own `tid` track), then [`finish`](Self::finish).
#[derive(Debug)]
pub struct ChromeTrace {
    buf: String,
    events: usize,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        ChromeTrace::new()
    }
}

impl ChromeTrace {
    /// An empty trace document.
    pub fn new() -> ChromeTrace {
        ChromeTrace {
            buf: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            events: 0,
        }
    }

    fn sep(&mut self) {
        if self.events > 0 {
            self.buf.push(',');
        }
        self.events += 1;
    }

    /// Names the `tid` track (a `thread_name` metadata event).
    pub fn thread_name(&mut self, tid: u32, name: &str) {
        self.sep();
        self.buf
            .push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
        let _ = write!(self.buf, "{tid}");
        self.buf.push_str(",\"args\":{\"name\":");
        write_json_str(&mut self.buf, name);
        self.buf.push_str("}}");
    }

    /// Appends every event of `log` onto track `tid`, oldest first.
    pub fn add_log(&mut self, log: &SpanLog, tid: u32) {
        for ev in log.events() {
            self.sep();
            self.buf.push_str("{\"name\":");
            write_json_str(&mut self.buf, ev.name);
            let ph = match ev.kind {
                SpanEventKind::Enter => "B",
                SpanEventKind::Exit => "E",
                SpanEventKind::Instant => "i",
            };
            let _ = write!(self.buf, ",\"cat\":\"sim\",\"ph\":\"{ph}\",\"ts\":");
            write_micros(&mut self.buf, ev.at);
            let _ = write!(self.buf, ",\"pid\":0,\"tid\":{tid}");
            if ev.kind == SpanEventKind::Instant {
                self.buf.push_str(",\"s\":\"t\"");
            }
            self.buf.push('}');
        }
    }

    /// Trace events appended so far (metadata included).
    pub fn events(&self) -> usize {
        self.events
    }

    /// Closes and returns the JSON document (with a trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push_str("]}\n");
        self.buf
    }
}

/// Single-track convenience: `log` on `tid` 0.
pub fn chrome_trace(log: &SpanLog) -> String {
    let mut t = ChromeTrace::new();
    t.add_log(log, 0);
    t.finish()
}

/// Writes simulated nanoseconds as the trace format's microsecond `ts`
/// with three decimals — exact (1 ns = 0.001 µs) and deterministic.
fn write_micros(out: &mut String, nanos: u64) {
    let _ = write!(out, "{}.{:03}", nanos / 1_000, nanos % 1_000);
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes): the
/// one escaper of this crate's JSON writers (trace and journal).
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> SpanLog {
        let mut log = SpanLog::with_capacity(16);
        log.enter(0, "probe");
        log.enter(1_500, "connect");
        log.exit(31_000, "connect");
        log.instant(31_000, "first_byte");
        log.exit(40_250, "probe");
        log
    }

    #[test]
    fn begin_end_events_are_balanced() {
        let json = chrome_trace(&sample_log());
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn timestamps_are_exact_microseconds() {
        let json = chrome_trace(&sample_log());
        // 1_500 ns = 1.500 µs; 40_250 ns = 40.250 µs.
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"ts\":40.250"), "{json}");
    }

    #[test]
    fn multi_track_documents_carry_thread_names() {
        let mut t = ChromeTrace::new();
        t.thread_name(0, "shards");
        t.thread_name(1, "probe");
        t.add_log(&sample_log(), 1);
        let json = t.finish();
        assert!(json.contains("\"name\":\"thread_name\""), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"shards\"}"), "{json}");
        assert!(json.contains("\"tid\":1"), "{json}");
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(chrome_trace(&sample_log()), chrome_trace(&sample_log()));
    }

    #[test]
    fn empty_log_exports_an_empty_event_array() {
        let json = chrome_trace(&SpanLog::disabled());
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
    }

    #[test]
    fn names_are_escaped() {
        let mut out = String::new();
        write_json_str(&mut out, "a\"b\\c\n");
        assert_eq!(out, "\"a\\\"b\\\\c\\u000a\"");
    }
}
