//! The harness's one timing mechanism: a span (name, start, end, parent)
//! around every call it makes into a layer's public functions.
//!
//! Spans always time — [`Tracer::exit`] returns the span's wall seconds —
//! and are *recorded* only in a traced run, into in-memory
//! [`obs::SpanLog`] rings (one track per repetition, so a span's track is
//! its repetition id and its parent is the span open around it). The rings
//! are written out as Chrome trace-event JSON when the run ends; the
//! untraced run that produces the end-to-end numbers records nothing.

use std::time::{Duration, Instant};

use obs::{ChromeTrace, SpanLog};

/// Per-track ring size. A traced repetition records about ten spans and
/// the ledger about fifty; [`Tracer::dropped`] says if that stops holding.
const TRACK_CAPACITY: usize = 1_024;

pub struct Tracer {
    base: Instant,
    recording: bool,
    /// Open spans, innermost last: name and start (ns since `base`).
    open: Vec<(&'static str, u64)>,
    tracks: Vec<(String, SpanLog)>,
}

impl Tracer {
    /// A tracer whose spans time but are not kept (`recording` false) or
    /// are kept for export (`recording` true).
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            base: Instant::now(),
            recording,
            open: Vec::new(),
            tracks: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Starts a new track; later spans land on it.
    pub fn track(&mut self, name: &str) {
        if self.recording {
            self.tracks
                .push((name.to_string(), SpanLog::with_capacity(TRACK_CAPACITY)));
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        let at = self.now_ns();
        self.open.push((name, at));
        if let Some((_, log)) = self.tracks.last_mut() {
            log.enter(at, name);
        }
    }

    /// Closes the innermost span, which must be `name`, and returns its
    /// wall seconds.
    pub fn exit(&mut self, name: &'static str) -> f64 {
        let at = self.now_ns();
        let (open, start) = self.open.pop().expect("exit without a matching enter");
        assert_eq!(open, name, "spans must close innermost first");
        if let Some((_, log)) = self.tracks.last_mut() {
            log.exit(at, name);
        }
        (at - start) as f64 / 1e9
    }

    /// Records spans of the given lengths laid end to end from the start
    /// of the innermost open span: time its caller summed over many short
    /// calls, too many to record one by one.
    pub fn children(&mut self, spans: &[(&'static str, Duration)]) {
        let mut at = self.open.last().expect("children need an open parent").1;
        if let Some((_, log)) = self.tracks.last_mut() {
            for &(name, length) in spans {
                log.enter(at, name);
                at += length.as_nanos() as u64;
                log.exit(at, name);
            }
        }
    }

    /// Times one call as a span.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = call();
        self.exit(name);
        out
    }

    /// Total recorded seconds under `name`, over every track.
    pub fn total_s(&self, name: &str) -> f64 {
        self.tracks
            .iter()
            .flat_map(|(_, log)| log.totals())
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            // Not `sum()`: its identity is -0.0, which would print as "-0".
            .fold(0.0, |total, s| total + s)
    }

    /// Events lost to ring overwrite; a non-zero value means totals are
    /// short and the run must not be trusted.
    pub fn dropped(&self) -> u64 {
        self.tracks.iter().map(|(_, log)| log.dropped()).sum()
    }

    /// The recorded tracks as one Chrome trace-event document.
    pub fn chrome_json(&self) -> String {
        let mut trace = ChromeTrace::new();
        for (tid, (name, log)) in self.tracks.iter().enumerate() {
            trace.thread_name(tid as u32, name);
            trace.add_log(log, tid as u32);
        }
        trace.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_spans_time_but_record_nothing() {
        let mut t = Tracer::new(false);
        t.track("repetition 0");
        t.enter("outer");
        let inner = t.span("inner", || 7);
        assert_eq!(inner, 7);
        assert!(t.exit("outer") >= 0.0);
        assert_eq!(t.total_s("outer"), 0.0);
        assert!(!t.chrome_json().contains("outer"));
    }

    #[test]
    fn traced_spans_nest_and_total_by_name_across_tracks() {
        let mut t = Tracer::new(true);
        t.track("repetition 0");
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = t.exit("outer");
        t.track("ledger");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(t.total_s("inner") >= 0.004);
        assert!(t.total_s("outer") >= 0.002 && (t.total_s("outer") - outer).abs() < 1e-6);
        assert_eq!(t.dropped(), 0);
        let json = t.chrome_json();
        assert!(json.contains("\"repetition 0\"") && json.contains("\"ledger\""));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 3);
    }

    #[test]
    fn summed_children_sit_inside_their_parent() {
        let mut t = Tracer::new(true);
        t.track("ledger");
        t.enter("parent");
        std::thread::sleep(Duration::from_millis(3));
        t.children(&[
            ("a", Duration::from_millis(1)),
            ("b", Duration::from_millis(2)),
        ]);
        let parent = t.exit("parent");
        assert_eq!((t.total_s("a"), t.total_s("b")), (0.001, 0.002));
        assert!(parent >= t.total_s("a") + t.total_s("b"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_harness_bug() {
        let mut t = Tracer::new(false);
        t.enter("a");
        t.enter("b");
        t.exit("a");
    }
}
