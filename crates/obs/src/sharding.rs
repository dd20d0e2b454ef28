//! Telemetry for sharded campaign runs: counters for the shard scheduler
//! (planned / executed / resumed work) and span helpers that lay each
//! shard's simulated-time extent onto a [`SpanLog`].
//!
//! Everything here is deterministic: counters render in a fixed field
//! order, and shard spans are keyed by the shard's simulated probe-time
//! extent — never by wall-clock — so two same-seed runs (or a run and its
//! kill+resume twin) render byte-identical telemetry.

use std::fmt::Write as _;

use crate::intern::Label;
use crate::metrics::Counter;
use crate::span::SpanLog;

/// Counters describing one sharded campaign run, including how much work
/// a resume skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardRunMetrics {
    /// Shards in the campaign's plan.
    pub shards_planned: Counter,
    /// Shards executed by this run.
    pub shards_executed: Counter,
    /// Shards adopted from valid checkpoints instead of re-running.
    pub shards_resumed: Counter,
    /// (vantage, resolver) pairs completed campaign-wide: pairs executed
    /// by this run **plus** pairs folded in from resumed checkpoints, so
    /// the total after a kill+resume equals the one-shot total.
    pub pairs_run: Counter,
    /// Probe records completed campaign-wide (this run's executed shards
    /// plus resumed checkpoints — equals the one-shot total after resume).
    pub records_produced: Counter,
    /// Manifest bytes written by this run, over all its commits
    /// (process-local I/O telemetry; a resume does not inherit earlier
    /// runs' writes).
    pub checkpoint_bytes: Counter,
    /// Cell-file bytes written by this run: the aggregate and health
    /// cells of the shards it executed, each written once.
    pub cell_bytes: Counter,
    /// Manifest rewrites performed by this run.
    pub manifest_writes: Counter,
    /// Records assembly copied into the campaign file, in campaign order.
    pub records_merged: Counter,
}

impl ShardRunMetrics {
    /// An all-zero metrics block.
    pub fn new() -> ShardRunMetrics {
        ShardRunMetrics::default()
    }

    /// Renders the counters in a fixed, machine-diffable order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "shard run:");
        for (name, c) in [
            ("shards_planned", self.shards_planned),
            ("shards_executed", self.shards_executed),
            ("shards_resumed", self.shards_resumed),
            ("pairs_run", self.pairs_run),
            ("records_produced", self.records_produced),
            ("checkpoint_bytes", self.checkpoint_bytes),
            ("cell_bytes", self.cell_bytes),
            ("manifest_writes", self.manifest_writes),
            ("records_merged", self.records_merged),
        ] {
            let _ = writeln!(out, "  {name:<18} {}", c.get());
        }
        out
    }
}

/// The interned span name for shard `index` (`"shard-7"`): a stable
/// `&'static str`, so recording shard spans stays allocation-free after
/// the first run over a shard count.
pub fn shard_span_name(index: u32) -> &'static str {
    Label::intern(&format!("shard-{index}")).as_str()
}

/// Records one shard's simulated-time extent as a span: `first_at` /
/// `last_at` are the shard's first and last probe timestamps in simulated
/// nanoseconds. No-op on a disabled log.
pub fn record_shard_span(log: &mut SpanLog, index: u32, first_at: u64, last_at: u64) {
    let name = shard_span_name(index);
    log.enter(first_at, name);
    log.exit(last_at.max(first_at), name);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable_and_complete() {
        let mut m = ShardRunMetrics::new();
        m.shards_planned.add(8);
        m.shards_executed.add(5);
        m.shards_resumed.add(3);
        m.records_produced.add(1_000);
        let r = m.render();
        assert!(r.contains("shards_planned     8"), "{r}");
        assert!(r.contains("shards_resumed     3"), "{r}");
        // Field order is fixed.
        let planned = r.find("shards_planned").unwrap();
        let merged = r.find("records_merged").unwrap();
        assert!(planned < merged);
    }

    #[test]
    fn shard_spans_land_on_the_log() {
        let mut log = SpanLog::with_capacity(16);
        record_shard_span(&mut log, 0, 100, 500);
        record_shard_span(&mut log, 1, 200, 200);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "shard-0");
        assert_eq!(spans[0].duration(), 400);
        assert_eq!(spans[1].duration(), 0);
    }

    #[test]
    fn span_names_are_interned_statics() {
        assert_eq!(shard_span_name(3), "shard-3");
        let a = shard_span_name(3);
        let b = shard_span_name(3);
        assert_eq!(a.as_ptr(), b.as_ptr());
    }
}
