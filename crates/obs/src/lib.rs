//! Observability substrate for the measurement stack.
//!
//! Three pieces, all dependency-free so every layer of the workspace can use
//! them without cycles:
//!
//! * [`SpanLog`] — a ring-buffered span/event trace in simulated time. Span
//!   names are `&'static str`, events are plain `Copy` structs, and a
//!   disabled log costs one branch and **zero heap allocations** on the hot
//!   path (asserted by a counting-allocator test in `measure`).
//! * [`Phase`] — the canonical probe phase taxonomy (`dns_encode`,
//!   `connect`, `tls_handshake`, `http_exchange`, `server_processing`,
//!   `dns_decode`) that timings, histograms and JSON records all share.
//! * [`MetricsRegistry`] / [`MetricsSnapshot`] — monotonic counters, gauges
//!   and fixed-bucket latency histograms keyed by resolver × vantage ×
//!   protocol. Snapshots order cells canonically, so snapshots of the
//!   same campaign are byte-identical render-for-render under a fixed seed.
//! * [`Label`] — a process-wide string interner for the stack's small hot
//!   label vocabularies (vantages, resolvers, domains, protocols, error
//!   kinds): 4-byte copyable handles, allocation-free re-interning and
//!   `&'static str` resolution.
//! * [`clock`] — the audited wall-clock shim: the one sanctioned home for
//!   real-time reads (operator-facing progress output only; results run
//!   purely in simulated time). Enforced by `cargo xtask lint`.
//! * [`journal`] — the campaign flight recorder's severity-leveled
//!   structured event journal: every event in simulated time, one canonical
//!   order, deterministic `events.jsonl` export.
//! * [`traceview`] — [`SpanLog`] → Chrome trace-event JSON, so probe
//!   phase timelines and shard schedules render in `chrome://tracing`.
//!
//! Timestamps are raw simulated-time nanoseconds (`u64`); the simulator's
//! `SimTime` converts losslessly via its `as_nanos`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod intern;
pub mod journal;
mod metrics;
mod phase;
pub mod sharding;
mod span;
pub mod traceview;

pub use intern::Label;
pub use journal::{EventData, EventLevel, Journal, JournalEvent};
pub use metrics::{
    CellMetrics, CellSnapshot, Counter, Gauge, Histogram, MetricKey, MetricsRegistry,
    MetricsSnapshot, LATENCY_BUCKETS_MS,
};
pub use phase::Phase;
pub use sharding::ShardRunMetrics;
pub use span::{Nanos, Span, SpanEvent, SpanEventKind, SpanLog};
pub use traceview::ChromeTrace;
