//! # measure
//!
//! The paper's measurement tool, reimplemented against the simulated
//! Internet: a probe engine issuing `dig`-style DoH/DoT/Do53/DoQ queries
//! with paired ICMP pings, a campaign scheduler reproducing the study's
//! vantage points and cadence, an error taxonomy matching the paper's
//! availability analysis, and JSON-Lines result output.
//!
//! ```
//! use measure::{Campaign, CampaignConfig};
//!
//! // Probe a small population twice from each of the 7 vantage points.
//! let entries = vec![
//!     catalog::resolvers::find("dns.google").unwrap(),
//!     catalog::resolvers::find("doh.ffmuc.net").unwrap(),
//! ];
//! let campaign = Campaign::with_resolvers(CampaignConfig::quick(42, 2), entries);
//! let result = campaign.run();
//! assert_eq!(result.records.len(), 7 * 2 * 2 * 3); // vantages × resolvers × rounds × domains
//! assert!(result.successes() > 0);
//! let jsonl = result.to_json_lines();
//! assert!(jsonl.contains("dns.google"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod campaign;
pub mod checkpoint;
pub mod config;
mod context;
pub mod errors;
pub mod fold;
pub mod health;
pub mod json;
pub mod population;
pub mod probe;
pub mod results;
pub mod retry;
pub mod session;
pub mod shard;
pub mod summary;
pub mod vantage;

/// The label interner the measurement stack's hot path is built on
/// (re-exported from `obs` so callers need only one import path).
pub use obs::intern;
pub use obs::{Label, SpanLog};

pub use aggregate::{AggregateCell, CampaignAggregates, PairAggregate};
pub use campaign::{metrics_of, observe_record, Campaign, CampaignResult, GeneratedPairs};
pub use checkpoint::{
    CheckpointError, Manifest, ShardCells, ShardCheckpoint, ShardState, CHECKPOINT_VERSION,
};
pub use config::{standard_domains, CampaignConfig, Scale, Span};
pub use errors::{ProbeErrorKind, Tally};
pub use fold::CampaignFolds;
pub use health::{
    day_of, detect_drift, DriftConfig, DriftFinding, DriftKind, HealthCell, HealthRow,
    HealthSeries, NANOS_PER_DAY,
};
pub use population::{representative_client, LoadModel, RegionDemand};
pub use probe::{ProbeConfig, ProbeReport, ProbeRequest, ProbeTarget, Prober};
pub use results::{ConnectionMode, ProbeOutcome, ProbeRecord, ProbeTimings, Protocol};
pub use retry::{RetryInfo, RetryPolicy};
pub use session::{SessionConfig, SessionState};
pub use shard::{ShardedOutcome, ShardedRunner};
pub use summary::{CellStats, StreamingSummary};
pub use vantage::{Vantage, VantageKind};
