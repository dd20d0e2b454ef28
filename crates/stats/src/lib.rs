//! # edns-stats
//!
//! Statistics for the measurement analysis: quantiles and five-number
//! summaries ([`summary`]), box-plot geometry with Tukey whiskers
//! ([`boxplot`] — the paper's figures are rows of box plots), empirical
//! CDFs ([`cdf`]), Pearson/Spearman correlation ([`correlation`] — for
//! the latency-vs-response-time question), availability ledgers
//! ([`availability`] — the success/error accounting of §4), and
//! mergeable latency sketches
//! ([`sketch`] — the bounded-memory aggregation cells longitudinal
//! campaigns checkpoint and fold across shards, on the bucket core
//! [`Buckets`] that `obs`'s metrics histograms share).
//!
//! Everything rejects NaN inputs explicitly rather than propagating them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod boxplot;
pub mod cdf;
pub mod correlation;
pub mod sketch;
pub mod streaming;
pub mod summary;

pub use availability::{Availability, AvailabilityLedger};
pub use boxplot::BoxPlot;
pub use cdf::Ecdf;
pub use correlation::{pearson, spearman};
pub use sketch::{Buckets, LatencySketch, SKETCH_BUCKETS_MS, SKETCH_BUCKET_COUNT};
pub use streaming::{P2Quantile, RunningMoments};
pub use summary::{mean, median, quantile, quantile_sorted, std_dev, tail_quantiles, Summary};
