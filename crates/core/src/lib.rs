//! # edns-bench
//!
//! Top-level crate of the reproduction of *"Global Measurements of the
//! Availability and Response Times of Public Encrypted DNS Resolvers"*
//! (Sharma & Feamster, IMC 2025 poster; arXiv:2208.04999).
//!
//! The paper measures 90+ public DoH resolvers from seven vantage points
//! (four Chicago home networks; EC2 Ohio, Frankfurt, Seoul). This workspace
//! rebuilds the entire stack against a deterministic network simulator:
//!
//! * [`dns_wire`] — RFC 1035 wire codec, EDNS(0), base64url;
//! * [`netsim`] — geographic latency, anycast routing, loss, ICMP;
//! * [`transport`] — TCP, TLS 1.3, HTTP/2 (+HPACK), QUIC state machines;
//! * [`resolver_sim`] — recursive resolvers, caches, authority hierarchy;
//! * [`catalog`] — the measured resolver population with deployment
//!   profiles; Table 1's browser matrix; DNS stamps;
//! * [`measure`] — the paper's measurement tool (probe engine, campaign
//!   scheduler, JSON results);
//! * [`edns_stats`] / [`report`] — statistics and every table/figure.
//!
//! ## One-call reproduction
//!
//! ```
//! use edns_bench::{Reproduction, Scale};
//!
//! let repro = Reproduction::run_subset(
//!     42,
//!     Scale::Quick,
//!     &["dns.google", "ordns.he.net", "doh.ffmuc.net"],
//! );
//! let availability = repro.availability();
//! assert!(availability.successes > 0);
//! println!("{}", repro.table1());
//! ```
//!
//! Run `Reproduction::run(seed, Scale::Paper)` for the full multi-month
//! campaign (~620k probes), then `render_all` to regenerate every figure
//! and table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;

pub use experiment::{available_threads, Reproduction, Scale};

// Re-export the component crates so downstream users need a single
// dependency.
pub use catalog;
pub use dns_wire;
pub use edns_stats;
pub use measure;
pub use netsim;
pub use obs;
pub use report;
pub use resolver_sim;
pub use transport;
