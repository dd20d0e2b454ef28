//! # resolver-sim
//!
//! The server side of the measurement study: simulated recursive DNS
//! resolvers with real TTL caches, a root → TLD → authoritative hierarchy
//! they iterate against on cache misses, per-site frontends with processing
//! and load models, and per-probe health (the availability axis of the
//! paper).
//!
//! A [`ResolverInstance`] bundles everything a probe touches:
//!
//! * a [`netsim::Deployment`] — where the sites are and how clients route
//!   to them (unicast vs anycast);
//! * one [`ResolverServer`] per site — processing-time profile, diurnal
//!   load, cache warmth, and a [`RecursiveResolver`] engine with a real
//!   [`RecordCache`];
//! * an ICMP policy — some resolvers silently drop pings;
//! * a [`HealthModel`] — per-probe probabilities of refused connections,
//!   blackholes, TLS breakage, bad certificates and HTTP errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod cache;
pub mod deployment;
mod name_map;
pub mod queue;
pub mod recursive;
pub mod server;
pub mod zonefile;

pub use authority::{AuthorityAnswer, AuthorityTree, Zone};
pub use cache::{CacheStats, RecordCache};
pub use deployment::{ResolverInstance, SiteLoad};
pub use queue::QueueModel;
pub use recursive::{RecursiveResolver, Resolution};
pub use server::{HealthModel, ProbeHealth, ResolverServer, ServerProfile};
pub use zonefile::{parse_zone, ZoneParseError};
