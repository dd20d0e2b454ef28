//! # netsim
//!
//! A deterministic network model purpose-built for the encrypted-DNS
//! measurement reproduction. It stands in for the public Internet between
//! the paper's vantage points (Chicago home networks; EC2 Ohio, Frankfurt
//! and Seoul) and 91 DoH resolver deployments.
//!
//! Nothing here schedules events. A probe is a handful of round trips, and
//! each is *sampled in closed form*: [`Path::sample_rtt`] draws one
//! exchange's propagation, access delay, jitter and loss from the caller's
//! seeded stream and returns how long it took. The layers above add those
//! durations up along the probe's own timeline; simulated time is an input
//! (when the probe starts), not a clock this crate advances.
//!
//! Design follows the smoltcp school: explicit state, no hidden global
//! clocks, simple robust models. Key pieces:
//!
//! * [`SimTime`]/[`SimDuration`] — integer-nanosecond simulated time; the
//!   crate never reads the wall clock.
//! * [`SimRng`] — seeded, labelled random streams; identical seeds give
//!   bit-identical runs.
//! * [`math`] — the one module that calls libm's transcendentals.
//! * [`geo`] — great-circle geometry and a city catalog; plays the role of
//!   the GeoLite2 database the paper used for resolver geolocation.
//! * [`Path`] — the end-to-end latency/loss model: geographic propagation,
//!   last-mile access models ([`AccessProfile`]) and heavy-tailed jitter.
//! * [`Deployment`] — unicast versus anycast service routing; the mechanism
//!   behind the paper's mainstream-vs-non-mainstream findings.
//! * [`icmp`] — the ping probe paired with every DNS measurement.
//! * [`faults`] — time-windowed fault plans resolved per attempt into
//!   plain [`FaultEffects`], without touching any probe's RNG stream.
//!
//! ```
//! use netsim::{geo::cities, AccessProfile, Deployment, Host, HostId, SimRng, Site};
//!
//! let access = AccessProfile::cloud_vm();
//! let ohio = Host::in_city(HostId(0), "ec2-ohio", cities::COLUMBUS_OH, access);
//! let resolver = Deployment::anycast(vec![
//!     Site::datacenter(cities::ASHBURN_VA),
//!     Site::datacenter(cities::FRANKFURT),
//! ]);
//! let (site, path) = resolver.path_from(&ohio);
//! assert_eq!(site, 0); // Ohio routes to the Ashburn replica
//! let mut rng = SimRng::derived(42, "demo");
//! let rtt = path.sample_rtt(100, 200, &mut rng).expect("no loss this draw");
//! assert!(rtt.as_millis_f64() < 60.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod geo;
pub mod icmp;
pub mod link;
pub mod math;
pub mod node;
pub mod rng;
pub mod routing;
pub mod time;
mod ziggurat;

pub use faults::{FaultEffects, FaultEvent, FaultKind, FaultPlan, FaultScope, FaultTarget};
pub use geo::{City, GeoPoint, Region};
pub use icmp::{ping, ping_with_retries, IcmpPolicy, PingOutcome};
pub use link::{Path, Traversal};
pub use node::{AccessProfile, Host, HostId};
pub use rng::{LogNormal, SimRng};
pub use routing::{Deployment, RoutingPolicy, Site};
pub use time::{SimDuration, SimTime};
