//! Hosts and their access-network profiles.
//!
//! The paper measures from two client classes — Raspberry Pis on home
//! broadband in Chicago and EC2 instances — and those classes differ mostly
//! in their *last mile*: home cable adds several milliseconds of median
//! latency plus bufferbloat-style spikes, while a cloud VM sits microseconds
//! from its provider's backbone.

use std::fmt;

use crate::geo::{City, GeoPoint, Region};
use crate::rng::{LogNormal, SimRng};

/// Identifier for a host within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// The last-mile model of a host: how much latency, jitter and loss its
/// access network contributes to every packet, in each direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessProfile {
    /// Median one-way access latency contribution, milliseconds.
    pub median_ms: f64,
    /// Log-space sigma of the access latency (right-skewed jitter).
    pub sigma: f64,
    /// Per-traversal packet loss probability.
    pub loss: f64,
    /// Probability of a bufferbloat-style spike on a traversal.
    pub spike_prob: f64,
    /// Pareto scale of the spike magnitude, milliseconds.
    pub spike_scale_ms: f64,
    /// Downstream bandwidth, megabits per second (serialization delay).
    pub downstream_mbps: f64,
    /// Upstream bandwidth, megabits per second.
    pub upstream_mbps: f64,
}

impl AccessProfile {
    /// Residential cable/DSL: DOCSIS-like medians and a heavy jitter tail.
    /// Matches the home-network vantage points in the paper (Chicago
    /// apartment complex, Raspberry Pis over IPv4).
    pub fn home_cable() -> Self {
        AccessProfile {
            median_ms: 4.0,
            sigma: 0.35,
            loss: 0.002,
            spike_prob: 0.015,
            spike_scale_ms: 8.0,
            downstream_mbps: 200.0,
            upstream_mbps: 20.0,
        }
    }

    /// A cloud VM (the paper's EC2 t2.xlarge instances): sub-millisecond
    /// access into the provider backbone, tiny loss.
    pub fn cloud_vm() -> Self {
        AccessProfile {
            median_ms: 0.3,
            sigma: 0.10,
            loss: 0.0002,
            spike_prob: 0.002,
            spike_scale_ms: 2.0,
            downstream_mbps: 5000.0,
            upstream_mbps: 5000.0,
        }
    }

    /// A well-provisioned server in a datacenter (resolver side).
    pub fn datacenter() -> Self {
        AccessProfile {
            median_ms: 0.4,
            sigma: 0.12,
            loss: 0.0002,
            spike_prob: 0.002,
            spike_scale_ms: 2.0,
            downstream_mbps: 10_000.0,
            upstream_mbps: 10_000.0,
        }
    }

    /// A hobbyist deployment (home server / small VPS): the profile behind
    /// several of the paper's non-mainstream resolvers. Higher base latency,
    /// more jitter, more loss.
    pub fn small_server() -> Self {
        AccessProfile {
            median_ms: 2.5,
            sigma: 0.45,
            loss: 0.004,
            spike_prob: 0.03,
            spike_scale_ms: 15.0,
            downstream_mbps: 100.0,
            upstream_mbps: 40.0,
        }
    }

    /// This access network's one-way latency before spikes, in ms. A
    /// [`Path`](crate::Path) builds it once for each of its ends.
    pub fn latency(&self) -> LogNormal {
        LogNormal::new(self.median_ms.max(0.01), self.sigma)
    }

    /// Samples this access network's one-way latency contribution in ms.
    pub fn sample_ms(&self, rng: &mut SimRng) -> f64 {
        self.sample_ms_with(&self.latency(), rng)
    }

    /// [`sample_ms`](Self::sample_ms) over this profile's
    /// [`latency`](Self::latency), built by the caller.
    pub(crate) fn sample_ms_with(&self, latency: &LogNormal, rng: &mut SimRng) -> f64 {
        let mut ms = latency.sample(rng);
        if rng.chance(self.spike_prob) {
            ms += rng.pareto(self.spike_scale_ms, 1.8);
        }
        ms
    }

    /// True if a packet traversing this access network is dropped.
    pub fn drops(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.loss)
    }

    /// Serialization delay for `bytes` in the given direction, milliseconds.
    pub fn serialization_ms(&self, bytes: usize, upstream: bool) -> f64 {
        let mbps = if upstream {
            self.upstream_mbps
        } else {
            self.downstream_mbps
        };
        (bytes as f64 * 8.0) / (mbps * 1000.0)
    }
}

/// A host: an endpoint with a location and an access profile.
#[derive(Debug, Clone)]
pub struct Host {
    /// Unique id among the hosts of one run.
    pub id: HostId,
    /// Human-readable label, e.g. `"ec2-ohio"` or `"home-1"`.
    pub label: String,
    /// Physical location.
    pub location: GeoPoint,
    /// Continental region (for result grouping).
    pub region: Region,
    /// Last-mile model.
    pub access: AccessProfile,
}

impl Host {
    /// Creates a host placed in a catalog city.
    pub fn in_city(
        id: HostId,
        label: impl Into<String>,
        city: City,
        access: AccessProfile,
    ) -> Self {
        Host {
            id,
            label: label.into(),
            location: city.point,
            region: city.region,
            access,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::cities;

    #[test]
    fn profiles_are_ordered_sensibly() {
        let home = AccessProfile::home_cable();
        let cloud = AccessProfile::cloud_vm();
        assert!(home.median_ms > cloud.median_ms);
        assert!(home.loss > cloud.loss);
        assert!(home.sigma > cloud.sigma);
    }

    #[test]
    fn sample_is_positive_and_spiky_for_home() {
        let mut rng = SimRng::from_seed(1);
        let home = AccessProfile::home_cable();
        let samples: Vec<f64> = (0..20_000).map(|_| home.sample_ms(&mut rng)).collect();
        assert!(samples.iter().all(|&s| s > 0.0));
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!((3.0..5.0).contains(&median), "home median {median}");
        // Tail: p99 should be noticeably above the median.
        let p99 = sorted[(sorted.len() as f64 * 0.99) as usize];
        assert!(p99 > 2.0 * median, "p99 {p99} vs median {median}");
    }

    #[test]
    fn cloud_vm_is_tight() {
        let mut rng = SimRng::from_seed(2);
        let cloud = AccessProfile::cloud_vm();
        let samples: Vec<f64> = (0..5_000).map(|_| cloud.sample_ms(&mut rng)).collect();
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max < 10.0, "cloud access should stay tiny, saw {max}");
    }

    #[test]
    fn loss_rates_are_respected() {
        let mut rng = SimRng::from_seed(3);
        let home = AccessProfile::home_cable();
        let n = 100_000;
        let drops = (0..n).filter(|_| home.drops(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!((0.001..0.004).contains(&rate), "loss rate {rate}");
    }

    #[test]
    fn serialization_delay() {
        let home = AccessProfile::home_cable();
        // 1 KB upstream on 20 Mbps ≈ 0.4 ms.
        let ms = home.serialization_ms(1000, true);
        assert!((0.3..0.5).contains(&ms), "{ms}");
        // Downstream is faster.
        assert!(home.serialization_ms(1000, false) < ms);
    }

    #[test]
    fn host_in_city_inherits_geo() {
        let h = Host::in_city(
            HostId(1),
            "ec2-ohio",
            cities::COLUMBUS_OH,
            AccessProfile::cloud_vm(),
        );
        assert_eq!(h.region, Region::NorthAmerica);
        assert_eq!(h.location, cities::COLUMBUS_OH.point);
        assert_eq!(h.id.to_string(), "host1");
    }
}
