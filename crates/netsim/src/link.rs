//! Path latency model: the end-to-end one-way delay between two hosts.
//!
//! A path is composed of the client's access network, a wide-area segment
//! whose base delay comes from geography, and the server's access network.
//! Sampling a traversal draws jitter for each component and may drop the
//! packet.

use crate::geo::GeoPoint;
use crate::node::AccessProfile;
use crate::rng::{LogNormal, SimRng};
use crate::time::SimDuration;

/// Relative log-space sigma of the wide-area segment. Backbone paths are
/// stable; most variance comes from access networks and server load.
pub(crate) const WAN_SIGMA: f64 = 0.04;

/// Per-traversal loss probability on the wide-area segment.
const WAN_LOSS: f64 = 0.0005;

/// Minimum wide-area delay even for co-located endpoints (router hops).
const MIN_WAN_MS: f64 = 0.15;

/// Base wide-area one-way propagation delay between two points, ms.
fn wan_base_ms(a: GeoPoint, b: GeoPoint) -> f64 {
    a.propagation_ms(&b).max(MIN_WAN_MS)
}

/// The outcome of sending one packet across a path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traversal {
    /// Delivered after the given delay.
    Delivered(SimDuration),
    /// Dropped somewhere along the path.
    Lost,
}

impl Traversal {
    /// The delivery delay, or `None` if lost.
    pub fn delay(self) -> Option<SimDuration> {
        match self {
            Traversal::Delivered(d) => Some(d),
            Traversal::Lost => None,
        }
    }
}

/// An end-to-end unidirectional path model between a client and a server.
///
/// Its endpoints and their distance are fixed when it is built, and so
/// are the three log-normal delays a traversal draws: each holds its
/// `ln(median)`, taken once here rather than on every draw. Only the
/// per-attempt extras below may change afterwards.
#[derive(Debug, Clone)]
pub struct Path {
    /// Client access model.
    client_access: AccessProfile,
    /// Server access model.
    server_access: AccessProfile,
    /// Base wide-area one-way propagation delay, milliseconds.
    wan_base_ms: f64,
    /// The wide-area delay: median `wan_base_ms`, sigma [`WAN_SIGMA`].
    wan: LogNormal,
    /// The client access network's delay before spikes.
    client: LogNormal,
    /// The server access network's delay before spikes.
    server: LogNormal,
    /// Additional per-traversal loss applied to this path (e.g. a lossy
    /// route to a badly peered resolver).
    pub extra_loss: f64,
    /// Additional one-way latency in milliseconds (e.g. poor peering
    /// between a residential ISP and a remote resolver).
    pub extra_latency_ms: f64,
}

impl Path {
    /// Builds a path between two located endpoints.
    pub fn between(
        client_loc: GeoPoint,
        client_access: AccessProfile,
        server_loc: GeoPoint,
        server_access: AccessProfile,
    ) -> Self {
        let wan_base_ms = wan_base_ms(client_loc, server_loc);
        Path {
            client_access,
            server_access,
            wan_base_ms,
            wan: LogNormal::new(wan_base_ms, WAN_SIGMA),
            client: client_access.latency(),
            server: server_access.latency(),
            extra_loss: 0.0,
            extra_latency_ms: 0.0,
        }
    }

    /// The deterministic floor of the one-way delay (no jitter, no access
    /// medians).
    pub fn base_one_way_ms(&self) -> f64 {
        self.wan_base_ms
            + self.extra_latency_ms
            + self.client_access.median_ms
            + self.server_access.median_ms
    }

    /// [`base_one_way_ms`](Self::base_one_way_ms) of the path
    /// [`between`](Self::between) these endpoints would build, without
    /// building it — what anycast routing ranks sites by.
    pub fn base_one_way_ms_between(
        client_loc: GeoPoint,
        client_access: AccessProfile,
        server_loc: GeoPoint,
        server_access: AccessProfile,
    ) -> f64 {
        // A new path has no extra latency, and adding 0.0 to a positive
        // delay changes no bit, so this is the built path's sum exactly.
        wan_base_ms(client_loc, server_loc) + client_access.median_ms + server_access.median_ms
    }

    /// Samples one client→server traversal carrying `bytes`.
    pub fn sample_forward(&self, bytes: usize, rng: &mut SimRng) -> Traversal {
        self.sample(bytes, true, rng)
    }

    /// Samples one server→client traversal carrying `bytes`.
    pub fn sample_reverse(&self, bytes: usize, rng: &mut SimRng) -> Traversal {
        self.sample(bytes, false, rng)
    }

    fn sample(&self, bytes: usize, forward: bool, rng: &mut SimRng) -> Traversal {
        // Loss checks: client access, WAN, server access, plus path extra.
        if self.client_access.drops(rng)
            || self.server_access.drops(rng)
            || rng.chance(WAN_LOSS + self.extra_loss)
        {
            return Traversal::Lost;
        }
        let wan = self.wan.sample(rng);
        let client = self.client_access.sample_ms_with(&self.client, rng);
        let server = self.server_access.sample_ms_with(&self.server, rng);
        // Serialization: client uplink on forward, downlink on reverse; the
        // server side is never the bottleneck for DNS-sized payloads.
        let ser = self.client_access.serialization_ms(bytes, forward);
        Traversal::Delivered(SimDuration::from_millis_f64(
            wan + client + server + ser + self.extra_latency_ms,
        ))
    }

    /// Samples a full round trip for a small probe (forward `fwd_bytes`,
    /// reverse `rev_bytes`); `None` when either direction drops.
    pub fn sample_rtt(
        &self,
        fwd_bytes: usize,
        rev_bytes: usize,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        let f = self.sample_forward(fwd_bytes, rng).delay()?;
        let r = self.sample_reverse(rev_bytes, rng).delay()?;
        Some(f + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::cities;

    fn transatlantic() -> Path {
        Path::between(
            cities::CHICAGO.point,
            AccessProfile::cloud_vm(),
            cities::FRANKFURT.point,
            AccessProfile::datacenter(),
        )
    }

    fn local() -> Path {
        Path::between(
            cities::COLUMBUS_OH.point,
            AccessProfile::cloud_vm(),
            cities::ASHBURN_VA.point,
            AccessProfile::datacenter(),
        )
    }

    #[test]
    fn base_delay_tracks_geography() {
        assert!(transatlantic().base_one_way_ms() > local().base_one_way_ms());
        // Chicago-Frankfurt one way ≈ 52 ms + access.
        let b = transatlantic().base_one_way_ms();
        assert!((45.0..65.0).contains(&b), "base {b}");
    }

    #[test]
    fn base_delay_between_is_the_built_paths_to_the_bit() {
        let places = [
            cities::CHICAGO,
            cities::FRANKFURT,
            cities::SEOUL,
            cities::SYDNEY,
        ];
        let profiles = [
            AccessProfile::home_cable(),
            AccessProfile::cloud_vm(),
            AccessProfile::datacenter(),
            AccessProfile::small_server(),
        ];
        for a in places {
            for b in places {
                for client in profiles {
                    for server in profiles {
                        let built = Path::between(a.point, client, b.point, server);
                        let between =
                            Path::base_one_way_ms_between(a.point, client, b.point, server);
                        assert_eq!(
                            between.to_bits(),
                            built.base_one_way_ms().to_bits(),
                            "{} -> {}",
                            a.name,
                            b.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rtt_sample_is_about_twice_one_way() {
        let p = local();
        let mut rng = SimRng::from_seed(5);
        let mut total = 0.0;
        let mut n = 0;
        for _ in 0..2000 {
            // Rare loss draws are expected; skip them.
            if let Some(rtt) = p.sample_rtt(100, 200, &mut rng) {
                total += rtt.as_millis_f64();
                n += 1;
            }
        }
        assert!(n > 1900, "too much loss: {n}");
        let mean = total / n as f64;
        let expect = 2.0 * p.base_one_way_ms();
        assert!(
            (mean - expect).abs() < expect * 0.35,
            "mean rtt {mean} vs 2x base {expect}"
        );
    }

    #[test]
    fn co_located_path_has_floor() {
        let p = Path::between(
            cities::FRANKFURT.point,
            AccessProfile::cloud_vm(),
            cities::FRANKFURT.point,
            AccessProfile::datacenter(),
        );
        assert!(p.wan_base_ms >= MIN_WAN_MS);
        let mut rng = SimRng::from_seed(6);
        let rtt = p.sample_rtt(50, 50, &mut rng).unwrap();
        assert!(rtt.as_millis_f64() > 0.5, "rtt {rtt}");
        assert!(rtt.as_millis_f64() < 20.0, "rtt {rtt}");
    }

    #[test]
    fn extra_loss_increases_drop_rate() {
        let mut lossy = local();
        lossy.extra_loss = 0.2;
        let clean = local();
        let mut rng = SimRng::from_seed(7);
        let n = 5000;
        let lost_lossy = (0..n)
            .filter(|_| lossy.sample_forward(100, &mut rng) == Traversal::Lost)
            .count();
        let lost_clean = (0..n)
            .filter(|_| clean.sample_forward(100, &mut rng) == Traversal::Lost)
            .count();
        assert!(lost_lossy > lost_clean * 10, "{lost_lossy} vs {lost_clean}");
        let rate = lost_lossy as f64 / n as f64;
        assert!((0.15..0.25).contains(&rate), "rate {rate}");
    }

    #[test]
    fn home_access_dominates_nearby_paths() {
        let home = Path::between(
            cities::CHICAGO.point,
            AccessProfile::home_cable(),
            cities::CHICAGO.point,
            AccessProfile::datacenter(),
        );
        let cloud = Path::between(
            cities::CHICAGO.point,
            AccessProfile::cloud_vm(),
            cities::CHICAGO.point,
            AccessProfile::datacenter(),
        );
        assert!(home.base_one_way_ms() > cloud.base_one_way_ms() + 3.0);
    }

    #[test]
    fn traversal_delay_accessor() {
        assert_eq!(Traversal::Lost.delay(), None);
        let d = SimDuration::from_millis(3);
        assert_eq!(Traversal::Delivered(d).delay(), Some(d));
    }

    #[test]
    fn deterministic_given_seed() {
        let p = transatlantic();
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(p.sample_rtt(80, 120, &mut a), p.sample_rtt(80, 120, &mut b));
        }
    }
}
