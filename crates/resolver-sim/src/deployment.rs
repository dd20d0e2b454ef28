//! A complete resolver instance: deployment topology (sites + routing),
//! one frontend per site, ICMP policy and health model.

use netsim::{Deployment, Host, IcmpPolicy, Path, SimRng, SimTime};

use crate::server::{HealthModel, ResolverServer, ServerProfile};

/// A fully assembled simulated resolver service.
#[derive(Debug)]
pub struct ResolverInstance {
    /// Hostname, e.g. `dns.google`.
    pub hostname: String,
    /// Network topology: sites and unicast/anycast routing.
    pub deployment: Deployment,
    /// One frontend per site (parallel to `deployment.sites`).
    pub servers: Vec<ResolverServer>,
    /// Whether the service answers ICMP echo.
    pub icmp: IcmpPolicy,
    /// Per-probe failure model.
    pub health: HealthModel,
    /// Scheduled outage windows: while simulated time is inside one, every
    /// probe sees a blackholed service (the paper's conclusion that
    /// non-mainstream "availability and performance may be more variable
    /// over time" made testable).
    pub outages: Vec<(SimTime, SimTime)>,
}

impl ResolverInstance {
    /// Assembles an instance, building one frontend per site with the given
    /// profile.
    pub fn new(
        hostname: impl Into<String>,
        deployment: Deployment,
        profile: ServerProfile,
        icmp: IcmpPolicy,
        health: HealthModel,
    ) -> Self {
        let servers = deployment
            .sites
            .iter()
            .map(|s| ResolverServer::new(s.city, profile))
            .collect();
        ResolverInstance {
            hostname: hostname.into(),
            deployment,
            servers,
            icmp,
            health,
            outages: Vec::new(),
        }
    }

    /// Schedules an outage window.
    pub fn add_outage(&mut self, from: SimTime, until: SimTime) {
        assert!(until > from, "outage must have positive duration");
        self.outages.push((from, until));
    }

    /// True when `now` falls inside a scheduled outage.
    pub fn in_outage(&self, now: SimTime) -> bool {
        self.outages.iter().any(|(a, b)| now >= *a && now < *b)
    }

    /// Samples this probe's observed health at simulated time `now` — the
    /// **single audited health path**: scheduled outage windows are checked
    /// here and nowhere else, so a caller can never observe a healthy
    /// service inside an outage. (A former `sample_health` twin skipped
    /// the outage check; it was unified into this method and removed.)
    pub fn sample_health_at(&self, now: SimTime, rng: &mut SimRng) -> crate::server::ProbeHealth {
        if self.in_outage(now) {
            return crate::server::ProbeHealth::Blackholed;
        }
        self.health.sample(rng)
    }

    /// Routes a client to its serving site, returning the site index and
    /// path (anycast picks the nearest site).
    pub fn route(&self, client: &Host) -> (usize, Path) {
        self.deployment.path_from(client)
    }

    /// Load-sensitive routing: the nearest site whose utilization against
    /// `offered` (per-site offered-load rates, qps, parallel to
    /// `deployment.sites`) is below `spill`, falling back to the nearest
    /// site when every site is saturated. With zero offered load this is
    /// exactly [`route`](Self::route) — anycast absorbs regional overload
    /// by spilling clients outward, a unicast deployment has nowhere to
    /// spill.
    pub fn route_loaded(&self, client: &Host, offered: &[f64], spill: f64) -> (usize, Path) {
        let order = self.deployment.site_order(client);
        let pick = order
            .iter()
            .copied()
            .find(|&i| {
                let q = self.servers[i].profile().queue();
                q.utilization(offered.get(i).copied().unwrap_or(0.0)) < spill
            })
            .unwrap_or(order[0]);
        (pick, self.deployment.path_to_site(client, pick))
    }

    /// The deterministic per-site load table against `offered` (qps per
    /// site, parallel to `deployment.sites`): utilization, queueing delay
    /// and shed probability per site, in site order. Pure — the report's
    /// load tables and the two-seed stable-ordering tests are built on it.
    pub fn site_load_table(&self, offered: &[f64]) -> Vec<SiteLoad> {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, server)| {
                let q = server.profile().queue();
                let qps = offered.get(i).copied().unwrap_or(0.0);
                SiteLoad {
                    site: i,
                    city: server.location().name,
                    offered_qps: qps,
                    utilization: q.utilization(qps),
                    queue_delay_ms: q.queue_delay_ms(qps),
                    shed_probability: q.shed_probability(qps),
                }
            })
            .collect()
    }

    /// Mutable access to the frontend at `site`.
    pub fn server_mut(&mut self, site: usize) -> &mut ResolverServer {
        &mut self.servers[site]
    }
}

/// One row of a per-site load table: the queueing model of one site
/// evaluated against its offered-load rate.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteLoad {
    /// Site index (parallel to `deployment.sites`).
    pub site: usize,
    /// The site's city name.
    pub city: &'static str,
    /// Offered-load rate at the site, queries per second.
    pub offered_qps: f64,
    /// Raw utilization `λ / capacity` (may exceed 1 past saturation).
    pub utilization: f64,
    /// Mean queueing delay of an admitted query, ms.
    pub queue_delay_ms: f64,
    /// Fraction of offered queries shed at this rate.
    pub shed_probability: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::cities;
    use netsim::{AccessProfile, HostId, Site};

    fn client(city: netsim::City) -> Host {
        Host::in_city(HostId(0), "c", city, AccessProfile::cloud_vm())
    }

    fn anycast_instance() -> ResolverInstance {
        ResolverInstance::new(
            "dns.example",
            Deployment::anycast(vec![
                Site::datacenter(cities::ASHBURN_VA),
                Site::datacenter(cities::FRANKFURT),
                Site::datacenter(cities::SEOUL),
            ]),
            ServerProfile::production(),
            IcmpPolicy::Respond,
            HealthModel::reliable(),
        )
    }

    #[test]
    fn one_server_per_site() {
        let inst = anycast_instance();
        assert_eq!(inst.servers.len(), 3);
        assert_eq!(inst.servers[1].location().name, "Frankfurt");
    }

    #[test]
    fn routing_reaches_different_servers_by_region() {
        let inst = anycast_instance();
        let (us, _) = inst.route(&client(cities::CHICAGO));
        let (eu, _) = inst.route(&client(cities::MUNICH));
        let (asia, _) = inst.route(&client(cities::TOKYO));
        assert_eq!((us, eu, asia), (0, 1, 2));
    }

    #[test]
    fn unicast_instance_has_single_server() {
        let inst = ResolverInstance::new(
            "small.example",
            Deployment::unicast(Site::small(cities::MALMO)),
            ServerProfile::hobbyist(),
            IcmpPolicy::Filtered,
            HealthModel::typical(),
        );
        assert_eq!(inst.servers.len(), 1);
        let (site, path) = inst.route(&client(cities::SEOUL));
        assert_eq!(site, 0);
        assert!(path.base_one_way_ms() > 40.0, "Seoul→Malmö is far");
    }

    #[test]
    fn health_sampling_works() {
        let inst = anycast_instance();
        let mut rng = SimRng::from_seed(1);
        let healthy = (0..1000)
            .filter(|_| {
                inst.sample_health_at(SimTime::ZERO, &mut rng)
                    == crate::server::ProbeHealth::Healthy
            })
            .count();
        assert!(healthy > 990);
    }

    #[test]
    fn outage_boundary_instants_are_exact() {
        use netsim::SimDuration;
        let mut inst = anycast_instance();
        let from = SimTime::ZERO + SimDuration::from_hours(10);
        let until = SimTime::ZERO + SimDuration::from_hours(14);
        inst.add_outage(from, until);
        let mut rng = SimRng::from_seed(7);
        // The start instant is inside the window: blackholed, no RNG draw
        // needed — repeated samples at `from` never disagree.
        for _ in 0..50 {
            assert_eq!(
                inst.sample_health_at(from, &mut rng),
                crate::server::ProbeHealth::Blackholed
            );
        }
        // One nanosecond before the window: normal sampling resumes.
        let just_before = SimTime::from_nanos(from.as_nanos() - 1);
        assert!(!inst.in_outage(just_before));
        // The end instant is outside the (half-open) window.
        let healthy_at_end = (0..200)
            .filter(|_| {
                inst.sample_health_at(until, &mut rng) == crate::server::ProbeHealth::Healthy
            })
            .count();
        assert!(healthy_at_end > 190, "end instant must sample normally");
    }

    #[test]
    fn route_loaded_spills_to_next_site_and_falls_back() {
        let inst = anycast_instance();
        let c = client(cities::CHICAGO);
        let capacity = inst.servers[0].profile().queue().capacity_qps();
        // Idle: identical to plain routing.
        let (site, _) = inst.route_loaded(&c, &[0.0, 0.0, 0.0], 0.8);
        assert_eq!(site, inst.route(&c).0);
        // The nearest site saturated: spill to the next-nearest.
        let (site, path) = inst.route_loaded(&c, &[capacity * 2.0, 0.0, 0.0], 0.8);
        assert_ne!(site, 0);
        assert!(path.base_one_way_ms() > 0.0);
        // Everything saturated: fall back to the nearest site.
        let all = [capacity * 2.0, capacity * 2.0, capacity * 2.0];
        let (site, _) = inst.route_loaded(&c, &all, 0.8);
        assert_eq!(site, inst.route(&c).0);
    }

    #[test]
    fn site_load_table_reports_per_site_queueing() {
        let inst = anycast_instance();
        let capacity = inst.servers[0].profile().queue().capacity_qps();
        let table = inst.site_load_table(&[0.0, capacity * 0.5, capacity * 2.0]);
        assert_eq!(table.len(), 3);
        assert_eq!(
            (table[0].site, table[1].site, table[2].site),
            (0, 1, 2),
            "rows in site order"
        );
        assert_eq!(table[0].queue_delay_ms, 0.0);
        assert!(table[1].queue_delay_ms > 0.0);
        assert_eq!(table[1].shed_probability, 0.0);
        assert!(table[2].shed_probability > 0.0);
        assert_eq!(table[1].city, "Frankfurt");
    }

    #[test]
    fn outage_windows_blackhole_probes() {
        use netsim::SimDuration;
        let mut inst = anycast_instance();
        let start = SimTime::ZERO + SimDuration::from_hours(10);
        let end = SimTime::ZERO + SimDuration::from_hours(14);
        inst.add_outage(start, end);
        let mut rng = SimRng::from_seed(2);
        // Inside the window: always blackholed.
        for h in 10..14 {
            let t = SimTime::ZERO + SimDuration::from_hours(h);
            assert!(inst.in_outage(t));
            assert_eq!(
                inst.sample_health_at(t, &mut rng),
                crate::server::ProbeHealth::Blackholed
            );
        }
        // Outside: normal sampling (reliable => almost always healthy).
        let before = SimTime::ZERO + SimDuration::from_hours(9);
        assert!(!inst.in_outage(before));
        let healthy = (0..100)
            .filter(|_| {
                inst.sample_health_at(before, &mut rng) == crate::server::ProbeHealth::Healthy
            })
            .count();
        assert!(healthy > 95);
        // The end boundary is exclusive.
        assert!(!inst.in_outage(end));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn empty_outage_rejected() {
        let mut inst = anycast_instance();
        inst.add_outage(SimTime::ZERO, SimTime::ZERO);
    }
}
