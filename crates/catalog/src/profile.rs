//! Classification axes for catalog entries: performance profile, health
//! class and deployment shape, mapped onto `resolver-sim` building blocks.

use netsim::geo::City;
use netsim::{AccessProfile, Deployment, IcmpPolicy, Site};
use resolver_sim::{HealthModel, ResolverInstance, ServerProfile};

/// Server-side performance class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileClass {
    /// Large production service (mainstream operators, major ISPs).
    Production,
    /// Competent mid-size operation.
    Midsize,
    /// Hobbyist / community box.
    Hobbyist,
    /// Oblivious-DoH target behind a relay.
    OdohTarget,
}

impl ProfileClass {
    /// The corresponding simulator profile.
    pub fn server_profile(self) -> ServerProfile {
        match self {
            ProfileClass::Production => ServerProfile::production(),
            ProfileClass::Midsize => ServerProfile::midsize(),
            ProfileClass::Hobbyist => ServerProfile::hobbyist(),
            ProfileClass::OdohTarget => ServerProfile::odoh_target(),
        }
    }
}

/// Reliability class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthClass {
    /// ≈99.9 % probe success.
    Reliable,
    /// ≈99 % probe success.
    Typical,
    /// ≈90 % probe success.
    Flaky,
    /// Rarely reachable; dominates the campaign's error count.
    MostlyDown,
}

impl HealthClass {
    /// The corresponding simulator health model.
    pub fn health_model(self) -> HealthModel {
        match self {
            HealthClass::Reliable => HealthModel::reliable(),
            HealthClass::Typical => HealthModel::typical(),
            HealthClass::Flaky => HealthModel::flaky(),
            HealthClass::MostlyDown => HealthModel::mostly_down(),
        }
    }
}

/// Connection-reuse and session-resumption policy of a deployment class:
/// how long TLS 1.3 session tickets stay valid, how long an idle HTTP/2 or
/// QUIC connection is kept in the pool, and whether (and how often) the
/// server accepts QUIC 0-RTT early data.
///
/// All durations are whole simulated seconds so the policy is plain data —
/// `measure::session` converts to `SimDuration` at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReusePolicy {
    /// TLS 1.3 ticket lifetime, seconds (0 = tickets never issued).
    pub ticket_lifetime_s: u64,
    /// Server-side idle timeout for pooled connections, seconds
    /// (0 = connections close immediately after each exchange).
    pub pool_idle_timeout_s: u64,
    /// True when the server accepts QUIC 0-RTT early data on resumption.
    pub zero_rtt: bool,
    /// Anti-replay window: 0-RTT flights accepted per issued ticket before
    /// the server forces a full handshake again.
    pub zero_rtt_window: u32,
}

impl ReusePolicy {
    /// Production operators: long tickets, generous keepalive, 0-RTT on.
    pub fn production() -> ReusePolicy {
        ReusePolicy {
            ticket_lifetime_s: 86_400,
            pool_idle_timeout_s: 240,
            zero_rtt: true,
            zero_rtt_window: 8,
        }
    }

    /// Mid-size operations: RFC-default-ish tickets, moderate keepalive.
    pub fn midsize() -> ReusePolicy {
        ReusePolicy {
            ticket_lifetime_s: 7_200,
            pool_idle_timeout_s: 60,
            zero_rtt: true,
            zero_rtt_window: 4,
        }
    }

    /// Hobbyist boxes: short tickets, aggressive idle close, no 0-RTT.
    pub fn hobbyist() -> ReusePolicy {
        ReusePolicy {
            ticket_lifetime_s: 600,
            pool_idle_timeout_s: 10,
            zero_rtt: false,
            zero_rtt_window: 0,
        }
    }

    /// No reuse at all (ODoH targets: every request rides a fresh
    /// relayed connection, so client-side session state never applies).
    pub fn none() -> ReusePolicy {
        ReusePolicy {
            ticket_lifetime_s: 0,
            pool_idle_timeout_s: 0,
            zero_rtt: false,
            zero_rtt_window: 0,
        }
    }

    /// The policy a performance class ships with.
    pub fn of(profile: ProfileClass) -> ReusePolicy {
        match profile {
            ProfileClass::Production => ReusePolicy::production(),
            ProfileClass::Midsize => ReusePolicy::midsize(),
            ProfileClass::Hobbyist => ReusePolicy::hobbyist(),
            ProfileClass::OdohTarget => ReusePolicy::none(),
        }
    }
}

/// One resolver of the measured population, with everything needed to
/// instantiate its simulated deployment.
#[derive(Debug, Clone)]
pub struct ResolverEntry {
    /// DoH hostname, e.g. `dns.google`.
    pub hostname: &'static str,
    /// Operating organisation.
    pub operator: &'static str,
    /// Whether the resolver ships as a browser default (Table 1 operators:
    /// Cloudflare, Google, Quad9, NextDNS, CleanBrowsing, OpenDNS).
    pub mainstream: bool,
    /// DoH URI path (RFC 8484 convention is `/dns-query`).
    pub doh_path: &'static str,
    /// Points of presence; one city means unicast.
    pub cities: Vec<City>,
    /// True when multiple sites are anycast together.
    pub anycast: bool,
    /// True when the sites are hobbyist-grade (worse access network).
    pub small_site: bool,
    /// Performance class.
    pub profile: ProfileClass,
    /// Reliability class.
    pub health: HealthClass,
    /// True when the service drops ICMP echo (no ping data in figures).
    pub icmp_filtered: bool,
    /// Geolocation override: what a GeoLite2-style lookup reports when it
    /// disagrees with the true primary site (anycast confusion), or
    /// `Region::Unknown` for the resolvers the paper could not locate.
    pub region_override: Option<netsim::Region>,
    /// Extra one-way milliseconds observed only from residential clients
    /// (poor home-ISP peering; the paper's `dns.twnic.tw` anomaly).
    pub home_extra_ms: f64,
    /// Extra per-traversal loss applied to this service's sites.
    pub extra_loss: f64,
    /// Override of the profile's median processing time, ms (0 keeps the
    /// class default). Used to calibrate fine orderings among the fastest
    /// resolvers.
    pub proc_override_ms: f64,
    /// True when the server only speaks HTTP/1.1 (no h2 ALPN) — common
    /// among hobbyist deployments.
    pub http1_only: bool,
}

impl ResolverEntry {
    /// The region the paper's geolocation step assigns this resolver.
    pub fn region(&self) -> netsim::Region {
        self.region_override.unwrap_or(self.cities[0].region)
    }

    /// The connection-reuse policy this resolver's deployment class runs.
    pub fn reuse_policy(&self) -> ReusePolicy {
        ReusePolicy::of(self.profile)
    }

    /// Builds the simulated deployment + servers for this entry.
    pub fn instantiate(&self) -> ResolverInstance {
        let access = if self.small_site {
            AccessProfile::small_server()
        } else {
            AccessProfile::datacenter()
        };
        let sites: Vec<Site> = self
            .cities
            .iter()
            .map(|c| Site {
                city: *c,
                access,
                extra_loss: self.extra_loss,
            })
            .collect();
        let deployment = if self.anycast && sites.len() > 1 {
            Deployment::anycast(sites)
        } else {
            // detlint:allow(unwrap, catalog entries always list at least one city)
            Deployment::unicast(sites.into_iter().next().expect("at least one site"))
        };
        let mut profile = self.profile.server_profile();
        if self.proc_override_ms > 0.0 {
            profile.proc_median_ms = self.proc_override_ms;
        }
        let icmp = if self.icmp_filtered {
            IcmpPolicy::Filtered
        } else {
            IcmpPolicy::Respond
        };
        ResolverInstance::new(
            self.hostname,
            deployment,
            profile,
            icmp,
            self.health.health_model(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::cities;

    fn sample_entry() -> ResolverEntry {
        ResolverEntry {
            hostname: "dns.test",
            operator: "Test",
            mainstream: false,
            doh_path: "/dns-query",
            cities: vec![cities::FRANKFURT, cities::SEOUL],
            anycast: true,
            small_site: false,
            profile: ProfileClass::Midsize,
            health: HealthClass::Typical,
            icmp_filtered: false,
            region_override: None,
            home_extra_ms: 0.0,
            extra_loss: 0.0,
            proc_override_ms: 0.0,
            http1_only: false,
        }
    }

    #[test]
    fn instantiation_builds_matching_deployment() {
        let inst = sample_entry().instantiate();
        assert_eq!(inst.hostname, "dns.test");
        assert_eq!(inst.servers.len(), 2);
        assert_eq!(inst.deployment.policy, netsim::RoutingPolicy::Anycast);
    }

    #[test]
    fn single_city_is_unicast_even_if_anycast_flagged() {
        let mut e = sample_entry();
        e.cities = vec![cities::MALMO];
        let inst = e.instantiate();
        assert_eq!(inst.deployment.policy, netsim::RoutingPolicy::Unicast);
    }

    #[test]
    fn region_override_wins() {
        let mut e = sample_entry();
        assert_eq!(e.region(), netsim::Region::Europe);
        e.region_override = Some(netsim::Region::NorthAmerica);
        assert_eq!(e.region(), netsim::Region::NorthAmerica);
    }

    #[test]
    fn proc_override_applies() {
        let mut e = sample_entry();
        e.proc_override_ms = 9.0;
        let inst = e.instantiate();
        assert_eq!(inst.servers[0].profile().proc_median_ms, 9.0);
    }

    #[test]
    fn reuse_policies_order_by_provisioning() {
        let prod = ReusePolicy::production();
        let mid = ReusePolicy::midsize();
        let hob = ReusePolicy::hobbyist();
        assert!(prod.ticket_lifetime_s > mid.ticket_lifetime_s);
        assert!(mid.ticket_lifetime_s > hob.ticket_lifetime_s);
        assert!(prod.pool_idle_timeout_s > mid.pool_idle_timeout_s);
        assert!(mid.pool_idle_timeout_s > hob.pool_idle_timeout_s);
        assert!(prod.zero_rtt && mid.zero_rtt && !hob.zero_rtt);
        assert_eq!(
            ReusePolicy::of(ProfileClass::OdohTarget),
            ReusePolicy::none()
        );
    }

    #[test]
    fn entry_exposes_policy() {
        assert_eq!(sample_entry().reuse_policy(), ReusePolicy::midsize());
    }

    #[test]
    fn classes_map_to_profiles() {
        assert!(
            ProfileClass::Production.server_profile().proc_median_ms
                < ProfileClass::Hobbyist.server_profile().proc_median_ms
        );
        assert!(
            HealthClass::Reliable.health_model().failure_prob()
                < HealthClass::MostlyDown.health_model().failure_prob()
        );
    }
}
