//! Service deployments and routing: unicast single-site services versus
//! anycast services that route each client to its nearest replica.
//!
//! The paper's central finding — mainstream resolvers perform well from
//! every vantage point while most non-mainstream resolvers only perform
//! well nearby — is a direct consequence of this difference.

use crate::geo::City;
use crate::link::Path;
use crate::node::{AccessProfile, Host};

/// One point of presence of a service.
#[derive(Debug, Clone)]
pub struct Site {
    /// Where the site is.
    pub city: City,
    /// The site's network profile.
    pub access: AccessProfile,
    /// Additional path loss toward this site (badly peered routes).
    pub extra_loss: f64,
}

impl Site {
    /// A well-provisioned datacenter site in `city`.
    pub fn datacenter(city: City) -> Self {
        Site {
            city,
            access: AccessProfile::datacenter(),
            extra_loss: 0.0,
        }
    }

    /// A hobbyist/small-VPS site in `city`.
    pub fn small(city: City) -> Self {
        Site {
            city,
            access: AccessProfile::small_server(),
            extra_loss: 0.0,
        }
    }

    /// The deterministic floor of the one-way delay from `client` to this
    /// site, which anycast routing minimises.
    fn base_one_way_ms_from(&self, client: &Host) -> f64 {
        Path::base_one_way_ms_between(client.location, client.access, self.city.point, self.access)
    }
}

/// How clients reach a multi-site service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// BGP anycast: every client reaches its lowest-latency site.
    Anycast,
    /// A single advertised address: all clients reach site 0.
    Unicast,
}

/// A service deployment: one or more sites plus a routing policy.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Points of presence. Must be non-empty.
    pub sites: Vec<Site>,
    /// Routing policy.
    pub policy: RoutingPolicy,
}

impl Deployment {
    /// A single-site unicast deployment.
    pub fn unicast(site: Site) -> Self {
        Deployment {
            sites: vec![site],
            policy: RoutingPolicy::Unicast,
        }
    }

    /// An anycast deployment over the given sites.
    pub fn anycast(sites: Vec<Site>) -> Self {
        assert!(!sites.is_empty(), "anycast deployment needs sites");
        Deployment {
            sites,
            policy: RoutingPolicy::Anycast,
        }
    }

    /// Selects the site a given client is routed to, returning its index.
    pub fn route(&self, client: &Host) -> usize {
        match self.policy {
            RoutingPolicy::Unicast => 0,
            RoutingPolicy::Anycast => {
                // BGP anycast approximately minimises latency; model it as
                // exactly minimising the deterministic base path delay.
                let mut best = 0;
                let mut best_ms = f64::INFINITY;
                for (i, site) in self.sites.iter().enumerate() {
                    let ms = site.base_one_way_ms_from(client);
                    if ms < best_ms {
                        best_ms = ms;
                        best = i;
                    }
                }
                best
            }
        }
    }

    /// Builds the path from `client` to the site it routes to.
    pub fn path_from(&self, client: &Host) -> (usize, Path) {
        let idx = self.route(client);
        (idx, self.path_to_site(client, idx))
    }

    /// Builds the path from `client` to a specific site, regardless of
    /// routing — the building block for load-sensitive site selection,
    /// where an overloaded nearest site spills clients to farther ones.
    pub fn path_to_site(&self, client: &Host, idx: usize) -> Path {
        let site = &self.sites[idx];
        let mut path = Path::between(client.location, client.access, site.city.point, site.access);
        path.extra_loss = site.extra_loss;
        path
    }

    /// Site indices in the order `client` would prefer them: increasing
    /// deterministic base path delay (ties broken by site index, so the
    /// order is stable). Under unicast routing only site 0 is reachable,
    /// so the order is the identity. `order[0]` always equals
    /// [`route`](Self::route)`(client)`.
    pub fn site_order(&self, client: &Host) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.sites.len()).collect();
        if self.policy == RoutingPolicy::Anycast {
            let ms: Vec<f64> = self
                .sites
                .iter()
                .map(|site| site.base_one_way_ms_from(client))
                .collect();
            order.sort_by(|&a, &b| ms[a].total_cmp(&ms[b]).then(a.cmp(&b)));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::cities;
    use crate::node::HostId;

    fn client_in(city: City) -> Host {
        Host::in_city(HostId(0), "c", city, AccessProfile::cloud_vm())
    }

    fn global_anycast() -> Deployment {
        Deployment::anycast(vec![
            Site::datacenter(cities::ASHBURN_VA),
            Site::datacenter(cities::FRANKFURT),
            Site::datacenter(cities::SEOUL),
            Site::datacenter(cities::SYDNEY),
        ])
    }

    #[test]
    fn anycast_routes_to_nearest_site() {
        let d = global_anycast();
        assert_eq!(d.route(&client_in(cities::COLUMBUS_OH)), 0); // Ashburn
        assert_eq!(d.route(&client_in(cities::MUNICH)), 1); // Frankfurt
        assert_eq!(d.route(&client_in(cities::TOKYO)), 2); // Seoul
        assert_eq!(d.route(&client_in(cities::PERTH)), 3); // Sydney
    }

    #[test]
    fn unicast_always_routes_to_site_zero() {
        let d = Deployment::unicast(Site::datacenter(cities::FRANKFURT));
        assert_eq!(d.route(&client_in(cities::SEOUL)), 0);
        assert_eq!(d.route(&client_in(cities::FRANKFURT)), 0);
    }

    #[test]
    fn anycast_path_is_much_shorter_for_remote_clients() {
        let anycast = global_anycast();
        let unicast = Deployment::unicast(Site::datacenter(cities::ASHBURN_VA));
        let seoul_client = client_in(cities::SEOUL);
        let (_, p_any) = anycast.path_from(&seoul_client);
        let (_, p_uni) = unicast.path_from(&seoul_client);
        assert!(
            p_any.base_one_way_ms() * 4.0 < p_uni.base_one_way_ms(),
            "anycast {} vs unicast {}",
            p_any.base_one_way_ms(),
            p_uni.base_one_way_ms()
        );
    }

    #[test]
    fn path_inherits_site_extra_loss() {
        let mut site = Site::small(cities::JAKARTA);
        site.extra_loss = 0.05;
        let d = Deployment::unicast(site);
        let (_, p) = d.path_from(&client_in(cities::COLUMBUS_OH));
        assert_eq!(p.extra_loss, 0.05);
    }

    #[test]
    #[should_panic(expected = "needs sites")]
    fn empty_anycast_panics() {
        Deployment::anycast(vec![]);
    }
}
