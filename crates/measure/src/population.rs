//! The deterministic client-population load model: millions of simulated
//! clients, not just the seven probing vantage points.
//!
//! The paper probes *idle* resolvers, so response time is load-independent
//! and the anycast-vs-single-site finding is purely a distance story. This
//! module turns it into a **capacity** story. The standard population is a
//! set of constants: three regional client populations ([`REGIONS`]) with
//! open-loop diurnal arrival processes, the two class shares, the spill
//! threshold and the day jitter. A [`LoadModel`] is a seed and a
//! multiplier over it; for any resolver it converts — purely, with no
//! per-request event simulation — into a per-(site, simulated-day,
//! time-of-day) offered-load rate:
//!
//! 1. each [`RegionDemand`] contributes `clients × queries_per_client_day /
//!    86 400` queries per second, modulated by a cosine diurnal cycle
//!    around its peak hour and a seeded per-day jitter factor;
//! 2. a resolver attracts a share of each region's demand
//!    ([`LoadModel::resolver_share`]): mainstream operators a large one,
//!    niche deployments a tiny one, with a hash jitter per hostname so no
//!    two resolvers load identically;
//! 3. regional demand reaches the site that region's *representative
//!    client* anycast-routes to ([`representative_client`]), giving a
//!    per-site rate the site's `resolver_sim::QueueModel` converts to
//!    queueing delay and shed probability.
//!
//! Determinism: everything is a pure function of `(model, resolver, now)`
//! — seeded hashes, no wall clock, no RNG streams — so loaded campaigns
//! stay byte-identical across thread counts. No model
//! (`CampaignConfig::load` is `None`) is no load: the campaign builds no
//! load state and routes every attempt statically.
//!
//! The open-loop simplification: offered rates are computed from
//! *unloaded* routing, so traffic that spills from a saturated site does
//! not recursively re-load its neighbours (a first-order fixed point, not
//! an iterated one). DESIGN §12 discusses the trade-off.

use catalog::ResolverEntry;
use detlint_macros::rng_neutral;
use netsim::faults::{hash_decision, FaultTarget};
use netsim::geo::{cities, City};
use netsim::math;
use netsim::rng::{derive_seed, splitmix64};
use netsim::{AccessProfile, Host, HostId, Path, SimTime};
use resolver_sim::{QueueModel, ResolverInstance, SiteLoad};

use crate::probe::ProbeTarget;
use crate::vantage::Vantage;

/// One region's client population and its open-loop arrival process.
#[derive(Debug)]
struct RegionDemand {
    /// The region's major population centre, where its representative
    /// client sits.
    city: City,
    /// Number of encrypted-DNS clients.
    clients: f64,
    /// Mean queries per client per simulated day.
    queries_per_client_day: f64,
    /// Diurnal amplitude in `[0, 1]`: the arrival rate swings between
    /// `base × (1 ± amplitude)` across the day.
    diurnal_amplitude: f64,
    /// Hour of the simulated day (UTC) the region's demand peaks.
    peak_hour: f64,
}

impl RegionDemand {
    /// The region's aggregate demand at `now`, queries per second — the
    /// base rate under the diurnal cycle. Pure and wall-clock-free.
    #[rng_neutral]
    fn qps_at(&self, now: SimTime) -> f64 {
        let base = self.clients * self.queries_per_client_day / 86_400.0;
        let hour = (now.as_secs() % 86_400) as f64 / 3_600.0;
        let phase = (hour - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        base * (1.0 + self.diurnal_amplitude * math::cos(phase)).max(0.0)
    }
}

/// The standard stylized population: three measured regions with
/// evening-peaked diurnal cycles. Calibrated so that at multiplier `1.0`
/// a single-site `hobbyist` profile runs around half its capacity (its
/// queueing delay is already visible and the diurnal peak pushes it
/// toward the admission cap), while `production` anycast sites sit below
/// 0.1 % utilization — the paper's anycast-absorbs /
/// single-site-collapses contrast as a capacity story. Doubling the
/// multiplier tips hobbyist sites into shedding.
const REGIONS: [RegionDemand; 3] = [
    RegionDemand {
        city: cities::CHICAGO,
        clients: 4.0e6,
        queries_per_client_day: 250.0,
        diurnal_amplitude: 0.35,
        peak_hour: 24.0, // evening in NA as UTC
    },
    RegionDemand {
        city: cities::FRANKFURT,
        clients: 6.0e6,
        queries_per_client_day: 250.0,
        diurnal_amplitude: 0.35,
        peak_hour: 19.0,
    },
    RegionDemand {
        city: cities::SEOUL,
        clients: 5.0e6,
        queries_per_client_day: 250.0,
        diurnal_amplitude: 0.35,
        peak_hour: 13.0,
    },
];

/// Share of a region's demand attracted by one mainstream resolver.
const MAINSTREAM_SHARE: f64 = 0.15;

/// Share attracted by one non-mainstream resolver.
const NICHE_SHARE: f64 = 0.004;

/// Utilization threshold for load-sensitive anycast selection: a client
/// spills past its nearest site once that site's utilization reaches this
/// value.
const SPILL_UTILIZATION: f64 = 0.8;

/// Day-to-day demand jitter amplitude (seeded hash per simulated day).
const DAY_JITTER: f64 = 0.1;

/// A deterministic client-population load model for a whole campaign:
/// the standard population ([`REGIONS`]) scaled by `multiplier`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadModel {
    /// Seed for the model's hash-based decisions (per-resolver share
    /// jitter, per-day jitter, shed trials). Independent of probe RNG.
    pub seed: u64,
    /// Global scale knob — the sweep axis. Positive and finite.
    pub multiplier: f64,
}

impl LoadModel {
    /// The standard population at multiplier `1.0`.
    pub fn standard(seed: u64) -> Self {
        LoadModel {
            seed,
            multiplier: 1.0,
        }
    }

    /// Returns the model scaled to `multiplier` (builder-style).
    pub fn with_multiplier(mut self, multiplier: f64) -> Self {
        self.multiplier = multiplier;
        self
    }

    /// Refuses a multiplier that is not positive and finite: no load is
    /// no model, not a zero one.
    pub fn validate(&self) -> Result<(), String> {
        if self.multiplier > 0.0 && self.multiplier.is_finite() {
            Ok(())
        } else {
            Err("load multiplier must be positive and finite".to_string())
        }
    }

    /// The share of regional demand `entry` attracts: its class share
    /// (mainstream vs niche) with a seeded ±25 % per-hostname jitter, so
    /// no two resolvers load identically.
    #[rng_neutral]
    pub fn resolver_share(&self, entry: &ResolverEntry) -> f64 {
        let class = if entry.mainstream {
            MAINSTREAM_SHARE
        } else {
            NICHE_SHARE
        };
        let mut state = derive_seed(self.seed, entry.hostname);
        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        class * (0.75 + 0.5 * u)
    }

    /// The seeded day-to-day demand jitter factor for the simulated day
    /// containing `now`, within `1 ± DAY_JITTER`.
    #[rng_neutral]
    pub fn day_factor(&self, now: SimTime) -> f64 {
        let day = now.as_secs() / 86_400;
        let mut state = derive_seed(self.seed, "day") ^ day.wrapping_mul(0x9E3779B97F4A7C15);
        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + DAY_JITTER * (2.0 * u - 1.0)
    }

    /// The offered-load rate at each site of `instance` at `now`, queries
    /// per second (parallel to `instance.deployment.sites`). Regional
    /// demand reaches the site its representative client anycast-routes
    /// to; a unicast deployment concentrates everything on site 0.
    #[rng_neutral]
    pub fn offered_site_qps(
        &self,
        entry: &ResolverEntry,
        instance: &ResolverInstance,
        now: SimTime,
    ) -> Vec<f64> {
        let mut offered = vec![0.0; instance.deployment.sites.len()];
        let scale = self.resolver_share(entry) * self.multiplier * self.day_factor(now);
        for r in &REGIONS {
            let site = instance.deployment.route(&representative_client(r.city));
            offered[site] += r.qps_at(now) * scale;
        }
        offered
    }

    /// The per-site load table of `instance` at `now`: offered rate,
    /// utilization, queueing delay and shed probability per site, in site
    /// order (deterministic — pinned by a two-seed stable-ordering test).
    #[rng_neutral]
    pub fn site_load_table(
        &self,
        entry: &ResolverEntry,
        instance: &ResolverInstance,
        now: SimTime,
    ) -> Vec<SiteLoad> {
        instance.site_load_table(&self.offered_site_qps(entry, instance, now))
    }
}

/// The representative client a region's aggregate demand routes from: a
/// fixed well-connected host in `city`, the region's major population
/// centre. Purely a routing anchor — it issues no probes.
fn representative_client(city: City) -> Host {
    Host::in_city(HostId(0), "population", city, AccessProfile::cloud_vm())
}

/// Pair-constant load state for one (vantage, resolver) probe series: the
/// load-model analogue of `PairContext`, computed once per pair in
/// `run_pair` (RNG-free) and consulted per attempt. Holds the per-site
/// paths (home peering penalty pre-applied), the client's site preference
/// order, each site's queue model, the region→site demand routing and a
/// scratch buffer, so the per-attempt work is a handful of float ops.
#[derive(Debug)]
pub(crate) struct PairLoad {
    /// Serving site per [`REGIONS`] row (unloaded routing).
    region_site: [usize; REGIONS.len()],
    /// This resolver's demand share (hash-jittered class share).
    share: f64,
    /// Site indices in the vantage's preference order.
    site_order: Vec<usize>,
    /// Path from the vantage to each site (home extra applied).
    site_paths: Vec<Path>,
    /// Queue model per site.
    queues: Vec<QueueModel>,
    /// Scratch: per-site offered rate of the current attempt.
    offered: Vec<f64>,
}

/// One attempt's load resolution: the selected site and its load state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SitePick {
    /// Index of the serving site after load-sensitive selection.
    pub(crate) site: usize,
    /// Offered-load rate at that site, qps.
    pub(crate) offered_qps: f64,
    /// This attempt is shed by the overloaded frontend (SERVFAIL / 429).
    pub(crate) shed: bool,
}

impl PairLoad {
    /// Builds the pair-constant load state. RNG-free, like
    /// `PairContext::build`.
    #[rng_neutral]
    pub(crate) fn build(model: &LoadModel, vantage: &Vantage, target: &ProbeTarget) -> Self {
        let client = vantage.host(0);
        let dep = &target.instance.deployment;
        let site_paths = (0..dep.sites.len())
            .map(|i| {
                let mut p = dep.path_to_site(&client, i);
                if vantage.is_home() {
                    p.extra_latency_ms += target.entry.home_extra_ms;
                }
                p
            })
            .collect();
        PairLoad {
            region_site: REGIONS.map(|r| dep.route(&representative_client(r.city))),
            share: model.resolver_share(&target.entry),
            site_order: dep.site_order(&client),
            site_paths,
            queues: target
                .instance
                .servers
                .iter()
                .map(|s| s.profile().queue())
                .collect(),
            offered: vec![0.0; dep.sites.len()],
        }
    }

    /// Resolves one attempt at `now`: recomputes per-site offered rates,
    /// picks the serving site (nearest below the spill threshold, else
    /// nearest — the semantics of `ResolverInstance::route_loaded`), and
    /// makes the hash-based shed decision. Pure except for the scratch
    /// buffer; consumes no probe RNG.
    #[rng_neutral]
    pub(crate) fn pick(
        &mut self,
        model: &LoadModel,
        ftarget: &FaultTarget<'_>,
        now: SimTime,
    ) -> SitePick {
        let scale = self.share * model.multiplier * model.day_factor(now);
        for v in self.offered.iter_mut() {
            *v = 0.0;
        }
        for (r, &site) in REGIONS.iter().zip(&self.region_site) {
            self.offered[site] += r.qps_at(now) * scale;
        }
        let site = self
            .site_order
            .iter()
            .copied()
            .find(|&i| self.queues[i].utilization(self.offered[i]) < SPILL_UTILIZATION)
            .unwrap_or(self.site_order[0]);
        let offered_qps = self.offered[site];
        let shed = hash_decision(
            derive_seed(model.seed, "shed"),
            now,
            ftarget,
            site as u64,
            self.queues[site].shed_probability(offered_qps),
        );
        SitePick {
            site,
            offered_qps,
            shed,
        }
    }

    /// The precomputed path to `site`.
    pub(crate) fn path(&self, site: usize) -> &Path {
        &self.site_paths[site]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(host: &str) -> ProbeTarget {
        ProbeTarget::from_entry(catalog::resolvers::find(host).expect("known host"))
    }

    fn at_hour(h: u64) -> SimTime {
        SimTime::ZERO + netsim::SimDuration::from_hours(h)
    }

    #[test]
    fn a_multiplier_that_is_not_positive_and_finite_is_refused() {
        for multiplier in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                LoadModel::standard(1)
                    .with_multiplier(multiplier)
                    .validate(),
                Err("load multiplier must be positive and finite".to_string()),
                "{multiplier}"
            );
        }
        for multiplier in [f64::MIN_POSITIVE, 0.5, 2.0, 1e9] {
            let m = LoadModel::standard(1).with_multiplier(multiplier);
            assert_eq!(m.validate(), Ok(()), "{multiplier}");
        }
    }

    #[test]
    fn standard_model_validates_and_scales() {
        let m = LoadModel::standard(7);
        assert_eq!(m.validate(), Ok(()));
        let t = target("chewbacca.meganerd.nl");
        let one: f64 = m
            .offered_site_qps(&t.entry, &t.instance, at_hour(3))
            .iter()
            .sum();
        let four: f64 = m
            .with_multiplier(4.0)
            .offered_site_qps(&t.entry, &t.instance, at_hour(3))
            .iter()
            .sum();
        assert!(one > 0.0);
        assert!(
            (four / one - 4.0).abs() < 1e-9,
            "multiplier scales linearly"
        );
    }

    #[test]
    fn mainstream_attracts_far_more_than_niche() {
        let m = LoadModel::standard(7);
        let main = target("dns.google");
        let niche = target("chewbacca.meganerd.nl");
        assert!(m.resolver_share(&main.entry) > 10.0 * m.resolver_share(&niche.entry));
    }

    #[test]
    fn anycast_spreads_demand_single_site_concentrates_it() {
        let m = LoadModel::standard(7);
        let main = target("dns.google");
        let offered = m.offered_site_qps(&main.entry, &main.instance, at_hour(3));
        assert!(
            offered.iter().filter(|&&q| q > 0.0).count() > 1,
            "anycast demand lands on multiple sites: {offered:?}"
        );
        let niche = target("chewbacca.meganerd.nl");
        let offered = m.offered_site_qps(&niche.entry, &niche.instance, at_hour(3));
        assert_eq!(offered.len(), 1, "unicast concentrates on its only site");
        assert!(offered[0] > 0.0);
    }

    #[test]
    fn diurnal_cycle_peaks_at_peak_hour() {
        let r = RegionDemand {
            city: cities::FRANKFURT,
            clients: 1.0e6,
            queries_per_client_day: 100.0,
            diurnal_amplitude: 0.4,
            peak_hour: 19.0,
        };
        let peak = r.qps_at(at_hour(19));
        let trough = r.qps_at(at_hour(7));
        assert!(peak > trough * 2.0, "peak {peak} vs trough {trough}");
        let base = 1.0e6 * 100.0 / 86_400.0;
        assert!((peak - base * 1.4).abs() < base * 0.01);
    }

    #[test]
    fn day_factor_is_deterministic_and_bounded() {
        let m = LoadModel::standard(9);
        for d in 0..30 {
            let now = SimTime::ZERO + netsim::SimDuration::from_hours(24 * d + 3);
            let f = m.day_factor(now);
            assert_eq!(f, m.day_factor(now), "same day, same factor");
            assert!((1.0 - DAY_JITTER..=1.0 + DAY_JITTER).contains(&f));
        }
    }

    #[test]
    fn hobbyist_sheds_under_multiplied_load_production_does_not() {
        let m = LoadModel::standard(4).with_multiplier(8.0);
        let hob = target("chewbacca.meganerd.nl");
        let table = m.site_load_table(&hob.entry, &hob.instance, at_hour(20));
        assert!(
            table[0].shed_probability > 0.0,
            "hobbyist at 8x must shed: {table:?}"
        );
        let prod = target("dns.google");
        let table = m.site_load_table(&prod.entry, &prod.instance, at_hour(20));
        assert!(
            table.iter().all(|row| row.utilization < 0.05),
            "production anycast stays cold: {table:?}"
        );
    }
}
