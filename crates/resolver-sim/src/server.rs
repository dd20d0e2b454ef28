//! The resolver frontend: per-query processing time (with diurnal load and
//! overload tails), background-traffic cache warmth, and per-probe health.

use dns_wire::{Name, RecordType};
use netsim::geo::City;
use netsim::{math, LogNormal, SimDuration, SimRng, SimTime};

use crate::authority::AuthorityTree;
use crate::queue::QueueModel;
use crate::recursive::{RecursiveResolver, Resolution};

/// Tunable performance profile of one resolver frontend.
#[derive(Debug, Clone, Copy)]
pub struct ServerProfile {
    /// Median frontend processing time for a cache-hit query, ms.
    pub proc_median_ms: f64,
    /// Log-space sigma of processing time.
    pub proc_sigma: f64,
    /// Diurnal load amplitude: processing is multiplied by
    /// `1 + amplitude·sin(...)` across the simulated day.
    pub load_amplitude: f64,
    /// Probability a query lands during a transient overload.
    pub overload_prob: f64,
    /// Mean extra delay during overload, ms (exponential).
    pub overload_mean_ms: f64,
    /// Probability the queried (popular) name is warm in cache thanks to
    /// background traffic from other users.
    pub cache_warmth: f64,
    /// Parallel workers per site — the `c` of the per-site
    /// [`QueueModel`]. Sets the site's saturation throughput together
    /// with [`service_ms`](Self::service_ms).
    pub servers_per_site: u32,
    /// Deterministic per-query service time of the queueing model, ms
    /// (independent of the stochastic `proc_*` response-time draw: it
    /// sets *capacity*, not the per-query latency sample).
    pub service_ms: f64,
}

impl ServerProfile {
    /// A large production service (mainstream resolvers): sub-millisecond
    /// processing, high cache warmth, tiny overload tail.
    pub fn production() -> Self {
        ServerProfile {
            proc_median_ms: 0.4,
            proc_sigma: 0.25,
            load_amplitude: 0.10,
            overload_prob: 0.002,
            overload_mean_ms: 5.0,
            cache_warmth: 0.995,
            servers_per_site: 4000,
            service_ms: 0.4,
        }
    }

    /// A competently run mid-size service.
    pub fn midsize() -> Self {
        ServerProfile {
            proc_median_ms: 1.0,
            proc_sigma: 0.40,
            load_amplitude: 0.20,
            overload_prob: 0.01,
            overload_mean_ms: 15.0,
            cache_warmth: 0.97,
            servers_per_site: 64,
            service_ms: 1.0,
        }
    }

    /// A hobbyist box: milliseconds of processing, colder cache, visible
    /// overload tail.
    pub fn hobbyist() -> Self {
        ServerProfile {
            proc_median_ms: 2.5,
            proc_sigma: 0.60,
            load_amplitude: 0.35,
            overload_prob: 0.04,
            overload_mean_ms: 40.0,
            cache_warmth: 0.90,
            servers_per_site: 1,
            service_ms: 2.5,
        }
    }

    /// An Oblivious-DoH target behind a relay: every query pays an extra
    /// proxy hop and decryption, which the paper's ODoH rows
    /// (`odoh-target-*.alekberg.net`) show as uniformly higher times.
    pub fn odoh_target() -> Self {
        ServerProfile {
            proc_median_ms: 6.0,
            proc_sigma: 0.45,
            load_amplitude: 0.20,
            overload_prob: 0.02,
            overload_mean_ms: 25.0,
            cache_warmth: 0.95,
            servers_per_site: 8,
            service_ms: 6.0,
        }
    }

    /// The per-site queueing model this profile implies.
    pub fn queue(&self) -> QueueModel {
        QueueModel::new(self.servers_per_site, self.service_ms)
    }
}

/// The health of a resolver for one probe: what the client will observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeHealth {
    /// Everything works.
    Healthy,
    /// TCP connections are refused (service down, port closed).
    Refusing,
    /// Packets to the service are blackholed (outage, route loss).
    Blackholed,
    /// TLS handshakes never complete (middlebox, broken config).
    TlsBroken,
    /// TLS presents an invalid certificate (expired cert — common among
    /// hobbyist deployments).
    BadCertificate,
    /// The HTTP layer answers with a 5xx.
    HttpError,
}

/// Per-probe failure probabilities for a resolver.
#[derive(Debug, Clone, Copy)]
pub struct HealthModel {
    /// P(connection refused).
    pub p_refuse: f64,
    /// P(blackholed).
    pub p_blackhole: f64,
    /// P(TLS handshake failure).
    pub p_tls: f64,
    /// P(bad certificate).
    pub p_bad_cert: f64,
    /// P(HTTP 5xx).
    pub p_http: f64,
}

impl HealthModel {
    /// A reliable service (≈99.9 % probe success).
    pub fn reliable() -> Self {
        HealthModel {
            p_refuse: 0.0003,
            p_blackhole: 0.0003,
            p_tls: 0.0002,
            p_bad_cert: 0.0,
            p_http: 0.0002,
        }
    }

    /// A typical non-mainstream service (≈99 % probe success).
    pub fn typical() -> Self {
        HealthModel {
            p_refuse: 0.004,
            p_blackhole: 0.003,
            p_tls: 0.001,
            p_bad_cert: 0.0005,
            p_http: 0.0015,
        }
    }

    /// A flaky service (≈90 % probe success).
    pub fn flaky() -> Self {
        HealthModel {
            p_refuse: 0.04,
            p_blackhole: 0.03,
            p_tls: 0.015,
            p_bad_cert: 0.005,
            p_http: 0.01,
        }
    }

    /// A mostly-dead service (the handful of resolvers the paper could
    /// rarely reach; they dominate the error count).
    pub fn mostly_down() -> Self {
        HealthModel {
            p_refuse: 0.30,
            p_blackhole: 0.55,
            p_tls: 0.05,
            p_bad_cert: 0.0,
            p_http: 0.02,
        }
    }

    /// Total per-probe failure probability.
    pub fn failure_prob(&self) -> f64 {
        self.p_refuse + self.p_blackhole + self.p_tls + self.p_bad_cert + self.p_http
    }

    /// Samples the health observed by one probe.
    pub fn sample(&self, rng: &mut SimRng) -> ProbeHealth {
        let u = rng.uniform();
        let mut acc = self.p_refuse;
        if u < acc {
            return ProbeHealth::Refusing;
        }
        acc += self.p_blackhole;
        if u < acc {
            return ProbeHealth::Blackholed;
        }
        acc += self.p_tls;
        if u < acc {
            return ProbeHealth::TlsBroken;
        }
        acc += self.p_bad_cert;
        if u < acc {
            return ProbeHealth::BadCertificate;
        }
        acc += self.p_http;
        if u < acc {
            return ProbeHealth::HttpError;
        }
        ProbeHealth::Healthy
    }
}

/// One resolver frontend at one site: owns a recursive engine and applies
/// the processing model.
#[derive(Debug)]
pub struct ResolverServer {
    profile: ServerProfile,
    /// The profile's processing-time distribution, built with the server.
    proc: LogNormal,
    engine: RecursiveResolver,
}

impl ResolverServer {
    /// Creates a frontend at `location`.
    pub fn new(location: City, profile: ServerProfile) -> Self {
        Self::with_cache_capacity(location, profile, 4096)
    }

    /// [`new`](Self::new) with a record cache of `cache_capacity` entries
    /// (small caches make eviction observable).
    pub fn with_cache_capacity(
        location: City,
        profile: ServerProfile,
        cache_capacity: usize,
    ) -> Self {
        ResolverServer {
            profile,
            proc: LogNormal::new(profile.proc_median_ms, profile.proc_sigma),
            engine: RecursiveResolver::new(location, cache_capacity),
        }
    }

    /// The performance profile, fixed when the server is built.
    pub fn profile(&self) -> &ServerProfile {
        &self.profile
    }

    /// The recursive engine behind this frontend, read-only.
    pub fn engine(&self) -> &RecursiveResolver {
        &self.engine
    }

    /// The site this server runs at.
    pub fn location(&self) -> City {
        self.engine.location()
    }

    /// Diurnal load multiplier at `now` (peaks in the simulated evening).
    fn load_factor(&self, now: SimTime) -> f64 {
        let day_secs = 86_400.0;
        let phase = (now.as_secs() as f64 % day_secs) / day_secs * std::f64::consts::TAU;
        1.0 + self.profile.load_amplitude * math::sin(phase - 1.0).max(-0.8)
    }

    /// Handles one query, returning the total server-side time (processing
    /// plus any upstream recursion) and the resolution.
    pub fn handle_query(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        authorities: &AuthorityTree,
        now: SimTime,
        rng: &mut SimRng,
    ) -> (SimDuration, Resolution) {
        self.handle_query_loaded(qname, qtype, authorities, now, 1.0, 0.0, rng)
    }

    /// [`handle_query`](Self::handle_query) under an injected brownout
    /// and/or population load: frontend processing is scaled by `slowdown`
    /// (`1.0` = none), then the deterministic M/D/c queueing delay of the
    /// site's [`QueueModel`] at `offered_qps` (`0.0` = idle) is added. The
    /// RNG draw sequence is identical to the unloaded path and the added
    /// delay is exactly `0.0` at zero offered load, so a fault plan or
    /// load model perturbs only the probes it covers — byte-transparency
    /// at rest is a tested invariant.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_query_loaded(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        authorities: &AuthorityTree,
        now: SimTime,
        slowdown: f64,
        offered_qps: f64,
        rng: &mut SimRng,
    ) -> (SimDuration, Resolution) {
        // Background traffic from the resolver's other users keeps popular
        // names warm with probability `cache_warmth`: pre-resolve silently.
        // Only what that query leaves in the cache is ever observed, so it
        // is resolved for its effects alone — nothing is drawn or timed.
        if rng.chance(self.profile.cache_warmth) {
            self.engine.prewarm(qname, qtype, authorities, now);
        }

        let resolution = self.engine.resolve(qname, qtype, authorities, now, rng);

        let mut proc_ms = self.proc.sample(rng) * self.load_factor(now);
        if rng.chance(self.profile.overload_prob) {
            proc_ms += rng.exponential(self.profile.overload_mean_ms);
        }
        proc_ms *= slowdown.max(1.0);
        // Deterministic queueing wait from the offered-load rate: exactly
        // 0.0 when idle, so `x + 0.0` keeps the unloaded path bit-identical.
        proc_ms += self.profile.queue().queue_delay_ms(offered_qps);
        let total = SimDuration::from_millis_f64(proc_ms) + resolution.upstream_time;
        (total, resolution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::cities;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn production_is_faster_than_hobbyist_in_median() {
        let auth = AuthorityTree::standard();
        let mut prod = ResolverServer::new(cities::ASHBURN_VA, ServerProfile::production());
        let mut hob = ResolverServer::new(cities::ASHBURN_VA, ServerProfile::hobbyist());
        let mut rng = SimRng::from_seed(1);
        let mut p_times = Vec::new();
        let mut h_times = Vec::new();
        for i in 0..500 {
            let (t, _) = prod.handle_query(&n("google.com"), RecordType::A, &auth, at(i), &mut rng);
            p_times.push(t.as_millis_f64());
            let (t, _) = hob.handle_query(&n("google.com"), RecordType::A, &auth, at(i), &mut rng);
            h_times.push(t.as_millis_f64());
        }
        p_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        h_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            p_times[250] < h_times[250],
            "production median {} vs hobbyist {}",
            p_times[250],
            h_times[250]
        );
    }

    #[test]
    fn brownout_slowdown_scales_processing_only() {
        let auth = AuthorityTree::standard();
        let mut a = ResolverServer::new(cities::ASHBURN_VA, ServerProfile::production());
        let mut b = ResolverServer::new(cities::ASHBURN_VA, ServerProfile::production());
        // Identical seeds: the loaded path must consume the RNG identically.
        let mut rng_a = SimRng::from_seed(9);
        let mut rng_b = SimRng::from_seed(9);
        for i in 0..50 {
            let (t1, r1) =
                a.handle_query(&n("google.com"), RecordType::A, &auth, at(i), &mut rng_a);
            let (t5, r5) = b.handle_query_loaded(
                &n("google.com"),
                RecordType::A,
                &auth,
                at(i),
                5.0,
                0.0,
                &mut rng_b,
            );
            assert_eq!(r1.cache_hit, r5.cache_hit);
            let proc1 = t1.saturating_sub(r1.upstream_time).as_millis_f64();
            let proc5 = t5.saturating_sub(r5.upstream_time).as_millis_f64();
            assert!(
                (proc5 - proc1 * 5.0).abs() < 1e-4,
                "slowdown must scale processing 5x: {proc1} vs {proc5}"
            );
        }
        // A slowdown of 1.0 at zero offered load is the identity.
        let mut rng_a = SimRng::from_seed(10);
        let mut rng_b = SimRng::from_seed(10);
        let (t1, _) = a.handle_query(&n("google.com"), RecordType::A, &auth, at(99), &mut rng_a);
        let (t2, _) = b.handle_query_loaded(
            &n("google.com"),
            RecordType::A,
            &auth,
            at(99),
            1.0,
            0.0,
            &mut rng_b,
        );
        assert_eq!(t1, t2);
    }

    #[test]
    fn offered_load_adds_queue_delay_without_touching_rng() {
        let auth = AuthorityTree::standard();
        let mut a = ResolverServer::new(cities::ASHBURN_VA, ServerProfile::hobbyist());
        let mut b = ResolverServer::new(cities::ASHBURN_VA, ServerProfile::hobbyist());
        let mut rng_a = SimRng::from_seed(11);
        let mut rng_b = SimRng::from_seed(11);
        let offered = ServerProfile::hobbyist().queue().capacity_qps() * 0.5;
        let expect = ServerProfile::hobbyist().queue().queue_delay_ms(offered);
        assert!(expect > 0.0);
        for i in 0..50 {
            let (t0, r0) =
                a.handle_query(&n("google.com"), RecordType::A, &auth, at(i), &mut rng_a);
            let (tl, rl) = b.handle_query_loaded(
                &n("google.com"),
                RecordType::A,
                &auth,
                at(i),
                1.0,
                offered,
                &mut rng_b,
            );
            assert_eq!(r0.cache_hit, rl.cache_hit, "RNG stream must not shift");
            let d0 = t0.saturating_sub(r0.upstream_time).as_millis_f64();
            let dl = tl.saturating_sub(rl.upstream_time).as_millis_f64();
            assert!(
                (dl - d0 - expect).abs() < 1e-4,
                "queue delay must add {expect} ms: {d0} vs {dl}"
            );
        }
    }

    #[test]
    fn warm_cache_keeps_most_queries_local() {
        let auth = AuthorityTree::standard();
        let mut s = ResolverServer::new(cities::FRANKFURT, ServerProfile::production());
        let mut rng = SimRng::from_seed(2);
        let mut hits = 0;
        for i in 0..200 {
            let (_, res) = s.handle_query(&n("google.com"), RecordType::A, &auth, at(i), &mut rng);
            if res.cache_hit {
                hits += 1;
            }
        }
        assert!(
            hits > 190,
            "warmth should make most probes cache hits: {hits}"
        );
    }

    #[test]
    fn cold_cache_miss_costs_upstream_time() {
        let auth = AuthorityTree::standard();
        let mut profile = ServerProfile::hobbyist();
        profile.cache_warmth = 0.0;
        let mut s = ResolverServer::new(cities::SEOUL, profile);
        let mut rng = SimRng::from_seed(3);
        let (t, res) = s.handle_query(&n("google.com"), RecordType::A, &auth, at(0), &mut rng);
        assert!(!res.cache_hit);
        // Seoul → Ashburn authorities: three exchanges ≈ several hundred ms.
        assert!(t.as_millis_f64() > 100.0, "cold miss too cheap: {t}");
    }

    #[test]
    fn health_sampling_respects_probabilities() {
        let m = HealthModel::flaky();
        let mut rng = SimRng::from_seed(4);
        let n = 100_000;
        let mut fails = 0;
        for _ in 0..n {
            if m.sample(&mut rng) != ProbeHealth::Healthy {
                fails += 1;
            }
        }
        let rate = fails as f64 / n as f64;
        let expect = m.failure_prob();
        assert!(
            (rate - expect).abs() < 0.01,
            "failure rate {rate} vs expected {expect}"
        );
    }

    #[test]
    fn health_models_are_ordered() {
        assert!(HealthModel::reliable().failure_prob() < HealthModel::typical().failure_prob());
        assert!(HealthModel::typical().failure_prob() < HealthModel::flaky().failure_prob());
        assert!(HealthModel::flaky().failure_prob() < HealthModel::mostly_down().failure_prob());
        assert!(HealthModel::mostly_down().failure_prob() > 0.8);
    }

    #[test]
    fn all_failure_modes_reachable() {
        let m = HealthModel {
            p_refuse: 0.15,
            p_blackhole: 0.15,
            p_tls: 0.15,
            p_bad_cert: 0.15,
            p_http: 0.15,
        };
        let mut rng = SimRng::from_seed(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(m.sample(&mut rng));
        }
        assert_eq!(seen.len(), 6, "all six health states should appear");
    }

    #[test]
    fn diurnal_load_varies_processing() {
        let s = ResolverServer::new(cities::ASHBURN_VA, ServerProfile::hobbyist());
        let mut factors = Vec::new();
        for h in 0..24 {
            factors.push(s.load_factor(at(h * 3600)));
        }
        let max = factors.iter().cloned().fold(f64::MIN, f64::max);
        let min = factors.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > min + 0.2, "diurnal swing too small: {min}..{max}");
        assert!(min > 0.5, "load factor must stay positive: {min}");
    }
}
