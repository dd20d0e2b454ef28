//! A distribution session: run a query workload through a strategy against
//! real (simulated) resolvers, collecting latency and exposure.

use dns_wire::Name;
use measure::{ProbeConfig, ProbeRequest, ProbeTarget, Prober, SpanLog};
use netsim::{Host, SimDuration, SimRng, SimTime};

use crate::privacy::Exposure;
use crate::strategy::Strategy;
use crate::workload::Workload;

/// The result of running one strategy over a workload.
#[derive(Debug)]
pub struct SessionResult {
    /// Strategy name.
    pub strategy: String,
    /// Response time of each answered query, ms (races count the fastest).
    pub latencies_ms: Vec<f64>,
    /// Queries with no successful answer.
    pub failures: u64,
    /// Who saw what.
    pub exposure: Exposure,
}

impl SessionResult {
    /// Median answered latency.
    pub fn median_ms(&self) -> Option<f64> {
        edns_stats::median(&self.latencies_ms)
    }

    /// 95th percentile latency.
    pub fn p95_ms(&self) -> Option<f64> {
        edns_stats::quantile(&self.latencies_ms, 0.95)
    }

    /// Fraction of queries answered.
    pub fn success_rate(&self) -> f64 {
        let total = self.latencies_ms.len() as u64 + self.failures;
        if total == 0 {
            0.0
        } else {
            self.latencies_ms.len() as f64 / total as f64
        }
    }
}

/// Runs workloads through strategies against a fixed resolver set.
pub struct Session<'a> {
    prober: Prober,
    client: &'a Host,
    is_home: bool,
    targets: Vec<ProbeTarget>,
}

impl<'a> Session<'a> {
    /// Builds a session for `client` against the named resolvers.
    pub fn new(client: &'a Host, is_home: bool, hostnames: &[&str]) -> Self {
        let targets = hostnames
            .iter()
            .map(|h| {
                ProbeTarget::from_entry(
                    // detlint:allow(unwrap, resolver hostnames come from the static catalog; a typo is a programming error)
                    catalog::resolvers::find(h).unwrap_or_else(|| panic!("unknown resolver {h}")),
                )
            })
            .collect();
        Session {
            prober: Prober::new(),
            client,
            is_home,
            targets,
        }
    }

    /// Number of resolvers in the set.
    pub fn resolver_count(&self) -> usize {
        self.targets.len()
    }

    /// Hostname of resolver `i`.
    pub fn hostname(&self, i: usize) -> &str {
        self.targets[i].entry.hostname
    }

    /// Runs `queries` workload samples through `strategy`.
    pub fn run(
        &mut self,
        strategy: &Strategy,
        workload: &Workload,
        queries: usize,
        seed: u64,
    ) -> SessionResult {
        let mut rng = SimRng::derived(seed, &format!("session:{}", strategy.name()));
        let mut exposure = Exposure::default();
        let mut latencies = Vec::new();
        let mut failures = 0u64;
        let n = self.targets.len();
        let cfg = ProbeConfig::default();

        let mut seen_domains = std::collections::HashSet::new();
        for seq in 0..queries {
            let domain: Name = workload.sample(&mut rng).clone();
            seen_domains.insert(domain.clone());
            let picks = strategy.choose(&domain, seq as u64, n, &mut rng);
            // Space queries ~30 s apart in simulated time.
            let now = SimTime::from_nanos(seq as u64 * 30_000_000_000);
            let mut best: Option<SimDuration> = None;
            for &i in &picks {
                exposure.record(i, &domain);
                let outcome = self
                    .prober
                    .probe(
                        &ProbeRequest {
                            is_home: self.is_home,
                            cfg,
                            ..ProbeRequest::new(self.client, &domain, now)
                        },
                        &mut self.targets[i],
                        &mut rng,
                        &mut SpanLog::disabled(),
                    )
                    .outcome;
                if let Some(rt) = outcome.response_time() {
                    best = Some(match best {
                        Some(b) if b <= rt => b,
                        _ => rt,
                    });
                }
            }
            match best {
                Some(rt) => latencies.push(rt.as_millis_f64()),
                None => failures += 1,
            }
        }
        exposure.finish(queries as u64, seen_domains.len());
        SessionResult {
            strategy: strategy.name(),
            latencies_ms: latencies,
            failures,
            exposure,
        }
    }

    /// Runs the workload through an ε-greedy [`AdaptiveSelector`]: each
    /// query goes to one resolver chosen by learned latency/reliability.
    pub fn run_adaptive(
        &mut self,
        epsilon: f64,
        workload: &Workload,
        queries: usize,
        seed: u64,
    ) -> SessionResult {
        use crate::adaptive::AdaptiveSelector;

        let mut rng = SimRng::derived(seed, "session:adaptive");
        let mut selector = AdaptiveSelector::new(self.targets.len(), epsilon);
        let mut exposure = Exposure::default();
        let mut latencies = Vec::new();
        let mut failures = 0u64;
        let cfg = ProbeConfig::default();
        let mut seen_domains = std::collections::HashSet::new();
        for seq in 0..queries {
            let domain: Name = workload.sample(&mut rng).clone();
            seen_domains.insert(domain.clone());
            let i = selector.pick(&mut rng);
            exposure.record(i, &domain);
            let now = SimTime::from_nanos(seq as u64 * 30_000_000_000);
            let outcome = self
                .prober
                .probe(
                    &ProbeRequest {
                        is_home: self.is_home,
                        cfg,
                        ..ProbeRequest::new(self.client, &domain, now)
                    },
                    &mut self.targets[i],
                    &mut rng,
                    &mut SpanLog::disabled(),
                )
                .outcome;
            match outcome.response_time() {
                Some(rt) => {
                    let ms = rt.as_millis_f64();
                    selector.observe_success(i, ms);
                    latencies.push(ms);
                }
                None => {
                    selector.observe_failure(i);
                    failures += 1;
                }
            }
        }
        exposure.finish(queries as u64, seen_domains.len());
        SessionResult {
            strategy: format!("adaptive(eps={epsilon})"),
            latencies_ms: latencies,
            failures,
            exposure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::cities;
    use netsim::{AccessProfile, HostId};

    const SET: [&str; 4] = [
        "dns.google",
        "dns.quad9.net",
        "security.cloudflare-dns.com",
        "ordns.he.net",
    ];

    fn client() -> Host {
        Host::in_city(
            HostId(0),
            "c",
            cities::COLUMBUS_OH,
            AccessProfile::cloud_vm(),
        )
    }

    #[test]
    fn single_exposes_everything_to_one_resolver() {
        let c = client();
        let mut s = Session::new(&c, false, &SET);
        let w = Workload::zipf(30, 1.0);
        let r = s.run(&Strategy::Single(0), &w, 60, 1);
        assert!(r.success_rate() > 0.9);
        assert_eq!(r.exposure.resolvers_used(), 1);
        assert_eq!(r.exposure.max_profile_coverage(), 1.0);
    }

    #[test]
    fn sharding_reduces_profile_coverage() {
        let c = client();
        let mut s = Session::new(&c, false, &SET);
        let w = Workload::zipf(40, 1.0);
        let sharded = s.run(&Strategy::HashByDomain, &w, 120, 2);
        assert!(sharded.exposure.resolvers_used() >= 3);
        assert!(
            sharded.exposure.max_profile_coverage() < 0.7,
            "coverage {}",
            sharded.exposure.max_profile_coverage()
        );
        // But every query still answered by exactly one resolver.
        assert!((0.9..=1.0).contains(&sharded.success_rate()));
    }

    #[test]
    fn race_is_fastest_but_leaks_most() {
        let c = client();
        let mut s = Session::new(&c, false, &SET);
        let w = Workload::zipf(20, 1.0);
        let single = s.run(&Strategy::Single(0), &w, 80, 3);
        let mut s2 = Session::new(&c, false, &SET);
        let race = s2.run(&Strategy::Race(3), &w, 80, 3);
        assert!(
            race.median_ms().unwrap() <= single.median_ms().unwrap() + 1.0,
            "race {}, single {}",
            race.median_ms().unwrap(),
            single.median_ms().unwrap()
        );
        // Race-3 of 4 resolvers: each resolver sees ~3/4 of all queries, so
        // someone reconstructs almost the whole domain profile.
        assert!(
            race.exposure.max_profile_coverage() > 0.85,
            "coverage {}",
            race.exposure.max_profile_coverage()
        );
        assert!(race.exposure.resolvers_used() == 4);
    }

    #[test]
    fn round_robin_spreads_queries_evenly() {
        let c = client();
        let mut s = Session::new(&c, false, &SET);
        let w = Workload::zipf(10, 1.0);
        let r = s.run(&Strategy::RoundRobin, &w, 100, 4);
        assert_eq!(r.exposure.resolvers_used(), 4);
        assert!(r.exposure.max_query_share() < 0.30);
        assert!(r.exposure.entropy_bits() > 1.9);
    }

    #[test]
    fn adaptive_learns_to_avoid_remote_resolvers() {
        // A naive set with two far-away unicast resolvers: round-robin pays
        // for them on 2/5 of queries; the bandit learns to avoid them.
        let naive_set = [
            "dns.quad9.net",
            "doh.ffmuc.net",   // Munich, far from Ohio
            "dns.bebasid.com", // Indonesia, very far
            "dns.google",
            "ordns.he.net",
        ];
        let c = client();
        let w = Workload::zipf(30, 1.0);
        let mut s1 = Session::new(&c, false, &naive_set);
        let rr = s1.run(&Strategy::RoundRobin, &w, 150, 5);
        let mut s2 = Session::new(&c, false, &naive_set);
        let adaptive = s2.run_adaptive(0.05, &w, 150, 5);
        // Compare p95: round-robin's tail is dominated by the remote
        // resolvers; adaptive's is not.
        let rr_p95 = rr.p95_ms().unwrap();
        let ad_p95 = adaptive.p95_ms().unwrap();
        assert!(
            ad_p95 < rr_p95 / 3.0,
            "adaptive p95 {ad_p95:.0} vs round-robin {rr_p95:.0}"
        );
        // The exploitation concentrates on fast NA resolvers.
        assert!(adaptive.exposure.max_query_share() > 0.5);
    }

    #[test]
    fn sessions_are_deterministic() {
        let c = client();
        let w = Workload::zipf(15, 1.0);
        let mut s1 = Session::new(&c, false, &SET);
        let r1 = s1.run(&Strategy::UniformRandom, &w, 50, 7);
        let mut s2 = Session::new(&c, false, &SET);
        let r2 = s2.run(&Strategy::UniformRandom, &w, 50, 7);
        assert_eq!(r1.latencies_ms, r2.latencies_ms);
        assert_eq!(r1.exposure.query_counts, r2.exposure.query_counts);
    }
}
