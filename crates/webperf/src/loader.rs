//! The page loader: walks a page's dependency DAG and computes load time,
//! charging DNS resolution (through a chosen encrypted resolver), web
//! connection setup and transfer for every object.
//!
//! Browser-faithful details:
//!
//! * DNS connection reuse runs through the measurement stack's session
//!   layer ([`measure::SessionState`], under the resolver's own
//!   [`catalog::ReusePolicy`]): the first resolution opens the encrypted
//!   channel cold and pays the full connection response time, later
//!   resolutions reuse the pooled connection and pay only the query round
//!   trip — and a failed resolution invalidates the pool, so the next
//!   domain re-pays the cold setup exactly as a browser would;
//! * each domain's first object pays TCP+TLS to the web server; later
//!   objects reuse the connection;
//! * transfers share the client's downstream bandwidth serially along the
//!   critical path (a deliberate simplification that WProf shows is close
//!   for small object counts).

use std::collections::HashMap;

use dns_wire::Name;
use measure::{
    ConnectionMode, ProbeConfig, ProbeOutcome, ProbeRequest, ProbeTarget, Prober, SessionConfig,
    SessionState, SpanLog,
};
use netsim::{Host, SimRng, SimTime};

use crate::page::Page;

/// Web-server model: every origin sits on a CDN PoP near the client.
#[derive(Debug, Clone, Copy)]
pub struct WebConfig {
    /// Median RTT to web origins, ms.
    pub web_rtt_ms: f64,
    /// RTT jitter sigma (log-space).
    pub web_rtt_sigma: f64,
    /// Round trips to establish the web connection (TCP+TLS 1.3 = 2).
    pub connect_rtts: f64,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            web_rtt_ms: 14.0,
            web_rtt_sigma: 0.15,
            connect_rtts: 2.0,
        }
    }
}

/// The outcome of loading one page.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Total page load time, ms.
    pub plt_ms: f64,
    /// Page load time with free (zero-cost) DNS, ms.
    pub plt_no_dns_ms: f64,
    /// Milliseconds of DNS on the critical path.
    pub dns_critical_ms: f64,
    /// Per-domain DNS resolution times, ms.
    pub dns_times_ms: HashMap<Name, f64>,
    /// Domains that failed to resolve (their objects never load).
    pub failed_domains: Vec<Name>,
}

impl LoadReport {
    /// Fraction of the page load spent waiting on DNS along the critical
    /// path (WProf reports up to 13 % for uncached names).
    pub fn dns_share(&self) -> f64 {
        if self.plt_ms <= 0.0 {
            0.0
        } else {
            self.dns_critical_ms / self.plt_ms
        }
    }
}

/// Loads pages against one resolver.
pub struct Loader {
    prober: Prober,
    web: WebConfig,
}

impl Default for Loader {
    fn default() -> Self {
        Loader {
            prober: Prober::new(),
            web: WebConfig::default(),
        }
    }
}

impl Loader {
    /// A loader with a custom web-server model.
    pub fn with_web(web: WebConfig) -> Self {
        Loader {
            prober: Prober::new(),
            web,
        }
    }

    /// Resolves every domain of `page` through `resolver` and computes the
    /// dependency-aware page load time.
    pub fn load(
        &self,
        page: &Page,
        client: &Host,
        is_home: bool,
        resolver: &mut ProbeTarget,
        now: SimTime,
        rng: &mut SimRng,
    ) -> LoadReport {
        // Resolve each distinct domain once, in first-use order, through a
        // browser-like session: full reuse under the resolver's own
        // policy. A cold probe is charged its whole response time, a warm
        // one only the query exchange; failures tear the session down so
        // the next resolution reopens the channel.
        let mut dns_times_ms = HashMap::new();
        let mut failed_domains = Vec::new();
        let cfg = ProbeConfig::default();
        let scfg = SessionConfig::warm();
        let mut session = SessionState::new(
            0xD05,
            "webperf",
            resolver.entry.hostname,
            resolver.entry.reuse_policy(),
            resolver.entry.coalesce_key(),
        );
        for domain in page.domains() {
            let forced_cold = session.draw_forced_cold(&scfg);
            let mode = session.decide(now, cfg.protocol, true, forced_cold);
            let outcome = self
                .prober
                .probe(
                    &ProbeRequest {
                        is_home,
                        cfg,
                        ..ProbeRequest::new(client, &domain, now)
                    },
                    resolver,
                    rng,
                    &mut SpanLog::disabled(),
                )
                .outcome;
            match outcome {
                ProbeOutcome::Success { timings, .. } => {
                    let ms = match mode {
                        ConnectionMode::Cold => timings.total().as_millis_f64(),
                        ConnectionMode::Resumed | ConnectionMode::Reused => {
                            timings.exchange().as_millis_f64()
                        }
                    };
                    session.on_success(now, cfg.protocol, mode, timings.connect);
                    dns_times_ms.insert(domain, ms);
                }
                ProbeOutcome::Failure { .. } => {
                    session.on_failure();
                    failed_domains.push(domain);
                }
            }
        }

        let plt_ms = self.simulate(page, &dns_times_ms, client, true);
        let plt_no_dns_ms = self.simulate(page, &dns_times_ms, client, false);
        LoadReport {
            plt_ms,
            plt_no_dns_ms,
            dns_critical_ms: (plt_ms - plt_no_dns_ms).max(0.0),
            dns_times_ms,
            failed_domains,
        }
    }

    /// Walks the DAG computing finish times. `charge_dns` toggles DNS cost
    /// (the counterfactual for critical-path attribution). Web-side jitter
    /// comes from a stream derived from the page label so the DNS and
    /// no-DNS passes — and different resolvers on the same page — see
    /// identical web conditions (a paired experimental design).
    fn simulate(
        &self,
        page: &Page,
        dns_times_ms: &HashMap<Name, f64>,
        client: &Host,
        charge_dns: bool,
    ) -> f64 {
        let mut web_rng = SimRng::derived(0xCAFE, &page.label);
        let mut domain_ready: HashMap<&Name, f64> = HashMap::new();
        let mut finish = vec![f64::INFINITY; page.objects.len()];

        for (i, obj) in page.objects.iter().enumerate() {
            let deps_done = obj
                .depends_on
                .iter()
                .map(|&d| finish[d])
                .fold(0.0f64, f64::max);
            if deps_done.is_infinite() {
                continue; // a dependency failed
            }
            let ready = match domain_ready.get(&obj.domain) {
                Some(&t) => t.max(deps_done),
                None => {
                    let Some(&dns) = dns_times_ms.get(&obj.domain) else {
                        continue; // resolution failed: object never loads
                    };
                    let rtt = web_rng.lognormal_median(self.web.web_rtt_ms, self.web.web_rtt_sigma);
                    let setup = (if charge_dns { dns } else { 0.0 }) + self.web.connect_rtts * rtt;
                    let t = deps_done + setup;
                    domain_ready.insert(&obj.domain, t);
                    t
                }
            };
            let rtt = web_rng.lognormal_median(self.web.web_rtt_ms, self.web.web_rtt_sigma);
            let transfer = rtt + client.access.serialization_ms(obj.bytes, false);
            finish[i] = ready + transfer;
        }
        finish
            .into_iter()
            .filter(|f| f.is_finite())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::cities;
    use netsim::{AccessProfile, HostId};

    fn client() -> Host {
        Host::in_city(HostId(0), "c", cities::CHICAGO, AccessProfile::home_cable())
    }

    fn target(hostname: &str) -> ProbeTarget {
        ProbeTarget::from_entry(catalog::resolvers::find(hostname).unwrap())
    }

    #[test]
    fn page_loads_and_dns_contributes() {
        let loader = Loader::default();
        let page = Page::news_site("example.com");
        let mut resolver = target("dns.google");
        let mut rng = SimRng::from_seed(1);
        let report = loader.load(
            &page,
            &client(),
            true,
            &mut resolver,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(report.failed_domains.is_empty());
        assert!(report.plt_ms > 100.0, "plt {}", report.plt_ms);
        assert!(report.plt_no_dns_ms < report.plt_ms);
        assert!(
            (0.01..0.6).contains(&report.dns_share()),
            "dns share {}",
            report.dns_share()
        );
        assert_eq!(report.dns_times_ms.len(), 5);
    }

    #[test]
    fn slow_resolver_slows_the_page() {
        let loader = Loader::default();
        let page = Page::news_site("example.com");
        let mut rng = SimRng::from_seed(2);
        let mut fast = target("dns.google");
        let fast_plt = loader
            .load(&page, &client(), true, &mut fast, SimTime::ZERO, &mut rng)
            .plt_ms;
        let mut slow = target("dns.bebasid.com"); // Indonesia, from Chicago
        let slow_plt = loader
            .load(&page, &client(), true, &mut slow, SimTime::ZERO, &mut rng)
            .plt_ms;
        assert!(
            slow_plt > fast_plt + 200.0,
            "fast {fast_plt} vs slow {slow_plt}"
        );
    }

    #[test]
    fn single_domain_page_pays_dns_once() {
        let loader = Loader::default();
        let page = Page::simple("example.com");
        let mut resolver = target("dns.quad9.net");
        let mut rng = SimRng::from_seed(3);
        let report = loader.load(
            &page,
            &client(),
            true,
            &mut resolver,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(report.dns_times_ms.len(), 1);
        assert!(report.dns_critical_ms > 0.0);
    }

    #[test]
    fn dead_resolver_fails_the_whole_page() {
        let loader = Loader::default();
        let page = Page::news_site("example.com");
        let mut resolver = target("chewbacca.meganerd.nl");
        let mut rng = SimRng::from_seed(4);
        let report = loader.load(
            &page,
            &client(),
            true,
            &mut resolver,
            SimTime::ZERO,
            &mut rng,
        );
        // Mostly-down: most domains fail to resolve; the page is crippled.
        assert!(!report.failed_domains.is_empty(), "expected failed domains");
    }

    #[test]
    fn synthetic_pages_load() {
        let loader = Loader::default();
        let mut rng = SimRng::from_seed(5);
        let page = Page::synthetic(30, 6, &mut rng);
        let mut resolver = target("dns.google");
        let report = loader.load(
            &page,
            &client(),
            true,
            &mut resolver,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(report.plt_ms > 0.0);
    }
}
