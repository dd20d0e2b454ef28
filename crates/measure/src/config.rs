//! Campaign configuration: measurement spans, cadence, domains and scale.
//!
//! The paper's schedule (§3.2):
//!
//! * home devices — continuous measurements, "every few hours", June 22 to
//!   September 30, 2023;
//! * EC2 instances — September 19 to October 16, 2023, three times a day,
//!   then 1–3 day follow-up spans in February, March and April 2024.

use netsim::faults::{scatter_windows, FaultKind, FaultPlan, FaultScope};
use netsim::rng::derive_seed;
use netsim::{SimDuration, SimTime};

use crate::population::LoadModel;
use crate::probe::ProbeConfig;
use crate::session::SessionConfig;
use crate::vantage::{self, Vantage};

/// A contiguous measurement span for a set of vantage points.
#[derive(Debug, Clone)]
pub struct Span {
    /// First day of the span, counted from the campaign epoch
    /// (2023-06-22 00:00 simulated).
    pub start_day: u32,
    /// Number of days.
    pub days: u32,
    /// Measurement rounds per day (evenly spaced).
    pub rounds_per_day: u32,
    /// Which vantage labels participate.
    pub vantages: Vec<&'static str>,
}

impl Span {
    /// The probe times this span schedules, in order.
    pub fn round_times(&self) -> impl Iterator<Item = SimTime> {
        let (start_day, rounds) = (self.start_day, self.rounds_per_day);
        let step = SimDuration::from_secs(86_400 / u64::from(rounds.max(1)));
        (0..self.days).flat_map(move |day| {
            let day_start =
                SimTime::ZERO + SimDuration::from_secs(u64::from(start_day + day) * 86_400);
            (0..rounds)
                .map(move |r| day_start + SimDuration::from_nanos(step.as_nanos() * u64::from(r)))
        })
    }

    /// Number of rounds in the span.
    pub fn round_count(&self) -> usize {
        (self.days * self.rounds_per_day) as usize
    }
}

/// Full campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; identical seeds give identical campaigns.
    pub seed: u64,
    /// Queried domains (the paper used google.com, amazon.com,
    /// wikipedia.com).
    pub domains: Vec<String>,
    /// Per-probe settings (protocol etc.).
    pub probe: ProbeConfig,
    /// Measurement spans.
    pub spans: Vec<Span>,
    /// Scripted fault schedule. [`FaultPlan::EMPTY`] (the default in every
    /// constructor) injects nothing and keeps campaign output
    /// byte-identical to a faultless build.
    pub faults: FaultPlan,
    /// Optional client-population load model. `None` (the default in every
    /// constructor) is no load: campaign output is byte-identical to an
    /// unloaded build, as the seed goldens pin. A model is live whenever
    /// it is present; its multiplier is positive and finite.
    pub load: Option<LoadModel>,
    /// Optional connection-reuse / session-resumption model. `None` (the
    /// default in every constructor) opens every connection cold, as the
    /// paper's tool does; the seed goldens pin that output.
    pub session: Option<SessionConfig>,
}

const HOME_LABELS: [&str; 4] = ["home-1", "home-2", "home-3", "home-4"];
const EC2_LABELS: [&str; 3] = ["ec2-ohio", "ec2-frankfurt", "ec2-seoul"];

impl CampaignConfig {
    /// The paper's full schedule at simulated fidelity: ~100 days of home
    /// measurements every four hours plus the EC2 spans and follow-ups.
    pub fn paper(seed: u64) -> Self {
        CampaignConfig {
            seed,
            domains: standard_domains(),
            probe: ProbeConfig::default(),
            spans: vec![
                // Home: Jun 22 – Sep 30, 2023 ("every few hours" → 6/day).
                Span {
                    start_day: 0,
                    days: 100,
                    rounds_per_day: 6,
                    vantages: HOME_LABELS.to_vec(),
                },
                // EC2: Sep 19 – Oct 16, 2023, three times a day.
                Span {
                    start_day: 89,
                    days: 28,
                    rounds_per_day: 3,
                    vantages: EC2_LABELS.to_vec(),
                },
                // Follow-ups: Feb 8–10, Mar 12–13, Apr 12–14, 2024.
                Span {
                    start_day: 231,
                    days: 3,
                    rounds_per_day: 3,
                    vantages: EC2_LABELS.to_vec(),
                },
                Span {
                    start_day: 264,
                    days: 2,
                    rounds_per_day: 3,
                    vantages: EC2_LABELS.to_vec(),
                },
                Span {
                    start_day: 295,
                    days: 3,
                    rounds_per_day: 3,
                    vantages: EC2_LABELS.to_vec(),
                },
            ],
            faults: FaultPlan::EMPTY,
            load: None,
            session: None,
        }
    }

    /// A scaled-down campaign with the same structure, for tests, examples
    /// and benches: `rounds` rounds from every vantage point.
    pub fn quick(seed: u64, rounds: u32) -> Self {
        CampaignConfig {
            seed,
            domains: standard_domains(),
            probe: ProbeConfig::default(),
            spans: vec![
                Span {
                    start_day: 0,
                    days: 1,
                    rounds_per_day: rounds,
                    vantages: HOME_LABELS.to_vec(),
                },
                Span {
                    start_day: 0,
                    days: 1,
                    rounds_per_day: rounds,
                    vantages: EC2_LABELS.to_vec(),
                },
            ],
            faults: FaultPlan::EMPTY,
            load: None,
            session: None,
        }
    }

    /// A simulated longitudinal campaign over the full population: `days`
    /// days of the paper's steady-state cadence — home vantages every
    /// four hours (6 rounds/day), EC2 vantages three times a day — over
    /// all three domains. One day schedules 7 524 probes against the full
    /// catalog ((4×6 + 3×3) vantage-rounds × 76 resolvers × 3 domains),
    /// so `--days 133` clears a million probes: the scale the sharded,
    /// checkpointed engine ([`crate::shard::ShardedRunner`]) exists for.
    pub fn longitudinal(seed: u64, days: u32) -> Self {
        CampaignConfig {
            seed,
            domains: standard_domains(),
            probe: ProbeConfig::default(),
            spans: vec![
                Span {
                    start_day: 0,
                    days,
                    rounds_per_day: 6,
                    vantages: HOME_LABELS.to_vec(),
                },
                Span {
                    start_day: 0,
                    days,
                    rounds_per_day: 3,
                    vantages: EC2_LABELS.to_vec(),
                },
            ],
            faults: FaultPlan::EMPTY,
            load: None,
            session: None,
        }
    }

    /// The simulated horizon the spans cover, from the campaign epoch to
    /// the end of the last span — the window a generated fault plan
    /// scatters its events over.
    pub fn horizon(&self) -> SimDuration {
        let end_day = self
            .spans
            .iter()
            .map(|s| s.start_day + s.days)
            .max()
            .unwrap_or(1)
            .max(1);
        SimDuration::from_secs(u64::from(end_day) * 86_400)
    }

    /// Switches the campaign to the paper-calibrated client and network:
    /// `dig`'s retry defaults plus the [`default_fault_plan`] for this
    /// config's seed and horizon. With this, the campaign's error rate is
    /// an emergent property of injected transient faults — calibrated to
    /// the paper's ≈5.8 % dominated by connection-establishment failures —
    /// rather than of fixed per-resolver health constants alone.
    pub fn with_default_faults(mut self) -> Self {
        self.probe.retry = crate::retry::RetryPolicy::dig_defaults();
        self.faults = default_fault_plan(self.seed, self.horizon());
        self
    }

    /// Attaches a client-population load model (builder-style). A zero
    /// model is accepted and behaves exactly like `None`.
    pub fn with_load(mut self, load: LoadModel) -> Self {
        self.load = Some(load);
        self
    }

    /// Attaches a connection-reuse / session-resumption model
    /// (builder-style).
    pub fn with_session(mut self, session: SessionConfig) -> Self {
        self.session = Some(session);
        self
    }

    /// The vantage points this campaign uses, deduplicated.
    pub fn vantages(&self) -> Vec<Vantage> {
        let mut labels: Vec<&str> = self
            .spans
            .iter()
            .flat_map(|s| s.vantages.iter().copied())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels.into_iter().filter_map(vantage::find).collect()
    }

    /// Validates the configuration up front, so malformed input surfaces
    /// as one clear error at campaign construction instead of a panic deep
    /// inside a probe loop. Checks that every domain parses as a DNS name,
    /// that at least one domain and span are present, and the retry
    /// policy, fault plan, load model and session model.
    pub fn validate(&self) -> Result<(), String> {
        if self.domains.is_empty() {
            return Err("campaign config has no domains".to_string());
        }
        for d in &self.domains {
            if let Err(e) = dns_wire::Name::parse(d) {
                return Err(format!("invalid domain {d:?}: {e}"));
            }
        }
        if self.spans.is_empty() {
            return Err("campaign config has no measurement spans".to_string());
        }
        self.probe.retry.validate()?;
        self.faults
            .validate()
            .map_err(|e| format!("fault plan: {e}"))?;
        if let Some(load) = &self.load {
            load.validate().map_err(|e| format!("load model: {e}"))?;
        }
        if let Some(session) = &self.session {
            session
                .validate()
                .map_err(|e| format!("session model: {e}"))?;
        }
        Ok(())
    }

    /// Total probes this configuration will issue, given `resolvers`
    /// resolvers.
    pub fn probe_count(&self, resolvers: usize) -> usize {
        let rounds: usize = self
            .spans
            .iter()
            .map(|s| s.round_count() * s.vantages.len())
            .sum();
        rounds * resolvers * self.domains.len()
    }
}

/// How much measurement to simulate: the campaign sizes that have a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few rounds per vantage — seconds of wall-clock; for tests.
    Quick,
    /// A day-scale campaign — good statistics in tens of seconds.
    Standard,
    /// The paper's full multi-month schedule (~620k probes).
    Paper,
}

impl Scale {
    /// Builds the campaign configuration for this scale.
    pub fn config(self, seed: u64) -> CampaignConfig {
        match self {
            Scale::Quick => CampaignConfig::quick(seed, 4),
            Scale::Standard => CampaignConfig::quick(seed, 24),
            Scale::Paper => CampaignConfig::paper(seed),
        }
    }

    /// The scale called `name`: `quick`, `standard` or `paper`.
    pub fn from_name(name: &str) -> Result<Scale, String> {
        match name {
            "quick" => Ok(Scale::Quick),
            "standard" => Ok(Scale::Standard),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale {other:?}")),
        }
    }
}

/// The calibrated default fault schedule: deterministic per `(seed,
/// horizon)`, scattering transient faults over the campaign window so
/// that a full-population campaign probed with
/// [`RetryPolicy::dig_defaults`](crate::retry::RetryPolicy::dig_defaults)
/// lands on the paper's §4 error taxonomy — ≈5.8 % overall error rate
/// with connection-establishment failures the largest class.
///
/// Ingredients, per simulated day:
///
/// * **site outages** — every resolver goes dark occasionally; hobbyist
///   deployments far more often and for longer (the paper's
///   `chewbacca.meganerd.nl` pattern). Outage windows dwarf the 15 s
///   retry budget, so these exhaust as `connect_timeout` — the dominant
///   class.
/// * **brownouts** — non-mainstream frontends slow down and shed load
///   with SERVFAILs under their evening peaks.
/// * **certificate expiries** — small sites let certificates lapse for
///   hours (`certificate_error`, also a connection failure).
/// * **rate limiting** — big anycast operators throttle the prober with
///   429s in short windows.
/// * **loss bursts** — regional congestion that single attempts often
///   survive and retries usually recover from (the transient-recovered
///   population the availability report now separates).
/// * **link flaps** — one home vantage's cable drops for minutes at a
///   time, hitting every resolver probed from it.
pub fn default_fault_plan(seed: u64, horizon: SimDuration) -> FaultPlan {
    let plan_seed = derive_seed(seed, "fault-plan");
    let mut plan = FaultPlan::with_seed(plan_seed);
    let days = (horizon.as_nanos() / SimDuration::from_hours(24).as_nanos()).max(1) as usize;
    let mins = SimDuration::from_mins;

    for entry in catalog::resolvers::all() {
        let host = entry.hostname;
        let hobbyist = entry.small_site;
        let scope = || FaultScope::Resolver(host.to_string());

        // Site outages.
        let (count, lo, hi) = if hobbyist {
            (2 * days, mins(8), mins(25))
        } else if entry.mainstream {
            (days.div_ceil(4), mins(1), mins(4))
        } else {
            (days, mins(3), mins(12))
        };
        for (from, until) in
            scatter_windows(plan_seed, &format!("outage:{host}"), horizon, count, lo, hi)
        {
            plan.push(FaultKind::SiteOutage, scope(), from, until);
        }

        if !entry.mainstream {
            // Brownouts: slow frontends shedding load at peak.
            for (from, until) in scatter_windows(
                plan_seed,
                &format!("brownout:{host}"),
                horizon,
                days,
                mins(10),
                mins(30),
            ) {
                plan.push(
                    FaultKind::Brownout {
                        slowdown: 4.0,
                        servfail_rate: 0.3,
                    },
                    scope(),
                    from,
                    until,
                );
            }
        }

        if hobbyist {
            // Lapsed certificates on hobbyist deployments.
            for (from, until) in scatter_windows(
                plan_seed,
                &format!("cert:{host}"),
                horizon,
                days.div_ceil(2),
                mins(15),
                mins(50),
            ) {
                plan.push(FaultKind::CertExpiry, scope(), from, until);
            }
        }

        if entry.mainstream {
            // Rate limiting by the big operators.
            for (from, until) in scatter_windows(
                plan_seed,
                &format!("ratelimit:{host}"),
                horizon,
                days.div_ceil(2),
                mins(5),
                mins(15),
            ) {
                plan.push(
                    FaultKind::RateLimit { reject_rate: 0.7 },
                    scope(),
                    from,
                    until,
                );
            }
        }
    }

    // Regional congestion: loss and latency bursts.
    for region in [
        netsim::Region::NorthAmerica,
        netsim::Region::Europe,
        netsim::Region::Asia,
    ] {
        let tag = format!("{region:?}");
        for (from, until) in scatter_windows(
            plan_seed,
            &format!("loss:{tag}"),
            horizon,
            2 * days,
            mins(5),
            mins(20),
        ) {
            plan.push(
                FaultKind::LossBurst { loss: 0.3 },
                FaultScope::Region(region),
                from,
                until,
            );
        }
        for (from, until) in scatter_windows(
            plan_seed,
            &format!("latency:{tag}"),
            horizon,
            days,
            mins(10),
            mins(30),
        ) {
            plan.push(
                FaultKind::LatencyBurst { extra_ms: 60.0 },
                FaultScope::Region(region),
                from,
                until,
            );
        }
    }

    // One home vantage's cable link flaps.
    for (from, until) in scatter_windows(plan_seed, "flap:home-3", horizon, days, mins(2), mins(8))
    {
        plan.push(
            FaultKind::LinkFlap,
            FaultScope::Vantage("home-3".to_string()),
            from,
            until,
        );
    }

    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

/// The paper's three measured domains.
pub fn standard_domains() -> Vec<String> {
    vec![
        "google.com".to_string(),
        "amazon.com".to_string(),
        "wikipedia.com".to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_schedules_evenly() {
        let s = Span {
            start_day: 2,
            days: 2,
            rounds_per_day: 3,
            vantages: vec!["ec2-ohio"],
        };
        let times: Vec<SimTime> = s.round_times().collect();
        assert_eq!(times.len(), 6);
        assert_eq!(times[0].as_secs(), 2 * 86_400);
        assert_eq!(times[1].as_secs() - times[0].as_secs(), 86_400 / 3);
        assert_eq!(times[3].as_secs(), 3 * 86_400);
    }

    #[test]
    fn paper_config_matches_schedule() {
        let c = CampaignConfig::paper(1);
        assert_eq!(c.domains.len(), 3);
        assert_eq!(c.vantages().len(), 7);
        // Home span: 100 days × 6 rounds × 4 devices.
        assert_eq!(c.spans[0].round_count(), 600);
        // Probe count: substantial but tractable.
        let probes = c.probe_count(76);
        assert!((500_000..900_000).contains(&probes), "{probes}");
    }

    #[test]
    fn quick_config_is_small() {
        let c = CampaignConfig::quick(1, 4);
        let probes = c.probe_count(76);
        assert!(probes < 8_000, "{probes}");
        assert_eq!(c.vantages().len(), 7);
    }

    #[test]
    fn vantages_deduplicated() {
        let mut c = CampaignConfig::quick(1, 1);
        c.spans.push(c.spans[0].clone());
        assert_eq!(c.vantages().len(), 7);
    }

    #[test]
    fn validate_accepts_standard_configs() {
        assert_eq!(CampaignConfig::paper(1).validate(), Ok(()));
        assert_eq!(CampaignConfig::quick(1, 2).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_domains_and_empty_configs() {
        let mut c = CampaignConfig::quick(1, 1);
        c.domains.push("bad..domain".to_string());
        assert!(c.validate().unwrap_err().contains("bad..domain"));

        let mut c = CampaignConfig::quick(1, 1);
        c.domains.clear();
        assert!(c.validate().unwrap_err().contains("no domains"));

        let mut c = CampaignConfig::quick(1, 1);
        c.spans.clear();
        assert!(c.validate().unwrap_err().contains("no measurement spans"));
    }

    #[test]
    fn validate_checks_session_model() {
        use crate::population::LoadModel;

        let c = CampaignConfig::quick(1, 1).with_session(SessionConfig::warm());
        assert_eq!(c.validate(), Ok(()));
        let c = CampaignConfig::quick(1, 1).with_session(SessionConfig::interleaved(2.0));
        assert!(c.validate().unwrap_err().starts_with("session model: "));
        // Load and session compose: a live model of each is a valid config.
        let c = CampaignConfig::quick(1, 1)
            .with_load(LoadModel::standard(1).with_multiplier(1.0))
            .with_session(SessionConfig::warm());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn standard_domains_are_the_papers() {
        assert_eq!(
            standard_domains(),
            vec!["google.com", "amazon.com", "wikipedia.com"]
        );
    }
}
