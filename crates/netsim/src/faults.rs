//! Deterministic, seedable fault injection scripted over simulated time.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s — each a fault kind, a
//! scope (which resolvers / regions / vantages it hits) and a `[from,
//! until)` window in [`SimTime`]. The prober resolves the plan into a
//! [`FaultEffects`] snapshot once per probe attempt via
//! [`FaultPlan::effects_at`], and applies the effects at the matching
//! layer: link faults shape the [`Path`](crate::Path), outages and expired
//! certificates override the observed health, brownouts slow the server
//! and inject SERVFAILs, rate limiting surfaces as HTTP 429.
//!
//! Two properties the campaign's determinism rests on:
//!
//! * **Plan resolution is pure.** `effects_at` draws nothing from the
//!   probe RNG; stochastic per-attempt decisions (a brownout SERVFAIL, a
//!   429) are hash-based uniforms over `(plan seed, time, target)`, so an
//!   active plan perturbs *only* the probes it actually touches, and the
//!   same `(seed, time, target)` always decides the same way — on any
//!   thread, in any run.
//! * **An empty plan is byte-transparent.** With no events the effects
//!   are [`FaultEffects::clear`], every application site is a no-op, and
//!   campaign output is bit-identical to a build without the fault layer.

use detlint_macros::{deny_alloc, rng_neutral};

use crate::geo::Region;
use crate::rng::{derive_seed, splitmix64};
use crate::time::{SimDuration, SimTime};

/// What a fault does while its window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The link to the target is down: every packet is lost (connection
    /// attempts burn their full retry schedule and time out).
    LinkFlap,
    /// A loss burst: `loss` is added to the path's per-traversal loss.
    LossBurst {
        /// Additional per-traversal loss probability, `0.0..=1.0`.
        loss: f64,
    },
    /// A latency burst: every traversal pays `extra_ms` more one-way.
    LatencyBurst {
        /// Additional one-way latency, milliseconds.
        extra_ms: f64,
    },
    /// The serving site is unreachable — probes observe a blackholed
    /// service exactly as during a scheduled outage.
    SiteOutage,
    /// A resolver brownout: processing is `slowdown`× slower and a
    /// fraction of queries are answered SERVFAIL.
    Brownout {
        /// Multiplier on frontend processing time (`>= 1.0`).
        slowdown: f64,
        /// Per-query probability of a SERVFAIL answer, `0.0..=1.0`.
        servfail_rate: f64,
    },
    /// The server presents an expired certificate for the window (the
    /// hobbyist-deployment failure mode the paper calls out).
    CertExpiry,
    /// HTTP-level rate limiting: a fraction of requests get a 429.
    RateLimit {
        /// Per-request probability of a 429 response, `0.0..=1.0`.
        reject_rate: f64,
    },
}

/// Which (vantage, resolver) pairs a fault event applies to.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultScope {
    /// Every probe.
    Global,
    /// Probes against resolvers geolocated in a region.
    Region(Region),
    /// Probes against one resolver hostname.
    Resolver(String),
    /// Probes issued from one vantage label.
    Vantage(String),
}

impl FaultScope {
    /// Whether a probe against `target` falls inside this scope.
    pub fn matches(&self, target: &FaultTarget<'_>) -> bool {
        match self {
            FaultScope::Global => true,
            FaultScope::Region(r) => target.region == *r,
            FaultScope::Resolver(h) => target.resolver == h,
            FaultScope::Vantage(v) => target.vantage == v,
        }
    }
}

/// One scripted fault: a kind, a scope and a half-open time window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// What happens.
    pub kind: FaultKind,
    /// Who it happens to.
    pub scope: FaultScope,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl FaultEvent {
    /// Whether the window is active at `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }
}

/// The coordinates of one probe, used for scope matching and for the
/// hash-based stochastic decisions.
#[derive(Debug, Clone, Copy)]
pub struct FaultTarget<'a> {
    /// Resolver hostname.
    pub resolver: &'a str,
    /// The resolver's region.
    pub region: Region,
    /// Vantage label.
    pub vantage: &'a str,
}

/// The resolved effect of a plan on one probe attempt. All stochastic
/// decisions (SERVFAIL, 429) are already made: the prober only reads
/// booleans and scalars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEffects {
    /// The link is down (all packets lost).
    pub link_down: bool,
    /// Additional per-traversal loss.
    pub extra_loss: f64,
    /// Additional one-way latency, milliseconds.
    pub extra_latency_ms: f64,
    /// The serving site is unreachable.
    pub site_outage: bool,
    /// Multiplier on server processing time (`1.0` = none).
    pub slowdown: f64,
    /// This attempt's query is answered SERVFAIL.
    pub servfail: bool,
    /// The server presents an expired certificate.
    pub bad_certificate: bool,
    /// This attempt's HTTP request is rejected with a 429.
    pub rate_limited: bool,
    /// Offered-load rate at the serving site, queries per second (`0.0` =
    /// idle). Not set by fault events: a population load model overlays it
    /// so the frontend adds the deterministic queueing delay of its
    /// `QueueModel` — the same effects struct carries both fault and load
    /// state to the single application site in the prober.
    pub offered_load_qps: f64,
}

impl FaultEffects {
    /// No active faults.
    pub const fn clear() -> Self {
        FaultEffects {
            link_down: false,
            extra_loss: 0.0,
            extra_latency_ms: 0.0,
            site_outage: false,
            slowdown: 1.0,
            servfail: false,
            bad_certificate: false,
            rate_limited: false,
            offered_load_qps: 0.0,
        }
    }
}

impl Default for FaultEffects {
    fn default() -> Self {
        Self::clear()
    }
}

/// A deterministic fault schedule over simulated time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's stochastic per-attempt decisions. Independent
    /// of the campaign's probe RNG streams.
    pub seed: u64,
    /// The scripted events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: affects nothing, byte-transparent to campaigns.
    pub const EMPTY: FaultPlan = FaultPlan {
        seed: 0,
        events: Vec::new(),
    };

    /// Starts a plan with a seed for its stochastic decisions.
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// True when the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds one event (builder-style DSL).
    ///
    /// ```
    /// use netsim::faults::{FaultKind, FaultPlan, FaultScope};
    /// use netsim::{SimDuration, SimTime};
    ///
    /// let hour = |h| SimTime::ZERO + SimDuration::from_hours(h);
    /// let plan = FaultPlan::with_seed(7)
    ///     .event(
    ///         FaultKind::SiteOutage,
    ///         FaultScope::Resolver("dns.example".into()),
    ///         hour(2),
    ///         hour(5),
    ///     )
    ///     .event(FaultKind::LossBurst { loss: 0.2 }, FaultScope::Global, hour(8), hour(9));
    /// assert_eq!(plan.events.len(), 2);
    /// ```
    pub fn event(
        mut self,
        kind: FaultKind,
        scope: FaultScope,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.push(kind, scope, from, until);
        self
    }

    /// Adds one event in place.
    pub fn push(&mut self, kind: FaultKind, scope: FaultScope, from: SimTime, until: SimTime) {
        assert!(until > from, "fault window must have positive duration");
        self.events.push(FaultEvent {
            kind,
            scope,
            from,
            until,
        });
    }

    /// Checks every window is well-formed and every rate is a probability.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            if e.until <= e.from {
                return Err(format!(
                    "fault event {i}: window must have positive duration"
                ));
            }
            let bad_rate = match e.kind {
                FaultKind::LossBurst { loss } => !(0.0..=1.0).contains(&loss),
                FaultKind::Brownout {
                    slowdown,
                    servfail_rate,
                } => slowdown < 1.0 || !(0.0..=1.0).contains(&servfail_rate),
                FaultKind::RateLimit { reject_rate } => !(0.0..=1.0).contains(&reject_rate),
                FaultKind::LatencyBurst { extra_ms } => extra_ms < 0.0,
                _ => false,
            };
            if bad_rate {
                return Err(format!("fault event {i}: rate out of range"));
            }
        }
        Ok(())
    }

    /// Resolves the plan into effects for one probe attempt at `now`
    /// against `target`. Pure: draws nothing from any RNG stream.
    #[rng_neutral]
    pub fn effects_at(&self, now: SimTime, target: &FaultTarget<'_>) -> FaultEffects {
        let mut fx = FaultEffects::clear();
        if self.events.is_empty() {
            return fx;
        }
        for (i, e) in self.events.iter().enumerate() {
            if e.active_at(now) && e.scope.matches(target) {
                self.fold_event(&mut fx, i, e.kind, now, target);
            }
        }
        fx
    }

    /// Precomputes which events can ever touch `target`.
    ///
    /// Scope matching is time-independent, so a per-(vantage, resolver)
    /// caller can resolve it once per campaign and let every probe attempt
    /// walk only the matching events via
    /// [`effects_at_masked`](Self::effects_at_masked). The mask stores
    /// *original* event indices: the hash-based [`decide`](Self::decide)
    /// coordinates are unchanged, so masked resolution is bit-identical to
    /// [`effects_at`](Self::effects_at). Longitudinal plans script
    /// thousands of per-resolver events, of which a given pair matches a
    /// handful — this turns the per-attempt scan from O(events) into
    /// O(matching events).
    #[rng_neutral]
    pub fn scope_mask(&self, target: &FaultTarget<'_>) -> Vec<u32> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.scope.matches(target))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// [`effects_at`](Self::effects_at) restricted to the events in a
    /// [`scope_mask`](Self::scope_mask) for `target`. Allocation-free and
    /// pure; bit-identical to the unmasked resolution when the mask was
    /// built for the same target.
    #[deny_alloc]
    #[rng_neutral]
    pub fn effects_at_masked(
        &self,
        now: SimTime,
        target: &FaultTarget<'_>,
        mask: &[u32],
    ) -> FaultEffects {
        let mut fx = FaultEffects::clear();
        for &i in mask {
            let e = &self.events[i as usize];
            if e.active_at(now) {
                self.fold_event(&mut fx, i as usize, e.kind, now, target);
            }
        }
        fx
    }

    /// Folds event `i`, of kind `kind` — active at `now` and in scope for
    /// `target` — into `fx`. The index is the event's position in the
    /// plan, which salts its stochastic decisions.
    #[inline]
    fn fold_event(
        &self,
        fx: &mut FaultEffects,
        i: usize,
        kind: FaultKind,
        now: SimTime,
        target: &FaultTarget<'_>,
    ) {
        match kind {
            FaultKind::LinkFlap => fx.link_down = true,
            FaultKind::LossBurst { loss } => {
                fx.extra_loss = (fx.extra_loss + loss).min(1.0);
            }
            FaultKind::LatencyBurst { extra_ms } => fx.extra_latency_ms += extra_ms,
            FaultKind::SiteOutage => fx.site_outage = true,
            FaultKind::Brownout {
                slowdown,
                servfail_rate,
            } => {
                fx.slowdown = fx.slowdown.max(slowdown);
                if self.decide(now, target, i, servfail_rate) {
                    fx.servfail = true;
                }
            }
            FaultKind::CertExpiry => fx.bad_certificate = true,
            FaultKind::RateLimit { reject_rate } => {
                if self.decide(now, target, i, reject_rate) {
                    fx.rate_limited = true;
                }
            }
        }
    }

    /// A hash-based Bernoulli trial over `(plan seed, time, target, event)`
    /// — deterministic for identical coordinates, independent between
    /// attempts (the attempt start time differs) and between events.
    fn decide(&self, now: SimTime, target: &FaultTarget<'_>, event_index: usize, p: f64) -> bool {
        hash_decision(self.seed, now, target, event_index as u64, p)
    }
}

/// The hash-based Bernoulli trial behind every stochastic per-attempt
/// decision: a pure uniform over `(seed, time, target, salt)`, never
/// touching any probe RNG stream. [`FaultPlan`] salts it with the event
/// index; other deterministic overlays (the population load model's
/// overload shedding) salt it with their own coordinates so decisions stay
/// independent between subsystems.
#[rng_neutral]
pub fn hash_decision(seed: u64, now: SimTime, target: &FaultTarget<'_>, salt: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let mut state = derive_seed(seed, target.resolver)
        ^ derive_seed(seed.rotate_left(17), target.vantage)
        ^ now.as_nanos()
        ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
    let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
    u < p
}

/// Deterministically scatters `count` non-degenerate windows across
/// `[SimTime::ZERO, horizon)`, each `min_len..=max_len` long. Used by
/// plan generators to place outage/brownout windows per resolver without
/// touching any probe RNG stream.
#[rng_neutral]
pub fn scatter_windows(
    seed: u64,
    label: &str,
    horizon: SimDuration,
    count: usize,
    min_len: SimDuration,
    max_len: SimDuration,
) -> Vec<(SimTime, SimTime)> {
    assert!(max_len >= min_len, "window length range inverted");
    let mut state = derive_seed(seed, label);
    let horizon_ns = horizon.as_nanos().max(1);
    let spread = max_len.as_nanos().saturating_sub(min_len.as_nanos());
    (0..count)
        .map(|_| {
            let start_ns = splitmix64(&mut state) % horizon_ns;
            let len_ns = min_len.as_nanos()
                + if spread == 0 {
                    0
                } else {
                    splitmix64(&mut state) % (spread + 1)
                };
            let from = SimTime::from_nanos(start_ns);
            let until = SimTime::from_nanos(start_ns.saturating_add(len_ns.max(1)));
            (from, until)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Region;

    fn target() -> FaultTarget<'static> {
        FaultTarget {
            resolver: "dns.example",
            region: Region::Europe,
            vantage: "ec2-ohio",
        }
    }

    fn hour(h: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_hours(h)
    }

    #[test]
    fn empty_plan_is_clear_everywhere() {
        let plan = FaultPlan::EMPTY;
        let fx = plan.effects_at(hour(5), &target());
        assert_eq!(fx, FaultEffects::clear());
        assert!(plan.is_empty());
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::with_seed(1).event(
            FaultKind::SiteOutage,
            FaultScope::Global,
            hour(2),
            hour(4),
        );
        assert!(!plan.effects_at(hour(1), &target()).site_outage);
        assert!(plan.effects_at(hour(2), &target()).site_outage);
        assert!(plan.effects_at(hour(3), &target()).site_outage);
        assert!(!plan.effects_at(hour(4), &target()).site_outage);
    }

    #[test]
    fn scopes_select_targets() {
        let plan = FaultPlan::with_seed(1)
            .event(
                FaultKind::LinkFlap,
                FaultScope::Resolver("dns.example".into()),
                hour(0),
                hour(10),
            )
            .event(
                FaultKind::LatencyBurst { extra_ms: 40.0 },
                FaultScope::Region(Region::Europe),
                hour(0),
                hour(10),
            )
            .event(
                FaultKind::LossBurst { loss: 0.3 },
                FaultScope::Vantage("home-1".into()),
                hour(0),
                hour(10),
            );
        let fx = plan.effects_at(hour(1), &target());
        assert!(fx.link_down);
        assert_eq!(fx.extra_latency_ms, 40.0);
        assert_eq!(fx.extra_loss, 0.0, "home-1 scope must not hit ec2-ohio");

        let other = FaultTarget {
            resolver: "other.example",
            region: Region::Asia,
            vantage: "home-1",
        };
        let fx = plan.effects_at(hour(1), &other);
        assert!(!fx.link_down);
        assert_eq!(fx.extra_latency_ms, 0.0);
        assert_eq!(fx.extra_loss, 0.3);
    }

    #[test]
    fn effects_compose_across_events() {
        let plan = FaultPlan::with_seed(2)
            .event(
                FaultKind::LossBurst { loss: 0.7 },
                FaultScope::Global,
                hour(0),
                hour(10),
            )
            .event(
                FaultKind::LossBurst { loss: 0.6 },
                FaultScope::Global,
                hour(0),
                hour(10),
            )
            .event(
                FaultKind::Brownout {
                    slowdown: 3.0,
                    servfail_rate: 0.0,
                },
                FaultScope::Global,
                hour(0),
                hour(10),
            )
            .event(
                FaultKind::Brownout {
                    slowdown: 2.0,
                    servfail_rate: 0.0,
                },
                FaultScope::Global,
                hour(0),
                hour(10),
            );
        let fx = plan.effects_at(hour(1), &target());
        assert_eq!(fx.extra_loss, 1.0, "loss saturates at 1");
        assert_eq!(fx.slowdown, 3.0, "worst slowdown wins");
        assert!(!fx.servfail, "zero rate never fires");
    }

    #[test]
    fn stochastic_decisions_are_deterministic_and_calibrated() {
        let plan = FaultPlan::with_seed(42).event(
            FaultKind::RateLimit { reject_rate: 0.3 },
            FaultScope::Global,
            SimTime::ZERO,
            hour(10_000),
        );
        let t = target();
        // Identical coordinates decide identically.
        for h in 0..50 {
            assert_eq!(
                plan.effects_at(hour(h), &t).rate_limited,
                plan.effects_at(hour(h), &t).rate_limited
            );
        }
        // The empirical rate tracks the configured one.
        let hits = (0..4000)
            .filter(|&h| plan.effects_at(hour(h), &t).rate_limited)
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
        // Different targets decide independently.
        let other = FaultTarget {
            vantage: "home-2",
            ..t
        };
        let diverges = (0..200).any(|h| {
            plan.effects_at(hour(h), &t).rate_limited
                != plan.effects_at(hour(h), &other).rate_limited
        });
        assert!(diverges, "per-target decisions must not be correlated");
    }

    #[test]
    fn servfail_rate_one_always_fires() {
        let plan = FaultPlan::with_seed(3).event(
            FaultKind::Brownout {
                slowdown: 1.0,
                servfail_rate: 1.0,
            },
            FaultScope::Global,
            hour(0),
            hour(10),
        );
        for h in 0..10 {
            assert!(plan.effects_at(hour(h), &target()).servfail);
        }
    }

    #[test]
    fn validate_catches_bad_rates() {
        let mut plan = FaultPlan::with_seed(1).event(
            FaultKind::LossBurst { loss: 0.5 },
            FaultScope::Global,
            hour(0),
            hour(1),
        );
        assert_eq!(plan.validate(), Ok(()));
        plan.events[0].kind = FaultKind::LossBurst { loss: 1.5 };
        assert!(plan.validate().is_err());
        plan.events[0].kind = FaultKind::Brownout {
            slowdown: 0.5,
            servfail_rate: 0.0,
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn degenerate_window_rejected() {
        let _ = FaultPlan::with_seed(1).event(
            FaultKind::LinkFlap,
            FaultScope::Global,
            hour(1),
            hour(1),
        );
    }

    #[test]
    fn masked_resolution_is_bit_identical_to_full_scan() {
        let plan = FaultPlan::with_seed(42)
            .event(
                FaultKind::LinkFlap,
                FaultScope::Resolver("dns.example".into()),
                hour(1),
                hour(3),
            )
            .event(
                FaultKind::RateLimit { reject_rate: 0.4 },
                FaultScope::Global,
                hour(0),
                hour(100),
            )
            .event(
                FaultKind::Brownout {
                    slowdown: 2.0,
                    servfail_rate: 0.5,
                },
                FaultScope::Vantage("home-9".into()),
                hour(0),
                hour(100),
            )
            .event(
                FaultKind::LatencyBurst { extra_ms: 25.0 },
                FaultScope::Region(Region::Europe),
                hour(2),
                hour(50),
            );
        for t in [
            target(),
            FaultTarget {
                resolver: "other.example",
                region: Region::Asia,
                vantage: "home-9",
            },
        ] {
            let mask = plan.scope_mask(&t);
            // The mask preserves original event indices, so the hash-based
            // decisions land on identical coordinates.
            for h in 0..120 {
                assert_eq!(
                    plan.effects_at(hour(h), &t),
                    plan.effects_at_masked(hour(h), &t, &mask),
                    "hour {h}"
                );
            }
        }
        // A target matching nothing gets an empty mask and clear effects.
        let nobody = FaultTarget {
            resolver: "x.example",
            region: Region::NorthAmerica,
            vantage: "v",
        };
        let mask = plan.scope_mask(&nobody);
        assert_eq!(mask, vec![1], "only the global event matches");
    }

    #[test]
    fn scatter_windows_is_deterministic_and_in_range() {
        let horizon = SimDuration::from_hours(24);
        let a = scatter_windows(
            9,
            "dns.example",
            horizon,
            5,
            SimDuration::from_mins(10),
            SimDuration::from_hours(2),
        );
        let b = scatter_windows(
            9,
            "dns.example",
            horizon,
            5,
            SimDuration::from_mins(10),
            SimDuration::from_hours(2),
        );
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        for (from, until) in &a {
            assert!(*until > *from);
            assert!(from.as_nanos() < horizon.as_nanos());
        }
        let c = scatter_windows(
            9,
            "other.example",
            horizon,
            5,
            SimDuration::from_mins(10),
            SimDuration::from_hours(2),
        );
        assert_ne!(a, c, "different labels scatter differently");
    }
}
