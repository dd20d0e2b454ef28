//! Client retry policy: tries, per-attempt timeout, exponential backoff.
//!
//! The paper's measurement client is `dig` with its stock defaults — 5 s
//! per-attempt timeout, 3 tries, no backoff — and those numbers shape the
//! error taxonomy: a blackholed resolver costs exactly `tries × timeout`
//! before it is written down as a connection failure. [`RetryPolicy`]
//! makes that schedule explicit and configurable, and
//! [`RetryPolicy::dig_defaults`] is the single home for the magic
//! constants previously scattered through `probe.rs`.
//!
//! Determinism contract: with [`RetryPolicy::none`] (the default) the
//! retry layer is invisible — one attempt, no extra RNG draws, no extra
//! JSON keys — so campaign output stays byte-identical to a build without
//! it. Jitter, when configured, draws from the probe's own seeded RNG
//! stream, keeping `run_parallel(n)` bit-identical to `run()`.

use crate::errors::ProbeErrorKind;
use crate::results::ProbeOutcome;
use netsim::{SimDuration, SimRng};
use transport::RetryPolicy as FlightRetryPolicy;

/// `dig`'s stock per-attempt timeout (`+timeout=5`).
pub const DIG_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// `dig`'s stock try count (`+tries=3`).
pub const DIG_TRIES: u32 = 3;
/// The most tries a policy may make: a record keeps the error kinds of
/// its burned attempts inline, in `MAX_TRIES - 1` slots.
pub const MAX_TRIES: u32 = 8;

/// A probe-level retry schedule: how many attempts, how long each may
/// run, and how long to wait between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub tries: u32,
    /// Per-attempt wall-clock budget. `None` lets each attempt run to its
    /// natural transport conclusion (the protocol's own timeouts apply).
    pub attempt_timeout: Option<SimDuration>,
    /// Base backoff before the first retry; doubles each further retry.
    pub backoff_base: SimDuration,
    /// Ceiling on the (pre-jitter) backoff.
    pub backoff_cap: SimDuration,
    /// Multiplicative jitter fraction in `0.0..=1.0`: each backoff is
    /// scaled by `1 + jitter·u` with `u` uniform in `[0, 1)` from the
    /// probe's seeded RNG. `0.0` draws nothing.
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retry behaviour at all: one attempt, no timeout, no backoff.
    /// This is the default and is byte-transparent to golden output.
    pub const fn none() -> Self {
        RetryPolicy {
            tries: 1,
            attempt_timeout: None,
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// The paper's client: `dig` stock defaults — 3 tries, 5 s per
    /// attempt, immediate retry (no backoff, no jitter).
    pub const fn dig_defaults() -> Self {
        RetryPolicy {
            tries: DIG_TRIES,
            attempt_timeout: Some(DIG_TIMEOUT),
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// Whether the retry layer is active (and per-attempt accounting is
    /// recorded). False exactly for [`RetryPolicy::none`]-shaped policies.
    pub fn enabled(&self) -> bool {
        self.tries > 1 || self.attempt_timeout.is_some()
    }

    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.tries == 0 {
            return Err("retry policy: tries must be >= 1".into());
        }
        if self.tries > MAX_TRIES {
            return Err(format!(
                "retry policy: tries must be <= {MAX_TRIES} (a record keeps its attempts inline)"
            ));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err("retry policy: jitter must be in [0, 1]".into());
        }
        if self.backoff_cap < self.backoff_base && self.backoff_cap != SimDuration::ZERO {
            return Err("retry policy: backoff cap below base".into());
        }
        Ok(())
    }

    /// The pre-jitter backoff after `failed_attempt` (1-based):
    /// `min(base · 2^(failed_attempt-1), cap)`.
    fn base_backoff(&self, failed_attempt: u32) -> SimDuration {
        if self.backoff_base == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let doubled = self
            .backoff_base
            .as_nanos()
            .saturating_mul(1u64 << (failed_attempt - 1).min(62));
        let capped = if self.backoff_cap == SimDuration::ZERO {
            doubled
        } else {
            doubled.min(self.backoff_cap.as_nanos())
        };
        SimDuration::from_nanos(capped)
    }

    /// The wait before retrying after `failed_attempt` (1-based), with
    /// jitter applied and clamped so the realized schedule is monotonically
    /// non-decreasing (`prev` is the previous realized backoff).
    pub fn backoff_after(
        &self,
        failed_attempt: u32,
        prev: SimDuration,
        rng: &mut SimRng,
    ) -> SimDuration {
        let base = self.base_backoff(failed_attempt);
        if base == SimDuration::ZERO {
            return prev.max(SimDuration::ZERO);
        }
        let jittered = if self.jitter > 0.0 {
            let scale = 1.0 + self.jitter * rng.uniform();
            SimDuration::from_nanos((base.as_nanos() as f64 * scale) as u64)
        } else {
            base
        };
        jittered.max(prev)
    }

    /// The realized backoff schedule for a fully-exhausted probe:
    /// `tries - 1` waits, in order.
    pub fn backoff_schedule(&self, rng: &mut SimRng) -> Vec<SimDuration> {
        let mut prev = SimDuration::ZERO;
        (1..self.tries)
            .map(|attempt| {
                prev = self.backoff_after(attempt, prev, rng);
                prev
            })
            .collect()
    }

    /// The largest backoff any single wait can realize: `cap · (1 + jitter)`
    /// (or `base · 2^(tries-2) · (1 + jitter)` when uncapped).
    pub fn max_backoff(&self) -> SimDuration {
        if self.backoff_base == SimDuration::ZERO || self.tries < 2 {
            return SimDuration::ZERO;
        }
        let ceiling = if self.backoff_cap == SimDuration::ZERO {
            self.base_backoff(self.tries - 1)
        } else {
            self.backoff_cap
        };
        SimDuration::from_nanos((ceiling.as_nanos() as f64 * (1.0 + self.jitter)).ceil() as u64)
    }

    /// Upper bound on total probe duration when every attempt has a
    /// timeout: `tries × (timeout + max backoff)`. `None` when attempts
    /// are unbounded.
    pub fn max_total(&self) -> Option<SimDuration> {
        let timeout = self.attempt_timeout?;
        let per_attempt = SimDuration::from_nanos(
            timeout
                .as_nanos()
                .saturating_add(self.max_backoff().as_nanos()),
        );
        Some(per_attempt.times(self.tries as u64))
    }

    /// The equivalent transport flight policy for a single datagram
    /// exchange. `dig_defaults().as_flight_policy()` reproduces the Do53
    /// probe's historical constants exactly (5 s RTO, no backoff growth,
    /// 3 attempts).
    pub fn as_flight_policy(&self) -> FlightRetryPolicy {
        let rto = self.attempt_timeout.unwrap_or(DIG_TIMEOUT);
        FlightRetryPolicy {
            initial_rto: rto,
            backoff: 1,
            max_attempts: self.tries,
            max_rto: rto,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-attempt accounting for one retried probe, recorded in the probe
/// record when the policy is [enabled](RetryPolicy::enabled).
///
/// It keeps only what the probe's [`ProbeOutcome`] does not determine: the
/// attempt count, the error kinds of the attempts before the final one,
/// and the time they took. Everything else is derived from the pair of
/// them — the full error list ([`attempt_errors`](Self::attempt_errors)),
/// [`ttfb`](Self::ttfb), [`ttlb`](Self::ttlb) — so a record holds its
/// accounting in 16 bytes, inline, with no heap behind it.
#[derive(Clone, Copy, PartialEq)]
pub struct RetryInfo {
    /// Attempts actually made (1-based; `<= tries <= MAX_TRIES`): the
    /// burned ones and the final one.
    pub attempts: u8,
    /// The burned attempts' error kinds in attempt order: the first
    /// `attempts - 1` slots; the rest hold [`Self::UNUSED`], so that equal
    /// accounting compares equal.
    burned_errors: [ProbeErrorKind; MAX_TRIES as usize - 1],
    /// Probe start to the start of the final attempt: the burned
    /// attempts and the backoff waits after them. Zero on a failure, whose
    /// `elapsed` already spans every attempt.
    burned: SimDuration,
}

impl RetryInfo {
    /// What an unused error slot holds.
    const UNUSED: ProbeErrorKind = ProbeErrorKind::ConnectTimeout;

    /// One attempt, nothing burned: a probe whose first attempt was final.
    pub(crate) const FIRST_TRY: RetryInfo = RetryInfo {
        attempts: 1,
        burned_errors: [Self::UNUSED; MAX_TRIES as usize - 1],
        burned: SimDuration::ZERO,
    };

    /// The accounting of a probe whose attempts before the final one
    /// failed with `burned_errors`, in order, and took `burned` in all.
    /// `None` past [`MAX_TRIES`] attempts, or for time burned by no attempt.
    pub fn new(burned_errors: &[ProbeErrorKind], burned: SimDuration) -> Option<RetryInfo> {
        if burned_errors.is_empty() && burned != SimDuration::ZERO {
            return None;
        }
        let mut info = RetryInfo::FIRST_TRY;
        info.burned_errors
            .get_mut(..burned_errors.len())?
            .copy_from_slice(burned_errors);
        info.attempts += burned_errors.len() as u8;
        info.burned = burned;
        Some(info)
    }

    /// Adds a burned attempt that failed with `kind` and, with the wait
    /// after it, took `spent`.
    ///
    /// # Panics
    ///
    /// On the [`MAX_TRIES`]th burned attempt, which a validated policy
    /// never makes.
    pub(crate) fn burn(&mut self, kind: ProbeErrorKind, spent: SimDuration) {
        self.burned_errors[usize::from(self.attempts) - 1] = kind;
        self.attempts += 1;
        self.burned += spent;
    }

    /// The accounting as a failure records it: its `elapsed` spans the
    /// burned time.
    pub(crate) fn exhaust(self) -> RetryInfo {
        RetryInfo {
            burned: SimDuration::ZERO,
            ..self
        }
    }

    /// The time burned before the final attempt (zero on a failure).
    pub fn burned(&self) -> SimDuration {
        self.burned
    }

    /// The error kinds of the attempts before the final one.
    pub fn burned_errors(&self) -> &[ProbeErrorKind] {
        // `attempts` is public: a count no probe makes slices no further.
        let burned = usize::from(self.attempts.saturating_sub(1));
        &self.burned_errors[..burned.min(self.burned_errors.len())]
    }

    /// Every failed attempt's error kind, in attempt order: the burned
    /// ones, then on a failure the final attempt's, which is the
    /// outcome's.
    pub fn attempt_errors(
        &self,
        outcome: &ProbeOutcome,
    ) -> impl Iterator<Item = ProbeErrorKind> + '_ {
        let last = match outcome {
            ProbeOutcome::Success { .. } => None,
            ProbeOutcome::Failure { kind, .. } => Some(*kind),
        };
        self.burned_errors().iter().copied().chain(last)
    }

    /// Probe start to the end of the final attempt, burned attempts and
    /// backoff waits included: on a success the burned time plus the
    /// response time, on a failure its `elapsed`.
    pub fn ttlb(&self, outcome: &ProbeOutcome) -> SimDuration {
        match outcome {
            ProbeOutcome::Success { timings, .. } => self.burned + timings.total(),
            ProbeOutcome::Failure { elapsed, .. } => *elapsed,
        }
    }

    /// Probe start to the first response byte of the successful attempt:
    /// [`ttlb`](Self::ttlb) less the decode time on a success, `ttlb` on a
    /// failure.
    pub fn ttfb(&self, outcome: &ProbeOutcome) -> SimDuration {
        match outcome {
            ProbeOutcome::Success { timings, .. } => {
                self.ttlb(outcome).saturating_sub(timings.dns_decode)
            }
            ProbeOutcome::Failure { elapsed, .. } => *elapsed,
        }
    }

    /// Whether the probe succeeded only after burning earlier attempts.
    pub fn recovered(&self, outcome: &ProbeOutcome) -> bool {
        outcome.is_success() && self.attempts > 1
    }

    /// Whether every attempt failed: a failure under an enabled policy
    /// always spends the whole budget.
    pub fn exhausted(&self, outcome: &ProbeOutcome) -> bool {
        !outcome.is_success()
    }
}

impl std::fmt::Debug for RetryInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryInfo")
            .field("attempts", &self.attempts)
            .field("burned_errors", &self.burned_errors())
            .field("burned", &self.burned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_disabled_and_dig_is_enabled() {
        assert!(!RetryPolicy::none().enabled());
        assert!(RetryPolicy::dig_defaults().enabled());
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
    }

    #[test]
    fn dig_defaults_match_historical_flight_constants() {
        let flight = RetryPolicy::dig_defaults().as_flight_policy();
        assert_eq!(flight.initial_rto, SimDuration::from_secs(5));
        assert_eq!(flight.backoff, 1);
        assert_eq!(flight.max_attempts, 3);
        assert_eq!(flight.max_rto, SimDuration::from_secs(5));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            tries: 6,
            attempt_timeout: Some(SimDuration::from_secs(2)),
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_millis(500),
            jitter: 0.0,
        };
        let mut rng = SimRng::from_seed(7);
        let schedule = policy.backoff_schedule(&mut rng);
        assert_eq!(
            schedule,
            vec![
                SimDuration::from_millis(100),
                SimDuration::from_millis(200),
                SimDuration::from_millis(400),
                SimDuration::from_millis(500),
                SimDuration::from_millis(500),
            ]
        );
        assert_eq!(policy.max_backoff(), SimDuration::from_millis(500));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let policy = RetryPolicy {
            tries: 5,
            attempt_timeout: Some(SimDuration::from_secs(1)),
            backoff_base: SimDuration::from_millis(50),
            backoff_cap: SimDuration::from_millis(400),
            jitter: 0.5,
        };
        let a = policy.backoff_schedule(&mut SimRng::from_seed(11));
        let b = policy.backoff_schedule(&mut SimRng::from_seed(11));
        let c = policy.backoff_schedule(&mut SimRng::from_seed(12));
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different jitter");
        for pair in a.windows(2) {
            assert!(pair[1] >= pair[0], "schedule must be non-decreasing");
        }
        for wait in &a {
            assert!(*wait <= policy.max_backoff());
        }
    }

    #[test]
    fn max_total_bounds_the_schedule() {
        let policy = RetryPolicy {
            tries: 4,
            attempt_timeout: Some(SimDuration::from_secs(3)),
            backoff_base: SimDuration::from_millis(200),
            backoff_cap: SimDuration::from_secs(1),
            jitter: 0.25,
        };
        let total = policy.max_total().unwrap();
        let mut rng = SimRng::from_seed(3);
        let waits: u64 = policy
            .backoff_schedule(&mut rng)
            .iter()
            .map(|d| d.as_nanos())
            .sum();
        let worst_case = 4 * SimDuration::from_secs(3).as_nanos() + waits;
        assert!(worst_case <= total.as_nanos());
        assert!(RetryPolicy::none().max_total().is_none());
    }

    #[test]
    fn validate_flags_nonsense() {
        assert!(RetryPolicy::none().validate().is_ok());
        assert!(RetryPolicy::dig_defaults().validate().is_ok());
        let mut p = RetryPolicy::dig_defaults();
        p.tries = 0;
        assert!(p.validate().is_err());
        p = RetryPolicy::dig_defaults();
        p.jitter = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_bounds_tries_by_the_inline_capacity() {
        let mut p = RetryPolicy::dig_defaults();
        p.tries = MAX_TRIES;
        assert_eq!(p.validate(), Ok(()));
        p.tries = MAX_TRIES + 1;
        let err = p.validate().unwrap_err();
        assert!(err.contains("tries must be <= 8"), "{err}");
        // The most attempts a validated policy makes fit a record.
        let burned = [ProbeErrorKind::QueryTimeout; MAX_TRIES as usize - 1];
        let mut info = RetryInfo::FIRST_TRY;
        for kind in burned {
            info.burn(kind, SimDuration::from_secs(5));
        }
        assert_eq!(u32::from(info.attempts), MAX_TRIES);
        assert_eq!(
            RetryInfo::new(&burned, SimDuration::from_secs(35)),
            Some(info)
        );
        assert_eq!(
            RetryInfo::new(&[burned[0]; MAX_TRIES as usize], SimDuration::ZERO),
            None
        );
    }

    fn success(total_ms: u64, decode_ms: u64) -> ProbeOutcome {
        ProbeOutcome::Success {
            timings: crate::results::ProbeTimings {
                connect: SimDuration::from_millis(total_ms - decode_ms),
                dns_decode: SimDuration::from_millis(decode_ms),
                ..Default::default()
            },
            cache_hit: false,
            site: 0,
        }
    }

    #[test]
    fn retry_info_classification() {
        let timeout = ProbeErrorKind::ConnectTimeout;
        let recovered = RetryInfo::new(&[timeout; 2], SimDuration::from_secs(10)).unwrap();
        let ok = success(42, 2);
        assert!(recovered.recovered(&ok));
        assert!(!recovered.exhausted(&ok));
        assert_eq!(recovered.ttlb(&ok), SimDuration::from_millis(10_042));
        assert_eq!(recovered.ttfb(&ok), SimDuration::from_millis(10_040));
        assert_eq!(recovered.attempt_errors(&ok).count(), 2);

        let exhausted = RetryInfo::new(&[timeout; 2], SimDuration::ZERO).unwrap();
        let failed = ProbeOutcome::Failure {
            kind: ProbeErrorKind::QueryTimeout,
            elapsed: SimDuration::from_secs(15),
        };
        assert!(!exhausted.recovered(&failed));
        assert!(exhausted.exhausted(&failed));
        assert_eq!(exhausted.ttfb(&failed), SimDuration::from_secs(15));
        assert_eq!(exhausted.ttlb(&failed), SimDuration::from_secs(15));
        assert_eq!(
            exhausted.attempt_errors(&failed).collect::<Vec<_>>(),
            [timeout, timeout, ProbeErrorKind::QueryTimeout]
        );

        let clean = RetryInfo::FIRST_TRY;
        assert!(!clean.recovered(&ok));
        assert!(!clean.exhausted(&ok));
        assert_eq!(clean.ttlb(&ok), SimDuration::from_millis(42));
        assert_eq!(clean.ttfb(&ok), SimDuration::from_millis(40));
        // A first try burns no time.
        assert_eq!(RetryInfo::new(&[], SimDuration::ZERO), Some(clean));
        assert_eq!(RetryInfo::new(&[], SimDuration::from_nanos(1)), None);
    }
}
