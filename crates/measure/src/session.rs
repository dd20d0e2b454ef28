//! Deterministic per-(vantage, resolver) connection-reuse state.
//!
//! The paper measures cold connections only; this module models the warm
//! half of the design space: TLS 1.3 session-ticket caching with
//! simulated-time expiry, an HTTP/2 / DoT connection pool with idle-timeout
//! eviction, and QUIC 0-RTT with replay-window accounting. Every decision
//! is a pure function of `(seed, simulated time)`:
//!
//! * The *schedule* stream (`SimRng::derived(seed, "session:{vantage}:{hostname}")`)
//!   is drawn exactly once per probe to decide whether the probe is forced
//!   cold, so the stream position depends only on the probe ordinal within
//!   the pair — never on prior outcomes.
//! * Ticket expiry and pool eviction compare integer nanosecond timestamps;
//!   no wall clock, no hashing of addresses.
//! * State lives strictly within one (vantage, resolver) pair, so
//!   `run()` ≡ `run_parallel(n)` and kill+resume through `edns-checkpoint`
//!   rebuild identical state (shards split on pair boundaries).
//!
//! Invalidation rules (see DESIGN §14): any connection-layer fault observed
//! at decide time (outage/blackhole, refused, broken TLS, expired
//! certificate, link down) drops tickets *and* pooled connections before
//! the attempt runs; any failed attempt does the same, so warm state only
//! ever survives along an unbroken chain of successes. A pooled connection
//! is an open socket to one site: when a load model moves an attempt to
//! another site ([`SessionState::bind_site`]) the pool entry is dropped and
//! the ticket, which is the operator's, is kept.

use catalog::ReusePolicy;
use netsim::{SimDuration, SimRng, SimTime};
use transport::SessionTicket;

use crate::checkpoint::fnv64;
use crate::results::{ConnectionMode, Protocol};

/// Campaign-level session-layer configuration: reuse is on, and the
/// seeded schedule forces a cold probe anyway this often (so a campaign
/// can interleave cold baseline measurements with warm traffic). No
/// session model at all (`CampaignConfig::session == None`) is the
/// paper's cold-only tool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Fraction of probes forced to open a cold connection even when warm
    /// state is available, drawn from the per-pair schedule stream.
    pub cold_fraction: f64,
}

impl SessionConfig {
    /// Full reuse: every probe uses the warmest state available.
    pub fn warm() -> SessionConfig {
        SessionConfig::interleaved(0.0)
    }

    /// Reuse with a seeded cold interleave: `cold_fraction` of probes are
    /// forced cold so the ablation always has a cold baseline to compare
    /// against.
    pub fn interleaved(cold_fraction: f64) -> SessionConfig {
        SessionConfig { cold_fraction }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !self.cold_fraction.is_finite() || !(0.0..=1.0).contains(&self.cold_fraction) {
            return Err(format!(
                "cold_fraction must be in [0, 1], got {}",
                self.cold_fraction
            ));
        }
        Ok(())
    }

    /// Parses a CLI argument: `cold` (no session model: every connection
    /// cold) | `warm` | a cold-fraction float (e.g. `0.25` = warm with a
    /// 25 % forced-cold interleave).
    pub fn from_arg(arg: &str) -> Result<Option<SessionConfig>, String> {
        match arg {
            "cold" | "cold-only" => Ok(None),
            "warm" => Ok(Some(SessionConfig::warm())),
            other => {
                let f: f64 = other
                    .parse()
                    .map_err(|_| format!("bad session mode '{other}' (cold|warm|FRACTION)"))?;
                let cfg = SessionConfig::interleaved(f);
                cfg.validate()?;
                Ok(Some(cfg))
            }
        }
    }
}

/// A cached TLS 1.3 session ticket with its absolute expiry instant.
#[derive(Debug, Clone, Copy)]
struct CachedTicket {
    ticket: SessionTicket,
    expires: SimTime,
}

/// Metadata for a kept-alive connection in the pool. The simulator never
/// holds live transport objects across probes — a reused connection is
/// reconstructed from this metadata (`TcpConnection::resumed`,
/// `QuicConnection::resume_zero_rtt`), which keeps the state `Copy`-cheap
/// and checkpoint-friendly.
#[derive(Debug, Clone, Copy)]
struct PooledConn {
    last_used: SimTime,
    srtt_hint: SimDuration,
    /// The site the connection was opened to.
    site: usize,
}

/// True for protocols with per-connection session state. Do53 is
/// connectionless and ODoH rides a fresh relayed connection per query
/// (the target never sees the client, so client-side tickets don't apply).
fn session_capable(protocol: Protocol) -> bool {
    matches!(protocol, Protocol::DoH | Protocol::DoT | Protocol::DoQ)
}

/// Deterministic per-(vantage, resolver) session state: ticket cache,
/// connection pool and 0-RTT replay window, plus the seeded schedule
/// stream that interleaves forced-cold probes.
#[derive(Debug)]
pub struct SessionState {
    policy: ReusePolicy,
    ticket: Option<CachedTicket>,
    pool: Option<PooledConn>,
    zero_rtt_remaining: u32,
    /// The site the next attempt is served from.
    site: usize,
    schedule: SimRng,
}

impl SessionState {
    /// Creates fresh (all-cold) state for one campaign pair. The schedule
    /// stream is derived from the campaign seed and the pair identity so
    /// it is independent of every other RNG stream in the run.
    pub fn new(seed: u64, vantage: &str, hostname: &str, policy: ReusePolicy) -> SessionState {
        SessionState {
            policy,
            ticket: None,
            pool: None,
            zero_rtt_remaining: 0,
            site: 0,
            schedule: SimRng::derived(seed, &format!("session:{vantage}:{hostname}")),
        }
    }

    /// Draws the per-probe forced-cold decision from the schedule stream.
    /// Called exactly once per probe — including for session-incapable
    /// protocols — so the stream position is a pure function of the probe
    /// ordinal within the pair.
    pub fn draw_forced_cold(&mut self, config: &SessionConfig) -> bool {
        self.schedule.uniform() < config.cold_fraction
    }

    /// Tells the state which site serves the next attempt. A pooled
    /// connection to any other site cannot carry it and is dropped; the
    /// ticket survives. Without a load model a pair's site never changes
    /// and this never drops anything.
    pub fn bind_site(&mut self, site: usize) {
        self.site = site;
        if self.pool.is_some_and(|p| p.site != site) {
            self.pool = None;
        }
    }

    /// Decides how the next attempt connects, and maintains the state
    /// machine: connection-layer faults invalidate everything, expired
    /// tickets and idle pool entries are evicted lazily, and a granted
    /// 0-RTT flight consumes one replay-window slot.
    ///
    /// `conn_healthy` must be false whenever the sampled health or fault
    /// effects would prevent establishing (or keeping) a connection:
    /// blackholed / refusing / broken TLS / bad certificate / link down.
    pub fn decide(
        &mut self,
        now: SimTime,
        protocol: Protocol,
        conn_healthy: bool,
        forced_cold: bool,
    ) -> ConnectionMode {
        if !conn_healthy {
            // Outage and cert-expiry windows kill pooled connections and
            // cached tickets deterministically, before the attempt runs.
            self.invalidate_all();
            return ConnectionMode::Cold;
        }
        if !session_capable(protocol) || forced_cold {
            return ConnectionMode::Cold;
        }
        self.evict(now);
        if self.pool.is_some() {
            return ConnectionMode::Reused;
        }
        if self.ticket.is_some() {
            if protocol == Protocol::DoQ {
                // QUIC resumption is modeled as 0-RTT only; once the
                // anti-replay window is spent the server forces a full
                // handshake until a cold connect mints a fresh ticket.
                if self.policy.zero_rtt && self.zero_rtt_remaining > 0 {
                    self.zero_rtt_remaining -= 1;
                    return ConnectionMode::Resumed;
                }
                return ConnectionMode::Cold;
            }
            return ConnectionMode::Resumed;
        }
        ConnectionMode::Cold
    }

    /// Lazy eviction: drops the pooled connection once idle past the
    /// policy timeout and the ticket once past its absolute expiry. A
    /// `last_used` in the future (impossible under monotone simulated
    /// time) is treated as corrupt and dropped.
    fn evict(&mut self, now: SimTime) {
        if let Some(pool) = self.pool {
            let idle_timeout = SimDuration::from_secs(self.policy.pool_idle_timeout_s);
            let dead = pool.last_used > now || now.since(pool.last_used) > idle_timeout;
            if dead {
                self.pool = None;
            }
        }
        if let Some(ticket) = self.ticket {
            if now >= ticket.expires {
                self.ticket = None;
                self.zero_rtt_remaining = 0;
            }
        }
    }

    /// Records a successful probe: a cold success mints a fresh ticket
    /// (resetting the 0-RTT window) and pools the new connection; a
    /// resumed success pools the connection but keeps the original
    /// ticket's expiry (resumption does not refresh tickets, so short
    /// ticket lifetimes eventually force a full handshake); a reused
    /// success only refreshes the pool's idle clock.
    ///
    /// `connect` is the probe's connect-phase duration; it seeds the
    /// pooled smoothed-RTT hint and (with `now`) the deterministic ticket
    /// identity. Ticket identities never influence timing — the TLS model
    /// only distinguishes `Some`/`None`.
    pub fn on_success(
        &mut self,
        now: SimTime,
        protocol: Protocol,
        mode: ConnectionMode,
        connect: SimDuration,
    ) {
        if !session_capable(protocol) {
            return;
        }
        match mode {
            ConnectionMode::Cold => {
                if self.policy.ticket_lifetime_s > 0 {
                    self.ticket = Some(CachedTicket {
                        ticket: SessionTicket {
                            id: now.as_nanos() ^ (connect.as_nanos() << 1),
                        },
                        expires: now + SimDuration::from_secs(self.policy.ticket_lifetime_s),
                    });
                    self.zero_rtt_remaining = self.policy.zero_rtt_window;
                }
                self.pool_insert(now, connect);
            }
            ConnectionMode::Resumed => self.pool_insert(now, connect),
            ConnectionMode::Reused => {
                if let Some(pool) = &mut self.pool {
                    pool.last_used = now;
                }
            }
        }
    }

    fn pool_insert(&mut self, now: SimTime, srtt_hint: SimDuration) {
        if self.policy.pool_idle_timeout_s > 0 {
            self.pool = Some(PooledConn {
                last_used: now,
                srtt_hint,
                site: self.site,
            });
        }
    }

    /// Records a failed attempt: all warm state is dropped, so the next
    /// attempt (and the fault-matrix tests) see a deterministic cold
    /// fallback.
    pub fn on_failure(&mut self) {
        self.invalidate_all();
    }

    /// Drops tickets, pooled connections and the 0-RTT window.
    pub fn invalidate_all(&mut self) {
        self.ticket = None;
        self.pool = None;
        self.zero_rtt_remaining = 0;
    }

    /// The cached ticket to present in a resumed handshake, if any.
    pub fn ticket(&self) -> Option<SessionTicket> {
        self.ticket.map(|t| t.ticket)
    }

    /// The pooled connection's smoothed-RTT hint, if a connection is
    /// currently pooled.
    pub fn pool_srtt_hint(&self) -> Option<SimDuration> {
        self.pool.map(|p| p.srtt_hint)
    }

    /// Remaining 0-RTT flights before the server forces a full handshake.
    pub fn zero_rtt_remaining(&self) -> u32 {
        self.zero_rtt_remaining
    }

    /// FNV-1a fingerprint of the warm state (ticket identity + expiry,
    /// pool idle clock + RTT hint, 0-RTT window). Used by the checkpoint
    /// determinism tests to assert kill+resume rebuilds identical session
    /// state at every shard boundary.
    pub fn fingerprint(&self) -> u64 {
        let mut s = String::with_capacity(96);
        match self.ticket {
            Some(t) => s.push_str(&format!(
                "ticket={:x},{};",
                t.ticket.id,
                t.expires.as_nanos()
            )),
            None => s.push_str("ticket=-;"),
        }
        match self.pool {
            Some(p) => s.push_str(&format!(
                "pool={},{},{};",
                p.last_used.as_nanos(),
                p.srtt_hint.as_nanos(),
                p.site
            )),
            None => s.push_str("pool=-;"),
        }
        s.push_str(&format!("0rtt={};", self.zero_rtt_remaining));
        fnv64(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(policy: ReusePolicy) -> SessionState {
        SessionState::new(42, "Columbus-home", "dns.test", policy)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    const MS: SimDuration = SimDuration::from_millis(12);

    #[test]
    fn config_modes_and_parsing() {
        assert_eq!(SessionConfig::from_arg("cold"), Ok(None));
        assert_eq!(SessionConfig::from_arg("cold-only"), Ok(None));
        assert_eq!(
            SessionConfig::from_arg("warm"),
            Ok(Some(SessionConfig::warm()))
        );
        assert_eq!(
            SessionConfig::from_arg("0.25"),
            Ok(Some(SessionConfig::interleaved(0.25)))
        );
        assert!(SessionConfig::from_arg("hot").is_err());
        assert!(SessionConfig::from_arg("1.5").is_err());
        assert!(SessionConfig::interleaved(f64::NAN).validate().is_err());
    }

    #[test]
    fn cold_start_then_pool_reuse_then_idle_eviction() {
        let mut s = state(ReusePolicy::production());
        assert_eq!(
            s.decide(t(0), Protocol::DoH, true, false),
            ConnectionMode::Cold
        );
        s.on_success(t(0), Protocol::DoH, ConnectionMode::Cold, MS);
        // Within the idle window: reused.
        assert_eq!(
            s.decide(t(0), Protocol::DoH, true, false),
            ConnectionMode::Reused
        );
        assert_eq!(s.pool_srtt_hint(), Some(MS));
        s.on_success(
            t(100),
            Protocol::DoH,
            ConnectionMode::Reused,
            SimDuration::ZERO,
        );
        // Reused success refreshes the idle clock but keeps the hint.
        assert_eq!(s.pool_srtt_hint(), Some(MS));
        // Past the 240 s idle timeout: pool gone, ticket still valid.
        assert_eq!(
            s.decide(t(100 + 241), Protocol::DoH, true, false),
            ConnectionMode::Resumed
        );
    }

    #[test]
    fn ticket_expiry_forces_cold() {
        let mut s = state(ReusePolicy::hobbyist()); // 600 s tickets, 10 s pool
        s.on_success(t(0), Protocol::DoT, ConnectionMode::Cold, MS);
        assert_eq!(
            s.decide(t(11), Protocol::DoT, true, false),
            ConnectionMode::Resumed
        );
        // Resumption does not refresh the ticket: at t=600 it is gone.
        assert_eq!(
            s.decide(t(600), Protocol::DoT, true, false),
            ConnectionMode::Cold
        );
        assert!(s.ticket().is_none());
    }

    #[test]
    fn zero_rtt_window_is_consumed_and_reset_by_cold_handshake() {
        let mut s = state(ReusePolicy::midsize()); // window 4
        s.on_success(t(0), Protocol::DoQ, ConnectionMode::Cold, MS);
        assert_eq!(s.zero_rtt_remaining(), 4);
        for i in 0..4 {
            // Past the 60 s pool idle timeout each round, so the ticket
            // path is exercised.
            let now = t(100 * (i + 1));
            assert_eq!(
                s.decide(now, Protocol::DoQ, true, false),
                ConnectionMode::Resumed,
                "flight {i}"
            );
        }
        // Window spent: full handshake even though the ticket is valid.
        assert_eq!(s.zero_rtt_remaining(), 0);
        assert_eq!(
            s.decide(t(500), Protocol::DoQ, true, false),
            ConnectionMode::Cold
        );
        // A cold success mints a fresh ticket and window.
        s.on_success(t(500), Protocol::DoQ, ConnectionMode::Cold, MS);
        assert_eq!(s.zero_rtt_remaining(), 4);
    }

    #[test]
    fn zero_rtt_disabled_policy_never_resumes_quic() {
        let mut s = state(ReusePolicy::hobbyist());
        s.on_success(t(0), Protocol::DoQ, ConnectionMode::Cold, MS);
        assert_eq!(
            s.decide(t(11), Protocol::DoQ, true, false),
            ConnectionMode::Cold
        );
        // ...but TLS-over-TCP resumption still works under the same policy.
        assert_eq!(
            s.decide(t(11), Protocol::DoT, true, false),
            ConnectionMode::Resumed
        );
    }

    #[test]
    fn unhealthy_connection_invalidates_everything() {
        let mut s = state(ReusePolicy::production());
        s.on_success(t(0), Protocol::DoH, ConnectionMode::Cold, MS);
        assert!(s.ticket().is_some());
        assert_eq!(
            s.decide(t(1), Protocol::DoH, false, false),
            ConnectionMode::Cold
        );
        assert!(s.ticket().is_none());
        assert!(s.pool_srtt_hint().is_none());
        assert_eq!(s.zero_rtt_remaining(), 0);
    }

    #[test]
    fn pool_is_bound_to_its_site_ticket_is_not() {
        let mut s = state(ReusePolicy::production());
        s.bind_site(2);
        s.on_success(t(0), Protocol::DoH, ConnectionMode::Cold, MS);
        // Same site: the pooled connection carries the next attempt.
        s.bind_site(2);
        assert_eq!(
            s.decide(t(1), Protocol::DoH, true, false),
            ConnectionMode::Reused
        );
        // The load model moves the pair: the socket to site 2 is useless
        // at site 0, the operator's ticket is not.
        s.bind_site(0);
        assert!(s.pool_srtt_hint().is_none());
        assert_eq!(
            s.decide(t(2), Protocol::DoH, true, false),
            ConnectionMode::Resumed
        );
        // ...and coming back does not resurrect it.
        s.bind_site(2);
        assert_eq!(
            s.decide(t(3), Protocol::DoH, true, false),
            ConnectionMode::Resumed
        );
    }

    #[test]
    fn failure_invalidates_everything() {
        let mut s = state(ReusePolicy::production());
        s.on_success(t(0), Protocol::DoH, ConnectionMode::Cold, MS);
        s.on_failure();
        assert_eq!(
            s.decide(t(1), Protocol::DoH, true, false),
            ConnectionMode::Cold
        );
    }

    #[test]
    fn forced_cold_keeps_state_alive() {
        let mut s = state(ReusePolicy::production());
        s.on_success(t(0), Protocol::DoH, ConnectionMode::Cold, MS);
        assert_eq!(
            s.decide(t(1), Protocol::DoH, true, true),
            ConnectionMode::Cold
        );
        // The forced-cold probe did not destroy the pool.
        assert_eq!(
            s.decide(t(1), Protocol::DoH, true, false),
            ConnectionMode::Reused
        );
    }

    #[test]
    fn session_incapable_protocols_stay_cold() {
        let mut s = state(ReusePolicy::production());
        s.on_success(t(0), Protocol::Do53, ConnectionMode::Cold, MS);
        assert!(s.ticket().is_none());
        assert_eq!(
            s.decide(t(0), Protocol::Do53, true, false),
            ConnectionMode::Cold
        );
        assert_eq!(
            s.decide(t(0), Protocol::ODoH, true, false),
            ConnectionMode::Cold
        );
    }

    #[test]
    fn none_policy_never_warms() {
        let mut s = state(ReusePolicy::none());
        s.on_success(t(0), Protocol::DoH, ConnectionMode::Cold, MS);
        assert_eq!(
            s.decide(t(0), Protocol::DoH, true, false),
            ConnectionMode::Cold
        );
    }

    #[test]
    fn schedule_stream_is_deterministic_and_independent() {
        let cfg = SessionConfig::interleaved(0.5);
        let mut a = state(ReusePolicy::production());
        let mut b = state(ReusePolicy::production());
        let draws_a: Vec<bool> = (0..64).map(|_| a.draw_forced_cold(&cfg)).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.draw_forced_cold(&cfg)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|c| *c) && draws_a.iter().any(|c| !*c));
        // A different pair gets a different stream.
        let mut c = SessionState::new(42, "Columbus-home", "dns.other", ReusePolicy::production());
        let draws_c: Vec<bool> = (0..64).map(|_| c.draw_forced_cold(&cfg)).collect();
        assert_ne!(draws_a, draws_c);
    }

    #[test]
    fn fingerprint_tracks_state_transitions() {
        let mut a = state(ReusePolicy::production());
        let cold = a.fingerprint();
        a.on_success(t(0), Protocol::DoH, ConnectionMode::Cold, MS);
        let warm = a.fingerprint();
        assert_ne!(cold, warm);
        // Same transitions on a fresh state reproduce the fingerprint.
        let mut b = state(ReusePolicy::production());
        b.on_success(t(0), Protocol::DoH, ConnectionMode::Cold, MS);
        assert_eq!(b.fingerprint(), warm);
        a.invalidate_all();
        assert_eq!(a.fingerprint(), cold);
    }
}
