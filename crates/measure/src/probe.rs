//! The probe engine: one `dig`-style measurement of one resolver from one
//! vantage point — exactly the paper's §3.2 procedure:
//!
//! 1. perform a DNS query over the encrypted transport, measuring the
//!    end-to-end response time (fresh connection, as `dig` does);
//! 2. issue an ICMP echo probe and record the round-trip latency.
//!
//! Besides DoH (the paper's focus) the engine speaks Do53, DoT and DoQ —
//! "our tool enables researchers to issue traditional DNS, DoT, and DoH
//! queries".
//!
//! There is one path through this module. [`Prober::drive`] runs every
//! probe — a campaign's and a one-off [`Prober::probe`] alike: ping, then
//! per attempt resolve the fault plan, ask the load model (if any) where
//! the attempt is served, sample health, ask the session layer (if any)
//! how the connection starts, and hand the resulting [`Attempt`] to the
//! transport's state machine. Each transport has exactly one machine; what
//! differs between a campaign and a one-off probe is only the
//! [`Wires`] the machine reads its byte counts from.

use catalog::ResolverEntry;
use detlint_macros::deny_alloc;
use dns_wire::{Message, Name, Rcode, RecordType};
use netsim::faults::{FaultEffects, FaultPlan, FaultTarget};
use netsim::{icmp, Host, Path, SimDuration, SimRng, SimTime};
use obs::{Nanos, Phase, SpanLog};
use resolver_sim::{AuthorityTree, ProbeHealth, ResolverInstance};
use transport::{
    doh_headers, FaultHooks, H2Connection, H2Request, HeaderField, QuicConfig, QuicConnection,
    SessionTicket, TcpConfig, TcpConnection, TlsConfig, TlsServerBehavior, TlsSession,
    TransportError, TransportErrorKind,
};

use crate::context::{FreshWires, Wires};
use crate::errors::ProbeErrorKind;
use crate::population::{LoadModel, PairLoad};
use crate::results::{ConnectionMode, ProbeOutcome, ProbeTimings, Protocol};
use crate::retry::{RetryInfo, RetryPolicy};
use crate::session::{SessionConfig, SessionState};

/// Deterministic client-side cost of building and encoding a DNS query:
/// a fixed setup term plus a per-byte term. Microsecond-scale, so it shows
/// up in the phase breakdown without moving the calibrated response-time
/// distributions; crucially it draws nothing from the RNG, so enabling the
/// phase accounting cannot perturb a seeded run.
fn encode_cost(wire_len: usize) -> SimDuration {
    SimDuration::from_nanos(2_000 + 25 * wire_len as u64)
}

/// Deterministic client-side cost of decoding and validating a DNS
/// response. Slightly above the encode cost: parsing walks unknown input.
fn decode_cost(wire_len: usize) -> SimDuration {
    SimDuration::from_nanos(3_000 + 35 * wire_len as u64)
}

/// How an attempt starts its transport. Without a session layer every
/// attempt starts [`WarmStart::Cold`]; a live one maps the pair's
/// [`ConnectionMode`] decision onto a warm start.
#[derive(Debug, Clone, Copy)]
enum WarmStart {
    /// Fresh connection, full handshake — the paper's fresh-`dig` path.
    Cold,
    /// Fresh transport connect plus an abbreviated handshake: TLS 1.3
    /// ticket resumption on TCP transports, 0-RTT on QUIC.
    Resumed { ticket: SessionTicket },
    /// Connection pulled from the keepalive pool: no connect, no
    /// handshake; the TCP RTT estimator is re-seeded from the pooled hint.
    Reused {
        ticket: SessionTicket,
        srtt_hint: SimDuration,
    },
}

impl WarmStart {
    fn is_reused(self) -> bool {
        matches!(self, WarmStart::Reused { .. })
    }
}

/// One attempt's environment: everything a transport's state machine
/// reads besides the resolver it talks to and its wire source, plus the
/// attempt's timeline as the machine walks it. Built by [`Prober::drive`]
/// once per attempt, after the fault plan, the load model and the session
/// layer have had their say.
struct Attempt<'a> {
    /// When the attempt starts.
    now: SimTime,
    /// The probing host (ODoH picks its relay by it).
    client: &'a Host,
    /// The site serving this attempt.
    site: usize,
    /// The path to that site, shaped by this attempt's health and faults.
    path: Path,
    /// What the transport layers are told to do to this attempt.
    hooks: FaultHooks,
    /// The resolver's health as sampled for this attempt.
    health: ProbeHealth,
    /// The fault plan's (and load model's) effects at `now`.
    effects: FaultEffects,
    /// How the connection starts.
    warm: WarmStart,
    rng: &'a mut SimRng,
    log: &'a mut SpanLog,
    /// The timeline's clock: where the next phase span starts.
    t: Nanos,
    /// The phases paid so far.
    timings: ProbeTimings,
}

/// The instant marker a transport failure leaves on the timeline.
fn failure_marker(kind: TransportErrorKind) -> &'static str {
    match kind {
        TransportErrorKind::ConnectTimeout => "connect_timeout",
        TransportErrorKind::ConnectionRefused => "connection_refused",
        TransportErrorKind::TlsHandshakeFailure => "tls_failure",
        TransportErrorKind::CertificateInvalid => "certificate_invalid",
        TransportErrorKind::RequestTimeout => "request_timeout",
        TransportErrorKind::ProtocolError => "protocol_error",
    }
}

impl Attempt<'_> {
    /// Charges `cost` to `phase`: the one place a phase enters the
    /// attempt's timings and its span log, and the clock moves past it.
    fn charge(&mut self, phase: Phase, cost: SimDuration) {
        *self.timings.phase_mut(phase) += cost;
        self.log.enter(self.t, phase.name());
        self.t += cost.as_nanos();
        self.log.exit(self.t, phase.name());
    }

    /// Opens the timeline with the client-side encode of a `wire_len`-octet
    /// message. Building the message draws no randomness, so doing it
    /// ahead of the transport legs leaves the RNG stream untouched.
    fn encode(&mut self, wire_len: usize) {
        self.charge(Phase::DnsEncode, encode_cost(wire_len));
    }

    /// Connection setup paid so far — what a failure past this point has
    /// cost before its own leg. (The microsecond encode phase is not
    /// charged to failures.)
    fn setup(&self) -> SimDuration {
        self.timings.connect + self.timings.tls_handshake
    }

    /// A transport leg failed `e.elapsed` into it, after the connection
    /// setup paid so far: drops the failure's marker at that instant.
    fn failed(&mut self, e: TransportError) -> ProbeOutcome {
        let at = self.t + e.elapsed.as_nanos();
        self.log.instant(at, failure_marker(e.kind));
        ProbeOutcome::Failure {
            kind: e.into(),
            elapsed: self.setup() + e.elapsed,
        }
    }

    /// A setup leg failed: the time it burned is charged to its `phase`
    /// like a completed leg's, so the span closes at the failure, under
    /// the marker, and nothing further elapses.
    fn setup_failed(&mut self, phase: Phase, e: TransportError) -> ProbeOutcome {
        self.charge(phase, e.elapsed);
        self.failed(TransportError::new(e.kind, SimDuration::ZERO))
    }

    /// TCP + TLS establishment for the TCP-carried transports: cold pays
    /// the full handshake pair; resumed pays the TCP handshake plus the
    /// ticket-abbreviated TLS flight; reused touches the wire not at all
    /// (the pooled connection is reconstructed from metadata).
    fn tcp_tls_setup(&mut self) -> Result<TcpConnection, ProbeOutcome> {
        let ticket = match self.warm {
            WarmStart::Cold => None,
            WarmStart::Resumed { ticket } => Some(ticket),
            WarmStart::Reused { srtt_hint, .. } => {
                return Ok(TcpConnection::resumed(TcpConfig::default(), srtt_hint))
            }
        };
        let (mut tcp, connect) = TcpConnection::connect(
            &self.path,
            self.hooks.refuse_connect,
            self.rng,
            TcpConfig::default(),
        )
        .map_err(|e| self.setup_failed(Phase::Connect, e))?;
        self.charge(Phase::Connect, connect);
        let tls = TlsSession::handshake(
            &mut tcp,
            &self.path,
            TlsConfig::default(),
            self.hooks.tls_behavior,
            ticket,
            self.rng,
        )
        .map_err(|e| self.setup_failed(Phase::TlsHandshake, e))?;
        self.charge(Phase::TlsHandshake, tls.handshake_time);
        Ok(tcp)
    }

    /// QUIC establishment: cold pays the combined handshake (transport
    /// and crypto in one leg, so `tls_handshake` stays zero); resumed
    /// sends 0-RTT (no handshake flight, no RNG draws — the first stream
    /// flight is amplification-padded by the connection); reused rides an
    /// open pooled connection, which behaves like 0-RTT minus the padding.
    fn quic_setup(&mut self) -> Result<QuicConnection, ProbeOutcome> {
        match self.warm {
            WarmStart::Cold => {
                let (quic, connect) =
                    QuicConnection::connect(&self.path, QuicConfig::default(), self.rng)
                        .map_err(|e| self.setup_failed(Phase::Connect, e))?;
                self.charge(Phase::Connect, connect);
                Ok(quic)
            }
            WarmStart::Resumed { ticket } => Ok(QuicConnection::resume_zero_rtt(
                &self.path,
                QuicConfig::default(),
                ticket,
            )),
            WarmStart::Reused { ticket, .. } => {
                let mut quic =
                    QuicConnection::resume_zero_rtt(&self.path, QuicConfig::default(), ticket);
                quic.zero_rtt = false;
                Ok(quic)
            }
        }
    }

    /// Charges a finished exchange: `elapsed` is the wire-level time
    /// including the server's `server_time`, split here — once, for both
    /// ledgers — into its two phases.
    fn charge_exchange(&mut self, elapsed: SimDuration, server_time: SimDuration) {
        let (wire, server) = ProbeTimings::split_exchange(elapsed, server_time);
        self.charge(Phase::HttpExchange, wire);
        self.charge(Phase::ServerProcessing, server);
    }

    /// Closes the timeline of a completed exchange: the client then
    /// decodes a `body_len`-octet message.
    fn complete(
        &mut self,
        elapsed: SimDuration,
        server_time: SimDuration,
        body_len: usize,
    ) -> ProbeTimings {
        self.charge_exchange(elapsed, server_time);
        self.charge(Phase::DnsDecode, decode_cost(body_len));
        self.timings
    }
}

/// A resolver as seen by the prober: catalog metadata plus live simulated
/// state.
#[derive(Debug)]
pub struct ProbeTarget {
    /// Catalog metadata.
    pub entry: ResolverEntry,
    /// Simulated deployment (owns per-site caches and engines).
    pub instance: ResolverInstance,
}

impl ProbeTarget {
    /// Instantiates a target from a catalog entry.
    pub fn from_entry(entry: ResolverEntry) -> Self {
        let instance = entry.instantiate();
        ProbeTarget { entry, instance }
    }
}

/// How long a probe's ICMP companion waits for its echo reply.
const PING_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Probe-level configuration. What the paper's tool fixes stays fixed:
/// a DoH query is a GET, an encrypted query is padded to 128 octets, and
/// the ICMP companion waits [`PING_TIMEOUT`].
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// Protocol to measure.
    pub protocol: Protocol,
    /// Client retry schedule. [`RetryPolicy::none`] (the default) keeps
    /// the probe single-attempt and its output byte-identical to the
    /// pre-retry tool.
    pub retry: RetryPolicy,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            protocol: Protocol::DoH,
            retry: RetryPolicy::none(),
        }
    }
}

/// The empty plan with a `'static` address, for requests built by
/// [`ProbeRequest::new`].
static NO_FAULTS: FaultPlan = FaultPlan::EMPTY;

/// A one-off measurement: who asks for what, when, and under which plan.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRequest<'a> {
    /// The probing host.
    pub client: &'a Host,
    /// The name to query (type A).
    pub domain: &'a Name,
    /// Simulated time of the probe's first attempt.
    pub now: SimTime,
    /// Marks residential vantage points, which some resolvers serve over
    /// worse peering (the catalog's `home_extra_ms`).
    pub is_home: bool,
    /// Protocol, probe options and retry schedule.
    pub cfg: ProbeConfig,
    /// The fault plan in force. Each attempt re-resolves it at its own
    /// start time, so a transient window can end between attempts — the
    /// recovery the paper's `dig` retries provide.
    pub faults: &'a FaultPlan,
}

impl<'a> ProbeRequest<'a> {
    /// A request from a cloud vantage with the default configuration and
    /// no faults; override fields with struct-update syntax.
    pub fn new(client: &'a Host, domain: &'a Name, now: SimTime) -> Self {
        ProbeRequest {
            client,
            domain,
            now,
            is_home: false,
            cfg: ProbeConfig::default(),
            faults: &NO_FAULTS,
        }
    }
}

/// What one measurement produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// The DNS probe's result.
    pub outcome: ProbeOutcome,
    /// Round-trip time of the paired ICMP echo; `None` when unanswered.
    pub ping: Option<SimDuration>,
    /// Per-attempt accounting; `Some` iff the retry policy is
    /// [enabled](RetryPolicy::enabled).
    pub retry: Option<RetryInfo>,
    /// How the final attempt's connection started; `Some` iff a live
    /// session layer drove the probe. A warm probe whose retry fell back
    /// cold reports `Cold`.
    pub conn_mode: Option<ConnectionMode>,
}

/// One probe as [`Prober::drive`] takes it: the pair's constants borrowed
/// from a [`PairContext`](crate::context::PairContext) on the campaign
/// path, or worked out for this probe alone on the one-off path.
pub(crate) struct ProbeJob<'a> {
    pub(crate) client: &'a Host,
    pub(crate) ftarget: &'a FaultTarget<'a>,
    /// Indices of the plan events in scope for this pair; `None` resolves
    /// every attempt against the whole plan.
    pub(crate) scope_mask: Option<&'a [u32]>,
    /// The unloaded route: serving site and path (home penalty applied).
    pub(crate) site: usize,
    pub(crate) path: &'a Path,
    pub(crate) now: SimTime,
    pub(crate) cfg: ProbeConfig,
    pub(crate) faults: &'a FaultPlan,
    pub(crate) target: &'a mut ProbeTarget,
    pub(crate) wires: Wires<'a>,
    /// Where each attempt is served: `None` is the static route above, a
    /// live model picks per attempt by site load.
    pub(crate) load: Option<(&'a LoadModel, &'a mut PairLoad)>,
    /// How each attempt's connection starts: `None` is always cold, a live
    /// session layer decides per attempt and learns from the outcome.
    pub(crate) session: Option<(&'a SessionConfig, &'a mut SessionState)>,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) log: &'a mut SpanLog,
}

/// The server side of one exchange.
struct Served {
    server_time: SimDuration,
    cache_hit: bool,
    /// The rcode the frontend put on the wire.
    rcode: Rcode,
    /// The wire source's handle for the response message.
    response: usize,
}

/// The probe engine. Holds the authoritative hierarchy all resolvers
/// recurse against.
#[derive(Debug)]
pub struct Prober {
    authorities: AuthorityTree,
}

impl Default for Prober {
    fn default() -> Self {
        Self::new()
    }
}

impl Prober {
    /// Creates a prober with the standard authority tree.
    pub fn new() -> Self {
        Prober {
            authorities: AuthorityTree::standard(),
        }
    }

    /// Creates a prober resolving against a custom authority tree (e.g.
    /// zones loaded from files via [`resolver_sim::zonefile`]).
    pub fn with_authorities(authorities: AuthorityTree) -> Self {
        Prober { authorities }
    }

    /// Runs one measurement — the DNS probe, with retries under
    /// `req.cfg.retry`, plus the paired ICMP ping — recording every phase
    /// into `log` as a span in simulated time. Pass
    /// [`SpanLog::disabled`] when no trace is wanted: it allocates nothing
    /// and tracing never touches the RNG, so traced and untraced runs of a
    /// seed are bit-identical.
    ///
    /// Nothing is cached across calls: the probe is routed, its faults
    /// resolved against the whole plan and every wire built, encoded and
    /// parsed back for this probe alone.
    pub fn probe(
        &self,
        req: &ProbeRequest<'_>,
        target: &mut ProbeTarget,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeReport {
        self.probe_fresh(req, target, None, None, rng, log)
    }

    /// [`probe`](Self::probe) under a load model and/or a session layer —
    /// what [`Campaign::run_reference`](crate::Campaign::run_reference)
    /// issues per scheduled probe.
    pub(crate) fn probe_fresh<'a>(
        &self,
        req: &ProbeRequest<'a>,
        target: &'a mut ProbeTarget,
        load: Option<(&'a LoadModel, &'a mut PairLoad)>,
        session: Option<(&'a SessionConfig, &'a mut SessionState)>,
        rng: &'a mut SimRng,
        log: &'a mut SpanLog,
    ) -> ProbeReport {
        let (site, mut path) = target.instance.route(req.client);
        if req.is_home {
            path.extra_latency_ms += target.entry.home_extra_ms;
        }
        let ftarget = FaultTarget {
            resolver: target.entry.hostname,
            region: target.entry.region(),
            vantage: &req.client.label,
        };
        let mut wires = FreshWires::new(&target.entry, req.domain, req.cfg.protocol);
        self.drive(ProbeJob {
            client: req.client,
            ftarget: &ftarget,
            scope_mask: None,
            site,
            path: &path,
            now: req.now,
            cfg: req.cfg,
            faults: req.faults,
            target,
            wires: Wires::Fresh(&mut wires),
            load,
            session,
            rng,
            log,
        })
    }

    /// The per-probe driver: the paired ping, then attempts under the
    /// retry policy. Each attempt consults, in this order, the fault plan,
    /// the load model, the resolver's health and the session layer, and
    /// runs the protocol's state machine in the environment they leave.
    ///
    /// Load and session inputs are pure functions of (model, pair, time)
    /// and of the pair's outcome history: the probe RNG is consumed the
    /// same with them as without.
    pub(crate) fn drive(&self, job: ProbeJob<'_>) -> ProbeReport {
        let ProbeJob {
            client,
            ftarget,
            scope_mask,
            site,
            path,
            now,
            cfg,
            faults,
            target,
            mut wires,
            mut load,
            mut session,
            rng,
            log,
        } = job;

        // Paired ICMP probe (§3.1 "Latency"), towards the site the first
        // attempt is served from. Pings travel the base path: like the
        // paper's tooling, the ICMP companion is a reachability signal,
        // not a fault-injection subject.
        let mut first_pick = None;
        let ping_path = match &mut load {
            Some((model, pair_load)) => {
                let pick = pair_load.pick(model, ftarget, now);
                first_pick = Some(pick);
                pair_load.path(pick.site)
            }
            None => path,
        };
        let ping = icmp::ping(ping_path, target.instance.icmp, PING_TIMEOUT, rng).rtt();
        match ping {
            Some(rtt) => log.instant(now.as_nanos() + rtt.as_nanos(), "icmp_echo_reply"),
            None => log.instant(now.as_nanos(), "icmp_filtered"),
        }

        // One schedule draw per probe, before any attempt: the stream
        // position is the probe ordinal, independent of outcomes.
        let forced_cold = session
            .as_mut()
            .is_some_and(|(scfg, state)| state.draw_forced_cold(scfg));
        let mut conn_mode = None;
        let (outcome, retry) = Self::run_attempts(cfg.retry, now, rng, |attempt_now, rng| {
            let mut effects = match scope_mask {
                Some(mask) => faults.effects_at_masked(attempt_now, ftarget, mask),
                None => faults.effects_at(attempt_now, ftarget),
            };

            // Where is it served? An overloaded nearest site spills the
            // vantage to the next-nearest; the site's offered rate rides
            // the effects into the frontend's queue model, and a shed
            // attempt rides the rate-limit machinery (429 on DoH, SERVFAIL
            // on bare transports).
            let (site, path) = match &mut load {
                Some((model, pair_load)) => {
                    // The first attempt starts at `now`: its pick is the
                    // ping's.
                    let pick = first_pick
                        .take()
                        .unwrap_or_else(|| pair_load.pick(model, ftarget, attempt_now));
                    effects.offered_load_qps = pick.offered_qps;
                    effects.rate_limited |= pick.shed;
                    (pick.site, pair_load.path(pick.site))
                }
                None => (site, path),
            };
            let health = Self::effective_health(target, attempt_now, &effects, rng);

            // How does the connection start? A pooled connection is an
            // open socket to one site, so the session layer is told where
            // this attempt goes before it decides.
            let (mode, warm) = match &mut session {
                Some((_, state)) => {
                    state.bind_site(site);
                    let healthy = Self::connection_healthy(health, &effects);
                    let mode = state.decide(attempt_now, cfg.protocol, healthy, forced_cold);
                    (Some(mode), Self::warm_start(state, mode))
                }
                None => (None, WarmStart::Cold),
            };

            let (path, hooks) = Self::shape(path, health, &effects);
            let mut env = Attempt {
                now: attempt_now,
                client,
                site,
                path,
                hooks,
                health,
                effects,
                warm,
                rng,
                log: &mut *log,
                t: attempt_now.as_nanos(),
                timings: ProbeTimings::default(),
            };
            let outcome = match cfg.protocol {
                Protocol::DoH => self.doh(&mut env, target, &mut wires),
                Protocol::DoT => self.dot(&mut env, target, &mut wires),
                Protocol::Do53 => self.do53(&mut env, target, &mut wires),
                Protocol::DoQ => self.doq(&mut env, target, &mut wires),
                Protocol::ODoH => self.odoh(&mut env, target, &mut wires),
            };
            if let (Some((_, state)), Some(mode)) = (&mut session, mode) {
                Self::update_session(state, cfg.retry, attempt_now, cfg.protocol, mode, &outcome);
            }
            conn_mode = mode;
            outcome
        });
        ProbeReport {
            outcome,
            ping,
            retry,
            conn_mode,
        }
    }

    /// Samples the resolver's health for one attempt and applies the
    /// plan-driven overrides: an injected site outage blackholes the
    /// service outright; an expired certificate surfaces unless the
    /// service is unreachable anyway.
    fn effective_health(
        target: &ProbeTarget,
        attempt_now: SimTime,
        effects: &FaultEffects,
        rng: &mut SimRng,
    ) -> ProbeHealth {
        let mut health = target.instance.sample_health_at(attempt_now, rng);
        if effects.site_outage {
            health = ProbeHealth::Blackholed;
        } else if effects.bad_certificate && health != ProbeHealth::Blackholed {
            health = ProbeHealth::BadCertificate;
        }
        health
    }

    /// Turns an attempt's sampled health and fault effects into the path
    /// it travels and the behaviour its transport layers meet.
    fn shape(path: &Path, health: ProbeHealth, effects: &FaultEffects) -> (Path, FaultHooks) {
        let mut path = path.clone();
        if health == ProbeHealth::Blackholed || effects.link_down {
            path.extra_loss = 1.0;
        }
        if effects.extra_loss > 0.0 {
            path.extra_loss = (path.extra_loss + effects.extra_loss).min(1.0);
        }
        path.extra_latency_ms += effects.extra_latency_ms;
        let hooks = FaultHooks {
            refuse_connect: health == ProbeHealth::Refusing,
            tls_behavior: match health {
                ProbeHealth::TlsBroken => TlsServerBehavior::Stall,
                ProbeHealth::BadCertificate => TlsServerBehavior::BadCertificate,
                _ => TlsServerBehavior::Normal,
            },
            // HTTP-level rate limiting surfaces as a 429 on HTTP-carried
            // protocols; `serve` folds it into a SERVFAIL elsewhere.
            http_status_override: effects.rate_limited.then_some(429),
        };
        (path, hooks)
    }

    /// True when the sampled health and fault effects would let a client
    /// establish (or keep) a transport connection. Any connection-layer
    /// fault — blackhole/outage, refused, broken TLS, expired certificate,
    /// link down — invalidates all warm session state before the attempt
    /// runs. `HttpError` is connection-healthy: the transport works, only
    /// the application layer misbehaves, so warm connections survive it.
    fn connection_healthy(health: ProbeHealth, effects: &FaultEffects) -> bool {
        !(matches!(
            health,
            ProbeHealth::Blackholed
                | ProbeHealth::Refusing
                | ProbeHealth::TlsBroken
                | ProbeHealth::BadCertificate
        ) || effects.link_down)
    }

    /// Maps the session layer's decision onto the transport start. Ticket
    /// identities never influence timing (the TLS model distinguishes only
    /// `Some`/`None`), so the zero ticket stands in for a pooled QUIC
    /// connection that outlived its ticket.
    fn warm_start(session: &SessionState, mode: ConnectionMode) -> WarmStart {
        let ticket = session.ticket().unwrap_or(SessionTicket { id: 0 });
        match mode {
            ConnectionMode::Cold => WarmStart::Cold,
            ConnectionMode::Resumed => WarmStart::Resumed { ticket },
            ConnectionMode::Reused => WarmStart::Reused {
                ticket,
                srtt_hint: session.pool_srtt_hint().unwrap_or(SimDuration::ZERO),
            },
        }
    }

    /// Applies one attempt's outcome to the session state, mirroring
    /// [`run_attempts`](Self::run_attempts)' attempt-timeout conversion: an
    /// exchange that outlives the client's patience is a failure from the
    /// client's point of view, and the client tears the connection down
    /// with it.
    fn update_session(
        session: &mut SessionState,
        policy: RetryPolicy,
        attempt_now: SimTime,
        protocol: Protocol,
        mode: ConnectionMode,
        outcome: &ProbeOutcome,
    ) {
        match outcome {
            ProbeOutcome::Success { timings, .. }
                if policy
                    .attempt_timeout
                    .is_none_or(|to| timings.total() <= to) =>
            {
                session.on_success(attempt_now, protocol, mode, timings.connect);
            }
            _ => session.on_failure(),
        }
    }

    /// The retry loop: runs `attempt` under `policy`, accumulating elapsed
    /// time and backoff waits so later attempts see later fault-plan
    /// windows. The returned [`RetryInfo`] is `Some` iff the policy is
    /// [enabled](RetryPolicy::enabled).
    fn run_attempts(
        policy: RetryPolicy,
        now: SimTime,
        rng: &mut SimRng,
        mut attempt: impl FnMut(SimTime, &mut SimRng) -> ProbeOutcome,
    ) -> (ProbeOutcome, Option<RetryInfo>) {
        // `info`'s burned time is the simulated time since probe start:
        // failed attempts and backoff waits accumulate there, so retries
        // see later plan windows.
        let mut info = RetryInfo::FIRST_TRY;
        let mut prev_backoff = SimDuration::ZERO;

        loop {
            let attempt_now = now + info.burned();
            let outcome = attempt(attempt_now, rng);

            // Apply the per-attempt timeout: a "successful" exchange that
            // outlives the client's patience is a timeout from the
            // client's point of view, exactly as with `dig`.
            let attempt_result = match outcome {
                ProbeOutcome::Success { timings, .. }
                    if policy
                        .attempt_timeout
                        .is_some_and(|to| timings.total() > to) =>
                {
                    Err((
                        ProbeErrorKind::QueryTimeout,
                        // detlint:allow(unwrap, the match guard checked attempt_timeout is Some)
                        policy.attempt_timeout.expect("guard checked"),
                    ))
                }
                ProbeOutcome::Success {
                    timings,
                    cache_hit,
                    site,
                } => Ok((timings, cache_hit, site)),
                ProbeOutcome::Failure { kind, elapsed } => {
                    let spent = match policy.attempt_timeout {
                        Some(to) => elapsed.min(to),
                        None => elapsed,
                    };
                    Err((kind, spent))
                }
            };

            match attempt_result {
                Ok((timings, cache_hit, site)) => {
                    return (
                        ProbeOutcome::Success {
                            timings,
                            cache_hit,
                            site,
                        },
                        policy.enabled().then_some(info),
                    );
                }
                Err((kind, spent)) => {
                    let attempts = u32::from(info.attempts);
                    if attempts >= policy.tries {
                        let elapsed = info.burned() + spent;
                        return (
                            ProbeOutcome::Failure { kind, elapsed },
                            policy.enabled().then_some(info.exhaust()),
                        );
                    }
                    // Burned attempt plus the (possibly jittered) wait.
                    prev_backoff = policy.backoff_after(attempts, prev_backoff, rng);
                    info.burn(kind, spent + prev_backoff);
                }
            }
        }
    }

    /// Runs the server side of an attempt: the resolver engine answers
    /// (drawing from the RNG), and the wire source makes the response
    /// message.
    ///
    /// `http_layer` says whether the carrying protocol has an HTTP layer:
    /// there an injected rate limit surfaces as a 429 before any DNS
    /// payload matters, while on bare transports (Do53/DoT/DoQ) the
    /// overloaded frontend sheds load by answering SERVFAIL instead.
    #[deny_alloc]
    fn serve(
        &self,
        env: &mut Attempt<'_>,
        target: &mut ProbeTarget,
        wires: &mut Wires<'_>,
        http_layer: bool,
    ) -> Served {
        let (server_time, resolution) = target.instance.server_mut(env.site).handle_query_loaded(
            wires.name(),
            RecordType::A,
            &self.authorities,
            env.now,
            env.effects.slowdown,
            env.effects.offered_load_qps,
            env.rng,
        );
        let shed = env.effects.servfail || (!http_layer && env.effects.rate_limited);
        let rcode = if shed {
            Rcode::ServFail
        } else {
            resolution.rcode
        };
        Served {
            server_time,
            cache_hit: resolution.cache_hit,
            rcode,
            response: wires.respond(shed, rcode, &resolution.records),
        }
    }

    /// The verdict of a completed exchange whose response carried `rcode`.
    fn check_rcode(
        rcode: Rcode,
        timings: ProbeTimings,
        served: &Served,
        site: usize,
    ) -> ProbeOutcome {
        if rcode.is_success() {
            ProbeOutcome::Success {
                timings,
                cache_hit: served.cache_hit,
                // A deployment has a handful of sites.
                site: site as u32,
            }
        } else {
            Self::dns_error(timings.total())
        }
    }

    /// The exchange completed but carried no usable answer.
    fn dns_error(elapsed: SimDuration) -> ProbeOutcome {
        ProbeOutcome::Failure {
            kind: ProbeErrorKind::DnsError,
            elapsed,
        }
    }

    /// The exchange completed with a non-200 HTTP status.
    fn http_error(status: u16, timings: ProbeTimings) -> ProbeOutcome {
        ProbeOutcome::Failure {
            kind: if status == 429 {
                ProbeErrorKind::RateLimited
            } else {
                ProbeErrorKind::HttpStatus
            },
            elapsed: timings.total(),
        }
    }

    /// DNS over HTTPS (RFC 8484): TCP, TLS, then one HTTP exchange —
    /// HTTP/2, or HTTP/1.1 for servers that offer no h2; both ride the
    /// same TCP exchange and differ only in byte counts.
    fn doh(
        &self,
        env: &mut Attempt<'_>,
        target: &mut ProbeTarget,
        wires: &mut Wires<'_>,
    ) -> ProbeOutcome {
        env.encode(wires.query_wire().len());
        let mut tcp = match env.tcp_tls_setup() {
            Ok(tcp) => tcp,
            Err(fail) => return fail,
        };
        let req_len = wires.doh_request_len(env.warm.is_reused());

        // Server side. The authoritative rcode travels inside the encoded
        // response; the client re-derives it from the HTTP body.
        let served = self.serve(env, target, wires, true);
        let base_status = if env.health == ProbeHealth::HttpError {
            500
        } else {
            200
        };
        let reply = wires.http_reply(served.response, env.hooks.http_status(base_status));

        let out = match tcp.request_response(
            &env.path,
            req_len,
            reply.wire_len,
            served.server_time,
            env.rng,
        ) {
            Ok(out) => out,
            Err(e) => return env.failed(e),
        };
        let timings = env.complete(out.elapsed, served.server_time, reply.body_len);
        if reply.status != 200 {
            return Self::http_error(reply.status, timings);
        }
        match reply.rcode {
            Some(rcode) => Self::check_rcode(rcode, timings, &served, env.site),
            None => Self::dns_error(timings.total()),
        }
    }

    /// DNS over TLS (RFC 7858): TCP, TLS, then one length-prefixed
    /// exchange.
    fn dot(
        &self,
        env: &mut Attempt<'_>,
        target: &mut ProbeTarget,
        wires: &mut Wires<'_>,
    ) -> ProbeOutcome {
        env.encode(wires.query_wire().len());
        let mut tcp = match env.tcp_tls_setup() {
            Ok(tcp) => tcp,
            Err(fail) => return fail,
        };
        let served = self.serve(env, target, wires, false);
        let (req_len, resp_len) = wires.stream_lens(served.response);
        // DoT has no HTTP layer; the analogous failure is a bare
        // header-only SERVFAIL.
        let broken = env.health == ProbeHealth::HttpError;
        let out = match tcp.request_response(
            &env.path,
            req_len,
            if broken { 2 + 12 } else { resp_len },
            served.server_time,
            env.rng,
        ) {
            Ok(out) => out,
            Err(e) => return env.failed(e),
        };
        if broken {
            env.charge_exchange(out.elapsed, served.server_time);
            return Self::dns_error(env.setup() + out.elapsed);
        }
        let body_len = wires.response_wire(served.response).len();
        let timings = env.complete(out.elapsed, served.server_time, body_len);
        Self::check_rcode(served.rcode, timings, &served, env.site)
    }

    /// Plain DNS over UDP, with `dig`'s datagram retransmit schedule.
    fn do53(
        &self,
        env: &mut Attempt<'_>,
        target: &mut ProbeTarget,
        wires: &mut Wires<'_>,
    ) -> ProbeOutcome {
        // Plain DNS has no connection; refused/TLS failures manifest as
        // silence (dig retries then times out).
        if matches!(
            env.health,
            ProbeHealth::Refusing | ProbeHealth::TlsBroken | ProbeHealth::BadCertificate
        ) {
            env.path.extra_loss = 1.0;
        }
        env.encode(wires.query_wire().len());
        let served = self.serve(env, target, wires, false);
        let resp_len = wires.response_wire(served.response).len();
        let out = match transport::exchange(
            &env.path,
            wires.query_wire().len(),
            resp_len,
            served.server_time,
            // The datagram-level retransmit schedule is `dig`'s: one home
            // for the constants, shared with the probe-level retry layer.
            RetryPolicy::dig_defaults().as_flight_policy(),
            TransportErrorKind::RequestTimeout,
            env.rng,
        ) {
            Ok(out) => out,
            Err(e) => return env.failed(e),
        };
        let timings = env.complete(out.elapsed, served.server_time, resp_len);
        if env.health == ProbeHealth::HttpError {
            return Self::dns_error(timings.total());
        }
        Self::check_rcode(served.rcode, timings, &served, env.site)
    }

    /// DNS over QUIC (RFC 9250): one combined handshake, then one
    /// length-prefixed stream exchange.
    fn doq(
        &self,
        env: &mut Attempt<'_>,
        target: &mut ProbeTarget,
        wires: &mut Wires<'_>,
    ) -> ProbeOutcome {
        if env.hooks.refuse_connect {
            // QUIC: a closed port answers with ICMP unreachable ≈ one RTT.
            let rtt = env
                .path
                .sample_rtt(1200, 60, env.rng)
                .unwrap_or(SimDuration::from_millis(300));
            let refused = TransportError::new(TransportErrorKind::ConnectionRefused, rtt);
            return env.failed(refused);
        }
        env.encode(wires.query_wire().len());
        let mut quic = match env.quic_setup() {
            Ok(quic) => quic,
            Err(fail) => return fail,
        };
        if env.hooks.tls_behavior == TlsServerBehavior::BadCertificate {
            // QUIC folds TLS 1.3 into its handshake: the certificate
            // arrives with the combined connect flight, so the client pays
            // the connect round trip and then aborts — same shape as the
            // TCP-carried transports.
            env.log.instant(env.t, "certificate_rejected");
            return ProbeOutcome::Failure {
                kind: ProbeErrorKind::CertificateError,
                elapsed: env.timings.connect,
            };
        }
        let served = self.serve(env, target, wires, false);
        let (req_len, resp_len) = wires.stream_lens(served.response);
        let out =
            match quic.stream_exchange(&env.path, req_len, resp_len, served.server_time, env.rng) {
                Ok(out) => out,
                Err(e) => return env.failed(e),
            };
        let body_len = wires.response_wire(served.response).len();
        let timings = env.complete(out.elapsed, served.server_time, body_len);
        if env.health == ProbeHealth::HttpError {
            return Self::dns_error(timings.total());
        }
        Self::check_rcode(served.rcode, timings, &served, env.site)
    }

    /// Oblivious DoH (RFC 9230): the query is sealed to the target's key
    /// and carried through a relay. The client pays a cold DoH transaction
    /// to its nearest relay plus one relay→target round trip (relays hold
    /// warm connections to targets) plus the target's processing. The
    /// per-probe KEM entropy draw leaves no sealed wire to cache.
    fn odoh(
        &self,
        env: &mut Attempt<'_>,
        target: &mut ProbeTarget,
        wires: &mut Wires<'_>,
    ) -> ProbeOutcome {
        use dns_wire::odoh;
        use netsim::AccessProfile;

        let relay = catalog::relays::nearest_relay(&env.client.location);
        // Relay → target leg between datacenters; target outages blackhole it.
        let target_city = target.instance.servers[env.site].location();
        let mut relay_target = Path::between(
            relay.city.point,
            AccessProfile::datacenter(),
            target_city.point,
            AccessProfile::datacenter(),
        );
        if env.health == ProbeHealth::Blackholed {
            relay_target.extra_loss = 1.0;
        }
        // The client's own transport runs to the relay, not the target:
        // the leg inherits the client's access network, relays are
        // modelled reliable, and the target never sees the client, so
        // there is no session to resume.
        env.path = Path::between(
            env.client.location,
            env.client.access,
            relay.city.point,
            AccessProfile::datacenter(),
        );
        env.hooks = FaultHooks::NONE;
        env.warm = WarmStart::Cold;

        // Seal the query to the target's key configuration. The encode
        // phase covers building the query and sealing it (the sealed
        // message is what goes on the wire).
        let key = odoh::TargetKey::from_seed(netsim::rng::derive_seed(
            0x0D0A_0D0A,
            target.entry.hostname,
        ));
        let kem_entropy = (env.rng.uniform() * u64::MAX as f64) as u64;
        let sealed_query = odoh::seal_query(&key, wires.query_wire(), kem_entropy);
        // detlint:allow(unwrap, sealed ODoH messages built here are well-formed by construction)
        let sealed_query_wire = sealed_query.encode().expect("odoh encodes");
        env.encode(sealed_query_wire.len());
        let mut tcp = match env.tcp_tls_setup() {
            Ok(tcp) => tcp,
            Err(fail) => return fail,
        };
        let setup = env.setup();

        // Target side: resolve and seal the response.
        let served = self.serve(env, target, wires, true);
        let (_plain, kem) = match odoh::open_query(&key, &sealed_query) {
            Ok(ok) => ok,
            Err(_) => return Self::dns_error(setup),
        };
        let sealed_response = odoh::seal_response(&key, &kem, wires.response_wire(served.response));
        // detlint:allow(unwrap, sealed ODoH messages built here are well-formed by construction)
        let sealed_response_wire = sealed_response.encode().expect("odoh encodes");

        // Relay forwards over its warm target connection: one round trip.
        // On a lost one it retries once after a 2-second upstream timeout,
        // then reports 502 to the client after another.
        let (req_len, resp_len) = (sealed_query_wire.len(), sealed_response_wire.len());
        let relay_forward = match relay_target.sample_rtt(req_len, resp_len, env.rng) {
            Some(rtt) => rtt + served.server_time,
            None => match relay_target.sample_rtt(req_len, resp_len, env.rng) {
                Some(rtt) => SimDuration::from_secs(2) + rtt + served.server_time,
                None => {
                    return ProbeOutcome::Failure {
                        kind: ProbeErrorKind::HttpStatus,
                        elapsed: setup + SimDuration::from_secs(4),
                    }
                }
            },
        };

        // Client ↔ relay HTTP exchange. Through a relay, everything past
        // that wire exchange — the relay→target leg plus the target's own
        // processing — is "server" time from the client's point of view.
        let content_type = HeaderField::new("content-type", "application/oblivious-dns-message");
        let mut headers = doh_headers(relay.hostname, "/proxy", true, req_len);
        headers.push(content_type.clone());
        let req = H2Request {
            headers,
            body: sealed_query_wire,
        };
        // A rate-limited target answers the relay with a 429, which the
        // relay forwards to the client.
        let http_status = if env.effects.rate_limited {
            429
        } else if env.health == ProbeHealth::HttpError {
            500
        } else {
            200
        };
        let (resp, query_time) = match H2Connection::new().round_trip(
            &mut tcp,
            &env.path,
            &req,
            |sid, enc| {
                H2Connection::encode_response(
                    enc,
                    sid,
                    http_status,
                    std::slice::from_ref(&content_type),
                    &sealed_response_wire,
                )
            },
            relay_forward,
            env.rng,
        ) {
            Ok(ok) => ok,
            Err(e) => return env.failed(e),
        };
        // The decode phase covers decapsulating the sealed response and
        // parsing the DNS message inside it.
        let timings = env.complete(query_time, relay_forward, resp.body.len());
        if resp.status != 200 {
            return Self::http_error(resp.status, timings);
        }
        let opened = odoh::ObliviousMessage::decode(&resp.body)
            .and_then(|m| odoh::open_response(&key, &kem, &m))
            .and_then(|plain| Message::decode(&plain));
        match opened {
            Ok(msg) => Self::check_rcode(msg.rcode(), timings, &served, env.site),
            Err(_) => Self::dns_error(timings.total()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::resolvers;
    use netsim::geo::cities;
    use netsim::{AccessProfile, HostId};

    fn client() -> Host {
        Host::in_city(
            HostId(0),
            "ec2-ohio",
            cities::COLUMBUS_OH,
            AccessProfile::cloud_vm(),
        )
    }

    fn target(hostname: &str) -> ProbeTarget {
        ProbeTarget::from_entry(resolvers::find(hostname).unwrap())
    }

    fn over(protocol: Protocol) -> ProbeConfig {
        ProbeConfig {
            protocol,
            ..ProbeConfig::default()
        }
    }

    /// `hours` untraced, fault-free probes of google.com, one per hour; a
    /// client labelled `home-*` probes as a residential vantage.
    fn hourly(
        client: &Host,
        target: &mut ProbeTarget,
        cfg: ProbeConfig,
        hours: u64,
        rng: &mut SimRng,
    ) -> Vec<ProbeReport> {
        let prober = Prober::new();
        let domain = Name::parse("google.com").unwrap();
        (0..hours)
            .map(|h| {
                let req = ProbeRequest {
                    is_home: client.label.starts_with("home"),
                    cfg,
                    ..ProbeRequest::new(client, &domain, SimTime::ZERO + SimDuration::from_hours(h))
                };
                prober.probe(&req, target, rng, &mut SpanLog::disabled())
            })
            .collect()
    }

    /// Sorted response times of the successful probes, in milliseconds.
    fn times_ms(reports: &[ProbeReport]) -> Vec<f64> {
        let mut times: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.outcome.response_time())
            .map(|rt| rt.as_millis_f64())
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times
    }

    fn median_ms(reports: &[ProbeReport]) -> f64 {
        let times = times_ms(reports);
        times[times.len() / 2]
    }

    fn failure_kinds(reports: &[ProbeReport]) -> Vec<ProbeErrorKind> {
        reports
            .iter()
            .filter_map(|r| match r.outcome {
                ProbeOutcome::Failure { kind, .. } => Some(kind),
                ProbeOutcome::Success { .. } => None,
            })
            .collect()
    }

    #[test]
    fn doh_probe_of_mainstream_succeeds_fast() {
        let mut rng = SimRng::from_seed(1);
        let reports = hourly(
            &client(),
            &mut target("dns.google"),
            ProbeConfig::default(),
            50,
            &mut rng,
        );
        for p in reports.iter().filter_map(|r| r.ping) {
            assert!(p.as_millis_f64() < 60.0, "ping {p}");
        }
        let times = times_ms(&reports);
        assert!(times.len() >= 48, "mainstream should almost always succeed");
        // Cold DoH ≈ 3 round trips Ohio→Chicago/Ashburn ≈ 20-50 ms.
        let median = times[times.len() / 2];
        assert!((10.0..60.0).contains(&median), "median {median}");
    }

    #[test]
    fn remote_unicast_resolver_is_much_slower() {
        let mut rng = SimRng::from_seed(2);
        let cfg = ProbeConfig::default();
        let n = median_ms(&hourly(
            &client(),
            &mut target("dns.google"),
            cfg,
            40,
            &mut rng,
        ));
        // Bandung, Indonesia.
        let f = median_ms(&hourly(
            &client(),
            &mut target("dns.bebasid.com"),
            cfg,
            40,
            &mut rng,
        ));
        assert!(f > n * 5.0, "near {n} ms vs far {f} ms");
    }

    #[test]
    fn icmp_filtered_resolver_has_no_ping() {
        let mut rng = SimRng::from_seed(3);
        let reports = hourly(
            &client(),
            &mut target("dns.njal.la"),
            ProbeConfig::default(),
            1,
            &mut rng,
        );
        assert_eq!(reports[0].ping, None);
    }

    #[test]
    fn mostly_down_resolver_yields_connection_errors() {
        let mut rng = SimRng::from_seed(4);
        let reports = hourly(
            &client(),
            &mut target("chewbacca.meganerd.nl"),
            ProbeConfig::default(),
            60,
            &mut rng,
        );
        for r in &reports {
            if let ProbeOutcome::Failure { elapsed, .. } = r.outcome {
                assert!(elapsed > SimDuration::ZERO);
            }
        }
        let kinds = failure_kinds(&reports);
        let (failures, conn_failures) = (
            kinds.len(),
            kinds.iter().filter(|k| k.is_connection_failure()).count(),
        );
        assert!(failures > 40, "mostly-down should mostly fail: {failures}");
        assert!(
            conn_failures * 10 > failures * 8,
            "errors should be dominated by connection failures: {conn_failures}/{failures}"
        );
    }

    #[test]
    fn home_extra_latency_applies_only_at_home() {
        let mut rng = SimRng::from_seed(5);
        let cfg = ProbeConfig::default();
        let mut t = target("dns.twnic.tw");
        let home_client = Host::in_city(
            HostId(1),
            "home-1",
            cities::CHICAGO,
            AccessProfile::home_cable(),
        );
        let hm = median_ms(&hourly(&home_client, &mut t, cfg, 30, &mut rng));
        let cm = median_ms(&hourly(&client(), &mut t, cfg, 30, &mut rng));
        // 70 ms extra one-way over 3 round trips = several hundred ms more.
        assert!(hm > cm + 200.0, "home {hm} vs cloud {cm}");
    }

    #[test]
    fn all_protocols_succeed_against_healthy_target() {
        let mut rng = SimRng::from_seed(6);
        for protocol in [Protocol::Do53, Protocol::DoT, Protocol::DoH, Protocol::DoQ] {
            let mut t = target("dns.quad9.net");
            let successes =
                times_ms(&hourly(&client(), &mut t, over(protocol), 20, &mut rng)).len();
            assert!(successes >= 18, "{protocol}: {successes}/20");
        }
    }

    #[test]
    fn do53_is_fastest_cold_doh_slowest() {
        // Böttger et al.'s ordering: DNS < DoT ≈ DoH on cold connections.
        let mut rng = SimRng::from_seed(7);
        let [do53, dot, doh] = [Protocol::Do53, Protocol::DoT, Protocol::DoH].map(|protocol| {
            let mut t = target("dns.google");
            median_ms(&hourly(&client(), &mut t, over(protocol), 60, &mut rng))
        });
        assert!(do53 < dot, "do53 {do53} vs dot {dot}");
        assert!(do53 * 2.0 < doh, "cold DoH should cost ≈3x a UDP exchange");
    }

    #[test]
    fn http1_only_resolver_probes_succeed() {
        let mut t = target("ibksturm.synology.me"); // http1_only, flaky
        assert!(t.entry.http1_only);
        let mut rng = SimRng::from_seed(12);
        let ok = times_ms(&hourly(
            &client(),
            &mut t,
            ProbeConfig::default(),
            30,
            &mut rng,
        ))
        .len();
        // Flaky health: most but not all succeed, over HTTP/1.1.
        assert!(ok >= 20, "{ok}/30");
    }

    #[test]
    fn odoh_cost_depends_on_target_distance() {
        // Near target (Frankfurt client, Amsterdam target + Amsterdam
        // relay): the relay hop is pure overhead. Far target (Ohio client):
        // the cold handshakes terminate at the nearby relay, whose *warm*
        // connection crosses the ocean once — so ODoH can beat cold direct
        // DoH. Both regimes are asserted.
        let median = |city, protocol| {
            let probe_client = Host::in_city(HostId(0), "c", city, AccessProfile::cloud_vm());
            let mut t = target("odoh-target.alekberg.net");
            let mut rng = SimRng::from_seed(8);
            let times = times_ms(&hourly(&probe_client, &mut t, over(protocol), 40, &mut rng));
            assert!(times.len() >= 35, "{protocol}: {} ok", times.len());
            times[times.len() / 2]
        };
        let (doh, odoh) = (
            median(cities::FRANKFURT, Protocol::DoH),
            median(cities::FRANKFURT, Protocol::ODoH),
        );
        assert!(odoh > doh + 1.0, "near: odoh {odoh} vs doh {doh}");
        let (doh, odoh) = (
            median(cities::COLUMBUS_OH, Protocol::DoH),
            median(cities::COLUMBUS_OH, Protocol::ODoH),
        );
        assert!(odoh < doh, "far: odoh {odoh} vs doh {doh}");
    }

    #[test]
    fn odoh_blackholed_target_surfaces_as_http_error() {
        let mut t = target("chewbacca.meganerd.nl"); // mostly blackholed
        let mut rng = SimRng::from_seed(9);
        let http_errors = failure_kinds(&hourly(
            &client(),
            &mut t,
            over(Protocol::ODoH),
            40,
            &mut rng,
        ))
        .iter()
        .filter(|k| **k == ProbeErrorKind::HttpStatus)
        .count();
        // Through a relay, a dead target looks like a 5xx from the relay.
        assert!(http_errors > 10, "{http_errors}/40 relay 5xx");
    }

    #[test]
    fn deterministic_probes() {
        let run = |seed: u64| {
            let mut rng = SimRng::from_seed(seed);
            hourly(
                &client(),
                &mut target("dns.google"),
                ProbeConfig::default(),
                1,
                &mut rng,
            )
        };
        assert_eq!(run(11), run(11));
    }

    // --- The timeline matrix ---------------------------------------------
    //
    // `golden/span_matrix.txt` is the stored verdict on every span and
    // marker the engine emits: four resolvers (healthy, mostly down, flaky
    // HTTP/1.1-only, small site) x every protocol x 336 hourly probes under
    // seed 4's fault plan and `dig` retries, cold and — on the transports
    // with session state — warm. Never regenerate it, except across a
    // deliberate change of the simulated draws that a bit-identical
    // commit before it has shown this code reproduces under the old ones:
    // `FROZEN_REBASELINE=1` makes the test below rewrite it.

    /// The fixture's provenance, above its description of the matrix.
    const SPAN_MATRIX_HEADER: &str = "\
# span matrix, generated by commit 8d961673625f3f74037c88d167392599368e543a —
# the last with span-emitting `*_traced` transport twins; every later commit
# reproduced it bit for bit until the normal sampler changed from Box-Muller to
# the ziggurat, when FROZEN_REBASELINE=1 rewrote it under the new draws.
";

    /// Every protocol, session-capable ones in the middle.
    const PROTOCOLS: [Protocol; 5] = [
        Protocol::Do53,
        Protocol::DoT,
        Protocol::DoH,
        Protocol::DoQ,
        Protocol::ODoH,
    ];

    /// Walks the matrix, folding each traced probe into its cell's `A`.
    fn span_matrix<A: Default>(
        mut fold: impl FnMut(&mut A, SimTime, &ProbeReport, &SpanLog),
    ) -> Vec<(String, A)> {
        let hosts = [
            "dns.google",
            "chewbacca.meganerd.nl",
            "ibksturm.synology.me",
            "doh.ffmuc.net",
        ];
        let (prober, host) = (Prober::new(), client());
        let domain = Name::parse("google.com").unwrap();
        let faults = crate::config::default_fault_plan(4, SimDuration::from_hours(336));
        let mut log = SpanLog::with_capacity(1024);
        let mut cells = Vec::new();
        for (label, session_cfg) in [
            ("cold", None),
            ("warm", Some(SessionConfig::warm())),
            ("interleaved", Some(SessionConfig::interleaved(0.3))),
        ] {
            // A warm cell probes twice an hour, five seconds apart: the second
            // probe finds the first one's connection pooled, the next hour's
            // only its ticket. Do53 and ODoH keep no session state.
            let (burst, protocols) = match session_cfg {
                Some(_) => (2, &PROTOCOLS[1..4]),
                None => (1, &PROTOCOLS[..]),
            };
            let pairs = protocols.iter().flat_map(|p| hosts.map(|h| (*p, h)));
            for (protocol, hostname) in pairs {
                let mut target = target(hostname);
                let mut rng = SimRng::derived(4, &format!("span-matrix:{hostname}"));
                let mut state =
                    SessionState::new(4, &host.label, hostname, target.entry.reuse_policy());
                let cfg = ProbeConfig {
                    retry: RetryPolicy::dig_defaults(),
                    ..over(protocol)
                };
                let mut acc = A::default();
                for tick in 0..336 * burst {
                    let now = SimTime::ZERO
                        + SimDuration::from_hours(tick / burst)
                        + SimDuration::from_secs(5 * (tick % burst));
                    let req = ProbeRequest {
                        cfg,
                        faults: &faults,
                        ..ProbeRequest::new(&host, &domain, now)
                    };
                    let session = session_cfg.as_ref().map(|cfg| (cfg, &mut state));
                    log.clear();
                    let report =
                        prober.probe_fresh(&req, &mut target, None, session, &mut rng, &mut log);
                    assert_eq!(log.dropped(), 0);
                    fold(&mut acc, now, &report, &log);
                }
                let cell = format!("cell={label} protocol={protocol} host={hostname}");
                cells.push((cell, acc));
            }
        }
        cells
    }

    #[test]
    fn span_matrix_matches_the_frozen_verdict() {
        use std::fmt::Write;
        let mut census = std::collections::BTreeMap::new();
        let cells = span_matrix(|(events, text): &mut (u64, String), _, _, log| {
            *events += log.recorded();
            text.push_str(&log.render());
            let instant = |e: &&obs::SpanEvent| e.kind == obs::SpanEventKind::Instant;
            for marker in log.events().filter(instant) {
                *census.entry(marker.name).or_insert(0u64) += 1;
            }
        });
        let mut got = String::new();
        for (cell, (events, text)) in &cells {
            let hash = crate::checkpoint::fnv64(text.as_bytes());
            writeln!(got, "spans {cell} events={events} fnv64={hash:016x}").unwrap();
        }
        for (name, count) in &census {
            writeln!(got, "marker name={name} count={count}").unwrap();
        }
        let fixture = include_str!("../tests/golden/span_matrix.txt");
        if std::env::var_os("FROZEN_REBASELINE").is_some() {
            let described = fixture.lines().filter(|l| l.starts_with('#'));
            let described = described.skip_while(|l| !l.starts_with("# spans lines:"));
            let header: String = described.map(|l| format!("{l}\n")).collect();
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/span_matrix.txt");
            std::fs::write(path, format!("{SPAN_MATRIX_HEADER}{header}{got}")).unwrap();
            return;
        }
        let want: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(got.lines().count(), want.len(), "the fixture's line count");
        for (got, want) in got.lines().zip(want) {
            assert_eq!(got, want, "the timeline drifted from the frozen verdict");
        }
        // Every marker the engine can emit is on record.
        let markers: Vec<&str> = census.keys().copied().collect();
        let all = [
            "certificate_invalid",
            "certificate_rejected",
            "connect_timeout",
            "connection_refused",
            "icmp_echo_reply",
            "icmp_filtered",
            "request_timeout",
            "tls_failure",
        ];
        assert_eq!(markers, all);
    }

    /// The two ledgers agree: a single-attempt success's spans run gap-free
    /// from the probe's start to its response time, and per phase they sum
    /// to the timings the record carries.
    #[test]
    fn spans_equal_timings_on_every_single_attempt_success() {
        let cells = span_matrix(|checked: &mut u32, now, report, log| {
            let (ProbeOutcome::Success { timings, .. }, Some(1)) = (
                &report.outcome,
                report.retry.as_ref().map(|retry| retry.attempts),
            ) else {
                return;
            };
            let spans = log.spans();
            let mut t = now.as_nanos();
            for span in &spans {
                assert_eq!(span.start, t, "gap before {}", span.name);
                t = span.end;
            }
            assert_eq!(t, (now + timings.total()).as_nanos(), "timeline's end");
            for phase in Phase::ALL {
                let named = spans.iter().filter(|s| s.name == phase.name());
                let total: Nanos = named.map(|s| s.duration()).sum();
                assert_eq!(total, timings.phase(phase).as_nanos(), "{phase}");
            }
            *checked += 1;
        });
        let checked: u32 = cells.iter().map(|(_, n)| n).sum();
        assert!(checked >= 16_000, "only {checked} probes checked");
    }

    #[test]
    fn a_disabled_log_records_nothing_and_changes_nothing() {
        let (prober, host) = (Prober::new(), client());
        let domain = Name::parse("google.com").unwrap();
        let faults = crate::config::default_fault_plan(4, SimDuration::from_hours(48));
        for protocol in PROTOCOLS {
            let run = |log: &mut SpanLog| {
                let mut rng = SimRng::from_seed(13);
                let mut target = target("chewbacca.meganerd.nl");
                let reports: Vec<ProbeReport> = (0..48)
                    .map(|h| {
                        let now = SimTime::ZERO + SimDuration::from_hours(h);
                        let req = ProbeRequest {
                            cfg: over(protocol),
                            faults: &faults,
                            ..ProbeRequest::new(&host, &domain, now)
                        };
                        prober.probe(&req, &mut target, &mut rng, log)
                    })
                    .collect();
                (reports, rng.uniform().to_bits())
            };
            let (mut on, mut off) = (SpanLog::with_capacity(64), SpanLog::disabled());
            assert_eq!(run(&mut on), run(&mut off), "{protocol}: tracing moved it");
            assert!(on.recorded() > 0);
            assert_eq!(off.recorded(), 0);
        }
    }

    #[test]
    fn refused_connect_closes_its_span_and_drops_the_marker_at_the_failure_time() {
        let host = client();
        let (_, path) = target("dns.google").instance.route(&host);
        let now = SimTime::ZERO + SimDuration::from_secs(5);
        let mut log = SpanLog::with_capacity(16);
        let mut env = Attempt {
            now,
            client: &host,
            site: 0,
            path,
            hooks: FaultHooks {
                refuse_connect: true,
                ..FaultHooks::NONE
            },
            health: ProbeHealth::Refusing,
            effects: FaultEffects::clear(),
            warm: WarmStart::Cold,
            rng: &mut SimRng::from_seed(2),
            log: &mut log,
            t: now.as_nanos(),
            timings: ProbeTimings::default(),
        };
        let Err(ProbeOutcome::Failure { kind, elapsed }) = env.tcp_tls_setup() else {
            panic!("a refused connect must fail");
        };
        assert_eq!(kind, ProbeErrorKind::ConnectionRefused);
        let at = (now + elapsed).as_nanos();
        let spans = log.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].name, spans[0].start, spans[0].end),
            ("connect", now.as_nanos(), at)
        );
        assert!(log
            .events()
            .any(|e| e.name == "connection_refused" && e.at == at));
    }
}
