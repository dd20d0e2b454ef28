//! Result records: one JSON-serialisable record per probe, as the tool
//! writes to its output file.
//!
//! A record has two codecs. The tree path ([`ProbeRecord::to_json`] /
//! [`ProbeRecord::from_json`] over [`crate::json::Json`]) formats and
//! parses every `*_ms` value as an `f64` and is the oracle. The line path
//! ([`ProbeRecord::write_json_line`] / [`ProbeRecord::read_json_line`]) is
//! what campaigns, shard files and `report` run: the same bytes and the
//! same records, with integer nanoseconds ↔ decimal milliseconds in both
//! directions and every key one literal. A line the engine would not have
//! written is one the line path declines, so `report` reads only those.

use detlint_macros::deny_alloc;
use netsim::{Region, SimDuration, SimTime};
use obs::{Label, Phase};

use crate::errors::ProbeErrorKind;
use crate::json::{Json, LineReader};
use crate::retry::{RetryInfo, MAX_TRIES};

/// The encrypted-DNS protocol a probe used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Conventional DNS over UDP port 53.
    Do53,
    /// DNS over TLS (RFC 7858).
    DoT,
    /// DNS over HTTPS (RFC 8484) — the paper's focus.
    DoH,
    /// DNS over QUIC / HTTP-3 (extension experiments).
    DoQ,
    /// Oblivious DoH through a relay (RFC 9230).
    ODoH,
}

impl Protocol {
    /// Stable label for JSON output.
    pub fn label(self) -> &'static str {
        crate::json::unquote(self.token())
    }

    /// The label as the JSON string token a record line holds.
    fn token(self) -> &'static str {
        match self {
            Protocol::Do53 => r#""do53""#,
            Protocol::DoT => r#""dot""#,
            Protocol::DoH => r#""doh""#,
            Protocol::DoQ => r#""doq""#,
            Protocol::ODoH => r#""odoh""#,
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "do53" => Protocol::Do53,
            "dot" => Protocol::DoT,
            "doh" => Protocol::DoH,
            "doq" => Protocol::DoQ,
            "odoh" => Protocol::ODoH,
            _ => return None,
        })
    }

    /// The interned form of [`label`](Self::label) — allocation-free after
    /// the first call, for metrics-cell lookups on the hot path.
    pub fn interned_label(self) -> Label {
        static LABELS: std::sync::OnceLock<[Label; 5]> = std::sync::OnceLock::new();
        let labels = LABELS.get_or_init(|| {
            [
                Label::from_static("do53"),
                Label::from_static("dot"),
                Label::from_static("doh"),
                Label::from_static("doq"),
                Label::from_static("odoh"),
            ]
        });
        labels[match self {
            Protocol::Do53 => 0,
            Protocol::DoT => 1,
            Protocol::DoH => 2,
            Protocol::DoQ => 3,
            Protocol::ODoH => 4,
        }]
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// How a probe's transport came to exist — the connection-reuse axis the
/// session subsystem records. Ordered coldest-first, which is also the
/// order report tables render the modes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConnectionMode {
    /// Fresh connection, full handshake (the paper's methodology).
    Cold,
    /// New connection resumed from a cached session ticket (TLS 1.3 PSK
    /// or QUIC 0-RTT).
    Resumed,
    /// An existing pooled connection was reused; no handshake at all.
    Reused,
}

impl ConnectionMode {
    /// Stable label for JSON output.
    pub fn label(self) -> &'static str {
        crate::json::unquote(self.token())
    }

    /// The label as the JSON string token a record line holds.
    fn token(self) -> &'static str {
        match self {
            ConnectionMode::Cold => r#""cold""#,
            ConnectionMode::Resumed => r#""resumed""#,
            ConnectionMode::Reused => r#""reused""#,
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "cold" => ConnectionMode::Cold,
            "resumed" => ConnectionMode::Resumed,
            "reused" => ConnectionMode::Reused,
            _ => return None,
        })
    }

    /// Every mode, coldest first.
    pub const ALL: [ConnectionMode; 3] = [
        ConnectionMode::Cold,
        ConnectionMode::Resumed,
        ConnectionMode::Reused,
    ];
}

impl std::fmt::Display for ConnectionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Timing breakdown of a successful probe over the six canonical phases
/// ([`obs::Phase`]). The phases are disjoint and sum exactly to the probe's
/// end-to-end response time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeTimings {
    /// Building and encoding the DNS query message.
    pub dns_encode: SimDuration,
    /// Transport connection establishment (TCP handshake; the combined
    /// QUIC handshake for DoQ; zero for UDP).
    pub connect: SimDuration,
    /// TLS session establishment (zero for Do53 and DoQ, where the
    /// handshake is folded into `connect`).
    pub tls_handshake: SimDuration,
    /// The query/response exchange on the wire, excluding the resolver's
    /// own processing time.
    pub http_exchange: SimDuration,
    /// Time spent inside the resolver (cache lookup or recursion).
    pub server_processing: SimDuration,
    /// Decoding and validating the DNS response message.
    pub dns_decode: SimDuration,
}

impl ProbeTimings {
    /// Splits an exchange leg — one wire-level elapsed time that *includes*
    /// the server's processing time — into (wire, server), so the phases
    /// stay disjoint and still sum to `elapsed`.
    pub(crate) fn split_exchange(
        elapsed: SimDuration,
        server_time: SimDuration,
    ) -> (SimDuration, SimDuration) {
        let wire = elapsed.saturating_sub(server_time);
        (wire, elapsed.saturating_sub(wire))
    }

    /// Assembles timings from the raw legs a probe measures, the exchange
    /// leg split into its wire and server phases.
    pub fn from_legs(
        dns_encode: SimDuration,
        connect: SimDuration,
        tls_handshake: SimDuration,
        exchange_elapsed: SimDuration,
        server_time: SimDuration,
        dns_decode: SimDuration,
    ) -> ProbeTimings {
        let (http_exchange, server_processing) =
            Self::split_exchange(exchange_elapsed, server_time);
        ProbeTimings {
            dns_encode,
            connect,
            tls_handshake,
            http_exchange,
            server_processing,
            dns_decode,
        }
    }

    /// End-to-end response time — what the paper reports: "the end-to-end
    /// time it takes for a client to initiate a query and receive a
    /// response" with a fresh `dig`-style connection. Exactly the sum of
    /// the six phases.
    pub fn total(&self) -> SimDuration {
        Phase::ALL
            .iter()
            .map(|p| self.phase(*p))
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// The duration of one canonical phase.
    pub fn phase(&self, phase: Phase) -> SimDuration {
        match phase {
            Phase::DnsEncode => self.dns_encode,
            Phase::Connect => self.connect,
            Phase::TlsHandshake => self.tls_handshake,
            Phase::HttpExchange => self.http_exchange,
            Phase::ServerProcessing => self.server_processing,
            Phase::DnsDecode => self.dns_decode,
        }
    }

    /// Mutable access to one canonical phase.
    pub fn phase_mut(&mut self, phase: Phase) -> &mut SimDuration {
        match phase {
            Phase::DnsEncode => &mut self.dns_encode,
            Phase::Connect => &mut self.connect,
            Phase::TlsHandshake => &mut self.tls_handshake,
            Phase::HttpExchange => &mut self.http_exchange,
            Phase::ServerProcessing => &mut self.server_processing,
            Phase::DnsDecode => &mut self.dns_decode,
        }
    }

    /// The wire-level exchange leg (network + server) — the legacy
    /// `query_ms` field, and what a warm connection would pay per query.
    pub fn exchange(&self) -> SimDuration {
        self.http_exchange + self.server_processing
    }
}

/// One probe's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeOutcome {
    /// The query succeeded.
    Success {
        /// Timing breakdown.
        timings: ProbeTimings,
        /// Whether the resolver answered from cache.
        cache_hit: bool,
        /// Index of the deployment site that served the probe.
        site: u32,
    },
    /// The probe failed.
    Failure {
        /// Error category.
        kind: ProbeErrorKind,
        /// Time burned before the failure surfaced.
        elapsed: SimDuration,
    },
}

impl ProbeOutcome {
    /// True on success.
    pub fn is_success(&self) -> bool {
        matches!(self, ProbeOutcome::Success { .. })
    }

    /// The response time, if successful.
    pub fn response_time(&self) -> Option<SimDuration> {
        match self {
            ProbeOutcome::Success { timings, .. } => Some(timings.total()),
            ProbeOutcome::Failure { .. } => None,
        }
    }
}

/// One complete record, as written to the results file.
///
/// A record is `Copy` and owns no heap: the three textual coordinates —
/// vantage, resolver, domain — are interned [`Label`]s (4 bytes each),
/// the retry accounting is inline ([`RetryInfo`]) and the ping a plain
/// duration with a reserved "no answer" value, so constructing, copying
/// and comparing records never touches the heap, in 104 bytes. String
/// views come from the [`vantage`](Self::vantage) /
/// [`resolver`](Self::resolver) / [`domain`](Self::domain) accessors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRecord {
    /// Simulated timestamp of the probe.
    pub at: SimTime,
    /// Vantage label, e.g. `"ec2-ohio"`.
    pub(crate) vantage: Label,
    /// Resolver hostname.
    pub(crate) resolver: Label,
    /// The resolver's geolocated region.
    pub resolver_region: Region,
    /// Whether the resolver is a browser default.
    pub mainstream: bool,
    /// Queried domain.
    pub(crate) domain: Label,
    /// Protocol used.
    pub protocol: Protocol,
    /// Outcome.
    pub outcome: ProbeOutcome,
    /// Paired ICMP RTT, or [`NO_PING`] when the resolver did not answer
    /// it ([`ping`](Self::ping) is the view).
    ping: SimDuration,
    /// Per-attempt retry accounting; `None` when the retry layer is
    /// disabled (keeps the JSON byte-identical to pre-retry output).
    pub retry: Option<RetryInfo>,
    /// How the probe's transport came to exist; `None` when the session
    /// subsystem is disabled (keeps the JSON byte-identical to
    /// pre-session output).
    pub conn_mode: Option<ConnectionMode>,
}

/// A record's ping when the resolver did not answer: no round trip takes
/// 584 years, and the readers refuse a line that spells it.
const NO_PING: SimDuration = SimDuration::from_nanos(u64::MAX);

/// The JSON key for one phase inside the `phases` object.
fn phase_key(p: Phase) -> &'static str {
    match p {
        Phase::DnsEncode => "dns_encode_ms",
        Phase::Connect => "connect_ms",
        Phase::TlsHandshake => "tls_handshake_ms",
        Phase::HttpExchange => "http_exchange_ms",
        Phase::ServerProcessing => "server_processing_ms",
        Phase::DnsDecode => "dns_decode_ms",
    }
}

fn region_label(r: Region) -> &'static str {
    crate::json::unquote(region_token(r))
}

/// A region's label as the JSON string token a record line holds.
fn region_token(r: Region) -> &'static str {
    match r {
        Region::NorthAmerica => r#""north_america""#,
        Region::Europe => r#""europe""#,
        Region::Asia => r#""asia""#,
        Region::Oceania => r#""oceania""#,
        Region::Unknown => r#""unknown""#,
    }
}

fn region_from_label(s: &str) -> Option<Region> {
    Some(match s {
        "north_america" => Region::NorthAmerica,
        "europe" => Region::Europe,
        "asia" => Region::Asia,
        "oceania" => Region::Oceania,
        "unknown" => Region::Unknown,
        _ => return None,
    })
}

/// Every key of a record line, rendered once as `,"key":` — what the
/// writer pushes and the strict reader eats in one piece (an object's
/// first key drops the comma). The keys are plain ASCII words, so each
/// literal is what [`json::write_str`](crate::json::write_str) would
/// write; a unit test holds the table to that.
macro_rules! keys {
    ($($name:ident = $key:literal;)*) => {
        $(const $name: &str = concat!(",\"", $key, "\":");)*
        #[cfg(test)]
        const KEYS: &[(&str, &str)] = &[$(($key, $name)),*];
    };
}

keys! {
    ATTEMPT_ERRORS = "attempt_errors";
    ATTEMPTS = "attempts";
    CACHE_HIT = "cache_hit";
    CONN_MODE = "conn_mode";
    CONNECT_MS = "connect_ms";
    DNS_DECODE_MS = "dns_decode_ms";
    DNS_ENCODE_MS = "dns_encode_ms";
    DOMAIN = "domain";
    ELAPSED_MS = "elapsed_ms";
    ERROR = "error";
    HTTP_EXCHANGE_MS = "http_exchange_ms";
    MAINSTREAM = "mainstream";
    PHASES = "phases";
    PING_MS = "ping_ms";
    PROTOCOL = "protocol";
    QUERY_MS = "query_ms";
    RESOLVER = "resolver";
    RESOLVER_REGION = "resolver_region";
    RESPONSE_MS = "response_ms";
    SECURE_MS = "secure_ms";
    SERVER_PROCESSING_MS = "server_processing_ms";
    SITE = "site";
    SUCCESS = "success";
    TLS_HANDSHAKE_MS = "tls_handshake_ms";
    TS_MS = "ts_ms";
    TTFB_MS = "ttfb_ms";
    TTLB_MS = "ttlb_ms";
    VANTAGE = "vantage";
}

/// The `phases` object in its sorted key order.
const PHASE_KEYS: [(Phase, &str); 6] = [
    (Phase::Connect, CONNECT_MS),
    (Phase::DnsDecode, DNS_DECODE_MS),
    (Phase::DnsEncode, DNS_ENCODE_MS),
    (Phase::HttpExchange, HTTP_EXCHANGE_MS),
    (Phase::ServerProcessing, SERVER_PROCESSING_MS),
    (Phase::TlsHandshake, TLS_HANDSHAKE_MS),
];

/// A run of one to `max` ASCII digits at the head of `b`: its value and
/// its length.
fn digit_run(b: &[u8], max: usize) -> Option<(u64, usize)> {
    let mut value = 0;
    let mut len = 0;
    while let Some(d) = b.get(len).map(|c| c.wrapping_sub(b'0')).filter(|d| *d < 10) {
        if len == max {
            return None;
        }
        value = value * 10 + u64::from(d);
        len += 1;
    }
    (len > 0).then_some((value, len))
}

/// The record reader's own tokens on the shared cursor: simulated times.
impl LineReader<'_> {
    /// The mirror of [`json::write_millis`](crate::json::write_millis):
    /// a token of the shape it emits (`digits '.' 1–6 digits`: no sign, no
    /// exponent, no redundant leading zero) whose value lies in one of its
    /// two exact domains, as nanoseconds by integer arithmetic. Anything
    /// else is `None` with nothing consumed, and takes the float route
    /// ([`number`](Self::number), then `× 1e6` and `round`), which on
    /// those domains lands on the same integer: in (a) a correctly rounded
    /// parse and one product put it within n·2⁻⁵² < 0.25 ns of n, in (b)
    /// parse and product are both exact.
    fn exact_millis(&mut self) -> Option<u64> {
        let b = &self.s.as_bytes()[self.pos..];
        let (ms, point) = digit_run(b, 12)?;
        if (point > 1 && b[0] == b'0') || b.get(point) != Some(&b'.') {
            return None;
        }
        let (frac, places) = digit_run(&b[point + 1..], 6)?;
        let end = point + 1 + places;
        if matches!(b.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            return None;
        }
        let frac = frac * 10u64.pow(6 - places as u32);
        if !crate::json::millis_are_exact(ms, frac) {
            return None;
        }
        self.pos += end;
        Some(ms * 1_000_000 + frac)
    }

    /// A `*_ms` duration, as `from_json` reads it.
    fn duration(&mut self) -> Option<SimDuration> {
        match self.exact_millis() {
            Some(nanos) => Some(SimDuration::from_nanos(nanos)),
            None => self.number().map(SimDuration::from_millis_f64),
        }
    }

    /// `ts_ms`, as `from_json` reads it.
    fn time(&mut self) -> Option<SimTime> {
        let nanos = match self.exact_millis() {
            Some(nanos) => nanos,
            None => (self.number()? * 1e6).round() as u64,
        };
        Some(SimTime::from_nanos(nanos))
    }
}

/// One line of a results file, read by
/// [`read_json_line`](ProbeRecord::read_json_line) alone: a line the
/// engine would not have written — whose derived legs disagree with its
/// phases, say — is an error.
impl std::str::FromStr for ProbeRecord {
    type Err = String;

    fn from_str(line: &str) -> Result<ProbeRecord, String> {
        ProbeRecord::read_json_line(line)
            .ok_or_else(|| "not a probe record as the engine writes it".to_string())
    }
}

impl ProbeRecord {
    /// Builds a record from interned coordinate labels. Allocation-free.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        at: SimTime,
        vantage: Label,
        resolver: Label,
        resolver_region: Region,
        mainstream: bool,
        domain: Label,
        protocol: Protocol,
        outcome: ProbeOutcome,
        ping: Option<SimDuration>,
    ) -> ProbeRecord {
        ProbeRecord {
            at,
            vantage,
            resolver,
            resolver_region,
            mainstream,
            domain,
            protocol,
            outcome,
            ping: ping.unwrap_or(NO_PING),
            retry: None,
            conn_mode: None,
        }
    }

    /// Attaches per-attempt retry accounting (builder-style).
    pub fn with_retry(mut self, retry: Option<RetryInfo>) -> ProbeRecord {
        self.retry = retry;
        self
    }

    /// Attaches the connection mode (builder-style). `None` keeps the
    /// record byte-identical to pre-session output.
    pub fn with_conn_mode(mut self, conn_mode: Option<ConnectionMode>) -> ProbeRecord {
        self.conn_mode = conn_mode;
        self
    }

    /// Paired ICMP RTT, when the resolver answered the ping.
    pub fn ping(&self) -> Option<SimDuration> {
        (self.ping != NO_PING).then_some(self.ping)
    }

    /// Vantage label, e.g. `"ec2-ohio"`.
    pub fn vantage(&self) -> &'static str {
        self.vantage.as_str()
    }

    /// Resolver hostname.
    pub fn resolver(&self) -> &'static str {
        self.resolver.as_str()
    }

    /// Queried domain.
    pub fn domain(&self) -> &'static str {
        self.domain.as_str()
    }

    /// The interned vantage label.
    pub fn vantage_id(&self) -> Label {
        self.vantage
    }

    /// The interned resolver hostname.
    pub fn resolver_id(&self) -> Label {
        self.resolver
    }

    /// Appends this record's JSON-Lines rendering (no trailing newline) to
    /// a caller-owned buffer. Byte-identical to
    /// `self.to_json().to_string_compact()` — the keys below are exactly
    /// the document model's sorted key order — but with zero intermediate
    /// tree and no float: every `*_ms` value is an integer of nanoseconds
    /// and goes through [`json::write_millis`](crate::json::write_millis),
    /// every key is one literal. Once `out` has warmed up, serialising a
    /// record performs no heap allocation (asserted by
    /// `tests/serialize_alloc.rs`).
    #[deny_alloc]
    pub fn write_json_line(&self, out: &mut String) {
        // `lit` is one of the `,"key":` literals.
        fn key(out: &mut String, first: bool, lit: &str) {
            out.push_str(&lit[usize::from(first)..]);
        }
        fn millis_field(out: &mut String, lit: &str, v: SimDuration) {
            key(out, false, lit);
            crate::json::write_millis(out, v.as_nanos());
        }
        // `token` is a JSON string token, quotes included.
        fn token_field(out: &mut String, first: bool, lit: &str, token: &str) {
            key(out, first, lit);
            out.push_str(token);
        }
        fn bool_field(out: &mut String, first: bool, lit: &str, v: bool) {
            key(out, first, lit);
            out.push_str(if v { "true" } else { "false" });
        }
        fn count_field(out: &mut String, lit: &str, v: u64) {
            key(out, false, lit);
            crate::json::write_u64(out, v);
        }
        // Leading retry keys ("attempt_errors", "attempts") sort before
        // every other top-level key in both record shapes.
        fn retry_prefix(out: &mut String, info: &RetryInfo, outcome: &ProbeOutcome) {
            key(out, true, ATTEMPT_ERRORS);
            out.push('[');
            for (i, e) in info.attempt_errors(outcome).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(e.token());
            }
            out.push(']');
            count_field(out, ATTEMPTS, info.attempts.into());
        }
        fn ping_field(out: &mut String, ping: Option<SimDuration>) {
            match ping {
                Some(p) => millis_field(out, PING_MS, p),
                None => {
                    key(out, false, PING_MS);
                    out.push_str("null");
                }
            }
        }

        out.push('{');
        let lead = self.retry.is_none();
        if let Some(info) = &self.retry {
            retry_prefix(out, info, &self.outcome);
        }
        match &self.outcome {
            ProbeOutcome::Success {
                timings,
                cache_hit,
                site,
            } => {
                bool_field(out, lead, CACHE_HIT, *cache_hit);
                // "conn_mode" sorts between "cache_hit" and "connect_ms"
                // ('_' 0x5F < 'e' 0x65 after the shared "conn" prefix).
                if let Some(mode) = self.conn_mode {
                    token_field(out, false, CONN_MODE, mode.token());
                }
                millis_field(out, CONNECT_MS, timings.connect);
                token_field(out, false, DOMAIN, self.domain.token());
                bool_field(out, false, MAINSTREAM, self.mainstream);
                key(out, false, PHASES);
                out.push('{');
                for (i, (phase, lit)) in PHASE_KEYS.into_iter().enumerate() {
                    key(out, i == 0, lit);
                    crate::json::write_millis(out, timings.phase(phase).as_nanos());
                }
                out.push('}');
                ping_field(out, self.ping());
                token_field(out, false, PROTOCOL, self.protocol.token());
                millis_field(out, QUERY_MS, timings.exchange());
                token_field(out, false, RESOLVER, self.resolver.token());
                token_field(
                    out,
                    false,
                    RESOLVER_REGION,
                    region_token(self.resolver_region),
                );
                millis_field(out, RESPONSE_MS, timings.total());
                millis_field(out, SECURE_MS, timings.tls_handshake);
                count_field(out, SITE, (*site).into());
                bool_field(out, false, SUCCESS, true);
            }
            ProbeOutcome::Failure { kind, elapsed } => {
                // In the failure shape "conn_mode" sorts first (before
                // "domain"), so when present it takes over the lead key.
                match self.conn_mode {
                    Some(mode) => {
                        token_field(out, lead, CONN_MODE, mode.token());
                        token_field(out, false, DOMAIN, self.domain.token());
                    }
                    None => token_field(out, lead, DOMAIN, self.domain.token()),
                }
                millis_field(out, ELAPSED_MS, *elapsed);
                token_field(out, false, ERROR, kind.token());
                bool_field(out, false, MAINSTREAM, self.mainstream);
                ping_field(out, self.ping());
                token_field(out, false, PROTOCOL, self.protocol.token());
                token_field(out, false, RESOLVER, self.resolver.token());
                token_field(
                    out,
                    false,
                    RESOLVER_REGION,
                    region_token(self.resolver_region),
                );
                bool_field(out, false, SUCCESS, false);
            }
        }
        key(out, false, TS_MS);
        crate::json::write_millis(out, self.at.as_nanos());
        // Trailing retry keys sort between "ts_ms" and "vantage".
        if let Some(info) = &self.retry {
            millis_field(out, TTFB_MS, info.ttfb(&self.outcome));
            millis_field(out, TTLB_MS, info.ttlb(&self.outcome));
        }
        token_field(out, false, VANTAGE, self.vantage.token());
        out.push('}');
    }

    /// The closing bytes, newline included, of every line
    /// [`write_json_line`](Self::write_json_line) renders for a record from
    /// `vantage`: `,"vantage":"…"}` and `\n`.
    pub(crate) fn line_tail(vantage: &str) -> Vec<u8> {
        let mut tail = String::from(VANTAGE);
        crate::json::write_str(&mut tail, vantage);
        tail.push_str("}\n");
        tail.into_bytes()
    }

    /// Renders into `token`, cleared first, the `ts_ms` key and value of
    /// every line [`write_json_line`](Self::write_json_line) renders for a
    /// record at `at` (nanoseconds): what
    /// [`line_closes_at`](Self::line_closes_at) looks for.
    #[deny_alloc]
    pub(crate) fn ts_token(at: u64, token: &mut String) {
        token.clear();
        token.push_str(TS_MS);
        crate::json::write_millis(token, at);
    }

    /// Whether `line`, newline included, closes like the
    /// [`write_json_line`](Self::write_json_line) line of a record whose
    /// `ts_ms` token is `ts` ([`ts_token`](Self::ts_token)) and whose line
    /// ends in `tail` ([`line_tail`](Self::line_tail)), read without
    /// parsing: it ends in `tail`, and just before that comes `ts`, or `ts`
    /// and then the `ttfb_ms` and `ttlb_ms` of retry accounting.
    #[deny_alloc]
    pub(crate) fn line_closes_at(line: &[u8], tail: &[u8], ts: &[u8]) -> bool {
        let Some(body) = line.strip_suffix(tail) else {
            return false;
        };
        if body.ends_with(ts) {
            return true;
        }
        // A key literal never occurs inside a string value (its quotes
        // would be escaped), so the last match is the `ts_ms` key.
        match body.windows(ts.len()).rposition(|w| w == ts) {
            Some(i) => body[i + ts.len()..].starts_with(TTFB_MS.as_bytes()),
            None => false,
        }
    }

    /// Reads back one line written by
    /// [`write_json_line`](Self::write_json_line): its exact inverse, over
    /// the same fixed key order, both record shapes and the optional retry
    /// and `conn_mode` keys, with no intermediate tree, no allocation (a
    /// label with an escape in it aside) and, for every `*_ms` token the
    /// writer's integer path emits, no float (`LineReader::exact_millis`).
    /// Any other number goes through the same `str::parse` as
    /// [`json::parse`](crate::json::parse) → [`from_json`](Self::from_json)
    /// and labels through the same [`Label::intern`], so wherever this
    /// returns a record that path returns the same one, bit for bit.
    ///
    /// Strict: anything `write_json_line` would not have written —
    /// reordered or extra keys, whitespace, an escape it never emits, a
    /// derived field (`connect_ms`, `secure_ms`, `query_ms`,
    /// `response_ms`) that is not what `phases` makes it, a negative site,
    /// retry accounting no probe makes (no attempt, an error list that is
    /// not the burned attempts' plus, on a failure, its `error`, a
    /// `ttfb_ms` or `ttlb_ms` other than [`RetryInfo`] derives), a ping
    /// of [`NO_PING`] — is `None`.
    pub fn read_json_line(line: &str) -> Option<ProbeRecord> {
        // A derived field: read, and held to the sum of the phases it
        // repeats (a sum that overflows equals nothing).
        fn derived(r: &mut LineReader, lit: &str, t: &ProbeTimings, of: &[Phase]) -> Option<()> {
            r.key(false, lit)?;
            let nanos = |p: &Phase| t.phase(*p).as_nanos();
            let want = of
                .iter()
                .try_fold(0u64, |sum, p| sum.checked_add(nanos(p)))?;
            (r.duration()?.as_nanos() == want).then_some(())
        }

        let mut r = LineReader::new(line);
        r.eat("{")?;
        let retried = r.try_key(true, ATTEMPT_ERRORS);
        let mut attempt_errors = [ProbeErrorKind::ConnectTimeout; MAX_TRIES as usize];
        let mut errors = 0;
        let mut attempts = 0;
        if retried {
            r.eat("[")?;
            if !r.try_eat("]") {
                loop {
                    *attempt_errors.get_mut(errors)? = ProbeErrorKind::from_label(&r.string()?)?;
                    errors += 1;
                    if !r.try_eat(",") {
                        r.eat("]")?;
                        break;
                    }
                }
            }
            r.key(false, ATTEMPTS)?;
            attempts = r.int()?;
        }
        let lead = !retried;
        // Only the success shape has "cache_hit", and has it first.
        let success = r.try_key(lead, CACHE_HIT);
        let cache_hit = success && r.boolean()?;
        // "conn_mode" follows "cache_hit" in the success shape and leads
        // the failure shape.
        let conn_first = lead && !success;
        let conn_mode = if r.try_key(conn_first, CONN_MODE) {
            Some(ConnectionMode::from_label(&r.string()?)?)
        } else {
            None
        };
        // The top-level "connect_ms" comes before the phases it repeats.
        let mut connect = SimDuration::ZERO;
        if success {
            r.key(false, CONNECT_MS)?;
            connect = r.duration()?;
        }
        r.key(conn_first && conn_mode.is_none(), DOMAIN)?;
        let domain = Label::intern(&r.string()?);
        let mut failure = None;
        if !success {
            r.key(false, ELAPSED_MS)?;
            let elapsed = r.duration()?;
            r.key(false, ERROR)?;
            failure = Some((ProbeErrorKind::from_label(&r.string()?)?, elapsed));
        }
        r.key(false, MAINSTREAM)?;
        let mainstream = r.boolean()?;
        let mut timings = ProbeTimings::default();
        if success {
            r.key(false, PHASES)?;
            r.eat("{")?;
            for (i, (phase, lit)) in PHASE_KEYS.into_iter().enumerate() {
                r.key(i == 0, lit)?;
                *timings.phase_mut(phase) = r.duration()?;
            }
            r.eat("}")?;
            if connect != timings.connect {
                return None;
            }
        }
        r.key(false, PING_MS)?;
        let ping = if r.try_eat("null") {
            NO_PING
        } else {
            Some(r.duration()?).filter(|d| *d != NO_PING)?
        };
        r.key(false, PROTOCOL)?;
        let protocol = Protocol::from_label(&r.string()?)?;
        if success {
            let exchange = [Phase::HttpExchange, Phase::ServerProcessing];
            derived(&mut r, QUERY_MS, &timings, &exchange)?;
        }
        r.key(false, RESOLVER)?;
        let resolver = Label::intern(&r.string()?);
        r.key(false, RESOLVER_REGION)?;
        let resolver_region = region_from_label(&r.string()?)?;
        let outcome = match failure {
            None => {
                derived(&mut r, RESPONSE_MS, &timings, &Phase::ALL)?;
                derived(&mut r, SECURE_MS, &timings, &[Phase::TlsHandshake])?;
                r.key(false, SITE)?;
                let site = u32::try_from(r.int()?).ok()?;
                r.key(false, SUCCESS)?;
                r.eat("true")?;
                ProbeOutcome::Success {
                    timings,
                    cache_hit,
                    site,
                }
            }
            Some((kind, elapsed)) => {
                r.key(false, SUCCESS)?;
                r.eat("false")?;
                ProbeOutcome::Failure { kind, elapsed }
            }
        };
        r.key(false, TS_MS)?;
        let at = r.time()?;
        let retry = if retried {
            r.key(false, TTFB_MS)?;
            let ttfb = r.duration()?;
            r.key(false, TTLB_MS)?;
            let ttlb = r.duration()?;
            // The errors are the burned attempts', then a failure's own;
            // the burned time is what a success's ttlb spends before its
            // response time (a phase sum that fits: `response_ms` held).
            let errors = &attempt_errors[..errors];
            let (burned_errors, burned) = match outcome {
                ProbeOutcome::Success { timings, .. } => (
                    errors,
                    ttlb.as_nanos().checked_sub(timings.total().as_nanos())?,
                ),
                ProbeOutcome::Failure { kind, .. } => match errors.split_last()? {
                    (last, burned) if *last == kind => (burned, 0),
                    _ => return None,
                },
            };
            let info = RetryInfo::new(burned_errors, SimDuration::from_nanos(burned))?;
            let derived = (
                i64::from(info.attempts),
                info.ttfb(&outcome),
                info.ttlb(&outcome),
            );
            if derived != (attempts, ttfb, ttlb) {
                return None;
            }
            Some(info)
        } else {
            None
        };
        r.key(false, VANTAGE)?;
        let vantage = Label::intern(&r.string()?);
        r.eat("}")?;
        (r.pos == line.len()).then_some(ProbeRecord {
            at,
            vantage,
            resolver,
            resolver_region,
            mainstream,
            domain,
            protocol,
            outcome,
            ping,
            retry,
            conn_mode,
        })
    }

    /// Serialises to the tool's JSON record shape.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("ts_ms", Json::Float(self.at.as_millis_f64())),
            ("vantage", Json::Str(self.vantage().to_string())),
            ("resolver", Json::Str(self.resolver().to_string())),
            (
                "resolver_region",
                Json::Str(region_label(self.resolver_region).to_string()),
            ),
            ("mainstream", Json::Bool(self.mainstream)),
            ("domain", Json::Str(self.domain().to_string())),
            ("protocol", Json::Str(self.protocol.label().to_string())),
        ];
        match &self.outcome {
            ProbeOutcome::Success {
                timings,
                cache_hit,
                site,
            } => {
                pairs.push(("success", Json::Bool(true)));
                // Legacy three-leg fields, kept so existing consumers and
                // old result files stay compatible.
                pairs.push(("connect_ms", Json::Float(timings.connect.as_millis_f64())));
                pairs.push((
                    "secure_ms",
                    Json::Float(timings.tls_handshake.as_millis_f64()),
                ));
                pairs.push(("query_ms", Json::Float(timings.exchange().as_millis_f64())));
                pairs.push(("response_ms", Json::Float(timings.total().as_millis_f64())));
                // The full six-phase breakdown; the values sum to
                // `response_ms`.
                pairs.push((
                    "phases",
                    Json::object(
                        Phase::ALL
                            .map(|p| (phase_key(p), Json::Float(timings.phase(p).as_millis_f64()))),
                    ),
                ));
                pairs.push(("cache_hit", Json::Bool(*cache_hit)));
                pairs.push(("site", Json::Int(i64::from(*site))));
            }
            ProbeOutcome::Failure { kind, elapsed } => {
                pairs.push(("success", Json::Bool(false)));
                pairs.push(("error", Json::Str(kind.label().to_string())));
                pairs.push(("elapsed_ms", Json::Float(elapsed.as_millis_f64())));
            }
        }
        if let Some(p) = self.ping() {
            pairs.push(("ping_ms", Json::Float(p.as_millis_f64())));
        } else {
            pairs.push(("ping_ms", Json::Null));
        }
        if let Some(mode) = self.conn_mode {
            pairs.push(("conn_mode", Json::Str(mode.label().to_string())));
        }
        if let Some(info) = &self.retry {
            let outcome = &self.outcome;
            pairs.push(("attempts", Json::Int(i64::from(info.attempts))));
            pairs.push((
                "attempt_errors",
                Json::Array(
                    info.attempt_errors(outcome)
                        .map(|e| Json::Str(e.label().to_string()))
                        .collect(),
                ),
            ));
            pairs.push(("ttfb_ms", Json::Float(info.ttfb(outcome).as_millis_f64())));
            pairs.push(("ttlb_ms", Json::Float(info.ttlb(outcome).as_millis_f64())));
        }
        Json::object(pairs)
    }

    /// Parses a record back from its JSON shape. No engine path reads
    /// through it; it stays as the oracle of
    /// [`read_json_line`](Self::read_json_line)
    /// (`tests/line_reader_differential.rs`) and for the benchmark's replay
    /// rows (`benchmark/`).
    pub fn from_json(v: &Json) -> Option<ProbeRecord> {
        let at = SimTime::from_nanos((v.get("ts_ms")?.as_f64()? * 1e6).round() as u64);
        let success = v.get("success")?.as_bool()?;
        let outcome = if success {
            let timings = match v.get("phases") {
                // New records carry the full six-phase breakdown.
                Some(phases) => {
                    let mut t = ProbeTimings::default();
                    for p in Phase::ALL {
                        let ms = phases.get(phase_key(p))?.as_f64()?;
                        *t.phase_mut(p) = SimDuration::from_millis_f64(ms);
                    }
                    t
                }
                // Legacy records only have the three coarse legs; the
                // exchange leg maps to `http_exchange` whole, with the
                // unknowable phases left at zero.
                None => ProbeTimings {
                    connect: SimDuration::from_millis_f64(v.get("connect_ms")?.as_f64()?),
                    tls_handshake: SimDuration::from_millis_f64(v.get("secure_ms")?.as_f64()?),
                    http_exchange: SimDuration::from_millis_f64(v.get("query_ms")?.as_f64()?),
                    ..ProbeTimings::default()
                },
            };
            ProbeOutcome::Success {
                timings,
                cache_hit: v.get("cache_hit")?.as_bool()?,
                site: u32::try_from(v.get("site")?.as_i64()?).ok()?,
            }
        } else {
            ProbeOutcome::Failure {
                kind: ProbeErrorKind::from_label(v.get("error")?.as_str()?)?,
                elapsed: SimDuration::from_millis_f64(v.get("elapsed_ms")?.as_f64()?),
            }
        };
        let ping = match v.get("ping_ms") {
            Some(Json::Null) | None => NO_PING,
            Some(p) => Some(SimDuration::from_millis_f64(p.as_f64()?)).filter(|d| *d != NO_PING)?,
        };
        // Retry accounting is optional: pre-retry records simply lack the
        // "attempts" key. Of the rest, `ttfb_ms` is derived, like
        // `connect_ms`; a success's `ttlb_ms` holds the time its burned
        // attempts took, which a failure's `elapsed_ms` spans.
        let retry = match v.get("attempts") {
            Some(attempts) => {
                let mut errors = Vec::new();
                for e in v.get("attempt_errors")?.as_array()? {
                    errors.push(ProbeErrorKind::from_label(e.as_str()?)?);
                }
                let (burned_errors, burned) = match &outcome {
                    ProbeOutcome::Success { timings, .. } => {
                        let ttlb = SimDuration::from_millis_f64(v.get("ttlb_ms")?.as_f64()?);
                        let total = Phase::ALL.iter().fold(0u64, |sum, p| {
                            sum.saturating_add(timings.phase(*p).as_nanos())
                        });
                        (
                            &errors[..],
                            ttlb.saturating_sub(SimDuration::from_nanos(total)),
                        )
                    }
                    ProbeOutcome::Failure { .. } => (errors.split_last()?.1, SimDuration::ZERO),
                };
                let info = RetryInfo::new(burned_errors, burned)?;
                if attempts.as_i64()? != i64::from(info.attempts) {
                    return None;
                }
                Some(info)
            }
            None => None,
        };
        // Pre-session records simply lack the "conn_mode" key.
        let conn_mode = match v.get("conn_mode") {
            Some(m) => Some(ConnectionMode::from_label(m.as_str()?)?),
            None => None,
        };
        Some(ProbeRecord {
            at,
            vantage: Label::intern(v.get("vantage")?.as_str()?),
            resolver: Label::intern(v.get("resolver")?.as_str()?),
            resolver_region: region_from_label(v.get("resolver_region")?.as_str()?)?,
            mainstream: v.get("mainstream")?.as_bool()?,
            domain: Label::intern(v.get("domain")?.as_str()?),
            protocol: Protocol::from_label(v.get("protocol")?.as_str()?)?,
            outcome,
            ping,
            retry,
            conn_mode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn success_record() -> ProbeRecord {
        ProbeRecord {
            at: SimTime::from_nanos(1_500_000_000),
            vantage: Label::from_static("ec2-ohio"),
            resolver: Label::from_static("dns.google"),
            resolver_region: Region::NorthAmerica,
            mainstream: true,
            domain: Label::from_static("google.com"),
            protocol: Protocol::DoH,
            outcome: ProbeOutcome::Success {
                timings: ProbeTimings {
                    dns_encode: SimDuration::from_millis_f64(0.004),
                    connect: SimDuration::from_millis_f64(7.2),
                    tls_handshake: SimDuration::from_millis_f64(8.1),
                    http_exchange: SimDuration::from_millis_f64(7.4),
                    server_processing: SimDuration::from_millis_f64(0.5),
                    dns_decode: SimDuration::from_millis_f64(0.006),
                },
                cache_hit: true,
                site: 0,
            },
            ping: SimDuration::from_millis_f64(7.0),
            retry: None,
            conn_mode: None,
        }
    }

    fn failure_record() -> ProbeRecord {
        ProbeRecord {
            at: SimTime::from_nanos(2_000_000_000),
            vantage: Label::from_static("home-1"),
            resolver: Label::from_static("chewbacca.meganerd.nl"),
            resolver_region: Region::Europe,
            mainstream: false,
            domain: Label::from_static("amazon.com"),
            protocol: Protocol::DoH,
            outcome: ProbeOutcome::Failure {
                kind: ProbeErrorKind::ConnectTimeout,
                elapsed: SimDuration::from_secs(15),
            },
            ping: NO_PING,
            retry: None,
            conn_mode: None,
        }
    }

    #[test]
    fn success_round_trips_through_json() {
        let r = success_record();
        let j = r.to_json();
        assert_eq!(ProbeRecord::from_json(&j), Some(r));
        // And through text.
        let text = j.to_string_compact();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(ProbeRecord::from_json(&back), Some(r));
    }

    #[test]
    fn failure_round_trips_through_json() {
        let r = failure_record();
        let text = r.to_json().to_string_compact();
        let back = ProbeRecord::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(!back.outcome.is_success());
        assert_eq!(back.outcome.response_time(), None);
    }

    #[test]
    fn response_time_is_sum_of_phases() {
        let r = success_record();
        match &r.outcome {
            ProbeOutcome::Success { timings, .. } => {
                assert!(
                    (timings.total().as_millis_f64() - 23.21).abs() < 1e-6,
                    "{}",
                    timings.total()
                );
                let phase_sum: f64 = Phase::ALL
                    .iter()
                    .map(|p| timings.phase(*p).as_millis_f64())
                    .sum();
                assert!((phase_sum - timings.total().as_millis_f64()).abs() < 1e-9);
            }
            _ => unreachable!(),
        }
        assert!(r.outcome.is_success());
    }

    #[test]
    fn phase_breakdown_round_trips_through_json() {
        let r = success_record();
        let text = r.to_json().to_string_compact();
        for key in [
            "\"phases\"",
            "\"dns_encode_ms\"",
            "\"tls_handshake_ms\"",
            "\"http_exchange_ms\"",
            "\"server_processing_ms\"",
            "\"dns_decode_ms\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        let back = ProbeRecord::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn legacy_records_without_phases_still_parse() {
        // A pre-phase-breakdown record: only the three coarse legs.
        let j = Json::object([
            ("ts_ms", Json::Float(1500.0)),
            ("vantage", Json::Str("ec2-ohio".into())),
            ("resolver", Json::Str("dns.google".into())),
            ("resolver_region", Json::Str("north_america".into())),
            ("mainstream", Json::Bool(true)),
            ("domain", Json::Str("google.com".into())),
            ("protocol", Json::Str("doh".into())),
            ("success", Json::Bool(true)),
            ("connect_ms", Json::Float(7.2)),
            ("secure_ms", Json::Float(8.1)),
            ("query_ms", Json::Float(7.9)),
            ("response_ms", Json::Float(23.2)),
            ("cache_hit", Json::Bool(true)),
            ("site", Json::Int(0)),
            ("ping_ms", Json::Null),
        ]);
        let r = ProbeRecord::from_json(&j).unwrap();
        match &r.outcome {
            ProbeOutcome::Success { timings, .. } => {
                assert_eq!(timings.connect, SimDuration::from_millis_f64(7.2));
                assert_eq!(timings.tls_handshake, SimDuration::from_millis_f64(8.1));
                assert_eq!(timings.exchange(), SimDuration::from_millis_f64(7.9));
                assert_eq!(timings.dns_encode, SimDuration::ZERO);
                assert!((timings.total().as_millis_f64() - 23.2).abs() < 1e-6);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn from_legs_splits_server_time_out_of_the_exchange() {
        let t = ProbeTimings::from_legs(
            SimDuration::from_nanos(4_000),
            SimDuration::from_millis(7),
            SimDuration::from_millis(8),
            SimDuration::from_millis(10),
            SimDuration::from_millis(3),
            SimDuration::from_nanos(6_000),
        );
        assert_eq!(t.http_exchange, SimDuration::from_millis(7));
        assert_eq!(t.server_processing, SimDuration::from_millis(3));
        assert_eq!(t.exchange(), SimDuration::from_millis(10));
        // A server time larger than the measured exchange (cannot happen in
        // practice) clamps rather than panicking, keeping total == sum.
        let t = ProbeTimings::from_legs(
            SimDuration::ZERO,
            SimDuration::ZERO,
            SimDuration::ZERO,
            SimDuration::from_millis(2),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        assert_eq!(t.http_exchange, SimDuration::ZERO);
        assert_eq!(t.server_processing, SimDuration::from_millis(2));
    }

    #[test]
    fn streaming_writer_matches_tree_writer() {
        for r in [success_record(), failure_record()] {
            let mut streamed = String::new();
            r.write_json_line(&mut streamed);
            assert_eq!(streamed, r.to_json().to_string_compact());
        }
        // A success record without a ping exercises the null branch.
        let mut r = success_record();
        r.ping = NO_PING;
        let mut streamed = String::new();
        r.write_json_line(&mut streamed);
        assert_eq!(streamed, r.to_json().to_string_compact());
    }

    #[test]
    fn accessors_resolve_interned_labels() {
        let r = success_record();
        assert_eq!(r.vantage(), "ec2-ohio");
        assert_eq!(r.resolver(), "dns.google");
        assert_eq!(r.domain(), "google.com");
        assert_eq!(r.vantage_id().as_str(), "ec2-ohio");
        assert_eq!(r.resolver_id(), obs::Label::intern("dns.google"));
    }

    #[test]
    fn json_contains_expected_fields() {
        let text = success_record().to_json().to_string_compact();
        for field in [
            "\"vantage\"",
            "\"resolver\"",
            "\"response_ms\"",
            "\"ping_ms\"",
            "\"cache_hit\"",
            "\"mainstream\":true",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }

    #[test]
    fn null_ping_round_trips() {
        let r = failure_record();
        let j = r.to_json();
        assert_eq!(j.get("ping_ms"), Some(&Json::Null));
        assert_eq!(ProbeRecord::from_json(&j).unwrap().ping(), None);
    }

    #[test]
    fn protocol_labels_round_trip() {
        for p in [
            Protocol::Do53,
            Protocol::DoT,
            Protocol::DoH,
            Protocol::DoQ,
            Protocol::ODoH,
        ] {
            assert_eq!(Protocol::from_label(p.label()), Some(p));
        }
        assert_eq!(Protocol::from_label("dns-over-carrier-pigeon"), None);
    }

    #[test]
    fn malformed_json_yields_none() {
        let j = Json::object([("success", Json::Bool(true))]);
        assert_eq!(ProbeRecord::from_json(&j), None);
    }

    fn retried_success() -> ProbeRecord {
        let burned = [ProbeErrorKind::ConnectTimeout, ProbeErrorKind::RateLimited];
        success_record().with_retry(RetryInfo::new(&burned, SimDuration::from_secs(10)))
    }

    fn exhausted_failure() -> ProbeRecord {
        let burned = [ProbeErrorKind::ConnectTimeout; 2];
        failure_record().with_retry(RetryInfo::new(&burned, SimDuration::ZERO))
    }

    #[test]
    fn a_line_closes_at_its_own_slot_only() {
        let mut scratch = String::new();
        for r in [
            success_record(),
            failure_record(),
            retried_success(),
            exhausted_failure(),
        ] {
            let mut line = String::new();
            r.write_json_line(&mut line);
            line.push('\n');
            let line = line.as_bytes();
            let at = r.at.as_nanos();
            let tail = ProbeRecord::line_tail(r.vantage());
            let closes = |line: &[u8], tail: &[u8], at: u64, scratch: &mut String| {
                ProbeRecord::ts_token(at, scratch);
                ProbeRecord::line_closes_at(line, tail, scratch.as_bytes())
            };
            assert!(closes(line, &tail, at, &mut scratch), "{r:?}");
            // Another time — a digit more, a digit less, a millisecond
            // off — another vantage, a missing newline, a respaced line.
            for other in [at * 10, at / 10, at + 1_000_000] {
                assert!(!closes(line, &tail, other, &mut scratch), "{other}");
            }
            let elsewhere = ProbeRecord::line_tail("home-9");
            assert!(!closes(line, &elsewhere, at, &mut scratch));
            assert!(!closes(&line[..line.len() - 1], &tail, at, &mut scratch));
            let respaced = String::from_utf8(line.to_vec())
                .unwrap()
                .replace(",\"", ", \"");
            assert!(!closes(respaced.as_bytes(), &tail, at, &mut scratch));
        }
    }

    #[test]
    fn retry_accounting_round_trips_through_json() {
        for r in [retried_success(), exhausted_failure()] {
            let text = r.to_json().to_string_compact();
            assert!(text.contains("\"attempts\":3"), "{text}");
            assert!(text.contains("\"attempt_errors\":["), "{text}");
            assert!(text.contains("\"ttlb_ms\""), "{text}");
            let back = ProbeRecord::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn streaming_writer_matches_tree_writer_with_retries() {
        for r in [retried_success(), exhausted_failure()] {
            let mut streamed = String::new();
            r.write_json_line(&mut streamed);
            assert_eq!(streamed, r.to_json().to_string_compact());
        }
        // Recovered on attempt 2: a success with a single burned attempt.
        let burned = [ProbeErrorKind::TlsFailure];
        let r = success_record().with_retry(RetryInfo::new(&burned, SimDuration::from_secs(5)));
        let mut streamed = String::new();
        r.write_json_line(&mut streamed);
        assert_eq!(streamed, r.to_json().to_string_compact());
    }

    #[test]
    fn disabled_retry_layer_adds_no_keys() {
        for r in [success_record(), failure_record()] {
            let text = r.to_json().to_string_compact();
            assert!(!text.contains("attempts"), "{text}");
            assert!(!text.contains("ttfb_ms"), "{text}");
        }
    }

    #[test]
    fn connection_mode_labels_round_trip() {
        for m in ConnectionMode::ALL {
            assert_eq!(ConnectionMode::from_label(m.label()), Some(m));
        }
        assert_eq!(ConnectionMode::from_label("lukewarm"), None);
        assert!(ConnectionMode::Cold < ConnectionMode::Resumed);
        assert!(ConnectionMode::Resumed < ConnectionMode::Reused);
    }

    #[test]
    fn conn_mode_round_trips_through_json() {
        for base in [success_record(), failure_record(), retried_success()] {
            for mode in ConnectionMode::ALL {
                let r = base.with_conn_mode(Some(mode));
                let text = r.to_json().to_string_compact();
                assert!(
                    text.contains(&format!("\"conn_mode\":\"{}\"", mode.label())),
                    "{text}"
                );
                let back = ProbeRecord::from_json(&crate::json::parse(&text).unwrap()).unwrap();
                assert_eq!(back, r);
            }
        }
    }

    #[test]
    fn streaming_writer_matches_tree_writer_with_conn_mode() {
        // Every combination of record shape × retry layer × mode, plus the
        // failure-without-retry case where conn_mode becomes the lead key.
        for base in [
            success_record(),
            failure_record(),
            retried_success(),
            exhausted_failure(),
        ] {
            for mode in ConnectionMode::ALL {
                let r = base.with_conn_mode(Some(mode));
                let mut streamed = String::new();
                r.write_json_line(&mut streamed);
                assert_eq!(streamed, r.to_json().to_string_compact());
            }
        }
    }

    #[test]
    fn disabled_session_layer_adds_no_keys() {
        for r in [success_record(), failure_record()] {
            assert_eq!(r.conn_mode, None);
            let text = r.to_json().to_string_compact();
            assert!(!text.contains("conn_mode"), "{text}");
            let mut streamed = String::new();
            r.write_json_line(&mut streamed);
            assert!(!streamed.contains("conn_mode"), "{streamed}");
        }
    }

    #[test]
    fn key_literals_are_what_write_str_writes() {
        assert_eq!(KEYS.len(), 28);
        for (key, literal) in KEYS {
            let mut want = String::from(",");
            crate::json::write_str(&mut want, key);
            want.push(':');
            assert_eq!(*literal, want);
        }
        // And the writer reaches them all: every key of every shape is in
        // the table (the tree writer escapes its keys through `write_str`).
        let mut r = retried_success().with_conn_mode(Some(ConnectionMode::Cold));
        let mut lines = String::new();
        r.write_json_line(&mut lines);
        r.outcome = failure_record().outcome;
        r.write_json_line(&mut lines);
        for (_, literal) in KEYS {
            assert!(lines.contains(&literal[1..]), "{literal} is never written");
        }
    }

    /// Every static label token is what `write_str` writes for the label,
    /// and the label reads back.
    #[test]
    fn label_tokens_are_what_write_str_writes() {
        let protocols = [
            Protocol::Do53,
            Protocol::DoT,
            Protocol::DoH,
            Protocol::DoQ,
            Protocol::ODoH,
        ];
        let modes = [
            ConnectionMode::Cold,
            ConnectionMode::Resumed,
            ConnectionMode::Reused,
        ];
        let regions = Region::all().into_iter().chain([Region::Unknown]);
        let tokens = (protocols.iter().map(|p| (p.label(), p.token())))
            .chain(modes.iter().map(|m| (m.label(), m.token())))
            .chain(regions.map(|r| (region_label(r), region_token(r))))
            .chain(ProbeErrorKind::all().map(|k| (k.label(), k.token())));
        for (label, token) in tokens {
            let mut want = String::new();
            crate::json::write_str(&mut want, label);
            assert_eq!(token, want);
        }
        assert!(protocols
            .iter()
            .all(|&p| Protocol::from_label(p.label()) == Some(p)));
        assert!(modes
            .iter()
            .all(|&m| ConnectionMode::from_label(m.label()) == Some(m)));
        let kinds = ProbeErrorKind::all();
        assert!(kinds
            .iter()
            .all(|&k| ProbeErrorKind::from_label(k.label()) == Some(k)));
    }

    fn reader(s: &str) -> LineReader<'_> {
        LineReader::new(s)
    }

    /// What `read_json_line` did with a `*_ms` token before it had an
    /// integer route, and still does with every token that route declines:
    /// `str::parse` (an integer token through `i64`), `× 1e6`, `round`.
    fn float_route(text: &str) -> Option<(SimDuration, SimTime)> {
        let mut r = reader(text);
        let ms = r.number().filter(|_| r.pos == text.len())?;
        Some((
            SimDuration::from_millis_f64(ms),
            SimTime::from_nanos((ms * 1e6).round() as u64),
        ))
    }

    fn read_millis(text: &str) -> Option<(SimDuration, SimTime)> {
        let (mut d, mut t) = (reader(text), reader(text));
        let read = (d.duration()?, t.time()?);
        (d.pos == text.len() && t.pos == text.len()).then_some(read)
    }

    #[test]
    fn the_integer_route_is_the_float_route_on_every_case() {
        let mut text = String::new();
        let mut taken = 0u64;
        crate::json::millis_cases(|n| {
            text.clear();
            crate::json::write_millis(&mut text, n);
            // Past the guards the writer's float may print another value,
            // itself exact (10^16 - 1 reads "10000000000.0"): whichever
            // route takes the token, one answer.
            assert_eq!(read_millis(&text), float_route(&text), "{text}");
            if crate::json::millis_are_exact(n / 1_000_000, n % 1_000_000) {
                let mut r = reader(&text);
                assert_eq!((r.exact_millis(), r.pos), (Some(n), text.len()), "{text}");
                let ms = text.parse::<f64>().unwrap();
                assert_eq!(SimDuration::from_millis_f64(ms).as_nanos(), n, "{text}");
                taken += 1;
            }
        });
        assert!(taken > 3_000_000, "{taken}");
    }

    #[test]
    fn the_integer_route_declines_what_write_millis_never_writes() {
        for (what, tokens) in [
            ("an exponent", &["1e3", "1.5e3", "1.0E+2"][..]),
            ("7+ fraction digits", &["0.1234567", "1.0000000"]),
            (
                "outside (a), not whole",
                &["1000000000.5", "1000000000.000001"],
            ),
            ("whole, outside (b)", &["500000000000.0", "9999999999999.0"]),
            ("a leading zero", &["007.5", "00.0"]),
            ("a bare integer", &["42", "0"]),
            ("a sign", &["-0.0", "-1.5", "+1.5"]),
            ("no number", &["1.", ".5", "1.5.2", "1.5-", ""]),
        ] {
            for text in tokens {
                let mut r = reader(text);
                assert_eq!((r.exact_millis(), r.pos), (None, 0), "{what}: {text:?}");
                assert_eq!(read_millis(text), float_route(text), "{what}: {text:?}");
            }
        }
        // Trailing zeros, and a token that ends mid-line, are the shape.
        let mut r = reader("12.500,");
        assert_eq!((r.exact_millis(), r.pos), (Some(12_500_000), 6));
    }
}
