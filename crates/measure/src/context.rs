//! Per-(vantage, resolver) probe context and the two *wire sources* the
//! protocol machines read their byte counts from.
//!
//! A probe's wire facts — the query's length, the DoH request's length,
//! the response's length under each HTTP status, the status and rcode the
//! client reads back — draw nothing from the RNG, and on a given pair they
//! are pure functions of pair-constant inputs. [`Wires`] is where a
//! machine asks for them, with exactly two implementations:
//!
//! * [`Wires::Cached`] — the pair's [`DomainTemplate`]: the query and the
//!   DoH request are encoded once per pair, each response shape once per
//!   (shed, rcode, answers) and each HTTP framing once per status. This is
//!   what [`Campaign::run`](crate::Campaign::run) probes through, and in
//!   steady state it allocates nothing.
//! * [`Wires::Fresh`] — [`FreshWires`]: every probe really builds and
//!   encodes its query, its DoH request (on a fresh HTTP/2 connection, or
//!   HTTP/1.1), the response message and its HTTP framing, then *parses
//!   that framing back* and decodes the body. No cache, nothing shared
//!   with the templates beyond the message constructors. The one-off
//!   [`Prober::probe`](crate::Prober::probe) and
//!   [`Campaign::run_reference`](crate::Campaign::run_reference) use it.
//!
//! The differential suites hold the two byte-identical, which is what makes
//! the caches safe.
//!
//! [`PairContext`] carries the rest of what is constant across a pair's
//! probe series: the routed site and [`Path`] (home peering penalty
//! applied), the [`FaultTarget`], the indices of the plan events in scope
//! ([`FaultPlan::scope_mask`]).

use catalog::ResolverEntry;
use detlint_macros::deny_alloc;
use dns_wire::{base64url, Message, MessageBuilder, Name, RData, Rcode, RecordType};
use netsim::faults::{FaultPlan, FaultTarget};
use netsim::{Host, Path};
use transport::{doh_headers, H2Connection, H2Request, HeaderField};

use crate::probe::ProbeTarget;
use crate::results::Protocol;
use crate::vantage::Vantage;

/// Builds the query message (id 0 on encrypted transports, per RFC 8484
/// cache friendliness; padded to 128 octets there, per RFC 8467).
pub(crate) fn build_query(domain: &Name, protocol: Protocol) -> Message {
    let encrypted = protocol != Protocol::Do53;
    let mut b = MessageBuilder::query(
        if encrypted { 0 } else { 0x2b2b },
        domain.clone(),
        RecordType::A,
    )
    .recursion_desired(true)
    .edns_udp_size(1232);
    if encrypted {
        b = b.padding_to(128);
    }
    b.build()
}

/// The DoH GET request for `query_wire`: the base64url query in the URL
/// (RFC 8484 §4.1), no body.
fn doh_request(hostname: &str, doh_path: &str, query_wire: &[u8]) -> H2Request {
    let http_path = format!("{doh_path}?dns={}", base64url::encode(query_wire));
    H2Request {
        headers: doh_headers(hostname, &http_path, false, 0),
        body: Vec::new(),
    }
}

/// The response message the simulated frontend sends: a shed query is a
/// bare SERVFAIL, anything else carries the resolution's answers.
fn response_message(
    query: &Message,
    name: &Name,
    shed: bool,
    rcode: Rcode,
    records: &[RData],
) -> Message {
    let mut response = MessageBuilder::response_to(query, rcode)
        .recursion_available(true)
        .build();
    if !shed {
        for rdata in records {
            response.answers.push(dns_wire::ResourceRecord::new(
                name.clone(),
                300,
                rdata.clone(),
            ));
        }
    }
    response
}

fn dns_message_content_type() -> HeaderField {
    HeaderField::new("content-type", "application/dns-message")
}

/// What a DoH client learns from one HTTP response.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HttpReply {
    /// On-wire length of the framed response.
    pub(crate) wire_len: usize,
    /// The status the client reads.
    pub(crate) status: u16,
    /// Length of the body (the DNS message).
    pub(crate) body_len: usize,
    /// The rcode of the decoded body; `None` when it does not decode.
    pub(crate) rcode: Option<Rcode>,
}

/// A protocol machine's wire source. See the module docs.
#[derive(Debug)]
pub(crate) enum Wires<'a> {
    /// The pair's template for the probed domain.
    Cached(&'a mut DomainTemplate),
    /// Wires built for this probe alone.
    Fresh(&'a mut FreshWires),
}

impl Wires<'_> {
    /// The queried name.
    pub(crate) fn name(&self) -> &Name {
        match self {
            Wires::Cached(t) => &t.name,
            Wires::Fresh(f) => &f.name,
        }
    }

    /// The encoded DNS query.
    pub(crate) fn query_wire(&self) -> &[u8] {
        match self {
            Wires::Cached(t) => &t.query_wire,
            Wires::Fresh(f) => &f.query_wire,
        }
    }

    /// On-wire length of the DoH request. A follow-up request on a
    /// kept-alive HTTP/2 connection (`reused`) skips the preface and hits
    /// the HPACK dynamic table, so it is shorter.
    pub(crate) fn doh_request_len(&mut self, reused: bool) -> usize {
        match self {
            Wires::Cached(t) => {
                // detlint:allow(unwrap, the DoH machine only runs when the template was built for DoH)
                let doh = t.doh.as_ref().expect("DoH template");
                if reused {
                    doh.req_len_reused
                } else {
                    doh.req_len
                }
            }
            Wires::Fresh(f) => f.encode_doh_request(reused),
        }
    }

    /// Makes the frontend's response to this query — the message is only
    /// assembled and encoded when the source has not seen its shape — and
    /// returns the handle the accessors below take.
    pub(crate) fn respond(&mut self, shed: bool, rcode: Rcode, records: &[RData]) -> usize {
        match self {
            Wires::Cached(t) => match t.find_variant(shed, rcode, records) {
                Some(i) => i,
                // detlint:allow(deny-alloc-reach, the first sight of a response shape on a pair builds and keeps its wire; every later probe finds it above)
                None => t.add_variant(shed, rcode, records),
            },
            Wires::Fresh(f) => {
                // detlint:allow(deny-alloc-reach, the fresh wire source exists to build every message anew; campaigns probe through Cached)
                f.encode_response(shed, rcode, records);
                0
            }
        }
    }

    /// The encoded DNS response `respond` made.
    pub(crate) fn response_wire(&self, response: usize) -> &[u8] {
        match self {
            Wires::Cached(t) => &t.variants[response].dns_response,
            Wires::Fresh(f) => &f.response,
        }
    }

    /// Query and response lengths on a stream transport, where each DNS
    /// message travels behind a two-octet length prefix (RFC 7858 §3.3,
    /// RFC 9250 §4.2).
    pub(crate) fn stream_lens(&self, response: usize) -> (usize, usize) {
        match self {
            Wires::Cached(t) => (
                2 + t.query_wire.len(),
                2 + t.variants[response].dns_response.len(),
            ),
            Wires::Fresh(f) => {
                // detlint:allow(unwrap, probe queries are far below the 64 KiB TCP framing limit)
                let query = dns_wire::tcp_frame::frame(&f.query_wire).expect("query frames");
                // detlint:allow(unwrap, simulated responses are far below the 64 KiB TCP framing limit)
                let response = dns_wire::tcp_frame::frame(&f.response).expect("response frames");
                (query.len(), response.len())
            }
        }
    }

    /// The HTTP response carrying `response` with `status`, as the DoH
    /// client sees it.
    pub(crate) fn http_reply(&mut self, response: usize, status: u16) -> HttpReply {
        match self {
            Wires::Cached(t) => HttpReply {
                wire_len: t.resp_len_for(response, status),
                status,
                body_len: t.variants[response].dns_response.len(),
                rcode: t.variants[response].decoded_rcode,
            },
            Wires::Fresh(f) => f.http_round_trip(status),
        }
    }
}

/// The fresh wire source: one probe's wires, really encoded and really
/// parsed back.
#[derive(Debug)]
pub(crate) struct FreshWires {
    hostname: &'static str,
    doh_path: &'static str,
    http1_only: bool,
    name: Name,
    query: Message,
    query_wire: Vec<u8>,
    /// The client's HTTP/2 connection of the current attempt: the request
    /// is encoded on it and the response parsed by it.
    h2: H2Connection,
    stream_id: u32,
    response: Vec<u8>,
}

impl FreshWires {
    /// Builds and encodes the query for one probe of `name`.
    pub(crate) fn new(entry: &ResolverEntry, name: &Name, protocol: Protocol) -> Self {
        let query = build_query(name, protocol);
        // detlint:allow(unwrap, queries built by build_query are well-formed; encoding cannot fail)
        let query_wire = query.encode().expect("query encodes");
        FreshWires {
            hostname: entry.hostname,
            doh_path: entry.doh_path,
            http1_only: entry.http1_only,
            name: name.clone(),
            query,
            query_wire,
            h2: H2Connection::new(),
            stream_id: 0,
            response: Vec::new(),
        }
    }

    fn encode_response(&mut self, shed: bool, rcode: Rcode, records: &[RData]) {
        self.response = response_message(&self.query, &self.name, shed, rcode, records)
            .encode()
            // detlint:allow(unwrap, responses assembled by the simulated resolver are well-formed)
            .expect("response encodes");
    }

    fn encode_doh_request(&mut self, reused: bool) -> usize {
        let req = doh_request(self.hostname, self.doh_path, &self.query_wire);
        // HTTP/1.1-only servers don't offer h2 in their ALPN; the client
        // falls back to serialised HTTP/1.1 over the same TLS connection.
        if self.http1_only {
            return transport::h1_encode_request(&req.headers, &req.body).len();
        }
        self.h2 = H2Connection::new();
        if reused {
            // A pooled connection already carried one request: burn an
            // encode so the preface is spent and the HPACK table is warm.
            let _ = self.h2.encode_request(&req);
        }
        let (stream_id, wire) = self.h2.encode_request(&req);
        self.stream_id = stream_id;
        wire.len()
    }

    fn http_round_trip(&mut self, status: u16) -> HttpReply {
        let content_type = dns_message_content_type();
        let headers = std::slice::from_ref(&content_type);
        let (wire_len, status, body) = if self.http1_only {
            let wire = transport::h1_encode_response(status, headers, &self.response);
            // detlint:allow(unwrap, parses the HTTP/1.1 response encoded on the line above)
            let parsed = transport::h1_parse_response(&wire).expect("own HTTP/1.1 response");
            (wire.len(), parsed.status, parsed.body)
        } else {
            // The server answers a connection's request with a fresh HPACK
            // encoder, pooled connection or not.
            let wire = H2Connection::encode_response_fresh(
                self.stream_id,
                status,
                headers,
                &self.response,
            );
            // detlint:allow(unwrap, parses the HTTP/2 response encoded on the line above)
            let parsed = self.h2.parse_response(&wire).expect("own HTTP/2 response");
            (wire.len(), parsed.status, parsed.body)
        };
        HttpReply {
            wire_len,
            status,
            body_len: body.len(),
            rcode: Message::decode(&body).ok().map(|m| m.rcode()),
        }
    }
}

/// Pair-constant state for one (vantage, resolver) probe series.
#[derive(Debug)]
pub(crate) struct PairContext {
    /// The vantage's simulated host (id 0, as the one-off path builds).
    pub(crate) client: Host,
    /// The site this vantage routes to (constant: routing is RNG-free).
    pub(crate) site: usize,
    /// The routed path with the residential peering penalty already
    /// applied when the vantage is a home network.
    pub(crate) path: Path,
    /// Fault-plan identity, borrowed from `'static` catalog strings.
    pub(crate) ftarget: FaultTarget<'static>,
    /// Original indices of the plan events whose scope matches this pair.
    pub(crate) scope_mask: Vec<u32>,
    /// One wire template per campaign domain, in campaign domain order.
    pub(crate) domains: Vec<DomainTemplate>,
}

impl PairContext {
    /// Builds the context for one pair. Everything here is RNG-free.
    pub(crate) fn build<'a>(
        vantage: &Vantage,
        target: &ProbeTarget,
        protocol: Protocol,
        faults: &FaultPlan,
        domains: impl IntoIterator<Item = &'a Name>,
    ) -> Self {
        let client = vantage.host(0);
        let (site, mut path) = target.instance.route(&client);
        if vantage.is_home() {
            path.extra_latency_ms += target.entry.home_extra_ms;
        }
        let ftarget = FaultTarget {
            resolver: target.entry.hostname,
            region: target.entry.region(),
            vantage: vantage.label,
        };
        let scope_mask = faults.scope_mask(&ftarget);
        let domains = domains
            .into_iter()
            .map(|name| DomainTemplate::build(&target.entry, name, protocol))
            .collect();
        PairContext {
            client,
            site,
            path,
            ftarget,
            scope_mask,
            domains,
        }
    }
}

/// Pair-constant wire templates for one queried domain.
#[derive(Debug)]
pub(crate) struct DomainTemplate {
    /// The parsed domain (owned so the template is self-contained).
    name: Name,
    /// The query message every probe of this domain sends.
    query: Message,
    /// Its wire image (drives request sizes on non-HTTP transports).
    query_wire: Vec<u8>,
    /// DoH request template; `None` on other protocols.
    doh: Option<DohTemplate>,
    /// Response shapes observed so far, discovered lazily.
    variants: Vec<ResponseVariant>,
}

impl DomainTemplate {
    fn build(entry: &ResolverEntry, name: &Name, protocol: Protocol) -> Self {
        let query = build_query(name, protocol);
        // detlint:allow(unwrap, queries built by build_query are well-formed; encoding cannot fail)
        let query_wire = query.encode().expect("query encodes");
        let doh = (protocol == Protocol::DoH).then(|| DohTemplate::build(entry, &query_wire));
        DomainTemplate {
            name: name.clone(),
            query,
            query_wire,
            doh,
            variants: Vec::new(),
        }
    }

    /// Looks up the cached response variant for a served result. The hot
    /// lookup: in steady state every probe lands here and allocates
    /// nothing.
    #[deny_alloc]
    fn find_variant(&self, shed: bool, rcode: Rcode, records: &[RData]) -> Option<usize> {
        self.variants
            .iter()
            .position(|v| v.shed == shed && v.rcode == rcode && (shed || v.records == records))
    }

    /// Builds and caches a response variant (cold path: runs once per
    /// distinct response shape per pair).
    fn add_variant(&mut self, shed: bool, rcode: Rcode, records: &[RData]) -> usize {
        let wire = response_message(&self.query, &self.name, shed, rcode, records)
            .encode()
            // detlint:allow(unwrap, responses assembled by the simulated resolver are well-formed)
            .expect("response encodes");
        let decoded_rcode = Message::decode(&wire).ok().map(|m| m.rcode());
        self.variants.push(ResponseVariant {
            shed,
            rcode,
            records: if shed { Vec::new() } else { records.to_vec() },
            dns_response: wire,
            decoded_rcode,
            status_lens: Vec::new(),
        });
        self.variants.len() - 1
    }

    /// The on-wire length of the HTTP response carrying `variant` with
    /// `status`, computed once per (variant, status) and cached.
    fn resp_len_for(&mut self, variant: usize, status: u16) -> usize {
        if let Some(len) = self.variants[variant].cached_status_len(status) {
            return len;
        }
        // detlint:allow(unwrap, resp_len_for is only reached on the DoH path, which builds the template)
        let doh = self.doh.as_ref().expect("DoH template");
        let v = &mut self.variants[variant];
        let content_type = dns_message_content_type();
        let headers = std::slice::from_ref(&content_type);
        let len = if doh.http1 {
            transport::h1_encode_response(status, headers, &v.dns_response).len()
        } else {
            H2Connection::encode_response_fresh(doh.stream_id, status, headers, &v.dns_response)
                .len()
        };
        v.status_lens.push((status, len));
        len
    }
}

/// The pair-constant DoH request template. Only lengths survive: the
/// simulated transport moves byte *counts*, and both request and response
/// wires are pure functions of pair-constant inputs on a fresh connection.
#[derive(Debug)]
struct DohTemplate {
    /// Stream id of the first request on a fresh HTTP/2 connection.
    stream_id: u32,
    /// Encoded request length (HTTP/1.1 when `http1`, else HTTP/2 with
    /// connection preface, exactly as a fresh connection sends it).
    req_len: usize,
    /// Encoded request length for a follow-up request on a kept-alive
    /// connection: no connection preface, and HPACK dynamic-table hits
    /// shrink the header block. Equal to `req_len` on HTTP/1.1, whose
    /// requests are stateless. The HTTP/2 frame header carries the stream
    /// id in a fixed-width field, so the *response* length is independent
    /// of the stream id and `resp_len_for` serves both cold and reused
    /// exchanges.
    req_len_reused: usize,
    /// The resolver only speaks HTTP/1.1 (no h2 in its ALPN).
    http1: bool,
}

impl DohTemplate {
    fn build(entry: &ResolverEntry, query_wire: &[u8]) -> Self {
        let req = doh_request(entry.hostname, entry.doh_path, query_wire);
        let mut conn = H2Connection::new();
        let (stream_id, h2_wire) = conn.encode_request(&req);
        // The same request re-encoded on the warm connection: stream id 3,
        // stateful HPACK, no preface. RNG-free, so safe to hoist.
        let (_, h2_wire_reused) = conn.encode_request(&req);
        let (req_len, req_len_reused) = if entry.http1_only {
            let len = transport::h1_encode_request(&req.headers, &req.body).len();
            (len, len)
        } else {
            (h2_wire.len(), h2_wire_reused.len())
        };
        DohTemplate {
            stream_id,
            req_len,
            req_len_reused,
            http1: entry.http1_only,
        }
    }
}

/// One response shape: the served (shed, rcode, answer set) triple and the
/// wire images derived from it.
#[derive(Debug)]
struct ResponseVariant {
    /// The frontend shed this query (SERVFAIL with no answers).
    shed: bool,
    /// Response code the server put on the wire.
    rcode: Rcode,
    /// Answer records (empty when shed; the key ignores them then).
    records: Vec<RData>,
    /// The encoded DNS response message.
    dns_response: Vec<u8>,
    /// Memoized client-side decode of `dns_response`: `None` means the
    /// decode failed.
    decoded_rcode: Option<Rcode>,
    /// Cached HTTP framing lengths per status code.
    status_lens: Vec<(u16, usize)>,
}

impl ResponseVariant {
    /// Cached HTTP response length for `status`, if already computed. The
    /// hot lookup: a handful of statuses per variant, scanned linearly.
    #[deny_alloc]
    fn cached_status_len(&self, status: u16) -> Option<usize> {
        self.status_lens
            .iter()
            .find(|(s, _)| *s == status)
            .map(|(_, len)| *len)
    }
}
