//! Cross-crate integration: exercise the whole stack — wire codec, HTTP/2
//! framing, TLS/TCP state machines, recursive resolution, deployments — in
//! one DoH transaction, verifying the actual bytes that would travel.

use edns_bench::dns_wire::{base64url, Message, MessageBuilder, Name, Rcode, RecordType};
use edns_bench::netsim::geo::cities;
use edns_bench::netsim::{AccessProfile, Deployment, Host, HostId, SimRng, Site};
use edns_bench::resolver_sim::{AuthorityTree, ResolverInstance, ServerProfile};
use edns_bench::transport::{
    doh_headers, H2Connection, H2Request, HeaderField, TcpConfig, TcpConnection, TlsConfig,
    TlsServerBehavior, TlsSession,
};

#[test]
fn a_full_doh_transaction_end_to_end() {
    let mut rng = SimRng::from_seed(2024);
    let authorities = AuthorityTree::standard();

    // Client in Ohio; resolver anycast with a nearby site.
    let client = Host::in_city(
        HostId(0),
        "client",
        cities::COLUMBUS_OH,
        AccessProfile::cloud_vm(),
    );
    let mut resolver = ResolverInstance::new(
        "dns.example",
        Deployment::anycast(vec![
            Site::datacenter(cities::ASHBURN_VA),
            Site::datacenter(cities::FRANKFURT),
        ]),
        ServerProfile::production(),
        edns_bench::netsim::IcmpPolicy::Respond,
        edns_bench::resolver_sim::HealthModel::reliable(),
    );
    let (site, path) = resolver.route(&client);
    assert_eq!(site, 0, "Ohio routes to Ashburn");

    // 1. Build a real DoH GET request: DNS query -> base64url -> HTTP/2.
    let qname = Name::parse("google.com").unwrap();
    let query = MessageBuilder::query(0, qname.clone(), RecordType::A)
        .recursion_desired(true)
        .edns_udp_size(1232)
        .padding_to(128)
        .build();
    let query_wire = query.encode().unwrap();
    assert_eq!(query_wire.len(), 128, "padded to RFC 8467 recommendation");
    let b64 = base64url::encode(&query_wire);
    assert!(!b64.contains('='), "unpadded base64url per RFC 8484");

    // 2. Transport: TCP -> TLS -> HTTP/2.
    let (mut tcp, _) =
        TcpConnection::connect(&path, false, &mut rng, TcpConfig::default()).unwrap();
    TlsSession::handshake(
        &mut tcp,
        &path,
        TlsConfig::default(),
        TlsServerBehavior::Normal,
        None,
        &mut rng,
    )
    .unwrap();

    // 3. Server: recursive resolution through root -> TLD -> authoritative.
    let now = edns_bench::netsim::SimTime::ZERO;
    let (server_time, resolution) =
        resolver
            .server_mut(site)
            .handle_query(&qname, RecordType::A, &authorities, now, &mut rng);
    assert_eq!(resolution.rcode, Rcode::NoError);
    assert!(!resolution.records.is_empty());

    // 4. The response DNS message rides an HTTP/2 DATA frame.
    let mut response = MessageBuilder::response_to(&query, resolution.rcode)
        .recursion_available(true)
        .build();
    for rdata in resolution.records.iter() {
        response
            .answers
            .push(edns_bench::dns_wire::ResourceRecord::new(
                qname.clone(),
                300,
                rdata.clone(),
            ));
    }
    let response_wire = response.encode().unwrap();

    let mut h2 = H2Connection::new();
    let req = H2Request {
        headers: doh_headers("dns.example", &format!("/dns-query?dns={b64}"), false, 0),
        body: Vec::new(),
    };
    let (resp, elapsed) = h2
        .round_trip(
            &mut tcp,
            &path,
            &req,
            |sid, enc| {
                H2Connection::encode_response(
                    enc,
                    sid,
                    200,
                    &[HeaderField::new("content-type", "application/dns-message")],
                    &response_wire,
                )
            },
            server_time,
            &mut rng,
        )
        .unwrap();

    // 5. Client decodes the DNS answer from the HTTP body.
    assert_eq!(resp.status, 200);
    let answer = Message::decode(&resp.body).unwrap();
    assert_eq!(answer.rcode(), Rcode::NoError);
    assert_eq!(answer.header.id, 0);
    assert_eq!(answer.questions[0].name, qname);
    assert!(!answer.answers.is_empty());
    assert!(answer.answers.iter().all(|rr| rr.rtype() == RecordType::A));
    assert!(elapsed.as_millis_f64() > 1.0, "the exchange took real time");
}

#[test]
fn stamps_for_the_whole_population_round_trip_through_the_list_format() {
    let population = edns_bench::catalog::resolvers::all();
    let doc = edns_bench::catalog::list_parser::render(&population);
    let entries = edns_bench::catalog::list_parser::parse(&doc);
    assert_eq!(entries.len(), population.len());
    for (entry, original) in entries.iter().zip(&population) {
        let stamp = entry.doh_stamp().expect("every entry has a DoH stamp");
        assert_eq!(stamp.endpoint(), original.hostname);
    }
}

#[test]
fn every_catalog_resolver_answers_a_doh_probe_when_healthy() {
    use edns_bench::measure::{ProbeRequest, ProbeTarget, Prober, SpanLog};

    let prober = Prober::new();
    let client = Host::in_city(
        HostId(0),
        "client",
        cities::COLUMBUS_OH,
        AccessProfile::cloud_vm(),
    );
    let domain = Name::parse("google.com").unwrap();
    let mut reachable = 0;
    let population = edns_bench::catalog::resolvers::all();
    let total = population.len();
    for entry in population {
        let mut target = ProbeTarget::from_entry(entry);
        let mut rng = SimRng::from_seed(99);
        // Give each resolver a few tries so per-probe health noise doesn't
        // mask genuinely reachable services.
        let ok = (0..5).any(|i| {
            let outcome = prober
                .probe(
                    &ProbeRequest::new(
                        &client,
                        &domain,
                        edns_bench::netsim::SimTime::from_nanos(i * 3_600_000_000_000),
                    ),
                    &mut target,
                    &mut rng,
                    &mut SpanLog::disabled(),
                )
                .outcome;
            outcome.is_success()
        });
        if ok {
            reachable += 1;
        }
    }
    // The handful of mostly-down services may fail all five tries.
    assert!(
        reachable >= total - 6,
        "{reachable}/{total} resolvers reachable"
    );
}
