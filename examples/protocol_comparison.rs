//! Protocol comparison: Do53 vs DoT vs DoH vs DoQ on the same paths — the
//! related-work axis (Zhu et al., Böttger et al., Hounsel et al.) that the
//! paper's released tool supports, plus the connection-reuse ablation those
//! papers identify as the decisive cost factor.
//!
//! ```sh
//! cargo run --release --example protocol_comparison
//! ```

use edns_bench::dns_wire::Name;
use edns_bench::measure::{
    Campaign, CampaignConfig, ProbeConfig, ProbeRequest, ProbeTarget, Prober, Protocol,
    SessionConfig, SpanLog,
};
use edns_bench::netsim::geo::cities;
use edns_bench::netsim::{AccessProfile, Host, HostId, SimRng, SimTime};
use edns_bench::report::{ReuseAblation, TextTable};
use edns_bench::transport::{
    QuicConfig, QuicConnection, TcpConfig, TcpConnection, TlsConfig, TlsServerBehavior, TlsSession,
};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let prober = Prober::new();
    let client = Host::in_city(
        HostId(0),
        "ec2-ohio",
        cities::COLUMBUS_OH,
        AccessProfile::cloud_vm(),
    );
    let domain = Name::parse("google.com").unwrap();
    let rounds = 300;

    println!("Cold-connection query response time by protocol (Ohio -> dns.quad9.net):\n");
    let mut t = TextTable::new(["Protocol", "Median (ms)", "Round trips (cold)"]);
    for (protocol, rtts) in [
        (Protocol::Do53, "1"),
        (Protocol::DoT, "3 (TCP+TLS+query)"),
        (Protocol::DoH, "3 (TCP+TLS+H2)"),
        (Protocol::DoQ, "2 (QUIC+stream)"),
    ] {
        let mut target =
            ProbeTarget::from_entry(edns_bench::catalog::resolvers::find("dns.quad9.net").unwrap());
        let mut rng = SimRng::from_seed(17);
        let cfg = ProbeConfig {
            protocol,
            ..ProbeConfig::default()
        };
        let mut times = Vec::new();
        for i in 0..rounds {
            let outcome = prober
                .probe(
                    &ProbeRequest {
                        cfg,
                        ..ProbeRequest::new(
                            &client,
                            &domain,
                            SimTime::from_nanos(i * 3_600_000_000_000),
                        )
                    },
                    &mut target,
                    &mut rng,
                    &mut SpanLog::disabled(),
                )
                .outcome;
            if let Some(rt) = outcome.response_time() {
                times.push(rt.as_millis_f64());
            }
        }
        t.row([
            protocol.label().to_string(),
            format!("{:.1}", median(times)),
            rtts.to_string(),
        ]);
    }
    println!("{}", t.render());

    // Connection-reuse ablation: cold vs warm (TLS-resumed / established).
    println!("Connection reuse ablation (Ohio -> Ashburn path, 300 queries each):\n");
    let path = edns_bench::netsim::Path::between(
        cities::COLUMBUS_OH.point,
        AccessProfile::cloud_vm(),
        cities::ASHBURN_VA.point,
        AccessProfile::datacenter(),
    );
    let mut rng = SimRng::from_seed(23);
    let server_time = edns_bench::netsim::SimDuration::from_micros(500);

    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut zero_rtt = Vec::new();
    for _ in 0..300 {
        // Cold: TCP + TLS + query.
        let (mut tcp, connect) =
            TcpConnection::connect(&path, false, &mut rng, TcpConfig::default()).unwrap();
        let tls = TlsSession::handshake(
            &mut tcp,
            &path,
            TlsConfig::default(),
            TlsServerBehavior::Normal,
            None,
            &mut rng,
        )
        .unwrap();
        let q = tcp
            .request_response(&path, 300, 468, server_time, &mut rng)
            .unwrap();
        cold.push((connect + tls.handshake_time + q.elapsed).as_millis_f64());

        // Warm: the connection already exists; only the query round trip.
        let q = tcp
            .request_response(&path, 120, 468, server_time, &mut rng)
            .unwrap();
        warm.push(q.elapsed.as_millis_f64());

        // QUIC 0-RTT resumption: query rides the first flight.
        let (quic, _) = QuicConnection::connect(&path, QuicConfig::default(), &mut rng).unwrap();
        let mut resumed =
            QuicConnection::resume_zero_rtt(&path, QuicConfig::default(), quic.ticket);
        let q = resumed
            .stream_exchange(&path, 120, 468, server_time, &mut rng)
            .unwrap();
        zero_rtt.push(q.elapsed.as_millis_f64());
    }
    let mut t = TextTable::new(["Mode", "Median (ms)"]);
    t.row(["cold DoH (TCP+TLS+query)", &format!("{:.1}", median(cold))]);
    t.row([
        "warm DoH (reused connection)",
        &format!("{:.1}", median(warm)),
    ]);
    t.row(["DoQ 0-RTT resumption", &format!("{:.1}", median(zero_rtt))]);
    println!("{}", t.render());
    println!(
        "Connection reuse removes ~2/3 of the cold cost — the Zhu et al. /\n\
         Böttger et al. finding that encrypted DNS overhead 'can be largely\n\
         eliminated with connection re-use'.\n"
    );

    // Campaign-level ablation: the same effect measured by the full
    // pipeline rather than hand-driven transports. The interleaved
    // session schedule (30% forced-cold) exercises every ConnectionMode
    // against each resolver's ReusePolicy; ReuseAblation splits the
    // per-(protocol, mode) distributions.
    println!("Campaign-level reuse ablation (seed 4, 30% forced-cold schedule):\n");
    let roster: Vec<_> = [
        "dns.google",
        "dns.quad9.net",
        "doh.ffmuc.net",
        "chewbacca.meganerd.nl",
    ]
    .into_iter()
    .map(|h| edns_bench::catalog::resolvers::find(h).unwrap())
    .collect();
    let mut ablation = ReuseAblation::new();
    for protocol in [Protocol::DoH, Protocol::DoT, Protocol::DoQ] {
        let mut config = CampaignConfig::quick(4, 3).with_session(SessionConfig::interleaved(0.3));
        config.probe.protocol = protocol;
        let result = Campaign::with_resolvers(config, roster.clone()).run();
        ablation.add_campaign(&result.records);
    }
    println!("{}", ablation.render());
    println!(
        "Resumed rows drop the TCP+TLS handshake (DoQ 0-RTT drops the\n\
         connect flight entirely); reused rows collapse to a single query\n\
         round trip. `edns-measure -- campaign --session 0.3` records the\n\
         same schedule to JSONL with a conn_mode field per probe."
    );
}
