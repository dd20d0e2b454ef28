//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * connection reuse (cold vs warm vs 0-RTT) — the Zhu/Böttger finding;
//! * anycast vs unicast deployment of the same service;
//! * query padding (RFC 8467) cost;
//! * campaign parallelism scaling.

use criterion::{criterion_group, criterion_main, Criterion};

use dns_wire::Name;
use measure::{ProbeConfig, ProbeRequest, ProbeTarget, Prober, SpanLog};
use netsim::geo::cities;
use netsim::{AccessProfile, Host, HostId, Path, SimDuration, SimRng, SimTime};
use transport::{
    QuicConfig, QuicConnection, TcpConfig, TcpConnection, TlsConfig, TlsServerBehavior, TlsSession,
};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Reports simulated medians (the scientific quantity) once, then measures
/// the host-CPU cost of the cold path.
fn connection_reuse(c: &mut Criterion) {
    let path = Path::between(
        cities::COLUMBUS_OH.point,
        AccessProfile::cloud_vm(),
        cities::ASHBURN_VA.point,
        AccessProfile::datacenter(),
    );
    let server = SimDuration::from_micros(500);
    let mut rng = SimRng::from_seed(3);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut zrtt = Vec::new();
    for _ in 0..500 {
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
            .request_response(&path, 300, 468, server, &mut rng)
            .unwrap();
        cold.push((connect + tls.handshake_time + q.elapsed).as_millis_f64());
        let q = tcp
            .request_response(&path, 120, 468, server, &mut rng)
            .unwrap();
        warm.push(q.elapsed.as_millis_f64());
        let (conn, _) = QuicConnection::connect(&path, QuicConfig::default(), &mut rng).unwrap();
        let mut r = QuicConnection::resume_zero_rtt(&path, QuicConfig::default(), conn.ticket);
        let q = r
            .stream_exchange(&path, 120, 468, server, &mut rng)
            .unwrap();
        zrtt.push(q.elapsed.as_millis_f64());
    }
    eprintln!(
        "\nconnection reuse ablation (simulated medians, Ohio->Ashburn):\n  \
         cold DoH {:.1} ms | warm {:.1} ms | DoQ 0-RTT {:.1} ms\n",
        median(cold),
        median(warm),
        median(zrtt)
    );

    c.bench_function("ablation_cold_doh_transaction", |b| {
        let mut rng = SimRng::from_seed(4);
        b.iter(|| {
            let (mut tcp, _) =
                TcpConnection::connect(&path, false, &mut rng, TcpConfig::default()).unwrap();
            let _ = TlsSession::handshake(
                &mut tcp,
                &path,
                TlsConfig::default(),
                TlsServerBehavior::Normal,
                None,
                &mut rng,
            );
            tcp.request_response(&path, 300, 468, server, &mut rng)
        })
    });
}

/// Same service deployed unicast vs anycast: reports the simulated medians
/// per vantage and measures the probe cost.
fn anycast_vs_unicast(c: &mut Criterion) {
    let prober = Prober::new();
    let domain = Name::parse("google.com").unwrap();
    let clients = [
        ("Ohio", cities::COLUMBUS_OH),
        ("Frankfurt", cities::FRANKFURT),
        ("Seoul", cities::SEOUL),
    ];
    eprintln!("\nanycast-vs-unicast ablation (median cold-DoH ms per vantage):");
    for (label, hostname) in [("anycast", "dns.quad9.net"), ("unicast", "doh.ffmuc.net")] {
        let mut line = format!("  {label:<8}");
        for (cname, city) in clients {
            let client = Host::in_city(HostId(0), "c", city, AccessProfile::cloud_vm());
            let mut target = ProbeTarget::from_entry(catalog::resolvers::find(hostname).unwrap());
            let mut rng = SimRng::from_seed(5);
            let mut times = Vec::new();
            for i in 0..120 {
                let o = prober
                    .probe(
                        &ProbeRequest::new(
                            &client,
                            &domain,
                            SimTime::from_nanos(i * 3_600_000_000_000),
                        ),
                        &mut target,
                        &mut rng,
                        &mut SpanLog::disabled(),
                    )
                    .outcome;
                if let Some(rt) = o.response_time() {
                    times.push(rt.as_millis_f64());
                }
            }
            line.push_str(&format!("  {cname} {:>6.1}", median(times)));
        }
        eprintln!("{line}");
    }
    eprintln!();

    c.bench_function("ablation_probe_anycast", |b| {
        let client = Host::in_city(HostId(0), "c", cities::SEOUL, AccessProfile::cloud_vm());
        let mut target =
            ProbeTarget::from_entry(catalog::resolvers::find("dns.quad9.net").unwrap());
        let mut rng = SimRng::from_seed(6);
        let mut i = 0;
        b.iter(|| {
            i += 1;
            prober.probe(
                &ProbeRequest::new(&client, &domain, SimTime::from_nanos(i * 3_600_000_000_000)),
                &mut target,
                &mut rng,
                &mut SpanLog::disabled(),
            )
        })
    });
}

/// RFC 8467 padding: wire-size cost of padding queries to 128 octets.
fn padding_cost(c: &mut Criterion) {
    let prober = Prober::new();
    let domain = Name::parse("google.com").unwrap();
    let client = Host::in_city(
        HostId(0),
        "c",
        cities::COLUMBUS_OH,
        AccessProfile::cloud_vm(),
    );
    for (name, padding) in [("padded", true), ("unpadded", false)] {
        c.bench_function(format!("ablation_doh_probe_{name}"), |b| {
            let mut target =
                ProbeTarget::from_entry(catalog::resolvers::find("dns.google").unwrap());
            let mut rng = SimRng::from_seed(7);
            let cfg = ProbeConfig {
                padding,
                ..ProbeConfig::default()
            };
            let mut i = 0;
            b.iter(|| {
                i += 1;
                prober.probe(
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
            })
        });
    }
}

/// Campaign parallelism: serial vs multi-threaded wall-clock.
fn parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_campaign_threads");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                let campaign = bench::campaign(8, 2, &bench::BENCH_MIX);
                if threads == 1 {
                    campaign.run().records.len()
                } else {
                    campaign.run_parallel(threads).records.len()
                }
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = connection_reuse, anycast_vs_unicast, padding_cost, parallelism
}
criterion_main!(benches);
