//! Micro-benchmarks of the simulation substrate: path sampling, anycast
//! routing, recursive-resolver cache, and single probes per protocol.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dns_wire::Name;
use measure::{ProbeConfig, ProbeRequest, ProbeTarget, Prober, Protocol, SpanLog};
use netsim::geo::cities;
use netsim::{AccessProfile, Deployment, Host, HostId, Path, SimRng, SimTime, Site};

fn bench_path_sampling(c: &mut Criterion) {
    let path = Path::between(
        cities::COLUMBUS_OH.point,
        AccessProfile::cloud_vm(),
        cities::FRANKFURT.point,
        AccessProfile::datacenter(),
    );
    let mut rng = SimRng::from_seed(1);
    c.bench_function("path_sample_rtt", |b| {
        b.iter(|| black_box(&path).sample_rtt(100, 200, &mut rng))
    });
}

fn bench_anycast_route(c: &mut Criterion) {
    let deployment = Deployment::anycast(vec![
        Site::datacenter(cities::ASHBURN_VA),
        Site::datacenter(cities::FRANKFURT),
        Site::datacenter(cities::TOKYO),
        Site::datacenter(cities::SYDNEY),
        Site::datacenter(cities::LONDON),
        Site::datacenter(cities::SINGAPORE),
    ]);
    let client = Host::in_city(HostId(0), "c", cities::SEOUL, AccessProfile::cloud_vm());
    c.bench_function("anycast_route_6_sites", |b| {
        b.iter(|| black_box(&deployment).route(black_box(&client)))
    });
}

fn bench_probe_per_protocol(c: &mut Criterion) {
    let prober = Prober::new();
    let client = Host::in_city(
        HostId(0),
        "ec2-ohio",
        cities::COLUMBUS_OH,
        AccessProfile::cloud_vm(),
    );
    let domain = Name::parse("google.com").unwrap();
    for protocol in [Protocol::Do53, Protocol::DoT, Protocol::DoH, Protocol::DoQ] {
        c.bench_function(format!("probe_{}", protocol.label()), |b| {
            let mut target =
                ProbeTarget::from_entry(catalog::resolvers::find("dns.quad9.net").unwrap());
            let mut rng = SimRng::from_seed(7);
            let cfg = ProbeConfig {
                protocol,
                ..ProbeConfig::default()
            };
            let mut i = 0u64;
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

criterion_group!(
    benches,
    bench_path_sampling,
    bench_anycast_route,
    bench_probe_per_protocol
);
criterion_main!(benches);
