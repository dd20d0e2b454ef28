//! Extending the library: define your own zone (from a standard RFC 1035
//! zone file), your own resolver deployment, and measure it with the same
//! tooling the reproduction uses — the workflow a downstream user follows
//! to ask "where should *my* resolver's points of presence be?"
//!
//! ```sh
//! cargo run --release --example custom_deployment
//! ```

use edns_bench::dns_wire::Name;
use edns_bench::measure::{ProbeRequest, ProbeTarget, Prober, SpanLog};
use edns_bench::netsim::geo::cities;
use edns_bench::netsim::{
    AccessProfile, Deployment, Host, HostId, IcmpPolicy, SimRng, SimTime, Site,
};
use edns_bench::report::TextTable;
use edns_bench::resolver_sim::{
    parse_zone, AuthorityTree, HealthModel, ResolverInstance, ServerProfile,
};

const MY_ZONE: &str = r#"
$ORIGIN myservice.dev.
$TTL 120
@       IN A     203.0.113.10
www     IN CNAME @
api     IN A     203.0.113.20 203.0.113.21
*       IN A     203.0.113.99
"#;

fn main() {
    // 1. Authority side: the standard hierarchy plus our own zone, loaded
    //    from a zone file.
    let mut authorities = AuthorityTree::standard();
    authorities.add_tld("dev", cities::ASHBURN_VA);
    let zone = parse_zone(MY_ZONE, None, cities::FRANKFURT).expect("zone parses");
    println!(
        "Loaded zone {} (myservice.dev at {})",
        zone.apex, zone.location.name
    );
    authorities.add_zone(zone);
    let prober = Prober::with_authorities(authorities);

    // 2. Candidate deployments for our own DoH resolver.
    let candidates: Vec<(&str, Deployment)> = vec![
        (
            "unicast Frankfurt",
            Deployment::unicast(Site::datacenter(cities::FRANKFURT)),
        ),
        (
            "unicast Ashburn",
            Deployment::unicast(Site::datacenter(cities::ASHBURN_VA)),
        ),
        (
            "anycast FRA+ASH",
            Deployment::anycast(vec![
                Site::datacenter(cities::FRANKFURT),
                Site::datacenter(cities::ASHBURN_VA),
            ]),
        ),
        (
            "anycast FRA+ASH+TYO",
            Deployment::anycast(vec![
                Site::datacenter(cities::FRANKFURT),
                Site::datacenter(cities::ASHBURN_VA),
                Site::datacenter(cities::TOKYO),
            ]),
        ),
    ];

    // 3. Measure each candidate from the paper's three EC2 vantage points,
    //    querying OUR domain.
    let domain = Name::parse("api.myservice.dev").unwrap();
    let vantages = [
        ("Ohio", cities::COLUMBUS_OH),
        ("Frankfurt", cities::FRANKFURT),
        ("Seoul", cities::SEOUL),
    ];

    let mut t = TextTable::new([
        "Deployment",
        "Ohio (ms)",
        "Frankfurt (ms)",
        "Seoul (ms)",
        "Worst",
    ]);
    for (label, deployment) in candidates {
        let mut medians = Vec::new();
        for (_, city) in vantages {
            let client = Host::in_city(HostId(0), "c", city, AccessProfile::cloud_vm());
            // Fresh instance per vantage keeps cache state independent.
            let instance = ResolverInstance::new(
                "doh.myservice.dev",
                deployment.clone(),
                ServerProfile::midsize(),
                IcmpPolicy::Respond,
                HealthModel::reliable(),
            );
            let entry = edns_bench::catalog::resolvers::find("dns.brahma.world").unwrap();
            let mut target = ProbeTarget { entry, instance };
            let mut rng = SimRng::derived(11, label);
            let mut times = Vec::new();
            for i in 0..60 {
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
            times.sort_by(|a, b| a.partial_cmp(b).unwrap());
            medians.push(times[times.len() / 2]);
        }
        let worst = medians.iter().cloned().fold(f64::MIN, f64::max);
        t.row([
            label.to_string(),
            format!("{:.1}", medians[0]),
            format!("{:.1}", medians[1]),
            format!("{:.1}", medians[2]),
            format!("{worst:.1}"),
        ]);
    }
    println!("\nMedian cold-DoH response time for api.myservice.dev by deployment:\n");
    println!("{}", t.render());
    println!(
        "The table retells the paper's core finding from the operator's side:\n\
         a single site is excellent on its continent and poor everywhere else;\n\
         each added anycast site caps the worst-case vantage point. This is\n\
         why the mainstream resolvers dominate the paper's figures — and what\n\
         it would take for a non-mainstream operator to catch up."
    );
}
