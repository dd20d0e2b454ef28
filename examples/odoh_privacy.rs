//! Oblivious DoH: what the `odoh-target-*.alekberg.net` rows of the paper's
//! figures actually are, and what the relay indirection costs.
//!
//! Measures the same targets over direct DoH and over ODoH (RFC 9230)
//! from a near and a far vantage point, demonstrating the two regimes:
//! the relay is overhead when the target is nearby, but its warm upstream
//! connection *reduces* cold response time when the target is an ocean
//! away.
//!
//! ```sh
//! cargo run --release --example odoh_privacy
//! ```

use edns_bench::catalog::relays;
use edns_bench::dns_wire::{odoh, MessageBuilder, Name, RecordType};
use edns_bench::measure::{ProbeConfig, ProbeRequest, ProbeTarget, Prober, Protocol, SpanLog};
use edns_bench::netsim::geo::cities;
use edns_bench::netsim::{AccessProfile, Host, HostId, SimRng, SimTime};
use edns_bench::report::TextTable;

fn median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Some(xs[xs.len() / 2])
}

fn main() {
    // Show the wire format first: a sealed query reveals nothing.
    let key = odoh::TargetKey::from_seed(7);
    let query = MessageBuilder::query(0, Name::parse("example.com").unwrap(), RecordType::A)
        .recursion_desired(true)
        .build()
        .encode()
        .unwrap();
    let sealed = odoh::seal_query(&key, &query, 42);
    println!(
        "ObliviousDoHMessage: type={} key_id={:02x?} payload={} B (plain query {} B + {} B KEM + {} B tag)\n",
        sealed.message_type,
        &sealed.key_id,
        sealed.encrypted_message.len(),
        query.len(),
        odoh::KEM_SHARE_LEN,
        odoh::AEAD_TAG_LEN,
    );
    println!("Relays available:");
    for r in relays::odoh_relays() {
        println!("  {} ({})", r.hostname, r.city.name);
    }

    // Measure both protocols from two vantage points.
    let prober = Prober::new();
    let targets = [
        "odoh-target.alekberg.net",
        "odoh-target-se.alekberg.net",
        "odoh-target-noads.alekberg.net",
    ];
    let vantages = [
        ("Frankfurt (near EU targets)", cities::FRANKFURT),
        ("Ohio (ocean away)", cities::COLUMBUS_OH),
    ];
    for (vantage_name, city) in vantages {
        println!("\n=== from {vantage_name} ===");
        let client = Host::in_city(HostId(0), "c", city, AccessProfile::cloud_vm());
        let relay = relays::nearest_relay(&client.location);
        println!("nearest relay: {} ({})\n", relay.hostname, relay.city.name);
        let mut t = TextTable::new([
            "Target",
            "direct DoH (ms)",
            "via ODoH relay (ms)",
            "overhead",
        ]);
        for hostname in targets {
            let mut medians = Vec::new();
            for protocol in [Protocol::DoH, Protocol::ODoH] {
                let mut target = ProbeTarget::from_entry(
                    edns_bench::catalog::resolvers::find(hostname).unwrap(),
                );
                let mut rng = SimRng::from_seed(3);
                let cfg = ProbeConfig {
                    protocol,
                    ..ProbeConfig::default()
                };
                let mut times = Vec::new();
                for i in 0..80 {
                    let o = prober
                        .probe(
                            &ProbeRequest {
                                cfg,
                                ..ProbeRequest::new(
                                    &client,
                                    &Name::parse("google.com").unwrap(),
                                    SimTime::from_nanos(i * 3_600_000_000_000),
                                )
                            },
                            &mut target,
                            &mut rng,
                            &mut SpanLog::disabled(),
                        )
                        .outcome;
                    if let Some(rt) = o.response_time() {
                        times.push(rt.as_millis_f64());
                    }
                }
                medians.push(median(times).unwrap_or(f64::NAN));
            }
            t.row([
                hostname.to_string(),
                format!("{:.1}", medians[0]),
                format!("{:.1}", medians[1]),
                format!("{:+.1} ms", medians[1] - medians[0]),
            ]);
        }
        println!("{}", t.render());
    }

    println!(
        "Privacy property: the relay learns the client address but sees only\n\
         sealed ObliviousDoHMessages; the target decrypts the query but only\n\
         ever talks to the relay. Performance property: the indirection costs\n\
         a few ms near the target but can *win* on cold transcontinental paths,\n\
         because the expensive TCP+TLS handshakes terminate at the nearby relay."
    );
}
