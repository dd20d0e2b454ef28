//! Shared helpers for the Criterion benches: canned campaigns and datasets
//! sized so each bench target regenerates its paper artifact in seconds.

#![forbid(unsafe_code)]

use measure::{Campaign, CampaignConfig};
use report::Dataset;

/// Resolvers that exercise every deployment class without probing all 76.
pub const BENCH_MIX: [&str; 12] = [
    "dns.google",
    "dns.quad9.net",
    "security.cloudflare-dns.com",
    "ordns.he.net",
    "freedns.controld.com",
    "dns.brahma.world",
    "dns0.eu",
    "doh.ffmuc.net",
    "dns.alidns.com",
    "dns.twnic.tw",
    "antivirus.bebasid.com",
    "chewbacca.meganerd.nl",
];

/// A campaign over a named subset at the given rounds-per-day.
pub fn campaign(seed: u64, rounds: u32, hostnames: &[&str]) -> Campaign {
    let entries = hostnames
        .iter()
        .filter_map(|h| catalog::resolvers::find(h))
        .collect();
    Campaign::with_resolvers(CampaignConfig::quick(seed, rounds), entries)
}

/// Runs a campaign into an analysable dataset.
pub fn dataset(seed: u64, rounds: u32, hostnames: &[&str]) -> Dataset {
    Dataset::new(campaign(seed, rounds, hostnames).run().records)
}

/// The regional populations each figure plots (region + mainstream refs).
pub fn region_hosts(region: netsim::Region) -> Vec<&'static str> {
    catalog::resolvers::all()
        .into_iter()
        .filter(|e| e.region() == region || e.mainstream)
        .map(|e| e.hostname)
        .collect()
}
