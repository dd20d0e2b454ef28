//! The authoritative side of the DNS: a miniature root → TLD → authoritative
//! hierarchy the simulated recursive resolvers iterate against on cache
//! misses.
//!
//! Zones are held in-memory with real [`dns_wire`] record data; name-server
//! placement matters because a cache miss costs the recursive resolver real
//! (simulated) round trips to each level of the hierarchy.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use dns_wire::{Name, RData, RecordType};
use netsim::geo::{cities, City};

use crate::name_map::NameTypeMap;

/// What an authoritative server says about a query. Borrowed from the
/// tree: the recursion looks at an answer, it does not keep one (the
/// record set it caches is the zone's own, shared).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuthorityAnswer<'a> {
    /// The server is authoritative and has records.
    Answer {
        /// The records.
        records: &'a Arc<[RData]>,
        /// Their TTL in seconds.
        ttl_secs: u64,
    },
    /// The server is authoritative and the name does not exist.
    NxDomain,
    /// The server delegates to a child zone.
    Delegation {
        /// The delegated zone apex.
        zone: &'a Name,
        /// Where the child zone's name server lives (for latency).
        ns_location: City,
    },
}

/// One zone: its apex, its records, and where its name servers sit.
#[derive(Debug, Clone)]
pub struct Zone {
    /// Zone apex name.
    pub apex: Name,
    /// Name-server location (one representative site).
    pub location: City,
    /// Records by (relative or absolute) owner name and type.
    records: NameTypeMap<(Arc<[RData]>, u64)>,
    /// `*.apex`, the owner of wildcard record sets; `None` when the apex
    /// is too long to take another label.
    star: Option<Name>,
    /// The empty record set a NODATA answer carries.
    no_data: Arc<[RData]>,
}

impl Zone {
    /// Creates an empty zone.
    pub fn new(apex: Name, location: City) -> Self {
        Zone {
            star: apex.child("*").ok(),
            apex,
            location,
            records: NameTypeMap::new(),
            no_data: Arc::new([]),
        }
    }

    /// Adds a record set.
    pub fn add(&mut self, owner: Name, rtype: RecordType, records: Vec<RData>, ttl_secs: u64) {
        self.records
            .insert(&owner, rtype, (records.into(), ttl_secs));
    }

    /// Adds a wildcard record set (`*.apex`, RFC 1034 §4.3.3): synthesised
    /// for any name under the apex that has no explicit records.
    pub fn add_wildcard(&mut self, rtype: RecordType, records: Vec<RData>, ttl_secs: u64) {
        // detlint:allow(unwrap, a single-asterisk label always fits the 63-octet limit)
        let star = self.star.clone().expect("wildcard label fits");
        self.add(star, rtype, records, ttl_secs);
    }

    fn lookup(&self, qname: &Name, qtype: RecordType) -> Option<&(Arc<[RData]>, u64)> {
        if let Some(hit) = self.records.get(qname, qtype) {
            return Some(hit);
        }
        // Wildcard synthesis: only when no explicit records exist for the
        // name and the name sits strictly below the apex.
        if !self.contains_name(qname) && qname != &self.apex {
            return self.records.get(self.star.as_ref()?, qtype);
        }
        None
    }

    fn contains_name(&self, qname: &Name) -> bool {
        self.records.contains_name(qname)
    }

    fn has_wildcard(&self) -> bool {
        self.records
            .names()
            .any(|n| n.labels().next() == Some(b"*".as_slice()))
    }

    /// What this zone's authoritative server answers.
    pub fn answer(&self, qname: &Name, qtype: RecordType) -> AuthorityAnswer<'_> {
        match self.lookup(qname, qtype) {
            Some((records, ttl_secs)) => AuthorityAnswer::Answer {
                records,
                ttl_secs: *ttl_secs,
            },
            // NODATA vs NXDOMAIN distinction: if any type exists for the
            // name (or a wildcard covers it), answer empty.
            None if self.contains_name(qname) || (self.has_wildcard() && qname != &self.apex) => {
                AuthorityAnswer::Answer {
                    records: &self.no_data,
                    ttl_secs: 300,
                }
            }
            None => AuthorityAnswer::NxDomain,
        }
    }
}

/// The full hierarchy: root, TLDs, and leaf zones.
#[derive(Debug)]
pub struct AuthorityTree {
    /// Leaf zones by apex.
    zones: Vec<Zone>,
    /// TLD name → representative TLD-server location.
    tlds: BTreeMap<Name, City>,
    /// Root server location (anycast in reality; one site suffices since
    /// recursive resolvers prime the root hint rarely).
    pub root_location: City,
}

impl AuthorityTree {
    /// Builds an empty tree with root servers in Ashburn.
    pub fn new() -> Self {
        AuthorityTree {
            zones: Vec::new(),
            tlds: BTreeMap::new(),
            root_location: cities::ASHBURN_VA,
        }
    }

    /// Registers a TLD with its server location.
    pub fn add_tld(&mut self, tld: &str, location: City) {
        self.tlds
            // detlint:allow(unwrap, TLDs are registered from fixed literals in standard(); a bad one is a programming error)
            .insert(Name::parse(tld).expect("valid tld"), location);
    }

    /// Registers a leaf zone.
    pub fn add_zone(&mut self, zone: Zone) {
        self.zones.push(zone);
    }

    /// Finds the most specific zone containing `qname` — the leaf zone a
    /// TLD server's referral names.
    pub fn zone_for(&self, qname: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| qname.is_subdomain_of(&z.apex))
            .max_by_key(|z| z.apex.label_count())
    }

    /// What the root servers answer: a delegation to the TLD, or NXDOMAIN
    /// for unknown TLDs. The TLD is the single-label name `qname` sits
    /// under, found among a handful of keys in place: no name is built.
    pub fn root_referral(&self, qname: &Name) -> AuthorityAnswer<'_> {
        let is_tld_of_qname = |tld: &Name| tld.label_count() == 1 && qname.is_subdomain_of(tld);
        match self.tlds.iter().find(|(tld, _)| is_tld_of_qname(tld)) {
            Some((zone, loc)) => AuthorityAnswer::Delegation {
                zone,
                ns_location: *loc,
            },
            None => AuthorityAnswer::NxDomain,
        }
    }

    /// What the leaf authoritative server answers.
    pub fn authoritative_answer(&self, qname: &Name, qtype: RecordType) -> AuthorityAnswer<'_> {
        match self.zone_for(qname) {
            Some(z) => z.answer(qname, qtype),
            None => AuthorityAnswer::NxDomain,
        }
    }

    /// Parses a compile-time-constant name used by the built-in zone data.
    fn static_name(s: &str) -> Name {
        // detlint:allow(unwrap, zone literals are fixed at compile time and covered by tests)
        Name::parse(s).expect("static zone name parses")
    }

    /// Builds the hierarchy the measurement campaign queries: `.com`, `.org`
    /// and the three measured domains — google.com, amazon.com,
    /// wikipedia.com (the paper §3.2) — plus wikipedia.org for realism.
    pub fn standard() -> Self {
        let mut t = AuthorityTree::new();
        t.add_tld("com", cities::ASHBURN_VA);
        t.add_tld("org", cities::ASHBURN_VA);
        t.add_tld("net", cities::ASHBURN_VA);

        let mut google = Zone::new(Self::static_name("google.com"), cities::ASHBURN_VA);
        google.add(
            Self::static_name("google.com"),
            RecordType::A,
            vec![RData::A(Ipv4Addr::new(142, 250, 190, 78))],
            300,
        );
        google.add(
            Self::static_name("google.com"),
            RecordType::AAAA,
            vec![RData::Aaaa(
                // detlint:allow(unwrap, fixed IPv6 literal parses)
                "2607:f8b0:4009:819::200e".parse().expect("static ip"),
            )],
            300,
        );
        t.add_zone(google);

        let mut amazon = Zone::new(Self::static_name("amazon.com"), cities::ASHBURN_VA);
        amazon.add(
            Self::static_name("amazon.com"),
            RecordType::A,
            vec![
                RData::A(Ipv4Addr::new(205, 251, 242, 103)),
                RData::A(Ipv4Addr::new(52, 94, 236, 248)),
                RData::A(Ipv4Addr::new(54, 239, 28, 85)),
            ],
            60,
        );
        t.add_zone(amazon);

        let mut wikipedia = Zone::new(Self::static_name("wikipedia.com"), cities::ASHBURN_VA);
        wikipedia.add(
            Self::static_name("wikipedia.com"),
            RecordType::A,
            vec![RData::A(Ipv4Addr::new(208, 80, 154, 232))],
            600,
        );
        t.add_zone(wikipedia);

        let mut wikipedia_org = Zone::new(Self::static_name("wikipedia.org"), cities::AMSTERDAM);
        wikipedia_org.add(
            Self::static_name("wikipedia.org"),
            RecordType::A,
            vec![RData::A(Ipv4Addr::new(91, 198, 174, 192))],
            600,
        );
        t.add_zone(wikipedia_org);

        // example.com with a wildcard: synthetic workloads (Zipf domain
        // universes like site-0042.example.com) resolve through it.
        let mut example = Zone::new(Self::static_name("example.com"), cities::LOS_ANGELES);
        example.add(
            Self::static_name("example.com"),
            RecordType::A,
            vec![RData::A(Ipv4Addr::new(93, 184, 216, 34))],
            3600,
        );
        example.add_wildcard(
            RecordType::A,
            vec![RData::A(Ipv4Addr::new(93, 184, 216, 34))],
            300,
        );
        t.add_zone(example);

        // Third-party web zones for the page-load experiments (CDN, ads,
        // telemetry, embeds) — all wildcarded.
        t.add_tld("io", cities::ASHBURN_VA);
        for (apex, city, a) in [
            ("example-static.net", cities::ASHBURN_VA, [151, 101, 1, 6]),
            ("example-exchange.com", cities::NEW_YORK, [34, 120, 8, 9]),
            ("example-metrics.io", cities::FREMONT_CA, [104, 16, 2, 3]),
            ("example-social.org", cities::AMSTERDAM, [157, 240, 1, 35]),
        ] {
            let mut z = Zone::new(Self::static_name(apex), city);
            let ip = Ipv4Addr::new(a[0], a[1], a[2], a[3]);
            z.add(
                Self::static_name(apex),
                RecordType::A,
                vec![RData::A(ip)],
                300,
            );
            z.add_wildcard(RecordType::A, vec![RData::A(ip)], 300);
            t.add_zone(z);
        }
        t
    }
}

impl Default for AuthorityTree {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn root_delegates_known_tlds() {
        let t = AuthorityTree::standard();
        match t.root_referral(&n("google.com")) {
            AuthorityAnswer::Delegation { zone, .. } => assert_eq!(zone, &n("com")),
            other => panic!("expected delegation, got {other:?}"),
        }
        assert_eq!(
            t.root_referral(&n("foo.invalid")),
            AuthorityAnswer::NxDomain
        );
    }

    #[test]
    fn tld_delegates_to_leaf_zone() {
        let t = AuthorityTree::standard();
        let leaf = t.zone_for(&n("www.google.com")).expect("delegation");
        assert_eq!(leaf.apex, n("google.com"));
        assert!(t.zone_for(&n("no-such-domain.com")).is_none());
    }

    #[test]
    fn authoritative_answers_for_measured_domains() {
        let t = AuthorityTree::standard();
        for d in ["google.com", "amazon.com", "wikipedia.com"] {
            match t.authoritative_answer(&n(d), RecordType::A) {
                AuthorityAnswer::Answer { records, ttl_secs } => {
                    assert!(!records.is_empty(), "{d} should have A records");
                    assert!(ttl_secs > 0);
                }
                other => panic!("{d}: expected answer, got {other:?}"),
            }
        }
    }

    #[test]
    fn nodata_for_existing_name_wrong_type() {
        let t = AuthorityTree::standard();
        // amazon.com exists but we only loaded A records.
        match t.authoritative_answer(&n("amazon.com"), RecordType::TXT) {
            AuthorityAnswer::Answer { records, .. } => assert!(records.is_empty()),
            other => panic!("expected empty answer (NODATA), got {other:?}"),
        }
    }

    #[test]
    fn nxdomain_for_unknown_leaf() {
        let t = AuthorityTree::standard();
        assert_eq!(
            t.authoritative_answer(&n("nope.google.com"), RecordType::A),
            AuthorityAnswer::NxDomain
        );
    }

    #[test]
    fn most_specific_zone_wins() {
        let mut t = AuthorityTree::standard();
        let mut sub = Zone::new(n("maps.google.com"), cities::FRANKFURT);
        sub.add(
            n("maps.google.com"),
            RecordType::A,
            vec![RData::A(Ipv4Addr::new(1, 2, 3, 4))],
            60,
        );
        t.add_zone(sub);
        let z = t.zone_for(&n("maps.google.com")).unwrap();
        assert_eq!(z.apex, n("maps.google.com"));
        // Parent still serves the apex.
        let z = t.zone_for(&n("google.com")).unwrap();
        assert_eq!(z.apex, n("google.com"));
    }

    #[test]
    fn wildcard_synthesises_answers_below_the_apex() {
        let t = AuthorityTree::standard();
        for sub in ["site-0001.example.com", "deep.nested.example.com"] {
            match t.authoritative_answer(&n(sub), RecordType::A) {
                AuthorityAnswer::Answer { records, .. } => {
                    assert!(!records.is_empty(), "{sub} should match the wildcard");
                }
                other => panic!("{sub}: {other:?}"),
            }
        }
        // Explicit records still win at the apex, and the wildcard never
        // covers the apex itself for other types (NODATA).
        match t.authoritative_answer(&n("example.com"), RecordType::TXT) {
            AuthorityAnswer::Answer { records, .. } => assert!(records.is_empty()),
            other => panic!("apex TXT: {other:?}"),
        }
        // Wildcard NODATA for types it doesn't define.
        match t.authoritative_answer(&n("x.example.com"), RecordType::MX) {
            AuthorityAnswer::Answer { records, .. } => assert!(records.is_empty()),
            other => panic!("wildcard MX: {other:?}"),
        }
    }

    #[test]
    fn explicit_name_shadows_wildcard() {
        let mut t = AuthorityTree::standard();
        let mut z = Zone::new(n("w.test"), cities::FRANKFURT);
        t.add_tld("test", cities::ASHBURN_VA);
        z.add_wildcard(RecordType::A, vec![RData::A(Ipv4Addr::new(1, 1, 1, 1))], 60);
        z.add(n("special.w.test"), RecordType::TXT, vec![], 60);
        t.add_zone(z);
        // special.w.test exists (TXT) so the wildcard must NOT synthesise A.
        match t.authoritative_answer(&n("special.w.test"), RecordType::A) {
            AuthorityAnswer::Answer { records, .. } => {
                assert!(records.is_empty(), "explicit name shadows wildcard");
            }
            other => panic!("{other:?}"),
        }
        // Unrelated names still match the wildcard.
        match t.authoritative_answer(&n("other.w.test"), RecordType::A) {
            AuthorityAnswer::Answer { records, .. } => assert!(!records.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aaaa_records_present_for_google() {
        let t = AuthorityTree::standard();
        match t.authoritative_answer(&n("google.com"), RecordType::AAAA) {
            AuthorityAnswer::Answer { records, .. } => {
                assert!(matches!(records[0], RData::Aaaa(_)));
            }
            other => panic!("{other:?}"),
        }
    }
}
