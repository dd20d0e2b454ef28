//! Property-based tests: cache invariants, zone-file parser robustness,
//! recursive-resolution consistency, and the pre-warm differential (the
//! frontend's effects-only background query against the cloned-RNG
//! resolution it replaces).

use proptest::prelude::*;

use dns_wire::{Name, RData, RecordType};
use netsim::geo::cities;
use netsim::{LogNormal, SimDuration, SimRng, SimTime};
use resolver_sim::{
    parse_zone, AuthorityTree, RecordCache, RecursiveResolver, Resolution, ResolverServer,
    ServerProfile,
};

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// The frontend's query handling with the background pre-warm as it was
/// first written: a full resolution on a clone of the probe's RNG, its
/// answer and timing thrown away. `ResolverServer::handle_query_loaded`
/// must be indistinguishable from this — in what it returns, in what it
/// leaves in `engine`, and in where it leaves `rng`.
#[allow(clippy::too_many_arguments)]
fn handle_query_with_resolved_prewarm(
    engine: &mut RecursiveResolver,
    profile: &ServerProfile,
    qname: &Name,
    qtype: RecordType,
    authorities: &AuthorityTree,
    now: SimTime,
    slowdown: f64,
    offered_qps: f64,
    rng: &mut SimRng,
) -> (SimDuration, Resolution) {
    if rng.chance(profile.cache_warmth) {
        let mut warm_rng = rng.clone();
        let _ = engine.resolve(qname, qtype, authorities, now, &mut warm_rng);
    }
    let resolution = engine.resolve(qname, qtype, authorities, now, rng);

    let phase = (now.as_secs() as f64 % 86_400.0) / 86_400.0 * std::f64::consts::TAU;
    let load_factor = 1.0 + profile.load_amplitude * (phase - 1.0).sin().max(-0.8);
    let mut proc_ms =
        LogNormal::new(profile.proc_median_ms, profile.proc_sigma).sample(rng) * load_factor;
    if rng.chance(profile.overload_prob) {
        proc_ms += rng.exponential(profile.overload_mean_ms);
    }
    proc_ms *= slowdown.max(1.0);
    proc_ms += profile.queue().queue_delay_ms(offered_qps);
    let total = SimDuration::from_millis_f64(proc_ms) + resolution.upstream_time;
    (total, resolution)
}

/// The record cache as first written — one owned `(name, type)` key per
/// entry, an expired entry removed on the lookup that finds it and
/// re-inserted under a fresh key, the victim evicted before the newcomer
/// goes in. The model the in-place cache must agree with.
struct ModelCache {
    entries: std::collections::BTreeMap<(Name, RecordType), (u8, SimTime, u64)>,
    capacity: usize,
    clock: u64,
    stats: resolver_sim::CacheStats,
}

impl ModelCache {
    fn lookup(&mut self, name: &Name, rtype: RecordType, now: SimTime) -> Option<u8> {
        self.clock += 1;
        let key = (name.clone(), rtype);
        match self.entries.get_mut(&key) {
            Some(e) if e.1 > now => {
                e.2 = self.clock;
                self.stats.hits += 1;
                Some(e.0)
            }
            Some(_) => {
                self.entries.remove(&key);
                self.stats.expirations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, name: &Name, rtype: RecordType, value: u8, ttl: u64, now: SimTime) {
        self.clock += 1;
        let key = (name.clone(), rtype);
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.2)
                .map(|(k, _)| k.clone());
            self.entries.remove(&victim.unwrap());
            self.stats.evictions += 1;
        }
        let expires = now + SimDuration::from_secs(ttl);
        self.entries.insert(key, (value, expires, self.clock));
    }
}

/// Queried names: measured domains, other known zones, mixed case, the
/// wildcard zone, NXDOMAIN under a known zone and under a known TLD, an
/// unknown TLD, and the root.
const QUERY_NAMES: [&str; 12] = [
    "google.com",
    "amazon.com",
    "wikipedia.com",
    "wikipedia.org",
    "GooGle.COM",
    "AMAZON.com",
    "site-0042.example.com",
    "Site-0007.Example.com",
    "nope.google.com",
    "unknown-zone.com",
    "host.invalid",
    ".",
];

/// Seconds between consecutive queries: the same instant, inside every
/// TTL, past the 60 / 300 / 600 s record TTLs and the 300 s negative TTL,
/// a campaign round apart, and past the 48 h TLD referral.
const QUERY_GAPS: [u64; 9] = [0, 1, 30, 61, 301, 601, 18 * 60, 8 * 3600, 49 * 3600];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_never_exceeds_capacity(
        capacity in 1usize..32,
        ops in proptest::collection::vec(("[a-d]{1,3}\\.com", 0u64..100, 1u64..200), 1..200),
    ) {
        let mut cache = RecordCache::new(capacity);
        for (domain, time, ttl) in ops {
            let name = Name::parse(&domain).unwrap();
            cache.insert(
                &name,
                RecordType::A,
                vec![RData::A(std::net::Ipv4Addr::new(1, 2, 3, 4))],
                SimDuration::from_secs(ttl),
                at(time),
            );
            prop_assert!(cache.len() <= capacity, "len {} > capacity {}", cache.len(), capacity);
            let _ = cache.lookup(&name, RecordType::A, at(time));
        }
    }

    #[test]
    fn cache_agrees_with_the_remove_and_reinsert_model(
        capacity in 1usize..6,
        ops in proptest::collection::vec(
            (0u8..3, "[a-cA]{1,2}\\.(com|org)", any::<bool>(), 0u64..40, 1u64..60, any::<u8>()),
            1..300,
        ),
    ) {
        let mut cache = RecordCache::new(capacity);
        let mut model = ModelCache {
            entries: Default::default(),
            capacity,
            clock: 0,
            stats: Default::default(),
        };
        let mut time = 0;
        for (op, domain, aaaa, step, ttl, value) in ops {
            // Time mostly advances, and sometimes stands still.
            time += step / 2;
            let name = Name::parse(&domain).unwrap();
            let rtype = if aaaa { RecordType::AAAA } else { RecordType::A };
            match op {
                0 => {
                    let records = vec![RData::A(std::net::Ipv4Addr::new(10, 0, 0, value))];
                    cache.insert(&name, rtype, records, SimDuration::from_secs(ttl), at(time));
                    model.insert(&name, rtype, value, ttl, at(time));
                }
                _ => {
                    let got = cache.lookup(&name, rtype, at(time));
                    let expected = model.lookup(&name, rtype, at(time));
                    let expected = expected.map(|v| vec![RData::A(std::net::Ipv4Addr::new(10, 0, 0, v))]);
                    prop_assert_eq!(got.as_deref(), expected.as_deref());
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(cache.stats(), model.stats);
        }
    }

    #[test]
    fn cache_hit_implies_unexpired(
        ttl in 1u64..100,
        insert_at in 0u64..50,
        query_at in 0u64..200,
    ) {
        prop_assume!(query_at >= insert_at);
        let mut cache = RecordCache::new(8);
        let name = Name::parse("x.test").unwrap();
        cache.insert(
            &name,
            RecordType::A,
            vec![RData::A(std::net::Ipv4Addr::LOCALHOST)],
            SimDuration::from_secs(ttl),
            at(insert_at),
        );
        let hit = cache.lookup(&name, RecordType::A, at(query_at)).is_some();
        prop_assert_eq!(hit, query_at < insert_at + ttl);
    }

    #[test]
    fn zone_parser_never_panics(text in "\\PC{0,400}") {
        let _ = parse_zone(&text, Some("fuzz.test"), cities::SEOUL);
    }

    #[test]
    fn zone_parser_never_panics_on_liney_input(
        lines in proptest::collection::vec("[ -~]{0,60}", 0..20)
    ) {
        let text = lines.join("\n");
        let _ = parse_zone(&text, Some("fuzz.test"), cities::SEOUL);
    }

    #[test]
    fn resolution_is_deterministic_and_consistent(
        seed in any::<u64>(),
        domain in "[a-z]{1,8}\\.(com|org|invalid)",
    ) {
        let auth = AuthorityTree::standard();
        let qname = Name::parse(&domain).unwrap();
        let run = |s| {
            let mut r = RecursiveResolver::new(cities::FRANKFURT, 64);
            let mut rng = SimRng::from_seed(s);
            let first = r.resolve(&qname, RecordType::A, &auth, at(0), &mut rng);
            let second = r.resolve(&qname, RecordType::A, &auth, at(1), &mut rng);
            (first, second)
        };
        let (a1, a2) = run(seed);
        let (b1, b2) = run(seed);
        prop_assert_eq!(&a1, &b1);
        prop_assert_eq!(&a2, &b2);
        // The second query (1 s later) must be served from cache — positive
        // or negative — and agree with the first on rcode and records.
        prop_assert!(a2.cache_hit);
        prop_assert_eq!(a1.rcode, a2.rcode);
        prop_assert_eq!(a1.records, a2.records);
        prop_assert_eq!(a2.upstream_time, SimDuration::ZERO);
    }

    #[test]
    fn prewarm_for_effects_equals_prewarm_by_resolution(
        seed in any::<u64>(),
        capacity in 1usize..=8,
        warmth in 0usize..3,
        loaded in any::<bool>(),
        steps in proptest::collection::vec((0usize..12, 0usize..9, any::<bool>()), 1..60),
    ) {
        let auth = AuthorityTree::standard();
        let mut profile = ServerProfile::hobbyist();
        profile.cache_warmth = [0.0, 0.5, 1.0][warmth];
        let (slowdown, offered_qps) = if loaded {
            (3.0, profile.queue().capacity_qps() * 0.6)
        } else {
            (1.0, 0.0)
        };
        let mut server = ResolverServer::with_cache_capacity(cities::SEOUL, profile, capacity);
        let mut engine = RecursiveResolver::new(cities::SEOUL, capacity);
        let mut rng = SimRng::from_seed(seed);
        let mut reference_rng = SimRng::from_seed(seed);
        let mut now = 0;
        for (name, gap, aaaa) in steps {
            now += QUERY_GAPS[gap];
            let qname = Name::parse(QUERY_NAMES[name]).unwrap();
            let qtype = if aaaa { RecordType::AAAA } else { RecordType::A };
            let got = server.handle_query_loaded(
                &qname, qtype, &auth, at(now), slowdown, offered_qps, &mut rng,
            );
            let expected = handle_query_with_resolved_prewarm(
                &mut engine, &profile, &qname, qtype, &auth, at(now), slowdown, offered_qps,
                &mut reference_rng,
            );
            prop_assert_eq!(&got, &expected, "{} {:?} at {} s", qname, qtype, now);
            prop_assert_eq!(server.engine().cache_stats(), engine.cache_stats());
            prop_assert_eq!(server.engine().cache_len(), engine.cache_len());
            prop_assert_eq!(server.engine().upstream_queries, engine.upstream_queries);
            prop_assert!(engine.cache_len() <= capacity);
        }
        prop_assert_eq!(rng.uniform().to_bits(), reference_rng.uniform().to_bits());
    }
}
