//! The recursive-resolution engine running at each resolver site: answer
//! from cache when possible, otherwise iterate root → TLD → authoritative
//! and pay the network round trips each referral costs.

use std::sync::Arc;

use dns_wire::{Name, RData, Rcode, RecordType};
use netsim::geo::{City, GeoPoint};
use netsim::{AccessProfile, Path, SimDuration, SimRng, SimTime};

use crate::authority::{AuthorityAnswer, AuthorityTree};
use crate::cache::RecordCache;
use crate::name_map::NameTypeMap;

/// The outcome of resolving one query at the recursive resolver.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolution {
    /// The response code.
    pub rcode: Rcode,
    /// Answer records (empty for NXDOMAIN/NODATA): the zone's own record
    /// set, shared through the cache, so an answer copies a pointer.
    pub records: Arc<[RData]>,
    /// Time spent querying upstream authorities (zero on cache hit).
    pub upstream_time: SimDuration,
    /// Whether the answer came from cache.
    pub cache_hit: bool,
}

/// A recursive resolver engine located at one site.
#[derive(Debug)]
pub struct RecursiveResolver {
    /// Where this resolver site is (drives upstream latencies).
    location: City,
    /// The path to each authority site queried so far, built on the first
    /// timed query to it: both ends are fixed, so one path serves them all.
    upstream_paths: Vec<(GeoPoint, Path)>,
    cache: RecordCache,
    /// RFC 2308 negative cache: names known not to exist, with expiry.
    negative: NameTypeMap<SimTime>,
    /// The empty record set of negative answers and cached referrals.
    no_records: Arc<[RData]>,
    /// Number of upstream exchanges performed (for tests/metrics).
    pub upstream_queries: u64,
}

/// Negative-caching TTL (RFC 2308 caps it at the zone SOA minimum; our
/// standard zones use 300 s).
const NEGATIVE_TTL: SimDuration = SimDuration::from_secs(300);

/// How long a TLD referral stays cached (resolvers keep them for days).
const REFERRAL_TTL: SimDuration = SimDuration::from_hours(48);

/// Bytes of a typical upstream UDP query / response.
const UPSTREAM_QUERY_BYTES: usize = 64;
const UPSTREAM_RESPONSE_BYTES: usize = 240;

impl RecursiveResolver {
    /// Creates a resolver engine at `location` with the given cache size.
    pub fn new(location: City, cache_capacity: usize) -> Self {
        RecursiveResolver {
            location,
            upstream_paths: Vec::new(),
            cache: RecordCache::new(cache_capacity),
            negative: NameTypeMap::new(),
            no_records: Arc::new([]),
            upstream_queries: 0,
        }
    }

    /// Where this resolver site is.
    pub fn location(&self) -> City {
        self.location
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Number of entries in the record cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// One round trip from this site to an authority at `target`, timed on
    /// `rng` — or only counted, when the caller has no use for the time.
    fn upstream_rtt(&mut self, target: City, rng: Option<&mut SimRng>) -> SimDuration {
        self.upstream_queries += 1;
        let Some(rng) = rng else {
            return SimDuration::ZERO;
        };
        let path = self.upstream_path(target.point);
        // Authorities are redundant; a lost packet costs one retry at a
        // conservative 400 ms timeout, after which a replica answers.
        match path.sample_rtt(UPSTREAM_QUERY_BYTES, UPSTREAM_RESPONSE_BYTES, rng) {
            Some(rtt) => rtt,
            None => {
                let retry = path
                    .sample_rtt(UPSTREAM_QUERY_BYTES, UPSTREAM_RESPONSE_BYTES, rng)
                    .unwrap_or(SimDuration::from_millis(60));
                SimDuration::from_millis(400) + retry
            }
        }
    }

    /// The datacenter-to-datacenter path from this site to `target`.
    fn upstream_path(&mut self, target: GeoPoint) -> &Path {
        let known = self.upstream_paths.iter().position(|(at, _)| *at == target);
        let index = known.unwrap_or_else(|| {
            let path = Path::between(
                self.location.point,
                AccessProfile::datacenter(),
                target,
                AccessProfile::datacenter(),
            );
            self.upstream_paths.push((target, path));
            self.upstream_paths.len() - 1
        });
        &self.upstream_paths[index].1
    }

    /// Resolves `qname`/`qtype` at simulated time `now`, drawing the
    /// upstream round trips from `rng`.
    pub fn resolve(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        authorities: &AuthorityTree,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Resolution {
        self.walk(qname, qtype, authorities, now, Some(rng))
    }

    /// Resolves `qname`/`qtype` for its effect on this resolver's state
    /// alone — what another user's query leaves behind for the next one.
    /// Exactly [`resolve`](Self::resolve) without the timing: cache
    /// entries and their expiries, the LRU order, the statistics, the
    /// negative cache and `upstream_queries` all depend on `now` and on
    /// what the authorities say, never on how long a hop took, so no
    /// round trip is sampled and no RNG is needed.
    pub fn prewarm(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        authorities: &AuthorityTree,
        now: SimTime,
    ) {
        self.walk(qname, qtype, authorities, now, None);
    }

    /// The resolution walk: cache, negative cache, root and TLD referrals,
    /// the leaf's answer, and the cache writes each step leaves. Upstream
    /// hops are timed when there is an `rng` to time them on.
    fn walk(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        authorities: &AuthorityTree,
        now: SimTime,
        mut rng: Option<&mut SimRng>,
    ) -> Resolution {
        if let Some(records) = self.cache.lookup(qname, qtype, now) {
            return Resolution {
                rcode: Rcode::NoError,
                records,
                upstream_time: SimDuration::ZERO,
                cache_hit: true,
            };
        }
        // RFC 2308 negative cache: a recent NXDOMAIN answers instantly.
        if let Some(&expiry) = self.negative.get(qname, qtype) {
            if expiry > now {
                return self.nxdomain(SimDuration::ZERO, true);
            }
            self.negative.remove(qname, qtype);
        }

        let mut upstream = SimDuration::ZERO;

        // Query the root (resolvers cache TLD referrals for days; charge a
        // root round trip only when the TLD referral is not cached).
        let tld_loc = match authorities.root_referral(qname) {
            AuthorityAnswer::Delegation { zone, ns_location } => {
                if self.cache.lookup(zone, RecordType::NS, now).is_none() {
                    upstream += self.upstream_rtt(authorities.root_location, rng.as_deref_mut());
                    let referral = Arc::clone(&self.no_records);
                    self.cache
                        .insert(zone, RecordType::NS, referral, REFERRAL_TTL, now);
                }
                ns_location
            }
            _ => {
                // Not a TLD the root knows: it is still asked, unless an
                // earlier referral for that label is cached.
                // detlint:allow(unwrap, a single label taken from an already-parsed name is always valid)
                // detlint:allow(deny-alloc-reach, the unknown-TLD path ends in NXDOMAIN; no probed name takes it)
                let tld = Name::from_labels(qname.labels().last()).expect("tld label");
                if self.cache.lookup(&tld, RecordType::NS, now).is_none() {
                    upstream += self.upstream_rtt(authorities.root_location, rng);
                }
                return self.learn_nxdomain(qname, qtype, now, upstream);
            }
        };

        // Query the TLD for the leaf delegation.
        upstream += self.upstream_rtt(tld_loc, rng.as_deref_mut());
        let Some(zone) = authorities.zone_for(qname) else {
            return self.learn_nxdomain(qname, qtype, now, upstream);
        };

        // Query the authoritative server.
        upstream += self.upstream_rtt(zone.location, rng);
        match zone.answer(qname, qtype) {
            AuthorityAnswer::Answer { records, ttl_secs } => {
                let records = Arc::clone(records);
                self.cache.insert(
                    qname,
                    qtype,
                    Arc::clone(&records),
                    SimDuration::from_secs(ttl_secs),
                    now,
                );
                Resolution {
                    rcode: Rcode::NoError,
                    records,
                    upstream_time: upstream,
                    cache_hit: false,
                }
            }
            _ => self.learn_nxdomain(qname, qtype, now, upstream),
        }
    }

    fn nxdomain(&self, upstream_time: SimDuration, cache_hit: bool) -> Resolution {
        Resolution {
            rcode: Rcode::NxDomain,
            records: Arc::clone(&self.no_records),
            upstream_time,
            cache_hit,
        }
    }

    /// An authority said the name does not exist: remember that, and
    /// answer NXDOMAIN after `upstream` spent finding out.
    fn learn_nxdomain(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        upstream: SimDuration,
    ) -> Resolution {
        self.negative.insert(qname, qtype, now + NEGATIVE_TTL);
        self.nxdomain(upstream, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::cities;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn cold_then_warm_resolution() {
        let auth = AuthorityTree::standard();
        let mut r = RecursiveResolver::new(cities::FRANKFURT, 1024);
        let mut rng = SimRng::from_seed(1);
        let cold = r.resolve(&n("google.com"), RecordType::A, &auth, at(0), &mut rng);
        assert_eq!(cold.rcode, Rcode::NoError);
        assert!(!cold.cache_hit);
        assert!(!cold.records.is_empty());
        assert!(cold.upstream_time > SimDuration::ZERO);
        // Root + TLD + auth = 3 upstream exchanges on a fully cold cache.
        assert_eq!(r.upstream_queries, 3);

        let warm = r.resolve(&n("google.com"), RecordType::A, &auth, at(1), &mut rng);
        assert!(warm.cache_hit);
        assert_eq!(warm.upstream_time, SimDuration::ZERO);
        assert_eq!(warm.records, cold.records);
        assert_eq!(r.upstream_queries, 3, "warm hit adds no upstream queries");
    }

    #[test]
    fn prewarm_leaves_what_a_resolution_leaves() {
        let auth = AuthorityTree::standard();
        let mut warmed = RecursiveResolver::new(cities::FRANKFURT, 1024);
        let mut resolved = RecursiveResolver::new(cities::FRANKFURT, 1024);
        let mut rng = SimRng::from_seed(6);
        for (name, secs) in [
            ("google.com", 0),
            ("nope.google.com", 1),
            ("amazon.com", 90),
        ] {
            warmed.prewarm(&n(name), RecordType::A, &auth, at(secs));
            resolved.resolve(&n(name), RecordType::A, &auth, at(secs), &mut rng);
        }
        assert_eq!(warmed.upstream_queries, 3 + 2 + 2);
        assert_eq!(warmed.upstream_queries, resolved.upstream_queries);
        assert_eq!(warmed.cache_stats(), resolved.cache_stats());
        assert_eq!(warmed.cache_len(), resolved.cache_len());
        // What it left answers the next query from cache, positive or
        // negative, exactly as the timed resolution's leavings do.
        for name in ["google.com", "nope.google.com", "amazon.com"] {
            let a = warmed.resolve(&n(name), RecordType::A, &auth, at(91), &mut rng);
            let b = resolved.resolve(&n(name), RecordType::A, &auth, at(91), &mut rng);
            assert!(a.cache_hit, "{name}");
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn tld_referral_is_cached_across_domains() {
        let auth = AuthorityTree::standard();
        let mut r = RecursiveResolver::new(cities::FRANKFURT, 1024);
        let mut rng = SimRng::from_seed(2);
        r.resolve(&n("google.com"), RecordType::A, &auth, at(0), &mut rng);
        let q_after_first = r.upstream_queries;
        assert_eq!(q_after_first, 3);
        // Second .com domain: root referral cached, so 2 new exchanges.
        r.resolve(&n("amazon.com"), RecordType::A, &auth, at(1), &mut rng);
        assert_eq!(r.upstream_queries, 5);
    }

    #[test]
    fn expired_entry_triggers_refetch() {
        let auth = AuthorityTree::standard();
        let mut r = RecursiveResolver::new(cities::FRANKFURT, 1024);
        let mut rng = SimRng::from_seed(3);
        // amazon.com has a 60 s TTL.
        r.resolve(&n("amazon.com"), RecordType::A, &auth, at(0), &mut rng);
        let res = r.resolve(&n("amazon.com"), RecordType::A, &auth, at(61), &mut rng);
        assert!(!res.cache_hit);
        assert!(res.upstream_time > SimDuration::ZERO);
    }

    #[test]
    fn nxdomain_for_unknown_tld_and_leaf() {
        let auth = AuthorityTree::standard();
        let mut r = RecursiveResolver::new(cities::SEOUL, 64);
        let mut rng = SimRng::from_seed(4);
        let res = r.resolve(&n("host.invalid"), RecordType::A, &auth, at(0), &mut rng);
        assert_eq!(res.rcode, Rcode::NxDomain);
        let res = r.resolve(
            &n("unknown-zone.com"),
            RecordType::A,
            &auth,
            at(1),
            &mut rng,
        );
        assert_eq!(res.rcode, Rcode::NxDomain);
    }

    #[test]
    fn nxdomain_is_negatively_cached() {
        let auth = AuthorityTree::standard();
        let mut r = RecursiveResolver::new(cities::FRANKFURT, 64);
        let mut rng = SimRng::from_seed(9);
        // First NXDOMAIN pays upstream round trips.
        let first = r.resolve(&n("nope.google.com"), RecordType::A, &auth, at(0), &mut rng);
        assert_eq!(first.rcode, Rcode::NxDomain);
        assert!(!first.cache_hit);
        assert!(first.upstream_time > SimDuration::ZERO);
        let queries_after_first = r.upstream_queries;
        // Within the negative TTL: instant, no new upstream queries.
        let second = r.resolve(
            &n("nope.google.com"),
            RecordType::A,
            &auth,
            at(10),
            &mut rng,
        );
        assert_eq!(second.rcode, Rcode::NxDomain);
        assert!(second.cache_hit);
        assert_eq!(second.upstream_time, SimDuration::ZERO);
        assert_eq!(r.upstream_queries, queries_after_first);
        // After the negative TTL (300 s): re-resolved upstream.
        let third = r.resolve(
            &n("nope.google.com"),
            RecordType::A,
            &auth,
            at(301),
            &mut rng,
        );
        assert!(!third.cache_hit);
        assert!(r.upstream_queries > queries_after_first);
    }

    #[test]
    fn negative_cache_is_per_type() {
        let auth = AuthorityTree::standard();
        let mut r = RecursiveResolver::new(cities::FRANKFURT, 64);
        let mut rng = SimRng::from_seed(10);
        r.resolve(&n("nope.google.com"), RecordType::A, &auth, at(0), &mut rng);
        // A different type for the same name is not negatively cached.
        let res = r.resolve(
            &n("nope.google.com"),
            RecordType::AAAA,
            &auth,
            at(1),
            &mut rng,
        );
        assert!(!res.cache_hit);
    }

    #[test]
    fn distant_resolver_pays_more_upstream_time() {
        let auth = AuthorityTree::standard();
        let mut near = RecursiveResolver::new(cities::ASHBURN_VA, 64);
        let mut far = RecursiveResolver::new(cities::SEOUL, 64);
        let mut rng = SimRng::from_seed(5);
        // Authorities for .com sit in Ashburn, so a Seoul resolver pays
        // trans-Pacific round trips on a cold miss.
        let near_t = near
            .resolve(&n("google.com"), RecordType::A, &auth, at(0), &mut rng)
            .upstream_time;
        let far_t = far
            .resolve(&n("google.com"), RecordType::A, &auth, at(0), &mut rng)
            .upstream_time;
        assert!(
            far_t.as_millis_f64() > near_t.as_millis_f64() * 5.0,
            "near {near_t} vs far {far_t}"
        );
    }
}
