//! The resolver-side record cache: TTL expiry plus LRU eviction.
//!
//! The paper's methodology leans on caching — "it is reasonable to expect
//! that most people query sites that are already in cache ... the presence
//! of cached entries enables a more controlled experiment" — so the cache's
//! hit behaviour directly shapes measured response times.
//!
//! A probe of a popular name is a hit or an expired-entry refresh, so both
//! are allocation-free: lookups borrow the query name, record sets are
//! shared (`Arc<[RData]>`, the zone's own), and an entry that expires
//! leaves its key behind for the refetch to fill.

use std::sync::Arc;

use dns_wire::{Name, RData, RecordType};
use netsim::{SimDuration, SimTime};

use crate::name_map::NameTypeMap;

/// A cached answer: the records plus when they expire.
#[derive(Debug, Clone)]
struct Entry {
    records: Arc<[RData]>,
    expires: SimTime,
    /// LRU clock value at last touch; unique per entry, since every
    /// lookup and insert ticks the clock and touches at most one.
    last_used: u64,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned unexpired records.
    pub hits: u64,
    /// Lookups that found nothing (or only expired records).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped because their TTL lapsed.
    pub expirations: u64,
}

/// A TTL + LRU record cache keyed by `(name, type)`.
#[derive(Debug)]
pub struct RecordCache {
    entries: NameTypeMap<Entry>,
    capacity: usize,
    clock: u64,
    stats: CacheStats,
}

impl RecordCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        RecordCache {
            entries: NameTypeMap::new(),
            capacity,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Current number of live entries (including not-yet-collected expired
    /// ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up records for `(name, rtype)` at time `now`.
    pub fn lookup(&mut self, name: &Name, rtype: RecordType, now: SimTime) -> Option<Arc<[RData]>> {
        self.clock += 1;
        match self.entries.get_mut(name, rtype) {
            Some(e) if e.expires > now => {
                e.last_used = self.clock;
                self.stats.hits += 1;
                Some(Arc::clone(&e.records))
            }
            Some(_) => {
                // Expired in place: collect it.
                self.entries.remove(name, rtype);
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

    /// Inserts records with the given TTL, evicting the least-recently-used
    /// entry if at capacity.
    pub fn insert(
        &mut self,
        name: &Name,
        rtype: RecordType,
        records: impl Into<Arc<[RData]>>,
        ttl: SimDuration,
        now: SimTime,
    ) {
        self.clock += 1;
        let entry = Entry {
            records: records.into(),
            expires: now + ttl,
            last_used: self.clock,
        };
        let added = self.entries.insert(name, rtype, entry).is_none();
        if added && self.entries.len() > self.capacity {
            // Evict the LRU entry. The one just added carries the newest
            // stamp, so it is never the victim.
            let oldest = self.entries.values().map(|e| e.last_used).min();
            self.entries.retain(|e| Some(e.last_used) != oldest);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a(o: u8) -> Vec<RData> {
        vec![RData::A(Ipv4Addr::new(10, 0, 0, o))]
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn hit_before_ttl_miss_after() {
        let mut c = RecordCache::new(16);
        c.insert(
            &name("google.com"),
            RecordType::A,
            a(1),
            SimDuration::from_secs(300),
            at(0),
        );
        assert_eq!(
            c.lookup(&name("google.com"), RecordType::A, at(299))
                .as_deref(),
            Some(&a(1)[..])
        );
        assert_eq!(c.lookup(&name("google.com"), RecordType::A, at(300)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expirations), (1, 1, 1));
    }

    #[test]
    fn type_is_part_of_the_key() {
        let mut c = RecordCache::new(16);
        c.insert(
            &name("x.com"),
            RecordType::A,
            a(1),
            SimDuration::from_secs(60),
            at(0),
        );
        assert!(c.lookup(&name("x.com"), RecordType::AAAA, at(1)).is_none());
        assert!(c.lookup(&name("x.com"), RecordType::A, at(1)).is_some());
    }

    #[test]
    fn name_lookup_is_case_insensitive() {
        let mut c = RecordCache::new(16);
        c.insert(
            &name("Google.COM"),
            RecordType::A,
            a(1),
            SimDuration::from_secs(60),
            at(0),
        );
        assert!(c
            .lookup(&name("google.com"), RecordType::A, at(1))
            .is_some());
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        let mut c = RecordCache::new(2);
        c.insert(
            &name("a.com"),
            RecordType::A,
            a(1),
            SimDuration::from_secs(60),
            at(0),
        );
        c.insert(
            &name("b.com"),
            RecordType::A,
            a(2),
            SimDuration::from_secs(60),
            at(0),
        );
        // Touch a.com so b.com becomes the LRU victim.
        assert!(c.lookup(&name("a.com"), RecordType::A, at(1)).is_some());
        c.insert(
            &name("c.com"),
            RecordType::A,
            a(3),
            SimDuration::from_secs(60),
            at(1),
        );
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&name("a.com"), RecordType::A, at(2)).is_some());
        assert!(c.lookup(&name("b.com"), RecordType::A, at(2)).is_none());
        assert!(c.lookup(&name("c.com"), RecordType::A, at(2)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_ttl() {
        let mut c = RecordCache::new(4);
        c.insert(
            &name("a.com"),
            RecordType::A,
            a(1),
            SimDuration::from_secs(10),
            at(0),
        );
        c.insert(
            &name("a.com"),
            RecordType::A,
            a(2),
            SimDuration::from_secs(100),
            at(5),
        );
        assert_eq!(
            c.lookup(&name("a.com"), RecordType::A, at(50)).as_deref(),
            Some(&a(2)[..])
        );
    }

    #[test]
    fn expired_entry_is_collected_on_lookup_and_refreshed_by_insert() {
        let mut c = RecordCache::new(2);
        let ttl = SimDuration::from_secs(10);
        c.insert(&name("a.com"), RecordType::A, a(1), ttl, at(0));
        c.insert(&name("b.com"), RecordType::A, a(2), ttl, at(0));
        // The lookup that finds a.com expired collects it: the cache is
        // one entry short until the refetch lands, which evicts nothing.
        assert_eq!(c.lookup(&name("a.com"), RecordType::A, at(10)), None);
        assert_eq!(c.len(), 1);
        c.insert(&name("a.com"), RecordType::A, a(3), ttl, at(10));
        assert_eq!(c.len(), 2);
        let s = c.stats();
        assert_eq!((s.expirations, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(
            c.lookup(&name("a.com"), RecordType::A, at(11)).as_deref(),
            Some(&a(3)[..])
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        RecordCache::new(0);
    }
}
