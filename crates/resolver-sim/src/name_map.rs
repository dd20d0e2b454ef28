//! A `(name, type)`-keyed map that is looked up by `&Name`.
//!
//! A `BTreeMap<(Name, RecordType), V>` can only be probed with an owned
//! tuple, which costs a `Name` clone (two allocations: its labels and its
//! canonical key) on every lookup. Nesting by name and then by type lets
//! the record cache, the negative cache and the zones all borrow the query
//! name: a name carries a handful of types at most, so the inner level is
//! a linear scan of a short vector. Each step down the tree compares two
//! canonical keys, one `memcmp`.

use std::collections::BTreeMap;

use dns_wire::{Name, RecordType};

/// Values by owner name, then record type.
#[derive(Debug, Clone)]
pub(crate) struct NameTypeMap<V> {
    names: BTreeMap<Name, Vec<(RecordType, V)>>,
    len: usize,
}

impl<V> NameTypeMap<V> {
    pub(crate) fn new() -> Self {
        NameTypeMap {
            names: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of `(name, type)` entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, name: &Name, rtype: RecordType) -> Option<&V> {
        let types = self.names.get(name)?;
        types.iter().find(|(t, _)| *t == rtype).map(|(_, v)| v)
    }

    pub(crate) fn get_mut(&mut self, name: &Name, rtype: RecordType) -> Option<&mut V> {
        let types = self.names.get_mut(name)?;
        types.iter_mut().find(|(t, _)| *t == rtype).map(|(_, v)| v)
    }

    /// Sets the entry, returning the value it replaces. The name is cloned
    /// only when the map has never held it (or has since dropped it).
    pub(crate) fn insert(&mut self, name: &Name, rtype: RecordType, value: V) -> Option<V> {
        let types = match self.names.get_mut(name) {
            Some(types) => types,
            // detlint:allow(deny-alloc-reach, the first entry under a name owns a copy of it; refreshing the name's entries afterwards borrows the key)
            None => self.names.entry(name.clone()).or_default(),
        };
        match types.iter_mut().find(|(t, _)| *t == rtype) {
            Some((_, slot)) => Some(std::mem::replace(slot, value)),
            None => {
                types.push((rtype, value));
                self.len += 1;
                None
            }
        }
    }

    /// Removes the entry. The name's key stays behind, so an entry that is
    /// removed and set again (a cache entry expiring and being refetched)
    /// never re-clones the name; [`retain`](Self::retain) sweeps keys left
    /// with no entries.
    pub(crate) fn remove(&mut self, name: &Name, rtype: RecordType) -> Option<V> {
        let types = self.names.get_mut(name)?;
        let at = types.iter().position(|(t, _)| *t == rtype)?;
        self.len -= 1;
        Some(types.swap_remove(at).1)
    }

    /// Keeps the entries `keep` approves, and drops every name left with
    /// none.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&mut V) -> bool) {
        let mut len = 0;
        self.names.retain(|_, types| {
            types.retain_mut(|(_, v)| keep(v));
            len += types.len();
            !types.is_empty()
        });
        self.len = len;
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.names.values().flatten().map(|(_, v)| v)
    }

    /// True when any type is held under `name`.
    pub(crate) fn contains_name(&self, name: &Name) -> bool {
        self.names.get(name).is_some_and(|types| !types.is_empty())
    }

    /// The names holding at least one entry.
    pub(crate) fn names(&self) -> impl Iterator<Item = &Name> {
        self.names
            .iter()
            .filter(|(_, types)| !types.is_empty())
            .map(|(name, _)| name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn entries_are_per_name_and_type_and_case_insensitive() {
        let mut m = NameTypeMap::new();
        assert_eq!(m.insert(&n("a.com"), RecordType::A, 1), None);
        assert_eq!(m.insert(&n("a.com"), RecordType::AAAA, 2), None);
        assert_eq!(m.insert(&n("A.COM"), RecordType::A, 3), Some(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&n("a.com"), RecordType::A), Some(&3));
        assert_eq!(m.get(&n("a.com"), RecordType::TXT), None);
        assert_eq!(m.get(&n("b.com"), RecordType::A), None);
    }

    #[test]
    fn remove_keeps_the_key_until_retain_sweeps_it() {
        let mut m = NameTypeMap::new();
        m.insert(&n("a.com"), RecordType::A, 1);
        m.insert(&n("b.com"), RecordType::A, 2);
        assert_eq!(m.remove(&n("a.com"), RecordType::A), Some(1));
        assert_eq!(m.remove(&n("a.com"), RecordType::A), None);
        assert_eq!(m.len(), 1);
        assert!(!m.contains_name(&n("a.com")));
        assert_eq!(m.names().count(), 1);
        assert_eq!(m.names.len(), 2, "the emptied name keeps its key");
        m.retain(|_| true);
        assert_eq!(m.names.len(), 1, "retain sweeps emptied names");
        m.retain(|v| *v != 2);
        assert_eq!((m.len(), m.names.len()), (0, 0));
    }
}
