//! An allow on an allocating line outside any zone documents a cold site:
//! the traversal neither stops at it nor follows the calls on it, and
//! still finds what lies beyond.

impl Store {
    /// Clean for every zone: both allocations are sanctioned where they
    /// happen — one direct, one behind a call.
    pub fn upsert(&mut self, key: &Key) {
        match self.find(key) {
            Some(slot) => slot.touch(),
            // detlint:allow(deny-alloc-reach, the first insertion of a key owns a copy of it)
            None => self.slots.push(key.clone()),
        }
        // detlint:allow(deny-alloc-reach, the index is rebuilt once per thousand upserts)
        self.rebuild_index();
    }

    /// The sanctioned first insertion does not excuse the log line after
    /// it: `hot_leaky` is reported for the `format!`.
    pub fn upsert_and_log(&mut self, key: &Key) {
        // detlint:allow(deny-alloc-reach, the first insertion of a key owns a copy of it)
        self.slots.push(key.clone());
        self.last = format!("stored {}", self.slots.len());
    }

    fn rebuild_index(&mut self) {
        self.index = self.slots.iter().map(|k| k.to_string()).collect();
    }

    /// No zone reaches this: its allow sanctions nothing.
    pub fn export(&self) -> Vec<Key> {
        // detlint:allow(deny-alloc-reach, nothing hot calls export)
        self.slots.to_vec()
    }
}
