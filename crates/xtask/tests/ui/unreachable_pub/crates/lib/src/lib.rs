//! The `unreachable_pub` report: `pub` fns outside test regions that no
//! other non-test fn calls. A report, never a finding — `expected` stays
//! empty and the list lives in `unreachable_pub.expected`.

pub struct Cache;

impl Cache {
    /// Called from `serve`: reachable.
    pub fn lookup(&self) -> u32 {
        1
    }

    /// Only the unit test below calls it: listed.
    pub fn hit_ratio(&self) -> f64 {
        0.0
    }

    /// Not `pub` to other crates, so rustc's dead-code lint owns it.
    pub(crate) fn purge(&self) {}
}

impl Default for Cache {
    /// A trait-impl method takes the trait's visibility: never listed.
    fn default() -> Self {
        Cache
    }
}

/// Nothing calls the entry point: listed.
pub fn serve(cache: &Cache) -> u32 {
    cache.lookup() + decode_all(&[1]).len() as u32
}

/// Passed as an argument by path: reachable.
pub fn decode(b: &u8) -> u32 {
    u32::from(*b)
}

/// Called from `serve`: reachable.
pub fn decode_all(bytes: &[u8]) -> Vec<u32> {
    bytes.iter().map(self::decode).collect()
}

/// Calls only itself: listed.
pub fn countdown(n: u32) {
    if n > 0 {
        countdown(n - 1);
    }
}

/// Named only from the harness crate's library, which can link it:
/// reachable.
pub fn seeded() -> u32 {
    4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_starts_at_zero() {
        assert_eq!(Cache.hit_ratio(), 0.0);
    }
}
