//! Availability accounting: success/error counts and error-class breakdown
//! — the paper's §4 "Are Non-Mainstream Resolvers Available?" analysis.

use std::collections::BTreeMap;

/// Success/error tallies for one grouping key (a resolver, a vantage, or
/// the whole campaign).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Availability {
    /// Successful probes.
    pub successes: u64,
    /// Failed probes by error label.
    pub errors: BTreeMap<String, u64>,
}

impl Availability {
    /// Records a success.
    pub fn success(&mut self) {
        self.successes += 1;
    }

    /// Records a failure with its error label. Allocates only on a
    /// label's first failure: `entry` would need an owned key every time.
    pub fn error(&mut self, label: &str) {
        match self.errors.get_mut(label) {
            Some(n) => *n += 1,
            None => {
                self.errors.insert(label.to_string(), 1);
            }
        }
    }

    /// Total failed probes.
    pub fn error_count(&self) -> u64 {
        self.errors.values().sum()
    }

    /// Total probes.
    pub fn total(&self) -> u64 {
        self.successes + self.error_count()
    }

    /// Fraction of probes that succeeded (1.0 when no probes ran).
    pub fn availability(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            1.0
        } else {
            self.successes as f64 / t as f64
        }
    }

    /// The most common error label, if any errors occurred.
    pub fn dominant_error(&self) -> Option<&str> {
        self.errors
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(k, _)| k.as_str())
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Availability) {
        self.successes += other.successes;
        for (k, v) in &other.errors {
            *self.errors.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// Per-key availability tracking (e.g. keyed by resolver hostname).
#[derive(Debug, Clone, Default)]
pub struct AvailabilityLedger {
    groups: BTreeMap<String, Availability>,
}

impl AvailabilityLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a success for `key`.
    pub fn success(&mut self, key: &str) {
        self.update(key, Availability::success);
    }

    /// Records an error for `key`.
    pub fn error(&mut self, key: &str, label: &str) {
        self.update(key, |a| a.error(label));
    }

    /// Applies `f` to the tally for `key`, creating it on the key's first
    /// use: the only call that allocates the key.
    fn update(&mut self, key: &str, f: impl FnOnce(&mut Availability)) {
        match self.groups.get_mut(key) {
            Some(a) => f(a),
            None => f(self.groups.entry(key.to_string()).or_default()),
        }
    }

    /// The tally for `key`.
    pub fn get(&self, key: &str) -> Option<&Availability> {
        self.groups.get(key)
    }

    /// Iterates `(key, tally)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Availability)> {
        self.groups.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The aggregate over every key.
    pub fn aggregate(&self) -> Availability {
        let mut total = Availability::default();
        for a in self.groups.values() {
            total.merge(a);
        }
        total
    }

    /// Keys whose availability is below `threshold`, worst first — the
    /// "unresponsive from a given vantage point" resolvers of §3.1.
    pub fn worst(&self, threshold: f64) -> Vec<(&str, f64)> {
        let mut out: Vec<(&str, f64)> = self
            .groups
            .iter()
            .map(|(k, a)| (k.as_str(), a.availability()))
            .filter(|(_, av)| *av < threshold)
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_rates() {
        let mut a = Availability::default();
        for _ in 0..95 {
            a.success();
        }
        for _ in 0..3 {
            a.error("connect_timeout");
        }
        a.error("tls_failure");
        a.error("connect_timeout");
        assert_eq!(a.total(), 100);
        assert_eq!(a.error_count(), 5);
        assert!((a.availability() - 0.95).abs() < 1e-12);
        assert_eq!(a.dominant_error(), Some("connect_timeout"));
    }

    #[test]
    fn empty_is_fully_available() {
        let a = Availability::default();
        assert_eq!(a.availability(), 1.0);
        assert_eq!(a.dominant_error(), None);
    }

    #[test]
    fn merge_adds_up() {
        let mut a = Availability::default();
        a.success();
        a.error("x");
        let mut b = Availability::default();
        b.success();
        b.error("x");
        b.error("y");
        a.merge(&b);
        assert_eq!(a.successes, 2);
        assert_eq!(a.errors["x"], 2);
        assert_eq!(a.errors["y"], 1);
    }

    #[test]
    fn ledger_grouping_and_aggregate() {
        let mut l = AvailabilityLedger::new();
        for _ in 0..9 {
            l.success("dns.google");
        }
        l.error("dns.google", "query_timeout");
        for _ in 0..2 {
            l.success("dead.example");
        }
        for _ in 0..8 {
            l.error("dead.example", "connect_timeout");
        }
        assert!((l.get("dns.google").unwrap().availability() - 0.9).abs() < 1e-12);
        let agg = l.aggregate();
        assert_eq!(agg.total(), 20);
        assert_eq!(agg.error_count(), 9);
    }

    #[test]
    fn worst_sorts_ascending() {
        let mut l = AvailabilityLedger::new();
        l.success("good");
        l.error("bad", "x");
        l.error("bad", "x");
        l.success("bad");
        l.error("awful", "x");
        let worst = l.worst(0.99);
        assert_eq!(worst[0].0, "awful");
        assert_eq!(worst[1].0, "bad");
        assert_eq!(worst.len(), 2);
    }
}
