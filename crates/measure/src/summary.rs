//! Streaming campaign analysis: per-(vantage, resolver) medians and
//! moments computed in one pass with O(1) memory per cell — how the tool
//! digests a paper-scale (multi-million-probe) campaign without holding
//! every record.

use std::collections::BTreeMap;

use edns_stats::{P2Quantile, RunningMoments};
use obs::Label;

use crate::results::{ProbeOutcome, ProbeRecord};

/// Streaming statistics for one (vantage, resolver) cell.
#[derive(Debug)]
pub struct CellStats {
    /// Successful probes.
    pub successes: u64,
    /// Failed probes.
    pub failures: u64,
    /// Streaming median of response times, ms.
    pub median: P2Quantile,
    /// Streaming p95 of response times, ms.
    pub p95: P2Quantile,
    /// Running moments of response times, ms.
    pub moments: RunningMoments,
    /// Running moments of ping RTTs, ms.
    pub ping: RunningMoments,
}

impl Default for CellStats {
    fn default() -> Self {
        CellStats {
            successes: 0,
            failures: 0,
            median: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            moments: RunningMoments::new(),
            ping: RunningMoments::new(),
        }
    }
}

impl CellStats {
    /// Probe availability for the cell.
    pub fn availability(&self) -> f64 {
        let total = self.successes + self.failures;
        if total == 0 {
            1.0
        } else {
            self.successes as f64 / total as f64
        }
    }
}

/// One-pass analyzer over probe records. Cells are keyed by interned
/// labels ([`Label`] orders like its string), so observing a record
/// allocates nothing once its cell exists.
#[derive(Debug, Default)]
pub struct StreamingSummary {
    cells: BTreeMap<(Label, Label), CellStats>,
}

impl StreamingSummary {
    /// Creates an empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one record.
    pub fn observe(&mut self, record: &ProbeRecord) {
        let key = (record.vantage_id(), record.resolver_id());
        let cell = self.cells.entry(key).or_default();
        match &record.outcome {
            ProbeOutcome::Success { timings, .. } => {
                cell.successes += 1;
                let ms = timings.total().as_millis_f64();
                cell.median.observe(ms);
                cell.p95.observe(ms);
                cell.moments.observe(ms);
            }
            ProbeOutcome::Failure { .. } => cell.failures += 1,
        }
        if let Some(p) = record.ping() {
            cell.ping.observe(p.as_millis_f64());
        }
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell for (vantage, resolver), if populated. Never interns:
    /// labels this summary has not seen cannot name a populated cell.
    pub fn cell(&self, vantage: &str, resolver: &str) -> Option<&CellStats> {
        let key = (Label::find(vantage)?, Label::find(resolver)?);
        self.cells.get(&key)
    }

    /// Iterates `(vantage, resolver, stats)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &CellStats)> {
        self.cells
            .iter()
            .map(|((v, r), c)| (v.as_str(), r.as_str(), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignResult};
    use crate::config::CampaignConfig;

    fn result() -> CampaignResult {
        let entries = ["dns.google", "doh.ffmuc.net", "chewbacca.meganerd.nl"]
            .into_iter()
            .map(|h| catalog::resolvers::find(h).unwrap())
            .collect();
        Campaign::with_resolvers(CampaignConfig::quick(3, 20), entries).run()
    }

    fn summary_of(result: &CampaignResult) -> StreamingSummary {
        let mut s = StreamingSummary::new();
        for r in &result.records {
            s.observe(r);
        }
        s
    }

    #[test]
    fn streaming_median_matches_batch_median_closely() {
        let result = result();
        let s = summary_of(&result);

        // Batch median for comparison.
        let batch: Vec<f64> = result
            .records
            .iter()
            .filter(|r| r.vantage() == "ec2-ohio" && r.resolver() == "dns.google")
            .filter_map(|r| r.outcome.response_time())
            .map(|d| d.as_millis_f64())
            .collect();
        let batch_median = edns_stats::median(&batch).unwrap();
        let cell = s.cell("ec2-ohio", "dns.google").unwrap();
        let streaming = cell.median.estimate().unwrap();
        assert!(
            (streaming - batch_median).abs() / batch_median < 0.10,
            "streaming {streaming} vs batch {batch_median}"
        );
    }

    #[test]
    fn availability_per_cell() {
        let s = summary_of(&result());
        let good = s.cell("ec2-ohio", "dns.google").unwrap();
        assert!(good.availability() > 0.95);
        let dead = s.cell("ec2-ohio", "chewbacca.meganerd.nl").unwrap();
        assert!(dead.availability() < 0.5);
        // 7 vantages × 3 resolvers.
        assert_eq!(s.len(), 21);
    }

    #[test]
    fn ping_moments_populated_for_responders() {
        let s = summary_of(&result());
        let cell = s.cell("ec2-frankfurt", "dns.google").unwrap();
        assert!(cell.ping.count() > 0);
        assert!(cell.ping.mean().unwrap() > 0.0);
    }

    #[test]
    fn p95_at_least_median() {
        let s = summary_of(&result());
        for (v, r, cell) in s.iter() {
            if let (Some(m), Some(p)) = (cell.median.estimate(), cell.p95.estimate()) {
                assert!(p >= m - 1e-6, "{v}/{r}: p95 {p} < median {m}");
            }
        }
    }

    #[test]
    fn empty_summary() {
        let s = StreamingSummary::new();
        assert!(s.is_empty());
        assert!(s.cell("x", "y").is_none());
    }
}
