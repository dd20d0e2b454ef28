//! Dataset views over campaign records: filtering by vantage group and
//! resolver, extracting response-time and ping series, medians.

use measure::{ProbeOutcome, ProbeRecord};
use netsim::Region;

/// A vantage-point grouping for analysis.
///
/// The paper aggregates its four home devices into one "U.S. Home Networks"
/// panel and keeps each EC2 instance separate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VantageGroup {
    /// All `home-*` devices.
    Home,
    /// A single vantage by label (e.g. `"ec2-ohio"`).
    Label(&'static str),
}

impl VantageGroup {
    /// Whether a record's vantage label belongs to this group.
    pub fn matches(&self, label: &str) -> bool {
        match self {
            VantageGroup::Home => label.starts_with("home-"),
            VantageGroup::Label(l) => label == *l,
        }
    }

    /// Human-readable panel title.
    pub fn title(&self) -> &'static str {
        match self {
            VantageGroup::Home => "U.S. Home Networks",
            VantageGroup::Label("ec2-ohio") => "Ohio EC2",
            VantageGroup::Label("ec2-frankfurt") => "Frankfurt EC2",
            VantageGroup::Label("ec2-seoul") => "Seoul EC2",
            VantageGroup::Label(l) => l,
        }
    }

    /// The four panels of each paper figure, in sub-figure order.
    pub fn panels() -> [VantageGroup; 4] {
        [
            VantageGroup::Home,
            VantageGroup::Label("ec2-ohio"),
            VantageGroup::Label("ec2-frankfurt"),
            VantageGroup::Label("ec2-seoul"),
        ]
    }
}

/// An analysable set of probe records.
#[derive(Debug)]
pub struct Dataset {
    /// The records.
    pub records: Vec<ProbeRecord>,
}

impl Dataset {
    /// Wraps campaign output.
    pub fn new(records: Vec<ProbeRecord>) -> Self {
        Dataset { records }
    }

    /// Distinct resolver hostnames present, sorted.
    pub fn resolvers(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .records
            .iter()
            .map(|r| r.resolver().to_string())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Records for one (group, resolver) cell.
    pub fn cell<'a>(
        &'a self,
        group: &'a VantageGroup,
        resolver: &'a str,
    ) -> impl Iterator<Item = &'a ProbeRecord> {
        self.records
            .iter()
            .filter(move |r| r.resolver() == resolver && group.matches(r.vantage()))
    }

    /// Successful end-to-end response times in milliseconds.
    pub fn response_series(&self, group: &VantageGroup, resolver: &str) -> Vec<f64> {
        self.cell(group, resolver)
            .filter_map(|r| r.outcome.response_time())
            .map(|d| d.as_millis_f64())
            .collect()
    }

    /// ICMP round-trip times in milliseconds (absent for ping-filtered
    /// resolvers).
    pub fn ping_series(&self, group: &VantageGroup, resolver: &str) -> Vec<f64> {
        self.cell(group, resolver)
            .filter_map(|r| r.ping())
            .map(|d| d.as_millis_f64())
            .collect()
    }

    /// Median response time for a cell, if any probe succeeded.
    pub fn median_response_ms(&self, group: &VantageGroup, resolver: &str) -> Option<f64> {
        edns_stats::median(&self.response_series(group, resolver))
    }

    /// Resolver hostnames the paper's figure for `region` plots: resolvers
    /// geolocated there, plus the mainstream reference set ("mainstream
    /// resolvers are shown in boldface across all three sub-figures").
    pub fn figure_rows(&self, region: Region) -> Vec<String> {
        let mut rows: Vec<String> = self
            .records
            .iter()
            .filter(|r| r.resolver_region == region || r.mainstream)
            .map(|r| r.resolver().to_string())
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Rows of a figure panel ordered by ascending median response time
    /// (resolvers with no successes sink to the bottom).
    pub fn panel_order(&self, region: Region, group: &VantageGroup) -> Vec<String> {
        let mut rows: Vec<(String, f64)> = self
            .figure_rows(region)
            .into_iter()
            .map(|r| {
                let m = self.median_response_ms(group, &r).unwrap_or(f64::INFINITY);
                (r, m)
            })
            .collect();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        rows.into_iter().map(|(r, _)| r).collect()
    }

    /// Success / failure counts.
    pub fn availability(&self) -> edns_stats::Availability {
        let mut a = edns_stats::Availability::default();
        for r in &self.records {
            match &r.outcome {
                ProbeOutcome::Success { .. } => a.success(),
                ProbeOutcome::Failure { kind, .. } => a.error(kind.label()),
            }
        }
        a
    }

    /// Retry-layer outcome tallies: probes that failed at least once but
    /// recovered within their retry budget, and probes that exhausted it.
    /// Both are zero for datasets recorded with retries disabled, whose
    /// records carry no attempt accounting.
    pub fn retry_outcomes(&self) -> (u64, u64) {
        let mut recovered = 0u64;
        let mut exhausted = 0u64;
        for r in &self.records {
            if let Some(retry) = &r.retry {
                recovered += u64::from(retry.recovered(&r.outcome));
                exhausted += u64::from(retry.exhausted(&r.outcome));
            }
        }
        (recovered, exhausted)
    }

    /// Per-resolver availability ledger.
    pub fn availability_by_resolver(&self) -> edns_stats::AvailabilityLedger {
        let mut l = edns_stats::AvailabilityLedger::new();
        for r in &self.records {
            match &r.outcome {
                ProbeOutcome::Success { .. } => l.success(r.resolver()),
                ProbeOutcome::Failure { kind, .. } => l.error(r.resolver(), kind.label()),
            }
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::{Campaign, CampaignConfig};

    fn dataset() -> Dataset {
        let entries = ["dns.google", "doh.ffmuc.net", "dns.alidns.com"]
            .into_iter()
            .map(|h| catalog::resolvers::find(h).unwrap())
            .collect();
        let result = Campaign::with_resolvers(CampaignConfig::quick(5, 4), entries).run();
        Dataset::new(result.records)
    }

    #[test]
    fn groups_match_labels() {
        assert!(VantageGroup::Home.matches("home-3"));
        assert!(!VantageGroup::Home.matches("ec2-ohio"));
        assert!(VantageGroup::Label("ec2-ohio").matches("ec2-ohio"));
        assert_eq!(VantageGroup::panels().len(), 4);
        assert_eq!(VantageGroup::Home.title(), "U.S. Home Networks");
    }

    #[test]
    fn series_extraction() {
        let d = dataset();
        let home = d.response_series(&VantageGroup::Home, "dns.google");
        // 4 home devices × 4 rounds × 3 domains, minus rare failures.
        assert!(home.len() > 40, "{}", home.len());
        assert!(home.iter().all(|&x| x > 0.0));
        let ping = d.ping_series(&VantageGroup::Label("ec2-ohio"), "dns.google");
        assert!(!ping.is_empty());
    }

    #[test]
    fn medians_reflect_distance() {
        let d = dataset();
        let ohio = &VantageGroup::Label("ec2-ohio");
        let google = d.median_response_ms(ohio, "dns.google").unwrap();
        let ffmuc = d.median_response_ms(ohio, "doh.ffmuc.net").unwrap();
        assert!(ffmuc > google, "Munich unicast {ffmuc} vs anycast {google}");
    }

    #[test]
    fn figure_rows_include_region_plus_mainstream() {
        let d = dataset();
        let rows = d.figure_rows(Region::Europe);
        assert!(rows.contains(&"doh.ffmuc.net".to_string()), "EU resolver");
        assert!(rows.contains(&"dns.google".to_string()), "mainstream ref");
        assert!(
            !rows.contains(&"dns.alidns.com".to_string()),
            "non-mainstream Asia resolver must not appear in the EU figure"
        );
    }

    #[test]
    fn panel_order_is_fastest_first() {
        let d = dataset();
        let order = d.panel_order(Region::Europe, &VantageGroup::Label("ec2-frankfurt"));
        let medians: Vec<f64> = order
            .iter()
            .map(|r| {
                d.median_response_ms(&VantageGroup::Label("ec2-frankfurt"), r)
                    .unwrap_or(f64::INFINITY)
            })
            .collect();
        for w in medians.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn availability_tallies() {
        let d = dataset();
        let a = d.availability();
        assert_eq!(a.total() as usize, d.records.len());
        let ledger = d.availability_by_resolver();
        assert!(ledger.get("dns.google").unwrap().availability() > 0.95);
    }
}
