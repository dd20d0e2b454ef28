//! The one-call reproduction API: run the campaign at a chosen scale, then
//! regenerate any of the paper's artifacts from it.

use measure::{Campaign, CampaignResult};
use netsim::Region;
use report::experiments::{availability, figures, headline, table1, tables23};
use report::{Dataset, FigurePanel};

pub use measure::Scale;

/// A completed reproduction: campaign output plus accessors for every paper
/// artifact.
#[derive(Debug)]
pub struct Reproduction {
    /// The analysed dataset.
    pub dataset: Dataset,
    /// The master seed used.
    pub seed: u64,
}

impl Reproduction {
    /// Runs the full-population campaign at `scale` across worker threads.
    pub fn run(seed: u64, scale: Scale) -> Self {
        Self::run_with_threads(seed, scale, available_threads())
    }

    /// Runs with an explicit worker-thread count (1 = serial).
    pub fn run_with_threads(seed: u64, scale: Scale, threads: usize) -> Self {
        Self::from_result(Campaign::new(scale.config(seed)).run_parallel(threads))
    }

    /// Runs over a resolver subset (for focused experiments).
    pub fn run_subset(seed: u64, scale: Scale, hostnames: &[&str]) -> Self {
        let entries = hostnames
            .iter()
            .filter_map(|h| catalog::resolvers::find(h))
            .collect();
        let result = Campaign::with_resolvers(scale.config(seed), entries).run();
        Self::from_result(result)
    }

    /// Wraps existing campaign output.
    pub fn from_result(result: CampaignResult) -> Self {
        Reproduction {
            seed: result.seed,
            dataset: Dataset::new(result.records),
        }
    }

    /// Total probes.
    pub fn probe_count(&self) -> usize {
        self.dataset.records.len()
    }

    /// Table 1 (static — browser matrix).
    pub fn table1(&self) -> String {
        table1::render()
    }

    /// The §4 availability analysis.
    pub fn availability(&self) -> availability::AvailabilityReport {
        availability::run(&self.dataset)
    }

    /// Figure 1: North-America resolvers from Ohio.
    pub fn figure1(&self) -> FigurePanel {
        figures::figure1(&self.dataset)
    }

    /// Figures 2–4: four panels for a region.
    pub fn figure(&self, region: Region) -> Vec<FigurePanel> {
        figures::figure(&self.dataset, region)
    }

    /// Table 2 rows (Asia, Seoul vs Frankfurt).
    pub fn table2(&self) -> Vec<tables23::GapRow> {
        tables23::table2(&self.dataset)
    }

    /// Table 3 rows (Europe, Frankfurt vs Seoul).
    pub fn table3(&self) -> Vec<tables23::GapRow> {
        tables23::table3(&self.dataset)
    }

    /// The §4 headline findings.
    pub fn headline(&self) -> headline::Findings {
        headline::run(&self.dataset)
    }

    /// The resolver × vantage × protocol metrics snapshot: counters, error
    /// tallies, and response / ping / per-phase latency histograms. Built
    /// from the canonically ordered records, so two same-seed reproductions
    /// snapshot identically.
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        measure::metrics_of(&self.dataset.records)
    }

    /// Temporal drift between the paper's EC2 measurement windows (the main
    /// Sep–Oct 2023 span and the Feb/Mar/Apr 2024 follow-ups). Meaningful
    /// for [`Scale::Paper`] campaigns, whose schedule contains those spans.
    pub fn drift_report(&self) -> String {
        use report::experiments::drift;
        use report::VantageGroup;
        // Window boundaries in days since the campaign epoch (2023-06-22):
        // EC2 main span day 89, follow-ups at days 231, 264 and 295.
        const WINDOWS: [u64; 4] = [89, 231, 264, 295];
        let mut out = String::new();
        for v in ["ec2-ohio", "ec2-frankfurt", "ec2-seoul"] {
            out.push_str(&drift::render(
                &self.dataset,
                &VantageGroup::Label(v),
                &WINDOWS,
                0.30,
            ));
            out.push('\n');
        }
        out
    }

    /// Renders every artifact into one report document.
    pub fn render_all(&self, figure_width: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.table1());
        out.push('\n');
        out.push_str(&availability::render(&self.dataset));
        out.push('\n');
        out.push_str("Figure 1:\n");
        out.push_str(&self.figure1().render(figure_width));
        for (label, region) in [
            ("Figure 2 (North America)", Region::NorthAmerica),
            ("Figure 3 (Europe)", Region::Europe),
            ("Figure 4 (Asia)", Region::Asia),
        ] {
            out.push_str(&format!("\n{label}:\n"));
            out.push_str(&figures::render(&self.dataset, region, figure_width));
        }
        out.push('\n');
        out.push_str(&tables23::render_table2(&self.dataset));
        out.push('\n');
        out.push_str(&tables23::render_table3(&self.dataset));
        out.push('\n');
        out.push_str(&headline::render(&self.dataset));
        out
    }
}

/// A sensible worker count for the current machine.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reproduction_over_subset() {
        let r = Reproduction::run_subset(
            3,
            Scale::Quick,
            &["dns.google", "doh.ffmuc.net", "dns.alidns.com"],
        );
        // 7 vantages × 3 resolvers × 4 rounds × 3 domains.
        assert_eq!(r.probe_count(), 7 * 3 * 4 * 3);
        let av = r.availability();
        assert!(av.successes > 0);
        let metrics = r.metrics();
        assert_eq!(metrics.total_probes() as usize, r.probe_count());
        assert_eq!(metrics.cells.len(), 7 * 3);
    }

    #[test]
    fn scales_order_by_size() {
        let q = Scale::Quick.config(1).probe_count(76);
        let s = Scale::Standard.config(1).probe_count(76);
        let p = Scale::Paper.config(1).probe_count(76);
        assert!(q < s && s < p, "{q} {s} {p}");
    }

    #[test]
    fn render_all_produces_every_artifact() {
        let r = Reproduction::run_subset(
            5,
            Scale::Quick,
            &[
                "dns.google",
                "dns.quad9.net",
                "dns.cloudflare.com",
                "ordns.he.net",
                "doh.ffmuc.net",
                "dns0.eu",
                "open.dns0.eu",
                "kids.dns0.eu",
                "dns.njal.la",
                "antivirus.bebasid.com",
                "dns.twnic.tw",
                "dnslow.me",
                "jp.tiar.app",
                "public.dns.iij.jp",
            ],
        );
        let doc = r.render_all(60);
        for needle in [
            "Table 1", "Figure 1", "Figure 3", "Table 2", "Table 3", "Headline",
        ] {
            assert!(doc.contains(needle), "missing {needle}");
        }
    }
}
