//! A deterministic metrics registry: counters, gauges and fixed-bucket
//! latency histograms keyed by resolver × vantage × protocol.
//!
//! Cells live in a `BTreeMap`, so iteration — and therefore every exported
//! snapshot — is in a canonical order. Campaigns populate the registry from
//! their (canonically sorted) probe records, which makes snapshots of two
//! same-seed campaigns byte-identical in every rendered form.

use std::collections::{BTreeMap, HashMap};

use edns_stats::Buckets;

use crate::intern::Label;
use crate::phase::Phase;

/// Fixed latency bucket upper bounds, in milliseconds. A final implicit
/// +inf bucket catches everything above the last bound.
pub const LATENCY_BUCKETS_MS: [f64; 14] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0,
];

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge(f64);

impl Gauge {
    /// Sets the current value.
    pub fn set(&mut self, v: f64) {
        self.0 = v;
    }

    /// Current value.
    pub fn get(self) -> f64 {
        self.0
    }
}

/// A fixed-bucket latency histogram over [`LATENCY_BUCKETS_MS`]: the
/// `edns_stats` bucket core plus the exact sum of its observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    buckets: Buckets<{ LATENCY_BUCKETS_MS.len() + 1 }>,
    sum: f64,
}

impl Histogram {
    /// A histogram from what [`bucket_counts`](Self::bucket_counts) and
    /// [`sum`](Self::sum) read back: the count is the buckets' total, so a
    /// decoded histogram cannot disagree with itself.
    pub fn from_parts(counts: [u64; LATENCY_BUCKETS_MS.len() + 1], sum: f64) -> Histogram {
        let buckets = Buckets(counts);
        Histogram { buckets, sum }
    }

    /// Records one observation in milliseconds.
    pub fn observe(&mut self, ms: f64) {
        self.buckets.observe(&LATENCY_BUCKETS_MS, ms);
        self.sum += ms;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.total()
    }

    /// Sum of observations (ms).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (ms); zero when empty.
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum / n as f64,
        }
    }

    /// Per-bucket counts (last slot is the +inf bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets.0
    }

    /// Approximate quantile by linear interpolation inside the bucket; the
    /// open-ended overflow bucket reports its lower edge. Zero when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let last = LATENCY_BUCKETS_MS[LATENCY_BUCKETS_MS.len() - 1];
        let q = self.buckets.quantile(&LATENCY_BUCKETS_MS, q, last);
        q.unwrap_or(0.0)
    }

    /// A one-line sparkline of bucket occupancy plus summary statistics.
    pub fn render_compact(&self) -> String {
        const GLYPHS: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
        let max = self.bucket_counts().iter().copied().max().unwrap_or(0);
        let bar: String = self
            .bucket_counts()
            .iter()
            .map(|&c| {
                if max == 0 {
                    ' '
                } else {
                    let level = (c as f64 / max as f64 * (GLYPHS.len() - 1) as f64).ceil();
                    GLYPHS[level as usize]
                }
            })
            .collect();
        format!(
            "n={:<6} p50={:>8.2}ms p95={:>8.2}ms mean={:>8.2}ms |{bar}|",
            self.count(),
            self.quantile(0.50),
            self.quantile(0.95),
            self.mean(),
        )
    }
}

/// The resolver × vantage × protocol key of a metrics cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Resolver hostname.
    pub resolver: String,
    /// Vantage label.
    pub vantage: String,
    /// Protocol label (`do53`, `dot`, `doh`, `doq`, `odoh`).
    pub protocol: String,
}

/// Metrics for one (resolver, vantage, protocol) cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellMetrics {
    /// Probes issued.
    pub probes: Counter,
    /// Probes that returned a DNS answer.
    pub successes: Counter,
    /// Successful probes answered from the resolver cache.
    pub cache_hits: Counter,
    /// Failure counts by error label, sorted by label. Keys are static
    /// (interned) strings, so tallying a failure never allocates once its
    /// (cell, kind) entry exists.
    pub errors: BTreeMap<&'static str, u64>,
    /// End-to-end response time of successful probes.
    pub response_ms: Histogram,
    /// ICMP ping RTT, when measured.
    pub ping_ms: Histogram,
    /// Per-phase latency, indexed by [`Phase::index`].
    pub phase_ms: [Histogram; Phase::COUNT],
    /// Most recent successful response time (ms).
    pub last_response_ms: Gauge,
    /// Retried (non-final) attempt failures, attributed to the probe
    /// phase in which the failed attempt died, indexed by
    /// [`Phase::index`]. All zero when the retry layer is disabled.
    pub retries_by_phase: [Counter; Phase::COUNT],
    /// Probes that failed at least once but succeeded within budget.
    pub recovered: Counter,
    /// Probes that burned every retry attempt and still failed.
    pub exhausted: Counter,
}

impl CellMetrics {
    /// The histogram for `phase`.
    pub fn phase(&mut self, phase: Phase) -> &mut Histogram {
        &mut self.phase_ms[phase.index()]
    }

    /// The retried-attempt counter for `phase`.
    pub fn retries(&mut self, phase: Phase) -> &mut Counter {
        &mut self.retries_by_phase[phase.index()]
    }

    /// Total retried attempts across all phases.
    pub fn total_retries(&self) -> u64 {
        self.retries_by_phase.iter().map(|c| c.get()).sum()
    }
}

/// The registry campaigns populate.
///
/// Cells are indexed by interned [`Label`] triples, so the per-observation
/// lookup is one integer-keyed hash probe — no string allocation, hashing
/// of at most 12 bytes. Canonical (resolver, vantage, protocol) ordering is
/// imposed once, at [`snapshot`](Self::snapshot) time, instead of on every
/// insertion.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    index: HashMap<(Label, Label, Label), usize>,
    cells: Vec<(MetricKey, CellMetrics)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell for a key, created on first touch. Interns the three
    /// strings; prefer [`cell_interned`](Self::cell_interned) on hot paths
    /// that already hold labels.
    pub fn cell(&mut self, resolver: &str, vantage: &str, protocol: &str) -> &mut CellMetrics {
        self.cell_interned(
            Label::intern(resolver),
            Label::intern(vantage),
            Label::intern(protocol),
        )
    }

    /// The cell for an interned key, created on first touch. Allocates only
    /// when the cell itself is new, never per observation.
    pub fn cell_interned(
        &mut self,
        resolver: Label,
        vantage: Label,
        protocol: Label,
    ) -> &mut CellMetrics {
        let idx = match self.index.get(&(resolver, vantage, protocol)) {
            Some(&i) => i,
            None => {
                let i = self.cells.len();
                self.cells.push((
                    MetricKey {
                        resolver: resolver.as_str().to_string(),
                        vantage: vantage.as_str().to_string(),
                        protocol: protocol.as_str().to_string(),
                    },
                    CellMetrics::default(),
                ));
                self.index.insert((resolver, vantage, protocol), i);
                i
            }
        };
        &mut self.cells[idx].1
    }

    /// Freezes the registry into an exportable snapshot (cells in canonical
    /// key order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut cells: Vec<CellSnapshot> = self
            .cells
            .iter()
            .map(|(k, m)| CellSnapshot {
                key: k.clone(),
                metrics: m.clone(),
            })
            .collect();
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        MetricsSnapshot { cells }
    }
}

/// One exported cell: key plus frozen metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSnapshot {
    /// The cell key.
    pub key: MetricKey,
    /// The cell's metrics at snapshot time.
    pub metrics: CellMetrics,
}

/// A frozen, canonically ordered view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Cells sorted by (resolver, vantage, protocol).
    pub cells: Vec<CellSnapshot>,
}

impl MetricsSnapshot {
    /// Total probes across all cells.
    pub fn total_probes(&self) -> u64 {
        self.cells.iter().map(|c| c.metrics.probes.get()).sum()
    }

    /// Total successes across all cells.
    pub fn total_successes(&self) -> u64 {
        self.cells.iter().map(|c| c.metrics.successes.get()).sum()
    }

    /// Total retried (non-final) attempts across all cells.
    pub fn total_retries(&self) -> u64 {
        self.cells.iter().map(|c| c.metrics.total_retries()).sum()
    }

    /// Renders a human-readable table: one block per cell with response and
    /// per-phase histograms. Deterministic for identical snapshots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "metrics snapshot: {} cells, {} probes, {} ok\n",
            self.cells.len(),
            self.total_probes(),
            self.total_successes(),
        ));
        for cell in &self.cells {
            let m = &cell.metrics;
            out.push_str(&format!(
                "\n{} @ {} [{}]  probes={} ok={} cache_hits={}\n",
                cell.key.resolver,
                cell.key.vantage,
                cell.key.protocol,
                m.probes.get(),
                m.successes.get(),
                m.cache_hits.get(),
            ));
            if !m.errors.is_empty() {
                let errs: Vec<String> = m
                    .errors
                    .iter()
                    .map(|(label, n)| format!("{label}={n}"))
                    .collect();
                out.push_str(&format!("  errors: {}\n", errs.join(" ")));
            }
            if m.response_ms.count() > 0 {
                out.push_str(&format!("  response  {}\n", m.response_ms.render_compact()));
                for phase in Phase::ALL {
                    let h = &m.phase_ms[phase.index()];
                    if h.count() > 0 {
                        out.push_str(&format!("  {:<17} {}\n", phase.name(), h.render_compact()));
                    }
                }
            }
            if m.ping_ms.count() > 0 {
                out.push_str(&format!("  ping      {}\n", m.ping_ms.render_compact()));
            }
            if m.total_retries() > 0 || m.recovered.get() > 0 || m.exhausted.get() > 0 {
                let by_phase: Vec<String> = Phase::ALL
                    .iter()
                    .filter(|p| m.retries_by_phase[p.index()].get() > 0)
                    .map(|p| format!("{}={}", p.name(), m.retries_by_phase[p.index()].get()))
                    .collect();
                out.push_str(&format!(
                    "  retries: total={} recovered={} exhausted={}",
                    m.total_retries(),
                    m.recovered.get(),
                    m.exhausted.get(),
                ));
                if !by_phase.is_empty() {
                    out.push_str(&format!(" [{}]", by_phase.join(" ")));
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::default();
        g.set(12.5);
        assert_eq!(g.get(), 12.5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for ms in [0.5, 1.5, 9.0, 15.0, 380.0, 20_000.0] {
            h.observe(ms);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 6);
        // Overflow bucket holds the 20 s outlier.
        assert_eq!(h.bucket_counts()[LATENCY_BUCKETS_MS.len()], 1);
        let p50 = h.quantile(0.5);
        assert!(p50 > 0.0 && p50 < 400.0, "{p50}");
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn registry_cells_sort_canonically() {
        let mut r = MetricsRegistry::new();
        r.cell("z.example", "home-1", "doh").probes.inc();
        r.cell("a.example", "home-1", "doh").probes.inc();
        r.cell("a.example", "ec2-ohio", "dot").probes.inc();
        let snap = r.snapshot();
        let keys: Vec<&str> = snap.cells.iter().map(|c| c.key.resolver.as_str()).collect();
        assert_eq!(keys, ["a.example", "a.example", "z.example"]);
        assert_eq!(snap.cells[0].key.vantage, "ec2-ohio");
        assert_eq!(snap.total_probes(), 3);
    }

    #[test]
    fn identical_observations_render_identically() {
        let build = || {
            let mut r = MetricsRegistry::new();
            let cell = r.cell("dns.example", "home-2", "doh");
            cell.probes.add(3);
            cell.successes.add(2);
            cell.response_ms.observe(42.0);
            cell.response_ms.observe(240.0);
            cell.phase(Phase::Connect).observe(30.0);
            *cell.errors.entry("connect_timeout").or_insert(0) += 1;
            r.snapshot().render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn retry_counters_render_only_when_nonzero() {
        let mut r = MetricsRegistry::new();
        let cell = r.cell("x", "v", "doh");
        cell.probes.inc();
        cell.successes.inc();
        cell.response_ms.observe(50.0);
        let quiet = r.snapshot().render();
        assert!(
            !quiet.contains("retries:"),
            "zero retry counters must not render: {quiet}"
        );

        let cell = r.cell("x", "v", "doh");
        cell.retries(Phase::Connect).add(2);
        cell.retries(Phase::TlsHandshake).inc();
        cell.recovered.inc();
        assert_eq!(cell.total_retries(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.total_retries(), 3);
        let loud = snap.render();
        assert!(
            loud.contains("retries: total=3 recovered=1 exhausted=0 [connect=2 tls_handshake=1]"),
            "{loud}"
        );
    }

    #[test]
    fn phase_histograms_track_separately() {
        let mut r = MetricsRegistry::new();
        let cell = r.cell("x", "v", "doh");
        cell.phase(Phase::Connect).observe(10.0);
        cell.phase(Phase::TlsHandshake).observe(20.0);
        assert_eq!(cell.phase_ms[Phase::Connect.index()].count(), 1);
        assert_eq!(cell.phase_ms[Phase::HttpExchange.index()].count(), 0);
    }
}
