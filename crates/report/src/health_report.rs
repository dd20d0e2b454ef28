//! Per-(resolver, day) health tables for longitudinal campaigns.
//!
//! Renders the flight recorder's [`measure::HealthSeries`] — the
//! bounded-memory per-day fold a sharded run maintains — as text tables:
//! one row per resolver-day with availability, error mix, and
//! response-time quantiles, plus a companion table of the drift findings
//! the detector raised against the trailing-window baseline. Rows come
//! out in the series' canonical (resolver hostname, day) order, so two
//! same-seed campaigns render byte-identical reports.

use measure::{DriftFinding, DriftKind, HealthRow};

use crate::table::TextTable;

fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.1}"),
        None => "-".to_string(),
    }
}

fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// One row per (resolver, day): probe volume, availability, dominant
/// error class, and response-time mean/p50/p95 from the day's sketch.
pub fn health_table(rows: &[HealthRow]) -> TextTable {
    let mut table = TextTable::new([
        "resolver",
        "day",
        "probes",
        "avail",
        "mean ms",
        "p50 ms",
        "p95 ms",
        "top error",
    ]);
    for row in rows {
        let cell = &row.cell;
        table.row([
            row.resolver.to_string(),
            row.day.to_string(),
            cell.probes().to_string(),
            fmt_pct(cell.availability.availability()),
            fmt_ms(cell.response.mean()),
            fmt_ms(cell.response.quantile(0.5)),
            fmt_ms(cell.response.quantile(0.95)),
            cell.availability
                .dominant_error()
                .unwrap_or("-")
                .to_string(),
        ]);
    }
    table
}

/// One row per drift finding, in the detector's canonical (resolver,
/// day, kind) order: the flagged value against its trailing baseline.
pub fn drift_table(findings: &[DriftFinding]) -> TextTable {
    let mut table = TextTable::new(["resolver", "day", "finding", "value", "baseline"]);
    for f in findings {
        let (value, baseline) = match f.kind {
            DriftKind::AvailabilityBurn => (fmt_pct(f.value), fmt_pct(f.baseline)),
            DriftKind::LatencyDrift => (fmt_ms(Some(f.value)), fmt_ms(Some(f.baseline))),
            DriftKind::ErrorMixShift => (
                f.to_error.map(|l| l.to_string()).unwrap_or_default(),
                f.from_error.map(|l| l.to_string()).unwrap_or_default(),
            ),
        };
        table.row([
            f.resolver.to_string(),
            f.day.to_string(),
            f.kind.code().to_string(),
            value,
            baseline,
        ]);
    }
    table
}

/// Renders the health series and its drift findings as one report
/// section (a quiet campaign reports `no drift detected`).
pub fn render(rows: &[HealthRow], findings: &[DriftFinding]) -> String {
    let drift = if findings.is_empty() {
        "no drift detected\n".to_string()
    } else {
        drift_table(findings).render()
    };
    format!(
        "== health by resolver-day ==\n{}\n== drift findings ==\n{}",
        health_table(rows).render(),
        drift
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::{Campaign, CampaignConfig, DriftConfig, HealthSeries};

    fn series(seed: u64) -> HealthSeries {
        let entries = ["dns.google", "dns.quad9.net", "doh.ffmuc.net"]
            .into_iter()
            .filter_map(catalog::resolvers::find)
            .collect();
        let c = Campaign::with_resolvers(CampaignConfig::quick(seed, 2), entries);
        let result = c.run();
        HealthSeries::of(&c, &result.records)
    }

    #[test]
    fn health_table_has_one_row_per_resolver_day() {
        let rows = series(7).resolver_rows();
        let table = health_table(&rows);
        assert_eq!(table.len(), rows.len());
        assert!(table.render().contains("dns.google"));
    }

    #[test]
    fn quiet_campaign_renders_no_drift() {
        let series = series(7);
        let findings = series.detect_drift(&DriftConfig::default());
        let text = render(&series.resolver_rows(), &findings);
        assert!(text.contains("== health by resolver-day =="));
        assert!(text.contains("== drift findings =="));
        assert!(text.contains("no drift detected"));
    }

    #[test]
    fn drift_table_renders_every_finding_kind() {
        let f = |kind| DriftFinding {
            resolver: measure::Label::intern("dns.example"),
            day: 9,
            kind,
            value: 0.5,
            baseline: 1.0,
            from_error: Some(measure::Label::intern("connect_timeout")),
            to_error: Some(measure::Label::intern("tls_failure")),
        };
        let findings = [
            f(DriftKind::AvailabilityBurn),
            f(DriftKind::LatencyDrift),
            f(DriftKind::ErrorMixShift),
        ];
        let text = drift_table(&findings).render();
        assert!(text.contains("availability_burn"), "{text}");
        assert!(text.contains("p95_drift"), "{text}");
        assert!(text.contains("error_mix_shift"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
        assert!(text.contains("tls_failure"), "{text}");
    }
}
