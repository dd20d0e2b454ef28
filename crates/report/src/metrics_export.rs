//! Exports an [`obs::MetricsSnapshot`] as JSON and CSV.
//!
//! Both exports walk the snapshot's cells in their canonical (resolver,
//! vantage, protocol) order, so two same-seed campaigns export
//! byte-identical documents.

use std::collections::BTreeMap;

use measure::json::Json;
use measure::ProbeErrorKind;
use obs::{Histogram, MetricsSnapshot, Phase, LATENCY_BUCKETS_MS};

use crate::csv::Csv;

fn histogram_json(h: &Histogram) -> Json {
    Json::object([
        ("count", Json::Int(h.count() as i64)),
        ("sum_ms", Json::Float(h.sum())),
        ("mean_ms", Json::Float(h.mean())),
        ("p50_ms", Json::Float(h.quantile(0.50))),
        ("p95_ms", Json::Float(h.quantile(0.95))),
        (
            "buckets",
            Json::Array(
                h.bucket_counts()
                    .iter()
                    .map(|&c| Json::Int(c as i64))
                    .collect(),
            ),
        ),
    ])
}

/// The whole snapshot as one JSON document: bucket bounds once at the top,
/// then one entry per cell with counters, a tally of every error kind
/// (zero when unseen), and the response / ping / per-phase histograms.
pub fn metrics_json(snapshot: &MetricsSnapshot) -> Json {
    let cells = snapshot
        .cells
        .iter()
        .map(|cell| {
            let m = &cell.metrics;
            // Every error kind, zeros included, so the document's keys are
            // the same whichever errors a seed happened to produce.
            let mut errors: BTreeMap<&str, u64> = ProbeErrorKind::BY_LABEL
                .iter()
                .map(|kind| (kind.label(), 0))
                .collect();
            for (&label, &n) in &m.errors {
                *errors.entry(label).or_insert(0) += n;
            }
            let errors = errors
                .into_iter()
                .map(|(label, n)| (label.to_string(), Json::Int(n as i64)))
                .collect();
            let phases: BTreeMap<String, Json> = Phase::ALL
                .iter()
                .map(|&p| (p.name().to_string(), histogram_json(&m.phase_ms[p.index()])))
                .collect();
            Json::object([
                ("resolver", Json::Str(cell.key.resolver.clone())),
                ("vantage", Json::Str(cell.key.vantage.clone())),
                ("protocol", Json::Str(cell.key.protocol.clone())),
                ("probes", Json::Int(m.probes.get() as i64)),
                ("successes", Json::Int(m.successes.get() as i64)),
                ("cache_hits", Json::Int(m.cache_hits.get() as i64)),
                ("errors", Json::Object(errors)),
                ("response_ms", histogram_json(&m.response_ms)),
                ("ping_ms", histogram_json(&m.ping_ms)),
                ("phases", Json::Object(phases)),
                ("last_response_ms", Json::Float(m.last_response_ms.get())),
            ])
        })
        .collect();
    Json::object([
        (
            "buckets_ms",
            Json::Array(LATENCY_BUCKETS_MS.iter().map(|&b| Json::Float(b)).collect()),
        ),
        ("total_probes", Json::Int(snapshot.total_probes() as i64)),
        (
            "total_successes",
            Json::Int(snapshot.total_successes() as i64),
        ),
        ("cells", Json::Array(cells)),
    ])
}

/// One CSV row per cell: counters, error total, and summary statistics
/// (p50/p95/mean) for the response, ping and each phase histogram.
pub fn metrics_csv(snapshot: &MetricsSnapshot) -> Csv {
    let mut header = vec![
        "resolver".to_string(),
        "vantage".to_string(),
        "protocol".to_string(),
        "probes".to_string(),
        "successes".to_string(),
        "cache_hits".to_string(),
        "errors".to_string(),
        "response_p50_ms".to_string(),
        "response_p95_ms".to_string(),
        "response_mean_ms".to_string(),
        "ping_p50_ms".to_string(),
    ];
    for p in Phase::ALL {
        header.push(format!("{}_p50_ms", p.name()));
    }
    let mut csv = Csv::new(header);
    for cell in &snapshot.cells {
        let m = &cell.metrics;
        let mut row = vec![
            cell.key.resolver.clone(),
            cell.key.vantage.clone(),
            cell.key.protocol.clone(),
            m.probes.get().to_string(),
            m.successes.get().to_string(),
            m.cache_hits.get().to_string(),
            m.errors.values().sum::<u64>().to_string(),
            format!("{:.3}", m.response_ms.quantile(0.50)),
            format!("{:.3}", m.response_ms.quantile(0.95)),
            format!("{:.3}", m.response_ms.mean()),
            format!("{:.3}", m.ping_ms.quantile(0.50)),
        ];
        for p in Phase::ALL {
            row.push(format!("{:.3}", m.phase_ms[p.index()].quantile(0.50)));
        }
        csv.row(row);
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::{Campaign, CampaignConfig};

    fn snapshot() -> MetricsSnapshot {
        let entries = ["dns.google", "dns.quad9.net", "doh.ffmuc.net"]
            .into_iter()
            .map(|h| catalog::resolvers::find(h).unwrap())
            .collect();
        Campaign::with_resolvers(CampaignConfig::quick(19, 3), entries)
            .run()
            .metrics()
    }

    #[test]
    fn json_parses_back_and_counts_match() {
        let snap = snapshot();
        let doc = metrics_json(&snap);
        let back = measure::json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("total_probes").unwrap().as_i64().unwrap() as u64,
            snap.total_probes()
        );
        let cells = back.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), snap.cells.len());
        let first = &cells[0];
        assert!(first.get("resolver").is_some());
        let phases = first.get("phases").unwrap();
        for p in Phase::ALL {
            assert!(phases.get(p.name()).is_some(), "missing phase {}", p.name());
        }
        // Bucket counts in each histogram sum to its count.
        let resp = first.get("response_ms").unwrap();
        let total: i64 = resp
            .get("buckets")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b.as_i64().unwrap())
            .sum();
        assert_eq!(total, resp.get("count").unwrap().as_i64().unwrap());
    }

    #[test]
    fn csv_has_one_row_per_cell_and_phase_columns() {
        let snap = snapshot();
        let doc = metrics_csv(&snap).render();
        let rows = crate::csv::parse(&doc);
        assert_eq!(rows.len(), snap.cells.len() + 1);
        let header = &rows[0];
        assert_eq!(header.len(), 11 + Phase::COUNT);
        assert!(header.contains(&"tls_handshake_p50_ms".to_string()));
        // Every data row is full-width and starts with its cell key.
        for (row, cell) in rows[1..].iter().zip(&snap.cells) {
            assert_eq!(row.len(), header.len());
            assert_eq!(row[0], cell.key.resolver);
            assert_eq!(row[1], cell.key.vantage);
        }
    }

    #[test]
    fn same_snapshot_exports_identically() {
        let a = snapshot();
        let b = snapshot();
        assert_eq!(
            metrics_json(&a).to_string_compact(),
            metrics_json(&b).to_string_compact()
        );
        assert_eq!(metrics_csv(&a).render(), metrics_csv(&b).render());
    }
}
