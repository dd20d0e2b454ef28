//! The reuse-ablation table: response time as a function of how the
//! probe's transport came to exist — cold handshake, session resumption,
//! or a kept-alive pooled connection.
//!
//! The paper's methodology is cold-only: every probe pays the full
//! connection setup its protocol demands. A session-enabled campaign
//! (`CampaignConfig::with_session`) interleaves cold, resumed and reused
//! probes on a seeded schedule and stamps each record with its
//! [`measure::ConnectionMode`]; this table aggregates those records per
//! (protocol, mode) and reports probe counts, availability, p50/p99 of
//! successful response times, and the median connection-setup cost
//! (connect + TLS legs) — making the ablation's claim quantitative: DoH
//! warm starts save the TCP and TLS rounds, DoQ 0-RTT saves every connect
//! round, and reused connections save the setup entirely.
//!
//! Records from cold-only campaigns carry no mode and count as cold, so a
//! legacy baseline campaign can feed the same table as the warm runs.

use std::collections::BTreeMap;

use measure::{ConnectionMode, ProbeOutcome, ProbeRecord, Protocol};

use crate::table::TextTable;

/// One (protocol, mode) cell of the ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseAblationRow {
    /// Protocol the campaign probed.
    pub protocol: Protocol,
    /// How these probes' transports came to exist.
    pub mode: ConnectionMode,
    /// Probes aggregated into this cell.
    pub probes: usize,
    /// Fraction of probes that succeeded.
    pub availability: f64,
    /// Median successful response time, ms (`None` if nothing succeeded).
    pub p50_ms: Option<f64>,
    /// 99th percentile, ms.
    pub p99_ms: Option<f64>,
    /// Median connection-setup cost (connect + TLS legs), ms.
    pub setup_p50_ms: Option<f64>,
}

/// Accumulates campaign results across protocols and connection modes.
#[derive(Debug, Default)]
pub struct ReuseAblation {
    cells: BTreeMap<(&'static str, ConnectionMode), Cell>,
}

#[derive(Debug, Default)]
struct Cell {
    protocol: Option<Protocol>,
    probes: usize,
    ok: usize,
    latencies: Vec<f64>,
    setups: Vec<f64>,
}

impl ReuseAblation {
    /// An empty ablation.
    pub fn new() -> Self {
        ReuseAblation::default()
    }

    /// Folds in one campaign's records. Records without a stamped mode
    /// (cold-only or pre-session campaigns) count as cold, so the legacy
    /// baseline and the warm runs aggregate into the same table.
    pub fn add_campaign(&mut self, records: &[ProbeRecord]) {
        for r in records {
            let mode = r.conn_mode.unwrap_or(ConnectionMode::Cold);
            let cell = self.cells.entry((r.protocol.label(), mode)).or_default();
            cell.protocol = Some(r.protocol);
            cell.probes += 1;
            if let ProbeOutcome::Success { timings, .. } = &r.outcome {
                cell.ok += 1;
                cell.latencies.push(timings.total().as_millis_f64());
                cell.setups
                    .push((timings.connect + timings.tls_handshake).as_millis_f64());
            }
        }
    }

    /// The aggregated rows, ordered by (protocol label, mode): cold, then
    /// resumed, then reused within each protocol.
    pub fn rows(&self) -> Vec<ReuseAblationRow> {
        self.cells
            .iter()
            .map(|(&(_, mode), cell)| {
                let quantile = |sorted: &[f64], q: f64| -> Option<f64> {
                    if sorted.is_empty() {
                        return None;
                    }
                    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
                    Some(sorted[idx])
                };
                let mut lat = cell.latencies.clone();
                lat.sort_by(f64::total_cmp);
                let mut setup = cell.setups.clone();
                setup.sort_by(f64::total_cmp);
                ReuseAblationRow {
                    // detlint:allow(unwrap, a cell only exists once a record set its protocol)
                    protocol: cell.protocol.expect("cell has records"),
                    mode,
                    probes: cell.probes,
                    availability: cell.ok as f64 / cell.probes.max(1) as f64,
                    p50_ms: quantile(&lat, 0.50),
                    p99_ms: quantile(&lat, 0.99),
                    setup_p50_ms: quantile(&setup, 0.50),
                }
            })
            .collect()
    }

    /// Renders the ablation as a [`TextTable`].
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "Protocol",
            "Mode",
            "Probes",
            "Avail %",
            "p50 ms",
            "p99 ms",
            "setup p50 ms",
        ]);
        let ms = |v: Option<f64>| match v {
            Some(v) => format!("{v:.1}"),
            None => "-".to_string(),
        };
        for r in self.rows() {
            t.row([
                r.protocol.label().to_string(),
                r.mode.label().to_string(),
                r.probes.to_string(),
                format!("{:.2}", 100.0 * r.availability),
                ms(r.p50_ms),
                ms(r.p99_ms),
                ms(r.setup_p50_ms),
            ]);
        }
        t
    }

    /// Renders the table with its section heading — the form the golden
    /// fixture pins.
    pub fn render(&self) -> String {
        format!(
            "Reuse ablation: response time by connection mode\n\n{}",
            self.table().render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::ResolverEntry;
    use measure::{Campaign, CampaignConfig, SessionConfig};

    fn entries() -> Vec<ResolverEntry> {
        ["dns.google", "dns.quad9.net", "doh.ffmuc.net"]
            .into_iter()
            .map(|h| catalog::resolvers::find(h).unwrap())
            .collect()
    }

    fn session_records(protocol: Protocol) -> Vec<ProbeRecord> {
        let mut config = CampaignConfig::quick(4, 3).with_session(SessionConfig::interleaved(0.3));
        config.probe.protocol = protocol;
        Campaign::with_resolvers(config, entries()).run().records
    }

    #[test]
    fn warm_modes_beat_cold_per_protocol() {
        let mut ablation = ReuseAblation::new();
        for protocol in [Protocol::DoH, Protocol::DoT, Protocol::DoQ] {
            ablation.add_campaign(&session_records(protocol));
        }
        let rows = ablation.rows();
        // Every protocol must show a cold baseline and at least one warm
        // mode, and every warm median must beat its cold median: warm
        // starts skip handshake rounds.
        for protocol in [Protocol::DoH, Protocol::DoT, Protocol::DoQ] {
            let of = |mode| {
                rows.iter()
                    .find(|r| r.protocol == protocol && r.mode == mode)
                    .cloned()
            };
            let cold = of(ConnectionMode::Cold).expect("cold baseline present");
            let warm: Vec<_> = [ConnectionMode::Resumed, ConnectionMode::Reused]
                .into_iter()
                .filter_map(of)
                .collect();
            assert!(!warm.is_empty(), "{protocol:?} never went warm: {rows:?}");
            for w in warm {
                assert!(
                    w.p50_ms.unwrap() < cold.p50_ms.unwrap(),
                    "{protocol:?} {:?} p50 {:?} !< cold {:?}",
                    w.mode,
                    w.p50_ms,
                    cold.p50_ms
                );
                assert!(
                    w.setup_p50_ms.unwrap() < cold.setup_p50_ms.unwrap(),
                    "{protocol:?} {:?} setup not cheaper",
                    w.mode
                );
            }
        }
    }

    #[test]
    fn reused_saves_entire_setup() {
        let mut ablation = ReuseAblation::new();
        ablation.add_campaign(&session_records(Protocol::DoH));
        let reused = ablation
            .rows()
            .into_iter()
            .find(|r| r.mode == ConnectionMode::Reused)
            .expect("DoH pool produced reused probes");
        assert_eq!(
            reused.setup_p50_ms,
            Some(0.0),
            "a pooled connection pays no connect or TLS leg"
        );
    }

    #[test]
    fn cold_only_records_count_as_cold() {
        let mut config = CampaignConfig::quick(4, 2);
        config.probe.protocol = Protocol::DoH;
        let records = Campaign::with_resolvers(config, entries()).run().records;
        let mut ablation = ReuseAblation::new();
        ablation.add_campaign(&records);
        let rows = ablation.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].mode, ConnectionMode::Cold);
        assert_eq!(rows[0].probes, records.len());
    }

    #[test]
    fn table_renders_all_modes() {
        let mut ablation = ReuseAblation::new();
        ablation.add_campaign(&session_records(Protocol::DoQ));
        let rendered = ablation.render();
        assert!(rendered.contains("Reuse ablation"));
        assert!(rendered.contains("cold"));
        assert!(rendered.contains("resumed"));
    }
}
