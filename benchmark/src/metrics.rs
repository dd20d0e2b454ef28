//! The benchmark's metric tables — the names, units, directions and
//! regression bounds `BENCHMARK.json` declares (a unit test holds the two
//! in step) — and the JSON emitter every result line goes through.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` per layer.
    pub bound: Option<f64>,
    /// For a per-layer metric: the end-to-end metric it should move, and
    /// on which workloads. Written down before anything was measured, so
    /// a change to one layer can be checked against the prediction.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the campaign engine waits and pays for.
pub const END_TO_END: &[MetricDef] = &[
    e2e("probes_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Absolute slack on `setup_s` for `--selfcheck`: set-up of four of the
/// five workloads is a ~0.1 s process, where 25 % is scheduler noise.
pub const SETUP_SLACK_S: f64 = 0.05;

const GEN: &str = "probes_per_s: ~60% of inmemory_quick, faulted_loaded, faulted_warm; ~25% of longitudinal_sharded; not run by resume_assemble";
const PROTO: &str =
    "campaign.generate_s; measured on inmemory_quick only (the end-to-end workloads are all DoH)";
const ATTEMPTS: &str =
    "explains campaign.generate_s on faulted_loaded and faulted_warm; exact for a seed";
const FOLD: &str = "probes_per_s on longitudinal_sharded (the per-shard fold); a layer cost only on the in-memory workloads";
const IN_MEM_TAIL: &str =
    "probes_per_s: <5% of the in-memory workloads and of each shard in longitudinal_sharded";
const WRITE_JSON: &str = "probes_per_s: ~30% of the in-memory workloads, ~10% of longitudinal_sharded; peak_rss_mb on the in-memory workloads (whole-campaign String)";
const PARSE: &str =
    "probes_per_s: ~70% of resume_assemble, ~20% of longitudinal_sharded; not run in memory";
const FNV: &str = "probes_per_s on resume_assemble (validation) and longitudinal_sharded (second pass over each shard body); a layer cost only in memory";
const MANIFEST: &str = "probes_per_s and peak_rss_mb on longitudinal_sharded (~40% of its time with the commit replay); one decode on resume_assemble; not run in memory";
const SHARD: &str = "the validate/execute/assemble split of probes_per_s on longitudinal_sharded and resume_assemble; not run in memory";
const UNATTRIBUTED: &str =
    "what the outside-in ledger cannot see; the in-engine ledger (ROADMAP item 1) must find it";
const FS: &str = "none with code: says whether a wall-clock change is the filesystem's";
const HARNESS: &str = "none: how far the harness itself can be trusted";

/// One layer's work, time or waste. Layers are the `measure` crate's
/// modules; every time is taken from the harness around public calls.
pub const PER_LAYER: &[MetricDef] = &[
    layer("campaign.generate_s", "s", Lower, GEN),
    layer("campaign.generate_probes", "count", Lower, GEN),
    layer("probe.doh_us", "us", Lower, PROTO),
    layer("probe.dot_us", "us", Lower, PROTO),
    layer("probe.do53_us", "us", Lower, PROTO),
    layer("probe.doq_us", "us", Lower, PROTO),
    layer("probe.odoh_us", "us", Lower, PROTO),
    layer("probe.attempts_per_probe", "count", Lower, ATTEMPTS),
    layer("probe.failed_probe_share", "share", Lower, ATTEMPTS),
    layer("campaign.merge_s", "s", Lower, IN_MEM_TAIL),
    layer("campaign.metrics_s", "s", Lower, IN_MEM_TAIL),
    layer("aggregate.fold_s", "s", Lower, FOLD),
    layer("health.fold_s", "s", Lower, FOLD),
    layer("results.write_json_s", "s", Lower, WRITE_JSON),
    layer("results.write_json_mb", "MB", Lower, WRITE_JSON),
    layer("json.parse_s", "s", Lower, PARSE),
    layer("results.from_json_s", "s", Lower, PARSE),
    layer("checkpoint.fnv64_s", "s", Lower, FNV),
    layer("checkpoint.fnv64_mb", "MB", Lower, FNV),
    layer("checkpoint.manifest_bytes", "B", Lower, MANIFEST),
    layer("checkpoint.manifest_encode_s", "s", Lower, MANIFEST),
    layer("checkpoint.manifest_decode_s", "s", Lower, MANIFEST),
    layer("checkpoint.manifest_store_s", "s", Lower, MANIFEST),
    layer("checkpoint.commit_replay_s", "s", Lower, MANIFEST),
    layer("checkpoint.commit_bytes", "B", Lower, MANIFEST),
    layer("shard.run_s", "s", Lower, SHARD),
    layer("shard.validate_s", "s", Lower, SHARD),
    layer("shard.assemble_s", "s", Lower, SHARD),
    layer("shard.execute_s", "s", Lower, SHARD),
    layer("shard.shards_executed", "count", Lower, SHARD),
    layer("shard.shards_resumed", "count", Higher, SHARD),
    layer("shard.manifest_writes", "count", Lower, SHARD),
    layer("shard.checkpoint_bytes", "B", Lower, SHARD),
    layer("shard.records_merged", "count", Lower, SHARD),
    layer("shard.execute_unattributed_s", "s", Lower, UNATTRIBUTED),
    layer("shard.assemble_unattributed_s", "s", Lower, UNATTRIBUTED),
    layer("fs.write_s", "s", Lower, FS),
    layer("fs.read_s", "s", Lower, FS),
    layer("fs.mb", "MB", Lower, FS),
    layer("trace.overhead_share", "share", Lower, HARNESS),
    layer("rep.spread_share", "share", Lower, HARNESS),
];

/// Measured values by metric name. A metric of a layer the workload never
/// calls stays at 0 — no time was spent there.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a declared metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// `{"<name>": {"value": v, "unit": "u"}, …}` for every metric of
    /// `defs`, in table order.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::Object(
            defs.iter()
                .map(|d| {
                    let metric = Json::Object(vec![
                        ("value", Json::Num(self.get(d.name))),
                        ("unit", Json::Str(d.unit.into())),
                    ]);
                    (d.name, metric)
                })
                .collect(),
        )
    }
}

/// The few JSON shapes the harness prints.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Printed with every digit `f64` holds (shortest round-trip form).
    Num(f64),
    Str(String),
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN or infinity; `null` makes a broken
            // measurement fail loudly at the reader, not parse as a number.
            Json::Num(f) if !f.is_finite() => out.push_str("null"),
            Json::Num(f) => {
                let _ = write!(out, "{f}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::json::{self, Json as Parsed};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_valid_unique_name_and_a_unit() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert_eq!(
                all.iter().filter(|o| o.name == d.name).count(),
                1,
                "{} repeats",
                d.name
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn end_to_end_metrics_are_bounded_and_layers_say_what_they_move() {
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        for d in PER_LAYER {
            assert!(d.bound.is_none() && !d.moves.is_empty(), "{}", d.name);
        }
    }

    #[test]
    fn emitted_metrics_carry_value_and_unit_for_every_declared_name() {
        let mut values = Values::default();
        values.set("probes_per_s", 36_512.062_5);
        values.set("setup_s", 0.051);
        let doc = values.to_json(END_TO_END).render();
        let parsed = json::parse(&doc).expect("emitter output is JSON");
        for d in END_TO_END {
            let metric = parsed
                .get(d.name)
                .unwrap_or_else(|| panic!("{} missing", d.name));
            assert_eq!(metric.get("unit").and_then(Parsed::as_str), Some(d.unit));
            assert!(metric.get("value").and_then(Parsed::as_f64).is_some());
        }
        assert_eq!(
            parsed
                .get("probes_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(36_512.062_5)
        );
        // Unset metrics read 0, set ones overwrite.
        assert_eq!(values.get("peak_rss_mb"), 0.0);
        values.set("setup_s", 0.25);
        assert_eq!(values.get("setup_s"), 0.25);
    }

    #[test]
    fn emitter_escapes_strings_and_refuses_non_finite_numbers() {
        let doc = Json::Object(vec![
            ("s", Json::Str("a\"b\\c\n".into())),
            ("nan", Json::Num(f64::NAN)),
            (
                "nested",
                Json::Object(vec![("n", Json::Int(1)), ("b", Json::Bool(true))]),
            ),
        ])
        .render();
        assert_eq!(
            doc,
            r#"{"s":"a\"b\\c\u000a","nan":null,"nested":{"n":1,"b":true}}"#
        );
        assert!(json::parse(&doc).is_ok());
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the harness prints. They must name the same metrics and workloads.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let check = |key: &str, defs: &[MetricDef]| {
            let listed = doc.get(key).and_then(Parsed::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Parsed::as_str), Some(d.name));
                assert_eq!(
                    entry.get("unit").and_then(Parsed::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    entry.get("better").and_then(Parsed::as_str),
                    Some(match d.better {
                        Higher => "higher",
                        Lower => "lower",
                    }),
                    "{}",
                    d.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Parsed::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads = doc
            .get("workloads")
            .and_then(Parsed::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Parsed::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for w in workloads {
            assert!(w.get("why").and_then(Parsed::as_str).unwrap().len() <= 200);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Parsed::as_i64),
            Some(crate::DEFAULT_SECONDS as i64)
        );
    }
}
