//! Property tests for the checkpoint codec: manifests built from
//! arbitrary shard states and cell files built from arbitrary cells —
//! aggregate, metrics and health cells and retry exhaustions — must
//! encode/decode exactly, with every float bit for bit, the encoding must
//! be a fixed point (encode ∘ decode ∘ encode = encode), a changed byte
//! must never decode to different content, and no body, however mangled,
//! may panic a decoder. The checkpoint checksum is held to its definition,
//! restated here, to a pinned vector and to catching every single-byte
//! change, and a header is read only as the engine writes it.
//!
//! The cell files' direct codec is pinned against the [`tree`] codec it
//! replaced: the writer emits the tree's bytes, and the strict reader
//! reads what the tree path reads — on hostile input it may decline more,
//! never read differently.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use measure::aggregate::{AggregateCell, PairAggregate};
use measure::checkpoint::{
    checksum, CheckpointError, Checksum, Manifest, PairCells, RetryExhausted, ShardCells,
    ShardCheckpoint, ShardState,
};
use measure::{
    Campaign, CampaignConfig, HealthCell, Label, ProbeErrorKind, ShardedRunner, Tally,
    CHECKPOINT_VERSION,
};
use obs::{CellMetrics, Histogram, Phase};

use edns_stats::LatencySketch;

use tree::{
    availability_from_json, availability_to_json, pair_day_health_from_json,
    pair_day_health_to_json, pair_metrics_from_json, pair_metrics_to_json, sketch_from_json,
    sketch_to_json, PairDayHealth, PairMetrics,
};

/// The cell files' codec before the direct one: every cell built as a
/// [`Json`](measure::json::Json) value and rendered with
/// `to_string_compact`, read back with `json::parse` and a walk of the
/// tree, grouped by pair through `ShardCells::from_sections`. Kept here as
/// the oracle the direct codec is compared against.
mod tree {
    use std::collections::BTreeMap;

    use edns_stats::{LatencySketch, RunningMoments};
    use measure::aggregate::{AggregateCell, PairAggregate};
    use measure::checkpoint::{CheckpointError, RetryExhausted, ShardCells};
    use measure::json::{self, Json};
    use measure::{HealthCell, Label, ProbeErrorKind, Tally};
    use obs::{CellMetrics, Counter, Gauge, Histogram, Phase};

    /// A metrics section row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PairMetrics {
        pub pair: u32,
        pub cell: CellMetrics,
    }

    /// A health section row: (pair, day, cell).
    pub type PairDayHealth = (u32, u32, HealthCell);

    fn parse_err(msg: &str) -> CheckpointError {
        CheckpointError::Parse(msg.to_string())
    }

    fn int_field(v: &Json, key: &str) -> Result<u64, CheckpointError> {
        v.get(key)
            .and_then(Json::as_i64)
            .filter(|&n| n >= 0)
            .map(|n| n as u64)
            .ok_or_else(|| parse_err(&format!("missing or invalid field {key:?}")))
    }

    /// A pair, day, shard or attempt count: it must fit its `u32`.
    fn index_field(v: &Json, key: &str) -> Result<u32, CheckpointError> {
        u32::try_from(int_field(v, key)?).map_err(|_| parse_err(&format!("{key:?} past u32")))
    }

    fn array_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], CheckpointError> {
        v.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| parse_err(&format!("missing or invalid array {key:?}")))
    }

    fn float_field(v: &Json, key: &str) -> Result<f64, CheckpointError> {
        v.get(key)
            .and_then(Json::as_f64)
            .filter(|f| f.is_finite())
            .ok_or_else(|| parse_err(&format!("missing or invalid float field {key:?}")))
    }

    fn counts_field<const N: usize>(v: &Json, key: &str) -> Result<[u64; N], CheckpointError> {
        let items = array_field(v, key)?;
        if items.len() != N {
            return Err(parse_err(&format!("{key:?} holds {} counts", items.len())));
        }
        let mut counts = [0u64; N];
        for (slot, item) in counts.iter_mut().zip(items) {
            *slot = item
                .as_i64()
                .filter(|&c| c >= 0)
                .ok_or_else(|| parse_err(&format!("{key:?} holds something not a count")))?
                as u64;
        }
        Ok(counts)
    }

    fn total_is(counts: &[u64], n: u64) -> bool {
        counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) == Some(n)
    }

    fn counts_json(counts: &[u64]) -> Json {
        Json::Array(counts.iter().map(|&c| Json::Int(c as i64)).collect())
    }

    fn counter_of(n: u64) -> Counter {
        let mut c = Counter::default();
        c.add(n);
        c
    }

    pub fn sketch_to_json(s: &LatencySketch) -> Json {
        if s.count() == 0 {
            return Json::object([("n", Json::Int(0))]);
        }
        Json::object([
            ("n", Json::Int(s.count() as i64)),
            ("mean", Json::Float(s.mean().unwrap_or(0.0))),
            ("m2", Json::Float(s.moments().m2().unwrap_or(0.0))),
            ("min", Json::Float(s.min().unwrap_or(0.0))),
            ("max", Json::Float(s.max().unwrap_or(0.0))),
            ("buckets", counts_json(s.bucket_counts())),
        ])
    }

    pub fn sketch_from_json(v: &Json) -> Result<LatencySketch, CheckpointError> {
        let n = int_field(v, "n")?;
        if n == 0 {
            return Ok(LatencySketch::new());
        }
        let moments = RunningMoments::from_parts(
            n,
            float_field(v, "mean")?,
            float_field(v, "m2")?,
            float_field(v, "min")?,
            float_field(v, "max")?,
        );
        let counts = counts_field(v, "buckets")?;
        if !total_is(&counts, n) {
            return Err(parse_err("sketch bucket total disagrees with count"));
        }
        Ok(LatencySketch::from_parts(moments, counts))
    }

    fn histogram_to_json(h: &Histogram) -> Json {
        if h.count() == 0 {
            return Json::object([("n", Json::Int(0))]);
        }
        Json::object([
            ("n", Json::Int(h.count() as i64)),
            ("sum", Json::Float(h.sum())),
            ("buckets", counts_json(h.bucket_counts())),
        ])
    }

    fn histogram_from_json(v: &Json) -> Result<Histogram, CheckpointError> {
        let n = int_field(v, "n")?;
        if n == 0 {
            return Ok(Histogram::default());
        }
        let counts = counts_field(v, "buckets")?;
        if !total_is(&counts, n) {
            return Err(parse_err("histogram bucket total disagrees with count"));
        }
        Ok(Histogram::from_parts(counts, float_field(v, "sum")?))
    }

    pub fn availability_to_json(a: &Tally) -> Json {
        let errors = a
            .errors()
            .map(|(k, c)| (k.label().to_string(), Json::Int(c as i64)))
            .collect();
        Json::object([
            ("successes", Json::Int(a.successes as i64)),
            ("errors", Json::Object(errors)),
        ])
    }

    /// A tally holds only the labels a probe can fail with.
    pub fn availability_from_json(v: &Json) -> Result<Tally, CheckpointError> {
        let mut tally = Tally::default();
        tally.successes = int_field(v, "successes")?;
        let Some(Json::Object(tallies)) = v.get("errors") else {
            return Err(parse_err("availability missing errors object"));
        };
        for (k, c) in tallies {
            let kind = ProbeErrorKind::from_label(k)
                .ok_or_else(|| parse_err(&format!("unknown error label {k:?}")))?;
            let c = c
                .as_i64()
                .filter(|&n| n >= 0)
                .ok_or_else(|| parse_err("availability error count invalid"))?;
            tally.set_errors(kind, c as u64);
        }
        Ok(tally)
    }

    fn pair_aggregate_to_json(p: &PairAggregate) -> Json {
        Json::object([
            ("pair", Json::Int(p.pair as i64)),
            ("vantage", Json::Str(p.vantage.as_str().to_string())),
            ("resolver", Json::Str(p.resolver.as_str().to_string())),
            ("availability", availability_to_json(&p.cell.availability)),
            ("response", sketch_to_json(&p.cell.response)),
            ("ping", sketch_to_json(&p.cell.ping)),
        ])
    }

    fn member<'a>(v: &'a Json, key: &str) -> Result<&'a Json, CheckpointError> {
        v.get(key)
            .ok_or_else(|| parse_err(&format!("cell missing {key:?}")))
    }

    fn label(v: &Json, key: &str) -> Result<Label, CheckpointError> {
        let s = member(v, key)?.as_str();
        s.map(Label::intern)
            .ok_or_else(|| parse_err(&format!("cell missing {key:?}")))
    }

    fn pair_aggregate_from_json(v: &Json) -> Result<PairAggregate, CheckpointError> {
        Ok(PairAggregate {
            pair: index_field(v, "pair")?,
            vantage: label(v, "vantage")?,
            resolver: label(v, "resolver")?,
            cell: AggregateCell {
                availability: availability_from_json(member(v, "availability")?)?,
                response: sketch_from_json(member(v, "response")?)?,
                ping: sketch_from_json(member(v, "ping")?)?,
            },
        })
    }

    pub fn pair_day_health_to_json((pair, day, cell): &PairDayHealth) -> Json {
        Json::object([
            ("pair", Json::Int(*pair as i64)),
            ("day", Json::Int(*day as i64)),
            ("availability", availability_to_json(&cell.availability)),
            ("response", sketch_to_json(&cell.response)),
        ])
    }

    pub fn pair_day_health_from_json(v: &Json) -> Result<PairDayHealth, CheckpointError> {
        let cell = HealthCell {
            availability: availability_from_json(member(v, "availability")?)?,
            response: sketch_from_json(member(v, "response")?)?,
        };
        Ok((index_field(v, "pair")?, index_field(v, "day")?, cell))
    }

    pub fn pair_metrics_to_json(m: &PairMetrics) -> Json {
        let c = &m.cell;
        let count = |n: Counter| Json::Int(n.get() as i64);
        let errors = c
            .errors
            .iter()
            .map(|(&k, &n)| (k.to_string(), Json::Int(n as i64)))
            .collect();
        Json::object([
            ("pair", Json::Int(m.pair as i64)),
            ("probes", count(c.probes)),
            ("successes", count(c.successes)),
            ("cache_hits", count(c.cache_hits)),
            ("errors", Json::Object(errors)),
            ("response", histogram_to_json(&c.response_ms)),
            ("ping", histogram_to_json(&c.ping_ms)),
            (
                "phases",
                Json::Array(c.phase_ms.iter().map(histogram_to_json).collect()),
            ),
            ("last_response_ms", Json::Float(c.last_response_ms.get())),
            (
                "retries",
                Json::Array(c.retries_by_phase.iter().map(|&n| count(n)).collect()),
            ),
            ("recovered", count(c.recovered)),
            ("exhausted", count(c.exhausted)),
        ])
    }

    pub fn pair_metrics_from_json(v: &Json) -> Result<PairMetrics, CheckpointError> {
        let counter = |key: &str| int_field(v, key).map(counter_of);
        let mut errors = BTreeMap::new();
        let Some(Json::Object(tallies)) = v.get("errors") else {
            return Err(parse_err("metrics cell missing errors object"));
        };
        for (label, n) in tallies {
            let kind = ProbeErrorKind::from_label(label)
                .ok_or_else(|| parse_err(&format!("unknown error label {label:?}")))?;
            let n = n
                .as_i64()
                .filter(|&n| n >= 0)
                .ok_or_else(|| parse_err("metrics error count invalid"))?;
            errors.insert(kind.label(), n as u64);
        }
        let phases = array_field(v, "phases")?;
        if phases.len() != Phase::COUNT {
            return Err(parse_err("metrics phase histogram arity mismatch"));
        }
        let mut phase_ms: [Histogram; Phase::COUNT] = Default::default();
        for (slot, h) in phase_ms.iter_mut().zip(phases) {
            *slot = histogram_from_json(h)?;
        }
        let mut last_response_ms = Gauge::default();
        last_response_ms.set(float_field(v, "last_response_ms")?);
        Ok(PairMetrics {
            pair: index_field(v, "pair")?,
            cell: CellMetrics {
                probes: counter("probes")?,
                successes: counter("successes")?,
                cache_hits: counter("cache_hits")?,
                errors,
                response_ms: histogram_from_json(member(v, "response")?)?,
                ping_ms: histogram_from_json(member(v, "ping")?)?,
                phase_ms,
                last_response_ms,
                retries_by_phase: counts_field::<{ Phase::COUNT }>(v, "retries")?.map(counter_of),
                recovered: counter("recovered")?,
                exhausted: counter("exhausted")?,
            },
        })
    }

    fn retry_exhausted_to_json(e: &RetryExhausted) -> Json {
        Json::object([
            ("pair", Json::Int(e.pair as i64)),
            ("at", Json::Int(e.at as i64)),
            ("attempts", Json::Int(e.attempts as i64)),
        ])
    }

    fn retry_exhausted_from_json(v: &Json) -> Result<RetryExhausted, CheckpointError> {
        Ok(RetryExhausted {
            pair: index_field(v, "pair")?,
            at: int_field(v, "at")?,
            attempts: index_field(v, "attempts")?,
        })
    }

    /// A cell file's body as the tree renders it.
    pub fn encode_body(cells: &ShardCells) -> String {
        let pairs = &cells.pairs;
        let aggregates = pairs.iter().map(|p| pair_aggregate_to_json(&p.aggregate));
        // A metrics cell's error tallies are its aggregate's.
        let metrics = pairs.iter().map(|p| {
            let mut cell = p.metrics.clone();
            let errors = p.aggregate.cell.availability.errors();
            cell.errors = errors.map(|(kind, n)| (kind.label(), n)).collect();
            pair_metrics_to_json(&PairMetrics {
                pair: p.aggregate.pair,
                cell,
            })
        });
        let health = pairs.iter().flat_map(|p| {
            let days = p.health.iter().cloned();
            days.map(|(day, cell)| pair_day_health_to_json(&(p.aggregate.pair, day, cell)))
        });
        let exhausted = pairs.iter().flat_map(|p| &p.exhausted);
        Json::object([
            ("shard", Json::Int(cells.shard as i64)),
            ("cells", Json::Array(aggregates.collect())),
            ("metrics", Json::Array(metrics.collect())),
            ("health", Json::Array(health.collect())),
            (
                "exhausted",
                Json::Array(exhausted.map(retry_exhausted_to_json).collect()),
            ),
        ])
        .to_string_compact()
    }

    /// A cell file's body as the tree path reads it.
    pub fn decode_body(body: &str) -> Result<ShardCells, CheckpointError> {
        fn list<T>(
            v: &Json,
            key: &str,
            each: fn(&Json) -> Result<T, CheckpointError>,
        ) -> Result<Vec<T>, CheckpointError> {
            array_field(v, key)?.iter().map(each).collect()
        }
        let v = json::parse(body).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        let shard = index_field(&v, "shard")?;
        let pairs = list(&v, "cells", pair_aggregate_from_json)?;
        let metrics = list(&v, "metrics", pair_metrics_from_json)?;
        let health = list(&v, "health", pair_day_health_from_json)?;
        let exhausted = list(&v, "exhausted", retry_exhausted_from_json)?;
        let metrics = metrics.into_iter().map(|m| (m.pair, m.cell)).collect();
        ShardCells::from_sections(shard, pairs, exhausted, health, metrics)
    }
}

fn arb_sketch() -> impl Strategy<Value = LatencySketch> {
    proptest::collection::vec(0.01f64..60_000.0, 0..40).prop_map(|samples| {
        let mut s = LatencySketch::new();
        for x in samples {
            s.observe(x);
        }
        s
    })
}

/// A tally can hold only the labels a probe can fail with.
fn arb_availability() -> impl Strategy<Value = Tally> {
    let kinds = ProbeErrorKind::all().len();
    (
        0u64..10_000,
        proptest::collection::vec((0..kinds, 1u64..500), 0..4),
    )
        .prop_map(|(successes, errors)| {
            let mut a = Tally::default();
            a.successes = successes;
            for (kind, count) in errors {
                let mut one = Tally::default();
                one.set_errors(ProbeErrorKind::all()[kind], count);
                a.merge(&one);
            }
            a
        })
}

fn arb_cell() -> impl Strategy<Value = AggregateCell> {
    (arb_availability(), arb_sketch(), arb_sketch()).prop_map(|(availability, response, ping)| {
        AggregateCell {
            availability,
            response,
            ping,
        }
    })
}

fn arb_pair() -> impl Strategy<Value = PairAggregate> {
    (0u32..512, arb_cell(), "[a-z]{1,8}", "[a-z.]{1,12}").prop_map(
        |(pair, cell, vantage, resolver)| PairAggregate {
            pair,
            vantage: Label::intern(&vantage),
            resolver: Label::intern(&resolver),
            cell,
        },
    )
}

/// Labels a probe can fail with: the only ones a metrics cell decodes.
const PROBE_ERROR_LABELS: [&str; 4] = [
    "connect_timeout",
    "query_timeout",
    "tls_failure",
    "rate_limited",
];

fn arb_histogram() -> impl Strategy<Value = Histogram> {
    proptest::collection::vec(0.01f64..60_000.0, 0..24).prop_map(|samples| {
        let mut h = Histogram::default();
        for x in samples {
            h.observe(x);
        }
        h
    })
}

fn arb_cell_metrics() -> impl Strategy<Value = CellMetrics> {
    (
        proptest::collection::vec(0u64..100_000, 5),
        proptest::collection::vec((0usize..PROBE_ERROR_LABELS.len(), 1u64..500), 0..4),
        (arb_histogram(), arb_histogram()),
        proptest::collection::vec(arb_histogram(), Phase::COUNT),
        0.01f64..60_000.0,
        proptest::collection::vec(0u64..1_000, Phase::COUNT),
    )
        .prop_map(
            |(counts, errors, (response, ping), phases, last, retries)| {
                let mut m = CellMetrics::default();
                m.probes.add(counts[0]);
                m.successes.add(counts[1]);
                m.cache_hits.add(counts[2]);
                m.recovered.add(counts[3]);
                m.exhausted.add(counts[4]);
                for (label, n) in errors {
                    *m.errors.entry(PROBE_ERROR_LABELS[label]).or_insert(0) += n;
                }
                m.response_ms = response;
                m.ping_ms = ping;
                for (slot, h) in m.phase_ms.iter_mut().zip(phases) {
                    *slot = h;
                }
                m.last_response_ms.set(last);
                for (slot, n) in m.retries_by_phase.iter_mut().zip(retries) {
                    slot.add(n);
                }
                m
            },
        )
}

fn arb_pair_metrics() -> impl Strategy<Value = PairMetrics> {
    (0u32..512, arb_cell_metrics()).prop_map(|(pair, cell)| PairMetrics { pair, cell })
}

fn arb_retry_exhausted() -> impl Strategy<Value = RetryExhausted> {
    (0u32..512, 0u64..1 << 50, 1u32..8).prop_map(|(pair, at, attempts)| RetryExhausted {
        pair,
        at,
        attempts,
    })
}

/// Every float of a metrics cell, as bits.
fn float_bits(m: &CellMetrics) -> Vec<u64> {
    let sums = [&m.response_ms, &m.ping_ms].into_iter().chain(&m.phase_ms);
    sums.map(|h| h.sum().to_bits())
        .chain([m.last_response_ms.get().to_bits()])
        .collect()
}

fn arb_pair_day_health() -> impl Strategy<Value = PairDayHealth> {
    (0u32..512, 0u32..256, arb_availability(), arb_sketch()).prop_map(
        |(pair, day, availability, response)| {
            let cell = HealthCell {
                availability,
                response,
            };
            (pair, day, cell)
        },
    )
}

fn arb_state() -> impl Strategy<Value = ShardState> {
    (
        any::<bool>(),
        0u64..1_000_000,
        0u64..100_000_000,
        any::<u64>(),
        0u64..10_000_000,
        any::<u64>(),
    )
        .prop_map(
            |(complete, records, bytes, checksum, cell_bytes, cell_checksum)| {
                if complete {
                    // The shard index is rewritten to the entry slot by the
                    // caller; 0 is a placeholder.
                    ShardState::Complete(ShardCheckpoint {
                        shard: 0,
                        records,
                        bytes,
                        checksum,
                        cell_bytes,
                        cell_checksum,
                    })
                } else {
                    ShardState::Pending
                }
            },
        )
}

/// One pair's cells. Its metrics cell holds no error tallies: those are
/// its aggregate's.
fn arb_pair_cells() -> impl Strategy<Value = PairCells> {
    (
        arb_pair(),
        arb_pair_metrics(),
        proptest::collection::vec(arb_pair_day_health(), 0..3),
        proptest::collection::vec(arb_retry_exhausted(), 0..2),
    )
        .prop_map(|(aggregate, mut metrics, health, mut exhausted)| {
            let pair = aggregate.pair;
            metrics.cell.errors.clear();
            for e in &mut exhausted {
                e.pair = pair;
            }
            PairCells {
                aggregate,
                metrics: metrics.cell,
                health: health
                    .into_iter()
                    .map(|(_, day, cell)| (day, cell))
                    .collect(),
                exhausted,
            }
        })
}

fn arb_cells() -> impl Strategy<Value = ShardCells> {
    (0u32..64, proptest::collection::vec(arb_pair_cells(), 0..5)).prop_map(|(shard, mut pairs)| {
        // A cell file lists each pair once.
        pairs.sort_by_key(|p| p.aggregate.pair);
        pairs.dedup_by_key(|p| p.aggregate.pair);
        ShardCells { shard, pairs }
    })
}

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    (
        any::<u64>(),
        any::<u64>(),
        0u32..4096,
        proptest::collection::vec(arb_state(), 1..8),
    )
        .prop_map(|(fingerprint, seed, pairs, mut states)| {
            for (i, s) in states.iter_mut().enumerate() {
                if let ShardState::Complete(c) = s {
                    c.shard = i as u32;
                }
            }
            Manifest {
                fingerprint,
                seed,
                pairs,
                states,
            }
        })
}

/// A body in the checkpoint framing, as the engine frames it.
fn framed(body: &str) -> String {
    format!(
        "edns-checkpoint v{CHECKPOINT_VERSION} {:016x}\n{body}\n",
        checksum(body.as_bytes())
    )
}

/// Every float of a cell file, as bits: what `PartialEq` would let a
/// `-0.0` for `0.0` slip past.
fn cell_float_bits(cells: &ShardCells) -> Vec<u64> {
    let sketch = |s: &LatencySketch| {
        let m = s.moments();
        [m.mean(), m.m2(), m.min(), m.max()].map(|f| f.map(f64::to_bits))
    };
    let sketches = cells.pairs.iter().flat_map(|p| {
        let days = p.health.iter().map(|(_, cell)| &cell.response);
        [&p.aggregate.cell.response, &p.aggregate.cell.ping]
            .into_iter()
            .chain(days)
    });
    sketches
        .flat_map(sketch)
        .flatten()
        .chain(cells.pairs.iter().flat_map(|p| float_bits(&p.metrics)))
        .collect()
}

/// The direct reader against the tree path on one body: whatever the
/// reader returns, the tree path returns, bit for bit; whatever the tree
/// path rejects, the reader rejects, typed; and what the reader declines
/// that the tree path reads is a body the writer would not have written.
/// Whether the reader read it.
fn assert_reads_like_the_tree(body: &str) -> bool {
    let direct = ShardCells::decode(&framed(body));
    match (&direct, tree::decode_body(body)) {
        (Ok(read), Ok(tree)) => {
            assert_eq!(read, &tree, "{body}");
            assert_eq!(cell_float_bits(read), cell_float_bits(&tree), "{body}");
        }
        (Ok(read), Err(e)) => panic!("read {read:?}, the tree path says {e}: {body}"),
        (Err(CheckpointError::Parse(_)), Ok(tree)) => {
            assert_ne!(tree::encode_body(&tree), body, "a written body declined");
        }
        (Err(CheckpointError::Parse(_)), Err(_)) => {}
        (Err(e), _) => panic!("untyped rejection {e:?}: {body}"),
    }
    direct.is_ok()
}

/// A cell body with every kind of cell, each in its one-entry form: shard
/// 0, pair 0, day 0, one exhaustion of one attempt.
fn shard_zero_body() -> String {
    let mut cell = AggregateCell::default();
    cell.availability.success();
    cell.response.observe(12.5);
    let mut metrics = CellMetrics::default();
    metrics.probes.inc();
    metrics.successes.inc();
    metrics.response_ms.observe(12.5);
    let day = HealthCell {
        availability: cell.availability,
        response: cell.response.clone(),
    };
    tree::encode_body(&ShardCells {
        shard: 0,
        pairs: vec![PairCells {
            aggregate: PairAggregate {
                pair: 0,
                vantage: Label::intern("home-us-east"),
                resolver: Label::intern("dns.google"),
                cell,
            },
            metrics,
            health: vec![(0, day)],
            exhausted: vec![RetryExhausted {
                pair: 0,
                at: 1_000,
                attempts: 1,
            }],
        }],
    })
}

#[test]
fn indices_past_u32_are_refused_not_truncated() {
    let body = shard_zero_body();
    assert!(assert_reads_like_the_tree(&body));
    // 2^32 truncates to 0, which a narrowing `as u32` would have read as
    // shard 0, pair 0: the file is refused instead, by both paths.
    let past = |body: &str, key: &str| {
        let (from, to) = (format!("\"{key}\":0"), format!("\"{key}\":4294967296"));
        assert!(body.contains(&from), "{key}");
        body.replace(&from, &to)
    };
    let shard_and_pair = past(&past(&body, "shard"), "pair");
    let cases = [
        shard_and_pair,
        past(&body, "shard"),
        past(&body, "pair"),
        past(&body, "day"),
        body.replace("\"attempts\":1", "\"attempts\":4294967297"),
    ];
    for case in cases {
        assert!(
            matches!(
                ShardCells::decode(&framed(&case)),
                Err(CheckpointError::Parse(_))
            ),
            "{case}"
        );
        assert!(
            matches!(tree::decode_body(&case), Err(CheckpointError::Parse(_))),
            "{case}"
        );
    }
    // The largest index a u32 holds is read as itself.
    let edge = body.replace("\"shard\":0", "\"shard\":4294967295");
    assert_eq!(ShardCells::decode(&framed(&edge)).unwrap().shard, u32::MAX);
    assert!(assert_reads_like_the_tree(&edge));

    // The manifest's pair count too.
    let manifest = Manifest::new(0xfeed, 42, 2, 21).encode();
    let body = manifest.split_once('\n').unwrap().1.trim_end();
    let past = body.replace("\"pairs\":21", "\"pairs\":4294967317");
    assert_ne!(past, body);
    assert!(matches!(
        Manifest::decode(&framed(&past)),
        Err(CheckpointError::Parse(_))
    ));
}

/// An edit of a cell file's body.
type BodyEdit = fn(&str) -> String;

/// A cell file rewritten by `edit` and recorded anew in the manifest, so
/// that only the cell lane's decode and content checks can reject it:
/// what a run over it returns.
fn run_with_edited_cell_file(edit: BodyEdit) -> Result<(), CheckpointError> {
    let entries = ["dns.google", "doh.ffmuc.net"]
        .into_iter()
        .filter_map(catalog::resolvers::find)
        .collect();
    let c = Campaign::with_resolvers(CampaignConfig::longitudinal(4, 2), entries);
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "edns-checkpoint-proptests-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert_eq!(runner.advance(4).unwrap(), 0);
    let path = runner.cells_path(1);
    let text = std::fs::read_to_string(&path).unwrap();
    let body = edit(text.split_once('\n').unwrap().1.trim_end());
    std::fs::write(&path, framed(&body)).unwrap();
    let mut manifest = Manifest::load(&runner.manifest_path()).unwrap();
    let ShardState::Complete(entry) = &mut manifest.states[1] else {
        unreachable!("all four shards ran")
    };
    let cells = std::fs::read(&path).unwrap();
    (entry.cell_bytes, entry.cell_checksum) = (cells.len() as u64, checksum(&cells));
    manifest.store(&runner.manifest_path()).unwrap();
    let result = runner.run(1).map(|_| ());
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

#[test]
fn a_label_a_tally_cannot_hold_or_a_day_outside_its_pair_is_shard_data_naming_the_file() {
    let unknown_label: BodyEdit = |body| {
        // The first availability ledger's errors, whatever they hold.
        let (head, tail) = body.split_once("{\"errors\":{").unwrap();
        let sep = if tail.starts_with('}') { "" } else { "," };
        format!("{head}{{\"errors\":{{\"http_error\":1{sep}{tail}")
    };
    let day_outside: BodyEdit = |body| {
        let mut cells = tree::decode_body(body).unwrap();
        // Two days, 0 and 1: day 2 is the first outside.
        cells.pairs[0].health[0].0 = 2;
        tree::encode_body(&cells)
    };
    let cases = [
        ("an unknown error label", unknown_label),
        (
            "a health cell for a day outside its pair's days",
            day_outside,
        ),
    ];
    for (what, edit) in cases {
        match run_with_edited_cell_file(edit) {
            Err(CheckpointError::ShardData(msg)) => {
                assert!(msg.contains("shard-0001.cells"), "{what}: {msg}")
            }
            other => panic!("{what}: expected ShardData, got {other:?}"),
        }
    }
}

/// Seeded single-byte mutations of the pinned cell file (a real shard's,
/// every kind of cell in it), re-framed so they reach the field readers:
/// never a panic, never a difference from the tree path.
#[test]
fn seeded_mutations_of_an_engine_cell_file_read_like_the_tree() {
    let golden = include_str!("golden/shard_cells_seed4_shard2.cells");
    let body = golden.split_once('\n').unwrap().1.trim_end();
    assert!(assert_reads_like_the_tree(body));
    // splitmix64: seeded, so a failure names a reproducible mutation.
    let mut state = 0x5eed_0026u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    // Mostly the bytes a body is made of, so that mutations land on other
    // valid tokens; sometimes any ASCII byte at all.
    let pool = b"0123456789.eE+-\",:{}[]\\nbfu \t";
    // A mutated error label is refused by both paths (a tally holds only
    // the labels a probe can fail with), so about a tenth of the bodies
    // still read.
    let mut still_read = 0;
    for _ in 0..3_600 {
        let mut bytes = body.as_bytes().to_vec();
        let at = (next() % bytes.len() as u64) as usize;
        bytes[at] = match next() % 4 {
            0 => (next() % 128) as u8,
            _ => pool[(next() % pool.len() as u64) as usize],
        };
        if let Ok(text) = String::from_utf8(bytes) {
            still_read += usize::from(assert_reads_like_the_tree(&text));
        }
    }
    // Digit-for-digit mutations keep a body readable: the comparison above
    // was not vacuous.
    assert!(still_read > 300, "{still_read} mutated bodies still read");
}

#[test]
fn header_checksum_is_read_only_as_written() {
    // A manifest whose checksum opens with a zero and holds a letter, so
    // that each respelling below is the same number to `from_str_radix`.
    let (text, hex) = (0..)
        .map(|seed| {
            let text = Manifest::new(0xfeed_beef, seed, 3, 4).encode();
            let hex = text.split([' ', '\n']).nth(2).unwrap().to_string();
            (text, hex)
        })
        .find(|(_, hex)| hex.starts_with('0') && hex.contains(char::is_alphabetic))
        .unwrap();
    assert!(Manifest::decode(&text).is_ok());
    // A sign, upper-case digits, a digit short, a token after it.
    for spelled in [
        format!("+{}", &hex[1..]),
        hex.to_ascii_uppercase(),
        hex[1..].to_string(),
        format!("{hex} v{CHECKPOINT_VERSION}"),
    ] {
        let number = spelled.split(' ').next().unwrap();
        assert_eq!(
            u64::from_str_radix(number, 16),
            u64::from_str_radix(&hex, 16)
        );
        let respelled = Manifest::decode(&text.replacen(&hex, &spelled, 1));
        assert!(
            matches!(respelled, Err(CheckpointError::Parse(_))),
            "{spelled}"
        );
    }
}

/// [`checksum`] as its definition reads: FNV-1a's step on each
/// little-endian word of the whole 32-byte strides, word `i` in lane
/// `i % 4`; then, from the offset basis, the tail's bytes, the four lanes
/// and the length.
fn checksum_by_definition(bytes: &[u8]) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let basis: u64 = 0xcbf2_9ce4_8422_2325;
    let whole = bytes.len() / 32 * 32;
    let mut lanes = [basis; 4];
    for (i, word) in bytes[..whole].chunks(8).enumerate() {
        lanes[i % 4] = step(lanes[i % 4], u64::from_le_bytes(word.try_into().unwrap()));
    }
    let tail = bytes[whole..].iter().fold(basis, |h, &b| step(h, b.into()));
    step(
        lanes.iter().fold(tail, |h, &l| step(h, l)),
        bytes.len() as u64,
    )
}

#[test]
fn checksum_matches_its_pinned_vectors() {
    // The format: a change here is a checkpoint version change.
    let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 % 256) as u8).collect();
    assert_eq!(checksum(b""), 0x7f6e_4d21_b650_a5a3);
    assert_eq!(checksum(&bytes), 0xbc0f_7b53_7189_8743);
    for len in 0..=bytes.len() {
        let prefix = &bytes[..len];
        assert_eq!(checksum(prefix), checksum_by_definition(prefix), "{len}");
    }
}

#[test]
fn checksum_catches_every_single_byte_change() {
    for len in (0..=96).chain([127, 128, 129, 255, 256, 257]) {
        let intact: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
        let sum = checksum(&intact);
        for (at, flip) in (0..len).flat_map(|at| [(at, 0x01), (at, 0x40), (at, 0x80)]) {
            let mut changed = intact.clone();
            changed[at] ^= flip;
            assert_ne!(checksum(&changed), sum, "{len} bytes, {at} ^ {flip:#x}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn manifest_encode_decode_round_trips(m in arb_manifest()) {
        let text = m.encode();
        let back = Manifest::decode(&text).unwrap();
        prop_assert_eq!(&back, &m);
        // Fixed point: re-encoding the decoded manifest is byte-identical.
        prop_assert_eq!(back.encode(), text);
    }

    #[test]
    fn cell_file_encode_decode_round_trips(cells in arb_cells()) {
        let text = cells.encode();
        let back = ShardCells::decode(&text).unwrap();
        prop_assert_eq!(&back, &cells);
        prop_assert_eq!(back.encode(), text);
    }

    #[test]
    fn cell_file_corruption_is_detected(
        cells in arb_cells(),
        idx in any::<prop::sample::Index>(),
        byte in 0u8..128,
    ) {
        let text = cells.encode();
        let mut mutated = text.clone().into_bytes();
        let i = idx.index(mutated.len());
        mutated[i] = byte;
        if let Ok(s) = std::str::from_utf8(&mutated) {
            // Never a panic and never different cells: a changed byte is
            // a typed error, and only the byte it replaced reads.
            match ShardCells::decode(s) {
                Ok(back) => {
                    prop_assert_eq!(s, text.as_str());
                    prop_assert_eq!(back, cells);
                }
                Err(_) => prop_assert_ne!(s, text.as_str()),
            }
        }
    }

    #[test]
    fn checksum_updates_split_anywhere_equal_the_one_shot_checksum(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut sum = Checksum::default();
        let mut from = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            sum.update(&bytes[from..cut]);
            from = cut;
        }
        prop_assert_eq!(sum.finish(), checksum(&bytes));
        prop_assert_eq!(checksum(&bytes), checksum_by_definition(&bytes));
    }

    #[test]
    fn metrics_cells_round_trip_bit_exactly(m in arb_pair_metrics()) {
        let json = pair_metrics_to_json(&m);
        let back = pair_metrics_from_json(&json).unwrap();
        prop_assert_eq!(float_bits(&back.cell), float_bits(&m.cell));
        prop_assert_eq!(&back, &m);
        // Fixed point.
        prop_assert_eq!(pair_metrics_to_json(&back), json);
    }

    #[test]
    fn sketch_json_round_trips_bit_exactly(s in arb_sketch()) {
        let back = sketch_from_json(&sketch_to_json(&s)).unwrap();
        prop_assert_eq!(&back, &s);
        if s.count() > 0 {
            prop_assert_eq!(back.mean().unwrap().to_bits(), s.mean().unwrap().to_bits());
            prop_assert_eq!(back.min().unwrap().to_bits(), s.min().unwrap().to_bits());
            prop_assert_eq!(back.max().unwrap().to_bits(), s.max().unwrap().to_bits());
        }
    }

    #[test]
    fn availability_json_round_trips(a in arb_availability()) {
        let back = availability_from_json(&availability_to_json(&a)).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn pair_day_health_json_round_trips(h in arb_pair_day_health()) {
        let back = pair_day_health_from_json(&pair_day_health_to_json(&h)).unwrap();
        prop_assert_eq!(back, h);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_text(s in "\\PC{0,300}") {
        let _ = Manifest::decode(&s);
        let _ = ShardCells::decode(&s);
    }

    #[test]
    fn decoder_never_panics_on_mangled_cell_bodies(
        cells in arb_cells(),
        idx in any::<prop::sample::Index>(),
        byte in 0u8..128,
    ) {
        // The body is changed and then framed anew, so the change gets
        // past the checksum into the field decoders.
        let text = cells.encode();
        let mut body = text.split_once('\n').unwrap().1.trim_end().as_bytes().to_vec();
        let i = idx.index(body.len());
        body[i] = byte;
        if let Ok(body) = std::str::from_utf8(&body) {
            let framed = format!(
                "edns-checkpoint v{CHECKPOINT_VERSION} {:016x}\n{body}\n",
                checksum(body.as_bytes())
            );
            let _ = ShardCells::decode(&framed);
        }
    }

    #[test]
    fn decoder_never_panics_on_mutated_manifests(
        m in arb_manifest(),
        idx in any::<prop::sample::Index>(),
        byte in 0u8..128,
    ) {
        let mut text = m.encode().into_bytes();
        if !text.is_empty() {
            let i = idx.index(text.len());
            text[i] = byte;
        }
        if let Ok(s) = std::str::from_utf8(&text) {
            // Must either decode (the mutation hit a byte that keeps both
            // checksum and structure valid — e.g. mutating a byte to
            // itself) or return a typed error; never panic.
            let _ = Manifest::decode(s);
        }
    }

    #[test]
    fn the_direct_writer_writes_the_tree_encoders_bytes(cells in arb_cells()) {
        prop_assert_eq!(cells.encode(), framed(&tree::encode_body(&cells)));
    }

    #[test]
    fn the_direct_reader_reads_like_the_tree(cells in arb_cells()) {
        let body = tree::encode_body(&cells);
        prop_assert!(assert_reads_like_the_tree(&body));
        let back = ShardCells::decode(&framed(&body)).unwrap();
        prop_assert_eq!(cell_float_bits(&back), cell_float_bits(&cells));
        prop_assert_eq!(back, cells);
    }

    #[test]
    fn mangled_cell_bodies_read_like_the_tree_or_not_at_all(
        cells in arb_cells(),
        idx in any::<prop::sample::Index>(),
        byte in 0u8..128,
    ) {
        let mut body = tree::encode_body(&cells).into_bytes();
        let i = idx.index(body.len());
        body[i] = byte;
        if let Ok(body) = String::from_utf8(body) {
            assert_reads_like_the_tree(&body);
        }
    }
}
