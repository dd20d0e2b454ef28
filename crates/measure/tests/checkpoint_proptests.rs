//! Property tests for the checkpoint codec: manifests built from
//! arbitrary shard states and cell files built from arbitrary cells —
//! aggregate, metrics and health cells and retry exhaustions — must
//! encode/decode exactly, with every float bit for bit, the encoding must
//! be a fixed point (encode ∘ decode ∘ encode = encode), a changed byte
//! must never decode to different content, and no body, however mangled,
//! may panic a decoder.

use proptest::prelude::*;

use measure::aggregate::{AggregateCell, PairAggregate};
use measure::checkpoint::{
    availability_from_json, availability_to_json, fnv64, pair_day_health_from_json,
    pair_day_health_to_json, pair_metrics_from_json, pair_metrics_to_json, sketch_from_json,
    sketch_to_json, Manifest, PairDayHealth, PairMetrics, RetryExhausted, ShardCells,
    ShardCheckpoint, ShardState,
};
use measure::{HealthCell, Label, CHECKPOINT_VERSION};
use obs::{CellMetrics, Histogram, Phase};

use edns_stats::{Availability, LatencySketch};

const ERROR_LABELS: [&str; 4] = [
    "connect_timeout",
    "query_timeout",
    "tls_failure",
    "http_error",
];

fn arb_sketch() -> impl Strategy<Value = LatencySketch> {
    proptest::collection::vec(0.01f64..60_000.0, 0..40).prop_map(|samples| {
        let mut s = LatencySketch::new();
        for x in samples {
            s.observe(x);
        }
        s
    })
}

fn arb_availability() -> impl Strategy<Value = Availability> {
    (
        0u64..10_000,
        proptest::collection::vec((0usize..ERROR_LABELS.len(), 1u64..500), 0..4),
    )
        .prop_map(|(successes, errors)| {
            let mut a = Availability {
                successes,
                ..Availability::default()
            };
            for (label, count) in errors {
                *a.errors.entry(ERROR_LABELS[label].to_string()).or_insert(0) += count;
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
        |(pair, day, availability, response)| PairDayHealth {
            pair,
            day,
            cell: HealthCell {
                availability,
                response,
            },
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

fn arb_cells() -> impl Strategy<Value = ShardCells> {
    (
        0u32..64,
        proptest::collection::vec(arb_pair(), 0..5),
        proptest::collection::vec(arb_pair_metrics(), 0..4),
        proptest::collection::vec(arb_pair_day_health(), 0..6),
        proptest::collection::vec(arb_retry_exhausted(), 0..4),
    )
        .prop_map(|(shard, pairs, metrics, health, exhausted)| ShardCells {
            shard,
            pairs,
            metrics,
            health,
            exhausted,
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
            // a typed error, unless it leaves the content as it was (the
            // byte it replaced, or the other case of a header hex digit).
            match ShardCells::decode(s) {
                Ok(back) => prop_assert_eq!(back, cells),
                Err(_) => prop_assert_ne!(s, text.as_str()),
            }
        }
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
                fnv64(body.as_bytes())
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
}
