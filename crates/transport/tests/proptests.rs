//! Property-based tests for the transport layer: HPACK and HTTP/2 framing
//! round trips over arbitrary inputs, decoders (HPACK, HTTP/2 frames,
//! HTTP/1.1 responses) that never panic, and flight-exchange invariants.

use proptest::prelude::*;

use netsim::geo::cities;
use netsim::{AccessProfile, Path, SimDuration, SimRng};
use transport::http2::frames::{Frame, FrameType};
use transport::http2::hpack::{Decoder, Encoder, HeaderField};
use transport::{exchange, h1_parse_response, RetryPolicy, TransportErrorKind};

fn arb_header() -> impl Strategy<Value = HeaderField> {
    // Header names are lowercase tokens; values printable ASCII.
    ("[a-z][a-z0-9-]{0,20}", "[ -~]{0,40}").prop_map(|(n, v)| HeaderField::new(n, v))
}

fn arb_pseudo_or_header() -> impl Strategy<Value = HeaderField> {
    prop_oneof![
        arb_header(),
        Just(HeaderField::new(":method", "GET")),
        Just(HeaderField::new(":method", "POST")),
        Just(HeaderField::new(":scheme", "https")),
        ("[a-z0-9.-]{1,30}").prop_map(|a| HeaderField::new(":authority", a)),
        ("[ -~]{1,60}").prop_map(|p| HeaderField::new(":path", p)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hpack_round_trips_arbitrary_header_lists(
        lists in proptest::collection::vec(
            proptest::collection::vec(arb_pseudo_or_header(), 0..12),
            1..5
        )
    ) {
        // One encoder/decoder pair across several blocks (shared dynamic
        // table state must stay in sync).
        let mut enc = Encoder::default();
        let mut dec = Decoder::default();
        for fields in &lists {
            let block = enc.encode(fields);
            let back = dec.decode(&block).unwrap();
            prop_assert_eq!(&back, fields);
        }
    }

    #[test]
    fn hpack_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut dec = Decoder::default();
        let _ = dec.decode(&bytes);
    }

    #[test]
    fn hpack_small_tables_still_round_trip(
        table_size in 0usize..200,
        fields in proptest::collection::vec(arb_header(), 0..10),
    ) {
        let mut enc = Encoder::new(table_size);
        let mut dec = Decoder::new(table_size);
        let block = enc.encode(&fields);
        prop_assert_eq!(dec.decode(&block).unwrap(), fields);
    }

    #[test]
    fn frames_round_trip(
        specs in proptest::collection::vec(
            (0u8..12, any::<u8>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..200)),
            0..8
        )
    ) {
        let frames: Vec<Frame> = specs
            .into_iter()
            .map(|(t, f, sid, payload)| {
                Frame::new(FrameType::from_u8(t), f, sid & 0x7FFF_FFFF, payload)
            })
            .collect();
        let wire = Frame::encode_all(&frames, false);
        let back = Frame::decode_all(&wire).unwrap();
        prop_assert_eq!(back, frames);
    }

    #[test]
    fn frame_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = Frame::decode_all(&bytes);
    }

    #[test]
    fn http1_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = h1_parse_response(&bytes);
    }

    #[test]
    fn http1_parser_never_panics_on_any_content_length(
        length in prop_oneof![
            (0u64..80).prop_map(|n| n.to_string()),
            // Lengths whose sum with the head's overflows a usize.
            (0u64..128).prop_map(|n| (u64::MAX - n).to_string()),
            any::<u64>().prop_map(|n| n.to_string()),
            "[ -~]{0,24}",
        ],
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = format!("HTTP/1.1 200 OK\r\ncontent-length: {length}\r\n\r\n").into_bytes();
        wire.extend_from_slice(&body);
        if let Ok(resp) = h1_parse_response(&wire) {
            prop_assert!(resp.body.len() <= body.len());
        }
    }

    #[test]
    fn exchange_time_is_bounded_by_the_retry_schedule(
        seed in any::<u64>(),
        extra_loss in 0.0f64..1.0,
        server_ms in 0u64..100,
    ) {
        let mut path = Path::between(
            cities::COLUMBUS_OH.point,
            AccessProfile::cloud_vm(),
            cities::FRANKFURT.point,
            AccessProfile::datacenter(),
        );
        path.extra_loss = extra_loss;
        let mut rng = SimRng::from_seed(seed);
        let policy = RetryPolicy::tcp_syn();
        // Worst case: all attempts burn their RTO: 1+2+4+8 = 15 s.
        let ceiling = SimDuration::from_secs(15);
        match exchange(
            &path, 100, 200,
            SimDuration::from_millis(server_ms),
            policy,
            TransportErrorKind::ConnectTimeout,
            &mut rng,
        ) {
            Ok(out) => {
                prop_assert!(out.attempts >= 1 && out.attempts <= policy.max_attempts);
                prop_assert!(out.final_rtt <= out.elapsed);
                // elapsed = burned RTOs + final rtt <= ceiling + final rtt.
                prop_assert!(out.elapsed <= ceiling + out.final_rtt);
            }
            Err(e) => {
                prop_assert_eq!(e.elapsed, ceiling);
            }
        }
    }

    #[test]
    fn rtt_estimator_stays_positive(rtts in proptest::collection::vec(1u64..10_000, 1..100)) {
        let mut est = transport::RttEstimator::new(SimDuration::from_millis(rtts[0]));
        for &ms in &rtts[1..] {
            est.update(SimDuration::from_millis(ms));
        }
        prop_assert!(est.srtt() > SimDuration::ZERO);
        let min_rto = SimDuration::from_millis(200);
        prop_assert!(est.rto(min_rto) >= min_rto);
        // SRTT stays within the observed range (it is a convex combination).
        let max = *rtts.iter().max().unwrap();
        prop_assert!(est.srtt() <= SimDuration::from_millis(max + 1));
    }
}
