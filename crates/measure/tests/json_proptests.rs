//! Property-based tests for the hand-written JSON codec and the probe
//! record serialisation.

use proptest::prelude::*;

use measure::json::{parse, Json};

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        // Finite floats only; NaN/Inf serialise to null by design.
        (-1e12f64..1e12).prop_map(Json::Float),
        "[ -~]{0,24}".prop_map(Json::Str),
        // Non-ASCII strings too.
        "\\PC{0,8}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 64, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            proptest::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Json::Object),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn serialize_parse_round_trip(v in arb_json()) {
        let text = v.to_string_compact();
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,200}") {
        let _ = parse(&s);
    }

    #[test]
    fn parser_never_panics_on_bytes(bytes in proptest::collection::vec(0u8..128, 0..200)) {
        if let Ok(s) = std::str::from_utf8(&bytes) {
            let _ = parse(s);
        }
    }

    #[test]
    fn mutated_documents_never_panic(v in arb_json(), idx in any::<prop::sample::Index>(), byte in 0u8..128) {
        let mut text = v.to_string_compact().into_bytes();
        if !text.is_empty() {
            let i = idx.index(text.len());
            text[i] = byte;
        }
        if let Ok(s) = std::str::from_utf8(&text) {
            let _ = parse(s);
        }
    }
}
