//! Property-based tests for the hand-written JSON codec and the probe
//! record serialisation.

use proptest::prelude::*;

use measure::json::{parse, write_str, Json};

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

/// Runs that need no escape (ASCII and not), cut by every character that
/// needs one.
fn arb_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[ !#-Z^-~]{0,12}",
        "\\PC{0,6}",
        (0u8..0x20).prop_map(|b| char::from(b).to_string()),
        Just("\"".to_string()),
        Just("\\".to_string()),
    ];
    proptest::collection::vec(piece, 0..8).prop_map(|pieces| pieces.concat())
}

/// `write_str` one character at a time, as it was before it pushed runs.
fn escaped_per_char(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Clean strings round-trip through the whole-string push exactly
    // like escaped ones: same bytes as the per-character writer, and a
    // string with nothing to escape is itself between quotes.
    #[test]
    fn strings_push_in_runs_like_they_did_per_char(s in arb_text()) {
        let mut text = String::new();
        write_str(&mut text, &s);
        prop_assert_eq!(&text, &escaped_per_char(&s));
        prop_assert_eq!(parse(&text).unwrap(), Json::Str(s.clone()));
        if !s.contains(|c: char| c < ' ' || c == '"' || c == '\\') {
            prop_assert_eq!(text, format!("\"{s}\""));
        }
    }

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
