//! Property-based tests for the wire codec: round trips, canonical
//! encodings, and decoder robustness against arbitrary bytes.

use proptest::prelude::*;

use dns_wire::{
    base64url, Message, MessageBuilder, Name, RData, RecordType, ResourceRecord, SoaData, TxtData,
};
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        // Avoid '.' (label separator in presentation format); any other byte
        // is legal on the wire.
        (0u8..=255).prop_filter("not a dot", |b| *b != b'.'),
        1..=63,
    )
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..=5)
        .prop_filter_map("name too long", |labels| Name::from_labels(labels).ok())
}

/// Names over an eight-octet alphabet, in labels of one to three octets:
/// small enough that two generated names are often equal, equal up to
/// case, or hold labels that are prefixes of each other. The alphabet
/// straddles what lower-casing moves (`Z` sorts below `[` raw and above
/// it lower-cased), includes octets >= 0x80, which it must not touch, and
/// the zero octet, which the canonical key escapes.
fn arb_confusable_name() -> impl Strategy<Value = Name> {
    let octet = (0usize..8).prop_map(|i| b"\x00aAbZ[\x80\xff"[i]);
    let label = proptest::collection::vec(octet, 1..=3);
    proptest::collection::vec(label, 0..=3)
        .prop_map(|labels| Name::from_labels(labels).expect("short labels fit"))
}

/// `Name`'s order as first written: compare the collected lower-cased
/// labels, right-most first (RFC 4034 §6.1).
fn collected_order(a: &Name, b: &Name) -> std::cmp::Ordering {
    let key = |n: &Name| {
        let mut labels: Vec<Vec<u8>> = n.labels().map(|l| l.to_ascii_lowercase()).collect();
        labels.reverse();
        labels
    };
    key(a).cmp(&key(b))
}

/// `is_subdomain_of` as first written: `b`'s labels, compared case-blind
/// one by one, are the last of `a`'s.
fn labelwise_subdomain(a: &Name, b: &Name) -> bool {
    let (a, b): (Vec<&[u8]>, Vec<&[u8]>) = (a.labels().collect(), b.labels().collect());
    b.len() <= a.len()
        && a[a.len() - b.len()..]
            .iter()
            .zip(&b)
            .all(|(x, y)| x.eq_ignore_ascii_case(y))
}

fn hash_of(n: &Name) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault};
    BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(n)
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                })
            }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..255), 1..4)
            .prop_map(|ss| RData::Txt(TxtData::new(ss))),
        (
            prop_oneof![
                // Codes past every typed one, and the named types that ride
                // opaque rdata: SRV, SVCB, HTTPS, CAA.
                (1001u16..=1500).prop_map(RecordType::from_u16),
                (0usize..4).prop_map(|i| RecordType::from_u16([33, 64, 65, 257][i])),
            ],
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(rtype, data)| RData::Opaque { rtype, data }),
    ]
}

/// Every pair of names built from labels of one and two octets over
/// `00`, `A`, `Z`, `a` and `FF` — labels that are prefixes of one
/// another, equal up to case, or differ in an escaped zero — as single
/// labels and under each one-octet TLD: order, subdomain and hash against
/// their label-wise definitions.
#[test]
fn name_order_subdomain_and_hash_on_prefix_labels() {
    const OCTETS: [u8; 5] = [0x00, b'A', b'Z', b'a', 0xFF];
    let short: Vec<Vec<u8>> = OCTETS.iter().map(|&o| vec![o]).collect();
    let labels: Vec<Vec<u8>> = (short.iter().cloned())
        .chain(
            OCTETS
                .iter()
                .flat_map(|&x| OCTETS.iter().map(move |&y| vec![x, y])),
        )
        .collect();
    let mut names = vec![Name::root()];
    for label in &labels {
        names.push(Name::from_labels([label]).unwrap());
        for tld in &short {
            names.push(Name::from_labels([label, tld]).unwrap());
        }
    }
    for a in &names {
        for b in &names {
            let order = a.cmp(b);
            assert_eq!(order, collected_order(a, b), "{a} vs {b}");
            assert_eq!(order == std::cmp::Ordering::Equal, a == b, "{a} vs {b}");
            assert_eq!(
                a.is_subdomain_of(b),
                labelwise_subdomain(a, b),
                "{a} under {b}"
            );
            if a == b {
                assert_eq!(hash_of(a), hash_of(b), "{a} vs {b}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn name_parse_display_round_trip(labels in proptest::collection::vec("[a-z0-9-]{1,20}", 1..5)) {
        let text = labels.join(".");
        if let Ok(name) = Name::parse(&text) {
            let shown = name.to_string();
            let back = Name::parse(&shown).unwrap();
            prop_assert_eq!(back, name);
        }
    }

    // Order, and with it `is_subdomain_of` and `Hash`, against their
    // label-wise definitions: on two confusable names, two arbitrary ones,
    // a name and its parent, and a name and itself upper-cased.
    #[test]
    fn name_order_matches_collected_lowercase_labels(
        a in arb_confusable_name(),
        b in arb_confusable_name(),
        x in arb_name(),
        y in arb_name(),
    ) {
        let parent = a.parent().unwrap_or_else(Name::root);
        let upper = Name::from_labels(a.labels().map(<[u8]>::to_ascii_uppercase)).unwrap();
        let pairs = [(&a, &b), (&x, &y), (&a, &x), (&a, &a), (&a, &parent), (&upper, &a)];
        for (a, b) in pairs.into_iter().flat_map(|(a, b)| [(a, b), (b, a)]) {
            let order = a.cmp(b);
            prop_assert_eq!(order, collected_order(a, b), "{} vs {}", a, b);
            prop_assert_eq!(b.cmp(a), order.reverse());
            prop_assert_eq!(order == std::cmp::Ordering::Equal, a == b, "{} vs {}", a, b);
            prop_assert_eq!(a.is_subdomain_of(b), labelwise_subdomain(a, b), "{} under {}", a, b);
            if a == b {
                prop_assert_eq!(hash_of(a), hash_of(b), "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn name_wire_round_trip(name in arb_name()) {
        let mut w = dns_wire::Writer::new();
        name.encode_uncompressed(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = dns_wire::Reader::new(&bytes);
        let back = Name::decode(&mut r).unwrap();
        prop_assert_eq!(back, name);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn message_round_trip(
        id in any::<u16>(),
        qname in arb_name(),
        records in proptest::collection::vec((arb_name(), any::<u32>(), arb_rdata()), 0..6),
        use_edns in any::<bool>(),
    ) {
        let mut builder = MessageBuilder::query(id, qname, RecordType::A)
            .recursion_desired(true);
        if use_edns {
            builder = builder.edns_udp_size(1232);
        }
        let mut msg = builder.build();
        msg.header.flags.response = true;
        for (name, ttl, rdata) in records {
            msg.answers.push(ResourceRecord::new(name, ttl, rdata));
        }
        let bytes = msg.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(back.header.id, id);
        prop_assert_eq!(&back.questions, &msg.questions);
        prop_assert_eq!(&back.answers, &msg.answers);
        prop_assert_eq!(&back.edns, &msg.edns);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        // Any byte salad must produce Ok or Err, never a panic or hang.
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_message(
        qname in arb_name(),
        flip_at in any::<prop::sample::Index>(),
        new_byte in any::<u8>(),
    ) {
        let msg = MessageBuilder::query(1, qname, RecordType::A)
            .edns_udp_size(4096)
            .build();
        let mut bytes = msg.encode().unwrap();
        let i = flip_at.index(bytes.len());
        bytes[i] = new_byte;
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn base64url_round_trip(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let enc = base64url::encode(&data);
        prop_assert_eq!(base64url::decode(&enc).unwrap(), data);
        prop_assert!(enc.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_'));
    }

    #[test]
    fn base64url_decode_arbitrary_strings(s in "[ -~]{0,64}") {
        // Printable-ASCII salad: decode must never panic, and when it
        // succeeds re-encoding must reproduce the canonical input.
        if let Ok(raw) = base64url::decode(&s) {
            prop_assert_eq!(base64url::encode(&raw), s);
        }
    }

    #[test]
    fn compression_preserves_names(
        names in proptest::collection::vec(arb_name(), 1..8),
    ) {
        // Encode many records sharing suffixes; decode must recover each
        // owner name exactly.
        let mut msg = Message::default();
        msg.header.flags.response = true;
        for n in &names {
            msg.answers.push(ResourceRecord::new(
                n.clone(),
                1,
                RData::A(Ipv4Addr::new(127, 0, 0, 1)),
            ));
        }
        let bytes = msg.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        let got: Vec<Name> = back.answers.into_iter().map(|r| r.name).collect();
        prop_assert_eq!(got, names);
    }
}
