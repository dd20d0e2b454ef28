//! A parser for RFC 1035 master files ("zone files") — the standard way
//! authoritative DNS data is written down — so simulated authority trees
//! can be loaded from text instead of built in code.
//!
//! Supported subset: `$ORIGIN` / `$TTL` directives, `;` comments, `@` for
//! the origin, relative and absolute owner names, wildcard owners (`*`),
//! optional per-record TTL and `IN` class, and A / AAAA / CNAME / NS / MX /
//! TXT / PTR records.

use std::net::{Ipv4Addr, Ipv6Addr};

use dns_wire::{Name, RData, RecordType, TxtData};
use netsim::geo::City;

use crate::authority::Zone;

/// A zone-file parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ZoneParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zone file line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ZoneParseError {}

fn err(line: usize, msg: impl Into<String>) -> ZoneParseError {
    ZoneParseError {
        line,
        msg: msg.into(),
    }
}

/// Strips a trailing comment (outside quotes).
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            ';' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits a record line into fields, keeping quoted strings whole.
fn fields(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn resolve_name(token: &str, origin: &Name, line: usize) -> Result<Name, ZoneParseError> {
    if token == "@" {
        return Ok(origin.clone());
    }
    if let Some(stripped) = token.strip_suffix('.') {
        return Name::parse(stripped).map_err(|e| err(line, format!("bad name {token:?}: {e}")));
    }
    // Relative: append the origin.
    let mut labels: Vec<Vec<u8>> = token.split('.').map(|l| l.as_bytes().to_vec()).collect();
    for l in origin.labels() {
        labels.push(l.to_vec());
    }
    Name::from_labels(labels).map_err(|e| err(line, format!("bad name {token:?}: {e}")))
}

/// Parses one zone file into a [`Zone`] located at `location`.
///
/// The `$ORIGIN` directive (or the first absolute owner) defines the apex;
/// `origin` provides it when the file omits the directive.
pub fn parse_zone(
    text: &str,
    origin: Option<&str>,
    location: City,
) -> Result<Zone, ZoneParseError> {
    let mut origin: Option<Name> = match origin {
        Some(o) => Some(Name::parse(o).map_err(|e| err(0, format!("bad origin: {e}")))?),
        None => None,
    };
    let mut default_ttl: u64 = 3600;
    let mut zone: Option<Zone> = None;
    let mut last_owner: Option<Name> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let body = strip_comment(raw);
        if body.trim().is_empty() {
            continue;
        }
        // The owner field is omitted when the line starts with whitespace.
        let owner_omitted = body.starts_with(char::is_whitespace);
        let mut f = fields(body);
        if f.is_empty() {
            continue;
        }

        // Directives.
        if f[0] == "$ORIGIN" {
            let o = f.get(1).ok_or_else(|| err(line, "$ORIGIN needs a name"))?;
            let stripped = o.strip_suffix('.').unwrap_or(o);
            origin =
                Some(Name::parse(stripped).map_err(|e| err(line, format!("bad $ORIGIN: {e}")))?);
            continue;
        }
        if f[0] == "$TTL" {
            default_ttl = f
                .get(1)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(line, "$TTL needs a number"))?;
            continue;
        }

        let origin_name = origin
            .clone()
            .ok_or_else(|| err(line, "record before $ORIGIN (and no default origin)"))?;
        if zone.is_none() {
            zone = Some(Zone::new(origin_name.clone(), location));
        }

        // Owner.
        let owner = if owner_omitted {
            last_owner
                .clone()
                .ok_or_else(|| err(line, "blank owner with no previous record"))?
        } else {
            let token = f.remove(0);
            resolve_name(&token, &origin_name, line)?
        };
        last_owner = Some(owner.clone());

        // Optional TTL and class, in either order.
        let mut ttl = default_ttl;
        while let Some(first) = f.first() {
            if let Ok(t) = first.parse::<u64>() {
                ttl = t;
                f.remove(0);
            } else if first == "IN" {
                f.remove(0);
            } else {
                break;
            }
        }

        let rtype_token = if f.is_empty() {
            return Err(err(line, "missing record type"));
        } else {
            f.remove(0)
        };

        let wildcard = owner.labels().next().map(|l| l == b"*").unwrap_or(false);

        let (rtype, rdatas): (RecordType, Vec<RData>) = match rtype_token.as_str() {
            "A" => {
                let ips: Result<Vec<RData>, _> = f
                    .iter()
                    .map(|t| {
                        t.parse::<Ipv4Addr>()
                            .map(RData::A)
                            .map_err(|_| err(line, format!("bad A address {t:?}")))
                    })
                    .collect();
                let ips = ips?;
                if ips.is_empty() {
                    return Err(err(line, "A record needs an address"));
                }
                (RecordType::A, ips)
            }
            "AAAA" => {
                let ip: Ipv6Addr = f
                    .first()
                    .ok_or_else(|| err(line, "AAAA needs an address"))?
                    .parse()
                    .map_err(|_| err(line, "bad AAAA address"))?;
                (RecordType::AAAA, vec![RData::Aaaa(ip)])
            }
            "CNAME" => {
                let target = resolve_name(
                    f.first().ok_or_else(|| err(line, "CNAME needs a target"))?,
                    &origin_name,
                    line,
                )?;
                (RecordType::CNAME, vec![RData::Cname(target)])
            }
            "NS" => {
                let target = resolve_name(
                    f.first().ok_or_else(|| err(line, "NS needs a target"))?,
                    &origin_name,
                    line,
                )?;
                (RecordType::NS, vec![RData::Ns(target)])
            }
            "PTR" => {
                let target = resolve_name(
                    f.first().ok_or_else(|| err(line, "PTR needs a target"))?,
                    &origin_name,
                    line,
                )?;
                (RecordType::PTR, vec![RData::Ptr(target)])
            }
            "MX" => {
                let preference: u16 = f
                    .first()
                    .ok_or_else(|| err(line, "MX needs a preference"))?
                    .parse()
                    .map_err(|_| err(line, "bad MX preference"))?;
                let exchange = resolve_name(
                    f.get(1).ok_or_else(|| err(line, "MX needs an exchange"))?,
                    &origin_name,
                    line,
                )?;
                (
                    RecordType::MX,
                    vec![RData::Mx {
                        preference,
                        exchange,
                    }],
                )
            }
            "TXT" => {
                if f.is_empty() {
                    return Err(err(line, "TXT needs a string"));
                }
                (RecordType::TXT, vec![RData::Txt(TxtData::new(f.iter()))])
            }
            other => return Err(err(line, format!("unsupported record type {other:?}"))),
        };

        // detlint:allow(unwrap, record lines are rejected earlier unless a zone header initialised the zone)
        let z = zone.as_mut().expect("zone initialised above");
        if wildcard {
            z.add_wildcard(rtype, rdatas, ttl);
        } else {
            z.add(owner, rtype, rdatas, ttl);
        }
    }

    zone.ok_or_else(|| err(0, "zone file contains no records"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::{AuthorityAnswer, AuthorityTree};
    use netsim::geo::cities;

    const SAMPLE: &str = r#"
$ORIGIN example.org.
$TTL 300
@       IN  A     93.184.216.34       ; apex
@       IN  AAAA  2606:2800:220:1::1
www     IN  CNAME @
        600 IN TXT "v=spf1 -all" "second string"
mail    IN  MX    10 mx.example.org.
ns      IN  NS    ns1.provider.net.
*       IN  A     10.0.0.99           ; wildcard
"#;

    fn zone() -> Zone {
        parse_zone(SAMPLE, None, cities::FRANKFURT).unwrap()
    }

    fn tree_with(zone: Zone) -> AuthorityTree {
        let mut t = AuthorityTree::new();
        t.add_tld("org", cities::ASHBURN_VA);
        t.add_zone(zone);
        t
    }

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parses_apex_records() {
        let t = tree_with(zone());
        match t.authoritative_answer(&n("example.org"), RecordType::A) {
            AuthorityAnswer::Answer { records, ttl_secs } => {
                assert_eq!(
                    records[..],
                    vec![RData::A("93.184.216.34".parse().unwrap())]
                );
                assert_eq!(ttl_secs, 300, "default $TTL applies");
            }
            other => panic!("{other:?}"),
        }
        match t.authoritative_answer(&n("example.org"), RecordType::AAAA) {
            AuthorityAnswer::Answer { records, .. } => {
                assert!(matches!(records[0], RData::Aaaa(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relative_names_and_blank_owner_continuation() {
        let t = tree_with(zone());
        // www is a CNAME to the origin.
        match t.authoritative_answer(&n("www.example.org"), RecordType::CNAME) {
            AuthorityAnswer::Answer { records, .. } => {
                assert_eq!(records[..], vec![RData::Cname(n("example.org"))]);
            }
            other => panic!("{other:?}"),
        }
        // The TXT line has a blank owner → continues www, with explicit TTL.
        match t.authoritative_answer(&n("www.example.org"), RecordType::TXT) {
            AuthorityAnswer::Answer { records, ttl_secs } => {
                assert_eq!(ttl_secs, 600);
                match &records[0] {
                    RData::Txt(t) => {
                        let strings: Vec<&[u8]> = t.strings().collect();
                        assert_eq!(strings[0], b"v=spf1 -all");
                        assert_eq!(strings[1], b"second string");
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mx_and_wildcard() {
        let t = tree_with(zone());
        match t.authoritative_answer(&n("mail.example.org"), RecordType::MX) {
            AuthorityAnswer::Answer { records, .. } => {
                assert_eq!(
                    records[..],
                    vec![RData::Mx {
                        preference: 10,
                        exchange: n("mx.example.org"),
                    }]
                );
            }
            other => panic!("{other:?}"),
        }
        // Any unknown subdomain matches the wildcard.
        match t.authoritative_answer(&n("whatever.example.org"), RecordType::A) {
            AuthorityAnswer::Answer { records, .. } => {
                assert_eq!(records[..], vec![RData::A("10.0.0.99".parse().unwrap())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explicit_origin_parameter() {
        let z = parse_zone("@ IN A 1.2.3.4\n", Some("implied.test"), cities::SEOUL).unwrap();
        assert_eq!(z.apex, n("implied.test"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e =
            parse_zone("$ORIGIN x.test.\nfoo IN A not-an-ip\n", None, cities::SEOUL).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));

        let e = parse_zone("foo IN A 1.2.3.4\n", None, cities::SEOUL).unwrap_err();
        assert!(e.msg.contains("before $ORIGIN"));

        let e = parse_zone(
            "$ORIGIN x.test.\nfoo IN WKS whatever\n",
            None,
            cities::SEOUL,
        )
        .unwrap_err();
        assert!(e.msg.contains("unsupported"));

        assert!(parse_zone("; only comments\n", Some("x.test"), cities::SEOUL).is_err());
    }

    #[test]
    fn comments_inside_quotes_are_preserved() {
        let text = "$ORIGIN q.test.\n@ IN TXT \"semi;colon\" ; real comment\n";
        let z = parse_zone(text, None, cities::SEOUL).unwrap();
        let t = {
            let mut tree = AuthorityTree::new();
            tree.add_tld("test", cities::ASHBURN_VA);
            tree.add_zone(z);
            tree
        };
        match t.authoritative_answer(&n("q.test"), RecordType::TXT) {
            AuthorityAnswer::Answer { records, .. } => match &records[0] {
                RData::Txt(txt) => assert_eq!(txt.joined(), b"semi;colon"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiple_a_records_in_one_line() {
        let z = parse_zone(
            "$ORIGIN m.test.\n@ IN A 1.1.1.1 2.2.2.2 3.3.3.3\n",
            None,
            cities::SEOUL,
        )
        .unwrap();
        let mut tree = AuthorityTree::new();
        tree.add_tld("test", cities::ASHBURN_VA);
        tree.add_zone(z);
        match tree.authoritative_answer(&n("m.test"), RecordType::A) {
            AuthorityAnswer::Answer { records, .. } => assert_eq!(records.len(), 3),
            other => panic!("{other:?}"),
        }
    }
}
