//! SVCB / HTTPS rdata (RFC 9460), the record type browsers use to discover
//! encrypted-DNS-capable endpoints (and, via SvcParam `alpn`, HTTP/3).

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::error::WireError;
use crate::name::Name;
use crate::wire::{Reader, Writer};

/// SvcParam keys this crate understands by name.
pub mod param_key {
    /// ALPN protocol list.
    pub const ALPN: u16 = 1;
    /// Alternative port.
    pub const PORT: u16 = 3;
    /// IPv4 address hints.
    pub const IPV4HINT: u16 = 4;
    /// IPv6 address hints.
    pub const IPV6HINT: u16 = 6;
    /// DoH URI template path (RFC 9461 `dohpath`).
    pub const DOHPATH: u16 = 7;
}

/// One service parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcParam {
    /// ALPN identifiers, e.g. `h2`, `h3`, `dot`, `doq`.
    Alpn(Vec<Vec<u8>>),
    /// Alternative port.
    Port(u16),
    /// IPv4 address hints.
    Ipv4Hint(Vec<Ipv4Addr>),
    /// IPv6 address hints.
    Ipv6Hint(Vec<Ipv6Addr>),
    /// DoH path template, e.g. `/dns-query{?dns}` (RFC 9461).
    DohPath(Vec<u8>),
    /// Any other key, carried opaquely.
    Opaque {
        /// SvcParamKey.
        key: u16,
        /// SvcParamValue octets.
        value: Vec<u8>,
    },
}

impl SvcParam {
    /// The numeric SvcParamKey.
    pub fn key(&self) -> u16 {
        match self {
            SvcParam::Alpn(_) => param_key::ALPN,
            SvcParam::Port(_) => param_key::PORT,
            SvcParam::Ipv4Hint(_) => param_key::IPV4HINT,
            SvcParam::Ipv6Hint(_) => param_key::IPV6HINT,
            SvcParam::DohPath(_) => param_key::DOHPATH,
            SvcParam::Opaque { key, .. } => *key,
        }
    }

    fn encode_value(&self, w: &mut Writer) -> Result<(), WireError> {
        match self {
            SvcParam::Alpn(ids) => {
                for id in ids {
                    if id.is_empty() || id.len() > 255 {
                        return Err(WireError::InvalidText {
                            reason: "alpn id must be 1-255 octets",
                        });
                    }
                    w.write_u8(id.len() as u8)?;
                    w.write_slice(id)?;
                }
                Ok(())
            }
            SvcParam::Port(p) => w.write_u16(*p),
            SvcParam::Ipv4Hint(ips) => {
                for ip in ips {
                    w.write_slice(&ip.octets())?;
                }
                Ok(())
            }
            SvcParam::Ipv6Hint(ips) => {
                for ip in ips {
                    w.write_slice(&ip.octets())?;
                }
                Ok(())
            }
            SvcParam::DohPath(p) => w.write_slice(p),
            SvcParam::Opaque { value, .. } => w.write_slice(value),
        }
    }

    fn decode_value(key: u16, value: &[u8]) -> Result<Self, WireError> {
        match key {
            param_key::ALPN => {
                let mut r = Reader::new(value);
                let mut ids = Vec::new();
                while !r.is_empty() {
                    let len = r.read_u8("alpn length")? as usize;
                    ids.push(r.read_slice(len, "alpn id")?.to_vec());
                }
                Ok(SvcParam::Alpn(ids))
            }
            param_key::PORT => {
                if value.len() != 2 {
                    return Err(WireError::InvalidText {
                        reason: "port SvcParam must be 2 octets",
                    });
                }
                Ok(SvcParam::Port(u16::from_be_bytes([value[0], value[1]])))
            }
            param_key::IPV4HINT => {
                if !value.len().is_multiple_of(4) || value.is_empty() {
                    return Err(WireError::InvalidText {
                        reason: "ipv4hint must be a non-empty multiple of 4 octets",
                    });
                }
                Ok(SvcParam::Ipv4Hint(
                    value
                        .chunks(4)
                        .map(|c| Ipv4Addr::new(c[0], c[1], c[2], c[3]))
                        .collect(),
                ))
            }
            param_key::IPV6HINT => {
                if !value.len().is_multiple_of(16) || value.is_empty() {
                    return Err(WireError::InvalidText {
                        reason: "ipv6hint must be a non-empty multiple of 16 octets",
                    });
                }
                Ok(SvcParam::Ipv6Hint(
                    value
                        .chunks(16)
                        .map(|c| {
                            let mut b = [0u8; 16];
                            b.copy_from_slice(c);
                            Ipv6Addr::from(b)
                        })
                        .collect(),
                ))
            }
            param_key::DOHPATH => Ok(SvcParam::DohPath(value.to_vec())),
            other => Ok(SvcParam::Opaque {
                key: other,
                value: value.to_vec(),
            }),
        }
    }
}

/// SVCB or HTTPS record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvcbData {
    /// True when this rdata belongs to an HTTPS record rather than SVCB.
    pub https: bool,
    /// 0 = AliasMode; ≥1 = ServiceMode priority.
    pub priority: u16,
    /// Target name (`.` means "same as owner").
    pub target: Name,
    /// Service parameters, sorted by key on encode per RFC 9460 §2.2.
    pub params: Vec<SvcParam>,
}

impl SvcbData {
    /// Encodes the SVCB body, sorting parameters by key as the RFC requires.
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        w.write_u16(self.priority)?;
        self.target.encode_uncompressed(w)?;
        let mut params: Vec<&SvcParam> = self.params.iter().collect();
        params.sort_by_key(|p| p.key());
        for p in params {
            w.write_u16(p.key())?;
            let len_pos = w.len();
            w.write_u16(0)?;
            let before = w.len();
            p.encode_value(w)?;
            let vlen = w.len() - before;
            if vlen > u16::MAX as usize {
                return Err(WireError::InvalidText {
                    reason: "SvcParamValue exceeds 65535 octets",
                });
            }
            w.patch_u16(len_pos, vlen as u16);
        }
        Ok(())
    }

    /// Decodes exactly `rdlen` octets.
    pub fn decode(r: &mut Reader<'_>, rdlen: usize, https: bool) -> Result<Self, WireError> {
        let end = r.position() + rdlen;
        let priority = r.read_u16("SVCB priority")?;
        let target = Name::decode(r)?;
        let mut params = Vec::new();
        while r.position() < end {
            let key = r.read_u16("SvcParamKey")?;
            let len = r.read_u16("SvcParamValue length")? as usize;
            if r.position() + len > end {
                return Err(WireError::Truncated {
                    expected: "SvcParamValue",
                });
            }
            let value = r.read_slice(len, "SvcParamValue")?;
            params.push(SvcParam::decode_value(key, value)?);
        }
        Ok(SvcbData {
            https,
            priority,
            target,
            params,
        })
    }

    /// Returns the `dohpath` parameter as a string, if present and UTF-8.
    pub fn doh_path(&self) -> Option<String> {
        self.params.iter().find_map(|p| match p {
            SvcParam::DohPath(bytes) => String::from_utf8(bytes.clone()).ok(),
            _ => None,
        })
    }
}

impl fmt::Display for SvcbData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.priority, self.target)?;
        for p in &self.params {
            match p {
                SvcParam::Alpn(ids) => {
                    let joined: Vec<String> = ids
                        .iter()
                        .map(|i| String::from_utf8_lossy(i).into_owned())
                        .collect();
                    write!(f, " alpn={}", joined.join(","))?;
                }
                SvcParam::Port(p) => write!(f, " port={p}")?,
                SvcParam::Ipv4Hint(ips) => {
                    let joined: Vec<String> = ips.iter().map(|i| i.to_string()).collect();
                    write!(f, " ipv4hint={}", joined.join(","))?;
                }
                SvcParam::Ipv6Hint(ips) => {
                    let joined: Vec<String> = ips.iter().map(|i| i.to_string()).collect();
                    write!(f, " ipv6hint={}", joined.join(","))?;
                }
                SvcParam::DohPath(p) => write!(f, " dohpath={}", String::from_utf8_lossy(p))?,
                SvcParam::Opaque { key, .. } => write!(f, " key{key}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(d: &SvcbData) -> SvcbData {
        let mut w = Writer::new();
        d.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = SvcbData::decode(&mut r, bytes.len(), d.https).unwrap();
        assert!(r.is_empty());
        back
    }

    fn doh_https_record() -> SvcbData {
        SvcbData {
            https: true,
            priority: 1,
            target: Name::root(),
            params: vec![
                SvcParam::Alpn(vec![b"h2".to_vec(), b"h3".to_vec()]),
                SvcParam::Ipv4Hint(vec![Ipv4Addr::new(1, 1, 1, 1)]),
                SvcParam::DohPath(b"/dns-query{?dns}".to_vec()),
            ],
        }
    }

    #[test]
    fn https_record_round_trips() {
        let d = doh_https_record();
        let back = round_trip(&d);
        // Params may be re-ordered by key; compare as sets.
        assert_eq!(back.priority, d.priority);
        assert_eq!(back.target, d.target);
        assert_eq!(back.params.len(), d.params.len());
        for p in &d.params {
            assert!(back.params.contains(p), "missing param {p:?}");
        }
    }

    #[test]
    fn doh_path_accessor() {
        assert_eq!(
            doh_https_record().doh_path().as_deref(),
            Some("/dns-query{?dns}")
        );
    }

    #[test]
    fn alias_mode() {
        let d = SvcbData {
            https: false,
            priority: 0,
            target: Name::parse("pool.svc.example").unwrap(),
            params: vec![],
        };
        assert_eq!(round_trip(&d).target, d.target);
    }

    #[test]
    fn params_encoded_sorted_by_key() {
        let d = SvcbData {
            https: true,
            priority: 1,
            target: Name::root(),
            params: vec![
                SvcParam::DohPath(b"/q".to_vec()),    // key 7
                SvcParam::Alpn(vec![b"h2".to_vec()]), // key 1
            ],
        };
        let mut w = Writer::new();
        d.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        // After priority (2) + root name (1), first param key must be 1.
        assert_eq!(u16::from_be_bytes([bytes[3], bytes[4]]), 1);
    }

    #[test]
    fn bad_port_length_rejected() {
        assert!(SvcParam::decode_value(param_key::PORT, &[1]).is_err());
    }

    #[test]
    fn bad_hint_length_rejected() {
        assert!(SvcParam::decode_value(param_key::IPV4HINT, &[1, 2, 3]).is_err());
        assert!(SvcParam::decode_value(param_key::IPV6HINT, &[]).is_err());
    }

    #[test]
    fn display_mentions_alpn_and_path() {
        let s = doh_https_record().to_string();
        assert!(s.contains("alpn=h2,h3"));
        assert!(s.contains("dohpath=/dns-query{?dns}"));
    }
}
