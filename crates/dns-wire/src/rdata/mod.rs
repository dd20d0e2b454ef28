//! Record data (RDATA): typed for A, AAAA, CNAME, NS, PTR, MX, SOA, TXT
//! and OPT — what the simulated resolvers answer, what `zonefile` parses
//! and what EDNS(0) needs — and carried opaquely (RFC 3597) for every
//! other type, SRV, CAA, SVCB and HTTPS included.
//!
//! An opaque copy is exact only when the rdata holds no compression
//! pointer, which would point into the message it came from. RFC 2782
//! and RFC 9460 forbid compressing the names in SRV and SVCB/HTTPS rdata
//! and CAA holds no names, so those ride opaquely byte for byte. RFC 1035
//! lets SOA's two names be compressed, so SOA stays typed: decoding
//! resolves the pointers and encoding writes the names out whole.

mod opt;
mod soa;
mod txt;

pub use opt::{option_code, OptData, OptOption};
pub use soa::SoaData;
pub use txt::TxtData;

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::constants::RecordType;
use crate::error::WireError;
use crate::name::{Name, NameCompressor};
use crate::wire::{Reader, Writer};

/// Typed record data.
///
/// Name-bearing rdata (CNAME, NS, PTR, MX, SOA) encodes its names
/// *without* compression, following RFC 3597 §4's rule that servers must not
/// compress rdata of types unknown to the peer; modern encoders compress only
/// owner names. Decoding still accepts compressed rdata names for
/// compatibility with legacy responders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Alias target.
    Cname(Name),
    /// Delegated name server.
    Ns(Name),
    /// Reverse-mapping pointer.
    Ptr(Name),
    /// Mail exchange: preference then exchange host.
    Mx {
        /// Lower values are preferred.
        preference: u16,
        /// The mail host.
        exchange: Name,
    },
    /// Start of authority.
    Soa(SoaData),
    /// One or more text strings.
    Txt(TxtData),
    /// EDNS(0) options (pseudo-record).
    Opt(OptData),
    /// Any other type (SRV, CAA, SVCB, HTTPS, ...) carried opaquely
    /// (RFC 3597).
    Opaque {
        /// The record type whose rdata this is.
        rtype: RecordType,
        /// Raw rdata octets.
        data: Vec<u8>,
    },
}

impl RData {
    /// The record type this rdata belongs to.
    pub fn rtype(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::AAAA,
            RData::Cname(_) => RecordType::CNAME,
            RData::Ns(_) => RecordType::NS,
            RData::Ptr(_) => RecordType::PTR,
            RData::Mx { .. } => RecordType::MX,
            RData::Soa(_) => RecordType::SOA,
            RData::Txt(_) => RecordType::TXT,
            RData::Opt(_) => RecordType::OPT,
            RData::Opaque { rtype, .. } => *rtype,
        }
    }

    /// Encodes the rdata body (no RDLENGTH prefix — the caller patches it).
    pub fn encode(&self, w: &mut Writer, _c: &mut NameCompressor) -> Result<(), WireError> {
        match self {
            RData::A(ip) => w.write_slice(&ip.octets()),
            RData::Aaaa(ip) => w.write_slice(&ip.octets()),
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => n.encode_uncompressed(w),
            RData::Mx {
                preference,
                exchange,
            } => {
                w.write_u16(*preference)?;
                exchange.encode_uncompressed(w)
            }
            RData::Soa(s) => s.encode(w),
            RData::Txt(t) => t.encode(w),
            RData::Opt(o) => o.encode(w),
            RData::Opaque { data, .. } => w.write_slice(data),
        }
    }

    /// Decodes `rdlen` octets of rdata of type `rtype` from `r`.
    ///
    /// The reader must be positioned at the first rdata octet; on success the
    /// cursor sits exactly `rdlen` octets later.
    pub fn decode(r: &mut Reader<'_>, rtype: RecordType, rdlen: usize) -> Result<Self, WireError> {
        let start = r.position();
        if r.remaining() < rdlen {
            return Err(WireError::Truncated { expected: "rdata" });
        }
        let value = match rtype {
            RecordType::A => {
                let o = r.read_slice(4, "A rdata")?;
                RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RecordType::AAAA => {
                let o = r.read_slice(16, "AAAA rdata")?;
                let mut b = [0u8; 16];
                b.copy_from_slice(o);
                RData::Aaaa(Ipv6Addr::from(b))
            }
            RecordType::CNAME => RData::Cname(Name::decode(r)?),
            RecordType::NS => RData::Ns(Name::decode(r)?),
            RecordType::PTR => RData::Ptr(Name::decode(r)?),
            RecordType::MX => {
                let preference = r.read_u16("MX preference")?;
                let exchange = Name::decode(r)?;
                RData::Mx {
                    preference,
                    exchange,
                }
            }
            RecordType::SOA => RData::Soa(SoaData::decode(r)?),
            RecordType::TXT => RData::Txt(TxtData::decode(r, rdlen)?),
            RecordType::OPT => RData::Opt(OptData::decode(r, rdlen)?),
            other => {
                let data = r.read_slice(rdlen, "opaque rdata")?.to_vec();
                RData::Opaque { rtype: other, data }
            }
        };
        let consumed = r.position() - start;
        if consumed != rdlen {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlen,
                consumed,
            });
        }
        Ok(value)
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(ip) => write!(f, "{ip}"),
            RData::Aaaa(ip) => write!(f, "{ip}"),
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => write!(f, "{n}"),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Soa(s) => write!(f, "{s}"),
            RData::Txt(t) => write!(f, "{t}"),
            RData::Opt(_) => write!(f, "OPT"),
            RData::Opaque { data, .. } => {
                write!(f, "\\# {}", data.len())?;
                for b in data {
                    write!(f, " {b:02x}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rd: &RData) -> RData {
        let mut w = Writer::new();
        let mut c = NameCompressor::new();
        rd.encode(&mut w, &mut c).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = RData::decode(&mut r, rd.rtype(), bytes.len()).unwrap();
        assert!(r.is_empty());
        back
    }

    #[test]
    fn a_record_round_trip() {
        let rd = RData::A(Ipv4Addr::new(8, 8, 8, 8));
        assert_eq!(round_trip(&rd), rd);
        assert_eq!(rd.to_string(), "8.8.8.8");
        assert_eq!(rd.rtype(), RecordType::A);
    }

    #[test]
    fn aaaa_record_round_trip() {
        let rd = RData::Aaaa("2606:4700:4700::1111".parse().unwrap());
        assert_eq!(round_trip(&rd), rd);
        assert_eq!(rd.rtype(), RecordType::AAAA);
    }

    #[test]
    fn cname_ns_ptr_round_trip() {
        for rd in [
            RData::Cname(Name::parse("alias.example.com").unwrap()),
            RData::Ns(Name::parse("ns1.example.com").unwrap()),
            RData::Ptr(Name::parse("host.example.com").unwrap()),
        ] {
            assert_eq!(round_trip(&rd), rd);
        }
    }

    #[test]
    fn mx_round_trip_and_display() {
        let rd = RData::Mx {
            preference: 10,
            exchange: Name::parse("mx.example.com").unwrap(),
        };
        assert_eq!(round_trip(&rd), rd);
        assert_eq!(rd.to_string(), "10 mx.example.com.");
    }

    #[test]
    fn opaque_round_trip() {
        let rd = RData::Opaque {
            rtype: RecordType::Unknown(4242),
            data: vec![1, 2, 3, 4],
        };
        assert_eq!(round_trip(&rd), rd);
        assert_eq!(rd.to_string(), "\\# 4 01 02 03 04");
    }

    /// One response carrying `rdata` as the answer to `example.com`,
    /// built by hand: the owner name is a pointer to the question's.
    fn response_wire(rtype: u16, rdata: &[u8]) -> Vec<u8> {
        let mut wire = vec![0x12, 0x34, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0];
        wire.extend_from_slice(b"\x07example\x03com\x00");
        wire.extend_from_slice(&rtype.to_be_bytes());
        wire.extend_from_slice(&[0, 1, 0xc0, 0x0c]);
        wire.extend_from_slice(&rtype.to_be_bytes());
        wire.extend_from_slice(&[0, 1, 0, 0, 0x0e, 0x10]);
        wire.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        wire.extend_from_slice(rdata);
        wire
    }

    #[test]
    fn srv_caa_svcb_https_ride_opaque_rdata_byte_for_byte() {
        let cases: [(u16, &[u8]); 5] = [
            // SRV 10 60 853 dot.example.net.
            (33, b"\x00\x0a\x00\x3c\x03\x55\x03dot\x07example\x03net\x00"),
            // CAA 128 issue "letsencrypt.org"; CAA 0 iodef "".
            (257, b"\x80\x05issueletsencrypt.org"),
            (257, b"\x00\x05iodef"),
            // SVCB 0 pool.svc.example. (AliasMode, no parameters)
            (64, b"\x00\x00\x04pool\x03svc\x07example\x00"),
            // HTTPS 1 . alpn=h2,h3 ipv4hint=1.1.1.1 dohpath=/dns-query{?dns}
            (
                65,
                b"\x00\x01\x00\x00\x01\x00\x06\x02h2\x02h3\x00\x04\x00\x04\x01\x01\x01\x01\
                  \x00\x07\x00\x10/dns-query{?dns}",
            ),
        ];
        for (code, rdata) in cases {
            let wire = response_wire(code, rdata);
            let msg = crate::Message::decode(&wire).unwrap();
            assert_eq!(
                msg.answers[0].rdata,
                RData::Opaque {
                    rtype: RecordType::from_u16(code),
                    data: rdata.to_vec(),
                }
            );
            assert_eq!(msg.encode().unwrap(), wire, "type {code}");
        }
    }

    #[test]
    fn length_mismatch_detected() {
        // A record with declared rdlen 5 (A consumes 4).
        let bytes = [1u8, 2, 3, 4, 99];
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            RData::decode(&mut r, RecordType::A, 5),
            Err(WireError::RdataLengthMismatch {
                declared: 5,
                consumed: 4
            })
        ));
    }

    #[test]
    fn truncated_rdata_detected() {
        let bytes = [1u8, 2];
        let mut r = Reader::new(&bytes);
        assert!(RData::decode(&mut r, RecordType::A, 4).is_err());
    }
}
