//! Whole-message encoding and decoding (RFC 1035 §4.1).

use std::fmt;

use crate::constants::{Rcode, RecordType};
use crate::error::WireError;
use crate::header::Header;
use crate::name::NameCompressor;
use crate::question::Question;
use crate::rdata::{OptData, RData};
use crate::record::ResourceRecord;
use crate::wire::{Reader, Writer};

/// EDNS(0) parameters extracted from (or destined for) an OPT pseudo-record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edns {
    /// Advertised maximum UDP payload size.
    pub udp_payload_size: u16,
    /// High 8 bits of the extended rcode.
    pub extended_rcode: u8,
    /// EDNS version (0).
    pub version: u8,
    /// DNSSEC-OK bit.
    pub dnssec_ok: bool,
    /// The option list.
    pub options: OptData,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_payload_size: crate::EDNS_UDP_PAYLOAD,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
            options: OptData::default(),
        }
    }
}

impl Edns {
    fn to_record(&self) -> ResourceRecord {
        let mut ttl = 0u32;
        ttl |= (self.extended_rcode as u32) << 24;
        ttl |= (self.version as u32) << 16;
        if self.dnssec_ok {
            ttl |= 1 << 15;
        }
        ResourceRecord {
            name: crate::Name::root(),
            class_raw: self.udp_payload_size,
            ttl_raw: ttl,
            rdata: RData::Opt(self.options.clone()),
        }
    }

    fn from_record(rr: &ResourceRecord) -> Result<Self, WireError> {
        let options = match &rr.rdata {
            RData::Opt(o) => o.clone(),
            _ => return Err(WireError::MalformedEdns("OPT record without OPT rdata")),
        };
        if !rr.name.is_root() {
            return Err(WireError::MalformedEdns("OPT owner must be the root name"));
        }
        Ok(Edns {
            udp_payload_size: rr.class_raw,
            extended_rcode: (rr.ttl_raw >> 24) as u8,
            version: ((rr.ttl_raw >> 16) & 0xFF) as u8,
            dnssec_ok: rr.ttl_raw & (1 << 15) != 0,
            options,
        })
    }
}

/// A complete DNS message: header, four sections, and optional EDNS data.
///
/// The OPT pseudo-record is lifted out of the additional section into
/// [`Message::edns`] on decode and re-inserted on encode, so application code
/// never sees it as an ordinary record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// The message header. `qdcount`..`arcount` are recomputed on encode.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authorities: Vec<ResourceRecord>,
    /// Additional section, excluding any OPT record.
    pub additionals: Vec<ResourceRecord>,
    /// EDNS(0) parameters, if an OPT record is present.
    pub edns: Option<Edns>,
}

impl Message {
    /// The effective response code, merging the header's 4 bits with the
    /// EDNS extended bits when present.
    pub fn rcode(&self) -> Rcode {
        match &self.edns {
            Some(e) => Rcode::from_parts(self.header.flags.rcode.low_bits(), e.extended_rcode),
            None => self.header.flags.rcode,
        }
    }

    /// Encodes the message to wire format, recomputing all section counts.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut w = Writer::with_capacity(512);
        let mut c = NameCompressor::new();

        let arcount = self.additionals.len() + usize::from(self.edns.is_some());
        let header = Header {
            qdcount: self.questions.len() as u16,
            ancount: self.answers.len() as u16,
            nscount: self.authorities.len() as u16,
            arcount: arcount as u16,
            ..self.header
        };
        header.encode(&mut w)?;
        for q in &self.questions {
            q.encode(&mut w, &mut c)?;
        }
        for rr in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            rr.encode(&mut w, &mut c)?;
        }
        if let Some(edns) = &self.edns {
            edns.to_record().encode(&mut w, &mut c)?;
        }
        Ok(w.into_bytes())
    }

    /// Decodes a full message, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let msg = Self::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(msg)
    }

    /// Decodes a message from a reader (which may hold trailing data).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let header = Header::decode(r)?;
        let mut questions = Vec::with_capacity(header.qdcount as usize);
        for _ in 0..header.qdcount {
            questions.push(Question::decode(r).map_err(|_| WireError::CountMismatch {
                section: "question",
            })?);
        }
        let mut answers = Vec::with_capacity(header.ancount as usize);
        for _ in 0..header.ancount {
            answers.push(ResourceRecord::decode(r).map_err(|e| upgrade(e, "answer"))?);
        }
        let mut authorities = Vec::with_capacity(header.nscount as usize);
        for _ in 0..header.nscount {
            authorities.push(ResourceRecord::decode(r).map_err(|e| upgrade(e, "authority"))?);
        }
        let mut additionals = Vec::with_capacity(header.arcount as usize);
        let mut edns = None;
        for _ in 0..header.arcount {
            let rr = ResourceRecord::decode(r).map_err(|e| upgrade(e, "additional"))?;
            if rr.rtype() == RecordType::OPT {
                if edns.is_some() {
                    return Err(WireError::MalformedEdns("more than one OPT record"));
                }
                edns = Some(Edns::from_record(&rr)?);
            } else {
                additionals.push(rr);
            }
        }
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }

    /// Total number of resource records across all sections (excluding OPT).
    pub fn record_count(&self) -> usize {
        self.answers.len() + self.authorities.len() + self.additionals.len()
    }
}

/// Maps truncation errors to a section-level count mismatch (the header
/// promised more records than the body holds), preserving other errors.
fn upgrade(e: WireError, section: &'static str) -> WireError {
    match e {
        WireError::Truncated { .. } => WireError::CountMismatch { section },
        other => other,
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; ->>HEADER<<- opcode: {}, status: {}, id: {}",
            self.header.flags.opcode,
            self.rcode(),
            self.header.id
        )?;
        writeln!(
            f,
            ";; QUERY: {}, ANSWER: {}, AUTHORITY: {}, ADDITIONAL: {}",
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len() + usize::from(self.edns.is_some()),
        )?;
        if !self.questions.is_empty() {
            writeln!(f, ";; QUESTION SECTION:")?;
            for q in &self.questions {
                writeln!(f, ";{q}")?;
            }
        }
        if !self.answers.is_empty() {
            writeln!(f, ";; ANSWER SECTION:")?;
            for rr in &self.answers {
                writeln!(f, "{rr}")?;
            }
        }
        if !self.authorities.is_empty() {
            writeln!(f, ";; AUTHORITY SECTION:")?;
            for rr in &self.authorities {
                writeln!(f, "{rr}")?;
            }
        }
        if !self.additionals.is_empty() {
            writeln!(f, ";; ADDITIONAL SECTION:")?;
            for rr in &self.additionals {
                writeln!(f, "{rr}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MessageBuilder;
    use crate::constants::RecordType;
    use crate::name::Name;
    use std::net::Ipv4Addr;

    fn sample_response() -> Message {
        let mut m = MessageBuilder::query(7, Name::parse("example.com").unwrap(), RecordType::A)
            .recursion_desired(true)
            .edns_udp_size(4096)
            .build();
        m.header.flags.response = true;
        m.header.flags.recursion_available = true;
        m.answers.push(ResourceRecord::new(
            Name::parse("example.com").unwrap(),
            300,
            RData::A(Ipv4Addr::new(93, 184, 216, 34)),
        ));
        m
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = sample_response();
        let bytes = m.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.questions, m.questions);
        assert_eq!(back.answers, m.answers);
        assert_eq!(back.edns, m.edns);
        assert_eq!(back.header.ancount, 1);
        assert_eq!(back.header.arcount, 1, "OPT counts in arcount");
        assert!(back.additionals.is_empty(), "OPT is lifted out");
    }

    #[test]
    fn counts_recomputed_on_encode() {
        let mut m = sample_response();
        m.header.ancount = 99; // lies; encode must fix it
        let bytes = m.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.header.ancount, 1);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_response().encode().unwrap();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn count_mismatch_detected() {
        let m = sample_response();
        let mut bytes = m.encode().unwrap();
        bytes[5] = 9; // qdcount = 9, body has 1 question
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::CountMismatch { .. })
        ));
    }

    #[test]
    fn double_opt_rejected() {
        let mut m = sample_response();
        // Manually add a second OPT as a plain additional record.
        m.additionals.push(Edns::default().to_record());
        let bytes = m.encode().unwrap();
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::MalformedEdns(_))
        ));
    }

    #[test]
    fn extended_rcode_merges() {
        let mut m = sample_response();
        m.header.flags.rcode = Rcode::from_u16(0); // low bits 0
        m.edns.as_mut().unwrap().extended_rcode = 1; // high bits 1 => 16 = BADVERS
        assert_eq!(m.rcode(), Rcode::BadVers);
        let bytes = m.encode().unwrap();
        assert_eq!(Message::decode(&bytes).unwrap().rcode(), Rcode::BadVers);
    }

    #[test]
    fn display_includes_sections() {
        let s = sample_response().to_string();
        assert!(s.contains("QUESTION SECTION"));
        assert!(s.contains("ANSWER SECTION"));
        assert!(s.contains("NOERROR"));
    }

    #[test]
    fn message_with_compression_is_smaller() {
        let name = Name::parse("really.long.domain.example.com").unwrap();
        let mut m = MessageBuilder::query(1, name.clone(), RecordType::A).build();
        m.header.flags.response = true;
        for _ in 0..4 {
            m.answers.push(ResourceRecord::new(
                name.clone(),
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, 1)),
            ));
        }
        let bytes = m.encode().unwrap();
        // Owner name in each answer should be a 2-octet pointer, far less
        // than the 32-octet uncompressed name.
        assert!(bytes.len() < 12 + 36 + 4 * (2 + 10 + 4) + 10);
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.answers.len(), 4);
        assert_eq!(back.answers[3].name, name);
    }

    #[test]
    fn empty_message_round_trips() {
        let m = Message::default();
        let bytes = m.encode().unwrap();
        assert_eq!(bytes.len(), 12);
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, m);
    }
}
