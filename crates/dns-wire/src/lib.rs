//! # dns-wire
//!
//! A from-scratch implementation of the DNS wire format ([RFC 1035]) with
//! EDNS(0) ([RFC 6891]) support, used by the encrypted-DNS measurement stack
//! to build and parse the queries and responses that travel over Do53, DoT,
//! DoH and DoQ transports.
//!
//! The crate provides:
//!
//! * [`Name`] — domain names with full label semantics, case-insensitive
//!   comparison, and RFC 1035 §4.1.4 compression on encode and decode.
//! * [`Header`], [`Question`], [`ResourceRecord`], [`Message`] — the four
//!   wire sections, all round-trippable.
//! * [`RData`] — typed record data for A, AAAA, CNAME, NS, PTR, MX, SOA,
//!   TXT and OPT (EDNS) — the types the simulation speaks. Every other
//!   type (SRV, CAA, SVCB/HTTPS among them) rides RFC 3597 opaque rdata
//!   and re-encodes byte for byte; SOA stays typed because RFC 1035 lets
//!   its names be compressed, and an opaque copy would keep the pointers.
//! * [`MessageBuilder`] — ergonomic construction of queries and responses.
//! * [`base64url`] — the padding-free base64url codec required by DoH GET
//!   requests ([RFC 8484] §4.1).
//!
//! ## Quick example
//!
//! ```
//! use dns_wire::{MessageBuilder, Name, RecordType, Message};
//!
//! let query = MessageBuilder::query(0x1234, Name::parse("example.com.").unwrap(), RecordType::A)
//!     .recursion_desired(true)
//!     .edns_udp_size(4096)
//!     .build();
//! let bytes = query.encode().unwrap();
//! let parsed = Message::decode(&bytes).unwrap();
//! assert_eq!(parsed.header.id, 0x1234);
//! assert_eq!(parsed.questions[0].name.to_string(), "example.com.");
//! ```
//!
//! [RFC 1035]: https://www.rfc-editor.org/rfc/rfc1035
//! [RFC 6891]: https://www.rfc-editor.org/rfc/rfc6891
//! [RFC 8484]: https://www.rfc-editor.org/rfc/rfc8484

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base64url;
mod builder;
mod constants;
mod error;
mod header;
mod message;
mod name;
pub mod odoh;
mod question;
mod rdata;
mod record;
pub mod tcp_frame;
mod wire;

pub use builder::MessageBuilder;
pub use constants::{Opcode, Rcode, RecordClass, RecordType};
pub use error::WireError;
pub use header::{Flags, Header, HEADER_LEN};
pub use message::{Edns, Message};
pub use name::Name;
pub use question::Question;
pub use rdata::option_code;
pub use rdata::{OptData, OptOption, RData, SoaData, TxtData};
pub use record::ResourceRecord;
pub use wire::{Reader, Writer};

/// The conventional EDNS(0) UDP payload size advertised by modern resolvers.
pub const EDNS_UDP_PAYLOAD: u16 = 4096;
