//! HTTP/2: framing (RFC 9113), HPACK header compression (RFC 7541), and a
//! client connection model that charges accurate byte counts and round
//! trips for DoH exchanges. Payloads, bodies and encoded wires are plain
//! `Vec<u8>`; the decoders read `&[u8]`.

pub mod connection;
pub mod frames;
pub mod hpack;

pub use connection::{doh_headers, H2Connection, H2Request, H2Response};
pub use frames::{Frame, FrameError, FrameType};
pub use hpack::{Decoder, Encoder, HeaderField, HpackError};
