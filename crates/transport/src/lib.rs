//! # transport
//!
//! Connection-oriented transport state machines over the [`netsim`]
//! substrate: TCP (with RFC 6298 RTT estimation and SYN retries), TLS 1.3
//! (full and PSK-resumed handshakes), HTTP/2 (real framing and HPACK so DoH
//! request/response byte counts are accurate), and QUIC (1-RTT and 0-RTT)
//! for the DoH3/DoQ extensions.
//!
//! Every machine is built on a single reliable-flight primitive
//! ([`flight::exchange`]) so loss, retransmission and exponential backoff
//! behave identically across protocols, and every failure carries the
//! simulated time it burned ([`TransportError`]) — campaign error accounting
//! depends on that.
//!
//! The cost model, in round trips on a cold path:
//!
//! | protocol | connect | request |
//! |---|---|---|
//! | Do53/UDP | 0 | 1 |
//! | DoT | 1 (TCP) + 1 (TLS) | 1 |
//! | DoH | 1 (TCP) + 1 (TLS) | 1 (H2 preface rides along) |
//! | DoH3/DoQ | 1 (QUIC) | 1 (0 with 0-RTT) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod flight;
pub mod http1;
pub mod http2;
pub mod quic;
pub mod tcp;
pub mod tls;

pub use error::{TransportError, TransportErrorKind};
pub use fault::FaultHooks;
pub use flight::{exchange, ExchangeOutcome, RetryPolicy};
pub use http1::{
    encode_request as h1_encode_request, encode_response as h1_encode_response,
    parse_response as h1_parse_response, H1Response,
};
pub use http2::{doh_headers, H2Connection, H2Request, H2Response, HeaderField};
pub use quic::{QuicConfig, QuicConnection};
pub use tcp::{RttEstimator, TcpConfig, TcpConnection};
pub use tls::{SessionTicket, TlsConfig, TlsServerBehavior, TlsSession};
