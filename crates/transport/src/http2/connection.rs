//! HTTP/2 connection model: builds real frame bytes for requests and
//! responses (so payload sizes are accurate) and charges the round trips a
//! DoH exchange costs over an established TLS session.

use netsim::{Path, SimDuration, SimRng};

use crate::error::{TransportError, TransportErrorKind};
use crate::http2::frames::{flags, Frame, FrameType};
use crate::http2::hpack::{Decoder, Encoder, HeaderField};
use crate::tcp::TcpConnection;

/// An HTTP/2 request: header list plus optional body.
#[derive(Debug, Clone)]
pub struct H2Request {
    /// Pseudo-headers and regular headers in order.
    pub headers: Vec<HeaderField>,
    /// Request body (e.g. a DoH POST's DNS message).
    pub body: Vec<u8>,
}

/// An HTTP/2 response.
#[derive(Debug, Clone)]
pub struct H2Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers (excluding `:status`).
    pub headers: Vec<HeaderField>,
    /// Response body.
    pub body: Vec<u8>,
}

/// A client HTTP/2 connection multiplexed over one TLS session.
///
/// The first request pays for the connection preface + SETTINGS, which ride
/// with the request flight (no extra round trip — RFC 9113 permits sending
/// requests immediately after the preface).
#[derive(Debug)]
pub struct H2Connection {
    encoder: Encoder,
    decoder: Decoder,
    next_stream_id: u32,
    preface_sent: bool,
}

impl Default for H2Connection {
    fn default() -> Self {
        Self::new()
    }
}

impl H2Connection {
    /// Creates a fresh client connection state.
    pub fn new() -> Self {
        H2Connection {
            encoder: Encoder::default(),
            decoder: Decoder::default(),
            next_stream_id: 1,
            preface_sent: false,
        }
    }

    /// Encodes the wire bytes for a request: optional preface/SETTINGS,
    /// HEADERS, optional DATA.
    pub fn encode_request(&mut self, req: &H2Request) -> (u32, Vec<u8>) {
        let stream_id = self.next_stream_id;
        self.next_stream_id += 2;

        let block = self.encoder.encode(&req.headers);
        let mut frames = Vec::new();
        if !self.preface_sent {
            frames.push(Frame::settings());
            self.preface_sent = true;
        }
        let end_flags = if req.body.is_empty() {
            flags::END_HEADERS | flags::END_STREAM
        } else {
            flags::END_HEADERS
        };
        frames.push(Frame::new(FrameType::Headers, end_flags, stream_id, block));
        if !req.body.is_empty() {
            frames.push(Frame::new(
                FrameType::Data,
                flags::END_STREAM,
                stream_id,
                req.body.clone(),
            ));
        }
        let include_preface = frames[0].ftype == FrameType::Settings;
        (stream_id, Frame::encode_all(&frames, include_preface))
    }

    /// [`encode_response`](Self::encode_response) with a fresh HPACK
    /// encoder — exactly the wire a server produces for its first response
    /// on a new connection. The probe fast path uses this to precompute
    /// response wire lengths once per (status, payload) instead of
    /// re-encoding on every probe's fresh connection.
    pub fn encode_response_fresh(
        stream_id: u32,
        status: u16,
        extra_headers: &[HeaderField],
        body: &[u8],
    ) -> Vec<u8> {
        Self::encode_response(
            &mut Encoder::default(),
            stream_id,
            status,
            extra_headers,
            body,
        )
    }

    /// Encodes a server response for `stream_id` (used by the simulated
    /// resolver frontends and by tests).
    pub fn encode_response(
        encoder: &mut Encoder,
        stream_id: u32,
        status: u16,
        extra_headers: &[HeaderField],
        body: &[u8],
    ) -> Vec<u8> {
        let mut headers = vec![HeaderField::new(":status", status.to_string())];
        headers.extend_from_slice(extra_headers);
        let block = encoder.encode(&headers);
        let frames = vec![
            Frame::new(FrameType::Headers, flags::END_HEADERS, stream_id, block),
            Frame::new(FrameType::Data, flags::END_STREAM, stream_id, body),
        ];
        Frame::encode_all(&frames, false)
    }

    /// Parses response bytes into an [`H2Response`].
    pub fn parse_response(&mut self, wire: &[u8]) -> Result<H2Response, TransportError> {
        let frames = Frame::decode_all(wire).map_err(|_| {
            TransportError::new(TransportErrorKind::ProtocolError, SimDuration::ZERO)
        })?;
        let mut status = 0u16;
        let mut headers = Vec::new();
        let mut body = Vec::new();
        for f in frames {
            match f.ftype {
                FrameType::Headers => {
                    let fields = self.decoder.decode(&f.payload).map_err(|_| {
                        TransportError::new(TransportErrorKind::ProtocolError, SimDuration::ZERO)
                    })?;
                    for field in fields {
                        if field.name == ":status" {
                            status = field.value.parse().unwrap_or(0);
                        } else {
                            headers.push(field);
                        }
                    }
                }
                FrameType::Data => body.extend_from_slice(&f.payload),
                FrameType::Goaway | FrameType::RstStream => {
                    return Err(TransportError::new(
                        TransportErrorKind::ProtocolError,
                        SimDuration::ZERO,
                    ));
                }
                _ => {} // SETTINGS, WINDOW_UPDATE etc. are bookkeeping
            }
        }
        if status == 0 {
            return Err(TransportError::new(
                TransportErrorKind::ProtocolError,
                SimDuration::ZERO,
            ));
        }
        Ok(H2Response {
            status,
            headers,
            body,
        })
    }

    /// Performs one request/response exchange over the path, charging the
    /// accurate wire sizes and the server's processing time. Returns the
    /// response and the elapsed time.
    pub fn round_trip(
        &mut self,
        tcp: &mut TcpConnection,
        path: &Path,
        req: &H2Request,
        response_wire: impl FnOnce(u32, &mut Encoder) -> Vec<u8>,
        server_time: SimDuration,
        rng: &mut SimRng,
    ) -> Result<(H2Response, SimDuration), TransportError> {
        let (stream_id, req_wire) = self.encode_request(req);
        // The server shares our encoder state model: build its response with
        // a fresh encoder per connection (kept by the caller via closure).
        let mut server_encoder = Encoder::default();
        let resp_wire = response_wire(stream_id, &mut server_encoder);
        let out = tcp.request_response(path, req_wire.len(), resp_wire.len(), server_time, rng)?;
        let resp = self.parse_response(&resp_wire)?;
        Ok((resp, out.elapsed))
    }
}

/// Builds the header list for a DoH request (RFC 8484).
pub fn doh_headers(authority: &str, path: &str, post: bool, body_len: usize) -> Vec<HeaderField> {
    let mut h = vec![
        HeaderField::new(":method", if post { "POST" } else { "GET" }),
        HeaderField::new(":scheme", "https"),
        HeaderField::new(":authority", authority),
        HeaderField::new(":path", path),
        HeaderField::new("accept", "application/dns-message"),
    ];
    if post {
        h.push(HeaderField::new("content-type", "application/dns-message"));
        h.push(HeaderField::new("content-length", body_len.to_string()));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpConfig;
    use netsim::geo::cities;
    use netsim::AccessProfile;

    fn path() -> Path {
        Path::between(
            cities::COLUMBUS_OH.point,
            AccessProfile::cloud_vm(),
            cities::ASHBURN_VA.point,
            AccessProfile::datacenter(),
        )
    }

    #[test]
    fn first_request_carries_preface() {
        let mut conn = H2Connection::new();
        let req = H2Request {
            headers: doh_headers("dns.google", "/dns-query?dns=AAAA", false, 0),
            body: Vec::new(),
        };
        let (sid1, wire1) = conn.encode_request(&req);
        assert_eq!(sid1, 1);
        assert!(wire1.starts_with(Frame::PREFACE));
        let (sid2, wire2) = conn.encode_request(&req);
        assert_eq!(sid2, 3);
        assert!(!wire2.starts_with(Frame::PREFACE));
        // Second request is smaller: no preface and HPACK dynamic hits.
        assert!(
            wire2.len() < wire1.len() / 2,
            "{} vs {}",
            wire1.len(),
            wire2.len()
        );
    }

    #[test]
    fn post_request_has_data_frame() {
        let mut conn = H2Connection::new();
        let body = vec![0u8; 40];
        let req = H2Request {
            headers: doh_headers("dns.google", "/dns-query", true, 40),
            body: body.clone(),
        };
        let (_, wire) = conn.encode_request(&req);
        // Skip the preface then inspect frames.
        let frames = Frame::decode_all(&wire[Frame::PREFACE.len()..]).unwrap();
        assert_eq!(frames[0].ftype, FrameType::Settings);
        assert_eq!(frames[1].ftype, FrameType::Headers);
        assert_eq!(frames[1].flags & flags::END_STREAM, 0);
        assert_eq!(frames[2].ftype, FrameType::Data);
        assert_ne!(frames[2].flags & flags::END_STREAM, 0);
        assert_eq!(frames[2].payload, body);
    }

    #[test]
    fn response_round_trip() {
        let mut conn = H2Connection::new();
        let mut enc = Encoder::default();
        let wire = H2Connection::encode_response(
            &mut enc,
            1,
            200,
            &[HeaderField::new("content-type", "application/dns-message")],
            b"dns-bytes",
        );
        let resp = conn.parse_response(&wire).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"dns-bytes");
        assert_eq!(resp.headers[0].value, "application/dns-message");
    }

    #[test]
    fn goaway_is_protocol_error() {
        let mut conn = H2Connection::new();
        let wire = Frame::encode_all(&[Frame::new(FrameType::Goaway, 0, 0, Vec::new())], false);
        let err = conn.parse_response(&wire).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::ProtocolError);
    }

    #[test]
    fn full_exchange_over_simulated_path() {
        let mut rng = SimRng::from_seed(9);
        let p = path();
        let (mut tcp, _) =
            TcpConnection::connect(&p, false, &mut rng, TcpConfig::default()).unwrap();
        let mut conn = H2Connection::new();
        let req = H2Request {
            headers: doh_headers("dns.example", "/dns-query?dns=AAEC", false, 0),
            body: Vec::new(),
        };
        let (resp, elapsed) = conn
            .round_trip(
                &mut tcp,
                &p,
                &req,
                |sid, enc| {
                    H2Connection::encode_response(
                        enc,
                        sid,
                        200,
                        &[HeaderField::new("content-type", "application/dns-message")],
                        &[0xAB; 64],
                    )
                },
                SimDuration::from_millis(1),
                &mut rng,
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), 64);
        assert!(elapsed.as_millis_f64() > 1.0);
    }

    #[test]
    fn doh_headers_shapes() {
        let get = doh_headers("r.example", "/dns-query?dns=AA", false, 0);
        assert_eq!(get[0].value, "GET");
        assert!(!get.iter().any(|h| h.name == "content-type"));
        let post = doh_headers("r.example", "/dns-query", true, 33);
        assert_eq!(post[0].value, "POST");
        assert!(post
            .iter()
            .any(|h| h.name == "content-length" && h.value == "33"));
    }
}
