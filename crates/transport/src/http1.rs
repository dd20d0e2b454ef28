//! HTTP/1.1 (RFC 9112) request/response serialisation — the fallback
//! protocol for DoH servers that do not negotiate h2 (common among the
//! hobbyist deployments in the measured population). Encoders return and
//! the parser reads plain bytes (`Vec<u8>` / `&[u8]`).

use crate::error::{TransportError, TransportErrorKind};
use crate::http2::hpack::HeaderField;
use netsim::SimDuration;

/// Serialises an HTTP/1.1 request from the same header-list shape the h2
/// client uses (pseudo-headers are mapped onto the request line and Host).
pub fn encode_request(headers: &[HeaderField], body: &[u8]) -> Vec<u8> {
    let get = |name: &str| {
        headers
            .iter()
            .find(|h| h.name == name)
            .map(|h| h.value.as_str())
    };
    let method = get(":method").unwrap_or("GET");
    let path = get(":path").unwrap_or("/");
    let authority = get(":authority").unwrap_or("");
    let mut out = format!("{method} {path} HTTP/1.1\r\nhost: {authority}\r\n");
    for h in headers {
        if h.name.starts_with(':') || h.name == "content-length" {
            continue;
        }
        out.push_str(&format!("{}: {}\r\n", h.name, h.value));
    }
    if !body.is_empty() || method == "POST" {
        out.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    out.push_str("connection: keep-alive\r\n\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Serialises an HTTP/1.1 response.
pub fn encode_response(status: u16, headers: &[HeaderField], body: &[u8]) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        _ => "Unknown",
    };
    let mut out = format!("HTTP/1.1 {status} {reason}\r\n");
    for h in headers {
        out.push_str(&format!("{}: {}\r\n", h.name, h.value));
    }
    out.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// A parsed HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq)]
pub struct H1Response {
    /// Status code.
    pub status: u16,
    /// Headers, lowercased names.
    pub headers: Vec<HeaderField>,
    /// Body.
    pub body: Vec<u8>,
}

fn protocol_error() -> TransportError {
    TransportError::new(TransportErrorKind::ProtocolError, SimDuration::ZERO)
}

/// Parses an HTTP/1.1 response (Content-Length framing only — DoH responses
/// are single small messages, never chunked in practice). A Content-Length
/// past the end of `wire`, however large, is a protocol error.
pub fn parse_response(wire: &[u8]) -> Result<H1Response, TransportError> {
    let header_end = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(protocol_error)?;
    let head = std::str::from_utf8(&wire[..header_end]).map_err(|_| protocol_error())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(protocol_error)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().ok_or_else(protocol_error)?;
    if !version.starts_with("HTTP/1.") {
        return Err(protocol_error());
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(protocol_error)?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(protocol_error)?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = Some(value.parse().map_err(|_| protocol_error())?);
        }
        headers.push(HeaderField::new(name, value));
    }
    let body_start = header_end + 4;
    let body = match content_length {
        Some(len) => body_start
            .checked_add(len)
            .and_then(|end| wire.get(body_start..end))
            .ok_or_else(protocol_error)?,
        None => &wire[body_start..],
    };
    Ok(H1Response {
        status,
        headers,
        body: body.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http2::doh_headers;

    #[test]
    fn request_line_and_host_from_pseudo_headers() {
        let headers = doh_headers("dns.example", "/dns-query?dns=AAAA", false, 0);
        let wire = encode_request(&headers, b"");
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("GET /dns-query?dns=AAAA HTTP/1.1\r\n"));
        assert!(text.contains("host: dns.example\r\n"));
        assert!(text.contains("accept: application/dns-message\r\n"));
        assert!(!text.contains(":method"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn post_request_carries_body_and_length() {
        let headers = doh_headers("dns.example", "/dns-query", true, 5);
        let wire = encode_request(&headers, b"hello");
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("POST /dns-query HTTP/1.1\r\n"));
        assert!(text.contains("content-length: 5\r\n"));
        assert!(wire.ends_with(b"hello"));
    }

    #[test]
    fn response_round_trip() {
        let wire = encode_response(
            200,
            &[HeaderField::new("content-type", "application/dns-message")],
            b"dns-bytes",
        );
        let resp = parse_response(&wire).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"dns-bytes");
        assert!(resp
            .headers
            .iter()
            .any(|h| h.name == "content-type" && h.value == "application/dns-message"));
    }

    #[test]
    fn error_statuses_round_trip() {
        for status in [400u16, 404, 500, 502, 418] {
            let wire = encode_response(status, &[], b"");
            assert_eq!(parse_response(&wire).unwrap().status, status);
        }
    }

    #[test]
    fn malformed_responses_rejected() {
        assert!(parse_response(b"not http").is_err());
        assert!(
            parse_response(b"HTTP/1.1 200 OK\r\n").is_err(),
            "no header end"
        );
        assert!(parse_response(b"SPDY/3 200 OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        // Truncated body vs declared length.
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort";
        assert!(parse_response(wire).is_err());
    }

    #[test]
    fn content_length_past_the_address_space_is_a_protocol_error() {
        for len in [u64::MAX, u64::MAX / 2] {
            let wire = format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\nbody");
            let err = parse_response(wire.as_bytes()).unwrap_err();
            assert_eq!(err.kind, TransportErrorKind::ProtocolError);
        }
    }

    #[test]
    fn binary_body_survives() {
        let body: Vec<u8> = (0u8..=255).collect();
        let wire = encode_response(200, &[], &body);
        assert_eq!(parse_response(&wire).unwrap().body, body);
    }
}
