//! HTTP/2 framing layer (RFC 9113 §4): the 9-octet frame header and the
//! frame types a DoH client touches.

/// HTTP/2 frame types (RFC 9113 §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Request/response bodies.
    Data,
    /// Header blocks.
    Headers,
    /// Stream priority (deprecated but still on the wire).
    Priority,
    /// Stream reset.
    RstStream,
    /// Connection settings.
    Settings,
    /// Server push promise.
    PushPromise,
    /// Liveness probe.
    Ping,
    /// Connection shutdown.
    Goaway,
    /// Flow-control window update.
    WindowUpdate,
    /// Header block continuation.
    Continuation,
    /// Unknown type (must be ignored per spec).
    Unknown(u8),
}

impl FrameType {
    /// The wire code.
    pub fn to_u8(self) -> u8 {
        match self {
            FrameType::Data => 0x0,
            FrameType::Headers => 0x1,
            FrameType::Priority => 0x2,
            FrameType::RstStream => 0x3,
            FrameType::Settings => 0x4,
            FrameType::PushPromise => 0x5,
            FrameType::Ping => 0x6,
            FrameType::Goaway => 0x7,
            FrameType::WindowUpdate => 0x8,
            FrameType::Continuation => 0x9,
            FrameType::Unknown(v) => v,
        }
    }

    /// Decodes the wire code.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0x0 => FrameType::Data,
            0x1 => FrameType::Headers,
            0x2 => FrameType::Priority,
            0x3 => FrameType::RstStream,
            0x4 => FrameType::Settings,
            0x5 => FrameType::PushPromise,
            0x6 => FrameType::Ping,
            0x7 => FrameType::Goaway,
            0x8 => FrameType::WindowUpdate,
            0x9 => FrameType::Continuation,
            other => FrameType::Unknown(other),
        }
    }
}

/// Frame flag bits.
pub mod flags {
    /// DATA/HEADERS: no more frames on this stream.
    pub const END_STREAM: u8 = 0x1;
    /// HEADERS: the header block is complete.
    pub const END_HEADERS: u8 = 0x4;
}

/// One HTTP/2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame type.
    pub ftype: FrameType,
    /// Flag bits.
    pub flags: u8,
    /// Stream identifier (0 = connection).
    pub stream_id: u32,
    /// Payload octets.
    pub payload: Vec<u8>,
}

/// Error decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than 9 octets available for the header.
    ShortHeader,
    /// Payload shorter than the declared length.
    ShortPayload {
        /// Declared payload length.
        declared: usize,
        /// Octets actually available.
        available: usize,
    },
    /// Declared length exceeds our maximum frame size.
    TooLong(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::ShortHeader => write!(f, "frame header truncated"),
            FrameError::ShortPayload {
                declared,
                available,
            } => {
                write!(
                    f,
                    "frame payload truncated: {declared} declared, {available} available"
                )
            }
            FrameError::TooLong(n) => write!(f, "frame length {n} exceeds maximum"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Default SETTINGS_MAX_FRAME_SIZE (RFC 9113 §6.5.2).
pub const DEFAULT_MAX_FRAME_SIZE: usize = 16_384;

impl Frame {
    /// Builds a frame.
    pub fn new(ftype: FrameType, flags: u8, stream_id: u32, payload: impl Into<Vec<u8>>) -> Self {
        Frame {
            ftype,
            flags,
            stream_id,
            payload: payload.into(),
        }
    }

    /// The client connection preface (RFC 9113 §3.4).
    pub const PREFACE: &'static [u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

    /// An empty SETTINGS frame.
    pub fn settings() -> Self {
        Frame::new(FrameType::Settings, 0, 0, Vec::new())
    }

    /// Wire size: 9-octet header plus payload.
    pub fn wire_len(&self) -> usize {
        9 + self.payload.len()
    }

    /// Encodes into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let len = self.payload.len();
        debug_assert!(len <= 0xFF_FFFF);
        out.extend_from_slice(&(len as u32).to_be_bytes()[1..]);
        out.push(self.ftype.to_u8());
        out.push(self.flags);
        out.extend_from_slice(&(self.stream_id & 0x7FFF_FFFF).to_be_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Encodes a sequence of frames (with the preface when `preface`).
    pub fn encode_all(frames: &[Frame], preface: bool) -> Vec<u8> {
        let mut out = Vec::new();
        if preface {
            out.extend_from_slice(Frame::PREFACE);
        }
        for f in frames {
            f.encode(&mut out);
        }
        out
    }

    /// Decodes one frame from the front of `buf`, advancing it past the
    /// frame.
    pub fn decode(buf: &mut &[u8]) -> Result<Frame, FrameError> {
        if buf.len() < 9 {
            return Err(FrameError::ShortHeader);
        }
        let len = ((buf[0] as usize) << 16) | ((buf[1] as usize) << 8) | buf[2] as usize;
        if len > DEFAULT_MAX_FRAME_SIZE {
            return Err(FrameError::TooLong(len));
        }
        if buf.len() < 9 + len {
            return Err(FrameError::ShortPayload {
                declared: len,
                available: buf.len() - 9,
            });
        }
        let ftype = FrameType::from_u8(buf[3]);
        let fflags = buf[4];
        let stream_id = u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]) & 0x7FFF_FFFF;
        let payload = buf[9..9 + len].to_vec();
        *buf = &buf[9 + len..];
        Ok(Frame {
            ftype,
            flags: fflags,
            stream_id,
            payload,
        })
    }

    /// Decodes every frame in `buf`.
    pub fn decode_all(mut buf: &[u8]) -> Result<Vec<Frame>, FrameError> {
        let mut frames = Vec::new();
        while !buf.is_empty() {
            frames.push(Frame::decode(&mut buf)?);
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let f = Frame::new(
            FrameType::Headers,
            flags::END_HEADERS | flags::END_STREAM,
            1,
            &b"block"[..],
        );
        let mut out = Vec::new();
        f.encode(&mut out);
        assert_eq!(out.len(), f.wire_len());
        let mut rest = &out[..];
        let back = Frame::decode(&mut rest).unwrap();
        assert_eq!(back, f);
        assert!(rest.is_empty());
    }

    #[test]
    fn multiple_frames_round_trip() {
        let frames = vec![
            Frame::settings(),
            Frame::new(FrameType::Headers, flags::END_HEADERS, 1, &b"h"[..]),
            Frame::new(FrameType::Data, flags::END_STREAM, 1, &b"body"[..]),
        ];
        let wire = Frame::encode_all(&frames, false);
        let back = Frame::decode_all(&wire).unwrap();
        assert_eq!(back, frames);
    }

    #[test]
    fn preface_prepended() {
        let wire = Frame::encode_all(&[Frame::settings()], true);
        assert!(wire.starts_with(Frame::PREFACE));
    }

    #[test]
    fn reserved_bit_masked() {
        let f = Frame::new(FrameType::Data, 0, 0xFFFF_FFFF, Vec::new());
        let mut out = Vec::new();
        f.encode(&mut out);
        let back = Frame::decode(&mut &out[..]).unwrap();
        assert_eq!(back.stream_id, 0x7FFF_FFFF);
    }

    #[test]
    fn short_inputs_rejected() {
        let mut b: &[u8] = &[0, 0, 5, 0, 0, 0, 0, 0];
        assert_eq!(Frame::decode(&mut b), Err(FrameError::ShortHeader));
        let mut b: &[u8] = &[0, 0, 5, 0, 0, 0, 0, 0, 1, b'x'];
        assert!(matches!(
            Frame::decode(&mut b),
            Err(FrameError::ShortPayload {
                declared: 5,
                available: 1
            })
        ));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut hdr = vec![0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 1];
        hdr.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Frame::decode(&mut &hdr[..]),
            Err(FrameError::TooLong(_))
        ));
    }

    #[test]
    fn frame_type_codes_round_trip() {
        for v in 0u8..=12 {
            assert_eq!(FrameType::from_u8(v).to_u8(), v);
        }
    }
}
