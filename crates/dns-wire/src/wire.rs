//! Low-level cursor types used by every encoder and decoder.
//!
//! [`Reader`] walks a byte slice with bounds checking and explicit error
//! reporting; [`Writer`] appends big-endian integers and raw octets to a
//! growable buffer while enforcing the 65,535-octet message ceiling.

use crate::error::WireError;

/// A bounds-checked forward cursor over a DNS message buffer.
///
/// All multi-octet integers in DNS are big-endian (network order); the
/// `read_u16`/`read_u32` helpers decode accordingly.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Total length of the underlying buffer.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when every octet has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Octets not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The full underlying buffer (used when following compression pointers).
    pub fn full_buffer(&self) -> &'a [u8] {
        self.buf
    }

    /// Moves the cursor to an absolute offset.
    ///
    /// Seeking past the end is permitted (the next read will fail), matching
    /// the behaviour needed when rewinding after a compression pointer.
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Reads one octet.
    pub fn read_u8(&mut self, expected: &'static str) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::Truncated { expected })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u16`.
    pub fn read_u16(&mut self, expected: &'static str) -> Result<u16, WireError> {
        let hi = self.read_u8(expected)? as u16;
        let lo = self.read_u8(expected)? as u16;
        Ok((hi << 8) | lo)
    }

    /// Reads a big-endian `u32`.
    pub fn read_u32(&mut self, expected: &'static str) -> Result<u32, WireError> {
        let hi = self.read_u16(expected)? as u32;
        let lo = self.read_u16(expected)? as u32;
        Ok((hi << 16) | lo)
    }

    /// Reads exactly `n` octets as a slice.
    pub fn read_slice(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { expected });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// An appending encoder that enforces the DNS message size ceiling.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// Hard upper bound on any DNS message (length prefix over TCP is u16).
pub const MAX_MESSAGE_LEN: usize = u16::MAX as usize;

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with `cap` octets of pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of octets written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Read access to everything written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer and returns the finished buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn ensure_room(&mut self, extra: usize) -> Result<(), WireError> {
        let n = self.buf.len() + extra;
        if n > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(n));
        }
        Ok(())
    }

    /// Appends one octet.
    pub fn write_u8(&mut self, v: u8) -> Result<(), WireError> {
        self.ensure_room(1)?;
        self.buf.push(v);
        Ok(())
    }

    /// Appends a big-endian `u16`.
    pub fn write_u16(&mut self, v: u16) -> Result<(), WireError> {
        self.ensure_room(2)?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Appends a big-endian `u32`.
    pub fn write_u32(&mut self, v: u32) -> Result<(), WireError> {
        self.ensure_room(4)?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Appends raw octets.
    pub fn write_slice(&mut self, s: &[u8]) -> Result<(), WireError> {
        self.ensure_room(s.len())?;
        self.buf.extend_from_slice(s);
        Ok(())
    }

    /// Overwrites a previously written big-endian `u16` at `pos`.
    ///
    /// Used to back-patch RDLENGTH once the rdata size is known.
    pub fn patch_u16(&mut self, pos: usize, v: u16) {
        let bytes = v.to_be_bytes();
        self.buf[pos] = bytes[0];
        self.buf[pos + 1] = bytes[1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_integers_are_big_endian() {
        let buf = [0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde];
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_u16("t").unwrap(), 0x1234);
        assert_eq!(r.read_u32("t").unwrap(), 0x56789abc);
        assert_eq!(r.read_u8("t").unwrap(), 0xde);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_truncation_reports_context() {
        let mut r = Reader::new(&[0x01]);
        let err = r.read_u16("header id").unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                expected: "header id"
            }
        );
    }

    #[test]
    fn reader_slice_and_seek() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_slice(3, "t").unwrap(), &[1, 2, 3]);
        assert_eq!(r.position(), 3);
        r.seek(1);
        assert_eq!(r.read_u8("t").unwrap(), 2);
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn reader_slice_past_end_fails() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.read_slice(3, "t").is_err());
        // A failed read must not advance the cursor.
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn writer_round_trips_integers() {
        let mut w = Writer::new();
        w.write_u8(0xab).unwrap();
        w.write_u16(0x1234).unwrap();
        w.write_u32(0xdeadbeef).unwrap();
        assert_eq!(w.as_slice(), &[0xab, 0x12, 0x34, 0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn writer_enforces_message_ceiling() {
        let mut w = Writer::new();
        w.write_slice(&vec![0u8; MAX_MESSAGE_LEN]).unwrap();
        assert!(matches!(
            w.write_u8(0),
            Err(WireError::MessageTooLong(n)) if n == MAX_MESSAGE_LEN + 1
        ));
    }

    #[test]
    fn writer_patch_u16() {
        let mut w = Writer::new();
        w.write_u16(0).unwrap();
        w.write_u8(7).unwrap();
        w.patch_u16(0, 0xbeef);
        assert_eq!(w.as_slice(), &[0xbe, 0xef, 7]);
    }

    #[test]
    fn seek_past_end_then_read_fails() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.seek(10);
        assert!(r.read_u8("t").is_err());
        assert_eq!(r.remaining(), 0);
    }
}
