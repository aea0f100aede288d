//! The little-endian byte codec every binary format in the workspace is
//! written and parsed with: [`Writer`] appends fixed-width fields to a
//! caller-owned buffer, [`Reader`] walks a payload with every access
//! bounds-checked, and [`DecodeError`] is the one failure type both
//! sides share.
//!
//! **Guard before allocate.** A decoder may size an allocation from a
//! declared element count only after [`Reader::count`] has accepted it:
//! the count times the smallest wire size of one element must fit in the
//! bytes that remain. A corrupt or hostile count therefore fails as
//! [`DecodeError::Truncated`] before a single byte is reserved, and no
//! decoder can allocate more than a small multiple of its input.

use std::fmt;

/// Failure while decoding a payload with [`Reader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A field, or a declared element count, needs more bytes than remain.
    Truncated {
        /// Bytes the field (or the declared elements) needed.
        expected: usize,
        /// Bytes left in the payload.
        got: usize,
    },
    /// Bytes remained after the message ([`Reader::finish`]).
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { expected, got } => {
                write!(f, "payload truncated: needed {expected} bytes, {got} left")
            }
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after the payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked little-endian reader over one payload.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let got = self.remaining();
        if n > got {
            return Err(DecodeError::Truncated { expected: n, got });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f32` from its little-endian bit pattern.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads an `f64` from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// The guard: accepts a declared element count only when `declared`
    /// elements of at least `min_elem_bytes` each fit in the remaining
    /// bytes. Call it before sizing any allocation from a count.
    pub fn count(&self, declared: u64, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let got = self.remaining();
        let need = declared.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > got as u64 {
            return Err(DecodeError::Truncated {
                expected: usize::try_from(need).unwrap_or(usize::MAX),
                got,
            });
        }
        Ok(declared as usize)
    }

    /// Reads a `u32` element count and [guards](Self::count) it.
    pub fn count_u32(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let declared = self.u32()?;
        self.count(u64::from(declared), min_elem_bytes)
    }

    /// Reads a `u64` element count and [guards](Self::count) it.
    pub fn count_u64(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let declared = self.u64()?;
        self.count(declared, min_elem_bytes)
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes_u32(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.count_u32(1)?;
        self.take(n)
    }

    /// A `u64`-length-prefixed byte string.
    pub fn bytes_u64(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.count_u64(1)?;
        self.take(n)
    }

    /// `n` little-endian `f32` bit patterns.
    pub fn f32s(&mut self, n: u64) -> Result<Vec<f32>, DecodeError> {
        Ok(self.u32s(n)?.into_iter().map(f32::from_bits).collect())
    }

    /// `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: u64) -> Result<Vec<u32>, DecodeError> {
        let n = self.count(n, 4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// `n` little-endian `u64`s.
    pub fn u64s(&mut self, n: u64) -> Result<Vec<u64>, DecodeError> {
        let n = self.count(n, 8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Fails with [`DecodeError::Trailing`] unless every byte was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

/// Little-endian writer appending to a caller-owned buffer; reusing one
/// buffer across messages keeps steady-state encoding allocation-free.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Appends to `buf` (its current contents are kept).
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` length prefix and the bytes.
    pub fn bytes_u32(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Appends a `u64` length prefix and the bytes.
    pub fn bytes_u64(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends `f32` bit patterns (no length prefix).
    pub fn f32s(&mut self, v: &[f32]) {
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.f32(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_misuse_is_structured() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(7);
        w.u16(0xBEEF);
        w.u64(1 << 40);
        w.f64(-0.0);
        w.bytes_u32(b"ab");
        w.f32s(&[1.5, -2.0]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u64(), Ok(1 << 40));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.bytes_u32(), Ok(&b"ab"[..]));
        assert_eq!(r.f32s(1), Ok(vec![1.5]));
        assert_eq!(r.finish(), Err(DecodeError::Trailing(4)));
        assert_eq!(
            r.u64(),
            Err(DecodeError::Truncated {
                expected: 8,
                got: 4
            })
        );
    }

    #[test]
    fn guard_rejects_counts_the_payload_cannot_hold() {
        let r = Reader::new(&[0; 16]);
        assert_eq!(r.count(4, 4), Ok(4));
        assert!(r.count(5, 4).is_err());
        assert!(r.count(u64::MAX, 8).is_err(), "count x width overflows");
        assert!(r.count(17, 0).is_err(), "a zero width counts as one byte");
        let mut r = Reader::new(&[0xFF; 8]);
        assert!(r.f32s(u64::MAX).is_err());
        assert!(r.u32s(1 << 62).is_err());
        assert!(r.count_u64(1).is_err());
    }
}
