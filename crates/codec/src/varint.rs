//! LEB128 varints and the zigzag mapping for signed integers.

use crate::error::CodecError;

/// Map a signed integer to an unsigned one so small magnitudes get small
/// codes: `0, -1, 1, -2, 2, … → 0, 1, 2, 3, 4, …`.
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as an LEB128 varint (7 bits per byte, high bit = continuation).
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a signed integer as zigzag + LEB128.
pub fn write_ivarint(out: &mut Vec<u8>, v: i64) {
    write_uvarint(out, zigzag_encode(v));
}

/// A cursor over a byte slice with varint and fixed-width read helpers.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Read one byte.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read an LEB128 varint.
    pub fn read_uvarint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::VarintOverflow);
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow);
            }
        }
    }

    /// Read a zigzag LEB128 signed integer.
    pub fn read_ivarint(&mut self) -> Result<i64, CodecError> {
        Ok(zigzag_decode(self.read_uvarint()?))
    }

    /// Borrow the next `n` bytes and advance.
    pub fn read_slice(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a little-endian `f64`.
    pub fn read_f64(&mut self) -> Result<f64, CodecError> {
        let s = self.read_slice(8)?;
        Ok(f64::from_le_bytes(s.try_into().expect("slice is 8 bytes")))
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the cursor has consumed the whole buffer.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// Read one LEB128 varint from the front of `buf`, returning the value and
/// the number of bytes consumed.
pub fn read_uvarint(buf: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut r = ByteReader::new(buf);
    let v = r.read_uvarint()?;
    Ok((v, r.position()))
}

/// Append `v` as little-endian f64 bytes.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_small_values() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(2), 4);
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn uvarint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_uvarint(&mut buf, v);
        }
        let mut r = ByteReader::new(&buf);
        for &v in &values {
            assert_eq!(r.read_uvarint().unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn ivarint_roundtrip() {
        let values = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_ivarint(&mut buf, v);
        }
        let mut r = ByteReader::new(&buf);
        for &v in &values {
            assert_eq!(r.read_ivarint().unwrap(), v);
        }
    }

    #[test]
    fn varint_sizes() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_uvarint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        write_uvarint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn truncated_varint_is_eof() {
        let buf = [0x80u8, 0x80];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_uvarint(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn overflowing_varint_rejected() {
        // 11 continuation bytes can't fit in 64 bits.
        let buf = [0xFFu8; 11];
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            r.read_uvarint(),
            Err(CodecError::VarintOverflow) | Err(CodecError::UnexpectedEof)
        ));
    }

    #[test]
    fn f64_roundtrip() {
        let mut buf = Vec::new();
        write_f64(&mut buf, -123.456e7);
        write_f64(&mut buf, f64::INFINITY);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_f64().unwrap(), -123.456e7);
        assert_eq!(r.read_f64().unwrap(), f64::INFINITY);
    }

    #[test]
    fn slice_reader() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_slice(2).unwrap(), &[1, 2]);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.read_u8().unwrap(), 3);
        assert!(r.read_slice(3).is_err());
        assert!(r.read_slice(usize::MAX).is_err(), "a length must not wrap the bounds check");
    }
}
