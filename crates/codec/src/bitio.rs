//! MSB-first bit-level I/O over byte buffers.

use crate::error::CodecError;

/// Writes bits MSB-first into a growable byte buffer.
///
/// Bits accumulate in a u64 so a multi-bit write is one shift/or plus at
/// most eight byte pushes, instead of a per-bit loop.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits: the low `nbits` bits of `acc`, MSB-first. Bits above
    /// `nbits` are stale and masked out on flush. `nbits < 8` between calls.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Write a single bit (any nonzero `bit` writes 1).
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | bit as u64;
        self.nbits += 1;
        if self.nbits == 8 {
            self.buf.push(self.acc as u8);
            self.nbits = 0;
        }
    }

    /// Write the low `n` bits of `value`, MSB first. `n <= 64`.
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        if self.nbits + n > 63 {
            // Rare: the field cannot join the pending bits in one u64.
            // Split MSB-half first; each half is <= 32 bits and fits.
            let lo = n / 2;
            self.write_bits(value >> lo, n - lo);
            self.write_bits(value, lo);
            return;
        }
        self.acc = (self.acc << n) | (value & ((1u64 << n) - 1));
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Write a run of same-width fields (`write_bits(v, n)` for each `v`),
    /// keeping the accumulator in registers across the whole run.
    ///
    /// Byte-identical to the per-value calls — between values the pending
    /// count stays below 8 bits, so for `n <= 56` the split path of
    /// [`BitWriter::write_bits`] can never trigger and one fused shift/flush
    /// loop covers the batch. Wider fields fall back to the per-value path.
    pub fn write_bits_batch(&mut self, vals: &[u64], n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        if n > 56 {
            for &v in vals {
                self.write_bits(v, n);
            }
            return;
        }
        let mask = (1u64 << n) - 1;
        let mut acc = self.acc;
        let mut nbits = self.nbits;
        self.buf.reserve(vals.len() * (n as usize / 8 + 1));
        for &v in vals {
            acc = (acc << n) | (v & mask);
            nbits += n;
            while nbits >= 8 {
                nbits -= 8;
                self.buf.push((acc >> nbits) as u8);
            }
        }
        self.acc = acc;
        self.nbits = nbits;
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Pad with zero bits to a byte boundary and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.buf.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit position.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read bits from the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        let byte = self.pos / 8;
        if byte >= self.buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let bit = (self.buf[byte] >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit != 0)
    }

    /// The next `n <= 24` bits MSB-first without consuming them, zero-padded
    /// past the end of the buffer, with how many of them the buffer holds.
    #[inline]
    pub fn peek_bits(&self, n: u32) -> (u32, u32) {
        debug_assert!((1..=24).contains(&n));
        let byte = self.pos / 8;
        let window = match self.buf.get(byte..byte + 4) {
            Some(w) => u32::from_be_bytes([w[0], w[1], w[2], w[3]]),
            None => {
                (0..4).fold(0, |w, k| w << 8 | u32::from(*self.buf.get(byte + k).unwrap_or(&0)))
            }
        };
        let bits = (window << (self.pos % 8)) >> (32 - n);
        let held = (self.buf.len() * 8).saturating_sub(self.pos).min(n as usize) as u32;
        (bits, held)
    }

    /// Consume `n` bits a [`BitReader::peek_bits`] reported as held.
    #[inline]
    pub fn skip_bits(&mut self, n: u32) {
        self.pos += n as usize;
    }

    /// Read `n` bits MSB-first into the low bits of the result. `n <= 64`.
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        let n = n as usize;
        let total = self.buf.len() * 8;
        if self.pos + n > total {
            // Match the bit-at-a-time loop: every available bit is consumed
            // before the failing read, leaving the cursor at end-of-buffer.
            self.pos = total;
            return Err(CodecError::UnexpectedEof);
        }
        let mut byte = self.pos / 8;
        let bit_off = self.pos % 8;
        self.pos += n;
        let mut need = n;
        let mut v = 0u64;
        if bit_off != 0 {
            let avail = 8 - bit_off;
            let chunk = (self.buf[byte] & (0xFF >> bit_off)) as u64;
            if need <= avail {
                return Ok(chunk >> (avail - need));
            }
            v = chunk;
            need -= avail;
            byte += 1;
        }
        while need >= 8 {
            v = (v << 8) | self.buf[byte] as u64;
            byte += 1;
            need -= 8;
        }
        if need > 0 {
            v = (v << need) | (self.buf[byte] >> (8 - need)) as u64;
        }
        Ok(v)
    }

    /// Read `dst.len()` same-width fields (`read_bits(n)` into each slot),
    /// with one bounds check for the whole batch and a register-resident
    /// byte-refill accumulator instead of per-call cursor arithmetic.
    ///
    /// Value-identical to the per-value calls. If the batch does not fit the
    /// remaining buffer, no value is produced and the cursor parks at
    /// end-of-buffer, matching the single-call EOF contract.
    pub fn read_bits_batch(&mut self, n: u32, dst: &mut [u64]) -> Result<(), CodecError> {
        debug_assert!(n <= 64);
        if n == 0 {
            dst.fill(0);
            return Ok(());
        }
        let need = n as usize * dst.len();
        let total = self.buf.len() * 8;
        if self.pos + need > total {
            self.pos = total;
            return Err(CodecError::UnexpectedEof);
        }
        if n > 56 {
            for d in dst {
                *d = self.read_bits(n)?;
            }
            return Ok(());
        }
        let mask = (1u64 << n) - 1;
        let mut byte = self.pos / 8;
        let mut acc = 0u64;
        let mut have = 0u32;
        let bit_off = (self.pos % 8) as u32;
        if bit_off != 0 {
            acc = (self.buf[byte] & (0xFF >> bit_off)) as u64;
            have = 8 - bit_off;
            byte += 1;
        }
        for d in dst.iter_mut() {
            // Stale consumed bits above `have` are masked off on extraction,
            // so the accumulator never needs clearing.
            while have < n {
                acc = (acc << 8) | self.buf[byte] as u64;
                byte += 1;
                have += 8;
            }
            have -= n;
            *d = (acc >> have) & mask;
        }
        self.pos += need;
        Ok(())
    }

    /// Bits remaining (including any padding in the final byte).
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_matches_reads_and_pads_past_the_end() {
        let buf = [0b1011_0010u8, 0xFF, 0x00, 0x5A, 0xC3];
        for start in 0..=40 {
            for n in 1..=24 {
                let mut r = BitReader::new(&buf);
                r.skip_bits(start);
                let (bits, held) = r.peek_bits(n);
                assert_eq!(held as usize, (40 - start as usize).min(n as usize));
                let mut want = 0u32;
                for _ in 0..n {
                    want = want << 1 | u32::from(r.read_bit().unwrap_or(false));
                }
                assert_eq!(bits, want, "{n} bits at {start}");
            }
        }
    }

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let buf = w.finish();
        assert_eq!(buf.len(), 2);
        let mut r = BitReader::new(&buf);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn roundtrip_multibit_values() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn eof_is_an_error() {
        let buf = BitWriter::new().finish();
        assert!(buf.is_empty());
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 13);
    }

    #[test]
    fn batch_writes_and_reads_match_per_value_calls() {
        for width in [0u32, 1, 3, 7, 8, 9, 13, 31, 32, 33, 56, 57, 63, 64] {
            let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
            let vals: Vec<u64> =
                (0..200u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask).collect();
            let mut per_value = BitWriter::new();
            per_value.write_bits(0b101, 3); // unaligned start
            for &v in &vals {
                per_value.write_bits(v, width);
            }
            let mut batched = BitWriter::new();
            batched.write_bits(0b101, 3);
            batched.write_bits_batch(&vals, width);
            let expect = per_value.finish();
            assert_eq!(batched.finish(), expect, "width {width}");

            let mut r = BitReader::new(&expect);
            assert_eq!(r.read_bits(3).unwrap(), 0b101);
            let mut got = vec![0u64; vals.len()];
            r.read_bits_batch(width, &mut got).unwrap();
            assert_eq!(got, vals, "width {width}");
        }
    }

    #[test]
    fn batch_read_past_eof_errors_and_parks_cursor() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        let mut dst = [0u64; 3];
        assert_eq!(r.read_bits_batch(7, &mut dst), Err(CodecError::UnexpectedEof));
        assert_eq!(r.remaining_bits(), 0, "cursor must park at EOF");
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 0);
        w.write_bit(true);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert!(r.read_bit().unwrap());
    }
}
