//! A carryless range coder (Subbotin style, widened to 64 bits).
//!
//! This is the "arithmetic coder \[58\]" building block of the paper. A range
//! coder is byte-oriented arithmetic coding: it maintains an interval
//! `[low, low + range)` and narrows it proportionally to each symbol's
//! probability, emitting the interval's settled top bytes as it goes.
//!
//! The encoder and decoder take explicit `(cum_freq, freq, total)` triples so
//! arbitrary (adaptive or static) models from [`crate::model`] can drive them.
//! A model decodes a symbol with one divide: [`RangeDecoder::decode_target`]
//! gives the coded offset `off` and the unit width `r = range / total`, the
//! symbol is the last with `cum · r <= off`, and
//! [`RangeDecoder::decode_with`] consumes it with the same `r`.
//!
//! Invariants: `total <= MAX_TOTAL` (2³², far above any model here), and the
//! sum `low + range` never overflows because each step shrinks the interval.

use crate::error::CodecError;

/// Top-byte mask: once the top byte of `low` and `low + range` agree, it can
/// be emitted.
const TOP: u64 = 1 << 56;
/// Renormalization threshold: below this the interval is forcibly truncated
/// to a byte-aligned boundary to avoid carries (the "carryless" trick).
const BOT: u64 = 1 << 48;
/// Maximum allowed model total.
pub const MAX_TOTAL: u64 = 1 << 32;

/// `range / total`, as a shift when `total` is a power of two.
///
/// Exact unsigned division either way, so the coded bytes cannot differ from
/// the plain `/` formulation — this only removes the hardware divide on the
/// raw-bits path (`encode_bits`/`decode_bits`, where `total` is always a
/// power of two) and on fresh byte models (`total` starts at 256).
#[inline]
fn div_total(range: u64, total: u64) -> u64 {
    if total.is_power_of_two() {
        range >> total.trailing_zeros()
    } else {
        range / total
    }
}

/// Range encoder writing to an internal buffer.
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// A fresh encoder over the full interval.
    pub fn new() -> Self {
        Self::with_buf(Vec::new())
    }

    /// A fresh encoder writing into `buf` (cleared, capacity kept), so hot
    /// loops can recycle one output allocation across frames: take the buffer
    /// back with [`RangeEncoder::finish`].
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        RangeEncoder { low: 0, range: u64::MAX, out: buf }
    }

    /// Encode a symbol occupying `[cum, cum + freq)` out of `total`.
    pub fn encode(&mut self, cum: u64, freq: u64, total: u64) {
        debug_assert!(freq > 0, "cannot encode zero-frequency symbol");
        debug_assert!(cum + freq <= total && total <= MAX_TOTAL);
        let r = div_total(self.range, total);
        self.low += r * cum;
        self.range = if cum + freq == total {
            // Give the last symbol the division remainder to avoid wasting
            // code space.
            self.range - r * cum
        } else {
            r * freq
        };
        self.normalize();
    }

    /// Encode `n` raw bits (uniform distribution); handy for headers inside a
    /// range-coded stream.
    pub fn encode_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        // Encode 16 bits at a time to stay well below MAX_TOTAL.
        let mut remaining = n;
        while remaining > 0 {
            let chunk = remaining.min(16);
            let shift = remaining - chunk;
            let v = (value >> shift) & ((1u64 << chunk) - 1);
            self.encode(v, 1, 1u64 << chunk);
            remaining -= chunk;
        }
    }

    fn normalize(&mut self) {
        loop {
            if (self.low ^ (self.low.wrapping_add(self.range))) < TOP {
                // Top byte settled.
            } else if self.range < BOT {
                // Interval straddles a top-byte boundary but is small: clamp
                // it to the boundary so the top byte settles.
                self.range = self.low.wrapping_neg() & (BOT - 1);
            } else {
                break;
            }
            self.out.push((self.low >> 56) as u8);
            self.low <<= 8;
            self.range <<= 8;
        }
    }

    /// Flush the interval and return the coded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..8 {
            self.out.push((self.low >> 56) as u8);
            self.low <<= 8;
        }
        self.out
    }

    /// Bytes emitted so far (excluding the final flush).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Range decoder reading from a byte slice.
///
/// Consuming bytes past the end of the buffer marks the decoder as truncated;
/// the next [`RangeDecoder::decode_target`] (i.e. the next symbol) then fails
/// with [`CodecError::UnexpectedEof`]. A well-formed stream never trips this:
/// the decoder's byte consumption mirrors the encoder's normalize output plus
/// the 8 flush bytes exactly, so valid streams are consumed to their end and
/// no further.
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    low: u64,
    range: u64,
    code: u64,
    buf: &'a [u8],
    pos: usize,
    truncated: bool,
}

impl<'a> RangeDecoder<'a> {
    /// Start decoding from `buf` (reads the initial 8-byte window).
    pub fn new(buf: &'a [u8]) -> Self {
        let mut d =
            RangeDecoder { low: 0, range: u64::MAX, code: 0, buf, pos: 0, truncated: false };
        for _ in 0..8 {
            d.code = (d.code << 8) | d.next_byte();
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u64 {
        // Reading past the end marks the stream truncated; the next symbol
        // decode surfaces it as a hard error instead of silently zero-filling.
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                b as u64
            }
            None => {
                self.truncated = true;
                0
            }
        }
    }

    /// True once the decoder has tried to read past the end of its input.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Where the next symbol lies under a model with the given `total`:
    /// `(off, r)`, the coded value's offset into the interval and the width
    /// `r = range / total` of one frequency unit. The symbol's
    /// cumulative-frequency slot is `off / r`, so it is the last one whose
    /// `cum · r <= off`, which a model can find by comparing products
    /// instead of dividing again. `off` is clamped below `total · r`, so
    /// the remainder slice maps to the last symbol (the slot never reaches
    /// `total`). Consume the symbol with [`RangeDecoder::decode_with`] and
    /// this `r`.
    ///
    /// Fails with [`CodecError::UnexpectedEof`] if the input ran out before
    /// this symbol (the encoder's flush guarantees valid streams never do),
    /// or with [`CodecError::CorruptStream`] if the coded value fell outside
    /// the current interval — a state no valid stream can reach (the encoder
    /// only ever narrows the interval around the value it emits), so it
    /// identifies a tampered stream before the slot is even mapped to a
    /// symbol.
    #[inline]
    pub fn decode_target(&self, total: u64) -> Result<(u64, u64), CodecError> {
        debug_assert!(total <= MAX_TOTAL);
        if self.truncated {
            return Err(CodecError::UnexpectedEof);
        }
        let off = self.code.wrapping_sub(self.low);
        if off >= self.range {
            return Err(CodecError::CorruptStream("range-coded value outside current interval"));
        }
        let r = div_total(self.range, total);
        // The clamp is load-bearing on VALID streams: when `range % total`
        // is nonzero the last symbol also owns the remainder slice, where
        // `off / r` computes to `total`.
        Ok((off.min(r * total - 1), r))
    }

    /// Consume the symbol occupying `[cum, cum + freq)` out of `total`,
    /// given the `r` that [`RangeDecoder::decode_target`] returned for it.
    #[inline]
    pub fn decode_with(&mut self, cum: u64, freq: u64, total: u64, r: u64) {
        self.low += r * cum;
        self.range = if cum + freq == total { self.range - r * cum } else { r * freq };
        self.normalize();
    }

    /// Decode `n` raw bits written by [`RangeEncoder::encode_bits`].
    pub fn decode_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut remaining = n;
        while remaining > 0 {
            let chunk = remaining.min(16);
            let total = 1u64 << chunk;
            let (off, r) = self.decode_target(total)?;
            let f = off / r;
            self.decode_with(f, 1, total, r);
            v = (v << chunk) | f;
            remaining -= chunk;
        }
        Ok(v)
    }

    fn normalize(&mut self) {
        loop {
            if (self.low ^ (self.low.wrapping_add(self.range))) < TOP {
            } else if self.range < BOT {
                self.range = self.low.wrapping_neg() & (BOT - 1);
            } else {
                break;
            }
            self.code = (self.code << 8) | self.next_byte();
            self.low <<= 8;
            self.range <<= 8;
        }
    }

    /// Bytes consumed from the input so far (may exceed input length by the
    /// flush padding).
    pub fn bytes_read(&self) -> usize {
        self.pos.min(self.buf.len())
    }
}

/// Where a model sends coded symbols: a single [`RangeEncoder`] or a
/// [`LanedEncoder`](crate::laned::LanedEncoder) dealing them over lanes.
pub trait RangeSink {
    /// Encode a symbol occupying `[cum, cum + freq)` out of `total`.
    fn put(&mut self, cum: u64, freq: u64, total: u64);
}

/// Where a model reads coded symbols from (mirror of [`RangeSink`]).
pub trait RangeSource {
    /// Where the next symbol lies under a model with the given `total`, as
    /// the `(off, r)` of [`RangeDecoder::decode_target`]: the symbol is the
    /// last whose `cum · r <= off`. A source may return `(slot, 1)`.
    fn peek_target(&mut self, total: u64) -> Result<(u64, u64), CodecError>;
    /// Consume the symbol occupying `[cum, cum + freq)` out of `total`,
    /// with the `r` the preceding [`RangeSource::peek_target`] returned.
    fn consume(&mut self, cum: u64, freq: u64, total: u64, r: u64);
}

impl RangeSink for RangeEncoder {
    #[inline]
    fn put(&mut self, cum: u64, freq: u64, total: u64) {
        self.encode(cum, freq, total);
    }
}

impl RangeSource for RangeDecoder<'_> {
    #[inline]
    fn peek_target(&mut self, total: u64) -> Result<(u64, u64), CodecError> {
        self.decode_target(total)
    }

    #[inline]
    fn consume(&mut self, cum: u64, freq: u64, total: u64, r: u64) {
        self.decode_with(cum, freq, total, r);
    }
}

/// Convenience: range-code a byte slice with an adaptive order-0 model.
pub fn rc_compress_bytes(data: &[u8]) -> Vec<u8> {
    let mut model = crate::model::AdaptiveModel::new(256);
    let mut enc = RangeEncoder::new();
    for &b in data {
        model.encode(&mut enc, b as usize);
    }
    enc.finish()
}

/// Invert [`rc_compress_bytes`]; `len` is the original byte count.
pub fn rc_decompress_bytes(data: &[u8], len: usize) -> Result<Vec<u8>, CodecError> {
    let mut model = crate::model::AdaptiveModel::new(256);
    let mut dec = RangeDecoder::new(data);
    let mut out = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        out.push(model.decode(&mut dec)? as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode/decode a symbol stream against a fixed (static) distribution.
    fn roundtrip_static(symbols: &[usize], freqs: &[u64]) {
        let total: u64 = freqs.iter().sum();
        let cums: Vec<u64> = freqs
            .iter()
            .scan(0u64, |acc, &f| {
                let c = *acc;
                *acc += f;
                Some(c)
            })
            .collect();
        let mut enc = RangeEncoder::new();
        for &s in symbols {
            enc.encode(cums[s], freqs[s], total);
        }
        let buf = enc.finish();
        let mut dec = RangeDecoder::new(&buf);
        for &s in symbols {
            let (off, r) = dec.decode_target(total).unwrap();
            let slot = off / r;
            let sym = match cums.binary_search(&slot) {
                Ok(i) => {
                    // Slot may land exactly on a cum of a zero-freq symbol;
                    // walk forward to the first nonzero frequency.
                    let mut i = i;
                    while freqs[i] == 0 {
                        i += 1;
                    }
                    i
                }
                Err(i) => i - 1,
            };
            assert_eq!(sym, s);
            dec.decode_with(cums[sym], freqs[sym], total, r);
        }
    }

    #[test]
    fn static_roundtrip_skewed() {
        let freqs = [900u64, 50, 30, 20];
        let symbols: Vec<usize> = (0..5000).map(|i| if i % 50 == 0 { i % 4 } else { 0 }).collect();
        roundtrip_static(&symbols, &freqs);
    }

    #[test]
    fn static_roundtrip_uniform() {
        let freqs = [1u64; 16];
        let symbols: Vec<usize> = (0..4096).map(|i| i % 16).collect();
        roundtrip_static(&symbols, &freqs);
    }

    #[test]
    fn raw_bits_roundtrip() {
        let mut enc = RangeEncoder::new();
        enc.encode_bits(0xABCD, 16);
        enc.encode_bits(0x1_2345_6789, 40);
        enc.encode_bits(1, 1);
        enc.encode_bits(u64::MAX, 64);
        let buf = enc.finish();
        let mut dec = RangeDecoder::new(&buf);
        assert_eq!(dec.decode_bits(16).unwrap(), 0xABCD);
        assert_eq!(dec.decode_bits(40).unwrap(), 0x1_2345_6789);
        assert_eq!(dec.decode_bits(1).unwrap(), 1);
        assert_eq!(dec.decode_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn adaptive_bytes_roundtrip() {
        let data: Vec<u8> = (0..10_000).map(|i| ((i * 7) % 11) as u8).collect();
        let comp = rc_compress_bytes(&data);
        assert_eq!(rc_decompress_bytes(&comp, data.len()).unwrap(), data);
        // 11 distinct near-uniform symbols need < 4 bits each after adaptation.
        assert!(comp.len() < data.len() / 2 + 64, "compressed {} bytes", comp.len());
    }

    #[test]
    fn adaptive_bytes_empty() {
        let comp = rc_compress_bytes(&[]);
        assert_eq!(rc_decompress_bytes(&comp, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn skewed_bytes_beat_raw_size() {
        // 99% zeros.
        let data: Vec<u8> = (0..50_000).map(|i| u8::from(i % 100 == 0)).collect();
        let comp = rc_compress_bytes(&data);
        assert!(
            comp.len() < data.len() / 8,
            "expected < {} bytes, got {}",
            data.len() / 8,
            comp.len()
        );
    }

    #[test]
    fn truncated_stream_is_an_error_not_zero_fill() {
        let data: Vec<u8> = (0..10_000).map(|i| ((i * 13) % 251) as u8).collect();
        let comp = rc_compress_bytes(&data);
        // Cut the stream before the tail: decoding must fail with a typed
        // error rather than fabricating symbols from zero bytes.
        for cut in [0, 1, 7, 8, comp.len() / 2] {
            let err = rc_decompress_bytes(&comp[..cut], data.len())
                .expect_err("truncated stream must not decode");
            assert!(matches!(err, CodecError::UnexpectedEof), "cut={cut} gave {err:?}");
        }
        // Cutting inside the 8-byte flush tail may land after the final
        // symbol was already determined; the guarantee is Err or the exact
        // original bytes — never silent garbage.
        for cut in comp.len() - 8..comp.len() {
            match rc_decompress_bytes(&comp[..cut], data.len()) {
                Err(CodecError::UnexpectedEof) => {}
                Ok(out) => assert_eq!(out, data, "cut={cut} decoded garbage"),
                Err(e) => panic!("cut={cut} gave unexpected error {e:?}"),
            }
        }
        // The untouched stream still decodes exactly.
        assert_eq!(rc_decompress_bytes(&comp, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_buffer_errors_on_first_symbol() {
        let mut model = crate::model::AdaptiveModel::new(256);
        let mut dec = RangeDecoder::new(&[]);
        assert!(dec.is_truncated());
        assert!(matches!(model.decode(&mut dec), Err(CodecError::UnexpectedEof)));
    }

    #[test]
    fn code_outside_interval_is_corrupt_not_clamped() {
        // Eight 0xFF bytes put the initial coded value at u64::MAX, one past
        // the largest value any valid stream can flush (the final `low` is
        // strictly below `low₀ + range₀ = u64::MAX`). The decoder must
        // surface this as CorruptStream on the first symbol, not fold it
        // into the last slot.
        let hostile = [0xFFu8; 16];
        let mut model = crate::model::AdaptiveModel::new(256);
        let mut dec = RangeDecoder::new(&hostile);
        assert!(matches!(model.decode(&mut dec), Err(CodecError::CorruptStream(_))));
    }

    #[test]
    fn with_buf_reuse_is_byte_identical() {
        let data: Vec<u8> = (0..4000).map(|i| ((i * 31) % 17) as u8).collect();
        let fresh = rc_compress_bytes(&data);
        // Same stream through an encoder recycling a dirty buffer.
        let mut buf = vec![0xAA; 1024];
        for _ in 0..2 {
            let mut model = crate::model::AdaptiveModel::new(256);
            let mut enc = RangeEncoder::with_buf(buf);
            for &b in &data {
                model.encode(&mut enc, b as usize);
            }
            buf = enc.finish();
            assert_eq!(buf, fresh);
        }
    }

    #[test]
    fn long_stream_stability() {
        // Exercise many renormalizations, including forced truncations.
        let data: Vec<u8> =
            (0..200_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        let comp = rc_compress_bytes(&data);
        assert_eq!(rc_decompress_bytes(&comp, data.len()).unwrap(), data);
    }
}
