//! Interleaved range coding over 1, 2 or 4 lanes — the one entropy coder
//! behind every entropy profile.
//!
//! A range decoder is a serial dependency chain: each symbol's divide →
//! compare → renormalize must retire before the next symbol can start.
//! Dealing the symbols round-robin over independent [`RangeEncoder`] lanes —
//! symbol `i` lands on lane `i % lanes` — breaks that chain: while one lane
//! renormalizes, the others can issue their divides, which keeps an
//! out-of-order core's divider and load ports busy (the interleaved layout of
//! RIDDLE and ryg_rans).
//!
//! The *model* is still updated in stream order by the caller, so symbol
//! probabilities — and compression ratio — are those of the single-lane
//! coder; only the interval state is replicated. Each lane beyond the first
//! costs one 8-byte flush tail plus a uvarint in the frame header.
//!
//! Framing: `uvarint len(lane 0) | … | uvarint len(lane n−2) | lane 0 bytes
//! | … | lane n−1 bytes` — the last lane's length is implied by the frame
//! end. One lane has no header at all, so its frame *is* the
//! [`RangeEncoder`] output, byte for byte.
//!
//! Truncation behaviour is the single-lane coder's, per lane: a starved lane
//! reads phantom zero bytes, trips its interval check, and surfaces an
//! error; no path panics or allocates beyond the input size.

use crate::error::CodecError;
use crate::range::{RangeDecoder, RangeEncoder, RangeSink, RangeSource};
use crate::varint::{write_uvarint, ByteReader};

/// Most lanes one frame interleaves.
pub const MAX_LANES: usize = 4;

/// Panics unless `lanes` is 1, 2 or 4. Lane counts come from the stream
/// format, never from stream bytes, so a bad one is a caller bug.
fn check_lanes(lanes: usize) {
    assert!(
        lanes.is_power_of_two() && lanes <= MAX_LANES,
        "lane count must be 1, 2 or 4, got {lanes}"
    );
}

/// Range encoder dealing symbols round-robin over its lanes, from lane 0.
#[derive(Debug)]
pub struct LanedEncoder {
    lanes: [RangeEncoder; MAX_LANES],
    /// Lane count minus one: advancing the turn is a mask. Indexing with
    /// `turn & (MAX_LANES - 1)` (equal to `turn`) drops the bounds check.
    mask: usize,
    turn: usize,
}

impl LanedEncoder {
    /// A fresh encoder over `lanes` (1, 2 or 4) lanes.
    pub fn new(lanes: usize) -> Self {
        Self::with_buf(lanes, Vec::new())
    }

    /// [`LanedEncoder::new`] with lane 0 writing into `buf` (cleared,
    /// capacity kept). At one lane [`LanedEncoder::finish`] hands that buffer
    /// back, so hot loops recycle one output allocation across frames.
    pub fn with_buf(lanes: usize, buf: Vec<u8>) -> Self {
        check_lanes(lanes);
        let mut enc = LanedEncoder { lanes: Default::default(), mask: lanes - 1, turn: 0 };
        enc.lanes[0] = RangeEncoder::with_buf(buf);
        enc
    }

    /// Flush every lane and return the framed stream.
    pub fn finish(self) -> Vec<u8> {
        let n = self.mask + 1;
        let mut lanes: Vec<Vec<u8>> =
            self.lanes.into_iter().take(n).map(RangeEncoder::finish).collect();
        if n == 1 {
            return lanes.pop().expect("one lane");
        }
        let body: usize = lanes.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(body + 5 * (n - 1));
        for lane in &lanes[..n - 1] {
            write_uvarint(&mut out, lane.len() as u64);
        }
        for lane in &lanes {
            out.extend_from_slice(lane);
        }
        out
    }
}

impl RangeSink for LanedEncoder {
    #[inline]
    fn put(&mut self, cum: u64, freq: u64, total: u64) {
        let turn = self.turn;
        self.lanes[turn & (MAX_LANES - 1)].encode(cum, freq, total);
        self.turn = (turn + 1) & self.mask;
    }
}

/// Range decoder over a [`LanedEncoder`] frame of the same lane count.
#[derive(Debug)]
pub struct LanedDecoder<'a> {
    lanes: [RangeDecoder<'a>; MAX_LANES],
    mask: usize,
    turn: usize,
}

impl<'a> LanedDecoder<'a> {
    /// Parse a frame of `lanes` (1, 2 or 4) lanes and start every decoder.
    /// Fails when the declared lane lengths overrun the frame.
    pub fn new(buf: &'a [u8], lanes: usize) -> Result<Self, CodecError> {
        check_lanes(lanes);
        let mut r = ByteReader::new(buf);
        let mut lens = [0usize; MAX_LANES - 1];
        let lens = &mut lens[..lanes - 1];
        for len in lens.iter_mut() {
            *len = r.read_uvarint()? as usize;
        }
        // Checked sum: huge declared lengths must not wrap into a "valid"
        // frame.
        if !lens
            .iter()
            .try_fold(0usize, |acc, &l| acc.checked_add(l))
            .is_some_and(|sum| sum <= r.remaining())
        {
            return Err(CodecError::CorruptStream("lane frame shorter than its lane lengths"));
        }
        let mut slices = [[].as_slice(); MAX_LANES];
        for (slot, &len) in slices.iter_mut().zip(lens.iter()) {
            *slot = r.read_slice(len)?;
        }
        slices[lanes - 1] = r.read_slice(r.remaining())?;
        Ok(LanedDecoder { lanes: slices.map(RangeDecoder::new), mask: lanes - 1, turn: 0 })
    }
}

impl RangeSource for LanedDecoder<'_> {
    #[inline]
    fn peek_target(&mut self, total: u64) -> Result<(u64, u64), CodecError> {
        self.lanes[self.turn & (MAX_LANES - 1)].decode_target(total)
    }

    #[inline]
    fn consume(&mut self, cum: u64, freq: u64, total: u64, r: u64) {
        let turn = self.turn;
        self.lanes[turn & (MAX_LANES - 1)].decode_with(cum, freq, total, r);
        self.turn = (turn + 1) & self.mask;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The lane-count-generic checks, run here at one lane; the `dual` and
    //! `wide` test modules at the crate root run them at 2 and 4 lanes.

    use super::*;
    use crate::model::AdaptiveModel;

    fn encode(data: &[u8], alphabet: usize, lanes: usize) -> Vec<u8> {
        let mut model = AdaptiveModel::new(alphabet);
        let mut enc = LanedEncoder::new(lanes);
        for &b in data {
            model.encode(&mut enc, b as usize);
        }
        enc.finish()
    }

    fn decode(buf: &[u8], n: usize, alphabet: usize, lanes: usize) -> Result<Vec<u8>, CodecError> {
        let mut model = AdaptiveModel::new(alphabet);
        let mut dec = LanedDecoder::new(buf, lanes)?;
        (0..n).map(|_| model.decode(&mut dec).map(|s| s as u8)).collect()
    }

    /// Every stream length in `lens` round-trips over `lanes` lanes. Short
    /// streams leave the lanes at different depths (every residue class mod
    /// the lane count); a long one crosses many renorms.
    pub(crate) fn assert_roundtrip(lanes: usize, lens: impl IntoIterator<Item = usize>) {
        for n in lens {
            let data: Vec<u8> =
                (0..n as u32).map(|i| (i.wrapping_mul(0x9E37) >> 9) as u8).collect();
            let buf = encode(&data, 256, lanes);
            assert_eq!(decode(&buf, n, 256, lanes).unwrap(), data, "{lanes} lanes, n = {n}");
        }
    }

    /// Every lane flushes its 8-byte tail even with no symbols, behind one
    /// single-byte length per lane but the last.
    pub(crate) fn assert_empty_stream(lanes: usize) {
        let buf = LanedEncoder::new(lanes).finish();
        assert_eq!(buf.len(), (lanes - 1) + 8 * lanes, "{lanes} lanes");
        assert!(LanedDecoder::new(&buf, lanes).is_ok());
    }

    /// A cut frame header is rejected up front, and a cut tail starves the
    /// last lane: decode must error, not loop.
    pub(crate) fn assert_truncation_rejected(lanes: usize) {
        let data: Vec<u8> = (0..400).map(|i| (i % 16) as u8).collect();
        let buf = encode(&data, 16, lanes);
        if lanes > 1 {
            assert!(LanedDecoder::new(&buf[..lanes - 1], lanes).is_err(), "{lanes} lanes");
        }
        let cut = &buf[..buf.len() - 12];
        assert!(decode(cut, data.len(), 16, lanes).is_err(), "{lanes} lanes");
    }

    /// Replicating the interval state costs the extra flush tails and the
    /// lane header, not ratio: the shared model sees the same sequence.
    pub(crate) fn assert_close_to_single_lane(lanes: usize) {
        let data: Vec<u8> = (0..40_000).map(|i| u8::from(i % 19 == 0)).collect();
        let single = crate::range::rc_compress_bytes(&data).len();
        let laned = encode(&data, 256, lanes).len();
        assert!(laned <= single + 16 * (lanes - 1), "{lanes} lanes: {laned} vs {single}");
    }

    #[test]
    fn roundtrip_adaptive_bytes_at_one_lane() {
        assert_roundtrip(1, (0..9).chain([30_000]));
    }

    #[test]
    fn empty_stream_is_one_flush_tail_per_lane() {
        assert_empty_stream(1);
    }

    #[test]
    fn truncated_frame_is_rejected() {
        assert_truncation_rejected(1);
    }

    #[test]
    fn declared_lane_lengths_cannot_overflow() {
        // Huge uvarint lane lengths whose sum wraps usize must be rejected
        // by the checked sum, not wrap into a "valid" frame.
        let mut buf = Vec::new();
        for _ in 0..3 {
            write_uvarint(&mut buf, u64::MAX / 2);
        }
        buf.extend_from_slice(&[0u8; 64]);
        assert!(LanedDecoder::new(&buf, 4).is_err());
    }

    #[test]
    fn compression_matches_single_lane_closely() {
        // At one lane the frame is the single-lane coder's output itself.
        let data: Vec<u8> = (0..40_000).map(|i| u8::from(i % 19 == 0)).collect();
        assert_eq!(encode(&data, 256, 1), crate::range::rc_compress_bytes(&data));
        assert_close_to_single_lane(1);
    }
}
