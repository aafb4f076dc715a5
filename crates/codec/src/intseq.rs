//! Self-delimiting integer-sequence codecs: the building blocks the DBGC
//! coordinate compressor composes (paper §3.5 steps 5–8).
//!
//! Every codec here frames its own output (`varint count | varint raw_len |
//! varint coded_len | payload`), so streams can be concatenated and split
//! without external bookkeeping. The range-coded codecs take a lane count
//! (1, 2 or 4): the payload is a [`crate::laned`] frame of that many lanes,
//! and both ends must agree on it.

use crate::deflate::{deflate_compress, deflate_decompress};
use crate::delta::{delta_decode_in_place, delta_encode};
use crate::error::CodecError;
use crate::laned::{LanedDecoder, LanedEncoder};
use crate::model::AdaptiveModel;
use crate::range::{RangeDecoder, RangeSource};
use crate::varint::{write_uvarint, zigzag_decode, ByteReader};

/// Serialize signed integers as zigzag LEB128 bytes.
pub fn ints_to_bytes(vals: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 2);
    ints_to_bytes_into(&mut out, vals);
    out
}

/// [`ints_to_bytes`] into a caller-owned buffer (cleared first).
pub fn ints_to_bytes_into(out: &mut Vec<u8>, vals: &[i64]) {
    out.clear();
    for &v in vals {
        crate::varint::write_ivarint(out, v);
    }
}

/// Reusable scratch for the integer-sequence compressors, so per-frame hot
/// loops (one sparse group emits half a dozen frames) recycle the varint
/// staging buffer, the range coder's output buffer, and the two positional
/// byte models instead of reallocating them per call.
///
/// Purely an allocation cache: every codec resets the state it uses, so
/// output bytes are identical whether a scratch is fresh, reused, or the
/// internal default used by the plain entry points.
#[derive(Debug, Default)]
pub struct IntseqScratch {
    /// Varint-encoded staging bytes.
    varint: Vec<u8>,
    /// Range-coder output buffer, taken and returned around each frame.
    payload: Vec<u8>,
    /// Positional byte models (lead/continuation), reset per frame.
    lead: Option<AdaptiveModel>,
    cont: Option<AdaptiveModel>,
}

impl IntseqScratch {
    /// The lead/continuation byte models, created on first use and reset to
    /// their fresh state.
    fn byte_models(&mut self) -> (&mut AdaptiveModel, &mut AdaptiveModel) {
        let lead = self.lead.get_or_insert_with(|| AdaptiveModel::new(256));
        lead.reset();
        let cont = self.cont.get_or_insert_with(|| AdaptiveModel::new(256));
        cont.reset();
        (self.lead.as_mut().unwrap(), self.cont.as_mut().unwrap())
    }
}

/// Parse exactly `n` zigzag LEB128 integers from `r`.
pub fn bytes_to_ints(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<i64>, CodecError> {
    // A varint needs at least one byte, so more values than remaining bytes
    // is an immediate error (and bounds the reservation below).
    if n > r.remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.read_ivarint()?);
    }
    Ok(out)
}

fn write_frame(out: &mut Vec<u8>, count: usize, raw_len: usize, payload: &[u8]) {
    write_uvarint(out, count as u64);
    write_uvarint(out, raw_len as u64);
    write_uvarint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Most symbols one range-coded payload byte can carry. The adaptive models
/// cap any symbol's probability at `(MAX_TOTAL - 255) / MAX_TOTAL`, so each
/// symbol costs at least ~0.0056 bits; 2048 symbols/byte is a safe ceiling.
/// Declared counts above `payload_len * RC_MAX_SYMBOLS_PER_BYTE` are
/// structurally impossible and rejected before any allocation.
const RC_MAX_SYMBOLS_PER_BYTE: usize = 2048;

fn rc_symbol_cap(payload_len: usize) -> usize {
    payload_len.saturating_mul(RC_MAX_SYMBOLS_PER_BYTE)
}

fn read_frame<'a>(r: &mut ByteReader<'a>) -> Result<(usize, usize, &'a [u8]), CodecError> {
    let count = r.read_uvarint()? as usize;
    let raw_len = r.read_uvarint()? as usize;
    let coded_len = r.read_uvarint()? as usize;
    let payload = r.read_slice(coded_len)?;
    Ok((count, raw_len, payload))
}

/// Compress integers with an adaptive range coder over their varint bytes —
/// the "arithmetic coding" path of the paper (steps 5, 7, 8) — through
/// `lanes` interleaved coder lanes.
///
/// Varint bytes are modelled positionally: the lead byte of each value and
/// its continuation bytes have very different distributions (small deltas
/// dominate the lead-byte model; continuation bytes only appear on the heavy
/// tail), so two adaptive models beat a single order-0 model.
pub fn compress_ints_rc(out: &mut Vec<u8>, vals: &[i64], lanes: usize) {
    compress_ints_rc_with(out, vals, lanes, &mut IntseqScratch::default());
}

/// [`compress_ints_rc`] with caller-owned [`IntseqScratch`]; byte-identical
/// output, no per-call allocations once the scratch is warm.
pub fn compress_ints_rc_with(
    out: &mut Vec<u8>,
    vals: &[i64],
    lanes: usize,
    scratch: &mut IntseqScratch,
) {
    let mut bytes = std::mem::take(&mut scratch.varint);
    ints_to_bytes_into(&mut bytes, vals);
    let mut enc = LanedEncoder::with_buf(lanes, std::mem::take(&mut scratch.payload));
    let (lead, cont) = scratch.byte_models();
    let mut at_lead = true;
    for &b in &bytes {
        if at_lead {
            lead.encode(&mut enc, b as usize);
        } else {
            cont.encode(&mut enc, b as usize);
        }
        // High bit set = the varint continues.
        at_lead = b & 0x80 == 0;
    }
    let payload = enc.finish();
    write_frame(out, vals.len(), bytes.len(), &payload);
    scratch.varint = bytes;
    scratch.payload = payload;
}

/// Invert [`compress_ints_rc`]; `lanes` must match the encoder's.
///
/// Each zigzag varint is assembled as its bytes come off the models, with
/// the checks [`bytes_to_ints`] makes on a staged byte buffer: a truncated
/// value or too few values is `UnexpectedEof`, an overlong varint is
/// `VarintOverflow`, and bytes after the `count`-th value are trailing. A
/// malformed varint is reported only once all `raw_len` bytes have decoded,
/// so a range-coder error further on still takes precedence.
pub fn decompress_ints_rc(r: &mut ByteReader<'_>, lanes: usize) -> Result<Vec<i64>, CodecError> {
    let (count, raw_len, payload) = read_frame(r)?;
    if count > raw_len {
        // Each varint value occupies at least one raw byte.
        return Err(CodecError::CorruptStream("rc int frame count exceeds raw length"));
    }
    if raw_len > rc_symbol_cap(payload.len()) {
        return Err(CodecError::CorruptStream("rc int frame raw length exceeds payload capacity"));
    }
    // One lane decodes through a plain `RangeDecoder`, whose state the
    // inlined model steps can keep in registers.
    if lanes == 1 {
        ints_from(&mut RangeDecoder::new(payload), count, raw_len)
    } else {
        ints_from(&mut LanedDecoder::new(payload, lanes)?, count, raw_len)
    }
}

/// The body of [`decompress_ints_rc`] over either decoder.
fn ints_from<S: RangeSource>(
    dec: &mut S,
    count: usize,
    raw_len: usize,
) -> Result<Vec<i64>, CodecError> {
    let mut lead = AdaptiveModel::new(256);
    let mut cont = AdaptiveModel::new(256);
    // Growth past the initial reservation is paced by symbols actually
    // decoded (the range decoder errors at payload EOF), never by `count`.
    let mut vals = Vec::with_capacity(count.min(1 << 16));
    let (mut v, mut shift) = (0u64, 0u32);
    let mut malformed = None;
    let mut at_lead = true;
    for _ in 0..raw_len {
        let b = if at_lead { lead.decode(dec)? } else { cont.decode(dec)? } as u8;
        // High bit clear: this byte ends a varint, and the next one leads.
        at_lead = b & 0x80 == 0;
        if malformed.is_some() {
            continue;
        }
        if vals.len() == count {
            malformed = Some(CodecError::CorruptStream("trailing bytes in rc int frame"));
        } else if shift == 63 && b > 1 {
            malformed = Some(CodecError::VarintOverflow);
        } else {
            v |= ((b & 0x7F) as u64) << shift;
            if at_lead {
                vals.push(zigzag_decode(v));
                (v, shift) = (0, 0);
            } else {
                shift += 7;
                if shift > 63 {
                    malformed = Some(CodecError::VarintOverflow);
                }
            }
        }
    }
    match malformed {
        Some(e) => Err(e),
        // Cut inside a value, or fewer values than declared.
        None if vals.len() < count => Err(CodecError::UnexpectedEof),
        None => Ok(vals),
    }
}

/// Compress integers with the deflate-like codec over their varint bytes —
/// the repeated-pattern path of the paper (step 6).
pub fn compress_ints_deflate(out: &mut Vec<u8>, vals: &[i64]) {
    compress_ints_deflate_with(out, vals, &mut IntseqScratch::default());
}

/// [`compress_ints_deflate`] with caller-owned [`IntseqScratch`] for the
/// varint staging buffer; byte-identical output.
pub fn compress_ints_deflate_with(out: &mut Vec<u8>, vals: &[i64], scratch: &mut IntseqScratch) {
    ints_to_bytes_into(&mut scratch.varint, vals);
    let payload = deflate_compress(&scratch.varint);
    write_frame(out, vals.len(), scratch.varint.len(), &payload);
}

/// Invert [`compress_ints_deflate`].
pub fn decompress_ints_deflate(r: &mut ByteReader<'_>) -> Result<Vec<i64>, CodecError> {
    let (count, raw_len, payload) = read_frame(r)?;
    if count > raw_len {
        return Err(CodecError::CorruptStream("deflate int frame count exceeds raw length"));
    }
    let bytes = deflate_decompress(payload)?;
    if bytes.len() != raw_len {
        return Err(CodecError::CorruptStream("deflate int frame length mismatch"));
    }
    let mut br = ByteReader::new(&bytes);
    let vals = bytes_to_ints(&mut br, count)?;
    if !br.is_empty() {
        return Err(CodecError::CorruptStream("trailing bytes in deflate int frame"));
    }
    Ok(vals)
}

/// Delta-encode then range-code: the classic "delta + entropy coding" combo.
pub fn compress_ints_delta_rc(out: &mut Vec<u8>, vals: &[i64], lanes: usize) {
    compress_ints_rc(out, &delta_encode(vals), lanes);
}

/// Invert [`compress_ints_delta_rc`].
pub fn decompress_ints_delta_rc(
    r: &mut ByteReader<'_>,
    lanes: usize,
) -> Result<Vec<i64>, CodecError> {
    let mut vals = decompress_ints_rc(r, lanes)?;
    delta_decode_in_place(&mut vals);
    Ok(vals)
}

/// Compress a small-alphabet symbol stream (e.g. the reference-point choices
/// `L_ref`, alphabet 4) with a dedicated adaptive model over `lanes` lanes.
pub fn compress_symbols_rc(out: &mut Vec<u8>, symbols: &[u8], alphabet: usize, lanes: usize) {
    compress_symbols_rc_with(out, symbols, alphabet, lanes, &mut IntseqScratch::default());
}

/// [`compress_symbols_rc`] with caller-owned [`IntseqScratch`] for the range
/// coder's output buffer (the small-alphabet model itself is a few hundred
/// bytes and stays per-call); byte-identical output.
pub fn compress_symbols_rc_with(
    out: &mut Vec<u8>,
    symbols: &[u8],
    alphabet: usize,
    lanes: usize,
    scratch: &mut IntseqScratch,
) {
    debug_assert!(symbols.iter().all(|&s| (s as usize) < alphabet));
    let mut model = AdaptiveModel::new(alphabet.max(1));
    let mut enc = LanedEncoder::with_buf(lanes, std::mem::take(&mut scratch.payload));
    for &s in symbols {
        model.encode(&mut enc, s as usize);
    }
    let payload = enc.finish();
    write_frame(out, symbols.len(), alphabet, &payload);
    scratch.payload = payload;
}

/// Invert [`compress_symbols_rc`]; `lanes` must match the encoder's.
pub fn decompress_symbols_rc(r: &mut ByteReader<'_>, lanes: usize) -> Result<Vec<u8>, CodecError> {
    let (count, alphabet, payload) = read_frame(r)?;
    if alphabet == 0 || alphabet > 256 {
        return Err(CodecError::CorruptStream("bad symbol alphabet"));
    }
    if count > rc_symbol_cap(payload.len()) {
        return Err(CodecError::CorruptStream("symbol frame count exceeds payload capacity"));
    }
    // One lane through a plain `RangeDecoder`, as in `decompress_ints_rc`.
    if lanes == 1 {
        symbols_from(&mut RangeDecoder::new(payload), count, alphabet)
    } else {
        symbols_from(&mut LanedDecoder::new(payload, lanes)?, count, alphabet)
    }
}

/// The body of [`decompress_symbols_rc`] over either decoder.
fn symbols_from<S: RangeSource>(
    dec: &mut S,
    count: usize,
    alphabet: usize,
) -> Result<Vec<u8>, CodecError> {
    let mut model = AdaptiveModel::new(alphabet);
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        out.push(model.decode(dec)? as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rc_roundtrip() {
        let vals: Vec<i64> = (0..5000).map(|i| (i % 17) - 8).collect();
        let mut buf = Vec::new();
        compress_ints_rc(&mut buf, &vals, 1);
        let mut r = ByteReader::new(&buf);
        assert_eq!(decompress_ints_rc(&mut r, 1).unwrap(), vals);
        assert!(r.is_empty());
    }

    #[test]
    fn deflate_roundtrip() {
        let vals: Vec<i64> = (0..5000).map(|i| [5i64, 5, 6, 5, 4, 5][i % 6]).collect();
        let mut buf = Vec::new();
        compress_ints_deflate(&mut buf, &vals);
        let mut r = ByteReader::new(&buf);
        assert_eq!(decompress_ints_deflate(&mut r).unwrap(), vals);
    }

    #[test]
    fn delta_rc_compresses_ramp() {
        let vals: Vec<i64> = (0..10_000).map(|i| 1_000_000 + 3 * i).collect();
        let mut plain = Vec::new();
        compress_ints_rc(&mut plain, &vals, 1);
        let mut delta = Vec::new();
        compress_ints_delta_rc(&mut delta, &vals, 1);
        assert!(delta.len() < plain.len() / 2, "delta {} vs plain {}", delta.len(), plain.len());
        let mut r = ByteReader::new(&delta);
        assert_eq!(decompress_ints_delta_rc(&mut r, 1).unwrap(), vals);
    }

    #[test]
    fn frames_concatenate() {
        let a = vec![1i64, 2, 3];
        let b = vec![-5i64; 100];
        let mut buf = Vec::new();
        compress_ints_rc(&mut buf, &a, 1);
        compress_ints_deflate(&mut buf, &b);
        compress_ints_delta_rc(&mut buf, &a, 1);
        let mut r = ByteReader::new(&buf);
        assert_eq!(decompress_ints_rc(&mut r, 1).unwrap(), a);
        assert_eq!(decompress_ints_deflate(&mut r).unwrap(), b);
        assert_eq!(decompress_ints_delta_rc(&mut r, 1).unwrap(), a);
        assert!(r.is_empty());
    }

    #[test]
    fn symbols_roundtrip() {
        let syms: Vec<u8> = (0..3000).map(|i| (i % 4) as u8).collect();
        let mut buf = Vec::new();
        compress_symbols_rc(&mut buf, &syms, 4, 1);
        let mut r = ByteReader::new(&buf);
        assert_eq!(decompress_symbols_rc(&mut r, 1).unwrap(), syms);
    }

    #[test]
    fn empty_sequences() {
        let mut buf = Vec::new();
        compress_ints_rc(&mut buf, &[], 1);
        compress_ints_deflate(&mut buf, &[]);
        compress_symbols_rc(&mut buf, &[], 4, 1);
        let mut r = ByteReader::new(&buf);
        assert!(decompress_ints_rc(&mut r, 1).unwrap().is_empty());
        assert!(decompress_ints_deflate(&mut r).unwrap().is_empty());
        assert!(decompress_symbols_rc(&mut r, 1).unwrap().is_empty());
    }

    #[test]
    fn reused_scratch_is_byte_identical() {
        let seqs: Vec<Vec<i64>> =
            (0..4).map(|k| (0..2000i64).map(|i| (i * (k + 3)) % 97 - 48).collect()).collect();
        let syms: Vec<u8> = (0..500).map(|i| (i % 4) as u8).collect();
        // Lane counts interleave so the recycled payload buffer crosses
        // between one-lane and framed multi-lane outputs.
        let mut fresh = Vec::new();
        for (vals, lanes) in seqs.iter().zip([1, 4, 1, 2]) {
            compress_ints_rc(&mut fresh, vals, lanes);
            compress_ints_deflate(&mut fresh, vals);
        }
        compress_symbols_rc(&mut fresh, &syms, 4, 1);
        let mut scratch = IntseqScratch::default();
        let mut reused = Vec::new();
        for (vals, lanes) in seqs.iter().zip([1, 4, 1, 2]) {
            compress_ints_rc_with(&mut reused, vals, lanes, &mut scratch);
            compress_ints_deflate_with(&mut reused, vals, &mut scratch);
        }
        compress_symbols_rc_with(&mut reused, &syms, 4, 1, &mut scratch);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn wide_variants_roundtrip() {
        // Every range-coded codec at the multi-lane counts the profiles use.
        let vals: Vec<i64> = (0..5000).map(|i| (i % 17) - 8).collect();
        let syms: Vec<u8> = (0..3000).map(|i| (i % 4) as u8).collect();
        for lanes in [2, 4] {
            let mut buf = Vec::new();
            compress_ints_rc(&mut buf, &vals, lanes);
            compress_ints_delta_rc(&mut buf, &vals, lanes);
            compress_symbols_rc(&mut buf, &syms, 4, lanes);
            let mut r = ByteReader::new(&buf);
            assert_eq!(decompress_ints_rc(&mut r, lanes).unwrap(), vals);
            assert_eq!(decompress_ints_delta_rc(&mut r, lanes).unwrap(), vals);
            assert_eq!(decompress_symbols_rc(&mut r, lanes).unwrap(), syms);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn wide_ratio_tracks_narrow() {
        // Same models, same symbol order: four lanes can only cost the three
        // extra flush tails plus lane-length varints.
        let vals: Vec<i64> = (0..20_000).map(|i| (i % 5) - 2).collect();
        let mut narrow = Vec::new();
        compress_ints_rc(&mut narrow, &vals, 1);
        let mut wide = Vec::new();
        compress_ints_rc(&mut wide, &vals, 4);
        assert!(wide.len() <= narrow.len() + 48, "wide {} narrow {}", wide.len(), narrow.len());
    }

    #[test]
    fn wide_arbitrary_bytes_never_panic() {
        for n in 0..64usize {
            let bytes: Vec<u8> = (0..n as u32).map(|i| (i.wrapping_mul(193)) as u8).collect();
            for lanes in [1, 2, 4] {
                let _ = decompress_ints_rc(&mut ByteReader::new(&bytes), lanes);
                let _ = decompress_ints_delta_rc(&mut ByteReader::new(&bytes), lanes);
                let _ = decompress_symbols_rc(&mut ByteReader::new(&bytes), lanes);
            }
        }
    }

    /// An rc int frame declaring `count` values over arbitrary raw `bytes`,
    /// coded with the same positional models as [`compress_ints_rc`].
    fn rc_frame_of_bytes(count: usize, bytes: &[u8], lanes: usize) -> Vec<u8> {
        let mut enc = LanedEncoder::new(lanes);
        let (mut lead, mut cont) = (AdaptiveModel::new(256), AdaptiveModel::new(256));
        let mut at_lead = true;
        for &b in bytes {
            let model = if at_lead { &mut lead } else { &mut cont };
            model.encode(&mut enc, b as usize);
            at_lead = b & 0x80 == 0;
        }
        let mut out = Vec::new();
        write_frame(&mut out, count, bytes.len(), &enc.finish());
        out
    }

    /// What parsing the staged raw bytes gives: the values, or the error.
    fn staged_parse(count: usize, bytes: &[u8]) -> Result<Vec<i64>, CodecError> {
        let mut br = ByteReader::new(bytes);
        let vals = bytes_to_ints(&mut br, count)?;
        if !br.is_empty() {
            return Err(CodecError::CorruptStream("trailing bytes in rc int frame"));
        }
        Ok(vals)
    }

    #[test]
    fn rc_varint_errors_survive_streaming_decode() {
        let cases: [(usize, Vec<u8>, CodecError); 5] = [
            (1, vec![0x80], CodecError::UnexpectedEof),
            (2, vec![0x02, 0x80], CodecError::UnexpectedEof),
            (1, [vec![0xFF; 9], vec![0x02]].concat(), CodecError::VarintOverflow),
            (1, [vec![0xFF; 10], vec![0x00]].concat(), CodecError::VarintOverflow),
            (1, vec![0x02, 0x04], CodecError::CorruptStream("trailing bytes in rc int frame")),
        ];
        for (count, bytes, want) in cases {
            for lanes in [1, 4] {
                let frame = rc_frame_of_bytes(count, &bytes, lanes);
                let got = decompress_ints_rc(&mut ByteReader::new(&frame), lanes);
                assert_eq!(got, Err(want.clone()), "{bytes:02x?} count {count}");
                assert_eq!(staged_parse(count, &bytes), Err(want.clone()));
            }
        }
        // The largest varint still decodes: nine full bytes then a 1.
        let mut max = Vec::new();
        crate::varint::write_ivarint(&mut max, i64::MIN);
        let frame = rc_frame_of_bytes(1, &max, 1);
        assert_eq!(decompress_ints_rc(&mut ByteReader::new(&frame), 1), Ok(vec![i64::MIN]));
    }

    proptest! {
        /// Streaming varint assembly agrees with parsing the staged bytes,
        /// values and errors alike, on arbitrary raw bytes and counts.
        #[test]
        fn rc_streaming_matches_staged_parse(
            bytes in proptest::collection::vec(any::<u8>(), 0..40),
            count_seed in any::<u16>(),
        ) {
            let count = count_seed as usize % (bytes.len() + 1);
            let frame = rc_frame_of_bytes(count, &bytes, 1);
            prop_assert_eq!(
                decompress_ints_rc(&mut ByteReader::new(&frame), 1),
                staged_parse(count, &bytes)
            );
        }

        #[test]
        fn rc_roundtrip_random(vals in proptest::collection::vec(any::<i64>(), 0..500)) {
            let mut buf = Vec::new();
            compress_ints_rc(&mut buf, &vals, 1);
            let mut r = ByteReader::new(&buf);
            prop_assert_eq!(decompress_ints_rc(&mut r, 1).unwrap(), vals);
        }

        #[test]
        fn deflate_roundtrip_random(vals in proptest::collection::vec(-1000i64..1000, 0..500)) {
            let mut buf = Vec::new();
            compress_ints_deflate(&mut buf, &vals);
            let mut r = ByteReader::new(&buf);
            prop_assert_eq!(decompress_ints_deflate(&mut r).unwrap(), vals);
        }
    }
}
