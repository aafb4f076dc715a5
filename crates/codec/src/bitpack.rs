//! Fixed-width bit-packing and frame-of-reference (FOR) encoding.
//!
//! The paper's related work (§2.2) surveys lightweight column-store codecs —
//! delta, run-length, scaling, bit-packing \[18, 12, 6\]. These two are
//! provided both as comparison points for the entropy-coding path DBGC
//! actually uses (see the `codec_ablation` experiment) and as generally
//! useful building blocks:
//!
//! * [`bitpack_encode`] — block-wise fixed-width packing: each block of 128
//!   values is stored with the bit width of its largest zigzagged value;
//! * [`for_encode`] — frame of reference: per block, the minimum is stored
//!   once and offsets are bit-packed (ideal for sorted or clustered data).

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::varint::{write_uvarint, ByteReader};

/// Values per block; small enough to adapt to local ranges, large enough to
/// amortize the per-block width byte.
pub const BLOCK: usize = 128;

#[inline]
fn width_of(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Bit-pack signed integers (zigzag + per-block fixed width).
///
/// Layout: `varint count | per block: width byte + packed values`.
pub fn bitpack_encode(vals: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_uvarint(&mut out, vals.len() as u64);
    let mut bits = BitWriter::new();
    let mut zz = [0u64; BLOCK];
    for block in vals.chunks(BLOCK) {
        // OR-folding the zigzagged values gives the block width with a single
        // leading_zeros: width(a | b) == max(width(a), width(b)). The zigzag
        // transform and fold run through the batch kernel (AVX2 when the CPU
        // has it; identical bytes either way).
        let zz = &mut zz[..block.len()];
        let folded = crate::simd::zigzag_encode_block(block, zz);
        let width = width_of(folded);
        bits.write_bits(width as u64, 7);
        bits.write_bits_batch(zz, width);
    }
    out.extend_from_slice(&bits.finish());
    out
}

/// Invert [`bitpack_encode`].
pub fn bitpack_decode(bytes: &[u8]) -> Result<Vec<i64>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let n = r.read_uvarint()? as usize;
    // Each block of up to BLOCK values carries a 7-bit width header, so a
    // payload of B bytes cannot hold more than ~B * 8/7 * BLOCK values.
    // Declared counts above that are structurally impossible.
    if n > r.remaining().saturating_mul(147).saturating_add(BLOCK) {
        return Err(CodecError::CorruptStream("bitpack count exceeds payload capacity"));
    }
    let payload = r.read_slice(r.remaining())?;
    let mut bits = BitReader::new(payload);
    let mut out = Vec::with_capacity(n.min(1 << 16));
    let mut raw = [0u64; BLOCK];
    while out.len() < n {
        let width = bits.read_bits(7)? as u32;
        if width > 64 {
            return Err(CodecError::CorruptStream("bitpack width out of range"));
        }
        let in_block = BLOCK.min(n - out.len());
        let raw = &mut raw[..in_block];
        bits.read_bits_batch(width, raw)?;
        let start = out.len();
        out.resize(start + in_block, 0);
        crate::simd::zigzag_decode_block(raw, &mut out[start..]);
    }
    Ok(out)
}

/// Frame-of-reference encode: per block, `varint zigzag(min)` then the
/// offsets from the minimum bit-packed at the block's required width.
pub fn for_encode(vals: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_uvarint(&mut out, vals.len() as u64);
    // Per-block minima first (varint), then one packed bitstream.
    let mut bits = BitWriter::new();
    let mut header = Vec::new();
    let mut offsets = [0u64; BLOCK];
    for block in vals.chunks(BLOCK) {
        let min = block.iter().copied().min().expect("chunks are non-empty");
        crate::varint::write_ivarint(&mut header, min);
        // Wrapping subtraction is exact here: the true offset is < 2^64 and
        // two's-complement wrap-around reproduces it bit-for-bit.
        let offsets = &mut offsets[..block.len()];
        let mut folded = 0u64;
        for (dst, &v) in offsets.iter_mut().zip(block) {
            let off = v.wrapping_sub(min) as u64;
            *dst = off;
            folded |= off;
        }
        let width = width_of(folded);
        bits.write_bits(width as u64, 7);
        bits.write_bits_batch(offsets, width);
    }
    write_uvarint(&mut out, header.len() as u64);
    out.extend_from_slice(&header);
    out.extend_from_slice(&bits.finish());
    out
}

/// Invert [`for_encode`].
pub fn for_decode(bytes: &[u8]) -> Result<Vec<i64>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let n = r.read_uvarint()? as usize;
    // Same structural bound as `bitpack_decode`: ≥ 7 payload bits per block.
    if n > r.remaining().saturating_mul(147).saturating_add(BLOCK) {
        return Err(CodecError::CorruptStream("FOR count exceeds payload capacity"));
    }
    let header_len = r.read_uvarint()? as usize;
    let header = r.read_slice(header_len)?;
    let mut hr = ByteReader::new(header);
    let payload = r.read_slice(r.remaining())?;
    let mut bits = BitReader::new(payload);
    let mut out = Vec::with_capacity(n.min(1 << 16));
    let mut raw = [0u64; BLOCK];
    while out.len() < n {
        let min = hr.read_ivarint()?;
        let width = bits.read_bits(7)? as u32;
        if width > 64 {
            return Err(CodecError::CorruptStream("FOR width out of range"));
        }
        let in_block = BLOCK.min(n - out.len());
        let raw = &mut raw[..in_block];
        bits.read_bits_batch(width, raw)?;
        out.extend(raw.iter().map(|&off| min.wrapping_add(off as i64)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bitpack_roundtrip_small_values() {
        let vals: Vec<i64> = (0..1000).map(|i| (i % 13) - 6).collect();
        let enc = bitpack_encode(&vals);
        assert_eq!(bitpack_decode(&enc).unwrap(), vals);
        // 13 values → zigzag ≤ 12 → 4 bits each plus headers.
        assert!(enc.len() < 1000, "got {} bytes", enc.len());
    }

    #[test]
    fn for_exploits_clustered_ranges() {
        // Values clustered around a huge base: FOR strips the base per block.
        let vals: Vec<i64> = (0..1024).map(|i| 5_000_000_000 + (i % 7)).collect();
        let f = for_encode(&vals);
        let bp = bitpack_encode(&vals);
        assert_eq!(for_decode(&f).unwrap(), vals);
        assert!(
            f.len() * 4 < bp.len(),
            "FOR {} should be far below plain bitpack {}",
            f.len(),
            bp.len()
        );
    }

    #[test]
    fn empty_and_single() {
        for vals in [vec![], vec![42i64], vec![i64::MIN], vec![i64::MAX]] {
            assert_eq!(bitpack_decode(&bitpack_encode(&vals)).unwrap(), vals);
            assert_eq!(for_decode(&for_encode(&vals)).unwrap(), vals);
        }
    }

    #[test]
    fn block_boundary_sizes() {
        for n in [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK] {
            let vals: Vec<i64> = (0..n as i64).collect();
            assert_eq!(bitpack_decode(&bitpack_encode(&vals)).unwrap(), vals);
            assert_eq!(for_decode(&for_encode(&vals)).unwrap(), vals);
        }
    }

    #[test]
    fn truncated_streams_error() {
        let vals: Vec<i64> = (0..500).collect();
        let enc = bitpack_encode(&vals);
        assert!(bitpack_decode(&enc[..enc.len() / 2]).is_err());
        let enc = for_encode(&vals);
        assert!(for_decode(&enc[..enc.len() / 2]).is_err());
    }

    #[test]
    fn width_zero_blocks() {
        // All-zero input packs to width 0: headers only.
        let vals = vec![0i64; 10_000];
        let enc = bitpack_encode(&vals);
        assert!(enc.len() < 100, "got {} bytes", enc.len());
        assert_eq!(bitpack_decode(&enc).unwrap(), vals);
    }

    proptest! {
        #[test]
        fn bitpack_roundtrip(vals in proptest::collection::vec(any::<i64>(), 0..700)) {
            prop_assert_eq!(bitpack_decode(&bitpack_encode(&vals)).unwrap(), vals);
        }

        #[test]
        fn for_roundtrip(vals in proptest::collection::vec(any::<i64>(), 0..700)) {
            prop_assert_eq!(for_decode(&for_encode(&vals)).unwrap(), vals);
        }
    }
}
