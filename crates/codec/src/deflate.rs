//! A Deflate-like composite codec \[13\]: LZ77 + canonical Huffman.
//!
//! The paper uses Deflate for the azimuthal-angle streams because they carry
//! many repeated patterns (§3.5 step 6). We control both ends of the wire, so
//! the RFC 1951 container is not reproduced; the algorithmic pipeline is the
//! same: LZ77 tokens entropy-coded with two Huffman tables (literal/length
//! and distance), with extra bits for the length/distance residuals.
//!
//! Stream layout: `varint original_len | litlen table | dist table | bits`.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::huffman::{HuffmanDecoder, HuffmanEncoder};
use crate::lz77::{lz77_tokenize, Token, MAX_MATCH, MIN_MATCH};
use crate::varint::{write_uvarint, ByteReader};

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Literal/length alphabet size: 256 literals + EOB + 29 length codes.
const LITLEN_ALPHABET: usize = 286;
const DIST_ALPHABET: usize = 30;

/// Deflate's length code table: `(base_length, extra_bits)` for codes 257–285.
const LENGTH_CODES: [(usize, u32); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// Deflate's distance code table: `(base_distance, extra_bits)` for codes 0–29.
const DIST_CODES: [(usize, u32); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Map a match length (3–258) to `(code_index, extra_value, extra_bits)`.
fn length_to_code(len: usize) -> (usize, u64, u32) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    // Codes are ordered by base; binary search for the containing bucket.
    let idx = match LENGTH_CODES.binary_search_by_key(&len, |&(b, _)| b) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    let (base, extra) = LENGTH_CODES[idx];
    (idx, (len - base) as u64, extra)
}

/// Map a distance (1–32768) to `(code_index, extra_value, extra_bits)`.
fn dist_to_code(dist: usize) -> (usize, u64, u32) {
    let idx = match DIST_CODES.binary_search_by_key(&dist, |&(b, _)| b) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    let (base, extra) = DIST_CODES[idx];
    (idx, (dist - base) as u64, extra)
}

/// Compress `data` with the deflate-like pipeline.
pub fn deflate_compress(data: &[u8]) -> Vec<u8> {
    let tokens = lz77_tokenize(data);

    let mut litlen_freq = vec![0u64; LITLEN_ALPHABET];
    let mut dist_freq = vec![0u64; DIST_ALPHABET];
    for &t in &tokens {
        match t {
            Token::Literal(b) => litlen_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                litlen_freq[257 + length_to_code(len as usize).0] += 1;
                dist_freq[dist_to_code(dist as usize).0] += 1;
            }
        }
    }
    litlen_freq[EOB] += 1;

    let litlen = HuffmanEncoder::from_frequencies(&litlen_freq);
    let dist = HuffmanEncoder::from_frequencies(&dist_freq);

    let mut out = Vec::new();
    write_uvarint(&mut out, data.len() as u64);
    litlen.write_table(&mut out);
    dist.write_table(&mut out);

    let mut w = BitWriter::new();
    for &t in &tokens {
        match t {
            Token::Literal(b) => litlen.encode(&mut w, b as usize),
            Token::Match { len, dist: d } => {
                let (lc, lex, lbits) = length_to_code(len as usize);
                litlen.encode(&mut w, 257 + lc);
                w.write_bits(lex, lbits);
                let (dc, dex, dbits) = dist_to_code(d as usize);
                dist.encode(&mut w, dc);
                w.write_bits(dex, dbits);
            }
        }
    }
    litlen.encode(&mut w, EOB);
    out.extend_from_slice(&w.finish());
    out
}

/// Invert [`deflate_compress`].
pub fn deflate_decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = ByteReader::new(data);
    let original_len = r.read_uvarint()? as usize;
    // Every token costs at least one coded bit and emits at most MAX_MATCH
    // (258) bytes, so a payload of B bytes can never reconstruct more than
    // 8 * 258 * B bytes. Declared lengths above that are structurally
    // impossible; reject them before trusting the value anywhere.
    if original_len > r.remaining().saturating_mul(8 * MAX_MATCH) {
        return Err(CodecError::CorruptStream("declared length exceeds payload capacity"));
    }
    let litlen = HuffmanDecoder::read_table(&mut r)?;
    let dist = HuffmanDecoder::read_table(&mut r)?;
    let bits = r.read_slice(r.remaining())?;
    let mut br = BitReader::new(bits);

    // Reserve at most a modest amount up front; growth beyond it is paced by
    // bytes actually decoded (and capped by the `original_len` check below),
    // so a hostile header cannot trigger a huge allocation.
    let mut out = Vec::with_capacity(original_len.min(1 << 20));
    loop {
        let sym = litlen.decode(&mut br)?;
        match sym {
            0..=255 => out.push(sym as u8),
            EOB => break,
            257..=285 => {
                let (base, extra) = LENGTH_CODES[sym - 257];
                let len = base + br.read_bits(extra)? as usize;
                let dsym = dist.decode(&mut br)?;
                if dsym >= DIST_ALPHABET {
                    return Err(CodecError::SymbolOutOfRange {
                        symbol: dsym,
                        alphabet: DIST_ALPHABET,
                    });
                }
                let (dbase, dextra) = DIST_CODES[dsym];
                let d = dbase + br.read_bits(dextra)? as usize;
                if d == 0 || d > out.len() {
                    return Err(CodecError::InvalidBackReference {
                        distance: d,
                        produced: out.len(),
                    });
                }
                let start = out.len() - d;
                if d >= len {
                    // The match ends before the output does: one copy.
                    out.extend_from_within(start..start + len);
                } else {
                    // An overlapping run extension reads bytes it writes.
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
            _ => {
                return Err(CodecError::SymbolOutOfRange { symbol: sym, alphabet: LITLEN_ALPHABET })
            }
        }
        if out.len() > original_len {
            return Err(CodecError::CorruptStream("output exceeds declared length"));
        }
    }
    if out.len() != original_len {
        return Err(CodecError::CorruptStream("output shorter than declared length"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> usize {
        let comp = deflate_compress(data);
        assert_eq!(deflate_decompress(&comp).unwrap(), data);
        comp.len()
    }

    #[test]
    fn length_code_table_covers_range() {
        for len in MIN_MATCH..=MAX_MATCH {
            let (idx, extra, bits) = length_to_code(len);
            let (base, b) = LENGTH_CODES[idx];
            assert_eq!(b, bits);
            assert_eq!(base + extra as usize, len);
            assert!(extra < (1 << bits.max(1)));
        }
    }

    #[test]
    fn dist_code_table_covers_range() {
        for dist in [1usize, 2, 4, 5, 8, 100, 1024, 9000, 32768] {
            let (idx, extra, bits) = dist_to_code(dist);
            let (base, b) = DIST_CODES[idx];
            assert_eq!(b, bits);
            assert_eq!(base + extra as usize, dist);
        }
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"no repeats");
    }

    #[test]
    fn repetitive_text_compresses() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .cycle()
            .take(50_000)
            .copied()
            .collect();
        let size = roundtrip(&data);
        assert!(size < data.len() / 10, "compressed to {size} bytes");
    }

    #[test]
    fn random_data_grows_only_slightly() {
        let data: Vec<u8> =
            (0..10_000u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        let size = roundtrip(&data);
        assert!(size < data.len() + 1200, "compressed to {size} bytes");
    }

    /// Matches copied in one call (distance ≥ length) and overlapping run
    /// extensions (distance < length) both decode to the input.
    #[test]
    fn overlapping_and_disjoint_matches_decode() {
        let block: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let data = [block.clone(), vec![7u8; 1000], block, b"abcabcabcabcabc".to_vec()].concat();
        let tokens = lz77_tokenize(&data);
        let has = |overlap: bool| {
            tokens
                .iter()
                .any(|t| matches!(*t, Token::Match { len, dist } if (dist < len) == overlap))
        };
        assert!(has(true) && has(false), "data must exercise both copy paths");
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let comp = deflate_compress(b"hello hello hello hello");
        for cut in [0, 1, comp.len() / 2] {
            assert!(deflate_decompress(&comp[..cut]).is_err());
        }
    }

    #[test]
    fn corrupted_declared_length_detected() {
        let mut comp = deflate_compress(b"abcabcabc");
        comp[0] = comp[0].wrapping_add(1); // bump varint length
        assert!(deflate_decompress(&comp).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn roundtrip_random(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
            roundtrip(&data);
        }

        #[test]
        fn roundtrip_structured(runs in proptest::collection::vec((0u8..8, 1usize..100), 0..100)) {
            let mut data = Vec::new();
            for (b, n) in runs {
                data.extend(std::iter::repeat(b).take(n));
            }
            roundtrip(&data);
        }
    }
}
