//! Property tests for every codec primitive: encoded data round-trips
//! exactly, and *arbitrary* bytes decode to `Err` or a value — never a
//! panic, never an allocation unmoored from the input size.
//!
//! These are the per-primitive counterparts of the structure-aware fuzzing
//! in `dbgc-fuzz`: the fuzzer mutates real streams end-to-end; these drive
//! each primitive's decoder directly with unconstrained input.

use dbgc_codec::varint::{write_ivarint, write_uvarint, ByteReader};
use dbgc_codec::{
    bitpack_decode, bitpack_encode, deflate_compress, deflate_decompress, delta_decode,
    delta_encode, for_decode, for_encode, rle_decode, rle_decode_limited, rle_encode,
    HuffmanDecoder, HuffmanEncoder,
};
use dbgc_codec::{intseq, lz77, range};
use dbgc_codec::{AdaptiveModel, LanedDecoder, LanedEncoder};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Lane counts the entropy profiles use: 1 (narrow), 2 (dual occupancy) and
/// 4 (wide).
const LANE_COUNTS: [usize; 3] = [1, 2, 4];

fn arb_ints() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(
        (any::<u64>(), 0u32..4).prop_map(|(raw, scale)| {
            // Mix magnitudes: deltas, coordinates, and extreme values.
            let v = raw as i64;
            v >> [0u32, 16, 40, 56][scale as usize]
        }),
        0..300,
    )
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

/// `data` through an adaptive byte model and the laned range coder.
fn laned_encode(data: &[u8], lanes: usize) -> Vec<u8> {
    let mut model = AdaptiveModel::new(256);
    let mut enc = LanedEncoder::new(lanes);
    for &b in data {
        model.encode(&mut enc, b as usize);
    }
    enc.finish()
}

/// The laned coder's contract at `lanes` lanes: the full frame decodes
/// exactly, and any proper prefix is rejected at the frame or errors on a
/// starved lane. Symbols decoded before the error only ever consumed genuine
/// bytes, so they must still be the originals; a full decode is possible
/// only for cuts inside the `8 · lanes` flush-tail bytes.
fn laned_roundtrip_and_truncation(
    data: &[u8],
    cut_frac: u32,
    lanes: usize,
) -> Result<(), TestCaseError> {
    let comp = laned_encode(data, lanes);
    let mut model = AdaptiveModel::new(256);
    let mut dec = LanedDecoder::new(&comp, lanes).unwrap();
    for &b in data {
        prop_assert_eq!(model.decode(&mut dec).unwrap(), b as usize);
    }
    let cut = (comp.len().saturating_sub(1)) * cut_frac as usize / 100;
    if let Ok(mut dec) = LanedDecoder::new(&comp[..cut], lanes) {
        let mut model = AdaptiveModel::new(256);
        let mut completed = true;
        for &b in data {
            match model.decode(&mut dec) {
                Err(_) => {
                    completed = false;
                    break;
                }
                Ok(sym) => {
                    prop_assert_eq!(sym, b as usize, "truncated stream decoded wrong symbol");
                }
            }
        }
        prop_assert!(
            !completed || cut + 8 * lanes >= comp.len(),
            "{lanes} lanes: early cut at {cut}/{} decoded fully",
            comp.len(),
        );
    }
    Ok(())
}

/// Arbitrary bytes read as a `lanes`-lane frame: `Err` or symbols, never a
/// panic.
fn laned_arbitrary_bytes_never_panic(bytes: &[u8], n: usize, lanes: usize) {
    if let Ok(mut dec) = LanedDecoder::new(bytes, lanes) {
        let mut model = AdaptiveModel::new(64);
        for _ in 0..n {
            if model.decode(&mut dec).is_err() {
                break;
            }
        }
    }
}

/// A valid `lanes`-lane frame with one flipped bit decodes to `Err` or
/// symbols, never a panic.
fn laned_bit_flips_never_panic(data: &[u8], flip: u64, lanes: usize) {
    let mut comp = laned_encode(data, lanes);
    if !comp.is_empty() {
        let idx = (flip as usize) % comp.len();
        comp[idx] ^= 1 << ((flip >> 32) % 8) as u8;
    }
    if let Ok(mut dec) = LanedDecoder::new(&comp, lanes) {
        let mut model = AdaptiveModel::new(256);
        for _ in data {
            if model.decode(&mut dec).is_err() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- varint ----------------------------------------------------------
    #[test]
    fn varint_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut buf = Vec::new();
        for &v in &vals {
            write_uvarint(&mut buf, v);
            write_ivarint(&mut buf, v as i64);
        }
        let mut r = ByteReader::new(&buf);
        for &v in &vals {
            prop_assert_eq!(r.read_uvarint().unwrap(), v);
            prop_assert_eq!(r.read_ivarint().unwrap(), v as i64);
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn varint_arbitrary_bytes_never_panic(bytes in arb_bytes(64)) {
        let mut r = ByteReader::new(&bytes);
        while r.read_uvarint().is_ok() && !r.is_empty() {}
        let mut r = ByteReader::new(&bytes);
        while r.read_ivarint().is_ok() && !r.is_empty() {}
    }

    // ---- delta -----------------------------------------------------------
    #[test]
    fn delta_roundtrip(vals in arb_ints()) {
        // Wrapping on i64 extremes is part of the contract: decode inverts
        // encode exactly for every input.
        prop_assert_eq!(delta_decode(&delta_encode(&vals)), vals);
    }

    // ---- rle -------------------------------------------------------------
    #[test]
    fn rle_roundtrip(data in arb_bytes(400)) {
        prop_assert_eq!(rle_decode(&rle_encode(&data)).unwrap(), data);
    }

    #[test]
    fn rle_arbitrary_bytes_never_panic(bytes in arb_bytes(200)) {
        if let Ok(out) = rle_decode_limited(&bytes, 1 << 12) {
            prop_assert!(out.len() <= 1 << 12, "limit not honored: {}", out.len());
        }
        let _ = rle_decode(&bytes);
    }

    // ---- lz77 ------------------------------------------------------------
    #[test]
    fn lz77_roundtrip(data in arb_bytes(600)) {
        let tokens = lz77::lz77_tokenize(&data);
        prop_assert_eq!(lz77::lz77_reconstruct(&tokens).unwrap(), data);
    }

    #[test]
    fn lz77_arbitrary_tokens_never_panic(
        tokens in proptest::collection::vec(
            (any::<u8>(), any::<u64>()).prop_map(|(b, raw)| {
                if raw & 1 == 0 {
                    lz77::Token::Literal(b)
                } else {
                    lz77::Token::Match { len: (raw >> 1) as u16, dist: (raw >> 17) as u16 }
                }
            }),
            0..100,
        )
    ) {
        // Err (invalid back-reference) or Ok; output is bounded by
        // tokens * MAX u16 len, so no unbounded allocation either.
        let _ = lz77::lz77_reconstruct(&tokens);
    }

    // ---- huffman ---------------------------------------------------------
    #[test]
    fn huffman_roundtrip(syms in proptest::collection::vec(0usize..24, 1..400)) {
        let mut freqs = vec![0u64; 24];
        for &s in &syms {
            freqs[s] += 1;
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        let mut table = Vec::new();
        enc.write_table(&mut table);
        let mut w = dbgc_codec::BitWriter::new();
        for &s in &syms {
            enc.encode(&mut w, s);
        }
        let bits = w.finish();
        let dec = HuffmanDecoder::read_table(&mut ByteReader::new(&table)).unwrap();
        let mut r = dbgc_codec::BitReader::new(&bits);
        for &s in &syms {
            prop_assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn huffman_table_from_arbitrary_bytes_never_panics(bytes in arb_bytes(300)) {
        let _ = HuffmanDecoder::read_table(&mut ByteReader::new(&bytes));
    }

    // ---- range coder, and the laned coder at 1, 2 and 4 lanes -------------
    #[test]
    fn range_roundtrip_and_truncation(data in arb_bytes(500), cut_frac in 0u32..100) {
        let comp = range::rc_compress_bytes(&data);
        prop_assert_eq!(range::rc_decompress_bytes(&comp, data.len()).unwrap(), data.clone());
        // Any proper prefix: hard error, or — only for cuts inside the
        // 8-byte flush tail — still the exact original bytes.
        let cut = (comp.len().saturating_sub(1)) * cut_frac as usize / 100;
        match range::rc_decompress_bytes(&comp[..cut], data.len()) {
            Err(_) => {}
            Ok(out) => {
                prop_assert!(cut + 8 >= comp.len(), "early cut at {cut} decoded Ok");
                prop_assert_eq!(out, data.clone(), "flush-tail cut returned wrong bytes");
            }
        }
        // One lane is the plain range coder, byte for byte.
        prop_assert_eq!(&laned_encode(&data, 1), &comp);
        laned_roundtrip_and_truncation(&data, cut_frac, 1)?;
    }

    #[test]
    fn range_arbitrary_bytes_never_panic(bytes in arb_bytes(200), n in 0usize..4096) {
        let _ = range::rc_decompress_bytes(&bytes, n);
        laned_arbitrary_bytes_never_panic(&bytes, n, 1);
    }

    #[test]
    fn range_bit_flips_never_panic(data in arb_bytes(200), flip in any::<u64>()) {
        laned_bit_flips_never_panic(&data, flip, 1);
    }

    #[test]
    fn dual_roundtrip_and_truncation(data in arb_bytes(500), cut_frac in 0u32..100) {
        laned_roundtrip_and_truncation(&data, cut_frac, 2)?;
    }

    #[test]
    fn dual_arbitrary_bytes_never_panic(bytes in arb_bytes(300), n in 0usize..512) {
        laned_arbitrary_bytes_never_panic(&bytes, n, 2);
    }

    #[test]
    fn dual_bit_flips_never_panic(data in arb_bytes(200), flip in any::<u64>()) {
        laned_bit_flips_never_panic(&data, flip, 2);
    }

    #[test]
    fn wide_roundtrip_and_truncation(data in arb_bytes(500), cut_frac in 0u32..100) {
        laned_roundtrip_and_truncation(&data, cut_frac, 4)?;
    }

    #[test]
    fn wide_arbitrary_bytes_never_panic(bytes in arb_bytes(300), n in 0usize..512) {
        laned_arbitrary_bytes_never_panic(&bytes, n, 4);
    }

    #[test]
    fn wide_bit_flips_never_panic(data in arb_bytes(200), flip in any::<u64>()) {
        laned_bit_flips_never_panic(&data, flip, 4);
    }

    // ---- intseq ----------------------------------------------------------
    #[test]
    fn intseq_roundtrip_all_variants(vals in arb_ints()) {
        let mut buf = Vec::new();
        intseq::compress_ints_deflate(&mut buf, &vals);
        for lanes in LANE_COUNTS {
            intseq::compress_ints_rc(&mut buf, &vals, lanes);
            intseq::compress_ints_delta_rc(&mut buf, &vals, lanes);
        }
        let mut r = ByteReader::new(&buf);
        prop_assert_eq!(intseq::decompress_ints_deflate(&mut r).unwrap(), vals.clone());
        for lanes in LANE_COUNTS {
            prop_assert_eq!(intseq::decompress_ints_rc(&mut r, lanes).unwrap(), vals.clone());
            prop_assert_eq!(intseq::decompress_ints_delta_rc(&mut r, lanes).unwrap(), vals.clone());
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn intseq_symbols_roundtrip(syms in proptest::collection::vec(any::<u8>(), 0..300)) {
        let syms: Vec<u8> = syms.into_iter().map(|s| s % 16).collect();
        let mut buf = Vec::new();
        for lanes in LANE_COUNTS {
            intseq::compress_symbols_rc(&mut buf, &syms, 16, lanes);
        }
        let mut r = ByteReader::new(&buf);
        for lanes in LANE_COUNTS {
            prop_assert_eq!(intseq::decompress_symbols_rc(&mut r, lanes).unwrap(), syms.clone());
        }
    }

    #[test]
    fn intseq_arbitrary_bytes_never_panic(bytes in arb_bytes(300)) {
        let _ = intseq::decompress_ints_deflate(&mut ByteReader::new(&bytes));
        for lanes in LANE_COUNTS {
            let _ = intseq::decompress_ints_rc(&mut ByteReader::new(&bytes), lanes);
            let _ = intseq::decompress_ints_delta_rc(&mut ByteReader::new(&bytes), lanes);
            let _ = intseq::decompress_symbols_rc(&mut ByteReader::new(&bytes), lanes);
        }
    }

    // ---- bitpack / FOR ---------------------------------------------------
    #[test]
    fn bitpack_and_for_roundtrip(vals in arb_ints()) {
        prop_assert_eq!(bitpack_decode(&bitpack_encode(&vals)).unwrap(), vals.clone());
        prop_assert_eq!(for_decode(&for_encode(&vals)).unwrap(), vals);
    }

    #[test]
    fn bitpack_arbitrary_bytes_never_panic(bytes in arb_bytes(300)) {
        let _ = bitpack_decode(&bytes);
        let _ = for_decode(&bytes);
    }

    // ---- deflate composite ----------------------------------------------
    #[test]
    fn deflate_roundtrip(data in arb_bytes(800)) {
        let comp = deflate_compress(&data);
        prop_assert_eq!(deflate_decompress(&comp).unwrap(), data);
    }

    #[test]
    fn deflate_arbitrary_bytes_never_panic(bytes in arb_bytes(400)) {
        let _ = deflate_decompress(&bytes);
    }
}
