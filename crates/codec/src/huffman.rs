//! Canonical Huffman coding \[29\].
//!
//! Code lengths are derived with the classic two-queue/heap construction and
//! assigned canonically (sorted by length, then symbol), so only the length
//! array needs to travel with the stream. Decoding walks the canonical
//! first-code table bit by bit — no decode table memory, and code lengths up
//! to 63 bits are supported, so no length-limiting pass is needed.

use std::collections::BinaryHeap;

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::rle::{rle_decode_limited, rle_encode};
use crate::varint::{write_uvarint, ByteReader};

const MAX_LEN: u32 = 63;

/// Compute Huffman code lengths for `freqs` (zero-frequency symbols get
/// length 0, i.e. no code). A single-symbol alphabet gets length 1.
fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        /// Tie-break on creation order for determinism.
        order: usize,
        kind: NodeKind,
    }
    #[derive(PartialEq, Eq)]
    enum NodeKind {
        Leaf(usize),
        Internal(Box<Node>, Box<Node>),
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap; invert for min-heap behaviour.
            other.weight.cmp(&self.weight).then(other.order.cmp(&self.order))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut lengths = vec![0u32; freqs.len()];
    let mut heap = BinaryHeap::new();
    let mut order = 0usize;
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            heap.push(Node { weight: f, order, kind: NodeKind::Leaf(sym) });
            order += 1;
        }
    }
    match heap.len() {
        0 => return lengths,
        1 => {
            if let NodeKind::Leaf(sym) = heap.pop().expect("one node").kind {
                lengths[sym] = 1;
            }
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        heap.push(Node {
            weight: a.weight + b.weight,
            order,
            kind: NodeKind::Internal(Box::new(a), Box::new(b)),
        });
        order += 1;
    }
    // Iterative depth-first traversal to assign depths as lengths.
    let root = heap.pop().expect("root");
    let mut stack = vec![(root, 0u32)];
    while let Some((node, depth)) = stack.pop() {
        match node.kind {
            NodeKind::Leaf(sym) => lengths[sym] = depth.min(MAX_LEN),
            NodeKind::Internal(a, b) => {
                stack.push((*a, depth + 1));
                stack.push((*b, depth + 1));
            }
        }
    }
    lengths
}

/// Assign canonical codes given lengths; returns `(code, len)` per symbol.
fn canonical_codes(lengths: &[u32]) -> Result<Vec<(u64, u32)>, CodecError> {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    if max_len > MAX_LEN {
        return Err(CodecError::InvalidHuffmanTable);
    }
    let mut count_per_len = vec![0u64; max_len as usize + 1];
    for &l in lengths {
        count_per_len[l as usize] += 1;
    }
    count_per_len[0] = 0;
    // Kraft check.
    let mut kraft = 0u128;
    for (l, &c) in count_per_len.iter().enumerate().skip(1) {
        kraft += (c as u128) << (MAX_LEN as usize + 1 - l);
    }
    if kraft > 1u128 << (MAX_LEN + 1) {
        return Err(CodecError::InvalidHuffmanTable);
    }
    let mut next_code = vec![0u64; max_len as usize + 2];
    let mut code = 0u64;
    for l in 1..=max_len as usize {
        code = (code + count_per_len[l - 1]) << 1;
        next_code[l] = code;
    }
    let mut codes = vec![(0u64, 0u32); lengths.len()];
    for (sym, &l) in lengths.iter().enumerate() {
        if l > 0 {
            codes[sym] = (next_code[l as usize], l);
            next_code[l as usize] += 1;
        }
    }
    Ok(codes)
}

/// Canonical Huffman encoder for a fixed alphabet.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    codes: Vec<(u64, u32)>,
    lengths: Vec<u32>,
}

impl HuffmanEncoder {
    /// Build from symbol frequencies. Symbols with zero frequency receive no
    /// code and must not be encoded.
    pub fn from_frequencies(freqs: &[u64]) -> HuffmanEncoder {
        let lengths = code_lengths(freqs);
        let codes = canonical_codes(&lengths).expect("construction yields a valid table");
        HuffmanEncoder { codes, lengths }
    }

    /// Serialize the code-length table (RLE + varint framing).
    pub fn write_table(&self, out: &mut Vec<u8>) {
        let bytes: Vec<u8> = self.lengths.iter().map(|&l| l as u8).collect();
        let rle = rle_encode(&bytes);
        write_uvarint(out, self.lengths.len() as u64);
        write_uvarint(out, rle.len() as u64);
        out.extend_from_slice(&rle);
    }

    /// Encode one symbol.
    pub fn encode(&self, w: &mut BitWriter, sym: usize) {
        let (code, len) = self.codes[sym];
        assert!(len > 0, "symbol {sym} has no code (zero frequency)");
        w.write_bits(code, len);
    }

    /// Code length of `sym` in bits (0 = no code).
    pub fn code_len(&self, sym: usize) -> u32 {
        self.lengths[sym]
    }
}

/// Canonical Huffman decoder built from a serialized length table.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// `first_code[l]` — canonical code value of the first code of length `l`.
    first_code: Vec<u64>,
    /// `first_index[l]` — index into `symbols` of that first code.
    first_index: Vec<usize>,
    /// Count of codes per length.
    counts: Vec<u64>,
    /// Symbols sorted canonically (by length, then symbol).
    symbols: Vec<usize>,
    max_len: u32,
    /// Width of the lookup index: `max_len`, at most [`LOOKUP_BITS`].
    lookup_bits: u32,
    /// For each `lookup_bits`-bit prefix, `symbol << 8 | length` of the code
    /// it starts with, or 0 when that code is longer than `lookup_bits` (or
    /// no code starts with it).
    lookup: Vec<u32>,
}

/// Widest prefix the table-driven decode looks up: 1,024 entries, so the
/// short codes that carry most symbols decode in one step.
const LOOKUP_BITS: u32 = 10;

impl HuffmanDecoder {
    /// Deserialize a table written by [`HuffmanEncoder::write_table`].
    pub fn read_table(r: &mut ByteReader<'_>) -> Result<HuffmanDecoder, CodecError> {
        let n = r.read_uvarint()? as usize;
        if n > 1 << 20 {
            return Err(CodecError::InvalidHuffmanTable);
        }
        let rle_len = r.read_uvarint()? as usize;
        let rle = r.read_slice(rle_len)?;
        // The table must decode to exactly `n` length bytes; cap the RLE
        // expansion there so a tampered run length cannot balloon memory.
        let bytes = rle_decode_limited(rle, n)?;
        if bytes.len() != n {
            return Err(CodecError::InvalidHuffmanTable);
        }
        let lengths: Vec<u32> = bytes.into_iter().map(|b| b as u32).collect();
        HuffmanDecoder::from_lengths(&lengths)
    }

    /// Build directly from a length array (shared with the encoder in-process).
    pub fn from_lengths(lengths: &[u32]) -> Result<HuffmanDecoder, CodecError> {
        // Validate via the same canonical construction.
        canonical_codes(lengths)?;
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let mut counts = vec![0u64; max_len as usize + 1];
        for &l in lengths {
            if l > 0 {
                counts[l as usize] += 1;
            }
        }
        let mut symbols: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
        symbols.sort_by_key(|&s| (lengths[s], s));
        // Same canonical numbering as the encoder: the first code of length
        // l continues where length l-1's codes ended, shifted left one bit.
        let mut first_code = vec![0u64; max_len as usize + 2];
        let mut first_index = vec![0usize; max_len as usize + 2];
        let mut code = 0u64;
        let mut index = 0usize;
        for l in 1..=max_len as usize {
            code = (code + counts[l - 1]) << 1;
            first_code[l] = code;
            first_index[l] = index;
            index += counts[l] as usize;
        }
        // Every code no longer than the lookup width fills the entries of
        // the prefixes it starts.
        let lookup_bits = max_len.min(LOOKUP_BITS);
        let mut lookup = vec![0u32; 1 << lookup_bits];
        for l in 1..=lookup_bits {
            let li = l as usize;
            for k in 0..counts[li] {
                let sym = symbols[first_index[li] + k as usize] as u32;
                let at = ((first_code[li] + k) << (lookup_bits - l)) as usize;
                lookup[at..at + (1 << (lookup_bits - l))].fill(sym << 8 | l);
            }
        }
        Ok(HuffmanDecoder {
            first_code,
            first_index,
            counts,
            symbols,
            max_len,
            lookup_bits,
            lookup,
        })
    }

    /// Decode one symbol, reading bits as needed.
    ///
    /// A code no longer than the lookup width that the input holds whole
    /// is found in one table step; anything else (a longer code, a prefix
    /// no code starts, input ending mid-code) takes the bit-by-bit walk.
    /// The codes are prefix-free and canonical, so both find the same
    /// symbol and consume the same bits, and the walk reports every error.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<usize, CodecError> {
        if self.lookup_bits > 0 {
            let (bits, held) = r.peek_bits(self.lookup_bits);
            let entry = self.lookup[bits as usize];
            let len = entry & 0xFF;
            if len != 0 && len <= held {
                r.skip_bits(len);
                return Ok((entry >> 8) as usize);
            }
        }
        self.decode_bitwise(r)
    }

    /// The bit-by-bit canonical decode behind [`HuffmanDecoder::decode`].
    fn decode_bitwise(&self, r: &mut BitReader<'_>) -> Result<usize, CodecError> {
        if self.symbols.is_empty() {
            return Err(CodecError::InvalidHuffmanTable);
        }
        let mut code = 0u64;
        for l in 1..=self.max_len {
            code = (code << 1) | r.read_bit()? as u64;
            let li = l as usize;
            let count = self.counts[li];
            if count > 0 && code < self.first_code[li] + count {
                let offset = (code - self.first_code[li]) as usize;
                return Ok(self.symbols[self.first_index[li] + offset]);
            }
        }
        Err(CodecError::CorruptStream("Huffman code not found"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(freqs: &[u64], stream: &[usize]) -> usize {
        let enc = HuffmanEncoder::from_frequencies(freqs);
        let mut table = Vec::new();
        enc.write_table(&mut table);
        let mut w = BitWriter::new();
        for &s in stream {
            enc.encode(&mut w, s);
        }
        let bits = w.finish();

        let mut br = ByteReader::new(&table);
        let dec = HuffmanDecoder::read_table(&mut br).unwrap();
        let mut r = BitReader::new(&bits);
        for &s in stream {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
        table.len() + bits.len()
    }

    #[test]
    fn simple_alphabet() {
        let freqs = [45u64, 13, 12, 16, 9, 5];
        let stream: Vec<usize> = (0..1000).map(|i| i % 6).collect();
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn skewed_is_short() {
        let mut freqs = vec![0u64; 256];
        freqs[0] = 10_000;
        freqs[1] = 10;
        freqs[2] = 5;
        let stream: Vec<usize> =
            (0..8000).map(|i| if i % 100 == 0 { 1 + i % 2 } else { 0 }).collect();
        let total = roundtrip(&freqs, &stream);
        // ~1 bit per symbol plus table.
        assert!(total < 1600, "total {total} bytes");
    }

    #[test]
    fn single_symbol_alphabet() {
        let mut freqs = vec![0u64; 10];
        freqs[7] = 42;
        let stream = vec![7usize; 42];
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn empty_stream_empty_table() {
        let freqs = vec![0u64; 16];
        roundtrip(&freqs, &[]);
    }

    #[test]
    fn zero_freq_symbol_panics_on_encode() {
        let enc = HuffmanEncoder::from_frequencies(&[10, 0, 5]);
        let mut w = BitWriter::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enc.encode(&mut w, 1);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs = [5u64, 9, 12, 13, 16, 45];
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        for a in 0..freqs.len() {
            for b in 0..freqs.len() {
                if a == b {
                    continue;
                }
                let (ca, la) = enc.codes[a];
                let (cb, lb) = enc.codes[b];
                if la <= lb {
                    assert_ne!(ca, cb >> (lb - la), "code {a} is a prefix of {b}");
                }
            }
        }
    }

    /// The table-driven decode agrees with the bit-by-bit walk — symbol or
    /// error, and bits consumed — on complete and incomplete tables, a
    /// one-code table and codes longer than the lookup width, over random
    /// input of every length up to 40 bytes (so codes cut off at the end).
    #[test]
    fn lookup_decode_matches_bitwise_walk() {
        let tables: [Vec<u32>; 5] = [
            vec![1, 2, 3, 3],
            vec![2, 2, 3],
            vec![1],
            (1..=14).chain([14]).collect(),
            vec![0, 4, 0, 5, 5, 3, 7, 12],
        ];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for lengths in &tables {
            let dec = HuffmanDecoder::from_lengths(lengths).unwrap();
            for len in 0..40 {
                let buf: Vec<u8> = (0..len)
                    .map(|_| {
                        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        (seed >> 56) as u8
                    })
                    .collect();
                let (mut fast, mut walk) = (BitReader::new(&buf), BitReader::new(&buf));
                loop {
                    let got = dec.decode(&mut fast);
                    assert_eq!(got, dec.decode_bitwise(&mut walk), "{lengths:?}, {len} bytes");
                    assert_eq!(fast.bit_pos(), walk.bit_pos(), "{lengths:?}, {len} bytes");
                    if got.is_err() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_table_rejected() {
        // Kraft violation: three codes of length 1.
        assert!(HuffmanDecoder::from_lengths(&[1, 1, 1]).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_random(
            freqs in proptest::collection::vec(0u64..1000, 2..64),
            seed in any::<u64>()
        ) {
            let nonzero: Vec<usize> =
                freqs.iter().enumerate().filter(|(_, &f)| f > 0).map(|(i, _)| i).collect();
            prop_assume!(!nonzero.is_empty());
            let mut x = seed;
            let stream: Vec<usize> = (0..500)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    nonzero[(x >> 33) as usize % nonzero.len()]
                })
                .collect();
            roundtrip(&freqs, &stream);
        }
    }
}
