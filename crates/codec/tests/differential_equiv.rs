//! Differential equivalence: the hot-path kernels (the two-level frequency
//! model, the carryless range coder, batched bit I/O) must be bit-for-bit
//! interchangeable with the straightforward implementations they replaced.
//!
//! The `reference` module below is a deliberately naive transliteration of
//! the pre-optimization coder: a Fenwick tree walked three separate times per
//! symbol (`cum`, `freq`, `find`), an allocate-and-rebuild `rescale`, a plain
//! division per `encode`/`decode` call, and a `ContextModel` that banks whole
//! `AdaptiveModel`s. Property tests drive both implementations with the same
//! random symbol streams and assert identical bytes out of the encoders and
//! identical symbols out of the decoders — including streams long enough to
//! cross the `MAX_TOTAL` rescale boundary several times, at every alphabet
//! the codec ships (4, 15, 255, 256) as well as small random ones.

use dbgc_codec::{AdaptiveModel, BitReader, BitWriter, ContextModel, RangeDecoder, RangeEncoder};
use dbgc_codec::{LanedDecoder, LanedEncoder};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Naive reference implementations (see module docs). Kept self-contained so
/// future kernel changes cannot silently "optimize" the oracle too.
mod reference {
    const INCREMENT: u64 = 32;
    const MAX_TOTAL: u64 = 1 << 16;
    const TOP: u64 = 1 << 56;
    const BOT: u64 = 1 << 48;

    pub struct RefEncoder {
        low: u64,
        range: u64,
        out: Vec<u8>,
    }

    impl RefEncoder {
        pub fn new() -> Self {
            RefEncoder { low: 0, range: u64::MAX, out: Vec::new() }
        }

        pub fn encode(&mut self, cum: u64, freq: u64, total: u64) {
            let r = self.range / total;
            self.low += r * cum;
            self.range = if cum + freq == total { self.range - r * cum } else { r * freq };
            loop {
                if (self.low ^ (self.low.wrapping_add(self.range))) < TOP {
                } else if self.range < BOT {
                    self.range = self.low.wrapping_neg() & (BOT - 1);
                } else {
                    break;
                }
                self.out.push((self.low >> 56) as u8);
                self.low <<= 8;
                self.range <<= 8;
            }
        }

        pub fn finish(mut self) -> Vec<u8> {
            for _ in 0..8 {
                self.out.push((self.low >> 56) as u8);
                self.low <<= 8;
            }
            self.out
        }
    }

    pub struct RefDecoder<'a> {
        low: u64,
        range: u64,
        code: u64,
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> RefDecoder<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            let mut d = RefDecoder { low: 0, range: u64::MAX, code: 0, buf, pos: 0 };
            for _ in 0..8 {
                d.code = (d.code << 8) | d.next_byte();
            }
            d
        }

        fn next_byte(&mut self) -> u64 {
            let b = self.buf.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            b as u64
        }

        pub fn decode_freq(&mut self, total: u64) -> u64 {
            let r = self.range / total;
            (self.code.wrapping_sub(self.low) / r).min(total - 1)
        }

        pub fn decode(&mut self, cum: u64, freq: u64, total: u64) {
            let r = self.range / total;
            self.low += r * cum;
            self.range = if cum + freq == total { self.range - r * cum } else { r * freq };
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
    }

    /// Order-0 adaptive model with one Fenwick traversal per query.
    pub struct RefModel {
        tree: Vec<u64>,
        n: usize,
        total: u64,
        /// Rescales so far (lets tests check a stream crosses the boundary).
        pub rescales: usize,
    }

    impl RefModel {
        pub fn new(alphabet: usize) -> Self {
            let mut m =
                RefModel { tree: vec![0; alphabet + 1], n: alphabet, total: 0, rescales: 0 };
            for s in 0..alphabet {
                m.add(s, 1);
            }
            m
        }

        fn add(&mut self, sym: usize, delta: u64) {
            let mut i = sym + 1;
            while i <= self.n {
                self.tree[i] += delta;
                i += i & i.wrapping_neg();
            }
            self.total += delta;
        }

        fn cum(&self, sym: usize) -> u64 {
            let mut i = sym;
            let mut s = 0;
            while i > 0 {
                s += self.tree[i];
                i -= i & i.wrapping_neg();
            }
            s
        }

        fn freq(&self, sym: usize) -> u64 {
            self.cum(sym + 1) - self.cum(sym)
        }

        fn find(&self, slot: u64) -> usize {
            let mut idx = 0usize;
            let mut rem = slot;
            let mut mask = self.n.next_power_of_two();
            while mask > 0 {
                let next = idx + mask;
                if next <= self.n && self.tree[next] <= rem {
                    rem -= self.tree[next];
                    idx = next;
                }
                mask >>= 1;
            }
            idx
        }

        fn update(&mut self, sym: usize) {
            self.add(sym, INCREMENT);
            if self.total >= MAX_TOTAL {
                self.rescales += 1;
                let freqs: Vec<u64> =
                    (0..self.n).map(|s| self.freq(s).div_ceil(2).max(1)).collect();
                self.tree.iter_mut().for_each(|v| *v = 0);
                self.total = 0;
                for (s, f) in freqs.into_iter().enumerate() {
                    self.add(s, f);
                }
            }
        }

        pub fn encode(&mut self, enc: &mut RefEncoder, sym: usize) {
            enc.encode(self.cum(sym), self.freq(sym), self.total);
            self.update(sym);
        }

        pub fn decode(&mut self, dec: &mut RefDecoder<'_>) -> usize {
            let slot = dec.decode_freq(self.total);
            let sym = self.find(slot);
            assert!(sym < self.n, "reference decode went out of range");
            dec.decode(self.cum(sym), self.freq(sym), self.total);
            self.update(sym);
            sym
        }
    }

    /// Bit-at-a-time writer: the pre-optimization `write_bits` loop.
    #[derive(Default)]
    pub struct NaiveBitWriter {
        buf: Vec<u8>,
        cur: u8,
        nbits: u32,
    }

    impl NaiveBitWriter {
        pub fn write_bit(&mut self, bit: bool) {
            self.cur = (self.cur << 1) | bit as u8;
            self.nbits += 1;
            if self.nbits == 8 {
                self.buf.push(self.cur);
                self.cur = 0;
                self.nbits = 0;
            }
        }

        pub fn write_bits(&mut self, value: u64, n: u32) {
            for i in (0..n).rev() {
                self.write_bit((value >> i) & 1 != 0);
            }
        }

        pub fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.buf.push(self.cur << (8 - self.nbits));
            }
            self.buf
        }
    }

    /// Bit-at-a-time reader: the pre-optimization `read_bits` loop.
    pub struct NaiveBitReader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> NaiveBitReader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            NaiveBitReader { buf, pos: 0 }
        }

        pub fn read_bit(&mut self) -> Option<bool> {
            let byte = self.pos / 8;
            if byte >= self.buf.len() {
                return None;
            }
            let bit = (self.buf[byte] >> (7 - (self.pos % 8))) & 1;
            self.pos += 1;
            Some(bit != 0)
        }

        pub fn read_bits(&mut self, n: u32) -> Option<u64> {
            let mut v = 0u64;
            for _ in 0..n {
                v = (v << 1) | self.read_bit()? as u64;
            }
            Some(v)
        }
    }

    /// Context family as a bank of whole models (the pre-arena layout).
    pub struct RefContextModel {
        models: Vec<Option<RefModel>>,
        alphabet: usize,
    }

    impl RefContextModel {
        pub fn new(contexts: usize, alphabet: usize) -> Self {
            let mut models = Vec::new();
            models.resize_with(contexts, || None);
            RefContextModel { models, alphabet }
        }

        fn model(&mut self, ctx: usize) -> &mut RefModel {
            self.models[ctx].get_or_insert_with(|| RefModel::new(self.alphabet))
        }

        pub fn encode(&mut self, enc: &mut RefEncoder, ctx: usize, sym: usize) {
            self.model(ctx).encode(enc, sym);
        }

        pub fn decode(&mut self, dec: &mut RefDecoder<'_>, ctx: usize) -> usize {
            self.model(ctx).decode(dec)
        }
    }
}

/// Symbol streams biased toward skew (realistic for residual coding) with
/// enough length available to cross rescale boundaries.
fn arb_symbols(alphabet: usize, max_len: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(
        (any::<u32>(), any::<bool>()).prop_map(move |(raw, skew)| {
            let span = if skew { alphabet.div_ceil(4) } else { alphabet };
            raw as usize % span.max(1)
        }),
        0..max_len,
    )
}

fn encode_both(alphabet: usize, syms: &[usize]) -> (Vec<u8>, Vec<u8>) {
    let mut opt_model = AdaptiveModel::new(alphabet);
    let mut opt_enc = RangeEncoder::new();
    let mut ref_model = reference::RefModel::new(alphabet);
    let mut ref_enc = reference::RefEncoder::new();
    for &s in syms {
        opt_model.encode(&mut opt_enc, s);
        ref_model.encode(&mut ref_enc, s);
    }
    (opt_enc.finish(), ref_enc.finish())
}

fn decode_both(alphabet: usize, bytes: &[u8], n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut opt_model = AdaptiveModel::new(alphabet);
    let mut opt_dec = RangeDecoder::new(bytes);
    let mut ref_model = reference::RefModel::new(alphabet);
    let mut ref_dec = reference::RefDecoder::new(bytes);
    let opt: Vec<usize> =
        (0..n).map(|_| opt_model.decode(&mut opt_dec).expect("valid stream")).collect();
    let re: Vec<usize> = (0..n).map(|_| ref_model.decode(&mut ref_dec)).collect();
    (opt, re)
}

/// The laned coder at `lanes` lanes against the plain [`RangeEncoder`] on
/// one symbol stream; see the `*_equivalent_to_narrow` properties.
fn laned_matches_narrow(
    alphabet: usize,
    syms: Vec<usize>,
    lanes: usize,
) -> Result<(), TestCaseError> {
    let syms: Vec<usize> = syms.into_iter().map(|s| s % alphabet).collect();

    let mut model = AdaptiveModel::new(alphabet);
    let mut enc = RangeEncoder::new();
    for &s in &syms {
        model.encode(&mut enc, s);
    }
    let narrow = enc.finish();

    let mut model = AdaptiveModel::new(alphabet);
    let mut enc = LanedEncoder::new(lanes);
    for &s in &syms {
        model.encode(&mut enc, s);
    }
    let laned = enc.finish();

    if lanes == 1 {
        prop_assert_eq!(&laned, &narrow, "one lane must be the plain range coder");
    }
    // Per extra lane: one 8-byte flush tail and one uvarint lane length
    // (≤2 bytes at these sizes). The model sees the identical update
    // sequence, so the coded payload itself matches the narrow coder's to
    // within per-lane renormalization slack.
    prop_assert!(
        laned.len() <= narrow.len() + 16 * (lanes - 1),
        "{} lanes: overhead unbounded: {} vs {}",
        lanes,
        laned.len(),
        narrow.len(),
    );

    let mut model = AdaptiveModel::new(alphabet);
    let mut dec = RangeDecoder::new(&narrow);
    let narrow_syms: Vec<usize> =
        (0..syms.len()).map(|_| model.decode(&mut dec).expect("valid stream")).collect();

    let mut model = AdaptiveModel::new(alphabet);
    let mut dec = LanedDecoder::new(&laned, lanes).expect("valid frame");
    let laned_syms: Vec<usize> =
        (0..syms.len()).map(|_| model.decode(&mut dec).expect("valid stream")).collect();

    prop_assert_eq!(&narrow_syms, &syms, "narrow decode mismatch");
    prop_assert_eq!(&laned_syms, &syms, "laned decode diverges from narrow");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adaptive model + range coder: same bytes, same symbols.
    #[test]
    fn adaptive_model_is_byte_equivalent(
        alphabet in 1usize..48,
        syms in arb_symbols(48, 800),
    ) {
        let syms: Vec<usize> = syms.into_iter().map(|s| s % alphabet).collect();
        let (opt_bytes, ref_bytes) = encode_both(alphabet, &syms);
        prop_assert_eq!(&opt_bytes, &ref_bytes, "encoder bytes diverge");
        let (opt_syms, ref_syms) = decode_both(alphabet, &opt_bytes, syms.len());
        prop_assert_eq!(&opt_syms, &syms, "optimized decode mismatch");
        prop_assert_eq!(&ref_syms, &syms, "reference decode mismatch");
    }

    /// Long, narrow-alphabet streams cross the `MAX_TOTAL` rescale several
    /// times (total grows by 32 per symbol, rescaling near 2048 symbols);
    /// equivalence must hold through every in-place ceil-halve.
    #[test]
    fn rescale_boundaries_preserve_equivalence(
        alphabet in 1usize..9,
        syms in arb_symbols(8, 5000),
        pad in 4200usize..5000,
    ) {
        // Guarantee length past two rescales regardless of the drawn vector.
        let mut syms: Vec<usize> = syms.into_iter().map(|s| s % alphabet).collect();
        let n = syms.len();
        syms.extend((0..pad.saturating_sub(n)).map(|i| i % alphabet));
        let (opt_bytes, ref_bytes) = encode_both(alphabet, &syms);
        prop_assert_eq!(&opt_bytes, &ref_bytes, "bytes diverge across rescale");
        let (opt_syms, ref_syms) = decode_both(alphabet, &opt_bytes, syms.len());
        prop_assert_eq!(&opt_syms, &syms);
        prop_assert_eq!(&ref_syms, &syms);
    }

    /// Arena-backed `ContextModel` vs a bank of whole models, interleaving
    /// contexts within one stream.
    #[test]
    fn context_model_is_byte_equivalent(
        contexts in 1usize..6,
        alphabet in 1usize..17,
        stream in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..1200),
    ) {
        let stream: Vec<(usize, usize)> = stream
            .into_iter()
            .map(|(c, s)| (c as usize % contexts, s as usize % alphabet))
            .collect();
        let mut opt_model = ContextModel::new(contexts, alphabet);
        let mut opt_enc = RangeEncoder::new();
        let mut ref_model = reference::RefContextModel::new(contexts, alphabet);
        let mut ref_enc = reference::RefEncoder::new();
        for &(c, s) in &stream {
            opt_model.encode(&mut opt_enc, c, s);
            ref_model.encode(&mut ref_enc, c, s);
        }
        let opt_bytes = opt_enc.finish();
        prop_assert_eq!(&opt_bytes, &ref_enc.finish(), "context encoder bytes diverge");

        let mut opt_model = ContextModel::new(contexts, alphabet);
        let mut opt_dec = RangeDecoder::new(&opt_bytes);
        let mut ref_model = reference::RefContextModel::new(contexts, alphabet);
        let mut ref_dec = reference::RefDecoder::new(&opt_bytes);
        for &(c, s) in &stream {
            prop_assert_eq!(opt_model.decode(&mut opt_dec, c).expect("valid stream"), s);
            prop_assert_eq!(ref_model.decode(&mut ref_dec, c), s);
        }
    }

    /// Multi-bit `BitWriter`/`BitReader` fast paths vs the bit-at-a-time
    /// loops they replaced: identical bytes out, identical values back, for
    /// arbitrary interleavings of single-bit and 0–64-bit fields (including
    /// the `nbits + n > 63` split path and reads straddling byte seams).
    #[test]
    fn bitio_is_byte_equivalent(
        ops in proptest::collection::vec((any::<u64>(), 0u32..=64, any::<bool>()), 0..300),
    ) {
        let mut fast = BitWriter::new();
        let mut naive = reference::NaiveBitWriter::default();
        for &(value, width, single) in &ops {
            if single {
                fast.write_bit(value & 1 != 0);
                naive.write_bit(value & 1 != 0);
            } else {
                fast.write_bits(value, width);
                naive.write_bits(value, width);
            }
        }
        let fast_bytes = fast.finish();
        prop_assert_eq!(&fast_bytes, &naive.finish(), "writer bytes diverge");

        let mut fast_r = BitReader::new(&fast_bytes);
        let mut naive_r = reference::NaiveBitReader::new(&fast_bytes);
        for &(value, width, single) in &ops {
            if single {
                prop_assert_eq!(fast_r.read_bit().unwrap() as u64, value & 1);
                let _ = naive_r.read_bit();
            } else {
                let got = fast_r.read_bits(width).unwrap();
                prop_assert_eq!(Some(got), naive_r.read_bits(width), "reader values diverge");
                let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
                prop_assert_eq!(got, value & mask, "read_bits lost payload bits");
            }
        }
    }

    /// Lanes are a transport change only: driven by the same adaptive
    /// model, the laned coder decodes to exactly the symbols the plain range
    /// coder decodes, one lane is that coder byte for byte, and more lanes
    /// cost no more than their extra flush tails plus the lane header.
    #[test]
    fn one_lane_is_byte_identical_to_range_encoder(
        alphabet in 1usize..48,
        syms in arb_symbols(48, 2000),
    ) {
        laned_matches_narrow(alphabet, syms, 1)?;
    }

    #[test]
    fn dual_profile_is_symbol_equivalent_to_narrow(
        alphabet in 1usize..48,
        syms in arb_symbols(48, 2000),
    ) {
        laned_matches_narrow(alphabet, syms, 2)?;
    }

    #[test]
    fn wide_profile_is_symbol_equivalent_to_narrow(
        alphabet in 1usize..48,
        syms in arb_symbols(48, 2000),
    ) {
        laned_matches_narrow(alphabet, syms, 4)?;
    }

    /// Batch bit I/O vs the bit-at-a-time loops: `write_bits_batch` must
    /// produce the bytes the naive per-value loop produces, and
    /// `read_bits_batch` must return the same values the naive reader does.
    #[test]
    fn bitio_batch_is_byte_equivalent(
        vals in proptest::collection::vec(any::<u64>(), 0..300),
        width in 0u32..=64,
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width).wrapping_sub(1) };
        let vals: Vec<u64> = vals.into_iter().map(|v| v & mask).collect();

        let mut fast = BitWriter::new();
        fast.write_bits_batch(&vals, width);
        let fast_bytes = fast.finish();

        let mut naive = reference::NaiveBitWriter::default();
        for &v in &vals {
            naive.write_bits(v, width);
        }
        prop_assert_eq!(&fast_bytes, &naive.finish(), "batch writer bytes diverge");

        let mut out = vec![0u64; vals.len()];
        BitReader::new(&fast_bytes).read_bits_batch(width, &mut out).unwrap();
        prop_assert_eq!(&out, &vals, "batch reader values diverge");

        let mut naive_r = reference::NaiveBitReader::new(&fast_bytes);
        for &v in &vals {
            prop_assert_eq!(naive_r.read_bits(width), Some(v));
        }
    }

    /// A reader driven past end-of-buffer fails identically on both paths:
    /// `UnexpectedEof` from the fast reader exactly when the naive loop runs
    /// out of bits, with the cursor parked at end-of-buffer afterwards.
    #[test]
    fn bitio_eof_behavior_matches(
        payload in proptest::collection::vec(any::<u8>(), 0..20),
        widths in proptest::collection::vec(1u32..=64, 1..40),
    ) {
        let mut fast_r = BitReader::new(&payload);
        let mut naive_r = reference::NaiveBitReader::new(&payload);
        for &w in &widths {
            let fast = fast_r.read_bits(w);
            let naive = naive_r.read_bits(w);
            match (fast, naive) {
                (Ok(a), Some(b)) => prop_assert_eq!(a, b),
                (Err(_), None) => {
                    prop_assert_eq!(fast_r.remaining_bits(), 0, "cursor not at EOF after error");
                    break;
                }
                (f, n) => prop_assert!(false, "EOF divergence: fast {f:?} vs naive {n:?}"),
            }
        }
    }
}

/// The alphabets the codec ships: `L_ref` (4), quadtree codes (15), octree
/// occupancy codes (255) and varint bytes (256).
const SHIPPED_ALPHABETS: [usize; 4] = [4, 15, 255, 256];

/// Varint-shaped values: mostly small residuals, some mid-sized, some huge,
/// so lead bytes spread over the whole byte range and continuation bytes
/// are plentiful.
fn varint_values(raw: &[(u32, u8)]) -> Vec<i64> {
    raw.iter()
        .map(|&(r, class)| match class {
            0 | 1 => (r % 64) as i64 - 32,
            2 => (r % 20_000) as i64 - 10_000,
            _ => (r as i64 - (1 << 31)) * 1000,
        })
        .collect()
}

/// Octree-occupancy-shaped `(parent code, code − 1)` pairs: a code's parent
/// is the previous code, and single-child codes dominate.
fn occupancy_stream(raw: &[(u8, u8)]) -> Vec<(usize, usize)> {
    let mut parent = 255usize;
    raw.iter()
        .map(|&(r, kind)| {
            let code = if kind < 3 { 1usize << (r % 8) } else { r.max(1) as usize };
            let pair = (parent, code - 1);
            parent = code;
            pair
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every shipped alphabet, through the range coder: same bytes, same
    /// symbols, across at least one rescale.
    #[test]
    fn shipped_alphabets_are_byte_equivalent(
        pick in 0usize..4,
        syms in arb_symbols(256, 6000),
        pad in 2100usize..2400,
    ) {
        let alphabet = SHIPPED_ALPHABETS[pick];
        let mut syms: Vec<usize> = syms.into_iter().map(|s| s % alphabet).collect();
        syms.extend((0..pad).map(|i| (i * 7) % alphabet));
        let (opt_bytes, ref_bytes) = encode_both(alphabet, &syms);
        prop_assert_eq!(&opt_bytes, &ref_bytes, "alphabet {} bytes diverge", alphabet);
        let (opt_syms, ref_syms) = decode_both(alphabet, &opt_bytes, syms.len());
        prop_assert_eq!(&opt_syms, &syms);
        prop_assert_eq!(&ref_syms, &syms);
    }

    /// The varint-byte streams `intseq` codes: lead and continuation bytes
    /// through two 256-symbol models sharing one coder, each model long
    /// enough to rescale at least three times.
    #[test]
    fn varint_byte_streams_are_byte_equivalent(
        raw in proptest::collection::vec((any::<u32>(), 0u8..4), 9000..10_000),
    ) {
        let mut bytes = Vec::new();
        for v in varint_values(&raw) {
            dbgc_codec::varint::write_ivarint(&mut bytes, v);
        }
        // (is continuation, byte) in stream order.
        let mut stream = Vec::with_capacity(bytes.len());
        let mut at_lead = true;
        for &b in &bytes {
            stream.push((!at_lead, b as usize));
            at_lead = b & 0x80 == 0;
        }
        let (mut lead, mut cont) = (AdaptiveModel::new(256), AdaptiveModel::new(256));
        let mut enc = RangeEncoder::new();
        let mut refs = [reference::RefModel::new(256), reference::RefModel::new(256)];
        let mut ref_enc = reference::RefEncoder::new();
        for &(is_cont, b) in &stream {
            if is_cont { cont.encode(&mut enc, b) } else { lead.encode(&mut enc, b) }
            refs[is_cont as usize].encode(&mut ref_enc, b);
        }
        prop_assert!(refs.iter().all(|m| m.rescales >= 3), "rescales {:?}", refs.map(|m| m.rescales));
        let opt_bytes = enc.finish();
        prop_assert_eq!(&opt_bytes, &ref_enc.finish(), "varint stream bytes diverge");

        let (mut lead, mut cont) = (AdaptiveModel::new(256), AdaptiveModel::new(256));
        let mut dec = RangeDecoder::new(&opt_bytes);
        let mut refs = [reference::RefModel::new(256), reference::RefModel::new(256)];
        let mut ref_dec = reference::RefDecoder::new(&opt_bytes);
        for &(is_cont, b) in &stream {
            let got = if is_cont { cont.decode(&mut dec) } else { lead.decode(&mut dec) };
            prop_assert_eq!(got.expect("valid stream"), b);
            prop_assert_eq!(refs[is_cont as usize].decode(&mut ref_dec), b);
        }
    }

    /// Occupancy codes under their parent's context, as the Octree_i coder
    /// sends them: `ContextModel::new(256, 255)` against a bank of
    /// reference models, and the context-free 255-symbol model.
    #[test]
    fn occupancy_streams_are_byte_equivalent(
        raw in proptest::collection::vec((any::<u8>(), 0u8..4), 6000..8000),
    ) {
        let stream = occupancy_stream(&raw);
        let mut opt_model = ContextModel::new(256, 255);
        let mut opt_enc = RangeEncoder::new();
        let mut ref_model = reference::RefContextModel::new(256, 255);
        let mut ref_enc = reference::RefEncoder::new();
        for &(c, s) in &stream {
            opt_model.encode(&mut opt_enc, c, s);
            ref_model.encode(&mut ref_enc, c, s);
        }
        let opt_bytes = opt_enc.finish();
        prop_assert_eq!(&opt_bytes, &ref_enc.finish(), "occupancy bytes diverge");
        let mut opt_model = ContextModel::new(256, 255);
        let mut opt_dec = RangeDecoder::new(&opt_bytes);
        let mut ref_model = reference::RefContextModel::new(256, 255);
        let mut ref_dec = reference::RefDecoder::new(&opt_bytes);
        for &(c, s) in &stream {
            prop_assert_eq!(opt_model.decode(&mut opt_dec, c).expect("valid stream"), s);
            prop_assert_eq!(ref_model.decode(&mut ref_dec, c), s);
        }

        let syms: Vec<usize> = stream.iter().map(|&(_, s)| s).collect();
        let (opt_bytes, ref_bytes) = encode_both(255, &syms);
        prop_assert_eq!(&opt_bytes, &ref_bytes, "context-free occupancy bytes diverge");
        let (opt_syms, _) = decode_both(255, &opt_bytes, syms.len());
        prop_assert_eq!(&opt_syms, &syms);
    }
}
