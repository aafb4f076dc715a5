//! Adaptive frequency models driving the range coder.
//!
//! [`AdaptiveModel`] is an order-0 model over a fixed alphabet.
//! [`ContextModel`] keys a family of independent models by an integer
//! context — this is how the Octree_i variant groups nodes "by the occupancy
//! code of their parent" and how the G-PCC-like coder conditions on
//! neighbour occupancy.
//!
//! Both sit on the per-symbol hot path of every range-coded stream and share
//! one flat two-level kernel: a count per symbol plus one sum per 16-symbol
//! block. A query scans the block sums from the low end, then the counts of
//! one block, so the skewed streams DBGC codes (varint bytes whose small
//! values dominate, occupancy codes that crowd the first few blocks)
//! usually stop within a few steps, and an update touches two slots. The
//! decoder's search compares products `cum · r` with the range decoder's
//! offset instead of dividing for the slot, so a symbol costs one divide,
//! and it returns `cum` alongside the symbol; rescale halves the counts in
//! place and re-sums the blocks. Every symbol gets exactly the `(cum, freq,
//! total)` the naive formulation gives it, so the coded bytes cannot depend
//! on the table layout (see `DESIGN.md` §10).

use crate::error::CodecError;
use crate::range::{RangeSink, RangeSource};

/// Frequency increment per observed symbol.
const INCREMENT: u64 = 32;
/// Rescale threshold; keeps totals far below `range::MAX_TOTAL` while letting
/// the model adapt to local statistics.
const MAX_TOTAL: u64 = 1 << 16;
/// Symbols per block of the two-level table.
const BLOCK: usize = 16;

// ---- two-level kernel ----------------------------------------------------
//
// Free functions over one flat table slice so the owned [`AdaptiveModel`]
// and the arena-backed [`ContextModel`] share one implementation. A table
// for `alphabet` symbols holds `blocks * BLOCK` counts (the alphabet padded
// to whole blocks; padding slots stay 0 forever) followed by `blocks` block
// sums, `blocks = alphabet.div_ceil(BLOCK)`.
//
// Slots are `u32`: every count and sum is at most the model total, which
// `MAX_TOTAL` keeps below `2^16 + INCREMENT`, so `u32` is exact and a
// 256-symbol table is 1 KiB of counts plus 64 B of sums.

/// Table slots for `alphabet` symbols: padded counts, then block sums.
#[inline]
fn table_len(alphabet: usize) -> usize {
    alphabet.div_ceil(BLOCK) * (BLOCK + 1)
}

/// Split a table into its counts and its block sums.
#[inline]
fn split(table: &[u32]) -> (&[u32], &[u32]) {
    table.split_at(table.len() / (BLOCK + 1) * BLOCK)
}

#[inline]
fn split_mut(table: &mut [u32]) -> (&mut [u32], &mut [u32]) {
    table.split_at_mut(table.len() / (BLOCK + 1) * BLOCK)
}

/// Reset `table` to the all-ones state over `alphabet` symbols in place.
fn init_uniform(table: &mut [u32], alphabet: usize) {
    let (counts, sums) = split_mut(table);
    for (s, count) in counts.iter_mut().enumerate() {
        *count = u32::from(s < alphabet);
    }
    for (b, sum) in sums.iter_mut().enumerate() {
        *sum = alphabet.saturating_sub(b * BLOCK).min(BLOCK) as u32;
    }
}

/// Add `delta` to `sym`'s count and to its block's sum.
#[inline]
fn add(table: &mut [u32], sym: usize, delta: u32) {
    let (counts, sums) = split_mut(table);
    counts[sym] += delta;
    sums[sym / BLOCK] += delta;
}

/// `(cum, freq)` of `sym`: the sums of the blocks below it plus the counts
/// below it in its own block, and its own count.
#[inline]
fn cum_freq(table: &[u32], sym: usize) -> (u64, u64) {
    let (counts, sums) = split(table);
    let block = sym / BLOCK;
    let below: u32 =
        sums[..block].iter().sum::<u32>() + counts[block * BLOCK..sym].iter().sum::<u32>();
    (below as u64, counts[sym] as u64)
}

/// The first index whose running sum `s` has `s · r > off` (the sum passes
/// the slot `off / r`), with the sum of the values before it;
/// `(vals.len(), vals.sum())` when none does.
#[inline(always)]
fn scan(vals: &[u32], off: u64, r: u64) -> (usize, u32) {
    let mut base = 0u32;
    for (i, &v) in vals.iter().enumerate() {
        let next = base + v;
        if u64::from(next) * r > off {
            return (i, base);
        }
        base = next;
    }
    (vals.len(), base)
}

/// The symbol whose interval `[cum, cum + freq)` holds the slot `off / r`,
/// returned with that `cum`. Products stand in for the slot, so the decoder
/// never divides by `r`: `cum · r <= off` exactly when `cum <= off / r`.
/// The block sums are scanned from the low end to the block that crosses
/// the slot, then that block's counts, also from the low end.
///
/// With every count `>= 1` and the slot below the total the result is
/// always a valid symbol (padding counts are 0, so the scan never stops on
/// one). A slot at or past the total runs off the last block and returns
/// the padded alphabet size, which the caller must surface as out of
/// range, never clamp. Every product is at most `total · r`, which the
/// range decoder keeps within its interval, so none overflows.
#[inline(always)]
fn find(table: &[u32], off: u64, r: u64) -> (usize, u64) {
    let (counts, sums) = split(table);
    let (block, base) = scan(sums, off, r);
    if block == sums.len() {
        return (counts.len(), base as u64);
    }
    // The slot relative to the block is `(off - base · r) / r`.
    let (j, cum) = scan(&counts[block * BLOCK..][..BLOCK], off - u64::from(base) * r, r);
    (block * BLOCK + j, (base + cum) as u64)
}

/// Ceil-halve every count in place (keeping them `>= 1`), re-sum the blocks,
/// and return the new total.
fn rescale(table: &mut [u32]) -> u64 {
    let (counts, sums) = split_mut(table);
    // Batch ceil-halve (`(x >> 1) + (x & 1)` per 32-bit lane) through the
    // vectorized kernel. Every live count is >= 1 on entry so it stays
    // >= 1 (a count can only reach 0 from 0, which the all-ones init and
    // additive updates rule out); padding stays 0.
    let total = crate::simd::halve_freqs(counts);
    for (sum, block) in sums.iter_mut().zip(counts.chunks_exact(BLOCK)) {
        *sum = block.iter().sum();
    }
    total
}

/// Encode one symbol against `(table, total)` and adapt; returns the new
/// total.
#[inline]
fn encode_step<S: RangeSink>(table: &mut [u32], total: u64, enc: &mut S, sym: usize) -> u64 {
    let (cum, freq) = cum_freq(table, sym);
    enc.put(cum, freq, total);
    add(table, sym, INCREMENT as u32);
    let total = total + INCREMENT;
    if total >= MAX_TOTAL {
        rescale(table)
    } else {
        total
    }
}

/// Decode one symbol of an `alphabet`-symbol model against `(table, total)`
/// and adapt; returns `(sym, new_total)`.
#[inline(always)]
fn decode_step<S: RangeSource>(
    table: &mut [u32],
    alphabet: usize,
    total: u64,
    dec: &mut S,
) -> Result<(usize, u64), CodecError> {
    let (off, r) = dec.peek_target(total)?;
    let (sym, cum) = find(table, off, r);
    if sym >= alphabet {
        // The search ran off the end of the alphabet: an out-of-range slot
        // that must surface, not decode the last symbol.
        return Err(CodecError::SymbolOutOfRange { symbol: sym, alphabet });
    }
    let freq = split(table).0[sym] as u64;
    dec.consume(cum, freq, total, r);
    add(table, sym, INCREMENT as u32);
    let total = total + INCREMENT;
    let total = if total >= MAX_TOTAL { rescale(table) } else { total };
    Ok((sym, total))
}

/// An adaptive order-0 symbol model.
#[derive(Debug, Clone)]
pub struct AdaptiveModel {
    /// Two-level frequency table (see the kernel notes above).
    table: Vec<u32>,
    n: usize,
    total: u64,
}

impl AdaptiveModel {
    /// Model over `alphabet` symbols, all starting with frequency 1.
    pub fn new(alphabet: usize) -> Self {
        assert!(alphabet > 0, "alphabet must be non-empty");
        let mut table = vec![0; table_len(alphabet)];
        init_uniform(&mut table, alphabet);
        AdaptiveModel { table, n: alphabet, total: alphabet as u64 }
    }

    /// Alphabet size this model was built for.
    pub fn alphabet(&self) -> usize {
        self.n
    }

    /// Reset to the fresh all-ones state without reallocating, so hot loops
    /// can recycle one model across independent streams.
    pub fn reset(&mut self) {
        init_uniform(&mut self.table, self.n);
        self.total = self.n as u64;
    }

    #[cfg(test)]
    fn add(&mut self, sym: usize, delta: u32) {
        add(&mut self.table, sym, delta);
        self.total += delta as u64;
    }

    /// Cumulative frequency of symbols `< sym`, summed count by count.
    #[cfg(test)]
    fn cum(&self, sym: usize) -> u64 {
        split(&self.table).0[..sym].iter().map(|&f| f as u64).sum()
    }

    #[cfg(test)]
    fn freq(&self, sym: usize) -> u64 {
        split(&self.table).0[sym] as u64
    }

    /// Encode `sym` and adapt. Generic over the sink so the same model
    /// drives the plain range coder and the laned one.
    pub fn encode<S: RangeSink>(&mut self, enc: &mut S, sym: usize) {
        assert!(sym < self.n, "symbol {sym} outside alphabet of {}", self.n);
        self.total = encode_step(&mut self.table, self.total, enc, sym);
    }

    /// Decode one symbol and adapt (mirror of [`AdaptiveModel::encode`]).
    #[inline(always)]
    pub fn decode<S: RangeSource>(&mut self, dec: &mut S) -> Result<usize, CodecError> {
        let (sym, total) = decode_step(&mut self.table, self.n, self.total, dec)?;
        self.total = total;
        Ok(sym)
    }
}

/// A family of independent adaptive models selected by an integer context.
///
/// Backed by one flat arena of pre-sized two-level tables (`contexts ×
/// table_len(alphabet)` slots) instead of per-context heap boxes: selecting
/// a context is pointer arithmetic, tables of neighbouring contexts share
/// cache lines, and the whole family is freed in one deallocation. A
/// context's table is initialized on first use (`totals[ctx] == 0` marks
/// untouched), so sparse context spaces (e.g. 256 parent occupancy codes of
/// which a scene uses a few dozen) pay only one zeroed allocation up front.
#[derive(Debug, Clone)]
pub struct ContextModel {
    /// Flat arena: context `c` owns `arena[c * stride .. (c + 1) * stride]`.
    arena: Vec<u32>,
    /// Per-context totals; 0 marks a context whose table is untouched.
    totals: Vec<u64>,
    alphabet: usize,
    stride: usize,
}

impl ContextModel {
    /// A family of `contexts` lazily-initialized models over `alphabet`
    /// symbols.
    pub fn new(contexts: usize, alphabet: usize) -> Self {
        assert!(alphabet > 0, "alphabet must be non-empty");
        let stride = table_len(alphabet);
        ContextModel {
            arena: vec![0; contexts * stride],
            totals: vec![0; contexts],
            alphabet,
            stride,
        }
    }

    /// Number of context slots.
    pub fn contexts(&self) -> usize {
        self.totals.len()
    }

    /// The context's table and total, initializing the table on first use.
    #[inline]
    fn slot(&mut self, ctx: usize) -> (&mut [u32], &mut u64) {
        let table = &mut self.arena[ctx * self.stride..][..self.stride];
        let total = &mut self.totals[ctx];
        if *total == 0 {
            init_uniform(table, self.alphabet);
            *total = self.alphabet as u64;
        }
        (table, total)
    }

    /// Encode `sym` under context `ctx` and adapt that context's model.
    pub fn encode<S: RangeSink>(&mut self, enc: &mut S, ctx: usize, sym: usize) {
        assert!(sym < self.alphabet, "symbol {sym} outside alphabet of {}", self.alphabet);
        let (table, total) = self.slot(ctx);
        *total = encode_step(table, *total, enc, sym);
    }

    /// Decode one symbol under context `ctx` (mirror of `encode`).
    pub fn decode<S: RangeSource>(&mut self, dec: &mut S, ctx: usize) -> Result<usize, CodecError> {
        let alphabet = self.alphabet;
        let (table, total) = self.slot(ctx);
        let (sym, new_total) = decode_step(table, alphabet, *total, dec)?;
        *total = new_total;
        Ok(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::{RangeDecoder, RangeEncoder};

    /// Counts every symbol holds in a table (test view).
    fn counts(m: &AdaptiveModel) -> Vec<u64> {
        (0..m.n).map(|s| m.freq(s)).collect()
    }

    /// The name predates the two-level table: the kernel's fused
    /// `(cum, freq)` query and its search must agree with plain prefix sums,
    /// across block boundaries and in the padded last block.
    #[test]
    fn fenwick_cum_and_find_agree() {
        for alphabet in [1usize, 4, 10, 15, 16, 17, 33, 255, 256] {
            let mut m = AdaptiveModel::new(alphabet);
            // Push asymmetric counts.
            for i in 0..100 {
                m.add(3 % alphabet, 5);
                m.add((7 * i) % alphabet, 2);
            }
            for s in 0..alphabet {
                let c = m.cum(s);
                let f = m.freq(s);
                assert_eq!(cum_freq(&m.table, s), (c, f), "fused query disagrees at {s}");
                assert_eq!(find(&m.table, c, 1), (s, c), "alphabet {alphabet}");
                assert_eq!(find(&m.table, c + f - 1, 1), (s, c), "alphabet {alphabet}");
            }
            assert_eq!(m.total, counts(&m).iter().sum::<u64>());
        }
    }

    /// The decoder's product search (`cum · r <= off`) finds the symbol
    /// whose interval holds the slot `off / r`, for unit widths up to those
    /// the range decoder produces and at both ends of the interval.
    #[test]
    fn product_search_matches_slot_search() {
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            seed >> 33
        };
        for alphabet in [1usize, 4, 15, 16, 17, 255, 256] {
            let mut m = AdaptiveModel::new(alphabet);
            for _ in 0..500 {
                m.add(next() as usize % alphabet, (next() % 40) as u32);
            }
            for r in [1u64, 3, 1 << 16, (1 << 47) + 12_345] {
                let top = m.total * r;
                for off in (0..200).map(|_| next() % top).chain([0, top - 1]) {
                    assert_eq!(
                        find(&m.table, off, r),
                        find(&m.table, off / r, 1),
                        "alphabet {alphabet}, r {r}, off {off}"
                    );
                }
            }
        }
    }

    /// A range source that hands the model one fixed slot.
    struct FixedSlot(u64);

    impl RangeSource for FixedSlot {
        fn peek_target(&mut self, _total: u64) -> Result<(u64, u64), CodecError> {
            Ok((self.0, 1))
        }

        fn consume(&mut self, _cum: u64, _freq: u64, _total: u64, _r: u64) {
            panic!("an out-of-range slot must not be consumed");
        }
    }

    #[test]
    fn find_past_total_is_out_of_range_not_clamped() {
        // A slot at or past the total runs off the last block; decode
        // surfaces this as SymbolOutOfRange instead of clamping it to the
        // last symbol, in a padded block and in a full one alike.
        for alphabet in [4usize, 16, 255, 256] {
            let mut m = AdaptiveModel::new(alphabet);
            for slot in [m.total, m.total + 100] {
                let err = m.decode(&mut FixedSlot(slot)).unwrap_err();
                assert!(
                    matches!(err, CodecError::SymbolOutOfRange { symbol, alphabet: a }
                        if symbol >= alphabet && a == alphabet),
                    "alphabet {alphabet} slot {slot}: {err:?}"
                );
            }
            let mut cm = ContextModel::new(2, alphabet);
            assert!(matches!(
                cm.decode(&mut FixedSlot(alphabet as u64), 1),
                Err(CodecError::SymbolOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn rescale_in_place_matches_reference() {
        // Drive models across many rescales and check the invariants the old
        // allocation-based rescale guaranteed: freq' = ceil(freq/2) clamped
        // to >= 1, and total = sum of frequencies; and that every block sum
        // stays the sum of its block's counts.
        for alphabet in [9usize, 40] {
            let mut m = AdaptiveModel::new(alphabet);
            for i in 0..10_000usize {
                let sym = (i * 7) % alphabet;
                let before = counts(&m);
                let will_rescale = m.total + INCREMENT >= MAX_TOTAL;
                let mut enc = RangeEncoder::new();
                m.encode(&mut enc, sym);
                if will_rescale {
                    for (s, &f) in before.iter().enumerate() {
                        let f = if s == sym { f + INCREMENT } else { f };
                        assert_eq!(m.freq(s), f.div_ceil(2).max(1), "sym {s} after rescale");
                    }
                }
                assert_eq!(m.total, counts(&m).iter().sum::<u64>());
                let (all, sums) = split(&m.table);
                for (b, block) in all.chunks_exact(BLOCK).enumerate() {
                    assert_eq!(sums[b], block.iter().sum::<u32>(), "block {b} after symbol {i}");
                }
            }
        }
    }

    #[test]
    fn model_roundtrip_small_alphabet() {
        let syms: Vec<usize> = (0..5000).map(|i| [0, 0, 1, 0, 2, 0, 0, 3][i % 8]).collect();
        let mut enc_model = AdaptiveModel::new(4);
        let mut enc = RangeEncoder::new();
        for &s in &syms {
            enc_model.encode(&mut enc, s);
        }
        let buf = enc.finish();
        let mut dec_model = AdaptiveModel::new(4);
        let mut dec = RangeDecoder::new(&buf);
        for &s in &syms {
            assert_eq!(dec_model.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn model_roundtrip_full_byte_alphabet_with_rescales() {
        let syms: Vec<usize> =
            (0..60_000u32).map(|i| ((i.wrapping_mul(0x9E3779B9)) >> 25) as usize % 256).collect();
        let mut em = AdaptiveModel::new(256);
        let mut enc = RangeEncoder::new();
        for &s in &syms {
            em.encode(&mut enc, s);
        }
        let buf = enc.finish();
        let mut dm = AdaptiveModel::new(256);
        let mut dec = RangeDecoder::new(&buf);
        for &s in &syms {
            assert_eq!(dm.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn reset_matches_fresh_model() {
        let syms: Vec<usize> = (0..5000).map(|i| i % 7).collect();
        let mut reused = AdaptiveModel::new(7);
        // Dirty the model (including across a rescale), then reset.
        let mut warmup = RangeEncoder::new();
        for &s in &syms {
            reused.encode(&mut warmup, s);
        }
        reused.reset();
        let mut enc_fresh = RangeEncoder::new();
        let mut enc_reused = RangeEncoder::new();
        let mut fresh = AdaptiveModel::new(7);
        for &s in &syms {
            fresh.encode(&mut enc_fresh, s);
            reused.encode(&mut enc_reused, s);
        }
        assert_eq!(enc_fresh.finish(), enc_reused.finish(), "reset model must be byte-identical");
    }

    #[test]
    fn skewed_distribution_compresses() {
        let syms: Vec<usize> = (0..20_000).map(|i| usize::from(i % 64 == 0)).collect();
        let mut m = AdaptiveModel::new(2);
        let mut enc = RangeEncoder::new();
        for &s in &syms {
            m.encode(&mut enc, s);
        }
        let buf = enc.finish();
        // H ≈ 0.116 bits/symbol → ~290 bytes; allow generous slack.
        assert!(buf.len() < 800, "got {} bytes", buf.len());
    }

    #[test]
    fn alphabet_of_one() {
        let mut m = AdaptiveModel::new(1);
        let mut enc = RangeEncoder::new();
        for _ in 0..100 {
            m.encode(&mut enc, 0);
        }
        let buf = enc.finish();
        let mut dm = AdaptiveModel::new(1);
        let mut dec = RangeDecoder::new(&buf);
        for _ in 0..100 {
            assert_eq!(dm.decode(&mut dec).unwrap(), 0);
        }
    }

    #[test]
    fn context_model_keeps_streams_separate() {
        // Context 0 always sees symbol 1; context 1 always sees symbol 2.
        let mut cm = ContextModel::new(2, 3);
        let mut enc = RangeEncoder::new();
        let stream: Vec<(usize, usize)> =
            (0..2000).map(|i| if i % 2 == 0 { (0, 1) } else { (1, 2) }).collect();
        for &(ctx, sym) in &stream {
            cm.encode(&mut enc, ctx, sym);
        }
        let buf = enc.finish();
        let mut dm = ContextModel::new(2, 3);
        let mut dec = RangeDecoder::new(&buf);
        for &(ctx, sym) in &stream {
            assert_eq!(dm.decode(&mut dec, ctx).unwrap(), sym);
        }
        // Perfectly predictable per context → tiny output.
        assert!(buf.len() < 120, "got {} bytes", buf.len());
    }

    #[test]
    fn context_model_matches_independent_adaptive_models() {
        // The arena-backed family must code exactly like a bank of
        // independent AdaptiveModels.
        let stream: Vec<(usize, usize)> =
            (0..9000).map(|i| ((i * 7) % 5, (i * i + 3 * i) % 11)).collect();
        let mut cm = ContextModel::new(5, 11);
        let mut enc_cm = RangeEncoder::new();
        let mut bank: Vec<AdaptiveModel> = (0..5).map(|_| AdaptiveModel::new(11)).collect();
        let mut enc_bank = RangeEncoder::new();
        for &(ctx, sym) in &stream {
            cm.encode(&mut enc_cm, ctx, sym);
            bank[ctx].encode(&mut enc_bank, sym);
        }
        assert_eq!(enc_cm.finish(), enc_bank.finish());
    }

    #[test]
    #[should_panic]
    fn encode_out_of_alphabet_panics() {
        let mut m = AdaptiveModel::new(4);
        let mut enc = RangeEncoder::new();
        m.encode(&mut enc, 4);
    }

    #[test]
    #[should_panic]
    fn context_encode_out_of_alphabet_panics() {
        let mut m = ContextModel::new(2, 4);
        let mut enc = RangeEncoder::new();
        m.encode(&mut enc, 0, 4);
    }
}
