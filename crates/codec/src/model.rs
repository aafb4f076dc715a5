//! Adaptive frequency models driving the range coder.
//!
//! [`AdaptiveModel`] is an order-0 model over a fixed alphabet, backed by a
//! Fenwick (binary indexed) tree so both cumulative-frequency queries and
//! updates are `O(log n)`. [`ContextModel`] keys a family of independent
//! models by an integer context — this is how the Octree_i variant groups
//! nodes "by the occupancy code of their parent" and how the G-PCC-like coder
//! conditions on neighbour occupancy.
//!
//! The models sit on the per-symbol hot path of every range-coded stream, so
//! the Fenwick operations are fused: one descending traversal yields both
//! `cum(sym)` and `freq(sym)` (instead of three prefix-sum walks), the
//! decoder's lower-bound search carries `cum` out of the descent for free,
//! and `rescale` rebuilds the tree in place without allocating. The coded
//! bytes are identical to the naive formulation — only the traversal count
//! changes (see `DESIGN.md` §10).

use crate::error::CodecError;
use crate::range::{RangeSink, RangeSource};

/// Frequency increment per observed symbol.
const INCREMENT: u64 = 32;
/// Rescale threshold; keeps totals far below `range::MAX_TOTAL` while letting
/// the model adapt to local statistics.
const MAX_TOTAL: u64 = 1 << 16;

// ---- Fenwick kernel ------------------------------------------------------
//
// Free functions over a raw tree slice (1-indexed, slot 0 unused, alphabet
// size `tree.len() - 1`) so the owned [`AdaptiveModel`] and the arena-backed
// [`ContextModel`] share one implementation.
//
// Nodes are stored as `u32`: every node holds at most the model total, which
// `MAX_TOTAL` keeps below `2^16 + INCREMENT`, so `u32` is exact while halving
// the tree's cache footprint (a 256-symbol table is 1 KiB instead of 2 KiB,
// and a 256-context family drops from ~526 KiB to ~263 KiB). Rescale packs
// two nodes per `u64` lane (see `fw_rescale`).

/// Reset `tree` to the all-ones frequency state in place: the node at `i`
/// covers `lowbit(i)` symbols of frequency 1, so it holds exactly `lowbit(i)`.
#[inline]
fn fw_init_uniform(tree: &mut [u32]) {
    for (i, node) in tree.iter_mut().enumerate() {
        *node = (i & i.wrapping_neg()) as u32;
    }
}

/// Add `delta` to `sym`'s frequency (ascending update chain).
#[inline]
fn fw_add(tree: &mut [u32], sym: usize, delta: u32) {
    let n = tree.len() - 1;
    let mut i = sym + 1;
    while i <= n {
        tree[i] += delta;
        i += i & i.wrapping_neg();
    }
}

/// Fused `(cum, freq)` of `sym` in a single descending traversal.
///
/// Uses `freq(sym) = tree[pos] - (cum(pos - 1) - cum(pos - lowbit(pos)))`
/// with `pos = sym + 1`: the chain of `pos - 1` passes through
/// `pos - lowbit(pos)`, so one walk serves both the frequency correction and
/// the cumulative sum.
#[inline]
fn fw_cum_freq(tree: &[u32], sym: usize) -> (u64, u64) {
    let pos = sym + 1;
    let mut freq = tree[pos];
    let stop = pos - (pos & pos.wrapping_neg());
    let mut cum = 0u32;
    let mut i = sym; // == pos - 1
    while i > stop {
        freq -= tree[i];
        cum += tree[i];
        i &= i - 1; // i -= lowbit(i)
    }
    while i > 0 {
        cum += tree[i];
        i &= i - 1;
    }
    (cum as u64, freq as u64)
}

/// Frequency of `sym` alone (short descending chain from `sym + 1`).
#[inline]
fn fw_freq(tree: &[u32], sym: usize) -> u64 {
    let pos = sym + 1;
    let mut freq = tree[pos];
    let stop = pos - (pos & pos.wrapping_neg());
    let mut i = pos - 1;
    while i > stop {
        freq -= tree[i];
        i &= i - 1;
    }
    freq as u64
}

/// Fenwick lower-bound search: the largest `sym` with `cum(sym) <= slot`,
/// returned together with that `cum` (carried out of the descent for free).
///
/// With every frequency `>= 1` and `slot < total` the result is always a
/// valid symbol; `sym == alphabet` signals a broken invariant (an
/// out-of-range slot) and must be surfaced by the caller, never clamped.
#[inline]
fn fw_find(tree: &[u32], slot: u64) -> (usize, u64) {
    let n = tree.len() - 1;
    let mut idx = 0usize;
    let mut rem = slot;
    let mut mask = n.next_power_of_two();
    while mask > 0 {
        let next = idx + mask;
        if next <= n && tree[next] as u64 <= rem {
            rem -= tree[next] as u64;
            idx = next;
        }
        mask >>= 1;
    }
    (idx, slot - rem)
}

/// Halve all frequencies in place (keeping them `>= 1`) and return the new
/// total. Allocation-free: the tree is unfolded to plain frequencies
/// (descending, so lower nodes are still in Fenwick form when read), halved,
/// and refolded (ascending).
fn fw_rescale(tree: &mut [u32]) -> u64 {
    let n = tree.len() - 1;
    for i in (1..=n).rev() {
        let lb = i & i.wrapping_neg();
        if lb > 1 {
            let stop = i - lb;
            let mut j = i - 1;
            while j > stop {
                tree[i] -= tree[j];
                j &= j - 1;
            }
        }
    }
    // Batch ceil-halve (`(x >> 1) + (x & 1)` per 32-bit lane) through the
    // vectorized kernel — u64 paired lanes on the scalar path, eight lanes
    // per AVX2 step when the `simd` feature detects support. Every frequency
    // is >= 1 on entry so the result stays >= 1 (the invariant the old
    // `.max(1)` guarded; a lane can only reach 0 from 0, which the all-ones
    // init and additive updates rule out).
    let total = crate::simd::halve_freqs(&mut tree[1..]);
    for i in 1..=n {
        let j = i + (i & i.wrapping_neg());
        if j <= n {
            tree[j] += tree[i];
        }
    }
    total
}

/// Encode one symbol against `(tree, total)` and adapt; returns the new total.
#[inline]
fn fw_encode_step<S: RangeSink>(tree: &mut [u32], total: u64, enc: &mut S, sym: usize) -> u64 {
    let (cum, freq) = fw_cum_freq(tree, sym);
    enc.put(cum, freq, total);
    fw_add(tree, sym, INCREMENT as u32);
    let total = total + INCREMENT;
    if total >= MAX_TOTAL {
        fw_rescale(tree)
    } else {
        total
    }
}

/// Decode one symbol against `(tree, total)` and adapt; returns
/// `(sym, new_total)`.
#[inline]
fn fw_decode_step<S: RangeSource>(
    tree: &mut [u32],
    total: u64,
    dec: &mut S,
) -> Result<(usize, u64), CodecError> {
    let n = tree.len() - 1;
    let slot = dec.peek_freq(total)?;
    let (sym, cum) = fw_find(tree, slot);
    if sym >= n {
        // The Fenwick search ran off the end of the alphabet: an
        // out-of-range slot that must surface, not decode the last symbol.
        return Err(CodecError::SymbolOutOfRange { symbol: sym, alphabet: n });
    }
    let freq = fw_freq(tree, sym);
    dec.consume(cum, freq, total);
    fw_add(tree, sym, INCREMENT as u32);
    let total = total + INCREMENT;
    let total = if total >= MAX_TOTAL { fw_rescale(tree) } else { total };
    Ok((sym, total))
}

/// An adaptive order-0 symbol model.
#[derive(Debug, Clone)]
pub struct AdaptiveModel {
    /// Fenwick tree over symbol frequencies, 1-indexed.
    tree: Vec<u32>,
    n: usize,
    total: u64,
}

impl AdaptiveModel {
    /// Model over `alphabet` symbols, all starting with frequency 1.
    pub fn new(alphabet: usize) -> Self {
        assert!(alphabet > 0, "alphabet must be non-empty");
        let mut tree = vec![0; alphabet + 1];
        fw_init_uniform(&mut tree);
        AdaptiveModel { tree, n: alphabet, total: alphabet as u64 }
    }

    /// Alphabet size this model was built for.
    pub fn alphabet(&self) -> usize {
        self.n
    }

    /// Reset to the fresh all-ones state without reallocating, so hot loops
    /// can recycle one model across independent streams.
    pub fn reset(&mut self) {
        fw_init_uniform(&mut self.tree);
        self.total = self.n as u64;
    }

    #[cfg(test)]
    fn add(&mut self, sym: usize, delta: u32) {
        fw_add(&mut self.tree, sym, delta);
        self.total += delta as u64;
    }

    /// Cumulative frequency of symbols `< sym`.
    #[cfg(test)]
    fn cum(&self, sym: usize) -> u64 {
        let mut i = sym;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i &= i - 1;
        }
        s
    }

    #[cfg(test)]
    fn freq(&self, sym: usize) -> u64 {
        fw_freq(&self.tree, sym)
    }

    /// Encode `sym` and adapt. Generic over the sink so the same model
    /// drives the plain range coder and the laned one.
    pub fn encode<S: RangeSink>(&mut self, enc: &mut S, sym: usize) {
        assert!(sym < self.n, "symbol {sym} outside alphabet of {}", self.n);
        self.total = fw_encode_step(&mut self.tree, self.total, enc, sym);
    }

    /// Decode one symbol and adapt (mirror of [`AdaptiveModel::encode`]).
    pub fn decode<S: RangeSource>(&mut self, dec: &mut S) -> Result<usize, CodecError> {
        let (sym, total) = fw_decode_step(&mut self.tree, self.total, dec)?;
        self.total = total;
        Ok(sym)
    }
}

/// A family of independent adaptive models selected by an integer context.
///
/// Backed by one flat arena of pre-sized frequency tables (`contexts ×
/// (alphabet + 1)` slots) instead of per-context heap boxes: selecting a
/// context is pointer arithmetic, tables of neighbouring contexts share cache
/// lines, and the whole family is freed in one deallocation. A context's
/// table is initialized on first use (`totals[ctx] == 0` marks untouched), so
/// sparse context spaces (e.g. 256 parent occupancy codes of which a scene
/// uses a few dozen) pay only one zeroed allocation up front.
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
        let stride = alphabet + 1;
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

    /// The context's tree slice and total, initializing the table on first
    /// use.
    #[inline]
    fn slot(&mut self, ctx: usize) -> (&mut [u32], &mut u64) {
        let tree = &mut self.arena[ctx * self.stride..][..self.stride];
        let total = &mut self.totals[ctx];
        if *total == 0 {
            fw_init_uniform(tree);
            *total = self.alphabet as u64;
        }
        (tree, total)
    }

    /// Encode `sym` under context `ctx` and adapt that context's model.
    pub fn encode<S: RangeSink>(&mut self, enc: &mut S, ctx: usize, sym: usize) {
        assert!(sym < self.alphabet, "symbol {sym} outside alphabet of {}", self.alphabet);
        let (tree, total) = self.slot(ctx);
        *total = fw_encode_step(tree, *total, enc, sym);
    }

    /// Decode one symbol under context `ctx` (mirror of `encode`).
    pub fn decode<S: RangeSource>(&mut self, dec: &mut S, ctx: usize) -> Result<usize, CodecError> {
        let (tree, total) = self.slot(ctx);
        let (sym, new_total) = fw_decode_step(tree, *total, dec)?;
        *total = new_total;
        Ok(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::{RangeDecoder, RangeEncoder};

    #[test]
    fn fenwick_cum_and_find_agree() {
        let mut m = AdaptiveModel::new(10);
        // Push asymmetric counts.
        for _ in 0..100 {
            m.add(3, 5);
            m.add(7, 2);
        }
        for s in 0..10 {
            let c = m.cum(s);
            let f = m.freq(s);
            assert_eq!(fw_cum_freq(&m.tree, s), (c, f), "fused query disagrees at {s}");
            assert_eq!(fw_find(&m.tree, c), (s, c));
            assert_eq!(fw_find(&m.tree, c + f - 1), (s, c));
        }
    }

    #[test]
    fn find_past_total_is_out_of_range_not_clamped() {
        let m = AdaptiveModel::new(4);
        // A slot at or past the total lands on the one-past-the-end index;
        // decode surfaces this as SymbolOutOfRange instead of clamping.
        let (sym, cum) = fw_find(&m.tree, m.total);
        assert_eq!((sym, cum), (4, 4));
        let (sym, _) = fw_find(&m.tree, m.total + 100);
        assert_eq!(sym, 4);
    }

    #[test]
    fn rescale_in_place_matches_reference() {
        // Drive several models across many rescales and check the invariants
        // the old allocation-based rescale guaranteed: freq' = ceil(freq/2)
        // clamped to >= 1, and total = sum of frequencies.
        let mut m = AdaptiveModel::new(9);
        for i in 0..10_000u64 {
            let before: Vec<u64> = (0..9).map(|s| m.freq(s)).collect();
            let will_rescale = m.total + INCREMENT >= MAX_TOTAL;
            let mut enc = RangeEncoder::new();
            m.encode(&mut enc, (i % 9) as usize);
            if will_rescale {
                for (s, &f) in before.iter().enumerate() {
                    let f = if s == (i % 9) as usize { f + INCREMENT } else { f };
                    assert_eq!(m.freq(s), f.div_ceil(2).max(1), "sym {s} after rescale");
                }
            }
            assert_eq!(m.total, (0..9).map(|s| m.freq(s)).sum::<u64>());
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
