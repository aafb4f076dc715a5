//! One stable LSD radix sort of `(u64 key, u32 index)` pairs.
//!
//! The encoder's front end sorts point indices by integer keys: the density
//! split's packed cell keys and the octree and quadtree Morton codes. Keys
//! there span only a few dozen of their 64 bits, so a digit-wise LSD sort
//! that skips the bits that are constant over the input does three to five
//! linear passes where a comparison sort does `log₂ n` data-dependent ones.

/// Below this length a stable comparison sort beats the histogram set-up.
const SMALL: usize = 64;
/// Widest digit: 2¹¹ counters (8 KiB) per pass stay in L1.
const MAX_DIGIT_BITS: u32 = 11;

/// Sort `pairs` by key, stably: pairs with equal keys keep their input
/// order. Pairs built as `(key, i)` in ascending `i` therefore come out in
/// `(key, i)` order, the order `sort_unstable` gives them.
///
/// Only the bits from the lowest to the highest one that varies over the
/// input are sorted on: constant digits below and above them are skipped.
/// Those bits are split into the fewest digits of at most 11 bits, and each
/// digit costs one counting pass and one scatter pass through a scratch
/// buffer the size of the input. When those key bits and the widest index
/// fit in 64 bits together (cell keys and Morton codes of a frame do), each
/// pair travels as one packed `u64`, which halves the bytes every pass moves.
pub fn radix_sort(pairs: &mut [(u64, u32)]) {
    if pairs.len() < SMALL {
        pairs.sort_by_key(|&(key, _)| key);
        return;
    }
    let (all_or, all_and, max_index) =
        pairs.iter().fold((0u64, u64::MAX, 0u32), |(or, and, max), &(key, i)| {
            (or | key, and & key, max.max(i))
        });
    let varying = all_or ^ all_and;
    if varying == 0 {
        return;
    }
    let low = varying.trailing_zeros();
    let bits = u64::BITS - varying.leading_zeros() - low;
    let key_mask = u64::MAX >> (u64::BITS - bits);
    let index_bits = u32::BITS - max_index.leading_zeros();
    if bits + index_bits > u64::BITS {
        lsd(pairs, |&(key, _)| key >> low, bits);
        return;
    }
    let mut words: Vec<u64> =
        pairs.iter().map(|&(key, i)| ((key >> low) & key_mask) << index_bits | i as u64).collect();
    lsd(&mut words, |&w| w >> index_bits, bits);
    // Bits outside the sorted span are the same in every key.
    let fixed = all_and & !(key_mask << low);
    let index_mask = (1u64 << index_bits) - 1;
    for (pair, &w) in pairs.iter_mut().zip(&words) {
        *pair = (fixed | (w >> index_bits) << low, (w & index_mask) as u32);
    }
}

/// Stable LSD sort of `items` by the low `bits` bits of `key`, in the fewest
/// digits of at most [`MAX_DIGIT_BITS`] bits.
fn lsd<T: Copy + Default>(items: &mut [T], key: impl Fn(&T) -> u64, bits: u32) {
    let passes = bits.div_ceil(MAX_DIGIT_BITS);
    let width = bits.div_ceil(passes);
    let mask = (1u64 << width) - 1;
    let shifts: Vec<u32> = (0..passes).map(|p| p * width).collect();
    let buckets = 1usize << width;
    let digit = |item: &T, shift: u32| ((key(item) >> shift) & mask) as usize;

    // One counting pass for every digit.
    let mut counts = vec![0u32; buckets * shifts.len()];
    for item in items.iter() {
        for (hist, &s) in counts.chunks_exact_mut(buckets).zip(&shifts) {
            hist[digit(item, s)] += 1;
        }
    }

    let mut buf = vec![T::default(); items.len()];
    let (mut src, mut dst) = (&mut *items, buf.as_mut_slice());
    let mut next = vec![0usize; buckets];
    for (hist, &s) in counts.chunks_exact(buckets).zip(&shifts) {
        let mut acc = 0usize;
        for (slot, &c) in next.iter_mut().zip(hist) {
            *slot = acc;
            acc += c as usize;
        }
        for item in src.iter() {
            let d = digit(item, s);
            dst[next[d]] = *item;
            next[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if shifts.len() % 2 == 1 {
        // After an odd number of passes the sorted run sits in the buffer.
        items.copy_from_slice(&buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn check(mut pairs: Vec<(u64, u32)>) {
        let mut expected = pairs.clone();
        expected.sort_unstable();
        radix_sort(&mut pairs);
        assert_eq!(pairs, expected);
    }

    #[test]
    fn matches_sort_unstable_on_duplicate_heavy_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for &(n, distinct, shift) in
            &[(0usize, 1u64, 0u32), (5, 3, 0), (63, 4, 7), (64, 4, 40), (1000, 10, 0)]
        {
            check((0..n).map(|i| (rng.gen_range(0..distinct) << shift, i as u32)).collect());
        }
        // Many duplicates spread over every byte, odd and even pass counts.
        for bytes in 1..=8u32 {
            let top = if bytes == 8 { u64::MAX } else { (1u64 << (8 * bytes)) - 1 };
            let pool: Vec<u64> = (0..50).map(|_| rng.gen_range(0..=top)).collect();
            check((0..5000).map(|i| (pool[rng.gen_range(0..pool.len())], i as u32)).collect());
        }
    }

    #[test]
    fn packed_and_pair_paths_agree_with_sort_unstable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        // Constant bits above and below the varying span, small indices:
        // the packed path, which must restore the constant bits.
        check(
            (0..3000u32)
                .map(|i| (0xF000_0000_0000_0F00 | rng.gen_range(0..1u64 << 20) << 12, i))
                .collect(),
        );
        // 60 varying key bits with 20-bit indices: too wide to pack.
        check((0..3000u32).map(|i| (rng.gen_range(0..1u64 << 60), i * 300)).collect());
        // Full-width indices force the pair path even for narrow keys.
        check((0..3000u32).map(|i| (rng.gen_range(0..64), u32::MAX - 3000 + i)).collect());
    }

    #[test]
    fn is_stable_on_equal_keys() {
        // Indices in descending order: a stable sort keeps them descending
        // within each key, which `sort_unstable` on the pairs would not.
        let mut pairs: Vec<(u64, u32)> = (0..1000u32).map(|i| ((i % 7) as u64, 999 - i)).collect();
        radix_sort(&mut pairs);
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 > w[1].1), "{w:?}");
        }
    }

    #[test]
    fn constant_keys_leave_input_order() {
        let mut pairs: Vec<(u64, u32)> = (0..500u32).map(|i| (0xABCD_0000_1234, 500 - i)).collect();
        let before = pairs.clone();
        radix_sort(&mut pairs);
        assert_eq!(pairs, before);
    }
}
