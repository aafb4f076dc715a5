//! SIMD kernels with mandatory scalar fallbacks.
//!
//! The batch hot loops of the codec — zigzag transform + OR-fold width scan
//! in [`crate::bitpack`], frequency halving in the Fenwick rescale
//! ([`crate::model`]), and the radial-delta transform ([`crate::delta`]) —
//! funnel through the free functions here. Each has exactly one semantic: the
//! scalar implementation. On `x86_64` an AVX2 path is dispatched at run time
//! via `is_x86_feature_detected!`; it is required to be bit-identical to the
//! scalar path (pure integer lane arithmetic, no reassociation of anything
//! order-sensitive), so stream bytes never depend on the host CPU, and a
//! property test holds the two equal on arbitrary input. Every other target,
//! and an `x86_64` CPU without AVX2, runs the scalar code.
//!
//! Dispatch outcome is cached in a process-wide atomic so steady-state calls
//! pay one relaxed load, not a `cpuid`.

#[cfg(target_arch = "x86_64")]
use std::sync::atomic::{AtomicU8, Ordering};

/// Whether this CPU runs the AVX2 paths (detected once, at run time).
///
/// Always `false` off `x86_64`; callers can use it to report which path a
/// benchmark actually measured.
#[inline]
pub fn avx2_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // 0 = unknown, 1 = no, 2 = yes.
        static AVX2: AtomicU8 = AtomicU8::new(0);
        match AVX2.load(Ordering::Relaxed) {
            0 => {
                let yes = std::arch::is_x86_feature_detected!("avx2");
                AVX2.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
                yes
            }
            n => n == 2,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---- zigzag block transform ---------------------------------------------

/// Zigzag-encode `src` into `dst` (same length) and return the OR-fold of
/// the encoded values — `width(fold)` is the block's packing width.
#[inline]
pub fn zigzag_encode_block(src: &[i64], dst: &mut [u64]) -> u64 {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { zigzag_encode_block_avx2(src, dst) };
    }
    zigzag_encode_block_scalar(src, dst)
}

#[inline]
fn zigzag_encode_block_scalar(src: &[i64], dst: &mut [u64]) -> u64 {
    let mut folded = 0u64;
    for (d, &v) in dst.iter_mut().zip(src) {
        let z = crate::varint::zigzag_encode(v);
        *d = z;
        folded |= z;
    }
    folded
}

/// Zigzag-decode `src` into `dst` (same length).
#[inline]
pub fn zigzag_decode_block(src: &[u64], dst: &mut [i64]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { zigzag_decode_block_avx2(src, dst) };
        return;
    }
    zigzag_decode_block_scalar(src, dst);
}

#[inline]
fn zigzag_decode_block_scalar(src: &[u64], dst: &mut [i64]) {
    for (d, &z) in dst.iter_mut().zip(src) {
        *d = crate::varint::zigzag_decode(z);
    }
}

// ---- Fenwick rescale halving --------------------------------------------

/// Ceil-halve every frequency (`(f >> 1) + (f & 1)` per `u32` slot) in place
/// and return the sum of the halved values. Frequencies `>= 1` stay `>= 1`.
#[inline]
pub fn halve_freqs(freqs: &mut [u32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { halve_freqs_avx2(freqs) };
    }
    halve_freqs_scalar(freqs)
}

#[inline]
fn halve_freqs_scalar(freqs: &mut [u32]) -> u64 {
    // Two u32 lanes per u64: `(x >> 1) + (x & 1)` is `ceil(x / 2)` per lane
    // (the halves cannot carry across the lane boundary because each lane's
    // high bit is cleared by the shift mask before the add).
    let mut total = 0u64;
    let mut chunks = freqs.chunks_exact_mut(2);
    for pair in &mut chunks {
        let v = (pair[0] as u64) | ((pair[1] as u64) << 32);
        let h = ((v >> 1) & 0x7FFF_FFFF_7FFF_FFFF) + (v & 0x0000_0001_0000_0001);
        pair[0] = h as u32;
        pair[1] = (h >> 32) as u32;
        total += (h & 0xFFFF_FFFF) + (h >> 32);
    }
    for f in chunks.into_remainder() {
        let h = (*f >> 1) + (*f & 1);
        *f = h;
        total += h as u64;
    }
    total
}

// ---- radial-delta lane kernels ------------------------------------------

/// Backward differences in place: `v[i] -= v[i-1]` for `i >= 1` (the delta
/// transform). Every difference is independent, so the AVX2 path runs four
/// lanes per step.
#[inline]
pub fn diff_in_place(vals: &mut [i64]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { diff_in_place_avx2(vals) };
        return;
    }
    diff_in_place_scalar(vals);
}

#[inline]
fn diff_in_place_scalar(vals: &mut [i64]) {
    for i in (1..vals.len()).rev() {
        vals[i] = vals[i].wrapping_sub(vals[i - 1]);
    }
}

/// Inclusive prefix sum in place: `v[i] += v[i-1]` for `i >= 1` (the delta
/// inverse). The carry chain is serial; the scalar path keeps the running
/// sum in a register, the AVX2 path uses the in-lane shift-add scan.
#[inline]
pub fn prefix_sum_in_place(vals: &mut [i64]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { prefix_sum_in_place_avx2(vals) };
        return;
    }
    prefix_sum_in_place_scalar(vals);
}

#[inline]
fn prefix_sum_in_place_scalar(vals: &mut [i64]) {
    // Carrying the accumulator in a register avoids the store-to-load
    // forward of re-reading `vals[i - 1]` every iteration.
    let mut acc = match vals.first() {
        Some(&v) => v,
        None => return,
    };
    for v in &mut vals[1..] {
        acc = acc.wrapping_add(*v);
        *v = acc;
    }
}

// ---- AVX2 implementations ------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zigzag_encode_block_avx2(src: &[i64], dst: &mut [u64]) -> u64 {
    use std::arch::x86_64::*;
    let n = src.len().min(dst.len());
    let mut fold = _mm256_setzero_si256();
    let zero = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
        // zigzag(v) = (v << 1) ^ (v >> 63); the arithmetic shift is emulated
        // with a signed compare (all-ones lane exactly when v < 0).
        let neg = _mm256_cmpgt_epi64(zero, v);
        let z = _mm256_xor_si256(_mm256_slli_epi64(v, 1), neg);
        _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, z);
        fold = _mm256_or_si256(fold, z);
        i += 4;
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, fold);
    let mut folded = lanes[0] | lanes[1] | lanes[2] | lanes[3];
    folded |= zigzag_encode_block_scalar(&src[i..n], &mut dst[i..n]);
    folded
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zigzag_decode_block_avx2(src: &[u64], dst: &mut [i64]) {
    use std::arch::x86_64::*;
    let n = src.len().min(dst.len());
    let one = _mm256_set1_epi64x(1);
    let zero = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        let z = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
        // unzigzag(z) = (z >> 1) ^ -(z & 1)
        let sign = _mm256_sub_epi64(zero, _mm256_and_si256(z, one));
        let v = _mm256_xor_si256(_mm256_srli_epi64(z, 1), sign);
        _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, v);
        i += 4;
    }
    zigzag_decode_block_scalar(&src[i..n], &mut dst[i..n]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn halve_freqs_avx2(freqs: &mut [u32]) -> u64 {
    use std::arch::x86_64::*;
    let one = _mm256_set1_epi32(1);
    let zero = _mm256_setzero_si256();
    // Accumulate lane sums as u64 pairs (frequencies are < 2^17, so even
    // unwidened u32 sums could not overflow, but the widening add is free).
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    let n = freqs.len();
    while i + 8 <= n {
        let v = _mm256_loadu_si256(freqs.as_ptr().add(i) as *const __m256i);
        let h = _mm256_add_epi32(_mm256_srli_epi32(v, 1), _mm256_and_si256(v, one));
        _mm256_storeu_si256(freqs.as_mut_ptr().add(i) as *mut __m256i, h);
        acc = _mm256_add_epi64(
            acc,
            _mm256_add_epi64(_mm256_unpacklo_epi32(h, zero), _mm256_unpackhi_epi32(h, zero)),
        );
        i += 8;
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut total = lanes[0].wrapping_add(lanes[1]).wrapping_add(lanes[2]).wrapping_add(lanes[3]);
    total += halve_freqs_scalar(&mut freqs[i..]);
    total
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn diff_in_place_avx2(vals: &mut [i64]) {
    use std::arch::x86_64::*;
    let n = vals.len();
    if n < 2 {
        return;
    }
    // Process descending so each chunk reads original values: the write to
    // `[i, i + 4)` only clobbers indices a *lower* chunk never reads.
    let mut i = n;
    while i >= 5 {
        let start = i - 4;
        let cur = _mm256_loadu_si256(vals.as_ptr().add(start) as *const __m256i);
        let prev = _mm256_loadu_si256(vals.as_ptr().add(start - 1) as *const __m256i);
        let d = _mm256_sub_epi64(cur, prev);
        _mm256_storeu_si256(vals.as_mut_ptr().add(start) as *mut __m256i, d);
        i = start;
    }
    diff_in_place_scalar(&mut vals[..i]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn prefix_sum_in_place_avx2(vals: &mut [i64]) {
    use std::arch::x86_64::*;
    let n = vals.len();
    if n < 2 {
        return;
    }
    let mut carry = _mm256_set1_epi64x(vals[0]);
    let mut i = 1;
    while i + 4 <= n {
        let mut x = _mm256_loadu_si256(vals.as_ptr().add(i) as *const __m256i);
        // In-lane inclusive scan of [a, b, c, d]:
        //   step 1 (shift one 64-bit lane within each 128-bit half):
        //     [a, a+b, c, c+d]
        x = _mm256_add_epi64(x, _mm256_slli_si256(x, 8));
        //   step 2 (broadcast a+b into the upper half only):
        //     [a, a+b, a+b+c, a+b+c+d]
        let lo_hi = _mm256_permute4x64_epi64(x, 0b01_01_01_01);
        let mask = _mm256_set_epi64x(-1, -1, 0, 0);
        x = _mm256_add_epi64(x, _mm256_and_si256(lo_hi, mask));
        // Add the running carry and store.
        x = _mm256_add_epi64(x, carry);
        _mm256_storeu_si256(vals.as_mut_ptr().add(i) as *mut __m256i, x);
        // New carry = last element, broadcast.
        carry = _mm256_permute4x64_epi64(x, 0b11_11_11_11);
        i += 4;
    }
    let mut acc = _mm256_extract_epi64(carry, 0);
    for v in &mut vals[i..] {
        acc = acc.wrapping_add(*v);
        *v = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mixed_i64(n: usize) -> Vec<i64> {
        (0..n as u64)
            .map(|i| {
                let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64;
                r >> [0u32, 13, 33, 51][(i % 4) as usize]
            })
            .collect()
    }

    #[test]
    fn zigzag_block_matches_scalar_per_value() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 31, 128, 129] {
            let src = mixed_i64(n);
            let mut enc = vec![0u64; n];
            let folded = zigzag_encode_block(&src, &mut enc);
            let mut expect_fold = 0u64;
            for (i, &v) in src.iter().enumerate() {
                let z = crate::varint::zigzag_encode(v);
                assert_eq!(enc[i], z, "n={n} i={i}");
                expect_fold |= z;
            }
            assert_eq!(folded, expect_fold, "n={n}");
            let mut dec = vec![0i64; n];
            zigzag_decode_block(&enc, &mut dec);
            assert_eq!(dec, src, "n={n}");
        }
    }

    #[test]
    fn halve_freqs_matches_ceil_halving() {
        for n in [0usize, 1, 2, 7, 8, 9, 16, 255, 257] {
            let mut freqs: Vec<u32> =
                (0..n as u32).map(|i| (i.wrapping_mul(2654435761) >> 15) % (1 << 17) + 1).collect();
            let expect: Vec<u32> = freqs.iter().map(|&f| f.div_ceil(2)).collect();
            let expect_total: u64 = expect.iter().map(|&f| f as u64).sum();
            let total = halve_freqs(&mut freqs);
            assert_eq!(freqs, expect, "n={n}");
            assert_eq!(total, expect_total, "n={n}");
        }
    }

    #[test]
    fn diff_and_prefix_sum_invert() {
        for n in [0usize, 1, 2, 4, 5, 9, 64, 100, 1001] {
            let orig = mixed_i64(n);
            let mut v = orig.clone();
            diff_in_place(&mut v);
            // Oracle: plain backward differences.
            for i in (1..n).rev() {
                assert_eq!(v[i], orig[i].wrapping_sub(orig[i - 1]), "n={n} i={i}");
            }
            prefix_sum_in_place(&mut v);
            assert_eq!(v, orig, "n={n}");
        }
    }

    #[test]
    fn extremes_wrap_identically() {
        let orig = vec![i64::MIN, i64::MAX, 0, i64::MIN, -1, i64::MAX, 1, i64::MIN, 17];
        let mut v = orig.clone();
        diff_in_place(&mut v);
        prefix_sum_in_place(&mut v);
        assert_eq!(v, orig);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each AVX2 kernel equals its scalar reference bit for bit, on any
        /// length up to 1024, any `i64`, and frequencies in the model's
        /// `1..2^17`. Without AVX2 it degenerates to scalar against scalar.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn avx2_paths_match_scalar_exactly(
            src in collection::vec(any::<i64>(), 0..=1024),
            freqs in collection::vec(1u32..(1 << 17), 0..=1024),
        ) {
            let avx2 = avx2_enabled();
            let n = src.len();
            // SAFETY (every `unsafe` call below): only made when `avx2` says
            // this CPU supports AVX2.
            let mut a = vec![0u64; n];
            let mut b = vec![0u64; n];
            let fold_simd = if avx2 {
                unsafe { zigzag_encode_block_avx2(&src, &mut a) }
            } else {
                zigzag_encode_block_scalar(&src, &mut a)
            };
            let fold_scalar = zigzag_encode_block_scalar(&src, &mut b);
            prop_assert_eq!(&a, &b, "zigzag encode n={}", n);
            prop_assert_eq!(fold_simd, fold_scalar, "fold n={}", n);

            let mut da = vec![0i64; n];
            let mut db = vec![0i64; n];
            if avx2 {
                unsafe { zigzag_decode_block_avx2(&a, &mut da) };
            } else {
                zigzag_decode_block_scalar(&a, &mut da);
            }
            zigzag_decode_block_scalar(&b, &mut db);
            prop_assert_eq!(&da, &db, "zigzag decode n={}", n);

            let mut fa = src.clone();
            let mut fb = src.clone();
            if avx2 {
                unsafe { diff_in_place_avx2(&mut fa) };
            } else {
                diff_in_place_scalar(&mut fa);
            }
            diff_in_place_scalar(&mut fb);
            prop_assert_eq!(&fa, &fb, "diff n={}", n);

            if avx2 {
                unsafe { prefix_sum_in_place_avx2(&mut fa) };
            } else {
                prefix_sum_in_place_scalar(&mut fa);
            }
            prefix_sum_in_place_scalar(&mut fb);
            prop_assert_eq!(&fa, &fb, "prefix sum n={}", n);

            let mut ha = freqs.clone();
            let mut hb = freqs;
            let ta = if avx2 {
                unsafe { halve_freqs_avx2(&mut ha) }
            } else {
                halve_freqs_scalar(&mut ha)
            };
            let tb = halve_freqs_scalar(&mut hb);
            prop_assert_eq!(&ha, &hb, "halve n={}", ha.len());
            prop_assert_eq!(ta, tb, "halve total n={}", ha.len());
        }
    }
}
