//! 2D quadtree geometry coder: the outlier compressor substrate (paper §3.6).
//!
//! Outliers are typically far points on the `xoy` plane while the z range of
//! a LiDAR scan is comparatively small, so DBGC encodes `(x, y)` with a
//! quadtree (leaf side `2·q`, per-axis error `<= q`) and carries `z` as a
//! separate delta-coded attribute channel. This module provides the quadtree;
//! the z channel is composed by the `dbgc` core crate, which uses the
//! returned input→output mapping to order the z values.

use dbgc_codec::intseq;
use dbgc_codec::varint::{write_f64, write_uvarint, ByteReader};
use dbgc_codec::{AdaptiveModel, CodecError, RangeDecoder, RangeEncoder};
use dbgc_geom::{radix_sort, Rect2};

/// Maximum depth: 31 bits per axis fit a 62-bit Morton code.
pub const MAX_DEPTH_2D: u32 = 31;

#[inline]
fn spread2(v: u64) -> u64 {
    let mut x = v & 0x7FFF_FFFF;
    x = (x | x << 16) & 0x0000FFFF0000FFFF;
    x = (x | x << 8) & 0x00FF00FF00FF00FF;
    x = (x | x << 4) & 0x0F0F0F0F0F0F0F0F;
    x = (x | x << 2) & 0x3333333333333333;
    x = (x | x << 1) & 0x5555555555555555;
    x
}

#[inline]
fn compact2(v: u64) -> u64 {
    let mut x = v & 0x5555555555555555;
    x = (x | x >> 1) & 0x3333333333333333;
    x = (x | x >> 2) & 0x0F0F0F0F0F0F0F0F;
    x = (x | x >> 4) & 0x00FF00FF00FF00FF;
    x = (x | x >> 8) & 0x0000FFFF0000FFFF;
    x = (x | x >> 16) & 0x7FFF_FFFF;
    x
}

#[inline]
/// Interleave two 31-bit cell coordinates into a Morton code.
pub fn morton2(cell: (u64, u64)) -> u64 {
    spread2(cell.0) << 1 | spread2(cell.1)
}

#[inline]
/// Inverse of [`morton2`].
pub fn demorton2(code: u64) -> (u64, u64) {
    (compact2(code >> 1), compact2(code))
}

/// Result of encoding a set of 2D points.
#[derive(Debug, Clone)]
pub struct QuadtreeEncodeResult {
    /// The compressed bitstream.
    pub bytes: Vec<u8>,
    /// `mapping[i]` is the index of input point `i` in the decoded output.
    pub mapping: Vec<usize>,
    /// Number of occupied leaves (for stats).
    pub leaves: usize,
}

/// Result of decoding.
#[derive(Debug, Clone)]
pub struct QuadtreeDecodeResult {
    /// Decoded `(x, y)` positions (leaf centres, multiplicity preserved).
    pub points: Vec<(f64, f64)>,
}

/// The quadtree codec over `(x, y)` coordinates.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuadtreeCodec;

impl QuadtreeCodec {
    /// Levels a quadtree over `points` needs for leaf side `<= 2·q`, before
    /// the [`MAX_DEPTH_2D`] clamp of [`QuadtreeCodec::encode`] (0 for an
    /// empty input).
    pub fn required_depth(points: &[(f64, f64)], q: f64) -> u32 {
        Self::frame(points, q).map_or(0, |(_, depth)| depth)
    }

    /// The square enclosing `points` and its unclamped depth at leaf side
    /// `2·q`; `None` for an empty input.
    fn frame(points: &[(f64, f64)], q: f64) -> Option<(Rect2, u32)> {
        let pts3: Vec<dbgc_geom::Point3> =
            points.iter().map(|&(x, y)| dbgc_geom::Point3::new(x, y, 0.0)).collect();
        let rect = Rect2::enclosing_xy(&pts3)?;
        Some((rect, rect.depth_for_leaf_side(2.0 * q)))
    }

    /// Compress 2D points with leaf side `2·q` (per-axis error `<= q`) —
    /// as long as [`QuadtreeCodec::required_depth`] is at most
    /// [`MAX_DEPTH_2D`]. Deeper trees are clamped to `MAX_DEPTH_2D`, and
    /// their leaves are wider than `2·q`; callers that promise the bound
    /// check `required_depth` first.
    pub fn encode(&self, points: &[(f64, f64)], q: f64) -> QuadtreeEncodeResult {
        let Some((rect, depth)) = Self::frame(points, q) else {
            let mut out = Vec::new();
            write_f64(&mut out, 0.0);
            write_f64(&mut out, 0.0);
            write_f64(&mut out, 0.0);
            write_uvarint(&mut out, 0);
            write_uvarint(&mut out, 0);
            return QuadtreeEncodeResult { bytes: out, mapping: Vec::new(), leaves: 0 };
        };
        let depth = depth.min(MAX_DEPTH_2D);

        let mut keyed: Vec<(u64, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                let cell = rect.cell_at_depth(x, y, depth).expect("inside enclosing rect");
                (morton2(cell), i as u32)
            })
            .collect();
        radix_sort(&mut keyed);

        let mut leaf_keys: Vec<u64> = Vec::new();
        let mut leaf_counts: Vec<u32> = Vec::new();
        let mut point_leaf = vec![0usize; points.len()];
        for &(key, idx) in &keyed {
            if leaf_keys.last() != Some(&key) {
                leaf_keys.push(key);
                leaf_counts.push(0);
            }
            *leaf_counts.last_mut().expect("just pushed") += 1;
            point_leaf[idx as usize] = leaf_keys.len() - 1;
        }

        let mut out = Vec::new();
        write_f64(&mut out, rect.min_x);
        write_f64(&mut out, rect.min_y);
        write_f64(&mut out, rect.side);
        write_uvarint(&mut out, depth as u64);
        write_uvarint(&mut out, leaf_keys.len() as u64);

        // BFS occupancy nibbles (stored one per range-coded symbol).
        let mut enc = RangeEncoder::new();
        let mut model = AdaptiveModel::new(15); // codes 1..=15, shifted by 1
        if depth > 0 {
            let mut current: Vec<(usize, usize)> = vec![(0, leaf_keys.len())];
            for level in 0..depth {
                let shift = 2 * (depth - level - 1);
                let mut next = Vec::new();
                for &(start, end) in &current {
                    let mut code = 0u8;
                    let mut i = start;
                    while i < end {
                        let child = ((leaf_keys[i] >> shift) & 0b11) as u8;
                        let mut j = i + 1;
                        while j < end && ((leaf_keys[j] >> shift) & 0b11) as u8 == child {
                            j += 1;
                        }
                        code |= 1 << child;
                        if level + 1 < depth {
                            next.push((i, j));
                        }
                        i = j;
                    }
                    model.encode(&mut enc, code as usize - 1);
                }
                current = next;
            }
        }
        let occ = enc.finish();
        write_uvarint(&mut out, occ.len() as u64);
        out.extend_from_slice(&occ);

        let extras: Vec<i64> = leaf_counts.iter().map(|&c| c as i64 - 1).collect();
        intseq::compress_ints_rc(&mut out, &extras, 1);

        // Input → output mapping (stable within a leaf).
        let mut offsets = vec![0usize; leaf_keys.len()];
        let mut acc = 0usize;
        for (i, &c) in leaf_counts.iter().enumerate() {
            offsets[i] = acc;
            acc += c as usize;
        }
        let mut cursor = offsets;
        let mapping = point_leaf
            .iter()
            .map(|&leaf| {
                let at = cursor[leaf];
                cursor[leaf] += 1;
                at
            })
            .collect();

        QuadtreeEncodeResult { bytes: out, mapping, leaves: leaf_keys.len() }
    }

    /// Decompress a stream produced by [`QuadtreeCodec::encode`].
    ///
    /// Output is capped at [`crate::codec::DEFAULT_MAX_POINTS`] points; use
    /// [`QuadtreeCodec::decode_with_limit`] to pick a different budget.
    pub fn decode(&self, bytes: &[u8]) -> Result<QuadtreeDecodeResult, CodecError> {
        self.decode_with_limit(bytes, crate::codec::DEFAULT_MAX_POINTS)
    }

    /// Decompress with an explicit point budget: hostile streams whose
    /// declared or reconstructed size exceeds `max_points` fail with a typed
    /// error before any large allocation.
    pub fn decode_with_limit(
        &self,
        bytes: &[u8],
        max_points: usize,
    ) -> Result<QuadtreeDecodeResult, CodecError> {
        let mut r = ByteReader::new(bytes);
        let min_x = r.read_f64()?;
        let min_y = r.read_f64()?;
        let side = r.read_f64()?;
        if ![min_x, min_y, side].iter().all(|v| v.is_finite() && v.abs() <= 1e15) {
            return Err(CodecError::CorruptStream("quadtree header out of range"));
        }
        let depth = r.read_uvarint()? as u32;
        if depth > MAX_DEPTH_2D {
            return Err(CodecError::CorruptStream("quadtree depth out of range"));
        }
        let leaf_count = r.read_uvarint()? as usize;
        if leaf_count > max_points {
            return Err(CodecError::CorruptStream("quadtree leaf count exceeds limit"));
        }
        if leaf_count == 0 {
            return Ok(QuadtreeDecodeResult { points: Vec::new() });
        }
        let rect = Rect2 { min_x, min_y, side };
        let occ_len = r.read_uvarint()? as usize;
        let occ = r.read_slice(occ_len)?;
        let mut dec = RangeDecoder::new(occ);
        let mut model = AdaptiveModel::new(15);

        let mut leaves: Vec<u64> = vec![0];
        for _ in 0..depth {
            // Level sizes never shrink toward the leaves, so a level already
            // past the declared leaf count proves the stream corrupt; bail
            // before the 4×-per-level expansion can balloon.
            if leaves.len() > leaf_count {
                return Err(CodecError::CorruptStream("quadtree leaf budget exceeded"));
            }
            // Expanding sorted prefixes with ascending child indices keeps
            // the key list sorted — matching the encoder's sorted traversal.
            let mut next = Vec::with_capacity(leaves.len() * 2);
            for &prefix in &leaves {
                let code = model.decode(&mut dec)? as u8 + 1;
                for child in 0..4u64 {
                    if code & (1 << child) != 0 {
                        next.push((prefix << 2) | child);
                    }
                }
            }
            debug_assert!(next.windows(2).all(|w| w[0] < w[1]));
            leaves = next;
        }
        if leaves.len() != leaf_count {
            return Err(CodecError::CorruptStream("quadtree leaf count mismatch"));
        }

        let extras = intseq::decompress_ints_rc(&mut r, 1)?;
        if extras.len() != leaf_count {
            return Err(CodecError::CorruptStream("quadtree multiplicity mismatch"));
        }
        let mut points = Vec::new();
        let mut total = 0usize;
        for (&key, &extra) in leaves.iter().zip(&extras) {
            if extra < 0 || extra > u32::MAX as i64 {
                return Err(CodecError::CorruptStream("invalid multiplicity"));
            }
            total = total.saturating_add(extra as usize + 1);
            if total > max_points {
                return Err(CodecError::CorruptStream("quadtree point count exceeds limit"));
            }
            let center = rect.cell_center(demorton2(key), depth);
            points.extend(std::iter::repeat(center).take(extra as usize + 1));
        }
        Ok(QuadtreeDecodeResult { points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64, span: f64) -> Vec<(f64, f64)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| (rng.gen_range(-span..span), rng.gen_range(-span..span))).collect()
    }

    #[test]
    fn morton2_roundtrip() {
        for cell in [(0u64, 0), (1, 2), (0x7FFF_FFFF, 0), (123456, 654321)] {
            assert_eq!(demorton2(morton2(cell)), cell);
        }
    }

    #[test]
    fn roundtrip_meets_bound() {
        let q = 0.02;
        let pts = random_points(3000, 20, 60.0);
        let codec = QuadtreeCodec;
        let enc = codec.encode(&pts, q);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.points.len(), pts.len());
        for (i, &(x, y)) in pts.iter().enumerate() {
            let (dx, dy) = dec.points[enc.mapping[i]];
            assert!((x - dx).abs() <= q + 1e-9, "x error at {i}");
            assert!((y - dy).abs() <= q + 1e-9, "y error at {i}");
        }
    }

    #[test]
    fn empty_input() {
        let codec = QuadtreeCodec;
        let enc = codec.encode(&[], 0.02);
        assert!(codec.decode(&enc.bytes).unwrap().points.is_empty());
    }

    #[test]
    fn single_and_duplicate_points() {
        let codec = QuadtreeCodec;
        let pts = vec![(3.0, 4.0); 5];
        let enc = codec.encode(&pts, 0.02);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.points.len(), 5);
        assert_eq!(enc.leaves, 1);
    }

    #[test]
    fn mapping_is_permutation() {
        let pts = random_points(500, 21, 2.0);
        let enc = QuadtreeCodec.encode(&pts, 0.1);
        let mut seen = vec![false; enc.mapping.len()];
        for &m in &enc.mapping {
            assert!(!seen[m]);
            seen[m] = true;
        }
    }

    #[test]
    fn truncation_detected() {
        let pts = random_points(300, 22, 10.0);
        let enc = QuadtreeCodec.encode(&pts, 0.02);
        assert!(QuadtreeCodec.decode(&enc.bytes[..enc.bytes.len() / 2]).is_err());
    }
}
