//! A Draco-style kd-tree point-cloud geometry coder (baseline of paper §4.1).
//!
//! Google Draco \[23\] compresses geometry by quantizing coordinates to `qb`
//! bits and recursively bisecting the integer cell along its widest axis,
//! encoding at every split how many points fall into the lower half. With `n`
//! points in a node the count is uniform in `[0, n]`, so it costs about
//! `log₂(n+1)` bits via the range coder; the positions themselves are never
//! written — they are implied by the cell boundaries when recursion bottoms
//! out.
//!
//! The paper drives Draco by choosing `qb` to match a target error bound
//! `q_xyz` (`q_xyz = Ω / 2^qb` with `Ω` the widest bounding-box side). We
//! reconstruct points at cell centres, so we need cell side `<= 2·q_xyz`,
//! i.e. `qb = ceil(log₂(Ω / (2·q_xyz)))`.

#![warn(missing_docs)]

use dbgc_codec::varint::{write_f64, write_uvarint, ByteReader};
use dbgc_codec::{CodecError, RangeDecoder, RangeEncoder};
use dbgc_geom::{Aabb, Point3};

/// Maximum quantization bits per axis.
pub const MAX_QB: u32 = 30;

/// Default decode budget: far above any real LiDAR frame while keeping
/// hostile declared counts from demanding gigabytes.
pub const DEFAULT_MAX_POINTS: usize = 1 << 24;

/// Result of encoding.
#[derive(Debug, Clone)]
pub struct KdEncodeResult {
    /// The compressed bitstream.
    pub bytes: Vec<u8>,
    /// `mapping[i]` is the index of input point `i` in the decoded output.
    pub mapping: Vec<usize>,
    /// The quantization bits actually used.
    pub qb: u32,
}

/// Result of decoding.
#[derive(Debug, Clone)]
pub struct KdDecodeResult {
    /// Decoded points (cell centres, duplicates preserved).
    pub points: Vec<Point3>,
}

/// The kd-tree geometry codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct KdTreeCodec;

/// Quantization bits needed for error bound `q_xyz` on a box of widest side
/// `omega` when reconstructing at cell centres.
pub fn qb_for_error_bound(omega: f64, q_xyz: f64) -> u32 {
    assert!(q_xyz > 0.0);
    if omega <= 2.0 * q_xyz {
        return 1;
    }
    let qb = (omega / (2.0 * q_xyz)).log2().ceil() as u32;
    // Guard against floating-point slop.
    let qb = if omega / (1u64 << qb.min(62)) as f64 > 2.0 * q_xyz { qb + 1 } else { qb };
    qb.clamp(1, MAX_QB)
}

struct NodeTask {
    /// Range into the permutation array.
    start: usize,
    end: usize,
    /// Cell minimum (inclusive) per axis, in quantized units.
    min: [u32; 3],
    /// log2 of cell extent per axis.
    bits: [u32; 3],
}

impl KdTreeCodec {
    /// Compress with an explicit bit budget per axis.
    pub fn encode_with_qb(&self, points: &[Point3], qb: u32) -> KdEncodeResult {
        assert!((1..=MAX_QB).contains(&qb));
        let mut out = Vec::new();
        let Some(bb) = Aabb::from_points(points) else {
            write_uvarint(&mut out, 0);
            return KdEncodeResult { bytes: out, mapping: Vec::new(), qb };
        };
        let omega = bb.longest_side().max(f64::MIN_POSITIVE);
        let cells = 1u64 << qb;
        let step = omega * (1.0 + 1e-12) / cells as f64;

        write_uvarint(&mut out, points.len() as u64);
        write_f64(&mut out, bb.min.x);
        write_f64(&mut out, bb.min.y);
        write_f64(&mut out, bb.min.z);
        write_f64(&mut out, step);
        write_uvarint(&mut out, qb as u64);

        let quantized: Vec<[u32; 3]> = points
            .iter()
            .map(|p| {
                let q = |v: f64, lo: f64| (((v - lo) / step) as u64).min(cells - 1) as u32;
                [q(p.x, bb.min.x), q(p.y, bb.min.y), q(p.z, bb.min.z)]
            })
            .collect();

        // perm[k] = original index of the k-th point in DFS output order.
        let mut perm: Vec<u32> = (0..points.len() as u32).collect();
        let mut enc = RangeEncoder::new();
        let mut stack = vec![NodeTask { start: 0, end: points.len(), min: [0; 3], bits: [qb; 3] }];
        while let Some(task) = stack.pop() {
            let n = task.end - task.start;
            if n == 0 {
                continue;
            }
            let axis = (0..3).max_by_key(|&a| task.bits[a]).expect("3 axes");
            if task.bits[axis] == 0 {
                // Cell is a single quantized position: nothing more to code.
                continue;
            }
            let half_bits = task.bits[axis] - 1;
            let split = task.min[axis] + (1u32 << half_bits);
            // Stable partition of perm[start..end] by the split plane.
            let (mut lo, mut hi): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
            for &idx in &perm[task.start..task.end] {
                if quantized[idx as usize][axis] < split {
                    lo.push(idx);
                } else {
                    hi.push(idx);
                }
            }
            let n_left = lo.len();
            perm[task.start..task.start + n_left].copy_from_slice(&lo);
            perm[task.start + n_left..task.end].copy_from_slice(&hi);
            // Encode |left| uniform over [0, n].
            enc.encode(n_left as u64, 1, n as u64 + 1);

            let mut right = task.min;
            right[axis] = split;
            let mut child_bits = task.bits;
            child_bits[axis] = half_bits;
            // Push right first so the left child is processed first (DFS
            // pre-order must match the decoder).
            if task.end - task.start - n_left > 0 {
                stack.push(NodeTask {
                    start: task.start + n_left,
                    end: task.end,
                    min: right,
                    bits: child_bits,
                });
            }
            if n_left > 0 {
                stack.push(NodeTask {
                    start: task.start,
                    end: task.start + n_left,
                    min: task.min,
                    bits: child_bits,
                });
            }
        }
        out.extend_from_slice(&enc.finish());

        let mut mapping = vec![0usize; points.len()];
        for (pos, &orig) in perm.iter().enumerate() {
            mapping[orig as usize] = pos;
        }
        KdEncodeResult { bytes: out, mapping, qb }
    }

    /// Compress `points` so the per-axis reconstruction error is `<= q_xyz`.
    pub fn encode(&self, points: &[Point3], q_xyz: f64) -> KdEncodeResult {
        let omega = Aabb::from_points(points).map(|bb| bb.longest_side()).unwrap_or(0.0);
        self.encode_with_qb(points, qb_for_error_bound(omega.max(f64::MIN_POSITIVE), q_xyz))
    }

    /// Decompress a stream produced by the encoder.
    ///
    /// Output is capped at [`DEFAULT_MAX_POINTS`] points; use
    /// [`KdTreeCodec::decode_with_limit`] to pick a different budget.
    pub fn decode(&self, bytes: &[u8]) -> Result<KdDecodeResult, CodecError> {
        self.decode_with_limit(bytes, DEFAULT_MAX_POINTS)
    }

    /// Decompress with an explicit point budget: a declared count above
    /// `max_points` fails with a typed error before any allocation sized by
    /// untrusted input.
    pub fn decode_with_limit(
        &self,
        bytes: &[u8],
        max_points: usize,
    ) -> Result<KdDecodeResult, CodecError> {
        let mut r = ByteReader::new(bytes);
        let n = r.read_uvarint()? as usize;
        if n == 0 {
            return Ok(KdDecodeResult { points: Vec::new() });
        }
        if n > max_points {
            return Err(CodecError::CorruptStream("kd point count exceeds limit"));
        }
        let min_x = r.read_f64()?;
        let min_y = r.read_f64()?;
        let min_z = r.read_f64()?;
        let step = r.read_f64()?;
        if ![min_x, min_y, min_z, step].iter().all(|v| v.is_finite() && v.abs() <= 1e15) {
            return Err(CodecError::CorruptStream("kd header out of range"));
        }
        let qb = r.read_uvarint()? as u32;
        if !(1..=MAX_QB).contains(&qb) {
            return Err(CodecError::CorruptStream("kd qb out of range"));
        }
        let coded = r.read_slice(r.remaining())?;
        let mut dec = RangeDecoder::new(coded);

        let mut points = Vec::with_capacity(n);
        struct DecTask {
            n: usize,
            min: [u32; 3],
            bits: [u32; 3],
        }
        let mut stack = vec![DecTask { n, min: [0; 3], bits: [qb; 3] }];
        while let Some(task) = stack.pop() {
            if task.n == 0 {
                continue;
            }
            let axis = (0..3).max_by_key(|&a| task.bits[a]).expect("3 axes");
            if task.bits[axis] == 0 {
                // Terminal cell: emit n duplicates at the cell centre.
                let p = Point3::new(
                    min_x + (task.min[0] as f64 + 0.5) * step,
                    min_y + (task.min[1] as f64 + 0.5) * step,
                    min_z + (task.min[2] as f64 + 0.5) * step,
                );
                points.extend(std::iter::repeat(p).take(task.n));
                continue;
            }
            let total = task.n as u64 + 1;
            let (off, r) = dec.decode_target(total)?;
            let n_left = off / r;
            dec.decode_with(n_left, 1, total, r);
            let n_left = n_left as usize;

            let half_bits = task.bits[axis] - 1;
            let mut right = task.min;
            right[axis] = task.min[axis] + (1u32 << half_bits);
            let mut child_bits = task.bits;
            child_bits[axis] = half_bits;
            if task.n - n_left > 0 {
                stack.push(DecTask { n: task.n - n_left, min: right, bits: child_bits });
            }
            if n_left > 0 {
                stack.push(DecTask { n: n_left, min: task.min, bits: child_bits });
            }
        }
        if points.len() != n {
            return Err(CodecError::CorruptStream("kd decoded point count mismatch"));
        }
        Ok(KdDecodeResult { points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_cloud(n: usize, seed: u64, span: f64) -> Vec<Point3> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.gen_range(-span..span),
                    rng.gen_range(-span..span),
                    rng.gen_range(-3.0..9.0),
                )
            })
            .collect()
    }

    fn check_roundtrip(points: &[Point3], q: f64) -> usize {
        let codec = KdTreeCodec;
        let enc = codec.encode(points, q);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.points.len(), points.len());
        for (i, &p) in points.iter().enumerate() {
            let d = dec.points[enc.mapping[i]];
            assert!(p.linf_dist(d) <= q + 1e-9, "point {i}: err {} > {q}", p.linf_dist(d));
        }
        enc.bytes.len()
    }

    #[test]
    fn qb_matches_bound() {
        assert_eq!(qb_for_error_bound(1.0, 0.5), 1);
        let qb = qb_for_error_bound(80.0, 0.02);
        assert!(80.0 / (1u64 << qb) as f64 <= 0.04 + 1e-12);
        assert!(qb <= 12);
    }

    #[test]
    fn roundtrip_random() {
        let pts = random_cloud(4000, 30, 40.0);
        check_roundtrip(&pts, 0.02);
    }

    #[test]
    fn roundtrip_coarse() {
        let pts = random_cloud(4000, 31, 40.0);
        let fine = check_roundtrip(&pts, 0.005);
        let coarse = check_roundtrip(&pts, 0.16);
        assert!(coarse < fine);
    }

    #[test]
    fn empty_and_single() {
        check_roundtrip(&[], 0.02);
        check_roundtrip(&[Point3::new(1.0, 2.0, 3.0)], 0.02);
    }

    #[test]
    fn duplicates_preserved() {
        let pts = vec![Point3::new(0.5, 0.5, 0.5); 12];
        let enc = KdTreeCodec.encode(&pts, 0.02);
        let dec = KdTreeCodec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.points.len(), 12);
    }

    #[test]
    fn clustered_beats_uniform() {
        // kd coders share split bits among co-located points.
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let clustered: Vec<Point3> = (0..5000)
            .map(|i| {
                let c = (i % 5) as f64 * 15.0;
                Point3::new(
                    c + rng.gen_range(-0.5..0.5),
                    c + rng.gen_range(-0.5..0.5),
                    rng.gen_range(-0.5..0.5),
                )
            })
            .collect();
        let uniform = random_cloud(5000, 33, 40.0);
        let cs = check_roundtrip(&clustered, 0.02);
        let us = check_roundtrip(&uniform, 0.02);
        assert!(cs < us, "clustered {cs} vs uniform {us}");
    }

    #[test]
    fn truncated_stream_fails_or_differs() {
        let pts = random_cloud(1000, 34, 20.0);
        let enc = KdTreeCodec.encode(&pts, 0.02);
        // Cutting the header must error; cutting coded payload may decode
        // garbage but must not panic.
        assert!(KdTreeCodec.decode(&enc.bytes[..8]).is_err());
        let _ = KdTreeCodec.decode(&enc.bytes[..enc.bytes.len() - 4]);
    }
}
