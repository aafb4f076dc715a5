//! Optimized outlier compression (§3.6, Table 2).
//!
//! Outliers are sparse points on no polyline — typically far, isolated
//! returns spread over the `xoy` plane while the z range stays small (LiDAR
//! vertical FOV is narrow). DBGC therefore encodes `(x, y)` with a 2D
//! quadtree and carries `z` as a separate delta-coded attribute channel.
//! Table 2's alternatives — a 3D octree, and storing raw coordinates — are
//! provided for the ablation.

use dbgc_codec::varint::{write_uvarint, ByteReader};
use dbgc_codec::{intseq, CodecError};
use dbgc_geom::quant::{dequantize, quantize};
use dbgc_geom::Point3;
use dbgc_octree::builder::MAX_DEPTH;
use dbgc_octree::quadtree::MAX_DEPTH_2D;
use dbgc_octree::{Octree, OctreeCodec, QuadtreeCodec};

use crate::config::OutlierMode;
use crate::DbgcError;

/// Refuse outliers whose tree under `mode` would need more levels than its
/// codec writes at leaf side `2·q_xyz`, where [`encode_outliers`] would
/// clamp the depth and break the error bound. The depth is the one the
/// codec itself derives, so the check and the encoder cannot disagree.
pub(crate) fn check_outlier_depth(
    points: &[Point3],
    q_xyz: f64,
    mode: OutlierMode,
) -> Result<(), DbgcError> {
    let (depth, max_depth) = match mode {
        OutlierMode::Quadtree => {
            let xy: Vec<(f64, f64)> = points.iter().map(|p| (p.x, p.y)).collect();
            (QuadtreeCodec::required_depth(&xy, q_xyz), MAX_DEPTH_2D)
        }
        OutlierMode::Octree => (Octree::required_depth(points, q_xyz), MAX_DEPTH),
        OutlierMode::None => return Ok(()),
    };
    if depth > max_depth {
        return Err(DbgcError::TreeTooDeep { section: "outlier", depth, max_depth });
    }
    Ok(())
}

/// Encode `points` under `mode`; returns the input→output index mapping.
pub fn encode_outliers(
    out: &mut Vec<u8>,
    points: &[Point3],
    q_xyz: f64,
    mode: OutlierMode,
) -> Vec<usize> {
    out.push(mode_tag(mode));
    match mode {
        OutlierMode::Quadtree => {
            let xy: Vec<(f64, f64)> = points.iter().map(|p| (p.x, p.y)).collect();
            let enc = QuadtreeCodec.encode(&xy, q_xyz);
            write_uvarint(out, enc.bytes.len() as u64);
            out.extend_from_slice(&enc.bytes);
            // z channel in decoded order, then delta + arithmetic coding.
            let step = 2.0 * q_xyz;
            let mut z_dec = vec![0i64; points.len()];
            for (i, p) in points.iter().enumerate() {
                z_dec[enc.mapping[i]] = quantize(p.z, step);
            }
            intseq::compress_ints_delta_rc(out, &z_dec, 1);
            enc.mapping
        }
        OutlierMode::Octree => {
            let enc = OctreeCodec::baseline().encode(points, q_xyz);
            write_uvarint(out, enc.bytes.len() as u64);
            out.extend_from_slice(&enc.bytes);
            enc.mapping
        }
        OutlierMode::None => {
            write_uvarint(out, points.len() as u64);
            for p in points {
                out.extend_from_slice(&(p.x as f32).to_le_bytes());
                out.extend_from_slice(&(p.y as f32).to_le_bytes());
                out.extend_from_slice(&(p.z as f32).to_le_bytes());
            }
            (0..points.len()).collect()
        }
    }
}

/// Decode outliers written by [`encode_outliers`].
///
/// `max_points` bounds the decoded outlier count; hostile streams that claim
/// more fail with a typed error before large allocations happen.
pub fn decode_outliers(
    r: &mut ByteReader<'_>,
    q_xyz: f64,
    max_points: usize,
) -> Result<Vec<Point3>, CodecError> {
    let mode = tag_mode(r.read_u8()?)?;
    match mode {
        OutlierMode::Quadtree => {
            let len = r.read_uvarint()? as usize;
            let bytes = r.read_slice(len)?;
            let xy = QuadtreeCodec.decode_with_limit(bytes, max_points)?;
            let z = intseq::decompress_ints_delta_rc(r, 1)?;
            if z.len() != xy.points.len() {
                return Err(CodecError::CorruptStream("outlier z-channel length mismatch"));
            }
            let step = 2.0 * q_xyz;
            Ok(xy
                .points
                .iter()
                .zip(&z)
                .map(|(&(x, y), &zq)| Point3::new(x, y, dequantize(zq, step)))
                .collect())
        }
        OutlierMode::Octree => {
            let len = r.read_uvarint()? as usize;
            let bytes = r.read_slice(len)?;
            Ok(OctreeCodec::baseline().decode_with_limit(bytes, max_points)?.points)
        }
        OutlierMode::None => {
            let n = r.read_uvarint()? as usize;
            // Each raw point costs 12 bytes, so the remaining buffer bounds n
            // exactly; the limit check keeps the error typed and uniform.
            if n > max_points || n > r.remaining() / 12 {
                return Err(CodecError::CorruptStream("outlier count exceeds limit"));
            }
            let mut pts = Vec::with_capacity(n);
            for _ in 0..n {
                let bytes = r.read_slice(12)?;
                let f = |i: usize| {
                    f32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes")) as f64
                };
                pts.push(Point3::new(f(0), f(1), f(2)));
            }
            Ok(pts)
        }
    }
}

fn mode_tag(mode: OutlierMode) -> u8 {
    match mode {
        OutlierMode::Quadtree => 0,
        OutlierMode::Octree => 1,
        OutlierMode::None => 2,
    }
}

fn tag_mode(tag: u8) -> Result<OutlierMode, CodecError> {
    match tag {
        0 => Ok(OutlierMode::Quadtree),
        1 => Ok(OutlierMode::Octree),
        2 => Ok(OutlierMode::None),
        _ => Err(CodecError::CorruptStream("unknown outlier mode tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn far_flat_outliers(n: usize, seed: u64) -> Vec<Point3> {
        // Typical outliers: far returns spread over the xoy plane with a
        // narrow, spatially coherent z (mostly distant ground/low objects).
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let r = rng.gen_range(50.0..110.0);
                let th = rng.gen_range(0.0..std::f64::consts::TAU);
                let z = -1.73 + 0.004 * r + rng.gen_range(-0.05..0.05);
                Point3::new(r * th.cos(), r * th.sin(), z)
            })
            .collect()
    }

    fn check(points: &[Point3], q: f64, mode: OutlierMode, tol: f64) -> usize {
        let mut out = Vec::new();
        let mapping = encode_outliers(&mut out, points, q, mode);
        let mut r = ByteReader::new(&out);
        let dec = decode_outliers(&mut r, q, 1 << 24).unwrap();
        assert!(r.is_empty());
        assert_eq!(dec.len(), points.len());
        for (i, p) in points.iter().enumerate() {
            let d = dec[mapping[i]];
            assert!(p.linf_dist(d) <= tol, "point {i} err {}", p.linf_dist(d));
        }
        out.len()
    }

    #[test]
    fn quadtree_mode_meets_bound() {
        let pts = far_flat_outliers(1200, 110);
        check(&pts, 0.02, OutlierMode::Quadtree, 0.02 + 1e-9);
    }

    #[test]
    fn octree_mode_meets_bound() {
        let pts = far_flat_outliers(1200, 111);
        check(&pts, 0.02, OutlierMode::Octree, 0.02 + 1e-9);
    }

    #[test]
    fn none_mode_is_exact_to_f32() {
        let pts = far_flat_outliers(300, 112);
        // f32 rounding at ~100 m is ~1e-5.
        check(&pts, 0.02, OutlierMode::None, 1e-4);
    }

    #[test]
    fn quadtree_beats_octree_beats_none() {
        // Table 2's ordering on typical outlier geometry.
        let pts = far_flat_outliers(2000, 113);
        let q = 0.02;
        let quad = check(&pts, q, OutlierMode::Quadtree, q + 1e-9);
        let oct = check(&pts, q, OutlierMode::Octree, q + 1e-9);
        let none = check(&pts, q, OutlierMode::None, 1e-4);
        assert!(quad <= oct, "quadtree {quad} vs octree {oct}");
        assert!(oct < none, "octree {oct} vs none {none}");
    }

    #[test]
    fn empty_outliers() {
        for mode in [OutlierMode::Quadtree, OutlierMode::Octree, OutlierMode::None] {
            let mut out = Vec::new();
            let mapping = encode_outliers(&mut out, &[], 0.02, mode);
            assert!(mapping.is_empty());
            let mut r = ByteReader::new(&out);
            assert!(decode_outliers(&mut r, 0.02, 1 << 24).unwrap().is_empty());
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let buf = [9u8];
        let mut r = ByteReader::new(&buf);
        assert!(decode_outliers(&mut r, 0.02, 1 << 24).is_err());
    }
}
