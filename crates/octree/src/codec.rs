//! Serialization of an [`Octree`] into a compressed bitstream and back.
//!
//! Stream layout:
//!
//! ```text
//! f64 origin.x | f64 origin.y | f64 origin.z | f64 side | varint depth |
//! varint leaf_count | varint rc_len | range-coded occupancy bytes |
//! int-frame of (multiplicity - 1) per leaf
//! ```
//!
//! The occupancy bytes are coded with an adaptive model; with
//! [`OccupancyContext::ParentCode`] every parent occupancy code selects its
//! own model — the Octree_i improvement of Garcia et al. \[21\].

use dbgc_codec::intseq;
use dbgc_codec::varint::{write_f64, write_uvarint, ByteReader};
use dbgc_codec::{
    AdaptiveModel, CodecError, ContextModel, LanedDecoder, LanedEncoder, RangeDecoder, RangeSource,
};
use dbgc_geom::{BoundingCube, Point3};

use crate::builder::{demorton3, Octree, MAX_DEPTH};

/// How occupancy bytes are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OccupancyContext {
    /// One shared adaptive model (baseline Octree coder \[7\]).
    #[default]
    None,
    /// One adaptive model per parent occupancy code (Octree_i \[21\]).
    ParentCode,
}

/// Result of encoding: the bitstream plus the input→output index mapping.
#[derive(Debug, Clone)]
pub struct OctreeEncodeResult {
    /// The compressed bitstream.
    pub bytes: Vec<u8>,
    /// `mapping[i]` is the index of input point `i` in the decoded output.
    pub mapping: Vec<usize>,
    /// Number of occupied leaves (for stats).
    pub leaves: usize,
    /// Tree depth written into the stream header (0 for an empty cloud).
    /// Spatial directories record it as the section's LOD depth.
    pub depth: u32,
}

/// Result of decoding.
#[derive(Debug, Clone)]
pub struct OctreeDecodeResult {
    /// Decoded points (leaf centres, duplicates preserved).
    pub points: Vec<Point3>,
    /// Root volume read from the header.
    pub cube: BoundingCube,
    /// Tree depth read from the header.
    pub depth: u32,
}

/// The octree geometry codec.
#[derive(Debug, Clone, Copy)]
pub struct OctreeCodec {
    /// Occupancy-byte modelling strategy.
    pub context: OccupancyContext,
    /// How many interleaved range-coder lanes (1, 2 or 4) code the occupancy
    /// bytes (see [`dbgc_codec::laned`]): symbol probabilities are unchanged,
    /// but the decoder's interval-state dependency chain is split across the
    /// lanes. Changes the occupancy framing — both ends must agree.
    pub lanes: usize,
}

impl OctreeCodec {
    /// The baseline coder of Botsch et al. \[7\].
    pub fn baseline() -> Self {
        OctreeCodec { context: OccupancyContext::None, lanes: 1 }
    }

    /// The Octree_i variant \[21\].
    pub fn parent_context() -> Self {
        OctreeCodec { context: OccupancyContext::ParentCode, lanes: 1 }
    }

    /// The same codec with the occupancy bytes coded over `lanes` lanes.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Compress `points` with leaf side `2·q_xyz` (per-axis error `<= q_xyz`).
    pub fn encode(&self, points: &[Point3], q_xyz: f64) -> OctreeEncodeResult {
        match Octree::build(points, q_xyz) {
            Some(tree) => self.encode_tree(&tree),
            None => OctreeEncodeResult {
                bytes: encode_empty(),
                mapping: Vec::new(),
                leaves: 0,
                depth: 0,
            },
        }
    }

    /// Compress an already-built tree.
    pub fn encode_tree(&self, tree: &Octree) -> OctreeEncodeResult {
        let mut out = Vec::new();
        write_f64(&mut out, tree.cube.origin.x);
        write_f64(&mut out, tree.cube.origin.y);
        write_f64(&mut out, tree.cube.origin.z);
        write_f64(&mut out, tree.cube.side);
        write_uvarint(&mut out, tree.depth as u64);
        write_uvarint(&mut out, tree.leaf_count() as u64);

        // Occupancy bytes, range-coded.
        let mut enc = LanedEncoder::new(self.lanes);
        self.encode_occupancy(tree, &mut enc);
        let occ = enc.finish();
        write_uvarint(&mut out, occ.len() as u64);
        out.extend_from_slice(&occ);

        // Multiplicities (usually 1) as (count - 1), always one lane.
        let extras: Vec<i64> = tree.leaf_counts.iter().map(|&c| c as i64 - 1).collect();
        intseq::compress_ints_rc(&mut out, &extras, 1);

        OctreeEncodeResult {
            bytes: out,
            mapping: tree.decode_mapping(),
            leaves: tree.leaf_count(),
            depth: tree.depth,
        }
    }

    fn encode_occupancy(&self, tree: &Octree, enc: &mut LanedEncoder) {
        match self.context {
            OccupancyContext::None => {
                // Alphabet 255: code 0 (no children) never occurs; shift by 1.
                let mut model = AdaptiveModel::new(255);
                for (_, code) in tree.occupancy_codes() {
                    debug_assert!(code != 0);
                    model.encode(enc, code as usize - 1);
                }
            }
            OccupancyContext::ParentCode => {
                let mut model = ContextModel::new(256, 255);
                for (parent, code) in tree.occupancy_codes() {
                    model.encode(enc, parent as usize, code as usize - 1);
                }
            }
        }
    }

    fn decode_occupancy<S: RangeSource>(
        &self,
        depth: u32,
        leaf_count: usize,
        dec: &mut S,
    ) -> Result<Option<Vec<u64>>, CodecError> {
        match self.context {
            OccupancyContext::None => {
                let mut model = AdaptiveModel::new(255);
                Octree::leaves_from_codes(depth, leaf_count, |_parent| {
                    model.decode(dec).map(|s| s as u8 + 1)
                })
            }
            OccupancyContext::ParentCode => {
                let mut model = ContextModel::new(256, 255);
                Octree::leaves_from_codes(depth, leaf_count, |parent| {
                    model.decode(dec, parent as usize).map(|s| s as u8 + 1)
                })
            }
        }
    }

    /// Decompress a stream produced by [`OctreeCodec::encode`]. The `context`
    /// and `lanes` must match the encoder's.
    ///
    /// Output is capped at [`DEFAULT_MAX_POINTS`] points; use
    /// [`OctreeCodec::decode_with_limit`] to pick a different budget.
    pub fn decode(&self, bytes: &[u8]) -> Result<OctreeDecodeResult, CodecError> {
        self.decode_with_limit(bytes, DEFAULT_MAX_POINTS)
    }

    /// Decompress with an explicit point budget: streams whose declared or
    /// reconstructed size exceeds `max_points` fail with a typed error
    /// before large allocations happen, so hostile headers cannot OOM the
    /// decoder.
    pub fn decode_with_limit(
        &self,
        bytes: &[u8],
        max_points: usize,
    ) -> Result<OctreeDecodeResult, CodecError> {
        let mut r = ByteReader::new(bytes);
        let ox = r.read_f64()?;
        let oy = r.read_f64()?;
        let oz = r.read_f64()?;
        let side = r.read_f64()?;
        // Coordinates are meters; anything near f64 extremes is a corrupt
        // header and would push leaf centres into inf/NaN.
        if ![ox, oy, oz, side].iter().all(|v| v.is_finite() && v.abs() <= 1e15) {
            return Err(CodecError::CorruptStream("octree header out of range"));
        }
        let depth = r.read_uvarint()? as u32;
        if depth > MAX_DEPTH {
            return Err(CodecError::CorruptStream("octree depth out of range"));
        }
        let leaf_count = r.read_uvarint()? as usize;
        if leaf_count > max_points {
            return Err(CodecError::CorruptStream("octree leaf count exceeds limit"));
        }
        let cube = BoundingCube::new(Point3::new(ox, oy, oz), side);
        if leaf_count == 0 {
            return Ok(OctreeDecodeResult { points: Vec::new(), cube, depth });
        }
        let occ_len = r.read_uvarint()? as usize;
        let occ = r.read_slice(occ_len)?;

        // One lane decodes through a plain `RangeDecoder`, whose state the
        // inlined model steps can keep in registers.
        let leaves = if self.lanes == 1 {
            self.decode_occupancy(depth, leaf_count, &mut RangeDecoder::new(occ))?
        } else {
            self.decode_occupancy(depth, leaf_count, &mut LanedDecoder::new(occ, self.lanes)?)?
        }
        .ok_or(CodecError::CorruptStream("octree leaf budget exceeded"))?;
        if leaves.len() != leaf_count {
            return Err(CodecError::CorruptStream("leaf count mismatch"));
        }

        let extras = intseq::decompress_ints_rc(&mut r, 1)?;
        if extras.len() != leaf_count {
            return Err(CodecError::CorruptStream("multiplicity count mismatch"));
        }
        let mut points = Vec::with_capacity(leaf_count);
        let mut total = 0usize;
        for (&key, &extra) in leaves.iter().zip(&extras) {
            if extra < 0 || extra > u32::MAX as i64 {
                return Err(CodecError::CorruptStream("invalid multiplicity"));
            }
            total = total.saturating_add(extra as usize + 1);
            if total > max_points {
                return Err(CodecError::CorruptStream("octree point count exceeds limit"));
            }
            let center = cube.cell_center(demorton3(key), depth);
            points.extend(std::iter::repeat(center).take(extra as usize + 1));
        }
        Ok(OctreeDecodeResult { points, cube, depth })
    }
}

/// Default decode budget: far above any real LiDAR frame (a full HDL-64E
/// sweep is ~131k points) while keeping hostile streams from demanding
/// gigabytes.
pub const DEFAULT_MAX_POINTS: usize = 1 << 24;

fn encode_empty() -> Vec<u8> {
    let mut out = Vec::new();
    write_f64(&mut out, 0.0);
    write_f64(&mut out, 0.0);
    write_f64(&mut out, 0.0);
    write_f64(&mut out, 0.0);
    write_uvarint(&mut out, 0); // depth
    write_uvarint(&mut out, 0); // leaves
    out
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
                    rng.gen_range(-2.0..6.0),
                )
            })
            .collect()
    }

    fn check_roundtrip(codec: OctreeCodec, points: &[Point3], q: f64) -> usize {
        let enc = codec.encode(points, q);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.points.len(), points.len(), "one-to-one mapping");
        for (i, &p) in points.iter().enumerate() {
            let d = dec.points[enc.mapping[i]];
            assert!(p.linf_dist(d) <= q + 1e-9, "point {i} error {}", p.linf_dist(d));
        }
        enc.bytes.len()
    }

    #[test]
    fn baseline_roundtrip() {
        let pts = random_cloud(5000, 10, 40.0);
        check_roundtrip(OctreeCodec::baseline(), &pts, 0.02);
    }

    #[test]
    fn parent_context_roundtrip() {
        let pts = random_cloud(5000, 11, 40.0);
        check_roundtrip(OctreeCodec::parent_context(), &pts, 0.02);
    }

    #[test]
    fn dense_cloud_compresses_better_than_sparse() {
        // The paper's Fig. 3 premise: octree ratio degrades with sparsity.
        let n = 20_000;
        let dense = random_cloud(n, 12, 4.0); // ~39 pts/m³
        let sparse = random_cloud(n, 13, 60.0); // ~0.01 pts/m³
        let q = 0.02;
        let dense_size = check_roundtrip(OctreeCodec::baseline(), &dense, q);
        let sparse_size = check_roundtrip(OctreeCodec::baseline(), &sparse, q);
        assert!(dense_size < sparse_size, "dense {dense_size} should beat sparse {sparse_size}");
    }

    #[test]
    fn dual_lane_roundtrip_both_contexts() {
        let pts = random_cloud(8000, 16, 30.0);
        check_roundtrip(OctreeCodec::baseline().with_lanes(2), &pts, 0.02);
        check_roundtrip(OctreeCodec::parent_context().with_lanes(2), &pts, 0.02);
    }

    #[test]
    fn dual_lane_size_overhead_is_bounded() {
        // Same models, same symbols: only the frame header and one extra
        // flush tail separate the two streams.
        let pts = random_cloud(8000, 17, 30.0);
        let single = OctreeCodec::baseline().encode(&pts, 0.02).bytes.len();
        let dual = OctreeCodec::baseline().with_lanes(2).encode(&pts, 0.02).bytes.len();
        assert!(dual <= single + 16, "dual {dual} vs single {single}");
    }

    #[test]
    fn dual_lane_stream_is_not_single_lane_compatible() {
        let pts = random_cloud(2000, 18, 20.0);
        let enc = OctreeCodec::baseline().with_lanes(2).encode(&pts, 0.02);
        // The plain decoder must reject or mis-frame it, never panic.
        let _ = OctreeCodec::baseline().decode(&enc.bytes);
    }

    #[test]
    fn wide_profile_roundtrip_both_contexts() {
        let pts = random_cloud(8000, 19, 30.0);
        check_roundtrip(OctreeCodec::baseline().with_lanes(4), &pts, 0.02);
        check_roundtrip(OctreeCodec::parent_context().with_lanes(4), &pts, 0.02);
    }

    #[test]
    fn wide_profile_size_overhead_is_bounded() {
        // Same models, same symbols: only the lane-length header and three
        // extra flush tails separate the wide stream from the narrow one.
        let pts = random_cloud(8000, 20, 30.0);
        let single = OctreeCodec::baseline().encode(&pts, 0.02).bytes.len();
        let wide = OctreeCodec::baseline().with_lanes(4).encode(&pts, 0.02).bytes.len();
        assert!(wide <= single + 48, "wide {wide} vs single {single}");
    }

    #[test]
    fn wide_profile_truncation_and_cross_profile_decode_never_panic() {
        let pts = random_cloud(2000, 21, 20.0);
        let wide = OctreeCodec::baseline().with_lanes(4);
        let enc = wide.encode(&pts, 0.02);
        for cut in [0, 10, 40, enc.bytes.len() / 2, enc.bytes.len() - 1] {
            assert!(wide.decode(&enc.bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
        // Mis-profiled decoders must reject or mis-frame, never panic.
        let _ = OctreeCodec::baseline().decode(&enc.bytes);
        let _ = OctreeCodec::baseline().with_lanes(2).decode(&enc.bytes);
    }

    #[test]
    fn empty_cloud() {
        let codec = OctreeCodec::baseline();
        let enc = codec.encode(&[], 0.02);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert!(dec.points.is_empty());
    }

    #[test]
    fn single_point() {
        let codec = OctreeCodec::baseline();
        let pts = vec![Point3::new(1.5, -2.5, 3.5)];
        check_roundtrip(codec, &pts, 0.02);
    }

    #[test]
    fn duplicates_preserved() {
        let codec = OctreeCodec::baseline();
        let mut pts = vec![Point3::new(1.0, 1.0, 1.0); 9];
        pts.push(Point3::new(2.0, 2.0, 2.0));
        let enc = codec.encode(&pts, 0.02);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.points.len(), 10);
    }

    #[test]
    fn truncated_stream_is_error() {
        let pts = random_cloud(500, 14, 10.0);
        let enc = OctreeCodec::baseline().encode(&pts, 0.02);
        for cut in [0, 10, 40, enc.bytes.len() - 1] {
            assert!(
                OctreeCodec::baseline().decode(&enc.bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn coarser_bound_gives_smaller_stream() {
        let pts = random_cloud(10_000, 15, 30.0);
        let fine = OctreeCodec::baseline().encode(&pts, 0.005).bytes.len();
        let coarse = OctreeCodec::baseline().encode(&pts, 0.08).bytes.len();
        assert!(coarse < fine, "coarse {coarse} vs fine {fine}");
    }
}
