//! Annotated full decode: the differential oracle.
//!
//! [`decode_annotated`] walks every section of a stream with the decoder
//! [`dbgc::decompress()`] uses ([`dbgc::layout::decode_body`]), so it keeps
//! the same section order, budgets and strictness, but tags every point
//! with its provenance: density class, LOD depth and sparse-group index. It
//! never consults the planner or the index. Queries answered by filtering
//! its output with [`Query::matches`](crate::Query::matches) are the ground
//! truth that [`FrameStore::query`](crate::FrameStore::query) is tested
//! against.

use dbgc::layout::{decode_body, parse_header, section_spans, PointSink, Section};
use dbgc::{split_index_trailer, IndexTrailer};
use dbgc_geom::Point3;

use crate::query::DensityClass;
use crate::StoreError;

/// One decoded point plus the provenance a [`crate::Query`] can see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotatedPoint {
    /// Decoded position (bit-identical to `dbgc::decompress` output).
    pub pos: Point3,
    /// Stream section the point came from.
    pub class: DensityClass,
    /// LOD depth: the dense octree's depth for dense points, 0 otherwise.
    pub lod_depth: u32,
    /// Sparse-group index for [`DensityClass::Sparse`] points.
    pub group: Option<u32>,
}

impl AnnotatedPoint {
    /// `pos`, decoded from `section` at LOD depth `lod_depth`.
    pub(crate) fn new(pos: Point3, section: Section, lod_depth: u32) -> AnnotatedPoint {
        let group = match section {
            Section::Group(g) => Some(g as u32),
            _ => None,
        };
        AnnotatedPoint { pos, class: DensityClass::of(section), lod_depth, group }
    }
}

/// A fully decoded, annotated frame in canonical decode order.
#[derive(Debug, Clone, Default)]
pub struct AnnotatedCloud {
    /// Points in the exact order `dbgc::decompress` emits them.
    pub points: Vec<AnnotatedPoint>,
}

impl PointSink for AnnotatedCloud {
    fn open(&mut self, _: Section, left: usize) -> Option<usize> {
        Some(left)
    }

    fn push(&mut self, pos: Point3, section: Section, depth: u32) {
        self.points.push(AnnotatedPoint::new(pos, section, depth));
    }
}

/// Decode `bytes` completely, annotating each point with its provenance.
///
/// Accepts index-less v1 streams, indexed streams (the CRC-valid trailer is
/// skipped) and streams whose trailer is corrupt (the recoverable body is
/// decoded). Point positions and order are bit-identical to
/// [`dbgc::decompress()`] on the same input.
pub fn decode_annotated(bytes: &[u8]) -> Result<AnnotatedCloud, StoreError> {
    let body = match split_index_trailer(bytes) {
        IndexTrailer::Valid { body, .. } | IndexTrailer::Corrupt { body } => body,
        IndexTrailer::None => bytes,
    };
    let header = parse_header(body)?;
    let spans = section_spans(body, &header)?;
    let mut cloud =
        AnnotatedCloud { points: Vec::with_capacity(header.declared_points.min(body.len())) };
    decode_body(body, &header, &spans, &mut cloud, None)?;
    Ok(cloud)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgc::{decompress, Dbgc, DbgcConfig};
    use dbgc_geom::{Point3, PointCloud};
    use rand::{Rng, SeedableRng};

    fn cloud(seed: u64, n: usize) -> PointCloud {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let th = rng.gen_range(0.0..std::f64::consts::TAU);
                let r = rng.gen_range(2.0..40.0);
                Point3::new(r * th.cos(), r * th.sin(), rng.gen_range(-2.0..6.0))
            })
            .collect()
    }

    #[test]
    fn annotations_match_sequential_decode() {
        let cloud = cloud(41, 4000);
        for indexed in [false, true] {
            let cfg = DbgcConfig::with_error_bound(0.02).with_spatial_index(indexed);
            let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
            let (plain, _) = decompress(&frame.bytes).unwrap();
            let ann = decode_annotated(&frame.bytes).unwrap();
            assert_eq!(ann.points.len(), plain.len());
            for (a, p) in ann.points.iter().zip(plain.points()) {
                assert_eq!(a.pos, *p, "annotated decode must be bit-identical");
            }
            let stats = &frame.stats;
            let dense = ann.points.iter().filter(|p| p.class == DensityClass::Dense).count();
            let sparse = ann.points.iter().filter(|p| p.class == DensityClass::Sparse).count();
            let outlier = ann.points.iter().filter(|p| p.class == DensityClass::Outlier).count();
            assert_eq!(dense, stats.dense_points);
            assert_eq!(sparse, stats.sparse_points);
            assert_eq!(outlier, stats.outlier_points);
        }
    }

    #[test]
    fn corrupt_trailer_still_decodes_body() {
        let cloud = cloud(42, 1500);
        let cfg = DbgcConfig::with_error_bound(0.02).with_spatial_index(true);
        let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
        let mut bytes = frame.bytes.clone();
        let info = dbgc::inspect(&bytes).unwrap();
        assert!(info.index_bytes > 0);
        // Flip a bit inside the trailer payload: strict decompress refuses,
        // the oracle recovers the body.
        let at = bytes.len() - info.index_bytes + 6;
        bytes[at] ^= 0x40;
        assert!(decompress(&bytes).is_err());
        let ann = decode_annotated(&bytes).unwrap();
        assert_eq!(ann.points.len(), cloud.len());
    }

    #[test]
    fn garbage_is_rejected_without_panic() {
        assert!(decode_annotated(b"not a stream").is_err());
        assert!(decode_annotated(&[]).is_err());
    }
}
