//! The DBGC decompressor (paper §3.7, Fig. 2 server side).
//!
//! Finds the bitstream's sections and walks them with
//! [`layout::decode_body`](crate::layout::decode_body), which decodes each
//! with the matching decompressor and converts polyline points back from
//! spherical to Cartesian coordinates, into one cloud:
//! `[dense | group 0 polylines | … | group N−1 polylines | outliers]`.

use std::time::Duration;

use dbgc_geom::PointCloud;
use dbgc_metrics::Collector;

use crate::index::{split_index_trailer, IndexTrailer};
use crate::layout::{decode_body, parse_header, section_spans};
use crate::DbgcError;

/// Decompression timing, mirroring the compression breakdown of Fig. 13.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecompressStats {
    /// Octree decoding.
    pub oct: Duration,
    /// Sparse coordinate decompression (frames + radial reconstruction).
    pub spa: Duration,
    /// Spherical → Cartesian conversion.
    pub cor: Duration,
    /// Outlier decoding.
    pub out: Duration,
}

impl DecompressStats {
    /// Sum of all decompression phases.
    pub fn total(&self) -> Duration {
        self.oct + self.spa + self.cor + self.out
    }
}

/// Decompress a DBGC bitstream into a point cloud.
pub fn decompress(bytes: &[u8]) -> Result<(PointCloud, DecompressStats), DbgcError> {
    decompress_impl(bytes, None)
}

/// [`decompress`], recording observability data into `collector`: a
/// `decompress` span with `oct`/`spa`/`cor`/`out` stage children (one
/// `spa`/`cor` pair per radial group) and frame/point/byte counters. The
/// decoded cloud is identical to the uninstrumented path.
pub fn decompress_with_metrics(
    bytes: &[u8],
    collector: &Collector,
) -> Result<(PointCloud, DecompressStats), DbgcError> {
    decompress_impl(bytes, Some(collector))
}

fn decompress_impl(
    bytes: &[u8],
    m: Option<&Collector>,
) -> Result<(PointCloud, DecompressStats), DbgcError> {
    let root = m.map(|c| c.span("decompress"));
    // A CRC-valid index trailer is metadata for archive queries, not point
    // data: strip it before the walk so index-aware streams decode to
    // exactly the cloud their index-less body encodes. Corrupt or absent
    // trailers leave the input untouched (a genuinely index-less stream must
    // not lose tail bytes to a magic coincidence).
    let body = match split_index_trailer(bytes) {
        IndexTrailer::Valid { body, .. } => body,
        _ => bytes,
    };
    let h = parse_header(body)?;
    let spans = section_spans(body, &h)?;
    // Reservation is clamped; growth beyond it is paced by actual decode.
    let mut cloud = PointCloud::with_capacity(h.declared_points.min(1 << 20));
    let stats = decode_body(body, &h, &spans, &mut cloud, root.as_ref())?;
    if let Some(c) = m {
        c.incr("decompress.frames", 1);
        c.incr("decompress.points_out", cloud.len() as u64);
        c.record("decompress.bytes_per_frame", bytes.len() as u64);
    }
    Ok((cloud, stats))
}

/// Structural information about a DBGC stream, read from headers and frame
/// lengths without decoding any point data.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// Error bound `q_xyz` the stream was encoded with.
    pub q_xyz: f64,
    /// Whether sparse channels are spherical (vs the −Conversion ablation).
    pub spherical: bool,
    /// Whether the radial-optimized encoding was used.
    pub radial: bool,
    /// Number of radial groups.
    pub groups: usize,
    /// Total point count.
    pub points: usize,
    /// Size of the dense (octree) section in bytes, including its length tag.
    pub dense_bytes: usize,
    /// Combined size of the sparse group sections in bytes.
    pub sparse_bytes: usize,
    /// Size of the outlier section in bytes.
    pub outlier_bytes: usize,
    /// Size of the (CRC-valid) spatial-index trailer in bytes, including its
    /// framing; 0 for index-less streams.
    pub index_bytes: usize,
    /// Total stream size.
    pub total_bytes: usize,
}

impl StreamInfo {
    /// Compression ratio against 12-byte raw points.
    pub fn compression_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.points as f64 * 12.0 / self.total_bytes as f64
        }
    }
}

/// Inspect a DBGC stream without decompressing it.
///
/// Walks the section framing only; cheap (microseconds) even for large
/// frames. Fails on the same malformed headers [`decompress`] would reject.
pub fn inspect(bytes: &[u8]) -> Result<StreamInfo, DbgcError> {
    let body = match split_index_trailer(bytes) {
        IndexTrailer::Valid { body, .. } => body,
        _ => bytes,
    };
    let h = parse_header(body)?;
    let spans = section_spans(body, &h)?;
    Ok(StreamInfo {
        q_xyz: h.q_xyz,
        spherical: h.spherical,
        radial: h.radial,
        groups: h.n_groups,
        points: h.declared_points,
        dense_bytes: spans.dense.len(),
        sparse_bytes: spans.groups.iter().map(|g| g.len()).sum(),
        outlier_bytes: spans.outlier.len(),
        index_bytes: bytes.len() - body.len(),
        total_bytes: bytes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dbgc;
    use dbgc_geom::Point3;

    fn ring_cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let th = i as f64 / n as f64 * std::f64::consts::TAU;
                Point3::new(18.0 * th.cos(), 18.0 * th.sin(), -1.7)
            })
            .collect()
    }

    #[test]
    fn inspect_matches_compressor_stats() {
        let cloud = ring_cloud(4000);
        let frame = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap();
        let info = inspect(&frame.bytes).unwrap();
        assert_eq!(info.points, cloud.len());
        assert_eq!(info.total_bytes, frame.bytes.len());
        assert_eq!(info.dense_bytes, frame.stats.sections.dense);
        assert_eq!(info.sparse_bytes, frame.stats.sections.sparse);
        assert_eq!(info.outlier_bytes, frame.stats.sections.outlier);
        assert!(info.spherical && info.radial);
        assert_eq!(info.groups, 3);
        assert!((info.q_xyz - 0.02).abs() < 1e-15);
        assert!((info.compression_ratio() - frame.compression_ratio()).abs() < 1e-9);
    }

    /// Compresses under `profile`, checks the stream carries `version`, and
    /// decodes it to the v1 cloud bit for bit: the profile changes the
    /// entropy transport, never the reconstruction. The size gap to v1 is
    /// bounded by the lane overhead of the profile's range-coded frames.
    fn assert_roundtrips_under_version(profile: crate::EntropyProfile, version: u8, gap: usize) {
        let cloud = ring_cloud(3000);
        let v1 = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap();
        assert_eq!(v1.bytes[4], 1);
        let cfg = crate::DbgcConfig::with_error_bound(0.02).with_entropy_profile(profile);
        let frame = Dbgc::new(cfg.clone()).compress(&cloud).unwrap();
        assert_eq!(frame.bytes[4], version, "{profile:?} frames carry stream version {version}");
        let (decoded, _) = decompress(&frame.bytes).unwrap();
        crate::verify::verify_roundtrip(&cloud, &decoded, &frame, cfg.q_xyz).unwrap();
        assert!(frame.bytes.len() <= v1.bytes.len() + gap, "{profile:?}");
        assert!(inspect(&frame.bytes).is_ok());
        let bits = |c: &PointCloud| -> Vec<[u64; 3]> {
            c.points().iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
        };
        let (v1_decoded, _) = decompress(&v1.bytes).unwrap();
        assert_eq!(bits(&decoded), bits(&v1_decoded), "{profile:?} decode differs from v1");
    }

    #[test]
    fn dual_lane_stream_roundtrips_under_version_2() {
        // Only the dense occupancy frame is laned.
        assert_roundtrips_under_version(crate::EntropyProfile::Dual, 2, 32);
    }

    #[test]
    fn wide_stream_roundtrips_under_version_3() {
        // Dense occupancy plus 6 rc frames per radial group are laned.
        assert_roundtrips_under_version(crate::EntropyProfile::Wide, 3, (1 + 3 * 6) * 32);
    }

    #[test]
    fn wide_indexed_stream_partial_layout_agrees() {
        // The wide profile composes with the spatial index: the trailer
        // wraps a version-3 body and both decode paths agree.
        let cloud = ring_cloud(2500);
        let cfg = crate::DbgcConfig::with_error_bound(0.02)
            .with_entropy_profile(crate::EntropyProfile::Wide)
            .with_spatial_index(true);
        let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
        let (decoded, _) = decompress(&frame.bytes).unwrap();
        assert_eq!(decoded.len(), cloud.len());
        let info = inspect(&frame.bytes).unwrap();
        assert!(info.index_bytes > 0);
    }

    #[test]
    fn inspect_ablated_stream() {
        let cloud = ring_cloud(1000);
        let cfg = crate::DbgcConfig::with_error_bound(0.05).without_conversion();
        let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
        let info = inspect(&frame.bytes).unwrap();
        assert!(!info.spherical && !info.radial);
    }

    #[test]
    fn inspect_is_cheap_relative_to_decode() {
        // Structural walk only: no points are materialized, so inspecting a
        // truncated-but-framed stream succeeds while decode would fail on
        // content. Sanity: inspect never reports more bytes than given.
        let cloud = ring_cloud(2000);
        let frame = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap();
        let info = inspect(&frame.bytes).unwrap();
        assert!(info.dense_bytes + info.sparse_bytes + info.outlier_bytes <= info.total_bytes);
    }

    #[test]
    fn radial_flag_on_a_cartesian_stream_changes_nothing() {
        // A Cartesian group has no radial frames whatever the flag byte
        // says, so the section walk must frame it as the group decoder
        // reads it.
        let cloud = ring_cloud(1000);
        let cfg = crate::DbgcConfig::with_error_bound(0.05).without_conversion();
        let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
        assert!(inspect(&frame.bytes).unwrap().sparse_bytes > 0);
        let mut flagged = frame.bytes.clone();
        flagged[4 + 1 + 4 * 8] |= 0b10; // magic, version, four f64s, flags
        assert!(inspect(&flagged).unwrap().radial);
        let (a, _) = decompress(&frame.bytes).unwrap();
        let (b, _) = decompress(&flagged).unwrap();
        assert_eq!(a.points(), b.points());
    }

    #[test]
    fn inspect_single_group_stream() {
        let cloud = ring_cloud(1500);
        let cfg = crate::DbgcConfig::with_error_bound(0.02).without_grouping();
        let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
        let info = inspect(&frame.bytes).unwrap();
        assert_eq!(info.groups, 1);
        assert!(info.radial);
    }

    #[test]
    fn inspect_rejects_garbage() {
        assert!(inspect(b"not a dbgc stream").is_err());
        assert!(inspect(&[]).is_err());
    }

    #[test]
    fn indexed_stream_decodes_identically() {
        let cloud = ring_cloud(4000);
        let plain = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap();
        let cfg = crate::DbgcConfig::with_error_bound(0.02).with_spatial_index(true);
        let indexed = Dbgc::new(cfg).compress(&cloud).unwrap();
        // The body is the plain stream byte-for-byte; only the trailer is new.
        assert!(indexed.bytes.len() > plain.bytes.len());
        assert_eq!(&indexed.bytes[..plain.bytes.len()], &plain.bytes[..]);
        assert_eq!(indexed.stats.sections.index, indexed.bytes.len() - plain.bytes.len());
        let (a, _) = decompress(&plain.bytes).unwrap();
        let (b, _) = decompress(&indexed.bytes).unwrap();
        assert_eq!(a.points(), b.points());
        // The carried directory matches what the trailer parses back to.
        let dir = indexed.directory.expect("directory present");
        match crate::index::split_index_trailer(&indexed.bytes) {
            crate::index::IndexTrailer::Valid { body, payload } => {
                let parsed = crate::SpatialDirectory::parse(payload, body.len()).unwrap();
                assert_eq!(parsed, dir);
                assert_eq!(body, &plain.bytes[..]);
            }
            other => panic!("expected valid trailer, got {other:?}"),
        }
    }

    #[test]
    fn directory_bounds_every_decoded_point() {
        let cloud = ring_cloud(5000);
        let cfg = crate::DbgcConfig::with_error_bound(0.02).with_spatial_index(true);
        let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
        let dir = frame.directory.as_ref().unwrap();
        let (dec, _) = decompress(&frame.bytes).unwrap();
        let frame_bb = dir.frame_aabb().unwrap();
        for &p in dec.points() {
            assert!(frame_bb.contains(p), "decoded point {p:?} outside frame AABB");
        }
        assert_eq!(dir.points, dec.len());
        let section_sum = dir.dense.points
            + dir.groups.iter().map(|g| g.section.points).sum::<usize>()
            + dir.outlier.points;
        assert_eq!(section_sum, dec.len());
    }

    #[test]
    fn inspect_reports_index_bytes() {
        let cloud = ring_cloud(2000);
        let cfg = crate::DbgcConfig::with_error_bound(0.02).with_spatial_index(true);
        let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
        let info = inspect(&frame.bytes).unwrap();
        assert_eq!(info.index_bytes, frame.stats.sections.index);
        assert!(info.index_bytes > 0);
        assert_eq!(
            info.dense_bytes
                + info.sparse_bytes
                + info.outlier_bytes
                + info.index_bytes
                + frame.stats.sections.header,
            info.total_bytes
        );
    }

    #[test]
    fn corrupt_index_trailer_fails_strict_decode() {
        // Core is strict: a structurally-framed trailer with a bad CRC is
        // not silently skipped (the lenient fallback lives in dbgc-store).
        let cloud = ring_cloud(1000);
        let cfg = crate::DbgcConfig::with_error_bound(0.02).with_spatial_index(true);
        let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
        let mut bytes = frame.bytes.clone();
        let payload_start = bytes.len() - frame.stats.sections.index;
        bytes[payload_start + 2] ^= 0x10;
        assert!(decompress(&bytes).is_err());
    }
}
