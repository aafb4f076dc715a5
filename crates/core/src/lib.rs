//! # DBGC — Density-Based Geometry Compression for LiDAR Point Clouds
//!
//! A from-scratch Rust implementation of the DBGC compression scheme
//! (Sun & Luo, EDBT 2023): error-bounded geometry compression that splits a
//! LiDAR cloud by local density, compresses dense points with an octree, and
//! organizes sparse points into polylines in spherical coordinates that are
//! compressed with delta transforms — including a radial-distance-optimized
//! delta encoding with consensus reference polylines — plus a quadtree path
//! for outliers.
//!
//! ## Quickstart
//!
//! ```
//! use dbgc::{Dbgc, decompress};
//! use dbgc_geom::{Point3, PointCloud};
//!
//! // Any point cloud; here a toy ring.
//! let cloud: PointCloud = (0..3000)
//!     .map(|i| {
//!         let th = i as f64 / 3000.0 * std::f64::consts::TAU;
//!         Point3::new(20.0 * th.cos(), 20.0 * th.sin(), -1.7)
//!     })
//!     .collect();
//!
//! // Compress with a 2 cm error bound.
//! let dbgc = Dbgc::with_error_bound(0.02);
//! let frame = dbgc.compress(&cloud).unwrap();
//! println!("ratio: {:.1}x", frame.compression_ratio());
//!
//! // Decompress: same number of points, each within the error bound of its
//! // original (frame.mapping gives the one-to-one pairing).
//! let (restored, _stats) = decompress(&frame.bytes).unwrap();
//! assert_eq!(restored.len(), cloud.len());
//! let report = dbgc::verify_roundtrip(&cloud, &restored, &frame, 0.02).unwrap();
//! assert!(report.max_euclidean_error <= 0.035);
//! ```
//!
//! ## Modules
//!
//! * [`config`] — [`DbgcConfig`]: error bound, clustering choice, grouping,
//!   ablation toggles (−Radial / −Group / −Conversion), outlier mode;
//! * [`pipeline`] — the compressor ([`Dbgc::compress`]);
//! * [`decompress()`](fn@decompress) — the decompressor;
//! * [`sparse`] — polyline organization (Algorithm 1) and the coordinate
//!   codec (steps 1–9, Algorithm 2);
//! * [`outlier`] — quadtree/octree/raw outlier compression (Table 2);
//! * [`verify`] — round-trip error-bound verification;
//! * [`stats`] — section sizes and the Fig. 13 timing breakdown.

#![warn(missing_docs)]

pub mod config;
pub mod decompress;
pub mod error;
pub mod index;
pub mod layout;
pub mod outlier;
pub mod pipeline;
pub mod sparse;
pub mod stats;
pub mod verify;

pub use config::{ClusteringAlgorithm, DbgcConfig, OutlierMode, SplitStrategy};
pub use decompress::{decompress, decompress_with_metrics, inspect, DecompressStats, StreamInfo};
pub use error::DbgcError;
pub use index::{split_index_trailer, IndexTrailer, SpatialDirectory};
pub use layout::{SectionSpans, StreamHeader};
pub use pipeline::{CompressedFrame, Dbgc, EntropyProfile};
pub use stats::{CompressionStats, SectionSizes, TimingBreakdown};
pub use verify::verify_roundtrip;

/// Re-export of the observability crate, so dependents of `dbgc` can name
/// `Collector`/`Snapshot` without a separate dependency line.
pub use dbgc_metrics as metrics;

#[cfg(test)]
mod tests {
    use super::*;
    use dbgc_geom::{Point3, PointCloud};
    use rand::{Rng, SeedableRng};

    fn lidar_cloud(seed: u64) -> PointCloud {
        crate::verify::tests::mini_lidar_cloud(seed, 3000, 8)
    }

    #[test]
    fn roundtrip_default_config() {
        let cloud = lidar_cloud(10);
        let dbgc = Dbgc::with_error_bound(0.02);
        let frame = dbgc.compress(&cloud).unwrap();
        let (dec, _) = decompress(&frame.bytes).unwrap();
        verify_roundtrip(&cloud, &dec, &frame, 0.02).unwrap();
        assert!(frame.compression_ratio() > 4.0, "ratio {}", frame.compression_ratio());
    }

    #[test]
    fn roundtrip_all_clustering_algorithms() {
        let cloud = lidar_cloud(11);
        for alg in [
            ClusteringAlgorithm::Approximate,
            ClusteringAlgorithm::CellBased,
            ClusteringAlgorithm::Dbscan,
        ] {
            let mut cfg = DbgcConfig::with_error_bound(0.02);
            cfg.split = SplitStrategy::Density(alg);
            let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
            let (dec, _) = decompress(&frame.bytes).unwrap();
            verify_roundtrip(&cloud, &dec, &frame, 0.02).unwrap();
        }
    }

    #[test]
    fn roundtrip_ablations() {
        let cloud = lidar_cloud(12);
        for cfg in [
            DbgcConfig::with_error_bound(0.02).without_radial(),
            DbgcConfig::with_error_bound(0.02).without_grouping(),
            DbgcConfig::with_error_bound(0.02).without_conversion(),
        ] {
            let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
            let (dec, _) = decompress(&frame.bytes).unwrap();
            verify_roundtrip(&cloud, &dec, &frame, 0.02).unwrap();
        }
    }

    #[test]
    fn roundtrip_outlier_modes() {
        let cloud = lidar_cloud(13);
        for mode in [OutlierMode::Quadtree, OutlierMode::Octree, OutlierMode::None] {
            let mut cfg = DbgcConfig::with_error_bound(0.02);
            cfg.outlier_mode = mode;
            let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
            let (dec, _) = decompress(&frame.bytes).unwrap();
            verify_roundtrip(&cloud, &dec, &frame, 0.02).unwrap();
        }
    }

    #[test]
    fn roundtrip_nearest_fraction_sweep() {
        let cloud = lidar_cloud(14);
        for f in [0.0, 0.4, 1.0] {
            let mut cfg = DbgcConfig::with_error_bound(0.02);
            cfg.split = SplitStrategy::NearestFraction(f);
            let frame = Dbgc::new(cfg).compress(&cloud).unwrap();
            let (dec, _) = decompress(&frame.bytes).unwrap();
            verify_roundtrip(&cloud, &dec, &frame, 0.02).unwrap();
            if f == 1.0 {
                assert_eq!(frame.stats.dense_points, cloud.len());
            }
            if f == 0.0 {
                assert_eq!(frame.stats.dense_points, 0);
            }
        }
    }

    #[test]
    fn roundtrip_various_error_bounds() {
        let cloud = lidar_cloud(15);
        let mut last_size = usize::MAX;
        for q in [0.0006, 0.002, 0.008, 0.02] {
            let frame = Dbgc::with_error_bound(q).compress(&cloud).unwrap();
            let (dec, _) = decompress(&frame.bytes).unwrap();
            verify_roundtrip(&cloud, &dec, &frame, q).unwrap();
            assert!(frame.bytes.len() < last_size, "coarser bound must not enlarge the stream");
            last_size = frame.bytes.len();
        }
    }

    #[test]
    fn empty_and_tiny_clouds() {
        let dbgc = Dbgc::with_error_bound(0.02);
        for n in [0usize, 1, 2, 5] {
            let cloud: PointCloud = (0..n).map(|i| Point3::new(i as f64, 1.0, -1.0)).collect();
            let frame = dbgc.compress(&cloud).unwrap();
            let (dec, _) = decompress(&frame.bytes).unwrap();
            assert_eq!(dec.len(), n);
            verify_roundtrip(&cloud, &dec, &frame, 0.02).unwrap();
        }
    }

    #[test]
    fn duplicate_points_preserved() {
        let mut cloud = PointCloud::new();
        for _ in 0..50 {
            cloud.push(Point3::new(3.0, 4.0, -1.0));
        }
        let frame = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap();
        let (dec, _) = decompress(&frame.bytes).unwrap();
        assert_eq!(dec.len(), 50);
    }

    #[test]
    fn non_finite_points_rejected() {
        let mut cloud = lidar_cloud(16);
        cloud.push(Point3::new(f64::NAN, 0.0, 0.0));
        assert!(matches!(
            Dbgc::with_error_bound(0.02).compress(&cloud),
            Err(DbgcError::NonFinitePoint { .. })
        ));
    }

    #[test]
    fn corrupt_streams_do_not_panic() {
        let cloud = lidar_cloud(17);
        let frame = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        // Truncations.
        for cut in [0, 3, 5, 20, frame.bytes.len() / 2] {
            let _ = decompress(&frame.bytes[..cut]);
        }
        // Random single-byte corruptions: must error or decode, never panic.
        for _ in 0..40 {
            let mut bytes = frame.bytes.clone();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
            let _ = decompress(&bytes);
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(matches!(decompress(b"NOPE\x01rest"), Err(DbgcError::BadHeader(_))));
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn stats_are_consistent() {
        let cloud = lidar_cloud(18);
        let frame = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap();
        let s = &frame.stats;
        assert_eq!(s.dense_points + s.sparse_points + s.outlier_points, s.total_points);
        assert_eq!(s.sections.total(), frame.bytes.len());
        assert!(s.polylines > 0);
    }

    #[test]
    fn mapping_is_a_permutation() {
        let cloud = lidar_cloud(19);
        let frame = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap();
        let mut seen = vec![false; frame.mapping.len()];
        for &m in &frame.mapping {
            assert!(m < seen.len() && !seen[m]);
            seen[m] = true;
        }
    }
}
