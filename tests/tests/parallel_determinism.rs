//! The parallel compression path must be byte-for-byte equivalent to the
//! serial path: same bitstream, same mapping, for every configuration.
//!
//! `threads = 4` forces the shared pool to at least four workers (even on a
//! single-core machine), so the fan-out code paths — parallel spherical
//! conversion, per-group encode-to-buffer with in-order splice, sharded grid
//! build — genuinely execute with cross-thread interleaving.

mod common;

use common::{assert_permutation, small_config, small_frame};
use dbgc::{decompress, verify_roundtrip, ClusteringAlgorithm, Dbgc, DbgcConfig, SplitStrategy};
use dbgc_geom::{Point3, PointCloud};
use dbgc_lidar_sim::ScenePreset;

/// Compress `cloud` serially (`threads = 1`) and in parallel (`threads = 4`)
/// and assert the outputs are indistinguishable.
fn assert_parallel_matches_serial(cfg: &DbgcConfig, cloud: &PointCloud, what: &str) {
    let serial = Dbgc::new(cfg.clone().with_threads(1)).compress(cloud).unwrap();
    let parallel = Dbgc::new(cfg.clone().with_threads(4)).compress(cloud).unwrap();
    assert_eq!(serial.bytes, parallel.bytes, "{what}: bitstreams differ");
    assert_eq!(serial.mapping, parallel.mapping, "{what}: mappings differ");
    assert_permutation(&parallel.mapping);
}

#[test]
fn all_clustering_algorithms_match() {
    let (cloud, meta) = small_frame(ScenePreset::KittiCity, 70);
    for alg in [
        ClusteringAlgorithm::Approximate,
        ClusteringAlgorithm::CellBased,
        ClusteringAlgorithm::Dbscan,
    ] {
        let mut cfg = small_config(0.02, meta);
        cfg.split = SplitStrategy::Density(alg);
        assert_parallel_matches_serial(&cfg, &cloud, &format!("{alg:?}"));
    }
}

#[test]
fn both_coordinate_modes_match() {
    let (cloud, meta) = small_frame(ScenePreset::KittiRoad, 71);
    let spherical = small_config(0.02, meta);
    assert_parallel_matches_serial(&spherical, &cloud, "spherical");
    let cartesian = small_config(0.02, meta).without_conversion();
    assert_parallel_matches_serial(&cartesian, &cloud, "cartesian");
}

#[test]
fn edge_cases_match() {
    let meta = ScenePreset::KittiCity.sensor_meta();
    let base = small_config(0.02, meta);

    // Empty cloud.
    assert_parallel_matches_serial(&base, &PointCloud::new(), "empty");

    // Fewer points than groups (default groups = 3).
    let tiny: PointCloud = (0..2).map(|i| Point3::new(5.0 + i as f64, 1.0, -1.0)).collect();
    assert_parallel_matches_serial(&base, &tiny, "fewer points than groups");

    let (cloud, meta) = small_frame(ScenePreset::KittiResidential, 72);
    // All-dense: every point goes to the octree, no sparse groups.
    let mut all_dense = small_config(0.02, meta);
    all_dense.split = SplitStrategy::NearestFraction(1.0);
    assert_parallel_matches_serial(&all_dense, &cloud, "all dense");

    // All-sparse: every point goes through ORG + SPA.
    let mut all_sparse = small_config(0.02, meta);
    all_sparse.split = SplitStrategy::NearestFraction(0.0);
    assert_parallel_matches_serial(&all_sparse, &cloud, "all sparse");
}

#[test]
fn den_stage_shards_merge_deterministically() {
    // The packed-grid den stage builds its cell-count map in parallel shards
    // of 2^14 points and sum-merges them; the verdict must not depend on the
    // shard schedule. 48k points guarantee several shards per worker, and the
    // blob/scatter mix exercises both dense and sparse verdicts across shard
    // boundaries.
    use dbgc_clustering::{approx_cluster, ClusterParams};

    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut cloud = PointCloud::new();
    for b in 0..24 {
        // A tight blob (dense) plus a halo of scatter (sparse) per block.
        let (cx, cy) = (10.0 * (b % 6) as f64, 10.0 * (b / 6) as f64);
        for _ in 0..1500 {
            cloud.push(Point3::new(cx + 0.3 * next(), cy + 0.3 * next(), next()));
        }
        for _ in 0..500 {
            cloud.push(Point3::new(cx + 8.0 * next(), cy + 8.0 * next(), 4.0 * next()));
        }
    }
    assert!(cloud.len() > (1 << 15), "cloud must span multiple count shards");

    let params = ClusterParams { eps: 0.5, min_pts: 40 };
    let serial = approx_cluster(cloud.points(), params, 1);
    for threads in [2, 4] {
        let parallel = approx_cluster(cloud.points(), params, threads);
        assert_eq!(serial.dense, parallel.dense, "den split diverged at {threads} threads");
    }
    // Sanity: the mix actually produces both classes, so the equality above
    // is not comparing degenerate all-true/all-false vectors.
    let dense = serial.dense_count();
    assert!(dense > 0 && dense < cloud.len(), "degenerate split: {dense}/{}", cloud.len());
}

#[test]
fn many_groups_match() {
    // More groups than pool threads exercises the work-stealing queue.
    let (cloud, meta) = small_frame(ScenePreset::ApolloUrban, 73);
    let mut cfg = small_config(0.02, meta);
    cfg.groups = 11;
    assert_parallel_matches_serial(&cfg, &cloud, "11 groups");
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Thread scheduling varies run to run; the bytes must not.
    let (cloud, meta) = small_frame(ScenePreset::KittiCampus, 74);
    let dbgc = Dbgc::new(small_config(0.02, meta).with_threads(4));
    let first = dbgc.compress(&cloud).unwrap();
    for _ in 0..4 {
        let again = dbgc.compress(&cloud).unwrap();
        assert_eq!(first.bytes, again.bytes);
        assert_eq!(first.mapping, again.mapping);
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random clouds round-trip through the parallel path within the
        /// error bound, and still match the serial bytes.
        #[test]
        fn parallel_roundtrip_random_clouds(
            seed in 0u64..1_000_000,
            n in 0usize..600,
        ) {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let cloud: PointCloud = (0..n)
                .map(|_| {
                    let r = 2.0 + 70.0 * next();
                    let th = std::f64::consts::TAU * next();
                    Point3::new(r * th.cos(), r * th.sin(), -2.0 + 3.0 * next())
                })
                .collect();

            let cfg = DbgcConfig::with_error_bound(0.02);
            let serial = Dbgc::new(cfg.clone().with_threads(1)).compress(&cloud).unwrap();
            let parallel = Dbgc::new(cfg.with_threads(4)).compress(&cloud).unwrap();
            prop_assert_eq!(&serial.bytes, &parallel.bytes);
            prop_assert_eq!(&serial.mapping, &parallel.mapping);

            let (restored, _) = decompress(&parallel.bytes).unwrap();
            prop_assert_eq!(restored.len(), cloud.len());
            verify_roundtrip(&cloud, &restored, &parallel, 0.02).unwrap();
        }
    }
}
