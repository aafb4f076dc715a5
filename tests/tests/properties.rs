//! Property-based integration tests over randomly generated clouds.

use dbgc::{decompress, verify_roundtrip, Dbgc};
use dbgc_geom::{Point3, PointCloud};
use proptest::prelude::*;

/// Strategy: clouds mixing surface-like clusters and isolated points.
fn arb_cloud() -> impl Strategy<Value = PointCloud> {
    let cluster = (any::<u64>(), 2usize..60).prop_map(|(seed, n)| {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let cx = (next() - 0.5) * 100.0;
        let cy = (next() - 0.5) * 100.0;
        let cz = (next() - 0.5) * 8.0;
        (0..n)
            .map(|_| {
                Point3::new(
                    cx + (next() - 0.5) * 2.0,
                    cy + (next() - 0.5) * 2.0,
                    cz + (next() - 0.5) * 0.4,
                )
            })
            .collect::<Vec<_>>()
    });
    proptest::collection::vec(cluster, 0..12)
        .prop_map(|clusters| clusters.into_iter().flatten().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dbgc_roundtrip_any_cloud(cloud in arb_cloud(), q_idx in 0usize..3) {
        let q = [0.002, 0.01, 0.05][q_idx];
        let frame = Dbgc::with_error_bound(q).compress(&cloud).unwrap();
        let (restored, _) = decompress(&frame.bytes).unwrap();
        prop_assert_eq!(restored.len(), cloud.len());
        verify_roundtrip(&cloud, &restored, &frame, q).unwrap();
    }

    #[test]
    fn octree_roundtrip_any_cloud(cloud in arb_cloud()) {
        let q = 0.01;
        let enc = dbgc_octree::OctreeCodec::baseline().encode(cloud.points(), q);
        let dec = dbgc_octree::OctreeCodec::baseline().decode(&enc.bytes).unwrap();
        prop_assert_eq!(dec.points.len(), cloud.len());
        for (i, p) in cloud.iter().enumerate() {
            prop_assert!(p.linf_dist(dec.points[enc.mapping[i]]) <= q + 1e-9);
        }
    }

    #[test]
    fn kdtree_roundtrip_any_cloud(cloud in arb_cloud()) {
        let q = 0.01;
        let enc = dbgc_kdtree::KdTreeCodec.encode(cloud.points(), q);
        let dec = dbgc_kdtree::KdTreeCodec.decode(&enc.bytes).unwrap();
        prop_assert_eq!(dec.points.len(), cloud.len());
        for (i, p) in cloud.iter().enumerate() {
            prop_assert!(p.linf_dist(dec.points[enc.mapping[i]]) <= q + 1e-9);
        }
    }

    #[test]
    fn gpcc_roundtrip_any_cloud(cloud in arb_cloud()) {
        let q = 0.01;
        let enc = dbgc_gpcc::GpccCodec.encode(cloud.points(), q);
        let dec = dbgc_gpcc::GpccCodec.decode(&enc.bytes).unwrap();
        prop_assert_eq!(dec.points.len(), cloud.len());
        for (i, p) in cloud.iter().enumerate() {
            prop_assert!(p.linf_dist(dec.points[enc.mapping[i]]) <= q + 1e-9);
        }
    }

    #[test]
    fn random_bytes_never_panic_the_decompressor(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = decompress(&bytes);
    }

    #[test]
    fn clustering_algorithms_agree_on_extremes(cloud in arb_cloud()) {
        // With minPts = 1 every point is its own core in the exact
        // algorithms. (The approximate variant scales its threshold for the
        // larger 27-cell counting region, so it is not exactly comparable at
        // this degenerate setting and is exercised by its own suite.)
        prop_assume!(!cloud.is_empty());
        let params = dbgc_clustering::ClusterParams::new(0.5, 1);
        let b = dbgc_clustering::cell_based_cluster(cloud.points(), params, 0);
        let c = dbgc_clustering::dbscan(cloud.points(), params, 0).split();
        prop_assert_eq!(b.dense_count(), cloud.len());
        prop_assert_eq!(c.dense_count(), cloud.len());
        // And with an impossible threshold nothing is dense, in all three.
        let never = dbgc_clustering::ClusterParams::new(0.5, usize::MAX);
        prop_assert_eq!(
            dbgc_clustering::approx_cluster(cloud.points(), never, 0).dense_count(),
            0
        );
        prop_assert_eq!(
            dbgc_clustering::cell_based_cluster(cloud.points(), never, 0).dense_count(),
            0
        );
    }
}
