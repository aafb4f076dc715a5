//! Classic DBSCAN \[15\], grid-accelerated, as the reference algorithm.

use dbgc_geom::Point3;

use crate::grid::UniformGrid;
use crate::params::ClusterParams;
use crate::DensitySplit;

/// Full DBSCAN output: cluster labels plus the dense/sparse split.
#[derive(Debug, Clone)]
pub struct DbscanResult {
    /// `labels[i] = Some(c)` when point `i` belongs to cluster `c`; `None`
    /// for noise.
    pub labels: Vec<Option<u32>>,
    /// `core[i]` is true when point `i` passed the `minPts` density test.
    pub core: Vec<bool>,
    /// Number of clusters found.
    pub clusters: usize,
}

impl DbscanResult {
    /// Dense points are exactly the clustered (non-noise) points.
    pub fn split(&self) -> DensitySplit {
        DensitySplit { dense: self.labels.iter().map(Option::is_some).collect() }
    }
}

/// Run DBSCAN over `points`.
///
/// Core points have `count_within(ε) >= minPts` (count includes the point
/// itself); clusters grow through core points; border points join the first
/// cluster that reaches them. The grid index builds on `threads`
/// (`DbgcConfig::threads` semantics); the expansion runs on the calling
/// thread.
pub fn dbscan(points: &[Point3], params: ClusterParams, threads: usize) -> DbscanResult {
    let grid = UniformGrid::build(points, params.eps, threads);
    let mut labels: Vec<Option<u32>> = vec![None; points.len()];
    let mut core = vec![false; points.len()];
    let mut visited = vec![false; points.len()];
    let mut clusters = 0u32;
    let mut nbrs = Vec::new();
    let mut stack: Vec<u32> = Vec::new();

    for i in 0..points.len() {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        if grid.count_within(i, params.eps) < params.min_pts {
            continue; // noise (may become a border point later)
        }
        // Start a new cluster from core point i.
        core[i] = true;
        let cluster = clusters;
        clusters += 1;
        labels[i] = Some(cluster);
        grid.neighbors_within(i, params.eps, &mut nbrs);
        stack.clear();
        stack.extend_from_slice(&nbrs);
        while let Some(j) = stack.pop() {
            let j = j as usize;
            if labels[j].is_none() {
                labels[j] = Some(cluster);
            }
            if visited[j] {
                continue;
            }
            visited[j] = true;
            if grid.count_within(j, params.eps) >= params.min_pts {
                core[j] = true;
                grid.neighbors_within(j, params.eps, &mut nbrs);
                stack.extend_from_slice(&nbrs);
            }
        }
    }
    DbscanResult { labels, core, clusters: clusters as usize }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Two tight blobs and scattered noise.
    fn blobs_and_noise() -> (Vec<Point3>, usize, usize) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        let mut pts = Vec::new();
        let blob = |pts: &mut Vec<Point3>, cx: f64, cy: f64, rng: &mut rand::rngs::StdRng| {
            for _ in 0..200 {
                pts.push(Point3::new(
                    cx + rng.gen_range(-0.05..0.05),
                    cy + rng.gen_range(-0.05..0.05),
                    rng.gen_range(-0.05..0.05),
                ));
            }
        };
        blob(&mut pts, 0.0, 0.0, &mut rng);
        blob(&mut pts, 5.0, 5.0, &mut rng);
        let blob_points = pts.len();
        for _ in 0..50 {
            pts.push(Point3::new(
                rng.gen_range(-20.0..20.0),
                rng.gen_range(-20.0..20.0),
                rng.gen_range(10.0..30.0), // far from blobs
            ));
        }
        (pts, blob_points, 50)
    }

    #[test]
    fn finds_two_clusters() {
        let (pts, blob_points, _) = blobs_and_noise();
        let res = dbscan(&pts, ClusterParams::new(0.2, 10), 0);
        assert_eq!(res.clusters, 2);
        let split = res.split();
        // All blob points clustered; noise mostly unclustered.
        assert!(split.dense[..blob_points].iter().all(|&d| d));
        let noise_dense = split.dense[blob_points..].iter().filter(|&&d| d).count();
        assert_eq!(noise_dense, 0);
    }

    #[test]
    fn all_noise_when_min_pts_too_high() {
        let (pts, _, _) = blobs_and_noise();
        let res = dbscan(&pts, ClusterParams::new(0.2, 100_000), 0);
        assert_eq!(res.clusters, 0);
        assert_eq!(res.split().dense_count(), 0);
    }

    #[test]
    fn everything_clusters_when_min_pts_is_one() {
        let (pts, _, _) = blobs_and_noise();
        let res = dbscan(&pts, ClusterParams::new(0.2, 1), 0);
        assert_eq!(res.split().dense_count(), pts.len());
    }

    #[test]
    fn empty_input() {
        let res = dbscan(&[], ClusterParams::new(0.2, 5), 0);
        assert_eq!(res.clusters, 0);
        assert!(res.labels.is_empty());
    }

    #[test]
    fn border_points_join_cluster() {
        // A line of points where ends have fewer neighbours than the middle.
        let pts: Vec<Point3> = (0..20).map(|i| Point3::new(i as f64 * 0.05, 0.0, 0.0)).collect();
        // minPts 4: middle points are core (2 each side + self within 0.1),
        // end points are border.
        let res = dbscan(&pts, ClusterParams::new(0.1, 4), 0);
        assert_eq!(res.clusters, 1);
        assert_eq!(res.split().dense_count(), 20);
    }
}
