//! Density-based clustering for LiDAR point clouds (paper §3.2, §4.3).
//!
//! DBGC splits a cloud into *dense* points (compressed with an octree) and
//! *sparse* points (compressed as polylines in spherical coordinates). The
//! split is a density-based clustering in the spirit of DBSCAN \[15\], with
//! parameters tied to the compression error bound:
//!
//! * `ε = k · q_xyz` (radius of the density neighbourhood, `k = 10`);
//! * `minPts = ⌈(4/3)π ε³ / (2q)³⌉ = ⌈π k³ / 6⌉` — the number of octree leaf
//!   cells (side `2q`) that fit in the ε-sphere, so a core point's
//!   neighbourhood is dense enough to fill the octree around it.
//!
//! Three algorithms are provided:
//!
//! * [`dbscan()`](fn@dbscan) — the classic point-level DBSCAN, as a reference;
//! * [`cell_based`] — the paper's optimized variant: once a cell is known to
//!   be dense, points inside it skip the neighbour-count check, and a second
//!   pass promotes every point in a dense cell;
//! * [`approx`] — the `O(n)` approximation of §4.3: per-cell point counts,
//!   summed over the 3×3×3 surrounding cells, followed by a one-ring
//!   dilation of the dense-cell set.
//!
//! Clustering runs on the *encoder only* — the decoder never needs to
//! reproduce it — so variants may differ slightly in their dense sets without
//! affecting correctness, only the compression ratio.
//!
//! All three take `threads` with `DbgcConfig::threads`' meaning (`0` = the
//! global pool, `1` = inline, `n > 1` = grow the pool; see
//! `dbgc_parallel::pool_for`). Every split is identical for every setting.

#![warn(missing_docs)]

pub mod approx;
pub mod cell_based;
pub mod dbscan;
pub mod grid;
pub mod params;

pub use approx::approx_cluster;
pub use cell_based::cell_based_cluster;
pub use dbscan::{dbscan, DbscanResult};
pub use grid::UniformGrid;
pub use params::ClusterParams;

/// Outcome of a dense/sparse split: `dense[i]` tells whether input point `i`
/// was classified dense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensitySplit {
    /// Per-input-point classification; `true` = dense.
    pub dense: Vec<bool>,
}

impl DensitySplit {
    /// Number of dense points.
    pub fn dense_count(&self) -> usize {
        self.dense.iter().filter(|&&d| d).count()
    }

    /// Fraction of points classified dense (0.0 for an empty cloud).
    pub fn dense_fraction(&self) -> f64 {
        if self.dense.is_empty() {
            0.0
        } else {
            self.dense_count() as f64 / self.dense.len() as f64
        }
    }

    /// Partition `points` into `(dense, sparse)` index lists.
    pub fn partition_indices(&self) -> (Vec<usize>, Vec<usize>) {
        let mut dense = Vec::new();
        let mut sparse = Vec::new();
        for (i, &d) in self.dense.iter().enumerate() {
            if d {
                dense.push(i);
            } else {
                sparse.push(i);
            }
        }
        (dense, sparse)
    }
}
