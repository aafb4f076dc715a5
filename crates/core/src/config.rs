//! DBGC configuration.

use dbgc_geom::SensorMeta;

use crate::EntropyProfile;

/// Which clustering algorithm classifies dense vs. sparse points (§3.2/§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusteringAlgorithm {
    /// The `O(n)` approximate cell-count clustering (§4.3). The paper
    /// integrates this into the final system for a 1.2× end-to-end speedup.
    #[default]
    Approximate,
    /// The exact cell-based clustering of §3.2.
    CellBased,
    /// Classic point-level DBSCAN (reference; slowest).
    Dbscan,
}

/// How dense points are selected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitStrategy {
    /// Density-based clustering with `ε = k·q`, `minPts = ⌈πk³/6⌉`.
    Density(ClusteringAlgorithm),
    /// Take the given fraction of points nearest to the sensor as dense
    /// (the manual sweep of Fig. 10; `0.0` = all sparse, `1.0` = all octree).
    NearestFraction(f64),
}

impl Default for SplitStrategy {
    fn default() -> Self {
        SplitStrategy::Density(ClusteringAlgorithm::default())
    }
}

/// How outliers (sparse points on no polyline) are compressed (§3.6/Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutlierMode {
    /// 2D quadtree on (x, y) + delta-coded z channel (the paper's choice).
    #[default]
    Quadtree,
    /// A 3D octree over the outliers (Table 2's "Octree" alternative).
    Octree,
    /// Store raw `f32` coordinates (Table 2's "None": no compression).
    None,
}

/// Full DBGC configuration.
///
/// The defaults reproduce the paper's final system at the 2 cm error bound:
/// `k = 10`, 3 radial groups, `TH_r = 2 m`, approximate clustering,
/// spherical conversion and radial-distance-optimized delta encoding on.
#[derive(Debug, Clone, PartialEq)]
pub struct DbgcConfig {
    /// Per-axis Cartesian error bound `q_xyz` in metres.
    pub q_xyz: f64,
    /// Density neighbourhood scale: `ε = k · q_xyz`.
    pub k: u32,
    /// Override for `minPts` (`None` = the paper's `⌈πk³/6⌉`).
    pub min_pts_override: Option<usize>,
    /// Dense/sparse split strategy.
    pub split: SplitStrategy,
    /// Number of radial groups for sparse points (1 disables grouping).
    pub groups: usize,
    /// Minimum polyline length; shorter polylines become outliers.
    pub min_polyline_len: usize,
    /// Radial-distance threshold `TH_r` in metres (§3.5 step 8).
    pub th_r: f64,
    /// Compress sparse coordinates in spherical space (−Conversion ablation
    /// sets this to false and works on Cartesian channels).
    pub spherical_conversion: bool,
    /// Use radial-distance-optimized delta encoding for the third channel
    /// (−Radial ablation sets this to false → plain per-polyline delta).
    pub radial_optimized: bool,
    /// Outlier compression scheme.
    pub outlier_mode: OutlierMode,
    /// Sensor metadata supplying `u_θ` and `u_φ` for polyline organization.
    pub sensor: SensorMeta,
    /// Worker threads for the intra-frame parallel stages (requires the
    /// `parallel` feature): `0` = use the process-wide pool at its current
    /// size (hardware threads, or `DBGC_THREADS`); `1` = run every stage
    /// inline on the calling thread; `n > 1` = grow the shared pool to at
    /// least `n` threads. The bitstream is byte-identical for every setting.
    pub threads: usize,
    /// Entropy profile for the range-coded substreams: how many interleaved
    /// lanes the range coder deals symbols over (same probabilities, split
    /// interval state — see `dbgc_codec::laned`; the per-profile version
    /// byte and lane counts are [`EntropyProfile`]'s table). `Narrow` (the
    /// default) keeps the version-1 format byte-identical; `Dual` writes
    /// stream version 2 (two-lane dense occupancy); `Wide` writes stream
    /// version 3 (four-lane occupancy *and* four-lane sparse/radial frames).
    /// Only decoders aware of the respective version accept those streams.
    pub entropy_profile: EntropyProfile,
    /// Emit a spatial directory (per-section AABBs, point counts and byte
    /// offsets) as a CRC-guarded trailer after the stream body, enabling
    /// archive queries with partial decode (see `dbgc-store`). Decoders
    /// unaware of the trailer strip it before the sequential walk, so the
    /// decoded cloud is identical either way. The default (false) leaves the
    /// stream bytes exactly as before.
    pub spatial_index: bool,
}

impl Default for DbgcConfig {
    fn default() -> Self {
        DbgcConfig::with_error_bound(0.02)
    }
}

impl DbgcConfig {
    /// Paper defaults at the given error bound.
    pub fn with_error_bound(q_xyz: f64) -> DbgcConfig {
        DbgcConfig {
            q_xyz,
            k: 10,
            min_pts_override: None,
            split: SplitStrategy::default(),
            groups: 3,
            min_polyline_len: 3,
            th_r: 2.0,
            spherical_conversion: true,
            radial_optimized: true,
            outlier_mode: OutlierMode::Quadtree,
            sensor: SensorMeta::velodyne_hdl64e(),
            threads: 0,
            entropy_profile: EntropyProfile::Narrow,
            spatial_index: false,
        }
    }

    /// Builder-style override of
    /// [`entropy_profile`](DbgcConfig::entropy_profile).
    pub fn with_entropy_profile(mut self, profile: EntropyProfile) -> Self {
        self.entropy_profile = profile;
        self
    }

    /// Builder-style override of [`threads`](DbgcConfig::threads).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style override of
    /// [`spatial_index`](DbgcConfig::spatial_index).
    pub fn with_spatial_index(mut self, on: bool) -> Self {
        self.spatial_index = on;
        self
    }

    /// Clustering parameters implied by this configuration.
    ///
    /// Uses the surface-calibrated `minPts = ⌈πk²/12⌉` (see
    /// [`dbgc_clustering::ClusterParams::surface_default`]) — the paper's
    /// volume formula classifies nothing as dense on real scan geometry.
    pub fn cluster_params(&self) -> dbgc_clustering::ClusterParams {
        let mut p = dbgc_clustering::ClusterParams::surface_default(self.q_xyz, self.k);
        if let Some(m) = self.min_pts_override {
            p.min_pts = m;
        }
        p
    }

    /// Validate invariants; called by the compressor.
    pub fn validate(&self) -> Result<(), String> {
        // NaN must fail too, hence the partial_cmp form.
        if self.q_xyz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(format!("q_xyz must be positive, got {}", self.q_xyz));
        }
        if self.groups == 0 {
            return Err("groups must be >= 1".into());
        }
        if self.min_polyline_len == 0 {
            return Err("min_polyline_len must be >= 1".into());
        }
        if self.radial_optimized && !self.spherical_conversion {
            return Err("radial-optimized encoding requires spherical conversion (no radial \
                 distance channel in Cartesian mode)"
                .into());
        }
        if let SplitStrategy::NearestFraction(f) = self.split {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("nearest fraction must be in [0, 1], got {f}"));
            }
        }
        Ok(())
    }

    /// The −Radial ablation of Fig. 11.
    pub fn without_radial(mut self) -> Self {
        self.radial_optimized = false;
        self
    }

    /// The −Group ablation of Fig. 11.
    pub fn without_grouping(mut self) -> Self {
        self.groups = 1;
        self
    }

    /// The −Conversion ablation of Fig. 11.
    pub fn without_conversion(mut self) -> Self {
        self.spherical_conversion = false;
        self.radial_optimized = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        DbgcConfig::default().validate().unwrap();
        assert_eq!(DbgcConfig::default().cluster_params().min_pts, 27);
    }

    #[test]
    fn ablations_are_valid() {
        DbgcConfig::default().without_radial().validate().unwrap();
        DbgcConfig::default().without_grouping().validate().unwrap();
        DbgcConfig::default().without_conversion().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = DbgcConfig { q_xyz: 0.0, ..DbgcConfig::default() };
        assert!(c.validate().is_err());

        let c = DbgcConfig { groups: 0, ..DbgcConfig::default() };
        assert!(c.validate().is_err());

        // Radial still on:
        let c = DbgcConfig { spherical_conversion: false, ..DbgcConfig::default() };
        assert!(c.validate().is_err());

        let c = DbgcConfig { split: SplitStrategy::NearestFraction(1.5), ..DbgcConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn entropy_profile_builders() {
        let c = DbgcConfig::default();
        assert_eq!(c.entropy_profile, EntropyProfile::Narrow);
        assert_eq!(
            c.clone().with_entropy_profile(EntropyProfile::Dual).entropy_profile,
            EntropyProfile::Dual
        );
        let c = c.with_entropy_profile(EntropyProfile::Wide);
        assert_eq!(c.entropy_profile, EntropyProfile::Wide);
        c.validate().unwrap();
    }

    #[test]
    fn min_pts_override() {
        let c = DbgcConfig { min_pts_override: Some(42), ..DbgcConfig::default() };
        assert_eq!(c.cluster_params().min_pts, 42);
    }
}
