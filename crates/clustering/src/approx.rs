//! Approximate `O(n)` clustering (paper §4.3).
//!
//! Instead of per-point neighbour counts, the cloud is bucketed into cells of
//! side ε and a cell is dense when the total point count over its 3×3×3
//! surrounding block reaches `minPts`. Dense cells are then dilated by one
//! ring (a sparse cell touching a dense cell becomes dense), and finally all
//! points in dense cells are classified dense.
//!
//! The paper reports the resulting dense sets are nearly identical to the
//! exact cell-based algorithm while clustering runs ~2× faster.
//!
//! Two implementations share the passes above:
//!
//! * the **packed** fast path keys cells by a single `u64` (three 21-bit
//!   biased fields), so per-point keys compute in parallel chunks, the count
//!   map builds from per-shard maps merged by summation (order-independent,
//!   hence deterministic for any thread count), and a cell's 27 neighbours
//!   are 27 wrapping adds instead of 27 tuple constructions;
//! * the **cell-tuple** path is the original formulation, kept both as the
//!   fallback for clouds whose cell coordinates overflow the packed range
//!   (beyond ±2²⁰ cells ≈ ±200 km at ε = 0.2 m) and as the scalar reference
//!   the equivalence tests compare against.
//!
//! Every pass is a pure function of the point set, so the resulting
//! [`DensitySplit`] — and therefore the compressed bitstream — is identical
//! across implementations and thread counts.

use dbgc_geom::{FxHashMap, FxHashSet, Point3};

use crate::grid::{Cell, UniformGrid};
use crate::params::ClusterParams;
use crate::DensitySplit;

/// The 3×3×3 cell block around a point covers ~2.9× the area a planar
/// surface patch exposes inside the ε-ball (9ε² vs πε²), so the box counts
/// run systematically higher than the exact algorithm's ball counts. Scaling
/// `minPts` by this factor keeps the two algorithms' dense sets nearly
/// identical (§4.3's claim), instead of the approximation over-marking.
const BOX_TO_BALL: f64 = 9.0 / std::f64::consts::PI;

/// Bits per packed cell field.
const FIELD: u32 = 21;
/// Bias making packed fields non-negative.
const BIAS: i64 = 1 << (FIELD - 1);
/// Largest biased field value the pack accepts; the boundary values are
/// rejected so a ±1 neighbour offset can never borrow into the next field.
const FIELD_MAX: i64 = (1 << FIELD) - 2;
/// Sentinel for a cell outside the packed range (never a valid key: valid
/// keys have bit 63 clear and no all-ones field).
const INVALID_KEY: u64 = u64::MAX;

/// Run the approximate clustering on `threads` (`0` = current pool, `1` =
/// inline serial, `n > 1` = grow the pool), mirroring `DbgcConfig::threads`.
/// The split is identical for every setting.
pub fn approx_cluster(points: &[Point3], params: ClusterParams, threads: usize) -> DensitySplit {
    let params = ClusterParams {
        eps: params.eps,
        min_pts: ((params.min_pts as f64 * BOX_TO_BALL).round() as usize).max(1),
    };
    let keys = dbgc_parallel::map(threads, points, |_, &p| pack_cell(p, params.eps));
    if keys.contains(&INVALID_KEY) {
        return approx_cells(points, params, threads);
    }
    approx_packed(&keys, params.min_pts, threads)
}

/// Pack the cell of `p` into one `u64` (x, y, z as biased 21-bit fields),
/// or [`INVALID_KEY`] when a coordinate falls outside the packable range.
#[inline]
fn pack_cell(p: Point3, side: f64) -> u64 {
    let cx = (p.x / side).floor() as i64 + BIAS;
    let cy = (p.y / side).floor() as i64 + BIAS;
    let cz = (p.z / side).floor() as i64 + BIAS;
    let ok = |c: i64| (1..=FIELD_MAX).contains(&c);
    if !ok(cx) || !ok(cy) || !ok(cz) {
        return INVALID_KEY;
    }
    ((cx as u64) << (2 * FIELD)) | ((cy as u64) << FIELD) | cz as u64
}

/// The 27 packed-key deltas of a cell's 3×3×3 neighbourhood. Fields of valid
/// keys stay in `[1, FIELD_MAX]`, so the wrapping add never crosses a field
/// boundary and `key + offset` is exactly the neighbour's key.
fn neighbor_offsets() -> [u64; 27] {
    let mut out = [0u64; 27];
    let mut i = 0;
    for dx in -1i64..=1 {
        for dy in -1i64..=1 {
            for dz in -1i64..=1 {
                out[i] = ((dx << (2 * FIELD)) + (dy << FIELD) + dz) as u64;
                i += 1;
            }
        }
    }
    out
}

/// Chunk length for the sharded count build; big enough that shard-merge
/// overhead stays negligible, small enough to spread a frame over the pool.
const COUNT_CHUNK: usize = 1 << 14;

fn approx_packed(keys: &[u64], min_pts: usize, threads: usize) -> DensitySplit {
    // Pass 1: per-cell counts. Each worker counts one contiguous chunk into
    // a private shard; shards merge by summation, which is order-independent
    // — the merged map is identical for any shard count or merge order.
    let ranges: Vec<(usize, usize)> = (0..keys.len())
        .step_by(COUNT_CHUNK.max(1))
        .map(|lo| (lo, (lo + COUNT_CHUNK).min(keys.len())))
        .collect();
    let shards: Vec<FxHashMap<u64, u32>> = dbgc_parallel::map(threads, &ranges, |_, &(lo, hi)| {
        let mut shard: FxHashMap<u64, u32> = FxHashMap::default();
        for &k in &keys[lo..hi] {
            *shard.entry(k).or_insert(0) += 1;
        }
        shard
    });
    let mut shards = shards.into_iter();
    let mut counts = shards.next().unwrap_or_default();
    for shard in shards {
        for (key, c) in shard {
            *counts.entry(key).or_insert(0) += c;
        }
    }
    let cell_list: Vec<u64> = counts.keys().copied().collect();
    let offsets = neighbor_offsets();

    // Pass 2: a cell is dense when its 3×3×3 neighbourhood holds >= minPts.
    // Each cell's verdict is independent, so the scan fans out over the pool.
    let dense_flags = dbgc_parallel::map(threads, &cell_list, |_, &key| {
        let mut total = 0usize;
        for &off in &offsets {
            if let Some(&c) = counts.get(&key.wrapping_add(off)) {
                total += c as usize;
                if total >= min_pts {
                    return true;
                }
            }
        }
        false
    });
    let dense_cells: FxHashSet<u64> =
        cell_list.iter().zip(&dense_flags).filter(|(_, &d)| d).map(|(&c, _)| c).collect();

    // Pass 3: dilate by one ring (border cells of a cluster). Reads only the
    // pass-2 set, so it parallelizes the same way.
    let dilated_flags = dbgc_parallel::map(threads, &cell_list, |i, &key| {
        if dense_flags[i] {
            return true;
        }
        offsets.iter().any(|&off| dense_cells.contains(&key.wrapping_add(off)))
    });
    let dilated: FxHashSet<u64> =
        cell_list.iter().zip(&dilated_flags).filter(|(_, &d)| d).map(|(&c, _)| c).collect();

    // Pass 4: classify points by cell membership, reusing the cached keys.
    let dense = dbgc_parallel::map(threads, keys, |_, &k| dilated.contains(&k));
    DensitySplit { dense }
}

/// The original cell-tuple formulation over a [`UniformGrid`]; `params` are
/// already `BOX_TO_BALL`-scaled.
fn approx_cells(points: &[Point3], params: ClusterParams, threads: usize) -> DensitySplit {
    let grid = UniformGrid::build(points, params.eps, threads);

    // Pass 1: per-cell counts.
    let counts: FxHashMap<Cell, usize> =
        grid.iter_cells().map(|(&c, idxs)| (c, idxs.len())).collect();
    let cell_list: Vec<Cell> = grid.iter_cells().map(|(&c, _)| c).collect();

    // Pass 2: 3×3×3 density verdicts.
    let dense_flags = dbgc_parallel::map(threads, &cell_list, |_, &(cx, cy, cz)| {
        let mut total = 0usize;
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    total += counts.get(&(cx + dx, cy + dy, cz + dz)).copied().unwrap_or(0);
                    if total >= params.min_pts {
                        return true;
                    }
                }
            }
        }
        false
    });
    let dense_cells: FxHashSet<Cell> =
        cell_list.iter().zip(&dense_flags).filter(|(_, &d)| d).map(|(&c, _)| c).collect();

    // Pass 3: one-ring dilation.
    let dilated_flags = dbgc_parallel::map(threads, &cell_list, |i, &(cx, cy, cz)| {
        if dense_flags[i] {
            return true;
        }
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    if dense_cells.contains(&(cx + dx, cy + dy, cz + dz)) {
                        return true;
                    }
                }
            }
        }
        false
    });
    let dilated: FxHashSet<Cell> =
        cell_list.iter().zip(&dilated_flags).filter(|(_, &d)| d).map(|(&c, _)| c).collect();

    // Pass 4: classify points by cell membership.
    let dense = dbgc_parallel::map(threads, points, |i, _| dilated.contains(&grid.cell_of(i)));
    DensitySplit { dense }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_based::cell_based_cluster;
    use rand::{Rng, SeedableRng};

    fn mixed_cloud(seed: u64) -> Vec<Point3> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        // Dense slab.
        for _ in 0..5000 {
            pts.push(Point3::new(
                rng.gen_range(-3.0..3.0),
                rng.gen_range(-3.0..3.0),
                rng.gen_range(-0.2..0.2),
            ));
        }
        // Sparse halo.
        for _ in 0..800 {
            let r = rng.gen_range(20.0..70.0);
            let th = rng.gen_range(0.0..std::f64::consts::TAU);
            pts.push(Point3::new(r * th.cos(), r * th.sin(), rng.gen_range(-1.0..2.0)));
        }
        pts
    }

    #[test]
    fn splits_dense_from_sparse() {
        let pts = mixed_cloud(80);
        let split = approx_cluster(&pts, ClusterParams::new(0.5, 30), 0);
        let slab = split.dense[..5000].iter().filter(|&&d| d).count();
        let halo = split.dense[5000..].iter().filter(|&&d| d).count();
        assert!(slab > 4900, "slab dense: {slab}/5000");
        assert!(halo < 80, "halo dense: {halo}/800");
    }

    #[test]
    fn nearly_matches_exact_cell_based() {
        // §4.3: "the sets of resulting dense points generated by the two
        // algorithms are nearly the same".
        let pts = mixed_cloud(81);
        let params = ClusterParams::new(0.5, 30);
        let approx = approx_cluster(&pts, params, 0);
        let exact = cell_based_cluster(&pts, params, 0);
        let diff = approx.dense.iter().zip(&exact.dense).filter(|(a, b)| a != b).count();
        assert!(
            (diff as f64) < pts.len() as f64 * 0.05,
            "dense sets differ on {diff}/{} points",
            pts.len()
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(approx_cluster(&[], ClusterParams::new(0.2, 5), 0).dense_count(), 0);
    }

    #[test]
    fn min_pts_one_marks_dense_blob() {
        // 1 × box-to-ball rounds to 3: any block with >= 3 points is dense,
        // so the slab is fully covered.
        let pts = mixed_cloud(82);
        let split = approx_cluster(&pts, ClusterParams::new(0.5, 1), 0);
        assert!(split.dense[..5000].iter().all(|&d| d));
    }

    /// The packed fast path must reproduce the cell-tuple reference exactly —
    /// it is the same algorithm over a different cell key.
    #[test]
    fn packed_matches_cell_tuple_reference() {
        for seed in [83, 84, 85] {
            let pts = mixed_cloud(seed);
            for min_pts in [1, 10, 30] {
                let params = ClusterParams::new(0.5, min_pts);
                let scaled = ClusterParams {
                    eps: params.eps,
                    min_pts: ((min_pts as f64 * BOX_TO_BALL).round() as usize).max(1),
                };
                let packed = approx_cluster(&pts, params, 0);
                let cells = approx_cells(&pts, scaled, 0);
                assert_eq!(packed, cells, "seed {seed} min_pts {min_pts}");
            }
        }
    }

    /// Far-away coordinates overflow the packed fields and must take the
    /// fallback instead of silently clamping (which would misclassify).
    #[test]
    fn out_of_range_coordinates_fall_back() {
        let mut pts = mixed_cloud(86);
        pts.push(Point3::new(1.0e7, 0.0, 0.0)); // ~2·10^7 cells at ε=0.5
        assert_eq!(pack_cell(pts[pts.len() - 1], 0.5), INVALID_KEY);
        let params = ClusterParams::new(0.5, 30);
        let split = approx_cluster(&pts, params, 0);
        assert_eq!(split.dense.len(), pts.len());
        assert!(!split.dense[pts.len() - 1], "isolated far point is sparse");
        // The in-range prefix classifies exactly as without the outlier.
        let base = approx_cluster(&pts[..pts.len() - 1], params, 0);
        // The far point cannot affect any 3×3×3 neighbourhood near origin.
        assert_eq!(&split.dense[..pts.len() - 1], &base.dense[..]);
    }

    /// Thread-count independence: the split is a pure function of the cloud.
    #[test]
    fn thread_count_does_not_change_split() {
        let pts = mixed_cloud(87);
        let params = ClusterParams::new(0.5, 30);
        let serial = approx_cluster(&pts, params, 1);
        let pooled = approx_cluster(&pts, params, 4);
        assert_eq!(serial, pooled);
    }
}
