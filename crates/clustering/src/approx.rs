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
//! * the **sorted-key** fast path packs each point's cell into one `u64`
//!   (per axis: the cell coordinate minus the frame's smallest, plus one, in
//!   the fewest bits that also hold one guard value on each side), radix
//!   sorts the `(key, point)` pairs and counts runs, so every occupied cell
//!   gets a dense index. Keys order cells by `(x, y, z)`, so a cell's
//!   3×3×3 block is nine rows of three consecutive keys, and because the
//!   guards keep every neighbour key in range, each row's first key is the
//!   cell's key plus a constant. The density sum therefore walks the sorted
//!   cell list with nine pointers that only move forward, one per `(dx, dy)`
//!   row, and the one-ring dilation walks the dense cells the same way,
//!   marking their blocks; each point then reads its verdict through its
//!   cell's index. No pass hashes;
//! * the **cell-tuple** path is the original hash-grid formulation, kept
//!   both as the fallback for clouds whose three fields need more than 64
//!   bits (a span beyond ~2²¹ cells on every axis, or a coordinate beyond
//!   the `i64` cell range) or that hold a non-finite coordinate, and as the
//!   scalar reference the equivalence tests compare against.
//!
//! `threads` fans out the key pass, both walks (over cell ranges whose nine
//! pointers are seeded by binary search) and the classification. Every pass
//! is a pure function of the point set, so the resulting [`DensitySplit`] —
//! and therefore the compressed bitstream — is identical across
//! implementations and thread counts.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use dbgc_geom::{radix_sort, FxHashMap, FxHashSet, Point3};

use crate::grid::{block, Cell, UniformGrid};
use crate::params::ClusterParams;
use crate::DensitySplit;

/// The 3×3×3 cell block around a point covers ~2.9× the area a planar
/// surface patch exposes inside the ε-ball (9ε² vs πε²), so the box counts
/// run systematically higher than the exact algorithm's ball counts. Scaling
/// `minPts` by this factor keeps the two algorithms' dense sets nearly
/// identical (§4.3's claim), instead of the approximation over-marking.
const BOX_TO_BALL: f64 = 9.0 / std::f64::consts::PI;

/// Cells per work item of the two walks: each item seeds its nine pointers
/// with a binary search, so items stay cheap to start while a frame's
/// ~10⁴–10⁵ cells still spread over the pool.
const WALK_CHUNK: usize = 256;

/// Run the approximate clustering on `threads` (`0` = current pool, `1` =
/// inline serial, `n > 1` = grow the pool), mirroring `DbgcConfig::threads`.
/// The split is identical for every setting.
pub fn approx_cluster(points: &[Point3], params: ClusterParams, threads: usize) -> DensitySplit {
    let params = ClusterParams {
        eps: params.eps,
        min_pts: ((params.min_pts as f64 * BOX_TO_BALL).round() as usize).max(1),
    };
    match KeyLayout::for_points(points, params.eps) {
        Some(layout) => approx_sorted(points, layout, params, threads),
        None => approx_cells(points, params, threads),
    }
}

/// How one frame's cells pack into a `u64`: `x | y | z` fields, most
/// significant first, each holding `cell − min + 1` so the values `0` and
/// `span + 1` stay free as guards. With the guards, a neighbour's key is the
/// cell's key plus a constant: no ±1 offset can borrow from or carry into
/// the next field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyLayout {
    min: [i64; 3],
    /// Bit offsets of the x and y fields (z sits at bit 0).
    shift: [u32; 2],
}

impl KeyLayout {
    /// The layout for the cells of side `side` that `points` occupy, or
    /// `None` when there are no points, a coordinate is not finite, or the
    /// fields would need more than 64 bits. Division by a positive side and
    /// `floor` are monotone, so the bounding box's corners lie in the
    /// extreme cells.
    fn for_points(points: &[Point3], side: f64) -> Option<KeyLayout> {
        let first = *points.first()?;
        let (mut lo, mut hi, mut finite) = (first, first, true);
        for p in points {
            // Plain comparisons skip `f64::min`'s NaN handling; a NaN
            // clears `finite` instead.
            finite &= p.x.abs() <= f64::MAX && p.y.abs() <= f64::MAX && p.z.abs() <= f64::MAX;
            lo = Point3::new(
                if p.x < lo.x { p.x } else { lo.x },
                if p.y < lo.y { p.y } else { lo.y },
                if p.z < lo.z { p.z } else { lo.z },
            );
            hi = Point3::new(
                if p.x > hi.x { p.x } else { hi.x },
                if p.y > hi.y { p.y } else { hi.y },
                if p.z > hi.z { p.z } else { hi.z },
            );
        }
        if !finite {
            return None;
        }
        Self::fit(UniformGrid::cell_for(lo, side), UniformGrid::cell_for(hi, side))
    }

    /// The layout for cells between `lo` and `hi` (inclusive, per axis), or
    /// `None` when the three fields would need more than 64 bits.
    fn fit(lo: Cell, hi: Cell) -> Option<KeyLayout> {
        // Largest field value: the upper guard, `span + 1`.
        let bits = |lo: i64, hi: i64| {
            let top = u64::try_from(hi as i128 - lo as i128 + 2).ok()?;
            Some(u64::BITS - top.leading_zeros())
        };
        let (bx, by, bz) = (bits(lo.0, hi.0)?, bits(lo.1, hi.1)?, bits(lo.2, hi.2)?);
        (bx + by + bz <= u64::BITS)
            .then_some(KeyLayout { min: [lo.0, lo.1, lo.2], shift: [by + bz, bz] })
    }

    #[inline]
    fn pack(&self, (x, y, z): Cell) -> u64 {
        let field = |v: i64, a: usize| (v - self.min[a] + 1) as u64;
        field(x, 0) << self.shift[0] | field(y, 1) << self.shift[1] | field(z, 2)
    }

    /// Key deltas to the first cell (`dz = −1`) of each `(dx, dy)` row of a
    /// 3×3×3 block, in `(dx, dy)` order; the row's other two cells follow at
    /// `+1` and `+2`.
    fn row_offsets(&self) -> [u64; 9] {
        let mut out = [0u64; 9];
        for (i, (dx, dy)) in
            (-1i64..=1).flat_map(|dx| (-1i64..=1).map(move |dy| (dx, dy))).enumerate()
        {
            out[i] = ((dx << self.shift[0]) + (dy << self.shift[1]) - 1) as u64;
        }
        out
    }
}

/// Nine forward-only cursors into the sorted cell keys, one per `(dx, dy)`
/// row of a 3×3×3 block. Cells are visited in ascending key order, and every
/// row's first key is the cell's key plus a constant, so each cursor only
/// ever moves forward: a walk over `m` cells advances them `O(m)` in total.
struct Rows<'a> {
    keys: &'a [u64],
    offsets: [u64; 9],
    at: [usize; 9],
}

impl<'a> Rows<'a> {
    /// Cursors for a walk starting at the cell with key `first`.
    fn seek(keys: &'a [u64], offsets: [u64; 9], first: u64) -> Rows<'a> {
        let at = offsets.map(|off| keys.partition_point(|&k| k < first.wrapping_add(off)));
        Rows { keys, offsets, at }
    }

    /// Indices of the occupied cells of row `j` in the block of `key` (at
    /// most three, consecutive). `key` must not be below the previous call's.
    #[inline]
    fn row(&mut self, j: usize, key: u64) -> Range<usize> {
        let first = key.wrapping_add(self.offsets[j]);
        let mut p = self.at[j];
        while p < self.keys.len() && self.keys[p] < first {
            p += 1;
        }
        self.at[j] = p;
        let mut q = p;
        while q < self.keys.len() && self.keys[q] <= first.wrapping_add(2) {
            q += 1;
        }
        p..q
    }
}

/// The sorted-key passes; `params` are already `BOX_TO_BALL`-scaled.
fn approx_sorted(
    points: &[Point3],
    layout: KeyLayout,
    params: ClusterParams,
    threads: usize,
) -> DensitySplit {
    // Pass 1: sort (key, point) pairs and count runs; run `c` is the cell
    // with dense index `c`.
    let mut pairs = dbgc_parallel::map(threads, points, |i, &p| {
        (layout.pack(UniformGrid::cell_for(p, params.eps)), i as u32)
    });
    radix_sort(&mut pairs);
    let min_pts = params.min_pts;
    let mut keys: Vec<u64> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut point_cell = vec![0u32; points.len()];
    for &(key, i) in &pairs {
        if keys.last() != Some(&key) {
            keys.push(key);
            counts.push(0);
        }
        *counts.last_mut().expect("a run was just opened") += 1;
        point_cell[i as usize] = (keys.len() - 1) as u32;
    }
    drop(pairs);
    let (keys, counts) = (keys.as_slice(), counts.as_slice());
    let offsets = layout.row_offsets();

    // Pass 2: a cell is dense when its 3×3×3 block holds >= minPts. Each
    // `WALK_CHUNK`-cell range seeds its cursors by binary search.
    let ranges: Vec<Range<usize>> = (0..keys.len())
        .step_by(WALK_CHUNK)
        .map(|lo| lo..(lo + WALK_CHUNK).min(keys.len()))
        .collect();
    let dense = dbgc_parallel::map(threads, &ranges, |_, range| {
        let mut rows = Rows::seek(keys, offsets, keys[range.start]);
        let mut block_reaches_min = |key: u64| {
            let mut total = 0usize;
            (0..9).any(|j| {
                total += counts[rows.row(j, key)].iter().map(|&n| n as usize).sum::<usize>();
                total >= min_pts
            })
        };
        keys[range.clone()].iter().map(|&key| block_reaches_min(key)).collect::<Vec<bool>>()
    })
    .concat();

    // Pass 3: dilate by one ring (border cells of a cluster). Few cells
    // are dense (about a tenth of a city frame's), so each dense cell marks
    // its block instead of every other cell searching its own. Marks only
    // ever set a flag, so their order cannot change the result.
    let dense_cells: Vec<usize> = (0..keys.len()).filter(|&c| dense[c]).collect();
    let marks: Vec<AtomicBool> = dense.iter().map(|&d| AtomicBool::new(d)).collect();
    let chunks: Vec<&[usize]> = dense_cells.chunks(WALK_CHUNK).collect();
    dbgc_parallel::map(threads, &chunks, |_, chunk| {
        let mut rows = Rows::seek(keys, offsets, keys[chunk[0]]);
        for &c in *chunk {
            for j in 0..9 {
                for q in rows.row(j, keys[c]) {
                    marks[q].store(true, Ordering::Relaxed);
                }
            }
        }
    });
    // The fan-out has joined, so every mark is visible here.
    let dilated: Vec<bool> = marks.into_iter().map(AtomicBool::into_inner).collect();

    // Pass 4: each point reads its cell's verdict.
    let dense = dbgc_parallel::map(threads, &point_cell, |_, &c| dilated[c as usize]);
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
    let dense_flags = dbgc_parallel::map(threads, &cell_list, |_, &cell| {
        let mut total = 0usize;
        block(cell).any(|nb| {
            total += counts.get(&nb).copied().unwrap_or(0);
            total >= params.min_pts
        })
    });
    let dense_cells: FxHashSet<Cell> =
        cell_list.iter().zip(&dense_flags).filter(|(_, &d)| d).map(|(&c, _)| c).collect();

    // Pass 3: one-ring dilation.
    let dilated_flags = dbgc_parallel::map(threads, &cell_list, |i, &cell| {
        dense_flags[i] || block(cell).any(|nb| dense_cells.contains(&nb))
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

    /// A cloud whose three key fields need more than 64 bits must take the
    /// fallback instead of silently wrapping (which would misclassify).
    #[test]
    fn out_of_range_coordinates_fall_back() {
        let mut pts = mixed_cloud(86);
        pts.push(Point3::new(1.0e18, 0.0, 0.0)); // 2·10^18 cells at ε=0.5: 62 bits
        assert_eq!(KeyLayout::for_points(&pts, 0.5), None);
        assert!(KeyLayout::for_points(&pts[..pts.len() - 1], 0.5).is_some());
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

    #[test]
    fn key_layout_guards_every_field() {
        // Spans of 2^k - 2, 2^k - 1 and 2^k cells: the upper guard needs one
        // more bit exactly when the span reaches 2^k - 1.
        for (span, bits) in [(6i64, 3u32), (7, 4), (8, 4), (1, 2), (254, 8), (255, 9)] {
            let cells = [(-5, 0, 10), (-5 + span - 1, 0, 10 + span - 1)];
            let layout = KeyLayout::fit(cells[0], cells[1]).expect("fits");
            assert_eq!(layout.shift, [2 + bits, bits], "span {span}");
            assert_eq!(layout.pack(cells[0]), 1 << layout.shift[0] | 1 << layout.shift[1] | 1);
            // Every neighbour of every cell is the cell's key plus its offset.
            for &(x, y, z) in &cells {
                let key = layout.pack((x, y, z));
                let offsets = layout.row_offsets();
                let mut j = 0;
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let first = layout.pack((x + dx, y + dy, z - 1));
                        assert_eq!(key.wrapping_add(offsets[j]), first);
                        assert_eq!(layout.pack((x + dx, y + dy, z + 1)), first + 2);
                        j += 1;
                    }
                }
            }
        }
        assert_eq!(KeyLayout::for_points(&[], 0.2), None);
        assert_eq!(KeyLayout::for_points(&[Point3::new(f64::NAN, 0.0, 0.0)], 0.2), None);
    }

    /// A random cloud of one of five shapes, drawn from `seed`.
    fn shaped_cloud(shape: u8, seed: u64, n: usize, eps: f64) -> Vec<Point3> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point3> = Vec::with_capacity(n);
        match shape {
            // Uniform box straddling the origin: negative cells on every axis.
            0 => {
                let half = rng.gen_range(0.5..8.0) * eps;
                for _ in 0..n {
                    pts.push(Point3::new(
                        rng.gen_range(-half..half),
                        rng.gen_range(-half..half),
                        rng.gen_range(-half..half) * 0.3,
                    ));
                }
            }
            // Few distinct points, each repeated many times.
            1 => {
                let base: Vec<Point3> = (0..rng.gen_range(1..12))
                    .map(|_| {
                        Point3::new(
                            rng.gen_range(-3.0..3.0) * eps,
                            rng.gen_range(-3.0..3.0) * eps,
                            rng.gen_range(-1.0..1.0) * eps,
                        )
                    })
                    .collect();
                for _ in 0..n {
                    pts.push(base[rng.gen_range(0..base.len())]);
                }
            }
            // Most points piled into one cell, the rest scattered around it.
            2 => {
                let c = Point3::new(-7.5 * eps, 3.5 * eps, -0.5 * eps);
                for i in 0..n {
                    let spread = if i % 5 == 0 { 4.0 * eps } else { 0.45 * eps };
                    pts.push(Point3::new(
                        c.x + rng.gen_range(-spread..spread),
                        c.y + rng.gen_range(-spread..spread),
                        c.z + rng.gen_range(-spread..spread),
                    ));
                }
            }
            // Cell spans of 2^k - 2 ..= 2^k + 1 on each axis, so the extreme
            // cells sit on the boundaries of the packed fields.
            3 => {
                let span = |rng: &mut rand::rngs::StdRng| {
                    let k = rng.gen_range(1..8);
                    ((1i64 << k) - 2 + rng.gen_range(0..4)).max(1)
                };
                let (sx, sy, sz) = (span(&mut rng), span(&mut rng), span(&mut rng));
                let at = |c: i64| (c as f64 + 0.5) * eps;
                let (x0, y0, z0) = (-(sx / 2), -3, -(sz / 3) - 1);
                for (x, y, z) in [(x0, y0, z0), (x0 + sx - 1, y0 + sy - 1, z0 + sz - 1)] {
                    pts.push(Point3::new(at(x), at(y), at(z)));
                }
                for _ in 2..n {
                    let cell = if rng.gen_range(0..3) == 0 {
                        // Hug a face of the box.
                        (x0 + [0, sx - 1][rng.gen_range(0..2)], y0 + rng.gen_range(0..sy), z0)
                    } else {
                        (
                            x0 + rng.gen_range(0..sx),
                            y0 + rng.gen_range(0..sy),
                            z0 + rng.gen_range(0..sz),
                        )
                    };
                    pts.push(Point3::new(at(cell.0), at(cell.1), at(cell.2)));
                }
            }
            // Dense blobs in sparse noise.
            _ => {
                for i in 0..n {
                    let p = if i % 3 == 0 {
                        Point3::new(
                            rng.gen_range(-20.0..20.0) * eps,
                            rng.gen_range(-20.0..20.0) * eps,
                            rng.gen_range(-4.0..4.0) * eps,
                        )
                    } else {
                        let c = [(-6.0, 2.0), (5.0, -5.0), (0.0, 9.0)][i % 3];
                        Point3::new(
                            (c.0 + rng.gen_range(-1.5..1.5)) * eps,
                            (c.1 + rng.gen_range(-1.5..1.5)) * eps,
                            rng.gen_range(-0.5..0.5) * eps,
                        )
                    };
                    pts.push(p);
                }
            }
        }
        pts
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The sorted-key passes reproduce the cell-tuple reference on every
        /// shape, `min_pts` and thread count.
        #[test]
        fn sorted_keys_match_cell_tuple_reference(
            shape in 0u8..5,
            seed in proptest::any::<u64>(),
            n in 1usize..1500,
            pick in 0usize..3,
        ) {
            let eps = 0.2;
            let pts = shaped_cloud(shape, seed, n, eps);
            let min_pts = [1, 27, usize::MAX][pick];
            let params = ClusterParams::new(eps, min_pts);
            let scaled = ClusterParams {
                eps,
                min_pts: ((min_pts as f64 * BOX_TO_BALL).round() as usize).max(1),
            };
            let reference = approx_cells(&pts, scaled, 1);
            for threads in [1, 2, 4] {
                let got = approx_cluster(&pts, params, threads);
                proptest::prop_assert_eq!(&got, &reference, "shape {} threads {}", shape, threads);
            }
        }
    }

    /// Coordinates far past the `i64` cell range saturate instead of
    /// overflowing in every algorithm, and the far points come out sparse.
    #[test]
    fn huge_finite_coordinates_do_not_overflow() {
        let mut pts = mixed_cloud(88);
        let n = pts.len();
        pts.push(Point3::new(1e300, 0.0, 0.0));
        pts.push(Point3::new(-1e300, -1e300, 1e300));
        pts.push(Point3::new(0.0, 1e300, -1e300));
        let params = ClusterParams::new(0.5, 30);
        let splits = [
            approx_cluster(&pts, params, 1),
            cell_based_cluster(&pts, params, 1),
            crate::dbscan(&pts, params, 1).split(),
        ];
        for split in &splits {
            assert_eq!(split.dense.len(), pts.len());
            assert!(split.dense[n..].iter().all(|&d| !d), "far points must be sparse");
            assert!(split.dense[..5000].iter().filter(|&&d| d).count() > 4900);
        }
    }
}
