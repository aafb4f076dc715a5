//! Uniform grid index over a point cloud, with cell side = ε.
//!
//! With cell side ε, all neighbours within ε of a point lie in the 3×3×3
//! block of cells around the point's own cell, so range queries touch at most
//! 27 cells.

use dbgc_geom::Point3;
use dbgc_geom::{floor_i64, FxHashMap};

/// Integer cell coordinates.
pub type Cell = (i64, i64, i64);

/// The cells of the 3×3×3 block around `cell` (itself included), in
/// `(dx, dy, dz)` order. A coordinate saturated at the `i64` range (a point
/// beyond ±2⁶³ cells) has no neighbour past it: offsets that would overflow
/// are skipped instead of wrapping.
pub(crate) fn block(cell: Cell) -> impl Iterator<Item = Cell> {
    const D: [i64; 3] = [-1, 0, 1];
    D.into_iter().flat_map(move |dx| {
        D.into_iter().flat_map(move |dy| {
            D.into_iter().filter_map(move |dz| {
                Some((cell.0.checked_add(dx)?, cell.1.checked_add(dy)?, cell.2.checked_add(dz)?))
            })
        })
    })
}

/// Below this size the sharded build's merge overhead outweighs the
/// parallel insert win; build serially.
const PARALLEL_BUILD_MIN_POINTS: usize = 1 << 14;

/// A hash-grid over points with fixed cell side.
#[derive(Debug, Clone)]
pub struct UniformGrid<'a> {
    points: &'a [Point3],
    cell_side: f64,
    cells: FxHashMap<Cell, Vec<u32>>,
}

impl<'a> UniformGrid<'a> {
    /// Index `points` with the given cell side (`> 0`) on `threads`
    /// (`DbgcConfig::threads` semantics, see `dbgc_parallel::pool_for`).
    ///
    /// Per-cell index lists are always in ascending point order, whichever
    /// build strategy runs, so downstream range queries are deterministic.
    pub fn build(points: &'a [Point3], cell_side: f64, threads: usize) -> Self {
        assert!(cell_side > 0.0, "cell side must be positive");
        if points.len() >= PARALLEL_BUILD_MIN_POINTS {
            if let Some(pool) = dbgc_parallel::pool_for(threads) {
                return Self::build_sharded(points, cell_side, pool);
            }
        }
        Self::build_serial(points, cell_side)
    }

    fn build_serial(points: &'a [Point3], cell_side: f64) -> Self {
        let mut cells: FxHashMap<Cell, Vec<u32>> = FxHashMap::default();
        for (i, &p) in points.iter().enumerate() {
            cells.entry(Self::cell_for(p, cell_side)).or_default().push(i as u32);
        }
        UniformGrid { points, cell_side, cells }
    }

    /// Parallel build: each worker indexes one contiguous chunk of the input
    /// into a private shard, then shards merge in chunk order. Chunks are
    /// ascending index ranges, so shard-order concatenation keeps every
    /// per-cell list in ascending order — identical to the serial build.
    fn build_sharded(
        points: &'a [Point3],
        cell_side: f64,
        pool: &dbgc_parallel::ThreadPool,
    ) -> Self {
        let n = points.len();
        let chunk_len = n.div_ceil(pool.threads());
        let ranges: Vec<std::ops::Range<usize>> = (0..n.div_ceil(chunk_len))
            .map(|c| c * chunk_len..((c + 1) * chunk_len).min(n))
            .collect();
        let shards: Vec<FxHashMap<Cell, Vec<u32>>> = pool.map_with_grain(&ranges, 1, |_, range| {
            let mut shard: FxHashMap<Cell, Vec<u32>> = FxHashMap::default();
            for i in range.clone() {
                shard.entry(Self::cell_for(points[i], cell_side)).or_default().push(i as u32);
            }
            shard
        });
        let mut shards = shards.into_iter();
        let mut cells = shards.next().unwrap_or_default();
        for shard in shards {
            for (cell, idxs) in shard {
                cells.entry(cell).or_default().extend_from_slice(&idxs);
            }
        }
        UniformGrid { points, cell_side, cells }
    }

    /// The cell of `p`: `⌊coordinate / side⌋` per axis, saturating at the
    /// `i64` range.
    #[inline]
    pub(crate) fn cell_for(p: Point3, side: f64) -> Cell {
        (floor_i64(p.x / side), floor_i64(p.y / side), floor_i64(p.z / side))
    }

    /// Cell of point index `i`.
    #[inline]
    pub fn cell_of(&self, i: usize) -> Cell {
        Self::cell_for(self.points[i], self.cell_side)
    }

    /// Number of non-empty cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Iterate over `(cell, point indices)` pairs.
    pub fn iter_cells(&self) -> impl Iterator<Item = (&Cell, &Vec<u32>)> {
        self.cells.iter()
    }

    /// Points in a specific cell (empty slice if none).
    pub fn points_in_cell(&self, cell: Cell) -> &[u32] {
        self.cells.get(&cell).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of points in `cell`.
    pub fn count_in_cell(&self, cell: Cell) -> usize {
        self.cells.get(&cell).map_or(0, Vec::len)
    }

    /// Indices of all points within `radius` of point `i` (excluding `i`
    /// itself). `radius` must be `<= cell_side` for the 27-cell scan to be
    /// exhaustive.
    pub fn neighbors_within(&self, i: usize, radius: f64, out: &mut Vec<u32>) {
        debug_assert!(radius <= self.cell_side * (1.0 + 1e-9));
        out.clear();
        let p = self.points[i];
        let r2 = radius * radius;
        for cell in block(self.cell_of(i)) {
            if let Some(idxs) = self.cells.get(&cell) {
                for &j in idxs {
                    if j as usize != i && p.dist2(self.points[j as usize]) <= r2 {
                        out.push(j);
                    }
                }
            }
        }
    }

    /// Count of points within `radius` of point `i`, including `i` itself
    /// (the DBSCAN `|N_ε(p)|` convention).
    pub fn count_within(&self, i: usize, radius: f64) -> usize {
        let p = self.points[i];
        let r2 = radius * radius;
        block(self.cell_of(i))
            .filter_map(|cell| self.cells.get(&cell))
            .map(|idxs| idxs.iter().filter(|&&j| p.dist2(self.points[j as usize]) <= r2).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<Point3> {
        vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(0.05, 0.0, 0.0),
            Point3::new(0.0, 0.09, 0.0),
            Point3::new(1.0, 1.0, 1.0),
            Point3::new(-0.09, 0.0, 0.0),
        ]
    }

    #[test]
    fn neighbors_within_radius() {
        let pts = grid_points();
        let grid = UniformGrid::build(&pts, 0.1, 0);
        let mut out = Vec::new();
        grid.neighbors_within(0, 0.1, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 4]);
    }

    #[test]
    fn count_includes_self() {
        let pts = grid_points();
        let grid = UniformGrid::build(&pts, 0.1, 0);
        assert_eq!(grid.count_within(0, 0.1), 4);
        assert_eq!(grid.count_within(3, 0.1), 1); // isolated point
    }

    #[test]
    fn neighbors_across_cell_borders() {
        // Points in adjacent cells but within radius.
        let pts = vec![Point3::new(0.099, 0.0, 0.0), Point3::new(0.101, 0.0, 0.0)];
        let grid = UniformGrid::build(&pts, 0.1, 0);
        let mut out = Vec::new();
        grid.neighbors_within(0, 0.1, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn negative_coordinates() {
        let pts = vec![Point3::new(-0.05, -0.05, -0.05), Point3::new(0.01, 0.01, 0.01)];
        let grid = UniformGrid::build(&pts, 0.1, 0);
        let mut out = Vec::new();
        grid.neighbors_within(0, 0.2_f64.min(0.1), &mut out);
        // dist ≈ 0.104 > 0.1: not a neighbour at radius 0.1.
        assert!(out.is_empty());
        assert_eq!(grid.cell_of(0), (-1, -1, -1));
    }

    #[test]
    fn sharded_build_matches_serial() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        // Enough points to clear PARALLEL_BUILD_MIN_POINTS.
        let pts: Vec<Point3> = (0..PARALLEL_BUILD_MIN_POINTS + 1000)
            .map(|_| {
                Point3::new(
                    rng.gen_range(-20.0..20.0),
                    rng.gen_range(-20.0..20.0),
                    rng.gen_range(-2.0..2.0),
                )
            })
            .collect();
        let serial = UniformGrid::build_serial(&pts, 0.5);
        for threads in [1, 2, 4] {
            let built = UniformGrid::build(&pts, 0.5, threads);
            assert_eq!(built.cell_count(), serial.cell_count(), "threads {threads}");
            for (cell, idxs) in serial.iter_cells() {
                let got = built.points_in_cell(*cell);
                assert_eq!(got, idxs.as_slice(), "threads {threads} cell {cell:?}");
            }
        }
    }

    #[test]
    fn exhaustive_against_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let pts: Vec<Point3> = (0..500)
            .map(|_| {
                Point3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let radius = 0.15;
        let grid = UniformGrid::build(&pts, radius, 0);
        let mut out = Vec::new();
        for i in 0..pts.len() {
            grid.neighbors_within(i, radius, &mut out);
            let mut got: Vec<u32> = out.clone();
            got.sort_unstable();
            let mut expected: Vec<u32> = (0..pts.len() as u32)
                .filter(|&j| j as usize != i && pts[i].dist(pts[j as usize]) <= radius)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "mismatch at point {i}");
            assert_eq!(grid.count_within(i, radius), expected.len() + 1);
        }
    }
}
