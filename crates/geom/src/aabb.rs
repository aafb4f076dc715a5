//! Axis-aligned bounding volumes used by the tree coders.

use crate::point::Point3;

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Componentwise minimum corner.
    pub min: Point3,
    /// Componentwise maximum corner.
    pub max: Point3,
}

impl Aabb {
    /// Smallest box containing all `points`; `None` when `points` is empty.
    pub fn from_points(points: &[Point3]) -> Option<Aabb> {
        let mut it = points.iter();
        let first = *it.next()?;
        let mut bb = Aabb { min: first, max: first };
        for &p in it {
            bb.min = bb.min.min(p);
            bb.max = bb.max.max(p);
        }
        Some(bb)
    }

    /// Box spanning both input boxes.
    pub fn union(self, other: Aabb) -> Aabb {
        Aabb { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    #[inline]
    /// Side lengths per axis.
    pub fn extent(&self) -> Point3 {
        self.max - self.min
    }

    /// Length of the longest side.
    #[inline]
    pub fn longest_side(&self) -> f64 {
        let e = self.extent();
        e.x.max(e.y).max(e.z)
    }

    #[inline]
    /// Box volume.
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    #[inline]
    /// Box centre.
    pub fn center(&self) -> Point3 {
        (self.min + self.max) * 0.5
    }

    /// Inclusive containment test.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }
}

/// A cube: the root volume of an octree (paper §2.1, "Octree Representation").
///
/// The cube's side is the longest side of the cloud's bounding box, anchored at
/// the box minimum, so recursive halving yields cubic cells at every level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingCube {
    /// Minimum corner of the cube.
    pub origin: Point3,
    /// Side length (equal on all axes).
    pub side: f64,
}

impl BoundingCube {
    /// Cube enclosing `bb`, with a tiny inflation so points exactly on the max
    /// face still fall strictly inside cell index computations.
    pub fn enclosing(bb: Aabb) -> BoundingCube {
        let side = bb.longest_side().max(f64::MIN_POSITIVE);
        BoundingCube { origin: bb.min, side: side * (1.0 + 1e-12) }
    }

    /// Cube from explicit origin and side.
    pub fn new(origin: Point3, side: f64) -> BoundingCube {
        BoundingCube { origin, side }
    }

    /// Depth needed so leaf cells have side `<= max_leaf_side`.
    ///
    /// The octree halves the side at each level, so the depth is
    /// `ceil(log2(side / max_leaf_side))`, clamped at 0.
    pub fn depth_for_leaf_side(&self, max_leaf_side: f64) -> u32 {
        assert!(max_leaf_side > 0.0, "leaf side must be positive");
        if self.side <= max_leaf_side {
            return 0;
        }
        let d = (self.side / max_leaf_side).log2().ceil() as u32;
        // Guard against floating-point slop: pow2 check.
        let leaf = self.side / (1u64 << d.min(62)) as f64;
        if leaf > max_leaf_side {
            d + 1
        } else {
            d
        }
    }

    /// Integer cell coordinates of `p` at the given tree `depth`.
    ///
    /// Returns `None` when `p` lies outside the cube.
    pub fn cell_at_depth(&self, p: Point3, depth: u32) -> Option<(u64, u64, u64)> {
        let cells = 1u64 << depth;
        let rel = (p - self.origin) / self.side;
        let to_idx = |v: f64| -> Option<u64> {
            if !(0.0..=1.0).contains(&v) {
                return None;
            }
            Some(((v * cells as f64) as u64).min(cells - 1))
        };
        Some((to_idx(rel.x)?, to_idx(rel.y)?, to_idx(rel.z)?))
    }

    /// Centre of the leaf cell with integer coordinates `(ix, iy, iz)` at `depth`.
    #[inline]
    pub fn cell_center(&self, cell: (u64, u64, u64), depth: u32) -> Point3 {
        let side = self.side / (1u64 << depth) as f64;
        Point3::new(
            self.origin.x + (cell.0 as f64 + 0.5) * side,
            self.origin.y + (cell.1 as f64 + 0.5) * side,
            self.origin.z + (cell.2 as f64 + 0.5) * side,
        )
    }

    /// Side length of a cell at `depth`.
    #[inline]
    pub fn cell_side(&self, depth: u32) -> f64 {
        self.side / (1u64 << depth) as f64
    }
}

/// A 2D axis-aligned rectangle; root volume of the outlier quadtree (paper §3.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect2 {
    /// Minimum x of the square.
    pub min_x: f64,
    /// Minimum y of the square.
    pub min_y: f64,
    /// Side length of the square.
    pub side: f64,
}

impl Rect2 {
    /// Smallest square anchored at the (x, y) minimum covering all points.
    pub fn enclosing_xy(points: &[Point3]) -> Option<Rect2> {
        let mut it = points.iter();
        let first = it.next()?;
        let (mut min_x, mut max_x) = (first.x, first.x);
        let (mut min_y, mut max_y) = (first.y, first.y);
        for p in it {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let side = (max_x - min_x).max(max_y - min_y).max(f64::MIN_POSITIVE);
        Some(Rect2 { min_x, min_y, side: side * (1.0 + 1e-12) })
    }

    /// Depth needed so leaf cells have side `<= max_leaf_side`.
    pub fn depth_for_leaf_side(&self, max_leaf_side: f64) -> u32 {
        assert!(max_leaf_side > 0.0, "leaf side must be positive");
        if self.side <= max_leaf_side {
            return 0;
        }
        let d = (self.side / max_leaf_side).log2().ceil() as u32;
        let leaf = self.side / (1u64 << d.min(62)) as f64;
        if leaf > max_leaf_side {
            d + 1
        } else {
            d
        }
    }

    /// Integer cell coordinates of `(x, y)` at `depth`, or `None` if outside.
    pub fn cell_at_depth(&self, x: f64, y: f64, depth: u32) -> Option<(u64, u64)> {
        let cells = 1u64 << depth;
        let rx = (x - self.min_x) / self.side;
        let ry = (y - self.min_y) / self.side;
        if !(0.0..=1.0).contains(&rx) || !(0.0..=1.0).contains(&ry) {
            return None;
        }
        Some((
            ((rx * cells as f64) as u64).min(cells - 1),
            ((ry * cells as f64) as u64).min(cells - 1),
        ))
    }

    /// Centre of cell `(ix, iy)` at `depth`.
    #[inline]
    pub fn cell_center(&self, cell: (u64, u64), depth: u32) -> (f64, f64) {
        let side = self.side / (1u64 << depth) as f64;
        (self.min_x + (cell.0 as f64 + 0.5) * side, self.min_y + (cell.1 as f64 + 0.5) * side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aabb_from_points() {
        let pts =
            [Point3::new(1.0, -2.0, 3.0), Point3::new(-1.0, 4.0, 0.0), Point3::new(0.0, 0.0, 5.0)];
        let bb = Aabb::from_points(&pts).unwrap();
        assert_eq!(bb.min, Point3::new(-1.0, -2.0, 0.0));
        assert_eq!(bb.max, Point3::new(1.0, 4.0, 5.0));
        assert_eq!(bb.longest_side(), 6.0);
        assert!(bb.contains(Point3::ZERO));
        assert!(!bb.contains(Point3::new(2.0, 0.0, 0.0)));
    }

    #[test]
    fn aabb_empty() {
        assert!(Aabb::from_points(&[]).is_none());
    }

    #[test]
    fn cube_depth_for_leaf() {
        let cube = BoundingCube::new(Point3::ZERO, 64.0);
        // 64 / 2^5 = 2.0, so depth 5 gives exactly the requested leaf side.
        let d = cube.depth_for_leaf_side(2.0);
        assert!(cube.cell_side(d) <= 2.0 + 1e-9);
        assert!(cube.cell_side(d) > 0.5, "should not over-subdivide");
    }

    #[test]
    fn cube_cell_roundtrip() {
        let cube = BoundingCube::new(Point3::new(-10.0, -10.0, -10.0), 20.0);
        let depth = 6;
        let p = Point3::new(3.21, -7.5, 0.0);
        let cell = cube.cell_at_depth(p, depth).unwrap();
        let c = cube.cell_center(cell, depth);
        // Centre is within half a cell side of the point on each axis.
        let half = cube.cell_side(depth) / 2.0;
        assert!((c.x - p.x).abs() <= half + 1e-12);
        assert!((c.y - p.y).abs() <= half + 1e-12);
        assert!((c.z - p.z).abs() <= half + 1e-12);
    }

    #[test]
    fn cube_rejects_outside_points() {
        let cube = BoundingCube::new(Point3::ZERO, 1.0);
        assert!(cube.cell_at_depth(Point3::new(2.0, 0.0, 0.0), 3).is_none());
        assert!(cube.cell_at_depth(Point3::new(-0.1, 0.0, 0.0), 3).is_none());
    }

    #[test]
    fn enclosing_cube_contains_all() {
        let pts =
            [Point3::new(0.0, 0.0, 0.0), Point3::new(5.0, 1.0, 1.0), Point3::new(2.0, 3.0, 4.0)];
        let cube = BoundingCube::enclosing(Aabb::from_points(&pts).unwrap());
        for p in pts {
            assert!(cube.cell_at_depth(p, 8).is_some());
        }
    }

    #[test]
    fn rect2_roundtrip() {
        let pts =
            [Point3::new(0.0, 0.0, -1.0), Point3::new(9.0, 3.0, 2.0), Point3::new(4.0, 8.0, 0.0)];
        let rect = Rect2::enclosing_xy(&pts).unwrap();
        let depth = rect.depth_for_leaf_side(0.04);
        assert!(rect.side / (1u64 << depth) as f64 <= 0.04 + 1e-12);
        for p in pts {
            let cell = rect.cell_at_depth(p.x, p.y, depth).unwrap();
            let (cx, cy) = rect.cell_center(cell, depth);
            assert!((cx - p.x).abs() <= 0.02 + 1e-9);
            assert!((cy - p.y).abs() <= 0.02 + 1e-9);
        }
    }

    #[test]
    fn cube_cell_count_at_depth() {
        let cube = BoundingCube::new(Point3::ZERO, 1.0);
        assert_eq!(cube.cell_at_depth(Point3::new(0.999, 0.999, 0.999), 2).unwrap(), (3, 3, 3));
        assert_eq!(cube.cell_at_depth(Point3::ZERO, 2).unwrap(), (0, 0, 0));
    }
}
