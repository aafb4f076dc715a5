//! Cartesian points and point clouds.

use std::ops::{Add, Div, Index, Mul, Neg, Sub};

use crate::spherical::Spherical;

/// A 3D point (or vector) in Cartesian coordinates, in metres.
///
/// LiDAR datasets (KITTI, Apollo, Ford) store single-precision coordinates;
/// we widen to `f64` internally so quantization arithmetic never loses
/// precision relative to the user-supplied error bound.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// Offset from the origin along x (metres).
    pub x: f64,
    /// Offset from the origin along y (metres).
    pub y: f64,
    /// Offset from the origin along z (metres).
    pub z: f64,
}

impl Point3 {
    /// The origin.
    pub const ZERO: Point3 = Point3 { x: 0.0, y: 0.0, z: 0.0 };

    #[inline]
    /// A point from its components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Euclidean norm (the radial distance `r` when measured from the origin).
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist2(self, other: Point3) -> f64 {
        (self - other).norm2()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point3) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Point3) -> Point3 {
        Point3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point3) -> Point3 {
        Point3::new(self.x.min(other.x), self.y.min(other.y), self.z.min(other.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point3) -> Point3 {
        Point3::new(self.x.max(other.x), self.y.max(other.y), self.z.max(other.z))
    }

    /// Largest absolute per-axis difference to `other` (L∞ distance).
    #[inline]
    pub fn linf_dist(self, other: Point3) -> f64 {
        let d = self - other;
        d.x.abs().max(d.y.abs()).max(d.z.abs())
    }

    /// Convert to spherical coordinates relative to the origin (the sensor).
    ///
    /// See [`Spherical::from_cartesian`].
    #[inline]
    pub fn to_spherical(self) -> Spherical {
        Spherical::from_cartesian(self)
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Index<usize> for Point3 {
    type Output = f64;

    /// Access components by axis index (0 = x, 1 = y, 2 = z).
    fn index(&self, axis: usize) -> &f64 {
        match axis {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("axis index out of range: {axis}"),
        }
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, o: Point3) -> Point3 {
        Point3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, o: Point3) -> Point3 {
        Point3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    #[inline]
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, s: f64) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, s: f64) -> Point3 {
        Point3::new(self.x / s, self.y / s, self.z / s)
    }
}

/// A point cloud: an unordered multiset of points (paper Definition 2.1).
///
/// The geometry channel only — attributes such as intensity are out of scope
/// for geometry compression and are dropped on ingest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointCloud {
    points: Vec<Point3>,
}

impl PointCloud {
    /// An empty cloud.
    pub fn new() -> Self {
        PointCloud { points: Vec::new() }
    }

    /// An empty cloud with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        PointCloud { points: Vec::with_capacity(n) }
    }

    /// A cloud taking ownership of `points`.
    pub fn from_points(points: Vec<Point3>) -> Self {
        PointCloud { points }
    }

    /// Number of points, `|PC|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    /// True when the cloud has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    #[inline]
    /// Append a point.
    pub fn push(&mut self, p: Point3) {
        self.points.push(p);
    }

    #[inline]
    /// The points as a slice.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    #[inline]
    /// Mutable access to the points.
    pub fn points_mut(&mut self) -> &mut [Point3] {
        &mut self.points
    }

    /// Consume the cloud, returning its points.
    pub fn into_points(self) -> Vec<Point3> {
        self.points
    }

    #[inline]
    /// Iterate over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point3> {
        self.points.iter()
    }

    /// The size of the uncompressed cloud in bytes, as defined by the paper's
    /// compression-ratio metric: three single-precision floats per point.
    #[inline]
    pub fn raw_size_bytes(&self) -> usize {
        self.points.len() * 3 * std::mem::size_of::<f32>()
    }

    /// Axis-aligned bounding box, or `None` for an empty cloud.
    pub fn aabb(&self) -> Option<crate::Aabb> {
        crate::Aabb::from_points(&self.points)
    }

    /// Point density in points per cubic metre over the bounding box.
    pub fn density(&self) -> f64 {
        match self.aabb() {
            Some(bb) if bb.volume() > 0.0 => self.points.len() as f64 / bb.volume(),
            _ => 0.0,
        }
    }

    /// Restrict the cloud to points within `radius` of the origin (used for
    /// the concentric-sphere subsets of paper Fig. 3).
    pub fn within_radius(&self, radius: f64) -> PointCloud {
        PointCloud::from_points(
            self.points.iter().copied().filter(|p| p.norm() <= radius).collect(),
        )
    }
}

impl FromIterator<Point3> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Point3>>(iter: I) -> Self {
        PointCloud { points: iter.into_iter().collect() }
    }
}

impl Extend<Point3> for PointCloud {
    fn extend<I: IntoIterator<Item = Point3>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

impl Index<usize> for PointCloud {
    type Output = Point3;
    fn index(&self, i: usize) -> &Point3 {
        &self.points[i]
    }
}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = &'a Point3;
    type IntoIter = std::slice::Iter<'a, Point3>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl IntoIterator for PointCloud {
    type Item = Point3;
    type IntoIter = std::vec::IntoIter<Point3>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, -2.0, 0.5);
        assert_eq!(a + b, Point3::new(5.0, 0.0, 3.5));
        assert_eq!(a - b, Point3::new(-3.0, 4.0, 2.5));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Point3::new(2.0, -1.0, 0.25));
        assert_eq!(-a, Point3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn norms_and_distances() {
        let p = Point3::new(3.0, 4.0, 0.0);
        assert_eq!(p.norm(), 5.0);
        assert_eq!(p.norm2(), 25.0);
        assert_eq!(p.dist(Point3::ZERO), 5.0);
        assert_eq!(p.linf_dist(Point3::new(1.0, 1.0, 1.0)), 3.0);
    }

    #[test]
    fn dot_and_cross() {
        let x = Point3::new(1.0, 0.0, 0.0);
        let y = Point3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), Point3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn axis_indexing() {
        let p = Point3::new(7.0, 8.0, 9.0);
        assert_eq!(p[0], 7.0);
        assert_eq!(p[1], 8.0);
        assert_eq!(p[2], 9.0);
    }

    #[test]
    #[should_panic]
    fn axis_indexing_out_of_range() {
        let p = Point3::ZERO;
        let _ = p[3];
    }

    #[test]
    fn cloud_basics() {
        let mut pc = PointCloud::new();
        assert!(pc.is_empty());
        pc.push(Point3::new(1.0, 0.0, 0.0));
        pc.push(Point3::new(0.0, 2.0, 0.0));
        assert_eq!(pc.len(), 2);
        assert_eq!(pc.raw_size_bytes(), 24);
        assert_eq!(pc[1].y, 2.0);
    }

    #[test]
    fn within_radius_filters() {
        let pc = PointCloud::from_points(vec![
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(10.0, 0.0, 0.0),
            Point3::new(0.0, 0.0, 3.0),
        ]);
        let near = pc.within_radius(5.0);
        assert_eq!(near.len(), 2);
    }

    #[test]
    fn density_of_unit_cube() {
        let pc = PointCloud::from_points(vec![
            Point3::ZERO,
            Point3::new(1.0, 1.0, 1.0),
            Point3::new(0.5, 0.5, 0.5),
        ]);
        assert!((pc.density() - 3.0).abs() < 1e-12);
    }
}
