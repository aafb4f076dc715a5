//! Composable query AST over archived DBGC frames.
//!
//! A [`Query`] is evaluated in two places with *identical* point-level
//! semantics:
//!
//! * the oracle path filters every decoded point with [`Query::matches`];
//! * the planner ([`crate::plan`](mod@crate::plan)) derives a conservative
//!   three-valued verdict per stream section from the spatial directory, so
//!   partial decode can skip sections whose points provably cannot match.
//!
//! Correctness therefore never depends on the planner being *precise* —
//! only on it being *sound* — and the differential tests pin exactly that.

use dbgc::layout::Section;
use dbgc_geom::{Aabb, Point3};

use crate::oracle::AnnotatedPoint;

/// Provenance class of a decoded point: which stream section produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DensityClass {
    /// Octree-coded dense region.
    Dense,
    /// Polyline-coded sparse group.
    Sparse,
    /// Outlier section (quadtree / octree / raw).
    Outlier,
}

impl DensityClass {
    /// The class of the points `section` decodes to.
    pub(crate) fn of(section: Section) -> DensityClass {
        match section {
            Section::Dense => DensityClass::Dense,
            Section::Group(_) => DensityClass::Sparse,
            Section::Outlier => DensityClass::Outlier,
        }
    }
}

/// A convex viewing frustum described by inward-pointing half-space planes.
///
/// A point is inside when `normal · p + offset >= 0` holds for **every**
/// plane. Any convex polytope works; [`Frustum::look_at`] builds the usual
/// six-plane camera volume.
#[derive(Debug, Clone, PartialEq)]
pub struct Frustum {
    planes: Vec<Plane>,
}

/// One half-space: inside is `normal · p + offset >= 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plane {
    /// Plane normal, pointing into the kept half-space.
    pub normal: Point3,
    /// Signed offset: the plane is `normal · p + offset = 0`.
    pub offset: f64,
}

impl Plane {
    /// Signed distance-like evaluation; non-negative means inside.
    pub fn eval(&self, p: Point3) -> f64 {
        self.normal.dot(p) + self.offset
    }
}

impl Frustum {
    /// Builds a frustum from explicit half-space planes.
    ///
    /// Returns `None` when any plane is non-finite or has a zero normal.
    pub fn from_planes(planes: Vec<Plane>) -> Option<Frustum> {
        for pl in &planes {
            if !pl.normal.is_finite() || !pl.offset.is_finite() || pl.normal.norm2() == 0.0 {
                return None;
            }
        }
        Some(Frustum { planes })
    }

    /// Classic six-plane camera frustum.
    ///
    /// * `eye` — camera position, `target` — point looked at;
    /// * `up` — approximate up vector (must not be parallel to the view axis);
    /// * `fov_y` — full vertical field of view in radians, `aspect` — w/h;
    /// * `near`/`far` — positive view-axis distances with `near < far`.
    pub fn look_at(
        eye: Point3,
        target: Point3,
        up: Point3,
        fov_y: f64,
        aspect: f64,
        near: f64,
        far: f64,
    ) -> Option<Frustum> {
        // Positive-form comparisons so NaN in any parameter fails the check.
        let params_ok =
            fov_y > 0.0 && fov_y < std::f64::consts::PI && aspect > 0.0 && near > 0.0 && far > near;
        if !params_ok {
            return None;
        }
        let fwd = target - eye;
        if fwd.norm2() == 0.0 {
            return None;
        }
        let fwd = fwd * (1.0 / fwd.norm());
        let right = fwd.cross(up);
        if right.norm2() < 1e-18 {
            return None;
        }
        let right = right * (1.0 / right.norm());
        let cam_up = right.cross(fwd);

        let tan_y = (fov_y / 2.0).tan();
        let tan_x = tan_y * aspect;
        // Side planes: normals tilt the forward axis toward the inside.
        let mk = |axis: Point3, tan: f64, sign: f64| {
            let n = axis * (-sign) + fwd * tan;
            let n = n * (1.0 / n.norm());
            Plane { normal: n, offset: -n.dot(eye) }
        };
        let planes = vec![
            // Near: keep points with fwd·(p - eye) >= near.
            Plane { normal: fwd, offset: -fwd.dot(eye) - near },
            // Far: keep points with fwd·(p - eye) <= far.
            Plane { normal: -fwd, offset: fwd.dot(eye) + far },
            mk(right, tan_x, 1.0),
            mk(right, tan_x, -1.0),
            mk(cam_up, tan_y, 1.0),
            mk(cam_up, tan_y, -1.0),
        ];
        Frustum::from_planes(planes)
    }

    /// The half-space planes, inward normals.
    pub fn planes(&self) -> &[Plane] {
        &self.planes
    }

    /// Point-in-frustum test (inclusive on boundaries).
    pub fn contains(&self, p: Point3) -> bool {
        self.planes.iter().all(|pl| pl.eval(p) >= 0.0)
    }
}

/// Composable query over an archive of compressed frames.
///
/// Spatial predicates (`Aabb`, `Frustum`) filter point positions; `Lod`,
/// `DensityClass` filter provenance; `TimeRange` filters the frame capture
/// timestamp. `And` / `Or` / `Not` compose arbitrarily.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Matches every point.
    All,
    /// Points inside the axis-aligned box (inclusive bounds).
    Aabb(Aabb),
    /// Points inside the convex frustum (inclusive bounds).
    Frustum(Frustum),
    /// Points whose section LOD depth `d` satisfies `min <= d <= max`.
    /// Dense sections carry their octree depth; sparse and outlier points
    /// have depth 0.
    Lod {
        /// Minimum depth, inclusive.
        min: u32,
        /// Maximum depth, inclusive.
        max: u32,
    },
    /// Points from frames captured in `[start_us, end_us)`.
    TimeRange {
        /// Inclusive start, microseconds.
        start_us: u64,
        /// Exclusive end, microseconds.
        end_us: u64,
    },
    /// Points produced by the given stream section class.
    DensityClass(DensityClass),
    /// Both sub-queries match.
    And(Box<Query>, Box<Query>),
    /// Either sub-query matches.
    Or(Box<Query>, Box<Query>),
    /// The sub-query does not match.
    Not(Box<Query>),
}

impl Query {
    /// Convenience constructor: `a AND b`.
    pub fn and(a: Query, b: Query) -> Query {
        Query::And(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `a OR b`.
    pub fn or(a: Query, b: Query) -> Query {
        Query::Or(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `NOT q`.
    // Not `std::ops::Not`: this is an associated constructor taking the
    // sub-query by value, symmetric with `Query::and` / `Query::or`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(q: Query) -> Query {
        Query::Not(Box::new(q))
    }

    /// Point-level semantics — the single source of truth the planner and
    /// the differential oracle both answer to.
    pub fn matches(&self, point: &AnnotatedPoint, time_us: u64) -> bool {
        match self {
            Query::All => true,
            Query::Aabb(bb) => bb.contains(point.pos),
            Query::Frustum(fr) => fr.contains(point.pos),
            Query::Lod { min, max } => (*min..=*max).contains(&point.lod_depth),
            Query::TimeRange { start_us, end_us } => (*start_us..*end_us).contains(&time_us),
            Query::DensityClass(c) => point.class == *c,
            Query::And(a, b) => a.matches(point, time_us) && b.matches(point, time_us),
            Query::Or(a, b) => a.matches(point, time_us) || b.matches(point, time_us),
            Query::Not(q) => !q.matches(point, time_us),
        }
    }

    /// AST depth (a leaf has depth 1); proptest strategies bound this.
    pub fn depth(&self) -> usize {
        match self {
            Query::And(a, b) | Query::Or(a, b) => 1 + a.depth().max(b.depth()),
            Query::Not(q) => 1 + q.depth(),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frustum_look_at_contains_target() {
        let eye = Point3::new(0.0, 0.0, 0.0);
        let target = Point3::new(10.0, 0.0, 0.0);
        let fr =
            Frustum::look_at(eye, target, Point3::new(0.0, 0.0, 1.0), 1.0, 1.5, 0.5, 50.0).unwrap();
        assert!(fr.contains(target));
        assert!(fr.contains(Point3::new(5.0, 0.3, 0.2)));
        // Behind the eye.
        assert!(!fr.contains(Point3::new(-5.0, 0.0, 0.0)));
        // Past the far plane.
        assert!(!fr.contains(Point3::new(80.0, 0.0, 0.0)));
        // Way off axis.
        assert!(!fr.contains(Point3::new(5.0, 40.0, 0.0)));
    }

    #[test]
    fn frustum_rejects_degenerate_setups() {
        let o = Point3::new(0.0, 0.0, 0.0);
        let z = Point3::new(0.0, 0.0, 1.0);
        assert!(Frustum::look_at(o, o, z, 1.0, 1.0, 0.5, 50.0).is_none());
        assert!(Frustum::look_at(o, z, z, 1.0, 1.0, 0.5, 50.0).is_none());
        assert!(Frustum::look_at(o, Point3::new(1.0, 0.0, 0.0), z, 1.0, 1.0, 5.0, 1.0).is_none());
        assert!(Frustum::from_planes(vec![Plane { normal: o, offset: 0.0 }]).is_none());
    }

    #[test]
    fn query_depth_counts_nesting() {
        let q = Query::not(Query::and(Query::All, Query::or(Query::All, Query::All)));
        assert_eq!(q.depth(), 4);
    }
}
