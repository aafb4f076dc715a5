//! Spherical coordinates `(θ, φ, r)` with the sensor at the origin (paper §3.3).
//!
//! * `θ` — azimuthal angle, `atan2(y, x)`, in `(-π, π]`;
//! * `φ` — polar angle from the +z axis, `acos(z / r)`, in `[0, π]`;
//! * `r` — radial distance from the sensor.

use crate::point::Point3;

/// A point in spherical coordinates relative to the sensor origin.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Spherical {
    /// Azimuthal angle in radians, in `(-π, π]`.
    pub theta: f64,
    /// Polar angle in radians, in `[0, π]`.
    pub phi: f64,
    /// Radial distance in metres, `>= 0`.
    pub r: f64,
}

impl Spherical {
    /// A spherical point from its components.
    #[inline]
    pub const fn new(theta: f64, phi: f64, r: f64) -> Self {
        Spherical { theta, phi, r }
    }

    /// Convert a Cartesian point to spherical coordinates.
    ///
    /// The origin maps to `(0, 0, 0)` by convention.
    pub fn from_cartesian(p: Point3) -> Spherical {
        let r = p.norm();
        if r == 0.0 {
            return Spherical::default();
        }
        let theta = p.y.atan2(p.x);
        let phi = (p.z / r).clamp(-1.0, 1.0).acos();
        Spherical { theta, phi, r }
    }

    /// Convert back to Cartesian coordinates.
    pub fn to_cartesian(self) -> Point3 {
        self.to_cartesian_with(self.phi.sin_cos())
    }

    /// [`Spherical::to_cartesian`] given `self.phi.sin_cos()`, so a caller
    /// converting a run of points that share `φ` computes it once. The
    /// result is bit-identical.
    #[inline]
    pub fn to_cartesian_with(self, (sin_phi, cos_phi): (f64, f64)) -> Point3 {
        let (sin_theta, cos_theta) = self.theta.sin_cos();
        Point3::new(self.r * sin_phi * cos_theta, self.r * sin_phi * sin_theta, self.r * cos_phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn assert_close(a: Point3, b: Point3, tol: f64) {
        assert!(a.dist(b) < tol, "{a:?} vs {b:?}");
    }

    #[test]
    fn axes_map_to_expected_angles() {
        let s = Spherical::from_cartesian(Point3::new(1.0, 0.0, 0.0));
        assert!((s.theta - 0.0).abs() < 1e-12);
        assert!((s.phi - FRAC_PI_2).abs() < 1e-12);
        assert!((s.r - 1.0).abs() < 1e-12);

        let s = Spherical::from_cartesian(Point3::new(0.0, 2.0, 0.0));
        assert!((s.theta - FRAC_PI_2).abs() < 1e-12);
        assert!((s.r - 2.0).abs() < 1e-12);

        let s = Spherical::from_cartesian(Point3::new(0.0, 0.0, 3.0));
        assert!((s.phi - 0.0).abs() < 1e-12);

        let s = Spherical::from_cartesian(Point3::new(0.0, 0.0, -3.0));
        assert!((s.phi - PI).abs() < 1e-12);
    }

    #[test]
    fn origin_is_stable() {
        let s = Spherical::from_cartesian(Point3::ZERO);
        assert_eq!(s, Spherical::default());
        assert_eq!(s.to_cartesian(), Point3::ZERO);
    }

    #[test]
    fn roundtrip_random_points() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let p = Point3::new(
                rng.gen_range(-100.0..100.0),
                rng.gen_range(-100.0..100.0),
                rng.gen_range(-20.0..20.0),
            );
            let back = Spherical::from_cartesian(p).to_cartesian();
            assert_close(p, back, 1e-9);
        }
    }

    #[test]
    fn theta_range_is_atan2_range() {
        let s = Spherical::from_cartesian(Point3::new(-1.0, -1e-9, 0.0));
        assert!(s.theta < 0.0 && s.theta > -PI - 1e-9);
        let s = Spherical::from_cartesian(Point3::new(-1.0, 1e-9, 0.0));
        assert!(s.theta > 0.0 && s.theta <= PI);
    }
}
