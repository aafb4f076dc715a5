//! Coordinate scaling and rounding under an error bound (paper §3.5 step 1).
//!
//! Dividing a coordinate by `2·q_c` and rounding to the nearest integer
//! introduces at most `0.5` quantization error, so after multiplying back the
//! reconstruction error is at most `0.5 · 2·q_c = q_c`: exactly the per-axis
//! error bound of the problem statement.

use crate::spherical::Spherical;

/// Quantize `v` with quantization step `step` (`= 2·q_c`).
///
/// The reconstruction [`dequantize`]`(quantize(v, step), step)` differs from
/// `v` by at most `step / 2 = q_c`.
#[inline]
pub fn quantize(v: f64, step: f64) -> i64 {
    debug_assert!(step > 0.0);
    (v / step).round() as i64
}

/// Inverse of [`quantize`].
#[inline]
pub fn dequantize(q: i64, step: f64) -> f64 {
    q as f64 * step
}

/// `v.floor() as i64`, computed as truncate-then-adjust: equal for every
/// input (saturating at the `i64` range, `0` for NaN), but without the libm
/// call `f64::floor` compiles to on targets lacking SSE4.1. Cell indexing
/// (density split, organizer grid) calls it once per point and axis.
#[inline]
pub fn floor_i64(v: f64) -> i64 {
    let t = v as i64;
    // `t as f64` is exact (a truncated f64 is an integral f64), so `t > v`
    // holds exactly for negative non-integers and below the i64 range.
    t.saturating_sub(((t as f64) > v) as i64)
}

/// Per-axis quantization parameters for one coordinate system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Quantization step (`2·q_c`) per axis.
    pub step: [f64; 3],
}

impl QuantParams {
    /// Uniform Cartesian parameters from the error bound `q_xyz`.
    pub fn cartesian(q_xyz: f64) -> QuantParams {
        assert!(q_xyz > 0.0, "error bound must be positive");
        QuantParams { step: [2.0 * q_xyz; 3] }
    }

    /// Quantize all three components.
    pub fn quantize3(&self, v: [f64; 3]) -> [i64; 3] {
        [quantize(v[0], self.step[0]), quantize(v[1], self.step[1]), quantize(v[2], self.step[2])]
    }

    /// Reconstruct all three components.
    pub fn dequantize3(&self, q: [i64; 3]) -> [f64; 3] {
        [
            dequantize(q[0], self.step[0]),
            dequantize(q[1], self.step[1]),
            dequantize(q[2], self.step[2]),
        ]
    }
}

/// Spherical quantization derived from the Cartesian error bound (Lemma 3.2).
///
/// With `q_θ = q_φ = q_xyz / r_max` and `q_r = q_xyz`, the maximum Euclidean
/// reconstruction error of any point with `r <= r_max` is `√(2 + sin²φ)·q_xyz
/// ≤ √3·q_xyz` — no worse than per-axis-`q_xyz` Cartesian quantization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SphericalQuant {
    /// Angular error bound `q_θ = q_φ` in radians.
    pub q_angle: f64,
    /// Radial error bound `q_r` in metres.
    pub q_r: f64,
    /// The `r_max` this quantizer was derived for.
    pub r_max: f64,
}

impl SphericalQuant {
    /// Derive the spherical bounds from `q_xyz` and the maximum radial
    /// distance of the points to be quantized.
    pub fn from_error_bound(q_xyz: f64, r_max: f64) -> SphericalQuant {
        assert!(q_xyz > 0.0, "error bound must be positive");
        let r_max = r_max.max(q_xyz); // avoid a degenerate (infinite) angular step
        SphericalQuant { q_angle: q_xyz / r_max, q_r: q_xyz, r_max }
    }

    /// Quantization step on the angular dimensions (`2·q_θ`).
    #[inline]
    pub fn angle_step(&self) -> f64 {
        2.0 * self.q_angle
    }

    /// Quantization step on the radial dimension (`2·q_r`).
    #[inline]
    pub fn r_step(&self) -> f64 {
        2.0 * self.q_r
    }

    /// Quantize a spherical point to integer grid coordinates.
    pub fn quantize(&self, s: Spherical) -> [i64; 3] {
        [
            quantize(s.theta, self.angle_step()),
            quantize(s.phi, self.angle_step()),
            quantize(s.r, self.r_step()),
        ]
    }

    /// Reconstruct a spherical point from integer grid coordinates.
    #[inline]
    pub fn dequantize(&self, q: [i64; 3]) -> Spherical {
        Spherical::new(
            dequantize(q[0], self.angle_step()),
            dequantize(q[1], self.angle_step()),
            dequantize(q[2], self.r_step()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point3;

    #[test]
    fn floor_i64_matches_floor_cast() {
        let big = 2f64.powi(53);
        for v in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1e-300,
            2.999_999_999,
            -2.000_000_001,
            big - 0.5,
            -(big - 0.5),
            big * 3.0,
            -big * 3.0,
            9.3e18,
            -9.3e18,
            -(2f64.powi(63)),
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(floor_i64(v), v.floor() as i64, "v = {v:e}");
        }
    }

    #[test]
    fn scalar_quantization_error_bound() {
        let q = 0.02;
        let step = 2.0 * q;
        for v in [-10.0, -0.019, 0.0, 0.5, std::f64::consts::PI, 99.99] {
            let rec = dequantize(quantize(v, step), step);
            assert!((rec - v).abs() <= q + 1e-12, "v={v}");
        }
    }

    #[test]
    fn cartesian_params_bound_each_axis() {
        let qp = QuantParams::cartesian(0.01);
        let v = [1.2345, -9.8765, 0.00049];
        let rec = qp.dequantize3(qp.quantize3(v));
        for i in 0..3 {
            assert!((rec[i] - v[i]).abs() <= 0.01 + 1e-12);
        }
    }

    #[test]
    fn spherical_quant_respects_lemma_bound() {
        use rand::{Rng, SeedableRng};
        let q_xyz = 0.02;
        let r_max = 80.0;
        let sq = SphericalQuant::from_error_bound(q_xyz, r_max);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let lemma_bound = (3.0f64).sqrt() * q_xyz;
        for _ in 0..2000 {
            let p = Point3::new(
                rng.gen_range(-50.0..50.0),
                rng.gen_range(-50.0..50.0),
                rng.gen_range(-5.0..15.0),
            );
            if p.norm() > r_max || p.norm() < 1e-6 {
                continue;
            }
            let s = Spherical::from_cartesian(p);
            let rec = sq.dequantize(sq.quantize(s)).to_cartesian();
            assert!(
                p.dist(rec) <= lemma_bound + 1e-9,
                "point {p:?} error {} exceeds lemma bound {}",
                p.dist(rec),
                lemma_bound
            );
        }
    }

    #[test]
    fn degenerate_r_max_is_clamped() {
        let sq = SphericalQuant::from_error_bound(0.02, 0.0);
        assert!(sq.q_angle.is_finite() && sq.q_angle > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_error_bound_rejected() {
        let _ = QuantParams::cartesian(0.0);
    }
}
