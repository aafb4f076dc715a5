//! Geometry primitives for the DBGC LiDAR point-cloud compressor.
//!
//! This crate provides the shared geometric vocabulary of the workspace:
//!
//! * [`Point3`] and [`PointCloud`] — Cartesian points and clouds (paper §2.1);
//! * [`Spherical`] — spherical coordinates `(θ, φ, r)` with exact round-trip
//!   conversion helpers (paper §3.3);
//! * [`Aabb`] and [`BoundingCube`] — axis-aligned bounds used by the tree coders;
//! * [`quant`] — coordinate scaling and rounding under an error bound
//!   (paper §3.5 step 1 and Lemma 3.2);
//! * [`error`] — per-axis and Euclidean error metrics between an original cloud
//!   and its decompressed counterpart;
//! * [`SensorMeta`] — LiDAR sensor metadata (angular ranges and resolutions)
//!   used to derive the polyline-extension tolerances `u_θ` and `u_φ`;
//! * [`radix_sort`] — the stable `(u64 key, u32 index)` radix sort the
//!   density split, the tree coders and the radial grouping share.

#![warn(missing_docs)]

pub mod aabb;
pub mod error;
pub mod fxhash;
pub mod point;
pub mod quant;
pub mod radix;
pub mod sensor;
pub mod spherical;

pub use aabb::{Aabb, BoundingCube, Rect2};
pub use error::{CloudError, ErrorReport};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use point::{Point3, PointCloud};
pub use quant::{dequantize, floor_i64, quantize, QuantParams, SphericalQuant};
pub use radix::radix_sort;
pub use sensor::SensorMeta;
pub use spherical::Spherical;
