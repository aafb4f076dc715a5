//! # dbgc-store — queryable archive of compressed DBGC frames
//!
//! Compressed LiDAR archives are usually opaque: answering "which points were
//! inside this box around the crosswalk?" means decompressing every frame in
//! full. This crate makes DBGC streams *queryable* by exploiting the spatial
//! directory the encoder can append to each stream (see
//! [`dbgc::SpatialDirectory`]): per-section AABBs, point counts, density
//! classes, LOD depth and byte offsets, CRC-guarded in a trailer that v1
//! decoders skip cleanly.
//!
//! Three layers:
//!
//! * [`Query`] — a composable AST (`Aabb`, `Frustum`, `Lod`, `TimeRange`,
//!   `DensityClass` under `And`/`Or`/`Not`) with point-level semantics in
//!   [`Query::matches`];
//! * [`plan`](mod@plan) — a conservative three-valued planner that folds a
//!   query over directory metadata into per-section [`Verdict`]s;
//! * [`FrameStore`] — the archive: ingests streamed frames (including
//!   [`dbgc_net::FleetHandle::drain`] hand-off), answers queries by
//!   *partial decode* — seeking straight to the sections the planner could
//!   not rule out, re-initialising entropy state per section — and degrades
//!   to a full-decode fallback (counted in the `store.index_fallbacks`
//!   metric) whenever a frame's index is missing, corrupt or inconsistent.
//!
//! Every decode here is [`dbgc::layout::decode_body`], the walk
//! [`dbgc::decompress()`] uses, into a sink: the query sink writes matching
//! [`PointRecord`]s straight into the result, on both the partial and the
//! fallback path, and [`decode_annotated`] annotates every point of every
//! section.
//!
//! Correctness story: the partial path is differentially tested against
//! [`oracle::decode_annotated`] — a brute-force full decode + filter — for
//! every query; the planner only ever trades precision, never soundness.
//!
//! ```
//! use dbgc::{Dbgc, DbgcConfig};
//! use dbgc_geom::{Aabb, Point3, PointCloud};
//! use dbgc_store::{FrameStore, Query};
//!
//! let cloud: PointCloud = (0..2000)
//!     .map(|i| {
//!         let th = i as f64 / 2000.0 * std::f64::consts::TAU;
//!         Point3::new(20.0 * th.cos(), 20.0 * th.sin(), -1.5)
//!     })
//!     .collect();
//! let dbgc = Dbgc::new(DbgcConfig::with_error_bound(0.02).with_spatial_index(true));
//! let frame = dbgc.compress(&cloud).unwrap();
//!
//! let mut store = FrameStore::new();
//! store.ingest(frame.bytes, 0).unwrap();
//!
//! // Points in a box around the +x rim — decoded by seeking only to the
//! // sparse groups whose directory AABB intersects the box.
//! let q = Query::Aabb(Aabb {
//!     min: Point3::new(15.0, -5.0, -2.0),
//!     max: Point3::new(25.0, 5.0, 0.0),
//! });
//! let hit = store.query(&q).unwrap();
//! assert!(!hit.points.is_empty());
//! assert!(hit.bytes_touched < hit.bytes_total);
//! ```

#![warn(missing_docs)]

pub mod oracle;
mod partial;
pub mod plan;
pub mod query;
pub mod store;

pub use oracle::{decode_annotated, AnnotatedCloud, AnnotatedPoint};
pub use plan::{plan, SectionMeta, Verdict};
pub use query::{DensityClass, Frustum, Plane, Query};
pub use store::{ArchivedFrame, FrameStore, PointRecord, QueryResult};

use dbgc::DbgcError;

/// Errors the archive can produce.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying stream failed to decode.
    Decode(DbgcError),
    /// The spatial directory disagreed with the stream it indexes; the
    /// caller falls back to a full decode.
    IndexMismatch(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Decode(e) => write!(f, "stream decode failed: {e}"),
            StoreError::IndexMismatch(msg) => write!(f, "index mismatch: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DbgcError> for StoreError {
    fn from(e: DbgcError) -> StoreError {
        StoreError::Decode(e)
    }
}
