//! Octree and quadtree geometry coders for point clouds.
//!
//! Implements the baseline octree coder of Botsch et al. \[7\] (paper §2.1):
//! the cloud's bounding cube is recursively halved; every non-leaf node is an
//! 8-bit occupancy code; the codes are serialized breadth-first and
//! compressed with an adaptive arithmetic (range) coder. Decoded points are
//! the centres of occupied leaf cells, so with leaf side `2·q` the per-axis
//! error is at most `q`.
//!
//! Because the paper's problem statement requires a one-to-one mapping
//! between input and output points (duplicates preserved, like G-PCC with
//! `mergeDuplicatedPoints` disabled), each occupied leaf also carries its
//! point multiplicity.
//!
//! Variants:
//! * [`OctreeCodec`] — the baseline coder; occupancy bytes share one adaptive
//!   model.
//! * [`codec::OccupancyContext::ParentCode`] — the Octree_i improvement of
//!   Garcia et al. \[21\]: nodes are grouped by their parent's occupancy code
//!   and each group uses its own adaptive model.
//! * [`quadtree::QuadtreeCodec`] — the 2D analogue used for DBGC's outlier
//!   compression (paper §3.6).

#![warn(missing_docs)]

pub mod builder;
pub mod codec;
pub mod quadtree;

pub use builder::Octree;
pub use codec::{
    OccupancyContext, OctreeCodec, OctreeDecodeResult, OctreeEncodeResult, DEFAULT_MAX_POINTS,
};
pub use quadtree::{QuadtreeCodec, QuadtreeDecodeResult, QuadtreeEncodeResult};
