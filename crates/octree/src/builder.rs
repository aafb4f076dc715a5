//! Octree construction over quantized leaf cells.
//!
//! The tree is never materialized as linked nodes: points are mapped to leaf
//! cells at the target depth, cells are deduplicated and sorted by Morton
//! code, and every level of the tree is then a prefix-grouping of that sorted
//! key array. This keeps construction `O(n log n)` and cache-friendly.

use dbgc_geom::{radix_sort, Aabb, BoundingCube, Point3};

/// Maximum tree depth: 21 bits per axis fit a 63-bit Morton code.
pub const MAX_DEPTH: u32 = 21;

/// Spread the low 21 bits of `v` so there are two zero bits between each bit.
#[inline]
fn spread3(v: u64) -> u64 {
    let mut x = v & 0x1F_FFFF;
    x = (x | x << 32) & 0x1F00000000FFFF;
    x = (x | x << 16) & 0x1F0000FF0000FF;
    x = (x | x << 8) & 0x100F00F00F00F00F;
    x = (x | x << 4) & 0x10C30C30C30C30C3;
    x = (x | x << 2) & 0x1249249249249249;
    x
}

/// Inverse of [`spread3`].
#[inline]
fn compact3(v: u64) -> u64 {
    let mut x = v & 0x1249249249249249;
    x = (x | x >> 2) & 0x10C30C30C30C30C3;
    x = (x | x >> 4) & 0x100F00F00F00F00F;
    x = (x | x >> 8) & 0x1F0000FF0000FF;
    x = (x | x >> 16) & 0x1F00000000FFFF;
    x = (x | x >> 32) & 0x1F_FFFF;
    x
}

/// Interleave three 21-bit cell coordinates into a Morton code. The child
/// index at each level is the 3-bit group `(x << 2) | (y << 1) | z`.
#[inline]
pub fn morton3(cell: (u64, u64, u64)) -> u64 {
    spread3(cell.0) << 2 | spread3(cell.1) << 1 | spread3(cell.2)
}

/// Inverse of [`morton3`].
#[inline]
pub fn demorton3(code: u64) -> (u64, u64, u64) {
    (compact3(code >> 2), compact3(code >> 1), compact3(code))
}

/// An octree over quantized leaf cells, stored as sorted Morton keys with
/// point multiplicities.
#[derive(Debug, Clone)]
pub struct Octree {
    /// The root volume.
    pub cube: BoundingCube,
    /// Number of subdivision levels (0 = the cube itself is a leaf).
    pub depth: u32,
    /// Sorted leaf Morton keys.
    pub leaf_keys: Vec<u64>,
    /// Point multiplicity per leaf (parallel to `leaf_keys`), each >= 1.
    pub leaf_counts: Vec<u32>,
    /// For each input point, the index of its leaf in `leaf_keys`.
    pub point_leaf: Vec<usize>,
}

impl Octree {
    /// Build an octree whose leaf cells have side `<= 2·q_xyz`, so decoding a
    /// point as its leaf centre incurs per-axis error `<= q_xyz` — as long
    /// as [`Octree::required_depth`] is at most [`MAX_DEPTH`]. Deeper trees
    /// are clamped to `MAX_DEPTH`, and their leaves are wider than `2·q_xyz`;
    /// callers that promise the bound check `required_depth` first.
    ///
    /// Returns `None` for an empty input.
    pub fn build(points: &[Point3], q_xyz: f64) -> Option<Octree> {
        let (cube, depth) = Self::frame(points, q_xyz)?;
        Some(Self::build_in_cube(points, cube, depth.min(MAX_DEPTH)))
    }

    /// Levels a tree over `points` needs for leaf side `<= 2·q_xyz`, before
    /// the [`MAX_DEPTH`] clamp of [`Octree::build`] (0 for an empty input).
    pub fn required_depth(points: &[Point3], q_xyz: f64) -> u32 {
        Self::frame(points, q_xyz).map_or(0, |(_, depth)| depth)
    }

    /// The cube enclosing `points` and its unclamped depth at leaf side
    /// `2·q_xyz`; `None` for an empty input.
    fn frame(points: &[Point3], q_xyz: f64) -> Option<(BoundingCube, u32)> {
        let cube = BoundingCube::enclosing(Aabb::from_points(points)?);
        Some((cube, cube.depth_for_leaf_side(2.0 * q_xyz)))
    }

    /// Build with an explicit cube and depth (used when several subsets must
    /// share one spatial frame).
    pub fn build_in_cube(points: &[Point3], cube: BoundingCube, depth: u32) -> Octree {
        assert!(depth <= MAX_DEPTH, "depth {depth} exceeds Morton capacity");
        // (morton, original index), sorted by morton, stable on index.
        let mut keyed: Vec<(u64, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let cell =
                    cube.cell_at_depth(p, depth).expect("point must lie inside the bounding cube");
                (morton3(cell), i as u32)
            })
            .collect();
        radix_sort(&mut keyed);

        let mut leaf_keys = Vec::new();
        let mut leaf_counts: Vec<u32> = Vec::new();
        let mut point_leaf = vec![0usize; points.len()];
        for &(key, idx) in &keyed {
            if leaf_keys.last() != Some(&key) {
                leaf_keys.push(key);
                leaf_counts.push(0);
            }
            *leaf_counts.last_mut().expect("just pushed") += 1;
            point_leaf[idx as usize] = leaf_keys.len() - 1;
        }
        Octree { cube, depth, leaf_keys, leaf_counts, point_leaf }
    }

    /// Number of occupied leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_keys.len()
    }

    /// Total number of points represented (sum of multiplicities).
    pub fn point_count(&self) -> usize {
        self.leaf_counts.iter().map(|&c| c as usize).sum()
    }

    /// Breadth-first occupancy codes (one byte per internal node), the
    /// serialization of Botsch et al. \[7\]. At `depth == 0` the tree is a
    /// single leaf and the sequence is empty.
    ///
    /// Each yielded item is `(parent_code, code)` where `parent_code` is the
    /// occupancy byte of the node's parent (0 for the root), enabling the
    /// Octree_i context grouping without a second pass.
    pub fn occupancy_codes(&self) -> Vec<(u8, u8)> {
        let mut out = Vec::new();
        if self.depth == 0 || self.leaf_keys.is_empty() {
            return out;
        }
        // Level-order traversal over ranges of the sorted key array. A node
        // at `level` (0 = root) covers keys sharing the top `3*level` bits.
        let mut current: Vec<(usize, usize, u8)> = vec![(0, self.leaf_keys.len(), 0)];
        for level in 0..self.depth {
            let shift = 3 * (self.depth - level - 1);
            let mut next = Vec::new();
            for &(start, end, parent_code) in &current {
                let mut code = 0u8;
                let mut children = [(0usize, 0usize); 8];
                let mut i = start;
                while i < end {
                    let child = ((self.leaf_keys[i] >> shift) & 0b111) as u8;
                    let mut j = i + 1;
                    while j < end && ((self.leaf_keys[j] >> shift) & 0b111) as u8 == child {
                        j += 1;
                    }
                    code |= 1 << child;
                    children[child as usize] = (i, j);
                    i = j;
                }
                out.push((parent_code, code));
                if level + 1 < self.depth {
                    for (child, &(s, e)) in children.iter().enumerate() {
                        if code & (1 << child) != 0 {
                            next.push((s, e, code));
                        }
                    }
                }
            }
            current = next;
        }
        out
    }

    /// Reconstruct sorted leaf keys from a BFS occupancy-code stream, pulling
    /// one code per internal node via `next_code`, which receives the parent's
    /// occupancy byte as its context argument.
    ///
    /// Every occupied node has at least one child, so level sizes never
    /// shrink toward the leaves; once any level exceeds `max_leaves` the
    /// final leaf count must too, and `Ok(None)` is returned without
    /// expanding further. This bounds both memory and time against hostile
    /// code streams that would otherwise grow 8× per level.
    pub fn leaves_from_codes<E>(
        depth: u32,
        max_leaves: usize,
        mut next_code: impl FnMut(u8) -> Result<u8, E>,
    ) -> Result<Option<Vec<u64>>, E> {
        if depth == 0 {
            // Single implicit leaf at the root.
            return Ok(Some(vec![0]));
        }
        // One level's nodes as key prefixes and their parents' codes, in two
        // buffer pairs that swap roles level by level.
        let (mut keys, mut parents) = (vec![0u64], vec![0u8]);
        let (mut next_keys, mut next_parents) = (Vec::new(), Vec::new());
        for _level in 0..depth {
            if keys.len() > max_leaves {
                return Ok(None);
            }
            next_keys.clear();
            next_parents.clear();
            next_keys.reserve(keys.len() * 2);
            next_parents.reserve(keys.len() * 2);
            for (&prefix, &parent_code) in keys.iter().zip(&parents) {
                let code = next_code(parent_code)?;
                // Children in ascending index order, one step per set bit:
                // most codes have one child, so the loop rarely branches
                // the wrong way.
                let mut bits = code;
                while bits != 0 {
                    next_keys.push((prefix << 3) | u64::from(bits.trailing_zeros()));
                    next_parents.push(code);
                    bits &= bits - 1;
                }
            }
            std::mem::swap(&mut keys, &mut next_keys);
            std::mem::swap(&mut parents, &mut next_parents);
        }
        if keys.len() > max_leaves {
            return Ok(None);
        }
        Ok(Some(keys))
    }

    /// Decoded points: leaf centres repeated by multiplicity, in sorted
    /// Morton (leaf) order.
    pub fn decode_points(&self) -> Vec<Point3> {
        let mut out = Vec::with_capacity(self.point_count());
        for (&key, &count) in self.leaf_keys.iter().zip(&self.leaf_counts) {
            let center = self.cube.cell_center(demorton3(key), self.depth);
            out.extend(std::iter::repeat(center).take(count as usize));
        }
        out
    }

    /// For each input point (by original index), the index of its decoded
    /// counterpart in [`Octree::decode_points`] output. Points sharing a leaf
    /// are matched in input order.
    pub fn decode_mapping(&self) -> Vec<usize> {
        let mut offsets = vec![0usize; self.leaf_keys.len()];
        let mut acc = 0usize;
        for (i, &c) in self.leaf_counts.iter().enumerate() {
            offsets[i] = acc;
            acc += c as usize;
        }
        let mut cursor = offsets.clone();
        self.point_leaf
            .iter()
            .map(|&leaf| {
                let at = cursor[leaf];
                cursor[leaf] += 1;
                at
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn morton_roundtrip() {
        for cell in [(0u64, 0, 0), (1, 2, 3), (0x1F_FFFF, 0, 0x1F_FFFF), (12345, 54321, 99999)] {
            assert_eq!(demorton3(morton3(cell)), cell);
        }
    }

    #[test]
    fn morton_orders_children_together() {
        // Sibling cells (same parent) must be contiguous under Morton order.
        let parent = (5u64, 9, 2);
        let mut keys: Vec<u64> = (0..8)
            .map(|c| {
                morton3((
                    parent.0 * 2 + ((c >> 2) & 1),
                    parent.1 * 2 + ((c >> 1) & 1),
                    parent.2 * 2 + (c & 1),
                ))
            })
            .collect();
        let other = morton3((parent.0 * 2 + 2, parent.1 * 2, parent.2 * 2));
        keys.push(other);
        keys.sort_unstable();
        // The foreign key sorts outside the sibling block.
        assert!(keys[8] == other || keys[0] == other);
    }

    fn random_cloud(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.gen_range(-40.0..40.0),
                    rng.gen_range(-40.0..40.0),
                    rng.gen_range(-2.0..6.0),
                )
            })
            .collect()
    }

    #[test]
    fn build_counts_points() {
        let pts = random_cloud(5000, 1);
        let tree = Octree::build(&pts, 0.02).unwrap();
        assert_eq!(tree.point_count(), 5000);
        assert!(tree.leaf_count() <= 5000);
        assert!(tree.leaf_keys.windows(2).all(|w| w[0] < w[1]), "keys sorted and unique");
    }

    #[test]
    fn decode_points_meet_error_bound() {
        let q = 0.02;
        let pts = random_cloud(2000, 2);
        let tree = Octree::build(&pts, q).unwrap();
        let decoded = tree.decode_points();
        let mapping = tree.decode_mapping();
        assert_eq!(decoded.len(), pts.len());
        for (i, &p) in pts.iter().enumerate() {
            let d = decoded[mapping[i]];
            assert!(
                p.linf_dist(d) <= q + 1e-9,
                "point {i}: {:?} vs {:?}, err {}",
                p,
                d,
                p.linf_dist(d)
            );
        }
    }

    #[test]
    fn occupancy_roundtrip() {
        let pts = random_cloud(3000, 3);
        let tree = Octree::build(&pts, 0.05).unwrap();
        let codes = tree.occupancy_codes();
        let mut it = codes.iter();
        let leaves = Octree::leaves_from_codes::<()>(tree.depth, tree.leaf_count(), |parent| {
            let &(expected_parent, code) = it.next().expect("stream long enough");
            assert_eq!(parent, expected_parent, "context mismatch");
            Ok(code)
        })
        .unwrap()
        .expect("within leaf budget");
        assert!(it.next().is_none(), "stream fully consumed");
        assert_eq!(leaves, tree.leaf_keys);
    }

    #[test]
    fn duplicate_points_share_leaf() {
        let p = Point3::new(1.0, 2.0, 3.0);
        let pts = vec![p; 7];
        let tree = Octree::build(&pts, 0.02).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.leaf_counts[0], 7);
        assert_eq!(tree.decode_points().len(), 7);
    }

    #[test]
    fn single_point_depth_zero() {
        let pts = vec![Point3::new(5.0, 5.0, 5.0)];
        let tree = Octree::build(&pts, 0.02).unwrap();
        assert_eq!(tree.depth, 0);
        assert!(tree.occupancy_codes().is_empty());
        let leaves = Octree::leaves_from_codes::<()>(0, 1, |_| unreachable!()).unwrap();
        assert_eq!(leaves, Some(vec![0]));
    }

    #[test]
    fn empty_cloud_returns_none() {
        assert!(Octree::build(&[], 0.02).is_none());
    }

    #[test]
    fn decode_mapping_is_permutation() {
        let pts = random_cloud(1000, 4);
        let tree = Octree::build(&pts, 0.5).unwrap(); // coarse: many shared leaves
        let mapping = tree.decode_mapping();
        let mut seen = vec![false; mapping.len()];
        for &m in &mapping {
            assert!(!seen[m], "duplicate target {m}");
            seen[m] = true;
        }
    }
}
