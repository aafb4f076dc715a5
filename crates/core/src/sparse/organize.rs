//! Point organization: Algorithm 1 of the paper (§3.4).
//!
//! Sparse points are organized into near-horizontal polylines in `(θ, φ)`
//! space. A polyline starts at a seed point; its polar band is fixed to the
//! seed's `φ ± u_φ`; it is extended to the right (and then to the left) by
//! repeatedly picking, among the points with `0 < Δθ <= 2·u_θ` inside the
//! band, the one closest in 3D Euclidean distance. Points on polylines
//! shorter than the configured minimum become *outliers*.
//!
//! Organization runs on the encoder only; any deterministic result is valid,
//! so this module is free to use floating-point angles directly.
//!
//! Candidates are found through a grid of `u_θ × u_φ` cells. The usual
//! index is a dense CSR grid, rows by φ, built by counting sort; the points'
//! θ, φ and Cartesian coordinates are then copied into *slot order* (the
//! grid's cell order, input order within a cell), so an extend query reads
//! each of the 2–3 band rows it touches as one contiguous slot range, and a
//! polyline's rows are fixed by its seed. Angle spreads that would make the
//! dense grid mostly empty fall back to a hash grid over input-order slots.
//! Either way seeds run in input order and distance ties break on the input
//! index, so the output does not depend on the index or the visit order.

use dbgc_geom::{floor_i64, FxHashMap, Point3, Spherical};

/// The organized output: polyline point indices (into the group's point
/// array) and leftover outlier indices.
#[derive(Debug, Clone, Default)]
pub struct Organized {
    /// Polylines, sorted by (polar angle of head, azimuthal angle of head).
    /// Each polyline lists point indices left-to-right (ascending θ).
    pub polylines: Vec<Vec<u32>>,
    /// Points not on any (sufficiently long) polyline.
    pub outliers: Vec<u32>,
}

impl Organized {
    /// Total number of points on polylines.
    pub fn polyline_points(&self) -> usize {
        self.polylines.iter().map(Vec::len).sum()
    }
}

/// Reusable working memory for [`organize_sparse_points_with`].
///
/// Holds the slot-order point arrays, the dense candidate grid (CSR layout
/// built by counting sort), the used-slot bitmap, and the per-polyline
/// extension staging buffers. Purely an allocation cache: results are
/// identical for any scratch state.
#[derive(Debug, Clone, Default)]
pub struct OrganizeScratch {
    /// Per slot: θ, φ and the Cartesian point of the input point `orig`
    /// holds there. The extend loop reads only these, contiguously.
    theta: Vec<f64>,
    phi: Vec<f64>,
    xyz: Vec<Point3>,
    orig: Vec<u32>,
    /// Input index → slot.
    slot_of: Vec<u32>,
    /// Per input point, its `(θ, φ)` cell coordinates, computed once for
    /// the bounds, the count and the scatter pass.
    coords: Vec<(i64, i64)>,
    /// Dense grid, CSR: cell `c` holds slots `cell_start[c]..cell_start[c + 1]`.
    cell_start: Vec<u32>,
    /// Slots already placed on a polyline.
    used: Vec<bool>,
    /// Rightward / leftward extension staging (input indices) for the
    /// current polyline.
    right: Vec<u32>,
    left: Vec<u32>,
    /// Spare polyline vectors recycled from previous outputs, so a warm
    /// organize emits lines without allocating.
    line_pool: Vec<Vec<u32>>,
}

/// Candidate index over the angle grid: a dense CSR grid when the angle span
/// is reasonable (the common case — LiDAR angles are bounded), a hash grid
/// for pathological spreads where a dense array would be mostly empty.
enum GridKind {
    Dense { w: i64, h: i64, tc_min: i64, pc_min: i64 },
    Hash(FxHashMap<(i64, i64), Vec<u32>>),
}

#[inline]
fn cell_coords(theta: f64, phi: f64, u_theta: f64, u_phi: f64) -> (i64, i64) {
    (floor_i64(theta / u_theta), floor_i64(phi / u_phi))
}

/// Build the candidate grid and fill `scratch`'s slot arrays: in grid cell
/// order for the dense grid, in input order for the hash grid.
fn build_grid(
    spherical: &[Spherical],
    cartesian: &[Point3],
    scratch: &mut OrganizeScratch,
    u_theta: f64,
    u_phi: f64,
) -> GridKind {
    let n = spherical.len();
    let OrganizeScratch { theta, phi, xyz, orig, slot_of, coords, cell_start, .. } = scratch;
    coords.clear();
    coords.extend(spherical.iter().map(|s| cell_coords(s.theta, s.phi, u_theta, u_phi)));
    let (mut tc_min, mut tc_max) = (i64::MAX, i64::MIN);
    let (mut pc_min, mut pc_max) = (i64::MAX, i64::MIN);
    for &(tc, pc) in coords.iter() {
        tc_min = tc_min.min(tc);
        tc_max = tc_max.max(tc);
        pc_min = pc_min.min(pc);
        pc_max = pc_max.max(pc);
    }
    for v in [&mut *orig, &mut *slot_of] {
        v.clear();
        v.resize(n, 0);
    }
    theta.clear();
    theta.resize(n, 0.0);
    phi.clear();
    phi.resize(n, 0.0);
    xyz.clear();
    xyz.resize(n, Point3::default());
    cell_start.clear();
    if n == 0 {
        cell_start.push(0);
        return GridKind::Dense { w: 0, h: 0, tc_min: 0, pc_min: 0 };
    }
    let mut place = |i: usize, slot: usize| {
        theta[slot] = spherical[i].theta;
        phi[slot] = spherical[i].phi;
        xyz[slot] = cartesian[i];
        orig[slot] = i as u32;
        slot_of[i] = slot as u32;
    };
    // Memory bound for the dense grid: a few dozen cells per point covers
    // every real scan pattern; beyond that the grid is mostly empty and the
    // hash map is the better structure.
    let cap = (n as i64).saturating_mul(64).saturating_add(4096).min(1 << 22);
    let span = |lo: i64, hi: i64| hi.saturating_sub(lo).saturating_add(1);
    let (w, h) = (span(tc_min, tc_max), span(pc_min, pc_max));
    let Some(n_cells) = w.checked_mul(h).filter(|&c| c <= cap) else {
        let mut map: FxHashMap<(i64, i64), Vec<u32>> = FxHashMap::default();
        for (i, &cell) in coords.iter().enumerate() {
            place(i, i);
            map.entry(cell).or_default().push(i as u32);
        }
        return GridKind::Hash(map);
    };
    // Counting sort into CSR. Rows are φ so the 3–4 θ-adjacent cells each
    // extend query touches per row are one contiguous slot range.
    let n_cells = n_cells as usize;
    cell_start.resize(n_cells + 1, 0);
    let cell_id = |(tc, pc): (i64, i64)| ((pc - pc_min) * w + (tc - tc_min)) as usize;
    for &cell in coords.iter() {
        cell_start[cell_id(cell) + 1] += 1;
    }
    for c in 1..=n_cells {
        cell_start[c] += cell_start[c - 1];
    }
    for (i, &cell) in coords.iter().enumerate() {
        let slot = &mut cell_start[cell_id(cell)];
        place(i, *slot as usize);
        *slot += 1;
    }
    // The scatter shifted each start to its cell's end; shift back.
    for c in (1..=n_cells).rev() {
        cell_start[c] = cell_start[c - 1];
    }
    cell_start[0] = 0;
    GridKind::Dense { w, h, tc_min, pc_min }
}

/// Run Algorithm 1 over a group of sparse points.
///
/// * `spherical` — the group's points in spherical coordinates;
/// * `cartesian` — the same points in Cartesian coordinates (for the
///   Euclidean tie-break in the Extend routine);
/// * `u_theta`, `u_phi` — sensor sample spacings;
/// * `min_len` — minimum polyline length; shorter ones become outliers.
pub fn organize_sparse_points(
    spherical: &[Spherical],
    cartesian: &[Point3],
    u_theta: f64,
    u_phi: f64,
    min_len: usize,
) -> Organized {
    organize_sparse_points_with(
        spherical,
        cartesian,
        u_theta,
        u_phi,
        min_len,
        &mut OrganizeScratch::default(),
    )
}

/// [`organize_sparse_points`] with caller-owned [`OrganizeScratch`], so a
/// group loop pays for the grid and staging allocations once. The result is
/// identical for any scratch state.
pub fn organize_sparse_points_with(
    spherical: &[Spherical],
    cartesian: &[Point3],
    u_theta: f64,
    u_phi: f64,
    min_len: usize,
    scratch: &mut OrganizeScratch,
) -> Organized {
    let mut out = Organized::default();
    organize_sparse_points_into(spherical, cartesian, u_theta, u_phi, min_len, scratch, &mut out);
    out
}

/// [`organize_sparse_points_with`] writing into a caller-owned [`Organized`]:
/// `out`'s previous polyline vectors are recycled through the scratch's line
/// pool, so a warm (scratch, out) pair organizes a group without allocating.
/// The result is identical for any prior `out`/scratch state.
pub fn organize_sparse_points_into(
    spherical: &[Spherical],
    cartesian: &[Point3],
    u_theta: f64,
    u_phi: f64,
    min_len: usize,
    scratch: &mut OrganizeScratch,
    out: &mut Organized,
) {
    assert_eq!(spherical.len(), cartesian.len());
    assert!(u_theta > 0.0 && u_phi > 0.0, "sample spacings must be positive");
    let n = spherical.len();
    let grid = build_grid(spherical, cartesian, scratch, u_theta, u_phi);
    let OrganizeScratch {
        theta,
        phi,
        xyz,
        orig,
        slot_of,
        cell_start,
        used,
        right,
        left,
        line_pool,
        ..
    } = scratch;
    let (theta, phi, xyz, orig) =
        (theta.as_slice(), phi.as_slice(), xyz.as_slice(), orig.as_slice());
    let cell_start = cell_start.as_slice();
    used.clear();
    used.resize(n, false);
    // Recycle the previous output's line vectors instead of dropping them.
    line_pool.extend(out.polylines.drain(..).map(|mut line| {
        line.clear();
        line
    }));
    out.outliers.clear();
    let result = out;
    let two_ut = 2.0 * u_theta;

    // Extend from slot `from` in direction `dir` (+1 right, -1 left) within
    // the band `phi_lo..=phi_hi`, whose grid rows are `pc_lo..=pc_hi`;
    // returns the chosen next slot, if any.
    let extend = |used: &[bool], from: usize, dir: f64, band: &Band| -> Option<usize> {
        let s_theta = theta[from];
        let (t_lo, t_hi) =
            if dir > 0.0 { (s_theta, s_theta + two_ut) } else { (s_theta - two_ut, s_theta) };
        let p = xyz[from];
        let mut best_d = f64::INFINITY;
        let mut best = usize::MAX;
        let mut best_orig = u32::MAX;
        // The tests combine with non-short-circuit `&`: candidates pass or
        // fail them unpredictably, and branching on each costs more than
        // evaluating all of them.
        let mut visit = |cand: usize| {
            // Strict on the near side, inclusive on the far side.
            let dt = (theta[cand] - s_theta) * dir;
            let cp = phi[cand];
            let ok = !used[cand]
                & (cand != from)
                & !(dt <= 0.0 || dt > two_ut)
                & !(cp < band.phi_lo || cp > band.phi_hi);
            let d = p.dist2(xyz[cand]);
            let o = orig[cand];
            // Deterministic tie-break on the input index (which also makes
            // the result independent of candidate visit order, so the dense
            // and hash grids organize identically).
            if ok & (d < best_d || (d == best_d && o < best_orig)) {
                best_d = d;
                best = cand;
                best_orig = o;
            }
        };
        let (tc_lo, tc_hi) = (floor_i64(t_lo / u_theta), floor_i64(t_hi / u_theta));
        match &grid {
            GridKind::Dense { w, tc_min, .. } => {
                let (tc_lo, tc_hi) = ((tc_lo - tc_min).max(0), (tc_hi - tc_min).min(w - 1));
                if tc_lo <= tc_hi {
                    for pc in band.pc_lo..=band.pc_hi {
                        // Cells tc_lo..=tc_hi of row pc are one slot range.
                        let row = (pc * w) as usize;
                        let lo = cell_start[row + tc_lo as usize] as usize;
                        let hi = cell_start[row + tc_hi as usize + 1] as usize;
                        (lo..hi).for_each(&mut visit);
                    }
                }
            }
            GridKind::Hash(map) => {
                for tc in tc_lo..=tc_hi {
                    for pc in band.pc_lo..=band.pc_hi {
                        if let Some(v) = map.get(&(tc, pc)) {
                            v.iter().for_each(|&i| visit(i as usize));
                        }
                    }
                }
            }
        }
        (best != usize::MAX).then_some(best)
    };

    for (seed, &seed_slot) in slot_of.iter().enumerate() {
        let seed_slot = seed_slot as usize;
        if used[seed_slot] {
            continue;
        }
        used[seed_slot] = true;
        let band = Band::new(phi[seed_slot], u_phi, &grid);
        right.clear();
        right.push(seed as u32);
        let mut tail = seed_slot;
        while let Some(nx) = extend(used, tail, 1.0, &band) {
            used[nx] = true;
            right.push(orig[nx]);
            tail = nx;
        }
        left.clear();
        let mut head = seed_slot;
        while let Some(nx) = extend(used, head, -1.0, &band) {
            used[nx] = true;
            left.push(orig[nx]);
            head = nx;
        }
        let len = left.len() + right.len();
        if len >= min_len {
            let mut line = line_pool.pop().unwrap_or_default();
            line.reserve(len);
            line.extend(left.iter().rev());
            line.extend_from_slice(right);
            result.polylines.push(line);
        } else {
            result.outliers.extend(left.iter().rev());
            result.outliers.extend_from_slice(right);
        }
    }

    // Sort polylines by (polar angle of head, azimuthal angle of head). The
    // head index breaks exact angle ties, making the unstable sort a total
    // (and therefore deterministic) order.
    result.polylines.sort_unstable_by(|a, b| {
        let (ha, hb) = (slot_of[a[0] as usize] as usize, slot_of[b[0] as usize] as usize);
        phi[ha].total_cmp(&phi[hb]).then(theta[ha].total_cmp(&theta[hb])).then(a[0].cmp(&b[0]))
    });
}

/// A polyline's polar band, `φ_seed ± u_φ`, and the grid rows it covers
/// (clamped to the dense grid; empty when the band misses it).
struct Band {
    phi_lo: f64,
    phi_hi: f64,
    pc_lo: i64,
    pc_hi: i64,
}

impl Band {
    fn new(seed_phi: f64, u_phi: f64, grid: &GridKind) -> Band {
        let (phi_lo, phi_hi) = (seed_phi - u_phi, seed_phi + u_phi);
        let (pc_lo, pc_hi) = (floor_i64(phi_lo / u_phi), floor_i64(phi_hi / u_phi));
        let (pc_lo, pc_hi) = match grid {
            GridKind::Dense { h, pc_min, .. } => {
                ((pc_lo - pc_min).max(0), (pc_hi - pc_min).min(h - 1))
            }
            GridKind::Hash(_) => (pc_lo, pc_hi),
        };
        Band { phi_lo, phi_hi, pc_lo, pc_hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build spherical + cartesian arrays from (θ, φ, r) triples.
    fn points(triples: &[(f64, f64, f64)]) -> (Vec<Spherical>, Vec<Point3>) {
        let sph: Vec<Spherical> =
            triples.iter().map(|&(t, p, r)| Spherical::new(t, p, r)).collect();
        let cart = sph.iter().map(|s| s.to_cartesian()).collect();
        (sph, cart)
    }

    const U_T: f64 = 0.003;
    const U_P: f64 = 0.007;

    #[test]
    fn single_ring_becomes_one_polyline() {
        let triples: Vec<(f64, f64, f64)> = (0..50).map(|i| (i as f64 * U_T, 1.6, 10.0)).collect();
        let (sph, cart) = points(&triples);
        let org = organize_sparse_points(&sph, &cart, U_T, U_P, 3);
        assert_eq!(org.polylines.len(), 1);
        assert_eq!(org.polylines[0].len(), 50);
        assert!(org.outliers.is_empty());
        // Left-to-right order.
        let line = &org.polylines[0];
        for w in line.windows(2) {
            assert!(sph[w[0] as usize].theta < sph[w[1] as usize].theta);
        }
    }

    #[test]
    fn gap_splits_polyline() {
        // 20 points, a gap > 2·u_θ in the middle.
        let mut triples: Vec<(f64, f64, f64)> =
            (0..10).map(|i| (i as f64 * U_T, 1.6, 10.0)).collect();
        triples.extend((0..10).map(|i| (0.2 + i as f64 * U_T, 1.6, 10.0)));
        let (sph, cart) = points(&triples);
        let org = organize_sparse_points(&sph, &cart, U_T, U_P, 3);
        assert_eq!(org.polylines.len(), 2);
    }

    #[test]
    fn phi_band_rejects_other_rings() {
        // Two rings separated by 3·u_φ: never merged.
        let mut triples: Vec<(f64, f64, f64)> =
            (0..20).map(|i| (i as f64 * U_T, 1.6, 10.0)).collect();
        triples.extend((0..20).map(|i| (i as f64 * U_T, 1.6 + 3.0 * U_P, 12.0)));
        let (sph, cart) = points(&triples);
        let org = organize_sparse_points(&sph, &cart, U_T, U_P, 3);
        assert_eq!(org.polylines.len(), 2);
        assert_eq!(org.polylines[0].len(), 20);
        // Sorted by polar angle of head.
        assert!(sph[org.polylines[0][0] as usize].phi < sph[org.polylines[1][0] as usize].phi);
    }

    #[test]
    fn isolated_points_are_outliers() {
        let triples = [(0.0, 1.6, 10.0), (0.5, 1.2, 20.0), (-0.7, 1.9, 30.0)];
        let (sph, cart) = points(&triples);
        let org = organize_sparse_points(&sph, &cart, U_T, U_P, 3);
        assert!(org.polylines.is_empty());
        assert_eq!(org.outliers.len(), 3);
    }

    #[test]
    fn left_extension_from_middle_seed() {
        // Seed iteration order is input order; put the middle point first so
        // the polyline must grow in both directions.
        let mut triples = vec![(25.0 * U_T, 1.6, 10.0)];
        triples.extend((0..50).filter(|&i| i != 25).map(|i| (i as f64 * U_T, 1.6, 10.0)));
        let (sph, cart) = points(&triples);
        let org = organize_sparse_points(&sph, &cart, U_T, U_P, 3);
        assert_eq!(org.polylines.len(), 1);
        assert_eq!(org.polylines[0].len(), 50);
    }

    #[test]
    fn nearest_candidate_wins() {
        // Two candidates in the Δθ window; the nearer (in 3D) is chosen.
        let triples = [
            (0.0, 1.6, 10.0),
            (1.2 * U_T, 1.6, 10.05), // near in r
            (1.0 * U_T, 1.6, 14.0),  // same band, farther in r
            (2.4 * U_T, 1.6, 10.1),  // continues the line
        ];
        let (sph, cart) = points(&triples);
        let org = organize_sparse_points(&sph, &cart, U_T, U_P, 2);
        // First polyline should contain points 0, 1, 3 in order.
        let main: &Vec<u32> =
            org.polylines.iter().find(|l| l.contains(&0)).expect("line through point 0");
        assert_eq!(main, &vec![0, 1, 3]);
    }

    #[test]
    fn empty_input() {
        let org = organize_sparse_points(&[], &[], U_T, U_P, 3);
        assert!(org.polylines.is_empty() && org.outliers.is_empty());
    }

    /// Structural equality of two organizations.
    fn assert_same(a: &Organized, b: &Organized) {
        assert_eq!(a.polylines, b.polylines);
        assert_eq!(a.outliers, b.outliers);
    }

    #[test]
    fn reused_scratch_is_identical() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut scratch = OrganizeScratch::default();
        for round in 0..4 {
            let triples: Vec<(f64, f64, f64)> = (0..500 + round * 100)
                .map(|_| {
                    (rng.gen_range(-3.0..3.0), rng.gen_range(1.5..2.0), rng.gen_range(5.0..60.0))
                })
                .collect();
            let (sph, cart) = points(&triples);
            let fresh = organize_sparse_points(&sph, &cart, U_T, U_P, 3);
            let reused = organize_sparse_points_with(&sph, &cart, U_T, U_P, 3, &mut scratch);
            assert_same(&fresh, &reused);
        }
    }

    #[test]
    fn wide_angle_spread_falls_back_to_hash_grid() {
        // A few points scattered over a huge θ range make a dense grid
        // mostly empty, so the hash fallback kicks in; the organization must
        // be the one the dense grid would produce (here: a run of three
        // consecutive points plus two far outliers).
        let mut triples = vec![(1e6 * U_T, 1.6, 10.0), (-1e6 * U_T, 1.6, 10.0)];
        triples.extend((0..3).map(|i| (i as f64 * U_T, 1.6, 10.0)));
        let (sph, cart) = points(&triples);
        let org = organize_sparse_points(&sph, &cart, U_T, U_P, 3);
        assert_eq!(org.polylines, vec![vec![2, 3, 4]]);
        assert_eq!(org.outliers, vec![0, 1]);
    }

    /// Algorithm 1 as written: every extend scans every point. The
    /// reference the grid organizer must reproduce exactly.
    fn naive_organize(
        sph: &[Spherical],
        cart: &[Point3],
        u_theta: f64,
        u_phi: f64,
        min_len: usize,
    ) -> Organized {
        let n = sph.len();
        let mut used = vec![false; n];
        let extend = |used: &[bool], from: usize, dir: f64, lo: f64, hi: f64| {
            let mut best: Option<(f64, usize)> = None;
            for cand in 0..n {
                let dt = (sph[cand].theta - sph[from].theta) * dir;
                if used[cand] || dt <= 0.0 || dt > 2.0 * u_theta {
                    continue;
                }
                if sph[cand].phi < lo || sph[cand].phi > hi {
                    continue;
                }
                let d = cart[from].dist2(cart[cand]);
                // Ascending scan: a strict `<` keeps the lowest index on ties.
                if best.map_or(true, |(bd, _)| d < bd) {
                    best = Some((d, cand));
                }
            }
            best.map(|(_, i)| i)
        };
        let mut out = Organized::default();
        for seed in 0..n {
            if used[seed] {
                continue;
            }
            used[seed] = true;
            let (lo, hi) = (sph[seed].phi - u_phi, sph[seed].phi + u_phi);
            let mut line = vec![seed as u32];
            let mut tail = seed;
            while let Some(nx) = extend(&used, tail, 1.0, lo, hi) {
                used[nx] = true;
                line.push(nx as u32);
                tail = nx;
            }
            let mut head = seed;
            while let Some(nx) = extend(&used, head, -1.0, lo, hi) {
                used[nx] = true;
                line.insert(0, nx as u32);
                head = nx;
            }
            if line.len() >= min_len {
                out.polylines.push(line);
            } else {
                out.outliers.extend(line);
            }
        }
        out.polylines.sort_by(|a, b| {
            let (ha, hb) = (&sph[a[0] as usize], &sph[b[0] as usize]);
            ha.phi.total_cmp(&hb.phi).then(ha.theta.total_cmp(&hb.theta)).then(a[0].cmp(&b[0]))
        });
        out
    }

    /// Random groups on a coarse lattice, so many candidates sit at exactly
    /// the same distance from a tail: ties must break on the input index in
    /// both the dense grid and the hash grid (forced by two far-θ points).
    #[test]
    fn matches_naive_algorithm_with_distance_ties() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(91);
        for round in 0..24 {
            let n = rng.gen_range(1..400);
            let mut sph = Vec::with_capacity(n + 2);
            let mut cart = Vec::with_capacity(n + 2);
            for _ in 0..n {
                // θ and φ on half-spacing lattices; Cartesian coordinates on
                // an integer lattice (exact squared distances, many ties),
                // independent of the angles: the organizer reads both as given.
                let t = rng.gen_range(-40..40) as f64 * 0.5 * U_T;
                let p = 1.6 + rng.gen_range(-6..6) as f64 * 0.5 * U_P;
                sph.push(Spherical::new(t, p, 10.0));
                cart.push(Point3::new(
                    rng.gen_range(-3..4) as f64,
                    rng.gen_range(-3..4) as f64,
                    rng.gen_range(-1..2) as f64,
                ));
            }
            if round % 2 == 1 {
                for t in [1e6 * U_T, -1e6 * U_T] {
                    sph.push(Spherical::new(t, 1.6, 10.0));
                    cart.push(Point3::new(0.0, 0.0, 0.0));
                }
            }
            let mut scratch = OrganizeScratch::default();
            let hash = matches!(build_grid(&sph, &cart, &mut scratch, U_T, U_P), GridKind::Hash(_));
            assert_eq!(hash, round % 2 == 1, "round {round}");
            let expected = naive_organize(&sph, &cart, U_T, U_P, 3);
            let got = organize_sparse_points(&sph, &cart, U_T, U_P, 3);
            assert_same(&got, &expected);
        }
    }

    #[test]
    fn all_points_accounted_for() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(90);
        let triples: Vec<(f64, f64, f64)> = (0..2000)
            .map(|_| (rng.gen_range(-3.0..3.0), rng.gen_range(1.5..2.0), rng.gen_range(5.0..60.0)))
            .collect();
        let (sph, cart) = points(&triples);
        let org = organize_sparse_points(&sph, &cart, U_T, U_P, 3);
        let total = org.polyline_points() + org.outliers.len();
        assert_eq!(total, 2000);
        // No index appears twice.
        let mut seen = vec![false; 2000];
        for &i in org.polylines.iter().flatten().chain(&org.outliers) {
            assert!(!seen[i as usize], "duplicate index {i}");
            seen[i as usize] = true;
        }
    }
}
