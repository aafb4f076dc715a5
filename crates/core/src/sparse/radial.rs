//! Radial-distance-optimized delta encoding (§3.5 step 8).
//!
//! Plain delta coding on `r` suffers at object boundaries, where consecutive
//! polyline points jump between surfaces. Definition 3.3 generalizes the
//! reference point: it may come from the *consensus reference polyline* `l*`
//! (Algorithm 2) — a vertically adjacent, already-coded polyline — or from
//! the preceding point on the same line.
//!
//! The decoder reproduces every reference choice from information it already
//! has (decoded `θ`, `φ`, and previously decoded `r` values); only the
//! ambiguous case (2b), where the reference is whichever candidate's `r` is
//! nearest to the value being coded, records an explicit 2-bit symbol in
//! `L_ref`: `p_bl = 0`, `p_ur = 1`, `p_um = 2`, `p_ul = 3`.
//!
//! On organize-stage input `l*` is never copied whole: it is an ordered
//! list of [`Segment`]s, each a point range of one already-coded line, so
//! merging a line rewrites a few segments instead of shifting every point
//! after it. Each line then reads only the few `l*` points its own θ span
//! can reach ([`Consensus::advance`]), and [`StarCursor`] walks them. The
//! quadratic [`build_consensus_into`], which copies `l*` point by point, is
//! the fallback for input that breaks the organize-stage ordering and the
//! oracle the segment list is tested against.
//!
//! Points are stored as `[c1, c2, c3] = [θ, φ, r]` in quantized units.

use dbgc_codec::CodecError;

/// A point of the consensus polyline: azimuthal angle and radial distance in
/// quantized units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StarPoint {
    theta: i64,
    r: i64,
}

/// Build the consensus reference polyline `l*` for line `li` (Algorithm 2).
///
/// Reference polylines are the lines preceding `li` whose head polar angle is
/// within `th_phi` of `li`'s (Definition 3.4). They are merged left-to-right:
/// a later line replaces the span of `l*` its θ-range covers.
///
/// Reads `r` from channel 2 of earlier lines, which the decoder has already
/// filled, so encoder and decoder build identical consensus lines.
fn build_consensus_into(
    star: &mut Vec<StarPoint>,
    lines: &[Vec<[i64; 3]>],
    li: usize,
    th_phi: i64,
) {
    star.clear();
    let phi_head = lines[li][0][1];
    for line in lines.iter().take(li) {
        if line.is_empty() || (line[0][1] - phi_head).abs() > th_phi {
            continue;
        }
        merge_line(star, line);
    }
}

/// Merge one reference line into the consensus, replacing the span of `l*`
/// its θ-range covers (the later line wins, per Algorithm 2).
fn merge_line(star: &mut Vec<StarPoint>, line: &[[i64; 3]]) {
    let front_t = line[0][0];
    let back_t = line[line.len() - 1][0];
    let as_star = line.iter().map(|p| StarPoint { theta: p[0], r: p[2] });
    match star.last() {
        None => star.extend(as_star),
        Some(last) if last.theta < front_t => star.extend(as_star),
        _ => {
            let lo = star.partition_point(|p| p.theta <= front_t);
            let hi = star.partition_point(|p| p.theta < back_t).max(lo);
            star.splice(lo..hi, as_star);
        }
    }
}

/// Head-φ index enabling the segment consensus of [`Consensus`].
///
/// Returns the per-line head φ values when every line is non-empty, the
/// heads are non-decreasing, and every line's θ is non-decreasing — all
/// guaranteed by the organize stage, which drops short lines, lists each
/// polyline left to right, and sorts polylines by head (φ, θ). Under that
/// ordering:
/// - the Definition 3.4 predicate `|φ_head(j) − φ_head(li)| ≤ TH_φ` over
///   `j < li` reduces to `φ_head(j) ≥ φ_head(li) − TH_φ`, which selects a
///   contiguous suffix of the preceding lines whose front only advances:
///   no O(lines²) filter scan;
/// - `l*` stays sorted by θ, so every `partition_point` over it has one
///   answer however the points are stored.
///
/// Returns `None` (scan fallback) otherwise.
fn sorted_heads(lines: &[Vec<[i64; 3]>]) -> Option<Vec<i64>> {
    let mut heads = Vec::with_capacity(lines.len());
    for line in lines {
        heads.push(line.first()?[1]);
        if !line.windows(2).all(|w| w[0][0] <= w[1][0]) {
            return None;
        }
    }
    heads.windows(2).all(|w| w[0] <= w[1]).then_some(heads)
}

/// A run of consecutive points of one already-coded line:
/// `lines[line][start..end]`, never empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    line: usize,
    start: usize,
    end: usize,
}

impl Segment {
    #[inline]
    fn points<'a>(&self, lines: &'a [Vec<[i64; 3]>]) -> &'a [[i64; 3]] {
        &lines[self.line][self.start..self.end]
    }
}

/// A position in a segment list: segment index and offset into the
/// segment. The end is `(segs.len(), 0)`; every other position has its
/// offset inside its segment, so positions order lexicographically like the
/// flat `l*` indices they stand for.
type SegPos = (usize, usize);

/// `partition_point` that gallops from the front — probes 1, 2, 4, …
/// ahead, then binary-searches the last stride — so an answer `k` places in
/// costs `O(log k)` probes. Same answer as `partition_point`.
fn gallop<T>(v: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let (mut base, mut step) = (0, 1);
    while base + step <= v.len() && pred(&v[base + step - 1]) {
        base += step;
        step *= 2;
    }
    let end = (base + step - 1).min(v.len());
    base + v[base..end].partition_point(pred)
}

/// The first position whose θ fails `pred`, the segment-list form of
/// `partition_point` over a θ-sorted `l*`: a search over the segments'
/// last points, then one within the segment found.
///
/// Both searches gallop: over the segments from segment `hint` when every
/// segment before it satisfies `pred` (merges and lines mostly land just
/// after the previous merge; otherwise the segments before `hint` are
/// binary-searched), and within the segment from its first point (a line
/// mostly cuts into the front of the segment after it). The answer is the
/// same either way.
fn seg_partition_point(
    segs: &[Segment],
    lines: &[Vec<[i64; 3]>],
    hint: usize,
    pred: impl Fn(i64) -> bool,
) -> SegPos {
    let holds = |g: &Segment| pred(lines[g.line][g.end - 1][0]);
    let hint = hint.min(segs.len());
    let s = if hint > 0 && !holds(&segs[hint - 1]) {
        segs[..hint].partition_point(holds)
    } else {
        hint + gallop(&segs[hint..], holds)
    };
    match segs.get(s) {
        Some(g) => (s, gallop(g.points(lines), |p| pred(p[0]))),
        None => (s, 0),
    }
}

/// Merge line `m` into the segment list: the segment form of
/// [`merge_line`]. The span `[lo, hi)` it replaces is cut out by trimming
/// the segments at its two ends and dropping the ones between, so the cost
/// is a search plus a move of the segments after it, never of points.
/// `hint` is a search start (see [`seg_partition_point`]); returns the
/// index the new segment landed at.
fn merge_segment(segs: &mut Vec<Segment>, lines: &[Vec<[i64; 3]>], m: usize, hint: usize) -> usize {
    let line = &lines[m];
    let new = Segment { line: m, start: 0, end: line.len() };
    let front_t = line[0][0];
    let back_t = line[line.len() - 1][0];
    match segs.last() {
        Some(g) if lines[g.line][g.end - 1][0] >= front_t => {
            let lo = seg_partition_point(segs, lines, hint, |t| t <= front_t);
            let hi = seg_partition_point(segs, lines, lo.0, |t| t < back_t).max(lo);
            let mut parts = [new; 3];
            let mut at = 0;
            if lo.1 > 0 {
                parts[0] = Segment { end: segs[lo.0].start + lo.1, ..segs[lo.0] };
                at = 1;
            }
            parts[at] = new;
            let mut n = at + 1;
            let mut upto = hi.0;
            if let Some(&g) = segs.get(hi.0) {
                parts[n] = Segment { start: g.start + hi.1, ..g };
                n += 1;
                upto += 1;
            }
            segs.splice(lo.0..upto, parts[..n].iter().copied());
            lo.0 + at
        }
        _ => {
            segs.push(new);
            segs.len() - 1
        }
    }
}

/// The consensus `l*` shared by the encode and decode loops.
///
/// On organize-stage input ([`sorted_heads`] is `Some`) `l*` is a segment
/// list, maintained incrementally: the window `[lo, li)` only ever gains
/// line `li − 1` at the back, and its front `lo` is non-decreasing (the φ
/// threshold grows with `li`). Algorithm 2's merge is a left fold over the
/// window in index order, so each step extends the previous consensus with
/// a single [`merge_segment`]. On sorted input a merge keeps the points
/// with `θ ≤ θ_front`, inserts the line, and keeps the points with
/// `θ ≥ θ_back` (`θ > θ_front` for a line of one θ): an order-preserving
/// filter of what is there plus an insert at a place set by θ alone. So it
/// commutes with deleting every point of some earlier lines, and when `lo`
/// advances (a scan-ring boundary) the fold over the new window is the
/// previous segment list minus the segments of the lines that left — no
/// refold. Otherwise `l*` is copied whole by [`build_consensus_into`].
/// Either way every step reproduces the exact fold the quadratic scan
/// performs, so the bitstream is byte-identical.
struct Consensus {
    segs: Vec<Segment>,
    /// Index in `segs` of the line merged last: where the next merge and
    /// the next line's search start.
    finger: usize,
    /// The `l*` points the current line reads (segment path), or all of
    /// `l*` (fallback).
    star: Vec<StarPoint>,
    heads: Option<Vec<i64>>,
    win_lo: usize,
}

impl Consensus {
    fn new(lines: &[Vec<[i64; 3]>]) -> Self {
        let heads = sorted_heads(lines);
        Self { segs: Vec::new(), finger: 0, star: Vec::new(), heads, win_lo: 0 }
    }

    /// Build `l*` for line `li` and return the part of it the line's points
    /// can reach; must be called with `li = 0, 1, 2, …` in order (both
    /// codec loops do). Decoded `r` values the segments point at never
    /// change afterwards, so reuse is sound on the decode side too.
    ///
    /// On the segment path that part is `l*[a..b]` with
    /// `a = partition_point(θ < θ_front) − 1` and
    /// `b = partition_point(θ ≤ θ_back) + 1` (clamped to `l*`), where
    /// `θ_front ≤ θ_back` bound the line. Every point of `l*` before `a` has
    /// `θ < θ_front` and every one from `b` on has `θ > θ_back`, so for each
    /// θ of the line both lower bounds [`StarCursor`] takes shift by exactly
    /// `a` and the neighbours they pick are the same points.
    fn advance(&mut self, lines: &[Vec<[i64; 3]>], li: usize, th_phi: i64) -> &[StarPoint] {
        let Some(heads) = self.heads.as_deref() else {
            build_consensus_into(&mut self.star, lines, li, th_phi);
            return &self.star;
        };
        // The window front: the first line with φ_head ≥ φ_head(li) − TH_φ.
        let mut lo = self.win_lo;
        while lo < li && heads[lo] < heads[li] - th_phi {
            lo += 1;
        }
        if lo > self.win_lo {
            self.segs.retain(|g| g.line >= lo);
            self.finger = self.segs.len();
        }
        if lo < li {
            self.finger = merge_segment(&mut self.segs, lines, li - 1, self.finger);
        }
        self.win_lo = lo;

        let (front_t, back_t) = (lines[li][0][0], lines[li][lines[li].len() - 1][0]);
        let (s, off) = seg_partition_point(&self.segs, lines, self.finger, |t| t < front_t);
        self.star.clear();
        // One point before the line's span: the tail of the segment before,
        // or the point before `off` in this one.
        let first = match off.checked_sub(1) {
            Some(before) => Some((s, before)),
            None => s.checked_sub(1).map(|s| (s, self.segs[s].end - self.segs[s].start - 1)),
        };
        let Some((s, off)) = first.or((s < self.segs.len()).then_some((s, 0))) else {
            return &self.star;
        };
        // Then every point up to and including the first past `θ_back`.
        let mut from = off;
        for g in &self.segs[s..] {
            for p in &g.points(lines)[from..] {
                self.star.push(StarPoint { theta: p[0], r: p[2] });
                if p[0] > back_t {
                    return &self.star;
                }
            }
            from = 0;
        }
        &self.star
    }

    /// All of `l*` as points, in order (test view of either representation;
    /// call after [`Consensus::advance`]).
    #[cfg(test)]
    fn points(&self, lines: &[Vec<[i64; 3]>]) -> Vec<StarPoint> {
        match self.heads {
            Some(_) => self
                .segs
                .iter()
                .flat_map(|g| g.points(lines).iter().map(|p| StarPoint { theta: p[0], r: p[2] }))
                .collect(),
            None => self.star.clone(),
        }
    }
}

/// [`build_consensus_into`] with a fresh buffer (test convenience).
#[cfg(test)]
fn build_consensus(lines: &[Vec<[i64; 3]>], li: usize, th_phi: i64) -> Vec<StarPoint> {
    let mut star = Vec::new();
    build_consensus_into(&mut star, lines, li, th_phi);
    star
}

/// Monotone cursor over the sorted consensus points a line reads.
///
/// Polyline points arrive in ascending θ (an organize-stage invariant), so
/// the two lower-bound positions [`reference`] needs per point only ever
/// advance; tracking them turns two `O(log n)` binary searches per point
/// into an amortized `O(1)` walk. Out-of-order θ (never produced by
/// organize, but accepted) falls back to `partition_point`, so the positions
/// — and the bitstream — are identical either way.
struct StarCursor {
    idx_l: usize,
    idx_r: usize,
    last_theta: i64,
    primed: bool,
}

impl StarCursor {
    fn new() -> Self {
        Self { idx_l: 0, idx_r: 0, last_theta: 0, primed: false }
    }

    /// `(partition_point(θ_s < θ), partition_point(θ_s <= θ))` over `star`.
    #[inline]
    fn seek(&mut self, star: &[StarPoint], theta_p: i64) -> (usize, usize) {
        if !self.primed || theta_p < self.last_theta {
            self.idx_l = star.partition_point(|s| s.theta < theta_p);
            self.idx_r = self.idx_l;
            self.primed = true;
        } else {
            while self.idx_l < star.len() && star[self.idx_l].theta < theta_p {
                self.idx_l += 1;
            }
            if self.idx_r < self.idx_l {
                self.idx_r = self.idx_l;
            }
        }
        while self.idx_r < star.len() && star[self.idx_r].theta <= theta_p {
            self.idx_r += 1;
        }
        self.last_theta = theta_p;
        (self.idx_l, self.idx_r)
    }
}

/// The reference decision for one point.
enum RefChoice {
    /// Situations (1) and (2a): the reference is implied; no symbol recorded.
    Implied(i64),
    /// Situation (2b): the first `len` entries of `cands` are the candidate
    /// `(symbol, r)` pairs in symbol order; the encoder picks the `r` nearest
    /// to the coded value and records the symbol. A fixed array — there are
    /// at most four candidates, and this sits on the per-point hot path.
    Recorded { cands: [(u8, i64); 4], len: usize },
}

/// Decide the reference for point `k` of line `li`, given the consensus line.
fn reference(
    lines: &[Vec<[i64; 3]>],
    li: usize,
    k: usize,
    star: &[StarPoint],
    cursor: &mut StarCursor,
    th_r: i64,
) -> RefChoice {
    let theta_p = lines[li][k][0];
    let (idx_l, idx_r) = cursor.seek(star, theta_p);
    // The "previous point" reference: the preceding point on the same line
    // for tails; for a head (situation 1) the head of the preceding polyline
    // plays that role — polylines are sorted by (φ, θ), so the previous head
    // usually continues the same interrupted scan ring.
    let bl = if k == 0 {
        if li == 0 {
            // Very first value of the group: only l* (if any) can help.
            if idx_l > 0 {
                return RefChoice::Implied(star[idx_l - 1].r);
            }
            return RefChoice::Implied(0);
        }
        lines[li - 1][0][2]
    } else {
        lines[li][k - 1][2]
    };
    let ul = (idx_l > 0).then(|| star[idx_l - 1].r);
    let ur = (idx_r < star.len()).then(|| star[idx_r].r);
    let um = (idx_r > idx_l).then(|| star[idx_r - 1].r);
    let (Some(ul), Some(ur)) = (ul, ur) else {
        return RefChoice::Implied(bl);
    };
    // Situation (2a): locally flat — every pair within TH_r, so plain delta
    // to `p_bl` is good and no choice needs recording.
    if (ul - ur).abs() <= th_r && (ul - bl).abs() <= th_r && (ur - bl).abs() <= th_r {
        return RefChoice::Implied(bl);
    }
    // Situation (2b).
    let mut cands = [(0u8, bl), (1u8, ur), (0, 0), (0, 0)];
    let mut len = 2;
    if let Some(um) = um {
        cands[len] = (2, um);
        len += 1;
    }
    cands[len] = (3, ul);
    len += 1;
    RefChoice::Recorded { cands, len }
}

/// Encoded radial channel: head and tail residuals are kept in separate
/// sequences — heads carry line-to-line references (situation 1) with a
/// wider distribution than the within-line tail residuals, and mixing them
/// into one entropy model measurably hurts (the same observation behind the
/// paper's step-3 head/tail reorganization of θ and φ).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RadialStreams {
    /// `∇r` of each line's head, in line order.
    pub head_nabla: Vec<i64>,
    /// `∇r` of all non-head points, in traversal order.
    pub tail_nabla: Vec<i64>,
    /// `L_ref` symbols for the recorded (2b) choices.
    pub refs: Vec<u8>,
}

/// Encode the radial channel of all lines.
pub fn encode_radial(lines: &[Vec<[i64; 3]>], th_phi: i64, th_r: i64) -> RadialStreams {
    let mut out = RadialStreams::default();
    encode_radial_into(lines, th_phi, th_r, &mut out);
    out
}

/// [`encode_radial`] into caller-owned streams, so a group-encode loop can
/// reuse the three backing allocations frame after frame.
pub fn encode_radial_into(
    lines: &[Vec<[i64; 3]>],
    th_phi: i64,
    th_r: i64,
    out: &mut RadialStreams,
) {
    out.head_nabla.clear();
    out.tail_nabla.clear();
    out.refs.clear();
    let mut consensus = Consensus::new(lines);
    for li in 0..lines.len() {
        let star = consensus.advance(lines, li, th_phi);
        let mut cursor = StarCursor::new();
        for k in 0..lines[li].len() {
            let r = lines[li][k][2];
            let nabla = match reference(lines, li, k, star, &mut cursor, th_r) {
                RefChoice::Implied(ref_r) => r - ref_r,
                RefChoice::Recorded { cands, len } => {
                    let &(sym, ref_r) = cands[..len]
                        .iter()
                        .min_by_key(|&&(sym, cr)| ((r - cr).abs(), sym))
                        .expect("candidates are non-empty");
                    out.refs.push(sym);
                    r - ref_r
                }
            };
            if k == 0 {
                out.head_nabla.push(nabla);
            } else {
                out.tail_nabla.push(nabla);
            }
        }
    }
}

/// Decode the radial channel in place; `lines[..][..]\[2\]` must be zeroed (or
/// arbitrary) on entry and is overwritten.
pub fn decode_radial(
    lines: &mut [Vec<[i64; 3]>],
    streams: &RadialStreams,
    th_phi: i64,
    th_r: i64,
) -> Result<(), CodecError> {
    let mut hi = 0usize;
    let mut ti = 0usize;
    let mut ri = 0usize;
    let mut consensus = Consensus::new(lines);
    for li in 0..lines.len() {
        let star = consensus.advance(lines, li, th_phi);
        let mut cursor = StarCursor::new();
        for k in 0..lines[li].len() {
            let d = if k == 0 {
                let d = *streams
                    .head_nabla
                    .get(hi)
                    .ok_or(CodecError::CorruptStream("∇L_r head underrun"))?;
                hi += 1;
                d
            } else {
                let d = *streams
                    .tail_nabla
                    .get(ti)
                    .ok_or(CodecError::CorruptStream("∇L_r tail underrun"))?;
                ti += 1;
                d
            };
            let ref_r = match reference(lines, li, k, star, &mut cursor, th_r) {
                RefChoice::Implied(r) => r,
                RefChoice::Recorded { cands, len } => {
                    let sym =
                        *streams.refs.get(ri).ok_or(CodecError::CorruptStream("L_ref underrun"))?;
                    ri += 1;
                    cands[..len]
                        .iter()
                        .find(|&&(s, _)| s == sym)
                        .ok_or(CodecError::CorruptStream("invalid L_ref symbol"))?
                        .1
                }
            };
            lines[li][k][2] = ref_r + d;
        }
    }
    if hi != streams.head_nabla.len() || ti != streams.tail_nabla.len() || ri != streams.refs.len()
    {
        return Err(CodecError::CorruptStream("radial stream length mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trip helper: encode, wipe r, decode, compare. Returns the
    /// concatenated residuals in traversal order plus the L_ref symbols.
    fn roundtrip(lines: &[Vec<[i64; 3]>], th_phi: i64, th_r: i64) -> (Vec<i64>, Vec<u8>) {
        let streams = encode_radial(lines, th_phi, th_r);
        let mut wiped: Vec<Vec<[i64; 3]>> =
            lines.iter().map(|l| l.iter().map(|p| [p[0], p[1], 0]).collect()).collect();
        decode_radial(&mut wiped, &streams, th_phi, th_r).unwrap();
        assert_eq!(wiped, lines, "lossless radial round-trip");
        // Re-interleave for assertions that index by traversal order.
        let mut nabla = Vec::new();
        let (mut hi, mut ti) = (0usize, 0usize);
        for l in lines {
            nabla.push(streams.head_nabla[hi]);
            hi += 1;
            for _ in 1..l.len() {
                nabla.push(streams.tail_nabla[ti]);
                ti += 1;
            }
        }
        (nabla, streams.refs)
    }

    /// Two stacked rings over a flat scene: small deltas, no symbols.
    #[test]
    fn flat_scene_uses_no_symbols() {
        let line = |phi: i64, r0: i64| -> Vec<[i64; 3]> {
            (0..30).map(|i| [i * 10, phi, r0 + (i % 3)]).collect()
        };
        let lines = vec![line(100, 500), line(102, 505)];
        let (nabla, refs) = roundtrip(&lines, 4, 50);
        assert!(refs.is_empty(), "flat scene must stay in situation 2a: {refs:?}");
        // Deltas stay small.
        assert!(nabla[1..].iter().all(|&d| d.abs() <= 10), "{nabla:?}");
    }

    /// An object edge: the same θ span jumps in r on both lines; the upper
    /// line should be the better reference across the edge.
    #[test]
    fn object_edge_uses_upper_reference() {
        let edge_line = |phi: i64| -> Vec<[i64; 3]> {
            (0..30)
                .map(|i| {
                    let r = if (10..20).contains(&i) { 200 } else { 900 };
                    [i * 10, phi, r]
                })
                .collect()
        };
        let lines = vec![edge_line(100), edge_line(102)];
        let (nabla, refs) = roundtrip(&lines, 4, 50);
        assert!(!refs.is_empty(), "edges must trigger situation 2b");
        // With the upper line available, the second line's edge deltas are
        // near zero instead of ±700.
        let second_line_deltas = &nabla[30..];
        let big = second_line_deltas.iter().filter(|d| d.abs() > 100).count();
        assert!(big <= 2, "most deltas should use the upper reference: {second_line_deltas:?}");
    }

    #[test]
    fn plain_delta_matches_when_no_reference_lines() {
        // A single line: head gets the zero reference, the rest delta to the
        // preceding point.
        let line: Vec<[i64; 3]> = (0..10).map(|i| [i * 10, 50, 300 + i * 2]).collect();
        let (nabla, refs) = roundtrip(std::slice::from_ref(&line), 4, 50);
        assert!(refs.is_empty());
        assert_eq!(nabla[0], 300);
        assert!(nabla[1..].iter().all(|&d| d == 2));
    }

    #[test]
    fn reference_set_respects_th_phi() {
        // Second line's φ is far outside TH_φ: it must not reference line 0.
        let l0: Vec<[i64; 3]> = (0..10).map(|i| [i * 10, 0, 100]).collect();
        let l1: Vec<[i64; 3]> = (0..10).map(|i| [i * 10, 1000, 500]).collect();
        let (nabla, _) = roundtrip(&[l0, l1], 4, 50);
        // Line 1's head references line 0's head (fallback), giving 400, and
        // the rest plain-delta (0) — never l*-based values.
        assert_eq!(nabla[10], 400);
        assert!(nabla[11..].iter().all(|&d| d == 0));
    }

    #[test]
    fn consensus_splice_prefers_later_lines() {
        // Line 0 covers θ 0..300 at r=100; line 1 covers θ 100..200 at r=900.
        // For line 2, l* should contain r=900 in the middle span.
        let l0: Vec<[i64; 3]> = (0..30).map(|i| [i * 10, 0, 100]).collect();
        let l1: Vec<[i64; 3]> = (10..20).map(|i| [i * 10, 1, 900]).collect();
        let lines = vec![l0, l1];
        let star = build_consensus(&lines, 1, 4);
        // Building for line 1 only includes line 0.
        assert_eq!(star.len(), 30);
        let l2: Vec<[i64; 3]> = vec![[150, 2, 0]];
        let mut all = lines;
        all.push(l2);
        let star = build_consensus(&all, 2, 4);
        // The interior of the overlap was replaced by line 1's points (the
        // boundary θ values keep one point from each line).
        let mid: Vec<i64> =
            star.iter().filter(|s| (105..=185).contains(&s.theta)).map(|s| s.r).collect();
        assert!(!mid.is_empty() && mid.iter().all(|&r| r == 900), "{mid:?}");
        assert!(star.windows(2).all(|w| w[0].theta <= w[1].theta));
    }

    #[test]
    fn corrupt_streams_rejected() {
        let line: Vec<[i64; 3]> = (0..5).map(|i| [i * 10, 0, 100]).collect();
        let lines = vec![line];
        let streams = encode_radial(&lines, 4, 50);
        let mut short = streams.clone();
        short.tail_nabla.pop();
        let mut wiped = lines.clone();
        assert!(decode_radial(&mut wiped, &short, 4, 50).is_err());
        let mut long = streams.clone();
        long.tail_nabla.push(0);
        let mut wiped = lines.clone();
        assert!(decode_radial(&mut wiped, &long, 4, 50).is_err());
        let mut extra_refs = streams;
        extra_refs.refs.push(0);
        let mut wiped = lines.clone();
        assert!(decode_radial(&mut wiped, &extra_refs, 4, 50).is_err());
    }

    /// The part of the oracle `l*` a line reads: one point either side of
    /// the line's θ span (see [`Consensus::advance`]).
    fn reach(star: &[StarPoint], line: &[[i64; 3]]) -> Vec<StarPoint> {
        let a = star.partition_point(|s| s.theta < line[0][0]).saturating_sub(1);
        let b = (star.partition_point(|s| s.theta <= line[line.len() - 1][0]) + 1).min(star.len());
        star[a..b].to_vec()
    }

    /// The segment consensus must agree with the quadratic scan
    /// line-for-line on sorted input (the organize-stage invariant), and
    /// hand each line exactly the part of it the line reaches.
    #[test]
    fn windowed_consensus_matches_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut lines: Vec<Vec<[i64; 3]>> = Vec::new();
        let mut phi = 0i64;
        for _ in 0..60 {
            phi += rng.gen_range(0..4);
            let len = rng.gen_range(1..30);
            let mut theta = rng.gen_range(0..400);
            lines.push(
                (0..len)
                    .map(|_| {
                        theta += rng.gen_range(0..12);
                        [theta, phi, rng.gen_range(0..3000)]
                    })
                    .collect(),
            );
        }
        let mut fast = Consensus::new(&lines);
        assert!(fast.heads.is_some(), "generated heads are sorted");
        for li in 0..lines.len() {
            let star = build_consensus(&lines, li, 5);
            let window = fast.advance(&lines, li, 5).to_vec();
            assert_eq!(window, reach(&star, &lines[li]), "line {li}");
            assert_eq!(fast.points(&lines), star, "line {li}");
        }
    }

    /// On every sparse group of a simulator frame the segment consensus
    /// matches the quadratic scan line by line, each line reads exactly the
    /// part of it its θ span reaches, and every group takes the segment
    /// path.
    #[test]
    fn segment_consensus_matches_scan_on_simulator_groups() {
        use crate::layout::{group_codec_cfg, parse_header, read_dense, read_group_r_max};
        use crate::sparse::codec::decode_group_with_limit;
        let cloud = dbgc_lidar_sim::frame(dbgc_lidar_sim::ScenePreset::KittiCity, 0, 0);
        let bytes = crate::Dbgc::with_error_bound(0.02).compress(&cloud).unwrap().bytes;
        let h = parse_header(&bytes).unwrap();
        let mut r = dbgc_codec::varint::ByteReader::new(&bytes[h.header_len..]);
        let dense = read_dense(&mut r, &h, h.declared_points).unwrap().points.len();
        let mut budget = h.declared_points - dense;
        let mut checked = 0;
        for _ in 0..h.n_groups {
            let (cfg, _) = group_codec_cfg(&h, read_group_r_max(&mut r).unwrap());
            let lines = decode_group_with_limit(&mut r, &cfg, budget).unwrap();
            budget -= lines.iter().map(Vec::len).sum::<usize>();
            let mut segs = Consensus::new(&lines);
            assert!(segs.heads.is_some(), "organize output takes the segment path");
            for li in 0..lines.len() {
                let star = build_consensus(&lines, li, cfg.th_phi);
                let window = segs.advance(&lines, li, cfg.th_phi).to_vec();
                assert_eq!(window, reach(&star, &lines[li]), "line {li}");
                assert_eq!(segs.points(&lines), star, "line {li}");
                checked += star.len();
            }
        }
        assert!(checked > 100_000, "only {checked} consensus points compared");
    }

    /// The monotone [`StarCursor`] must return exactly the two
    /// `partition_point` lower bounds for every query — ascending runs
    /// (the organize invariant, amortized O(1)), repeats, and out-of-order
    /// regressions (the binary-search fallback) alike.
    #[test]
    fn star_cursor_matches_binary_search() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        for _ in 0..200 {
            // A sorted star with duplicate θ plateaus (splice boundaries).
            let mut theta = 0i64;
            let star: Vec<StarPoint> = (0..rng.gen_range(0..40))
                .map(|_| {
                    theta += rng.gen_range(0..6);
                    StarPoint { theta, r: rng.gen_range(0..3000) }
                })
                .collect();
            let mut cursor = StarCursor::new();
            let mut q = rng.gen_range(-5..5i64);
            for _ in 0..60 {
                // Mostly ascending, occasionally jumping backwards.
                q = if rng.gen_range(0..8) == 0 {
                    rng.gen_range(-5..theta.max(1) + 5)
                } else {
                    q + rng.gen_range(0..4)
                };
                let expect_l = star.partition_point(|s| s.theta < q);
                let expect_r = star.partition_point(|s| s.theta <= q);
                assert_eq!(
                    cursor.seek(&star, q),
                    (expect_l, expect_r),
                    "cursor diverged at θ={q} over {} star points",
                    star.len()
                );
            }
        }
    }

    /// Unsorted heads must disable the window and still round-trip.
    #[test]
    fn unsorted_heads_fall_back_to_scan() {
        let l0: Vec<[i64; 3]> = (0..10).map(|i| [i * 10, 50, 700]).collect();
        let l1: Vec<[i64; 3]> = (0..10).map(|i| [i * 10, 48, 300]).collect();
        let lines = vec![l0, l1];
        assert!(sorted_heads(&lines).is_none());
        roundtrip(&lines, 4, 50);
    }

    /// A line whose θ steps back must disable the segment path and still
    /// round-trip through the copied consensus.
    #[test]
    fn unsorted_theta_falls_back_to_scan() {
        let l0: Vec<[i64; 3]> = (0..10).map(|i| [i * 10, 50, 700]).collect();
        let l1: Vec<[i64; 3]> = (0..10).map(|i| [(i * 37) % 100, 51, 300 + i]).collect();
        let lines = vec![l0, l1];
        assert!(sorted_heads(&lines).is_none());
        roundtrip(&lines, 4, 50);
    }

    #[test]
    fn random_lines_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(91);
        let mut lines = Vec::new();
        for li in 0..40 {
            let len = rng.gen_range(1..40);
            let start = rng.gen_range(0..500);
            let mut theta = start;
            let line: Vec<[i64; 3]> = (0..len)
                .map(|_| {
                    theta += rng.gen_range(1..15);
                    [theta, li * 2 + rng.gen_range(0..2), rng.gen_range(0..3000)]
                })
                .collect();
            lines.push(line);
        }
        roundtrip(&lines, 4, 50);
    }
}
