//! Coordinate compression of organized sparse points (§3.5 steps 2–9).
//!
//! Works on quantized polylines: each point is `[c1, c2, c3]`, which is
//! `[θ, φ, r]` in spherical mode or `[x, y, z]` in the −Conversion ablation.
//!
//! Per group, the following self-delimiting frames are emitted in order:
//!
//! 1. polyline lengths — arithmetic-coded (step 5);
//! 2. `ΔL_head^c1` — heads of all lines, delta-coded, Deflate (step 6);
//! 3. `ΔL_tail^c1` — within-line deltas of all tails, Deflate (step 6);
//! 4. `ΔL_head^c2` — arithmetic-coded (step 7);
//! 5. `ΔL_tail^c2` — arithmetic-coded (step 7);
//! 6. channel 3 (step 8): with radial optimization, `∇L_r` + `L_ref`;
//!    otherwise head/tail delta frames like channel 2.
//!
//! The head/tail separation is steps 3–4 (data reorganization): heads carry
//! absolute coordinates, tails carry deltas, and mixing their distributions
//! would hurt the entropy coders.

use dbgc_codec::intseq;
use dbgc_codec::varint::ByteReader;
use dbgc_codec::CodecError;

use super::radial::{decode_radial, encode_radial_into, RadialStreams};

/// Channel-3 behaviour, the entropy lanes, and the radial thresholds, in
/// quantized units.
#[derive(Debug, Clone, Copy)]
pub struct GroupCodecConfig {
    /// Use radial-distance-optimized delta encoding for channel 3.
    pub radial: bool,
    /// Range-coder lanes (1, 2 or 4) of every range-coded frame. Same models
    /// and frame order at any count, different entropy payload framing —
    /// both ends must agree (the stream header's version carries it).
    /// Deflate frames are unaffected.
    pub lanes: usize,
    /// `TH_φ` in quantized angle units (reference polyline set).
    pub th_phi: i64,
    /// `TH_r` in quantized radial units.
    pub th_r: i64,
}

/// Reusable working memory for [`encode_group_to_buf`].
///
/// One group encode stages five integer sequences (lengths, two head frames,
/// two tail frames — plus the three radial streams) before entropy coding.
/// Keeping the backing allocations in a scratch arena lets a frame loop — or
/// a per-worker thread-local — pay for them once instead of once per group.
#[derive(Debug, Default)]
pub struct ScratchBuffers {
    /// Sequence staging area; each frame is filled, compressed, then reused.
    seq: Vec<i64>,
    /// Radial-channel streams (`∇L_r` heads/tails and `L_ref`).
    radial: RadialStreams,
    /// Integer-codec internals (varint staging, range-coder output buffer,
    /// positional byte models).
    intseq: intseq::IntseqScratch,
}

/// Fill `seq` with channel `c` of each line's head.
fn fill_heads(seq: &mut Vec<i64>, lines: &[Vec<[i64; 3]>], c: usize) {
    seq.clear();
    seq.extend(lines.iter().map(|l| l[0][c]));
}

/// Fill `seq` with channel `c`'s within-line deltas over all tails.
fn fill_tail_deltas(seq: &mut Vec<i64>, lines: &[Vec<[i64; 3]>], c: usize) {
    seq.clear();
    for l in lines {
        for k in 1..l.len() {
            seq.push(l[k][c] - l[k - 1][c]);
        }
    }
}

/// Encode one group of quantized polylines into `out`.
///
/// Convenience wrapper over [`encode_group_to_buf`] with throwaway scratch;
/// hot loops should hold a [`ScratchBuffers`] and call the latter.
pub fn encode_group(out: &mut Vec<u8>, lines: &[Vec<[i64; 3]>], cfg: &GroupCodecConfig) {
    encode_group_to_buf(out, lines, cfg, &mut ScratchBuffers::default());
}

/// Encode one group of quantized polylines into `out`, staging intermediate
/// sequences in `scratch`. The bytes appended to `out` are identical for any
/// scratch state — `scratch` only recycles capacity.
pub fn encode_group_to_buf(
    out: &mut Vec<u8>,
    lines: &[Vec<[i64; 3]>],
    cfg: &GroupCodecConfig,
    scratch: &mut ScratchBuffers,
) {
    debug_assert!(lines.iter().all(|l| !l.is_empty()), "no empty polylines");

    let ScratchBuffers { seq, radial, intseq: iscr } = scratch;
    let lanes = cfg.lanes;

    // Step 5: lengths.
    seq.clear();
    seq.extend(lines.iter().map(|l| l.len() as i64));
    intseq::compress_ints_rc_with(out, seq, lanes, iscr);

    // Steps 2-4 (head/tail split) + step 6: azimuthal channel via Deflate
    // (repeated cross-line patterns).
    fill_heads(seq, lines, 0);
    dbgc_codec::delta_encode_in_place(seq);
    intseq::compress_ints_deflate_with(out, seq, iscr);
    fill_tail_deltas(seq, lines, 0);
    intseq::compress_ints_deflate_with(out, seq, iscr);

    // Step 7: polar channel via arithmetic coding.
    fill_heads(seq, lines, 1);
    dbgc_codec::delta_encode_in_place(seq);
    intseq::compress_ints_rc_with(out, seq, lanes, iscr);
    fill_tail_deltas(seq, lines, 1);
    intseq::compress_ints_rc_with(out, seq, lanes, iscr);

    // Step 8: radial channel (head/tail residuals in separate frames).
    if cfg.radial {
        encode_radial_into(lines, cfg.th_phi, cfg.th_r, radial);
        intseq::compress_ints_rc_with(out, &radial.head_nabla, lanes, iscr);
        intseq::compress_ints_rc_with(out, &radial.tail_nabla, lanes, iscr);
        intseq::compress_symbols_rc_with(out, &radial.refs, 4, lanes, iscr);
    } else {
        fill_heads(seq, lines, 2);
        dbgc_codec::delta_encode_in_place(seq);
        intseq::compress_ints_rc_with(out, seq, lanes, iscr);
        fill_tail_deltas(seq, lines, 2);
        intseq::compress_ints_rc_with(out, seq, lanes, iscr);
    }
}

/// Decode one group of quantized polylines.
///
/// Equivalent to [`decode_group_with_limit`] with an unbounded point budget;
/// decoders entering a stream mid-way should pass the budget they actually
/// have left instead.
pub fn decode_group(
    r: &mut ByteReader<'_>,
    cfg: &GroupCodecConfig,
) -> Result<Vec<Vec<[i64; 3]>>, CodecError> {
    decode_group_with_limit(r, cfg, usize::MAX)
}

/// Decode one group of quantized polylines, budgeting the decoded point
/// count.
///
/// `max_points` bounds the group's total decoded points (sum of polyline
/// lengths). The check runs against the *declared* lengths before any line
/// is materialized, so a stream whose recorded count disagrees with its
/// header fails with a typed error instead of allocating past the budget —
/// the guarantee partial decodes rely on when they enter mid-stream with a
/// per-group (not whole-frame) budget.
pub fn decode_group_with_limit(
    r: &mut ByteReader<'_>,
    cfg: &GroupCodecConfig,
    max_points: usize,
) -> Result<Vec<Vec<[i64; 3]>>, CodecError> {
    let rc = |r: &mut ByteReader<'_>| intseq::decompress_ints_rc(r, cfg.lanes);
    let lengths = rc(r)?;
    let n_lines = lengths.len();
    // Checked sum: a wrapped total could slip past the frame-count
    // cross-check below and overrun the tail slices while rebuilding lines.
    let total_tail: usize = lengths.iter().try_fold(0usize, |acc, &l| {
        if !(1..1 << 32).contains(&l) {
            return Err(CodecError::CorruptStream("bad polyline length"));
        }
        acc.checked_add(l as usize - 1)
            .ok_or(CodecError::CorruptStream("polyline lengths overflow"))
    })?;
    match n_lines.checked_add(total_tail) {
        Some(total) if total <= max_points => {}
        _ => return Err(CodecError::CorruptStream("group point count exceeds limit")),
    }

    let heads_c1 = dbgc_codec::delta_decode(&intseq::decompress_ints_deflate(r)?);
    let tails_c1 = intseq::decompress_ints_deflate(r)?;
    let heads_c2 = dbgc_codec::delta_decode(&rc(r)?);
    let tails_c2 = rc(r)?;
    if heads_c1.len() != n_lines
        || heads_c2.len() != n_lines
        || tails_c1.len() != total_tail
        || tails_c2.len() != total_tail
    {
        return Err(CodecError::CorruptStream("sparse frame count mismatch"));
    }

    // Rebuild lines with channels 1-2; channel 3 placeholder.
    let mut lines: Vec<Vec<[i64; 3]>> = Vec::with_capacity(n_lines);
    let mut t = 0usize;
    for li in 0..n_lines {
        let tail = lengths[li] as usize - 1;
        let mut line = Vec::with_capacity(tail + 1);
        let mut p = [heads_c1[li], heads_c2[li], 0];
        line.push(p);
        for (&d1, &d2) in tails_c1[t..t + tail].iter().zip(&tails_c2[t..t + tail]) {
            p = [p[0] + d1, p[1] + d2, 0];
            line.push(p);
        }
        t += tail;
        lines.push(line);
    }

    if cfg.radial {
        let streams = super::radial::RadialStreams {
            head_nabla: rc(r)?,
            tail_nabla: rc(r)?,
            refs: intseq::decompress_symbols_rc(r, cfg.lanes)?,
        };
        decode_radial(&mut lines, &streams, cfg.th_phi, cfg.th_r)?;
    } else {
        let heads_c3 = dbgc_codec::delta_decode(&rc(r)?);
        let tails_c3 = rc(r)?;
        if heads_c3.len() != n_lines || tails_c3.len() != total_tail {
            return Err(CodecError::CorruptStream("channel-3 frame count mismatch"));
        }
        let mut t = 0usize;
        for (li, line) in lines.iter_mut().enumerate() {
            line[0][2] = heads_c3[li];
            for k in 1..line.len() {
                line[k][2] = line[k - 1][2] + tails_c3[t];
                t += 1;
            }
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn cfg(radial: bool) -> GroupCodecConfig {
        GroupCodecConfig { radial, lanes: 1, th_phi: 4, th_r: 50 }
    }

    fn wide_cfg(radial: bool) -> GroupCodecConfig {
        GroupCodecConfig { lanes: 4, ..cfg(radial) }
    }

    fn roundtrip(lines: &[Vec<[i64; 3]>], c: &GroupCodecConfig) -> usize {
        let mut out = Vec::new();
        encode_group(&mut out, lines, c);
        let mut r = ByteReader::new(&out);
        let back = decode_group(&mut r, c).unwrap();
        assert_eq!(back, lines);
        assert!(r.is_empty(), "stream fully consumed");
        out.len()
    }

    fn ring_lines(n_lines: usize, len: usize, seed: u64) -> Vec<Vec<[i64; 3]>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n_lines)
            .map(|li| {
                let mut theta = rng.gen_range(0..20);
                (0..len)
                    .map(|_| {
                        theta += rng.gen_range(8..12);
                        [theta, li as i64 * 3 + rng.gen_range(0..2), 500 + rng.gen_range(-3..3)]
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn roundtrip_radial_and_plain() {
        let lines = ring_lines(25, 40, 100);
        roundtrip(&lines, &cfg(true));
        roundtrip(&lines, &cfg(false));
    }

    #[test]
    fn empty_group() {
        roundtrip(&[], &cfg(true));
        roundtrip(&[], &cfg(false));
    }

    #[test]
    fn single_point_lines() {
        let lines: Vec<Vec<[i64; 3]>> = (0..10).map(|i| vec![[i * 7, i, 100 + i]]).collect();
        roundtrip(&lines, &cfg(true));
        roundtrip(&lines, &cfg(false));
    }

    #[test]
    fn regular_rings_compress_tightly() {
        // Perfectly regular rings: after delta everything is constant.
        let lines: Vec<Vec<[i64; 3]>> =
            (0..20).map(|li| (0..100).map(|k| [k * 9, li * 3, 700]).collect()).collect();
        let size = roundtrip(&lines, &cfg(true));
        let points = 20 * 100;
        assert!(
            size < points, // < 1 byte per 3D point
            "regular rings should cost under a byte per point, got {size} for {points}"
        );
    }

    #[test]
    fn radial_beats_plain_delta_on_edges() {
        // Rings crossing object edges at aligned θ positions — the scenario
        // the radial-distance-optimized encoding is built for. Compare whole
        // encoded groups: the five channel-1/2 frames do not depend on
        // `radial`, so only channel 3 separates the sizes.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        // Object ranges vary per line (a leaning wall), so the jump sizes
        // are not constant and plain delta cannot learn them cheaply.
        let lines: Vec<Vec<[i64; 3]>> = (0..60)
            .map(|li| {
                let object_r = 300 + li * 7 + rng.gen_range(-5..5);
                let ground_r = 2000 + li * 11;
                (0..200)
                    .map(|k| {
                        let r = if (30..55).contains(&k) || (120..160).contains(&k) {
                            object_r
                        } else {
                            ground_r
                        };
                        [k * 9, li * 3, r + rng.gen_range(-2..3)]
                    })
                    .collect()
            })
            .collect();
        let radial = roundtrip(&lines, &cfg(true));
        let plain = roundtrip(&lines, &cfg(false));
        assert!(radial < plain, "radial {radial} should beat plain {plain}");
    }

    #[test]
    fn reused_scratch_is_byte_identical() {
        // A dirty scratch (capacity and stale contents from prior groups)
        // must not leak into the stream.
        let mut scratch = ScratchBuffers::default();
        let warmup = ring_lines(40, 60, 7);
        let mut sink = Vec::new();
        encode_group_to_buf(&mut sink, &warmup, &cfg(true), &mut scratch);
        for c in [cfg(true), cfg(false)] {
            for lines in [ring_lines(25, 40, 100), ring_lines(3, 5, 2), Vec::new()] {
                let mut fresh = Vec::new();
                encode_group(&mut fresh, &lines, &c);
                let mut reused = Vec::new();
                encode_group_to_buf(&mut reused, &lines, &c, &mut scratch);
                assert_eq!(fresh, reused, "scratch reuse changed the bytes");
            }
        }
    }

    #[test]
    fn wide_profile_roundtrip_radial_and_plain() {
        let lines = ring_lines(25, 40, 100);
        roundtrip(&lines, &wide_cfg(true));
        roundtrip(&lines, &wide_cfg(false));
        roundtrip(&[], &wide_cfg(true));
    }

    #[test]
    fn wide_profile_changes_framing_not_reconstruction() {
        // Same lines through both profiles: different bytes (lane framing),
        // same decoded polylines, and a size gap bounded by the per-frame
        // lane overhead (three flush tails + lane header per rc frame).
        let lines = ring_lines(30, 50, 200);
        for radial in [true, false] {
            let mut narrow = Vec::new();
            encode_group(&mut narrow, &lines, &cfg(radial));
            let mut wide = Vec::new();
            encode_group(&mut wide, &lines, &wide_cfg(radial));
            assert_ne!(narrow, wide, "profiles must frame differently");
            let rc_frames = if radial { 6 } else { 5 };
            assert!(
                wide.len() <= narrow.len() + rc_frames * 32,
                "wide {} vs narrow {}",
                wide.len(),
                narrow.len()
            );
            let mut r = ByteReader::new(&wide);
            assert_eq!(decode_group(&mut r, &wide_cfg(radial)).unwrap(), lines);
        }
    }

    #[test]
    fn wide_profile_truncation_is_error() {
        let lines = ring_lines(5, 10, 101);
        let mut out = Vec::new();
        encode_group(&mut out, &lines, &wide_cfg(true));
        for cut in [0, 5, out.len() / 2, out.len() - 3] {
            let mut r = ByteReader::new(&out[..cut]);
            assert!(decode_group(&mut r, &wide_cfg(true)).is_err(), "cut {cut}");
        }
        // Cross-profile decode must reject or mis-frame, never panic.
        let mut r = ByteReader::new(&out);
        let _ = decode_group(&mut r, &cfg(true));
    }

    #[test]
    fn negative_coordinates_roundtrip() {
        let lines: Vec<Vec<[i64; 3]>> =
            (0..5).map(|li| (0..20).map(|k| [k * 3 - 1000, -li * 2, -500 + k]).collect()).collect();
        roundtrip(&lines, &cfg(true));
    }

    #[test]
    fn truncated_stream_is_error() {
        let lines = ring_lines(5, 10, 101);
        let mut out = Vec::new();
        encode_group(&mut out, &lines, &cfg(true));
        for cut in [0, 5, out.len() / 2] {
            let mut r = ByteReader::new(&out[..cut]);
            assert!(decode_group(&mut r, &cfg(true)).is_err(), "cut {cut}");
        }
    }
}
