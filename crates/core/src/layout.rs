//! Structural stream layout: header parsing, section spans, and
//! section-granular decode helpers.
//!
//! The decompressor consumes a stream sequentially, but every section is
//! independently decodable given its byte span: the dense octree section is
//! length-prefixed, each sparse group starts with its `r_max` and contains
//! only self-delimiting frames, and the outlier section is tagged and
//! self-delimiting. This module exposes that structure so partial decoders
//! (see the `dbgc-store` crate) can seek straight to the sections a query
//! needs, re-initialising entropy-coder state per section, while
//! [`decompress`](crate::decompress()) reuses the same helpers for its
//! sequential walk — one implementation, byte-identical results.

use std::ops::Range;

use dbgc_codec::varint::{write_f64, write_uvarint, ByteReader};
use dbgc_geom::quant::SphericalQuant;
use dbgc_geom::{Point3, PointCloud};
use dbgc_octree::{OctreeCodec, OctreeDecodeResult};

use crate::outlier::decode_outliers;
use crate::sparse::codec::{decode_group_with_limit, GroupCodecConfig};
use crate::{DbgcConfig, DbgcError, EntropyProfile};

/// Farthest a point may lie from the origin, in metres. The encoder refuses
/// clouds with a point beyond it, and the decoder refuses a group `r_max`
/// beyond it, so every stream `compress` returns decodes.
pub const MAX_RANGE: f64 = 1e12;

/// Stream magic; the version byte after it names the [`EntropyProfile`].
const MAGIC: [u8; 4] = *b"DBGC";
const FLAG_SPHERICAL: u8 = 0b01;
const FLAG_RADIAL: u8 = 0b10;

/// Parsed and validated stream header fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamHeader {
    /// Entropy profile named by the stream's version byte (1, 2 or 3): the
    /// lane counts of every section.
    pub profile: EntropyProfile,
    /// Per-axis Cartesian error bound the stream was encoded with.
    pub q_xyz: f64,
    /// Sensor azimuthal spacing `u_θ`.
    pub u_theta: f64,
    /// Sensor polar spacing `u_φ`.
    pub u_phi: f64,
    /// Radial threshold `TH_r` in metres.
    pub th_r: f64,
    /// Sparse channels are spherical (vs the −Conversion ablation).
    pub spherical: bool,
    /// Radial-distance-optimized channel-3 encoding in use.
    pub radial: bool,
    /// Number of sparse groups.
    pub n_groups: usize,
    /// Total point count declared by the header.
    pub declared_points: usize,
    /// Bytes the header occupies; sections start at this offset.
    pub header_len: usize,
}

/// Append the header of a frame of `points` points in `n_groups` sparse
/// groups encoded under `cfg`, in the layout [`parse_header`] reads, and
/// return it as `parse_header` reads it back.
pub(crate) fn write_header(
    out: &mut Vec<u8>,
    cfg: &DbgcConfig,
    n_groups: usize,
    points: usize,
) -> StreamHeader {
    let start = out.len();
    let h = StreamHeader {
        profile: cfg.entropy_profile,
        q_xyz: cfg.q_xyz,
        u_theta: cfg.sensor.u_theta(),
        u_phi: cfg.sensor.u_phi(),
        th_r: cfg.th_r,
        spherical: cfg.spherical_conversion,
        radial: cfg.radial_optimized,
        n_groups,
        declared_points: points,
        header_len: 0,
    };
    out.extend_from_slice(&MAGIC);
    out.push(h.profile.version());
    for v in [h.q_xyz, h.u_theta, h.u_phi, h.th_r] {
        write_f64(out, v);
    }
    let mut flags = 0u8;
    if h.spherical {
        flags |= FLAG_SPHERICAL;
    }
    if h.radial {
        flags |= FLAG_RADIAL;
    }
    out.push(flags);
    write_uvarint(out, n_groups as u64);
    write_uvarint(out, points as u64);
    StreamHeader { header_len: out.len() - start, ..h }
}

/// Parse and validate the stream header of `body` (a stream with any index
/// trailer already stripped). Fails on exactly the malformed headers
/// [`decompress`](crate::decompress()) rejects.
pub fn parse_header(body: &[u8]) -> Result<StreamHeader, DbgcError> {
    let mut r = ByteReader::new(body);
    let magic = r.read_slice(4).map_err(|_| DbgcError::BadHeader("missing magic"))?;
    if magic != MAGIC {
        return Err(DbgcError::BadHeader("wrong magic"));
    }
    let version = r.read_u8().map_err(|_| DbgcError::BadHeader("missing version"))?;
    let profile =
        EntropyProfile::from_version(version).ok_or(DbgcError::BadHeader("unsupported version"))?;
    let q_xyz = r.read_f64().map_err(DbgcError::from)?;
    // The upper cap (a billion-kilometre error bound) keeps every derived
    // quantization step small enough that dequantized coordinates stay
    // finite for any i64 quantized value.
    if q_xyz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || q_xyz > 1e12 {
        return Err(DbgcError::BadHeader("invalid error bound"));
    }
    let u_theta = r.read_f64().map_err(DbgcError::from)?;
    let u_phi = r.read_f64().map_err(DbgcError::from)?;
    let th_r = r.read_f64().map_err(DbgcError::from)?;
    let flags = r.read_u8().map_err(DbgcError::from)?;
    let n_groups = r.read_uvarint().map_err(DbgcError::from)? as usize;
    let declared_points = r.read_uvarint().map_err(DbgcError::from)? as usize;
    // Every group carries at least its 8-byte r_max, and every point costs
    // coded payload, so both counts are bounded by the input size. The
    // absolute point ceiling is far above any real LiDAR frame.
    if n_groups > r.remaining() / 8 || declared_points > point_budget(body.len()) {
        return Err(DbgcError::BadHeader("implausible header counts"));
    }
    Ok(StreamHeader {
        profile,
        q_xyz,
        u_theta,
        u_phi,
        th_r,
        spherical: flags & FLAG_SPHERICAL != 0,
        radial: flags & FLAG_RADIAL != 0,
        n_groups,
        declared_points,
        header_len: r.position(),
    })
}

/// Decoded-point budget for a stream of `len` bytes.
///
/// Every coded point costs payload (range-coded symbols are bounded by
/// [`dbgc_codec::intseq`]'s entropy floor), so a generous per-byte ratio plus
/// an absolute ceiling rejects hostile headers without touching any stream a
/// real compressor can produce.
pub(crate) fn point_budget(len: usize) -> usize {
    len.saturating_mul(2048).min(dbgc_octree::DEFAULT_MAX_POINTS)
}

/// Byte ranges of the sections of one stream body, from a structural walk of
/// the framing (no point data is decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSpans {
    /// The dense octree section, including its length prefix.
    pub dense: Range<usize>,
    /// One span per sparse group, starting at the group's `r_max`.
    pub groups: Vec<Range<usize>>,
    /// The outlier section (mode tag through end of body).
    pub outlier: Range<usize>,
}

/// Walk the section framing of `body` and return each section's byte span.
///
/// Cheap (microseconds) even for large frames: only lengths are read. Fails
/// on framing a sequential decode would also reject.
pub fn section_spans(body: &[u8], h: &StreamHeader) -> Result<SectionSpans, DbgcError> {
    let mut r = ByteReader::new(&body[h.header_len.min(body.len())..]);
    let base = h.header_len;

    let dense_start = base;
    let dense_len = r.read_uvarint().map_err(DbgcError::from)? as usize;
    r.read_slice(dense_len).map_err(DbgcError::from)?;
    let dense = dense_start..base + r.position();

    // Sparse groups: r_max + frames. Frames are self-delimiting
    // (count | raw_len | coded_len | payload); skip by reading lengths.
    let frames_per_group = 5 + if h.radial { 3 } else { 2 };
    let mut groups = Vec::with_capacity(h.n_groups.min(body.len() / 8));
    for _ in 0..h.n_groups {
        let start = base + r.position();
        let _r_max = r.read_f64().map_err(DbgcError::from)?;
        for _ in 0..frames_per_group {
            let _count = r.read_uvarint().map_err(DbgcError::from)?;
            let _raw = r.read_uvarint().map_err(DbgcError::from)?;
            let coded = r.read_uvarint().map_err(DbgcError::from)? as usize;
            r.read_slice(coded).map_err(DbgcError::from)?;
        }
        groups.push(start..base + r.position());
    }
    let outlier = base + r.position()..body.len();
    Ok(SectionSpans { dense, groups, outlier })
}

/// Codec configuration and (in spherical mode) the quantizer for one group,
/// derived from the header and the group's `r_max` exactly as the sequential
/// decoder derives them.
pub fn group_codec_cfg(h: &StreamHeader, r_max: f64) -> (GroupCodecConfig, Option<SphericalQuant>) {
    let lanes = h.profile.sparse_lanes();
    if h.spherical {
        let sq = SphericalQuant::from_error_bound(h.q_xyz, r_max);
        (
            GroupCodecConfig {
                radial: h.radial,
                lanes,
                th_phi: (2.0 * h.u_phi / sq.angle_step()).round() as i64,
                th_r: (h.th_r / sq.r_step()).round() as i64,
            },
            Some(sq),
        )
    } else {
        (GroupCodecConfig { radial: false, lanes, th_phi: 1, th_r: 1 }, None)
    }
}

/// Read and validate one group's `r_max`.
pub fn read_group_r_max(r: &mut ByteReader<'_>) -> Result<f64, DbgcError> {
    let r_max = r.read_f64().map_err(DbgcError::from)?;
    if !r_max.is_finite() || !(0.0..=MAX_RANGE).contains(&r_max) {
        return Err(DbgcError::BadHeader("invalid group r_max"));
    }
    Ok(r_max)
}

/// The decoded position of one quantized sparse point: through the group's
/// spherical quantizer, or on the Cartesian grid of step `2·q_xyz` when
/// there is none. The encoder bounds its index entries with this function,
/// so those bounds hold for the decoded `f64` values bit for bit.
pub(crate) fn dequantize_point(q: [i64; 3], sq: Option<&SphericalQuant>, q_xyz: f64) -> Point3 {
    match sq {
        Some(sq) => sq.dequantize(q).to_cartesian(),
        None => {
            let step = 2.0 * q_xyz;
            Point3::new(q[0] as f64 * step, q[1] as f64 * step, q[2] as f64 * step)
        }
    }
}

/// Materialize decoded quantized polylines into Cartesian points, exactly as
/// the sequential decoder does (bit-identical `f64` results).
pub fn push_dequantized(
    lines: &[Vec<[i64; 3]>],
    sq: Option<&SphericalQuant>,
    q_xyz: f64,
    cloud: &mut PointCloud,
) {
    let Some(sq) = sq else {
        cloud.extend(lines.iter().flatten().map(|&q| dequantize_point(q, None, q_xyz)));
        return;
    };
    // Neighbouring points of a polyline mostly share their quantized φ, so
    // its sine and cosine are computed once per run of equal φ.
    let mut phi = None;
    let mut sin_cos_phi = (0.0, 1.0);
    for &q in lines.iter().flatten() {
        let s = sq.dequantize(q);
        if phi != Some(q[1]) {
            sin_cos_phi = s.phi.sin_cos();
            phi = Some(q[1]);
        }
        cloud.push(s.to_cartesian_with(sin_cos_phi));
    }
}

/// Decode the dense octree section from a reader positioned at its length
/// prefix. `max_points` bounds the decoded count (typed error beyond it).
pub fn read_dense(
    r: &mut ByteReader<'_>,
    h: &StreamHeader,
    max_points: usize,
) -> Result<OctreeDecodeResult, DbgcError> {
    let dense_len = r.read_uvarint().map_err(DbgcError::from)? as usize;
    let dense_bytes = r.read_slice(dense_len).map_err(DbgcError::from)?;
    Ok(OctreeCodec::baseline()
        .with_lanes(h.profile.dense_lanes())
        .decode_with_limit(dense_bytes, max_points)?)
}

/// Decode the dense section from its byte span (as reported by
/// [`section_spans`]), returning the points and the octree depth.
///
/// The span must be exactly the section: trailing bytes are rejected, so a
/// directory pointing mid-stream cannot silently mis-frame the decode.
pub fn decode_dense_span(
    span: &[u8],
    h: &StreamHeader,
    max_points: usize,
) -> Result<(Vec<Point3>, u32), DbgcError> {
    let mut r = ByteReader::new(span);
    let res = read_dense(&mut r, h, max_points)?;
    if !r.is_empty() {
        return Err(DbgcError::BadHeader("trailing bytes after dense section"));
    }
    Ok((res.points, res.depth))
}

/// Decode one sparse group from its byte span (starting at `r_max`),
/// materialized to Cartesian points. Entropy-coder state is initialized
/// fresh from the span, so groups decode independently of one another.
pub fn decode_group_span(
    span: &[u8],
    h: &StreamHeader,
    max_points: usize,
) -> Result<Vec<Point3>, DbgcError> {
    let mut r = ByteReader::new(span);
    let r_max = read_group_r_max(&mut r)?;
    let (cfg, sq) = group_codec_cfg(h, r_max);
    let lines = decode_group_with_limit(&mut r, &cfg, max_points)?;
    if !r.is_empty() {
        return Err(DbgcError::BadHeader("trailing bytes after group section"));
    }
    let mut cloud = PointCloud::new();
    push_dequantized(&lines, sq.as_ref(), h.q_xyz, &mut cloud);
    Ok(cloud.into_points())
}

/// Decode the outlier section from its byte span.
pub fn decode_outlier_span(
    span: &[u8],
    h: &StreamHeader,
    max_points: usize,
) -> Result<Vec<Point3>, DbgcError> {
    let mut r = ByteReader::new(span);
    let pts = decode_outliers(&mut r, h.q_xyz, max_points)?;
    if !r.is_empty() {
        return Err(DbgcError::BadHeader("trailing bytes after outlier section"));
    }
    Ok(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reusing sin/cos of φ across a run of equal quantized φ gives every
    /// point the bits the per-point conversion gives it.
    #[test]
    fn dequantized_lines_match_per_point_conversion() {
        let sq = SphericalQuant::from_error_bound(0.02, 80.0);
        let lines: Vec<Vec<[i64; 3]>> = (0..12)
            .map(|li| {
                (0..40)
                    .map(|k| [k * 37 - 700, 3_000 + li * 5 + i64::from(k % 7 == 0), 900 + k])
                    .collect()
            })
            .collect();
        let mut cloud = PointCloud::new();
        push_dequantized(&lines, Some(&sq), 0.02, &mut cloud);
        let bits = |p: &Point3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
        let want: Vec<_> =
            lines.iter().flatten().map(|&q| bits(&dequantize_point(q, Some(&sq), 0.02))).collect();
        assert_eq!(cloud.iter().map(bits).collect::<Vec<_>>(), want);
    }

    #[test]
    fn header_writer_is_the_parsers_inverse() {
        for profile in [EntropyProfile::Narrow, EntropyProfile::Dual, EntropyProfile::Wide] {
            for (spherical, radial) in [(true, true), (true, false), (false, true), (false, false)]
            {
                let mut cfg = DbgcConfig::with_error_bound(0.02);
                cfg.entropy_profile = profile;
                cfg.spherical_conversion = spherical;
                cfg.radial_optimized = radial;
                let mut out = Vec::new();
                let written = write_header(&mut out, &cfg, 3, 1000);
                assert_eq!(written.header_len, out.len());
                out.resize(out.len() + 3 * 8, 0); // room for three groups' r_max
                assert_eq!(parse_header(&out).expect("parse"), written);
            }
        }
    }
}
