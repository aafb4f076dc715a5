//! The spatial directory: a versioned, CRC-guarded index trailer appended
//! after the stream body so archives can answer spatial queries without
//! decompressing everything.
//!
//! ## Trailer layout (tail-anchored)
//!
//! ```text
//! stream body | payload | u32le crc32(payload) | u32le payload_len |
//! u8 index_version | "DIDX"
//! ```
//!
//! Anchoring the frame at the *tail* lets decoders that know nothing about
//! indexes strip it with a constant-time suffix check: [`split_index_trailer`]
//! runs before any sequential decode, and only a CRC-valid trailer is
//! skipped, so a genuine version-1 stream that happens to end in `DIDX` is
//! (up to a 2⁻³² CRC coincidence) still decoded whole. Streams without the
//! magic are untouched — golden vectors stay byte-identical.
//!
//! ## Directory payload
//!
//! The payload serializes a [`SpatialDirectory`]: per-section byte spans,
//! point counts, conservative AABBs of the *decoded* points, the dense
//! octree depth, and per-group radial intervals. Every bound is computed at
//! encode time from the exact values the decoder will reconstruct, so a
//! query planner pruning on them can never drop a matching point.

use dbgc_codec::crc32::crc32;
use dbgc_codec::varint::{write_f64, write_uvarint, ByteReader};
use dbgc_geom::{Aabb, Point3};

use crate::{DbgcError, SectionSpans};

/// Version of the directory payload format.
pub const INDEX_VERSION: u8 = 1;

/// Trailer magic, last four bytes of an indexed stream.
pub const INDEX_MAGIC: [u8; 4] = *b"DIDX";

/// Fixed trailer overhead beyond the payload: crc (4) + len (4) +
/// version (1) + magic (4).
const TRAILER_FIXED: usize = 13;

// ---------------------------------------------------------------------------
// Directory model
// ---------------------------------------------------------------------------

/// Index record for one byte-addressable stream section.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionEntry {
    /// Byte offset of the section within the stream body.
    pub offset: usize,
    /// Section length in bytes.
    pub len: usize,
    /// Number of points the section decodes to.
    pub points: usize,
    /// Conservative AABB of the section's decoded points (`None` when the
    /// section is empty).
    pub aabb: Option<Aabb>,
}

/// Index record for one sparse polyline group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupEntry {
    /// Byte span, point count and decoded-point bounds.
    pub section: SectionEntry,
    /// Minimum distance-from-origin over the group's decoded points
    /// (`f64::INFINITY` for an empty group).
    pub r_min: f64,
    /// Maximum distance-from-origin over the group's decoded points
    /// (`0.0` for an empty group).
    pub r_max: f64,
}

/// The spatial directory of one compressed frame.
///
/// Emitted by the encoder when
/// [`spatial_index`](crate::DbgcConfig::spatial_index) is on; carried in the
/// stream's tail trailer and used by `dbgc-store` to plan partial decodes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialDirectory {
    /// Total point count of the frame.
    pub points: usize,
    /// Header length in bytes (sections start here).
    pub header_len: usize,
    /// The dense octree section.
    pub dense: SectionEntry,
    /// Octree depth of the dense section (its LOD depth; 0 when empty).
    pub dense_depth: u32,
    /// One entry per sparse group, in stream order.
    pub groups: Vec<GroupEntry>,
    /// The outlier section.
    pub outlier: SectionEntry,
}

impl SpatialDirectory {
    /// Union of the per-section AABBs: conservative bounds of every decoded
    /// point of the frame (`None` for an empty frame).
    pub fn frame_aabb(&self) -> Option<Aabb> {
        let mut acc: Option<Aabb> = None;
        let mut fold = |bb: &Option<Aabb>| {
            if let Some(bb) = bb {
                acc = Some(match acc {
                    Some(a) => a.union(*bb),
                    None => *bb,
                });
            }
        };
        fold(&self.dense.aabb);
        for g in &self.groups {
            fold(&g.section.aabb);
        }
        fold(&self.outlier.aabb);
        acc
    }

    /// The byte spans of the body's sections, as the directory records them.
    pub fn spans(&self) -> SectionSpans {
        let span = |e: &SectionEntry| e.offset..e.offset + e.len;
        SectionSpans {
            dense: span(&self.dense),
            groups: self.groups.iter().map(|g| span(&g.section)).collect(),
            outlier: span(&self.outlier),
        }
    }

    /// Serialize the directory payload (without the trailer frame).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(INDEX_VERSION);
        write_uvarint(&mut out, self.points as u64);
        write_uvarint(&mut out, self.header_len as u64);
        write_section(&mut out, &self.dense);
        write_uvarint(&mut out, self.dense_depth as u64);
        write_uvarint(&mut out, self.groups.len() as u64);
        for g in &self.groups {
            write_section(&mut out, &g.section);
            write_f64(&mut out, g.r_min);
            write_f64(&mut out, g.r_max);
        }
        write_section(&mut out, &self.outlier);
        out
    }

    /// Parse a directory payload, validating every field against the stream
    /// body it claims to describe (`body_len` bytes).
    ///
    /// Hardened: offsets and lengths must lie within the body, point counts
    /// within the body's decode budget, group count within the body's
    /// framing minimum, and all floats finite — so a hostile payload cannot
    /// drive overallocation or out-of-range seeks downstream.
    pub fn parse(payload: &[u8], body_len: usize) -> Result<SpatialDirectory, DbgcError> {
        let mut r = ByteReader::new(payload);
        let version = r.read_u8().map_err(|_| DbgcError::BadHeader("missing index version"))?;
        if version != INDEX_VERSION {
            return Err(DbgcError::BadHeader("unsupported index version"));
        }
        let budget = crate::layout::point_budget(body_len);
        let points = read_count(&mut r, budget, "index point count")?;
        let header_len = read_count(&mut r, body_len, "index header length")?;
        let dense = read_section(&mut r, body_len, budget)?;
        let dense_depth = read_count(&mut r, 64, "index dense depth")? as u32;
        let n_groups = read_count(&mut r, body_len / 8, "index group count")?;
        let mut groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let section = read_section(&mut r, body_len, budget)?;
            let r_min = r.read_f64().map_err(DbgcError::from)?;
            let r_max = r.read_f64().map_err(DbgcError::from)?;
            // Empty groups carry the (+inf, 0) identity interval; non-empty
            // ones must be an ordered, finite, non-negative interval.
            let empty_interval = r_min == f64::INFINITY && r_max == 0.0;
            let valid_interval =
                r_min.is_finite() && r_max.is_finite() && r_min >= 0.0 && r_min <= r_max;
            if !empty_interval && !valid_interval {
                return Err(DbgcError::BadHeader("invalid index radial interval"));
            }
            groups.push(GroupEntry { section, r_min, r_max });
        }
        let outlier = read_section(&mut r, body_len, budget)?;
        if !r.is_empty() {
            return Err(DbgcError::BadHeader("trailing bytes in index payload"));
        }
        Ok(SpatialDirectory { points, header_len, dense, dense_depth, groups, outlier })
    }
}

fn write_section(out: &mut Vec<u8>, s: &SectionEntry) {
    write_uvarint(out, s.offset as u64);
    write_uvarint(out, s.len as u64);
    write_uvarint(out, s.points as u64);
    match &s.aabb {
        Some(bb) => {
            out.push(1);
            for v in [bb.min.x, bb.min.y, bb.min.z, bb.max.x, bb.max.y, bb.max.z] {
                write_f64(out, v);
            }
        }
        None => out.push(0),
    }
}

fn read_count(r: &mut ByteReader<'_>, max: usize, what: &'static str) -> Result<usize, DbgcError> {
    let v = r.read_uvarint().map_err(DbgcError::from)?;
    if v > max as u64 {
        return Err(DbgcError::BadHeader(what));
    }
    Ok(v as usize)
}

fn read_section(
    r: &mut ByteReader<'_>,
    body_len: usize,
    budget: usize,
) -> Result<SectionEntry, DbgcError> {
    let offset = read_count(r, body_len, "index section offset")?;
    let len = read_count(r, body_len, "index section length")?;
    if offset + len > body_len {
        return Err(DbgcError::BadHeader("index section out of bounds"));
    }
    let points = read_count(r, budget, "index section point count")?;
    let aabb = match r.read_u8().map_err(DbgcError::from)? {
        0 => None,
        1 => {
            let mut v = [0.0f64; 6];
            for slot in &mut v {
                *slot = r.read_f64().map_err(DbgcError::from)?;
                if !slot.is_finite() {
                    return Err(DbgcError::BadHeader("non-finite index AABB"));
                }
            }
            let bb =
                Aabb { min: Point3::new(v[0], v[1], v[2]), max: Point3::new(v[3], v[4], v[5]) };
            if bb.min.x > bb.max.x || bb.min.y > bb.max.y || bb.min.z > bb.max.z {
                return Err(DbgcError::BadHeader("inverted index AABB"));
            }
            Some(bb)
        }
        _ => return Err(DbgcError::BadHeader("bad index AABB tag")),
    };
    Ok(SectionEntry { offset, len, points, aabb })
}

// ---------------------------------------------------------------------------
// Trailer framing
// ---------------------------------------------------------------------------

/// Append a directory payload to `stream` as a tail-anchored trailer.
pub fn append_index_trailer(stream: &mut Vec<u8>, payload: &[u8]) {
    stream.extend_from_slice(payload);
    stream.extend_from_slice(&crc32(payload).to_le_bytes());
    stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    stream.push(INDEX_VERSION);
    stream.extend_from_slice(&INDEX_MAGIC);
}

/// Outcome of splitting a byte string into stream body and index trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexTrailer<'a> {
    /// No structurally-framed trailer is present; the whole input is body.
    None,
    /// A trailer with a valid CRC; `payload` is the directory bytes.
    Valid {
        /// The stream body preceding the trailer.
        body: &'a [u8],
        /// The serialized directory payload.
        payload: &'a [u8],
    },
    /// The tail is framed like a trailer (magic + plausible length) but its
    /// CRC does not match: the payload is unusable, but the body boundary is
    /// still known, so callers can fall back to a full decode of `body`.
    Corrupt {
        /// The stream body preceding the corrupt trailer.
        body: &'a [u8],
    },
}

/// Split `bytes` into stream body and (optional) index trailer.
///
/// Structural framing first: the tail must end in [`INDEX_MAGIC`] and carry
/// a payload length that fits. Then the CRC decides between
/// [`IndexTrailer::Valid`] and [`IndexTrailer::Corrupt`]. Inputs without the
/// framing are [`IndexTrailer::None`] — including genuine index-less streams,
/// which therefore decode exactly as before.
pub fn split_index_trailer(bytes: &[u8]) -> IndexTrailer<'_> {
    let n = bytes.len();
    if n < TRAILER_FIXED || bytes[n - 4..] != INDEX_MAGIC {
        return IndexTrailer::None;
    }
    let payload_len = u32::from_le_bytes(bytes[n - 9..n - 5].try_into().expect("4 bytes")) as usize;
    let Some(body_len) = n.checked_sub(TRAILER_FIXED + payload_len) else {
        return IndexTrailer::None;
    };
    let body = &bytes[..body_len];
    let payload = &bytes[body_len..body_len + payload_len];
    let stored_crc = u32::from_le_bytes(bytes[n - 13..n - 9].try_into().expect("4 bytes"));
    if crc32(payload) == stored_crc {
        IndexTrailer::Valid { body, payload }
    } else {
        IndexTrailer::Corrupt { body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dir() -> SpatialDirectory {
        let bb = Aabb { min: Point3::new(-1.0, -2.0, -3.0), max: Point3::new(4.0, 5.0, 6.0) };
        SpatialDirectory {
            points: 1234,
            header_len: 44,
            dense: SectionEntry { offset: 44, len: 100, points: 1000, aabb: Some(bb) },
            dense_depth: 11,
            groups: vec![
                GroupEntry {
                    section: SectionEntry { offset: 144, len: 50, points: 200, aabb: Some(bb) },
                    r_min: 3.0,
                    r_max: 40.0,
                },
                GroupEntry {
                    section: SectionEntry { offset: 194, len: 10, points: 0, aabb: None },
                    r_min: f64::INFINITY,
                    r_max: 0.0,
                },
            ],
            outlier: SectionEntry { offset: 204, len: 30, points: 34, aabb: Some(bb) },
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Wire frames fold their fields in piece by piece: a split message
        // must check exactly as the whole one.
        let head = dbgc_codec::crc32::crc32_update(0xFFFF_FFFF, b"1234");
        assert_eq!(!dbgc_codec::crc32::crc32_update(head, b"56789"), 0xCBF4_3926);
    }

    #[test]
    fn directory_roundtrips() {
        let dir = sample_dir();
        let payload = dir.serialize();
        let back = SpatialDirectory::parse(&payload, 234).unwrap();
        assert_eq!(back, dir);
    }

    #[test]
    fn trailer_roundtrips() {
        let dir = sample_dir();
        let mut stream = b"somebodybytes".to_vec();
        append_index_trailer(&mut stream, &dir.serialize());
        match split_index_trailer(&stream) {
            IndexTrailer::Valid { body, payload } => {
                assert_eq!(body, b"somebodybytes");
                assert_eq!(SpatialDirectory::parse(payload, 234).unwrap(), dir);
            }
            other => panic!("expected valid trailer, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_payload_detected_with_body_recovered() {
        let dir = sample_dir();
        let mut stream = b"body".to_vec();
        append_index_trailer(&mut stream, &dir.serialize());
        let payload_start = 4;
        stream[payload_start + 3] ^= 0x40;
        match split_index_trailer(&stream) {
            IndexTrailer::Corrupt { body } => assert_eq!(body, b"body"),
            other => panic!("expected corrupt trailer, got {other:?}"),
        }
    }

    #[test]
    fn plain_streams_split_to_none() {
        assert_eq!(split_index_trailer(b""), IndexTrailer::None);
        assert_eq!(split_index_trailer(b"DBGC plain stream bytes"), IndexTrailer::None);
        // Ends with the magic but has no room for a frame.
        assert_eq!(split_index_trailer(b"DIDX"), IndexTrailer::None);
        // Framed magic with an impossible length.
        let mut tail = vec![0u8; 9];
        tail[..4].copy_from_slice(&u32::MAX.to_le_bytes()); // crc slot
        tail[4..8].copy_from_slice(&u32::MAX.to_le_bytes()); // len slot
        tail[8] = INDEX_VERSION;
        tail.extend_from_slice(&INDEX_MAGIC);
        assert_eq!(split_index_trailer(&tail), IndexTrailer::None);
    }

    #[test]
    fn hostile_payloads_are_rejected_not_oom() {
        // Huge counts must fail the budget checks before any allocation.
        let mut payload = vec![INDEX_VERSION];
        dbgc_codec::varint::write_uvarint(&mut payload, u64::MAX >> 1);
        assert!(SpatialDirectory::parse(&payload, 1000).is_err());
        // Arbitrary bytes: error, never panic.
        for seed in 0u8..64 {
            let junk: Vec<u8> = (0..97).map(|i| seed.wrapping_mul(31).wrapping_add(i)).collect();
            let _ = SpatialDirectory::parse(&junk, 4096);
        }
    }

    #[test]
    fn out_of_bounds_section_rejected() {
        let mut dir = sample_dir();
        dir.dense.offset = 200;
        dir.dense.len = 200;
        let payload = dir.serialize();
        assert!(SpatialDirectory::parse(&payload, 234).is_err());
    }

    #[test]
    fn frame_aabb_unions_sections() {
        let dir = sample_dir();
        let bb = dir.frame_aabb().unwrap();
        assert_eq!(bb.min, Point3::new(-1.0, -2.0, -3.0));
        assert_eq!(bb.max, Point3::new(4.0, 5.0, 6.0));
    }
}
