//! The query sink: one walk of a frame's sections that keeps only the
//! points a query matches.
//!
//! An indexed frame takes its section spans and a [`Verdict`] per section
//! from its validated directory: a `Skip`ped section's bytes are never read,
//! a `Take`n section keeps every point, and a `Test`ed one filters each
//! point with [`Query::matches`]. Each section decodes on its own (the
//! entropy coder starts afresh per section), and is cross-checked against
//! the directory: its exact point count and, for the dense section, its
//! octree depth. A disagreement ends the walk with an error, and the store
//! then walks the frame again without the index, every section at `Test`:
//! the full-decode fallback, which filters as it decodes.

use dbgc::index::SpatialDirectory;
use dbgc::layout::{PointSink, Section};
use dbgc::{DbgcError, StreamHeader};
use dbgc_geom::Point3;

use crate::oracle::AnnotatedPoint;
use crate::plan::{plan, SectionMeta, Verdict};
use crate::query::{DensityClass, Query};
use crate::store::{ArchivedFrame, PointRecord};
use crate::StoreError;

/// Check that a parsed directory actually describes `body`: the layout
/// invariants below hold for every stream the encoder emits, so any
/// violation means the index does not belong to this body.
pub(crate) fn validate_directory(
    dir: &SpatialDirectory,
    header: &StreamHeader,
    body_len: usize,
) -> Result<(), StoreError> {
    if dir.header_len != header.header_len {
        return Err(StoreError::IndexMismatch("header length disagrees"));
    }
    if dir.points != header.declared_points {
        return Err(StoreError::IndexMismatch("point count disagrees with header"));
    }
    if dir.groups.len() != header.n_groups {
        return Err(StoreError::IndexMismatch("group count disagrees with header"));
    }
    // Sections tile the body exactly: dense starts right after the header,
    // each section starts where the previous one ended, and the outlier
    // section ends at the body's end.
    if dir.dense.offset != header.header_len {
        return Err(StoreError::IndexMismatch("dense section misplaced"));
    }
    let mut cursor = dir.dense.offset + dir.dense.len;
    for g in &dir.groups {
        if g.section.offset != cursor {
            return Err(StoreError::IndexMismatch("group sections not contiguous"));
        }
        cursor += g.section.len;
    }
    if dir.outlier.offset != cursor || dir.outlier.offset + dir.outlier.len != body_len {
        return Err(StoreError::IndexMismatch("outlier section misplaced"));
    }
    let recorded: usize = [dir.dense.points, dir.outlier.points]
        .into_iter()
        .chain(dir.groups.iter().map(|g| g.section.points))
        .sum();
    if recorded != dir.points {
        return Err(StoreError::IndexMismatch("section point counts do not sum"));
    }
    Ok(())
}

/// Appends the points of one frame that a query matches to `out`, in
/// stream order.
pub(crate) struct QuerySink<'a> {
    query: &'a Query,
    frame: &'a ArchivedFrame,
    /// The frame's validated directory; `None` decodes every section.
    dir: Option<&'a SpatialDirectory>,
    out: &'a mut Vec<PointRecord>,
    verdict: Verdict,
    /// The open section's point count, as the directory records it.
    expected: usize,
    /// Bytes of the sections decoded.
    pub section_bytes: u64,
    /// Sections decoded (verdict `Take` or `Test`).
    pub sections_decoded: usize,
    /// Sections skipped outright.
    pub sections_skipped: usize,
}

impl<'a> QuerySink<'a> {
    pub(crate) fn new(
        query: &'a Query,
        frame: &'a ArchivedFrame,
        dir: Option<&'a SpatialDirectory>,
        out: &'a mut Vec<PointRecord>,
    ) -> QuerySink<'a> {
        QuerySink {
            query,
            frame,
            dir,
            out,
            verdict: Verdict::Test,
            expected: 0,
            section_bytes: 0,
            sections_decoded: 0,
            sections_skipped: 0,
        }
    }
}

impl PointSink for QuerySink<'_> {
    fn open(&mut self, section: Section, left: usize) -> Option<usize> {
        let Some(dir) = self.dir else { return Some(left) };
        let (entry, r_interval) = match section {
            Section::Dense => (&dir.dense, None),
            Section::Group(g) => {
                (&dir.groups[g].section, Some((dir.groups[g].r_min, dir.groups[g].r_max)))
            }
            Section::Outlier => (&dir.outlier, None),
        };
        let meta = SectionMeta {
            aabb: entry.aabb,
            empty: entry.points == 0,
            class: Some(DensityClass::of(section)),
            lod_depth: Some(if section == Section::Dense { dir.dense_depth } else { 0 }),
            time_us: Some(self.frame.time_us),
            r_interval,
        };
        self.verdict = plan(self.query, &meta);
        if self.verdict == Verdict::Skip {
            self.sections_skipped += 1;
            return None;
        }
        self.sections_decoded += 1;
        self.section_bytes += entry.len as u64;
        self.expected = entry.points;
        Some(entry.points)
    }

    fn check(&mut self, section: Section, points: usize, depth: u32) -> Result<(), DbgcError> {
        match self.dir {
            Some(dir)
                if points != self.expected
                    || (section == Section::Dense && depth != dir.dense_depth) =>
            {
                Err(DbgcError::BadHeader("section disagrees with the index"))
            }
            _ => Ok(()),
        }
    }

    fn push(&mut self, pos: Point3, section: Section, depth: u32) {
        let point = AnnotatedPoint::new(pos, section, depth);
        if self.verdict == Verdict::Take || self.query.matches(&point, self.frame.time_us) {
            let (frame_id, time_us) = (self.frame.id, self.frame.time_us);
            self.out.push(PointRecord { frame_id, time_us, point });
        }
    }
}
