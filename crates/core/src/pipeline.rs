//! The DBGC compressor: clustering → octree → conversion → grouping →
//! organization → coordinate compression → outlier compression → layout
//! (paper §3, Fig. 2 client side).

use std::time::Instant;

use dbgc_clustering::{approx_cluster, cell_based_cluster, dbscan, DensitySplit};
use dbgc_codec::varint::{write_f64, write_uvarint};
use dbgc_geom::quant::{quantize, QuantParams, SphericalQuant};
use dbgc_geom::{Aabb, Point3, PointCloud, Spherical};
use dbgc_metrics::{Collector, Span};
use dbgc_octree::OctreeCodec;

use crate::config::{ClusteringAlgorithm, DbgcConfig, OutlierMode, SplitStrategy};
use crate::index::{append_index_trailer, GroupEntry, SectionEntry, SpatialDirectory};
use crate::layout::{dequantize_point, group_codec_cfg, write_header, StreamHeader};
use crate::outlier::encode_outliers;
use crate::sparse::codec::{encode_group_to_buf, ScratchBuffers};
use crate::sparse::organize::{organize_sparse_points_into, OrganizeScratch, Organized};
use crate::stats::{CompressionStats, SectionSizes, TimingBreakdown};
use crate::DbgcError;

/// Per-thread working memory for one group's ORG + SPA: codec scratch,
/// organizer scratch, the gathered per-group coordinate arrays, and the
/// quantized-line buffers (with a pool of spare line vectors recycled across
/// groups). Purely an allocation cache — the encoded bytes are identical for
/// any scratch state.
#[derive(Debug, Default)]
struct GroupScratch {
    codec: ScratchBuffers,
    org: OrganizeScratch,
    g_sph: Vec<Spherical>,
    g_cart: Vec<Point3>,
    lines_q: Vec<Vec<[i64; 3]>>,
    line_pool: Vec<Vec<[i64; 3]>>,
}

std::thread_local! {
    /// Per-thread group scratch: reused across groups and frames, both on
    /// the calling thread (serial mode) and on pool workers.
    static SCRATCH: std::cell::RefCell<GroupScratch> =
        std::cell::RefCell::new(GroupScratch::default());
}

/// How many interleaved range-coder lanes (`dbgc_codec::laned`) the
/// entropy-coded sections use. Models are updated in stream order for every
/// profile, so only the framing changes (a constant per-frame overhead),
/// never the decoded cloud; the header's version byte names the profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EntropyProfile {
    /// One lane everywhere: stream version 1.
    #[default]
    Narrow,
    /// Two-lane dense occupancy, one-lane sparse frames: stream version 2.
    Dual,
    /// Four lanes for the dense occupancy *and* every range-coded
    /// sparse/radial frame: stream version 3.
    Wide,
}

impl EntropyProfile {
    /// The profile table: `(version byte, dense occupancy lanes, sparse
    /// frame lanes)`. The header writer and parser and both section codecs
    /// read it; nothing else decides per profile.
    const fn spec(self) -> (u8, usize, usize) {
        match self {
            Self::Narrow => (1, 1, 1),
            Self::Dual => (2, 2, 1),
            Self::Wide => (3, 4, 4),
        }
    }

    /// The stream version byte this profile writes.
    pub(crate) const fn version(self) -> u8 {
        self.spec().0
    }

    /// Lanes coding the dense section's octree occupancy bytes.
    pub(crate) const fn dense_lanes(self) -> usize {
        self.spec().1
    }

    /// Lanes coding each range-coded sparse frame (steps 5, 7 and 8,
    /// `L_ref` included).
    pub(crate) const fn sparse_lanes(self) -> usize {
        self.spec().2
    }

    /// The profile a stream version byte names, if any.
    pub(crate) fn from_version(version: u8) -> Option<EntropyProfile> {
        [Self::Narrow, Self::Dual, Self::Wide].into_iter().find(|p| p.version() == version)
    }
}

/// A compressed frame: the bitstream plus encoder-side metadata.
#[derive(Debug, Clone)]
pub struct CompressedFrame {
    /// The bit sequence `B`.
    pub bytes: Vec<u8>,
    /// One-to-one mapping: `mapping[i]` is the index of input point `i` in
    /// the decompressed cloud (paper problem statement condition 2).
    pub mapping: Vec<usize>,
    /// Sizes, counts and timing breakdown.
    pub stats: CompressionStats,
    /// The spatial directory carried in the stream's index trailer
    /// (`Some` iff [`DbgcConfig::spatial_index`] was on).
    pub directory: Option<SpatialDirectory>,
}

impl CompressedFrame {
    /// Compression ratio against 12-byte raw points.
    pub fn compression_ratio(&self) -> f64 {
        self.stats.compression_ratio()
    }
}

/// Outcome of ORG + SPA on one radial group, produced on any thread and
/// consumed by the deterministic in-order post-pass.
///
/// Slots live in a per-thread arena ([`GROUP_ARENA`]) and are refilled in
/// place frame after frame, so a warm compressor encodes its groups without
/// per-group allocation.
#[derive(Default)]
struct GroupResult {
    /// The group's stream section: `r_max` (f64) + encoded group.
    bytes: Vec<u8>,
    /// Polylines and outliers, indices local to the group's point array.
    organized: Organized,
    /// Time this worker spent in organization. Worker times overlap under
    /// `threads > 1`; they are only used to split the fan-out's wall-clock
    /// interval between ORG and SPA pro rata.
    org: std::time::Duration,
    /// Time this worker spent in coordinate compression (see `org`).
    spa: std::time::Duration,
    /// Directory metadata over the group's *decoded* points (`Some` iff
    /// `spatial_index` is on): exact AABB and radial interval of the values
    /// the decoder will reconstruct, plus the decoded point count.
    meta: Option<GroupMeta>,
}

/// What every sparse group of one frame shares: the header the frame writes
/// (each group's codec configuration derives from it, as in the decoder),
/// the sparse points in both coordinate systems, and the stage span.
struct SparseFrame<'a> {
    header: StreamHeader,
    sph: &'a [Spherical],
    pts: &'a [Point3],
    span: Option<&'a Span>,
}

/// Decoded-point bounds of one sparse group, computed at encode time by
/// dequantizing the quantized polylines with the decoder's exact arithmetic.
#[derive(Debug, Clone, Copy, Default)]
struct GroupMeta {
    points: usize,
    aabb: Option<Aabb>,
    r_min: f64,
    r_max: f64,
}

std::thread_local! {
    /// Per-thread arena of group-result slots, reused across frames on the
    /// thread driving `compress` (workers fill the slots through disjoint
    /// `&mut` borrows handed out by the slot-reuse fan-out).
    static GROUP_ARENA: std::cell::RefCell<Vec<GroupResult>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Inflate an AABB by `d` on every axis (identity on `None`).
fn inflate(bb: Option<Aabb>, d: f64) -> Option<Aabb> {
    let pad = Point3::new(d, d, d);
    bb.map(|bb| Aabb { min: bb.min - pad, max: bb.max + pad })
}

/// Conservative AABB of the *decoded* outlier section.
///
/// Quadtree/octree modes reconstruct each coordinate within `q_xyz` of its
/// input, so the input AABB inflated by `q_xyz` bounds them. `None` mode
/// stores `f32` casts — bounded exactly by the AABB of the casted values.
fn outlier_aabb(points: &[Point3], q_xyz: f64, mode: OutlierMode) -> Option<Aabb> {
    match mode {
        OutlierMode::Quadtree | OutlierMode::Octree => inflate(Aabb::from_points(points), q_xyz),
        OutlierMode::None => {
            let cast: Vec<Point3> = points
                .iter()
                .map(|p| Point3::new(p.x as f32 as f64, p.y as f32 as f64, p.z as f32 as f64))
                .collect();
            Aabb::from_points(&cast)
        }
    }
}

/// The DBGC compressor.
#[derive(Debug, Clone, Default)]
pub struct Dbgc {
    /// The configuration every `compress` call uses.
    pub config: DbgcConfig,
}

impl Dbgc {
    /// A compressor with an explicit configuration.
    pub fn new(config: DbgcConfig) -> Dbgc {
        Dbgc { config }
    }

    /// Paper defaults at the given error bound.
    pub fn with_error_bound(q_xyz: f64) -> Dbgc {
        Dbgc::new(DbgcConfig::with_error_bound(q_xyz))
    }

    /// Compress a point cloud into a DBGC bitstream.
    pub fn compress(&self, cloud: &PointCloud) -> Result<CompressedFrame, DbgcError> {
        self.compress_impl(cloud, None)
    }

    /// [`compress`](Dbgc::compress), recording observability data into
    /// `collector`: a `compress` span with per-stage children (`den`, `oct`,
    /// `cor`, `sparse_groups` with per-group `org`/`spa` children finished on
    /// whichever pool worker ran them, `out`), per-substream byte accounting
    /// (`header`/`dense`/`sparse`/`outlier`, summing to the stream size),
    /// and frame/point counters. The bitstream is byte-identical to the
    /// uninstrumented path.
    pub fn compress_with_metrics(
        &self,
        cloud: &PointCloud,
        collector: &Collector,
    ) -> Result<CompressedFrame, DbgcError> {
        self.compress_impl(cloud, Some(collector))
    }

    fn compress_impl(
        &self,
        cloud: &PointCloud,
        m: Option<&Collector>,
    ) -> Result<CompressedFrame, DbgcError> {
        let cfg = &self.config;
        cfg.validate().map_err(DbgcError::InvalidConfig)?;
        if let Some(i) = cloud.iter().position(|p| !p.is_finite()) {
            return Err(DbgcError::NonFinitePoint { index: i });
        }
        let points = cloud.points();
        let mut timing = TimingBreakdown::default();
        let mut sections = SectionSizes::default();
        let root = m.map(|c| c.span("compress"));

        // ---- DEN: dense/sparse split -----------------------------------
        let stage = root.as_ref().map(|s| s.child("den"));
        let t = Instant::now();
        let split = self.split(points);
        timing.den = t.elapsed();
        drop(stage);
        let (dense_idx, sparse_idx) = split.partition_indices();
        let dense_pts: Vec<Point3> = dense_idx.iter().map(|&i| points[i]).collect();

        // ---- OCT: octree over dense points ------------------------------
        let stage = root.as_ref().map(|s| s.child("oct"));
        let t = Instant::now();
        let dense_enc = OctreeCodec::baseline()
            .with_lanes(cfg.entropy_profile.dense_lanes())
            .encode(&dense_pts, cfg.q_xyz);
        timing.oct = t.elapsed();
        drop(stage);

        // ---- COR: spherical conversion ----------------------------------
        // Organization always runs in (θ, φ) space; the flag only controls
        // which coordinates are *compressed*. Per-point conversions are
        // independent, so they fan out over the pool.
        let stage = root.as_ref().map(|s| s.child("cor"));
        let t = Instant::now();
        let sparse_pts: Vec<Point3> = sparse_idx.iter().map(|&i| points[i]).collect();
        let sparse_sph: Vec<Spherical> =
            dbgc_parallel::map(cfg.threads, &sparse_pts, |_, p| p.to_spherical());
        timing.cor = t.elapsed();
        drop(stage);

        // ---- grouping by radial distance --------------------------------
        // `order[g]` lists indices into sparse_pts for group g, ascending r.
        // Keyed on (r, index), the unstable sort is a total order that
        // reproduces the stable sort's tie behaviour exactly.
        let mut by_r: Vec<u32> = (0..sparse_pts.len() as u32).collect();
        by_r.sort_unstable_by(|&a, &b| {
            sparse_sph[a as usize].r.total_cmp(&sparse_sph[b as usize].r).then(a.cmp(&b))
        });
        let n_groups = cfg.groups.min(by_r.len().max(1));
        let group_size = by_r.len().div_ceil(n_groups.max(1));
        let groups: Vec<&[u32]> = if by_r.is_empty() {
            vec![&[][..]; n_groups]
        } else {
            by_r.chunks(group_size.max(1)).collect()
        };

        // ---- header ------------------------------------------------------
        let mut out = Vec::new();
        let header = write_header(&mut out, cfg, groups.len(), points.len());
        sections.header = out.len();

        // ---- B_dense ------------------------------------------------------
        let dense_mark = out.len();
        write_uvarint(&mut out, dense_enc.bytes.len() as u64);
        out.extend_from_slice(&dense_enc.bytes);
        sections.dense = out.len() - dense_mark;

        // ---- sparse groups -------------------------------------------------
        let mut mapping = vec![usize::MAX; points.len()];
        for (i, &orig) in dense_idx.iter().enumerate() {
            mapping[orig] = dense_enc.mapping[i];
        }
        let mut cursor = dense_pts.len();
        let mut outliers_global: Vec<u32> = Vec::new(); // indices into sparse_pts
        let mut polyline_count = 0usize;
        let mut group_entries: Vec<GroupEntry> = Vec::new();
        let sparse_mark = out.len();

        // ORG + SPA per group, fanned out over the pool (grain 1: groups are
        // few and expensive, so the work-stealing counter hands them out one
        // at a time). Each group encodes into a persistent arena slot — the
        // slot's buffers are refilled in place, so a warm compressor runs
        // this fan-out without per-group allocation. Buffers are spliced
        // into the stream in group order below, so the bitstream is
        // byte-identical to the serial in-place loop.
        let group_stage = root.as_ref().map(|s| s.child("sparse_groups"));
        let shared =
            SparseFrame { header, sph: &sparse_sph, pts: &sparse_pts, span: group_stage.as_ref() };
        let group_wall = Instant::now();
        let mut org_cpu = std::time::Duration::ZERO;
        let mut spa_cpu = std::time::Duration::ZERO;
        let sparse_wall = GROUP_ARENA.with(|arena| {
            let arena = &mut *arena.borrow_mut();
            dbgc_parallel::map_into(cfg.threads, 1, &groups, arena, |_, group, slot| {
                SCRATCH.with(|scratch| {
                    self.encode_group_into(&shared, group, &mut scratch.borrow_mut(), slot)
                })
            });
            let sparse_wall = group_wall.elapsed();

            // Deterministic post-pass: splice the buffers and replay the
            // bookkeeping (mapping cursor, outlier list) in group order,
            // exactly as the serial loop interleaved it. Its duration is the
            // serial merge cost the fan-out pays — the `compress.splice_us`
            // histogram makes that overhead visible next to the stage
            // speedup gauges.
            let splice_start = Instant::now();
            for (group, result) in groups.iter().zip(arena.iter()) {
                if let Some(meta) = &result.meta {
                    group_entries.push(GroupEntry {
                        section: SectionEntry {
                            offset: out.len(),
                            len: result.bytes.len(),
                            points: meta.points,
                            aabb: meta.aabb,
                        },
                        r_min: meta.r_min,
                        r_max: meta.r_max,
                    });
                }
                out.extend_from_slice(&result.bytes);
                for line in &result.organized.polylines {
                    for &local in line {
                        mapping[sparse_idx[group[local as usize] as usize]] = cursor;
                        cursor += 1;
                    }
                }
                polyline_count += result.organized.polylines.len();
                outliers_global
                    .extend(result.organized.outliers.iter().map(|&l| group[l as usize]));
                org_cpu += result.org;
                spa_cpu += result.spa;
            }
            if let Some(c) = m {
                c.record("compress.splice_us", splice_start.elapsed().as_micros() as u64);
            }
            sparse_wall
        });
        drop(group_stage);
        // Wall-clock stage attribution: under `threads > 1` the per-worker
        // ORG and SPA measurements overlap in time, so their sum overstates
        // the stage cost. Report the fan-out's wall-clock interval instead,
        // split between ORG and SPA pro rata by measured worker time (with
        // one thread the split reproduces the direct measurements).
        let cpu_total = org_cpu + spa_cpu;
        if !cpu_total.is_zero() {
            timing.org = sparse_wall.mul_f64(org_cpu.as_secs_f64() / cpu_total.as_secs_f64());
            timing.spa = sparse_wall.saturating_sub(timing.org);
        }
        sections.sparse = out.len() - sparse_mark;

        // ---- B_outlier ------------------------------------------------------
        let stage = root.as_ref().map(|s| s.child("out"));
        let outlier_mark = out.len();
        let t = Instant::now();
        let outlier_pts: Vec<Point3> =
            outliers_global.iter().map(|&i| sparse_pts[i as usize]).collect();
        let outlier_mapping = encode_outliers(&mut out, &outlier_pts, cfg.q_xyz, cfg.outlier_mode);
        for (k, &i) in outliers_global.iter().enumerate() {
            mapping[sparse_idx[i as usize]] = cursor + outlier_mapping[k];
        }
        timing.out = t.elapsed();
        sections.outlier = out.len() - outlier_mark;
        drop(stage);

        // ---- spatial-index trailer (opt-in) --------------------------------
        // Appended after the complete body, so the bytes up to this point are
        // identical with the index on or off.
        let directory = if cfg.spatial_index {
            let dir = SpatialDirectory {
                points: points.len(),
                header_len: sections.header,
                dense: SectionEntry {
                    offset: dense_mark,
                    len: sections.dense,
                    points: dense_pts.len(),
                    // Decoded leaf centres are within q_xyz (L∞) of some
                    // input point, so the input AABB inflated by q_xyz
                    // bounds every decoded dense point.
                    aabb: inflate(Aabb::from_points(&dense_pts), cfg.q_xyz),
                },
                dense_depth: dense_enc.depth,
                groups: group_entries,
                outlier: SectionEntry {
                    offset: outlier_mark,
                    len: sections.outlier,
                    points: outlier_pts.len(),
                    aabb: outlier_aabb(&outlier_pts, cfg.q_xyz, cfg.outlier_mode),
                },
            };
            let index_mark = out.len();
            append_index_trailer(&mut out, &dir.serialize());
            sections.index = out.len() - index_mark;
            Some(dir)
        } else {
            None
        };

        debug_assert!(
            mapping.iter().all(|&mapped| mapped != usize::MAX),
            "every input point must be mapped"
        );

        let stats = CompressionStats {
            total_points: points.len(),
            dense_points: dense_pts.len(),
            sparse_points: sparse_pts.len() - outlier_pts.len(),
            outlier_points: outlier_pts.len(),
            polylines: polyline_count,
            sections,
            timing,
        };
        // Per-substream byte accounting (the four channels partition the
        // stream, so they must sum to `out.len()`), plus frame counters.
        if let Some(c) = m {
            c.add_bytes("header", sections.header as u64);
            c.add_bytes("dense", sections.dense as u64);
            c.add_bytes("sparse", sections.sparse as u64);
            c.add_bytes("outlier", sections.outlier as u64);
            if sections.index > 0 {
                c.add_bytes("index", sections.index as u64);
            }
            c.incr("compress.frames", 1);
            c.incr("compress.points_in", stats.total_points as u64);
            c.incr("compress.points_dense", stats.dense_points as u64);
            c.incr("compress.points_sparse", stats.sparse_points as u64);
            c.incr("compress.points_outlier", stats.outlier_points as u64);
            c.incr("compress.polylines", stats.polylines as u64);
            c.record("compress.bytes_per_frame", out.len() as u64);
        }
        Ok(CompressedFrame { bytes: out, mapping, stats, directory })
    }

    /// ORG + SPA for one radial group, refilling an arena slot in place.
    ///
    /// `result.bytes` holds the group's complete stream section (`r_max`
    /// followed by the encoded group), so slots filled on any thread can be
    /// spliced into the frame in group order without re-encoding. The slot's
    /// previous contents are recycled (polyline vectors through the scratch
    /// line pool), so a warm slot encodes without allocating.
    fn encode_group_into(
        &self,
        frame: &SparseFrame<'_>,
        group: &[u32],
        scratch: &mut GroupScratch,
        result: &mut GroupResult,
    ) {
        let cfg = &self.config;
        let span = frame.span;
        scratch.g_sph.clear();
        scratch.g_sph.extend(group.iter().map(|&i| frame.sph[i as usize]));
        scratch.g_cart.clear();
        scratch.g_cart.extend(group.iter().map(|&i| frame.pts[i as usize]));
        let r_max = scratch.g_sph.iter().map(|s| s.r).fold(0.0f64, f64::max);

        // ORG: Algorithm 1. The child span is created and finished on
        // whichever pool worker runs this group; it nests under the
        // `sparse_groups` stage span owned by the calling thread.
        let phase = span.map(|s| s.child("org"));
        let t = Instant::now();
        organize_sparse_points_into(
            &scratch.g_sph,
            &scratch.g_cart,
            cfg.sensor.u_theta(),
            cfg.sensor.u_phi(),
            cfg.min_polyline_len,
            &mut scratch.org,
            &mut result.organized,
        );
        result.org = t.elapsed();
        drop(phase);

        // SPA: steps 1-9.
        let phase = span.map(|s| s.child("spa"));
        let t = Instant::now();
        let (codec_cfg, sq) = group_codec_cfg(&frame.header, r_max);
        self.quantize_lines_into(&result.organized.polylines, sq.as_ref(), scratch);
        result.bytes.clear();
        write_f64(&mut result.bytes, r_max);
        encode_group_to_buf(&mut result.bytes, &scratch.lines_q, &codec_cfg, &mut scratch.codec);
        result.spa = t.elapsed();
        drop(phase);

        result.meta =
            cfg.spatial_index.then(|| group_meta(&scratch.lines_q, sq.as_ref(), cfg.q_xyz));
    }

    /// Dense/sparse classification.
    fn split(&self, points: &[Point3]) -> DensitySplit {
        match self.config.split {
            SplitStrategy::Density(alg) => {
                let (params, threads) = (self.config.cluster_params(), self.config.threads);
                match alg {
                    ClusteringAlgorithm::Approximate => approx_cluster(points, params, threads),
                    ClusteringAlgorithm::CellBased => cell_based_cluster(points, params, threads),
                    ClusteringAlgorithm::Dbscan => dbscan(points, params, threads).split(),
                }
            }
            SplitStrategy::NearestFraction(f) => {
                // (norm, index) keys make the unstable sort a total order
                // matching the stable sort's tie behaviour.
                let mut order: Vec<u32> = (0..points.len() as u32).collect();
                order.sort_unstable_by(|&a, &b| {
                    points[a as usize].norm().total_cmp(&points[b as usize].norm()).then(a.cmp(&b))
                });
                let n_dense = (points.len() as f64 * f).round() as usize;
                let mut dense = vec![false; points.len()];
                for &i in order.iter().take(n_dense) {
                    dense[i as usize] = true;
                }
                DensitySplit { dense }
            }
        }
    }

    /// Step 1 (coordinate scaling) for one group: quantize the polyline
    /// points into `scratch.lines_q` with the group's spherical quantizer,
    /// or on the Cartesian grid when there is none. Line buffers are
    /// recycled through `scratch.line_pool` so a warm scratch quantizes
    /// without allocating.
    fn quantize_lines_into(
        &self,
        lines: &[Vec<u32>],
        sq: Option<&SphericalQuant>,
        scratch: &mut GroupScratch,
    ) {
        let out = &mut scratch.lines_q;
        let pool = &mut scratch.line_pool;
        pool.extend(out.drain(..).map(|mut l| {
            l.clear();
            l
        }));
        let qp = QuantParams::cartesian(self.config.q_xyz);
        for line in lines {
            let mut q = pool.pop().unwrap_or_default();
            match sq {
                Some(sq) => q.extend(line.iter().map(|&i| sq.quantize(scratch.g_sph[i as usize]))),
                None => q.extend(line.iter().map(|&i| {
                    let p = scratch.g_cart[i as usize];
                    [
                        quantize(p.x, qp.step[0]),
                        quantize(p.y, qp.step[1]),
                        quantize(p.z, qp.step[2]),
                    ]
                })),
            }
            out.push(q);
        }
    }
}

/// Directory metadata for one group: bounds of the points the *decoder* will
/// reconstruct, from the decoder's own dequantizer over the quantized
/// polylines (bit-identical `f64` values), so pruning on these bounds can
/// never drop a matching point.
fn group_meta(lines_q: &[Vec<[i64; 3]>], sq: Option<&SphericalQuant>, q_xyz: f64) -> GroupMeta {
    let mut meta = GroupMeta { points: 0, aabb: None, r_min: f64::INFINITY, r_max: 0.0 };
    for &q in lines_q.iter().flatten() {
        let p = dequantize_point(q, sq, q_xyz);
        meta.points += 1;
        meta.aabb = Some(match meta.aabb {
            Some(bb) => Aabb { min: bb.min.min(p), max: bb.max.max(p) },
            None => Aabb { min: p, max: p },
        });
        let n = p.norm();
        meta.r_min = meta.r_min.min(n);
        meta.r_max = meta.r_max.max(n);
    }
    meta
}
