//! `archive-query`: the archive `ingest-tcp` writes, read back by a seeded
//! mix of queries on one thread.
//!
//! Set-up builds an archive of indexed frames at 10 Hz: the first half of
//! the timeline is a city drive, the second a residential one. Each query
//! selects a seeded 1–2 frame time window and one of four kinds, in turn:
//!
//! * `near_box`: a 16 m cube around the sensor (dense octree and near
//!   groups);
//! * `far_box`: a box 30–60 m out at a seeded azimuth (far sparse groups);
//! * `dense_only`: octree points only;
//! * `window`: the time window alone, so whole frames are decoded.

use std::time::Instant;

use dbgc::{Dbgc, DbgcConfig};
use dbgc_geom::{Aabb, Point3};
use dbgc_lidar_sim::ScenePreset;
use dbgc_store::{decode_annotated, DensityClass, FrameStore, PointRecord, Query, QueryResult};

use crate::codec::Q_XYZ;
use crate::inputs::{self, timed_setup, Rng};
use crate::stats::{blocked_rate, median, paired_overhead};
use crate::trace::Trace;
use crate::{Outcome, Plan};

/// Archived frames per distinct compressed frame.
const REUSE: usize = 4;
/// Frame period of the archive timeline (10 Hz).
const PERIOD_US: u64 = 100_000;
/// Queries checked against the full-decode oracle.
const ORACLE_QUERIES: usize = 64;

const KINDS: [&str; 4] = ["near_box", "far_box", "dense_only", "window"];

/// The archive and what the oracle needs to re-derive any answer.
struct Archive {
    store: FrameStore,
    /// Distinct compressed streams.
    streams: Vec<Vec<u8>>,
    /// Archived frame id → index into `streams`.
    content: Vec<usize>,
    points: usize,
}

pub fn run(plan: &Plan, trace: Option<&Trace>) -> Outcome {
    let mut out = Outcome::default();
    let (archive, setup_s) = timed_setup(|| build_archive(plan, trace, &mut out));
    out.setup_s = setup_s;
    let bytes: usize = archive.streams.iter().map(Vec::len).sum();
    out.bits_per_point = bytes as f64 * 8.0 / archive.points as f64;

    // The oracle's view of every distinct stream, checked against the
    // codec's own decoder (their stage times are this workload's decode
    // layer numbers).
    let mut oracle = Vec::with_capacity(archive.streams.len());
    for (i, stream) in archive.streams.iter().enumerate() {
        let decoded = match trace {
            Some(t) => dbgc::decompress_with_metrics(stream, &t.collector),
            None => dbgc::decompress(stream),
        };
        match (decode_annotated(stream), decoded) {
            (Ok(ann), Ok((cloud, stats))) => {
                if ann.points.iter().map(|p| p.pos).ne(cloud.points().iter().copied()) {
                    out.fail(format!("stream {i}: annotated decode differs from decompress"));
                }
                out.layers.decode.push(stats);
                oracle.push(ann);
            }
            (a, d) => {
                out.fail(format!("stream {i} does not decode: {:?} / {:?}", a.err(), d.err()));
                return out;
            }
        }
    }

    let mut rng = Rng::new(plan.seed);
    let frames = archive.content.len();
    // Index 0: untraced queries, 1: traced.
    let mut query_ms: [Vec<f64>; 2] = Default::default();
    let mut by_kind: [Vec<f64>; 4] = Default::default();
    let (mut touched, mut in_window, mut pruned, mut scanned, mut partial) = (0u64, 0u64, 0, 0, 0);
    let start = Instant::now();
    let mut checks_s = 0.0;
    let mut i = 0usize;
    let (mut drawn, mut n_drawn) = (None, 0);
    while start.elapsed().as_secs_f64() - checks_s < plan.seconds {
        // A traced run issues each query twice, traced and untraced, in
        // alternating order, so both sides time the same queries. The kinds
        // take turns: their latencies differ fivefold, so a drawn mix would
        // move the median from seed to seed.
        if trace.is_none() || i.is_multiple_of(2) {
            let kind = n_drawn % KINDS.len();
            n_drawn += 1;
            let width = 1 + rng.below(2) as usize;
            let first = rng.below((frames - width + 1) as u64) as usize;
            drawn = Some((kind, first, width, make_query(kind, first, width, &mut rng)));
        }
        let &(kind, first, width, ref query) = drawn.as_ref().expect("drawn on even steps");
        let traced = trace.filter(|_| (i % 2 == 1) != (i / 2 % 2 == 1));
        let op = traced.map(|t| t.op("query", i));
        out.attempted += 1;
        let t = Instant::now();
        let answer = archive.store.query(query);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(op);
        let res = match answer {
            Ok(res) => res,
            Err(e) => {
                out.fail(format!("query {i} ({}) failed: {e}", KINDS[kind]));
                i += 1;
                continue;
            }
        };
        query_ms[traced.is_some() as usize].push(ms);
        by_kind[kind].push(ms);
        touched += res.bytes_touched;
        in_window += (first..first + width)
            .map(|f| archive.streams[archive.content[f]].len() as u64)
            .sum::<u64>();
        pruned += res.frames_pruned;
        scanned += res.frames_scanned;
        partial += res.frames_partial;

        let checks = Instant::now();
        if res.frames_fallback > 0 {
            out.fail(format!("query {i}: {} frames fell back to full decode", res.frames_fallback));
        }
        if i < ORACLE_QUERIES {
            let expected = oracle_answer(&archive, &oracle, query, first, width);
            if keys(&res) != expected {
                out.fail(format!(
                    "query {i} ({}) disagrees with the full-decode oracle",
                    KINDS[kind]
                ));
            }
        }
        checks_s += checks.elapsed().as_secs_f64();
        i += 1;
    }

    let [untraced, traced] = query_ms;
    // Blocks of four turns of the kinds, so every block holds the same mix.
    out.ops_per_s = blocked_rate(&untraced, 4 * KINDS.len());
    if trace.is_some() {
        out.layers.trace_overhead_frac = paired_overhead(&untraced, &traced);
    }
    let store = archive.store.metrics().snapshot();
    let skipped = store.counters.get("store.sections_skipped").copied().unwrap_or(0) as f64;
    let decoded = store.counters.get("store.sections_decoded").copied().unwrap_or(0) as f64;
    for (name, samples) in [
        ("store.query_ms.near_box", &by_kind[0]),
        ("store.query_ms.far_box", &by_kind[1]),
        ("store.query_ms.dense_only", &by_kind[2]),
        ("store.query_ms.window", &by_kind[3]),
    ] {
        out.note(name, median(samples), "ms");
    }
    out.note("store.bytes_touched_frac", touched as f64 / in_window as f64, "ratio");
    out.note("store.pruned_frac", pruned as f64 / scanned as f64, "ratio");
    out.note("store.partial_frac", partial as f64 / (scanned - pruned) as f64, "ratio");
    out.note("store.section_skip_frac", skipped / (skipped + decoded), "ratio");
    out.latency_ms = untraced;
    out
}

fn build_archive(plan: &Plan, trace: Option<&Trace>, out: &mut Outcome) -> Archive {
    let half = plan.frames / 2;
    let mut clouds =
        inputs::frames(ScenePreset::KittiCity, plan.seed, plan.frames - half, &mut out.layers.gen);
    let city = clouds.len();
    clouds.extend(inputs::frames(
        ScenePreset::KittiResidential,
        plan.seed,
        half,
        &mut out.layers.gen,
    ));
    let dbgc =
        Dbgc::new(DbgcConfig::with_error_bound(Q_XYZ).with_threads(1).with_spatial_index(true));
    let mut streams = Vec::with_capacity(clouds.len());
    for cloud in &clouds {
        let frame = match trace {
            Some(t) => dbgc.compress_with_metrics(cloud, &t.collector),
            None => dbgc.compress(cloud),
        }
        .expect("simulator frames are finite");
        out.layers.compress.push(frame.stats);
        streams.push(frame.bytes);
    }
    // The city drive fills the first half of the timeline, the residential
    // drive the second; each distinct frame recurs REUSE times.
    let content: Vec<usize> = (0..city * REUSE)
        .map(|i| i % city)
        .chain((0..(clouds.len() - city) * REUSE).map(|i| city + i % (clouds.len() - city)))
        .collect();
    let mut store = trace.map_or_else(FrameStore::new, |t| FrameStore::with_metrics(&t.collector));
    for (id, &c) in content.iter().enumerate() {
        store.ingest(streams[c].clone(), id as u64 * PERIOD_US).expect("own streams parse");
    }
    let points = clouds.iter().map(|c| c.len()).sum();
    Archive { store, streams, content, points }
}

fn make_query(kind: usize, first: usize, width: usize, rng: &mut Rng) -> Query {
    let window = Query::TimeRange {
        start_us: first as u64 * PERIOD_US,
        end_us: (first + width) as u64 * PERIOD_US,
    };
    let cube = |c: Point3, half: Point3| Query::Aabb(Aabb { min: c - half, max: c + half });
    match KINDS[kind] {
        "near_box" => Query::and(window, cube(Point3::ZERO, Point3::new(8.0, 8.0, 8.0))),
        "far_box" => {
            let azimuth = rng.range(0.0, std::f64::consts::TAU);
            let centre = Point3::new(45.0 * azimuth.cos(), 45.0 * azimuth.sin(), 2.0);
            Query::and(window, cube(centre, Point3::new(15.0, 15.0, 5.0)))
        }
        "dense_only" => Query::and(window, Query::DensityClass(DensityClass::Dense)),
        _ => window,
    }
}

/// A matching point, comparable bit for bit.
type Key = (u64, [u64; 3], u8, u32, Option<u32>);

fn key(frame_id: u64, p: &dbgc_store::AnnotatedPoint) -> Key {
    let class = match p.class {
        DensityClass::Dense => 0,
        DensityClass::Sparse => 1,
        DensityClass::Outlier => 2,
    };
    (
        frame_id,
        [p.pos.x.to_bits(), p.pos.y.to_bits(), p.pos.z.to_bits()],
        class,
        p.lod_depth,
        p.group,
    )
}

fn keys(res: &QueryResult) -> Vec<Key> {
    let mut k: Vec<Key> =
        res.points.iter().map(|r: &PointRecord| key(r.frame_id, &r.point)).collect();
    k.sort_unstable();
    k
}

/// The answer a full decode plus `Query::matches` gives, as a sorted
/// multiset. Frames outside the query's window cannot match.
fn oracle_answer(
    archive: &Archive,
    oracle: &[dbgc_store::AnnotatedCloud],
    query: &Query,
    first: usize,
    width: usize,
) -> Vec<Key> {
    let mut k = Vec::new();
    for frame in &archive.store.frames()[first..first + width] {
        let decoded = &oracle[archive.content[frame.id as usize]];
        k.extend(
            decoded
                .points
                .iter()
                .filter(|p| query.matches(p, frame.time_us))
                .map(|p| key(frame.id, p)),
        );
    }
    k.sort_unstable();
    k
}
