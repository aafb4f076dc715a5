//! Differential oracle suite for the queryable archive (`dbgc-store`).
//!
//! Every query answered by [`FrameStore::query`] — partial decode, pruned,
//! or fallback — must return exactly the points a brute-force full decode
//! plus per-point filter returns. The oracle is
//! [`dbgc_store::decode_annotated`] + [`Query::matches`]; comparisons are
//! order-normalized on position bit patterns.

mod common;

use common::{small_config, small_frame};
use dbgc::{split_index_trailer, Dbgc, DbgcConfig, IndexTrailer, SpatialDirectory};
use dbgc_geom::{Aabb, Point3, PointCloud};
use dbgc_lidar_sim::ScenePreset;
use dbgc_metrics::Collector;
use dbgc_store::{decode_annotated, DensityClass, FrameStore, Frustum, Query};

const SEED: u64 = 7;
const Q: f64 = 0.02;

/// Compress a reduced-resolution preset frame with the spatial index on.
fn compress_indexed(preset: ScenePreset) -> Vec<u8> {
    let (cloud, meta) = small_frame(preset, SEED);
    let cfg = small_config(Q, meta).with_spatial_index(true);
    Dbgc::new(cfg).compress(&cloud).unwrap().bytes
}

/// Order-normalize positions by their bit patterns.
fn norm(points: impl IntoIterator<Item = Point3>) -> Vec<[u64; 3]> {
    let mut v: Vec<[u64; 3]> =
        points.into_iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect();
    v.sort_unstable();
    v
}

/// Assert the store answers `query` exactly like the full-decode oracle,
/// for a store holding a single frame ingested at `time_us`.
fn assert_oracle(store: &FrameStore, bytes: &[u8], query: &Query, time_us: u64, ctx: &str) {
    let res = store.query(query).unwrap();
    let oracle = decode_annotated(bytes).unwrap();
    let want: Vec<Point3> =
        oracle.points.iter().filter(|p| query.matches(p, time_us)).map(|p| p.pos).collect();
    assert_eq!(
        norm(res.points.iter().map(|r| r.point.pos)),
        norm(want),
        "query result diverges from oracle: {ctx}"
    );
}

/// The query battery run against every preset: selective and degenerate
/// geometry, per-class, LOD, time, and boolean composites of all of them.
fn battery() -> Vec<(&'static str, Query)> {
    let rim =
        Query::Aabb(Aabb { min: Point3::new(5.0, -20.0, -4.0), max: Point3::new(45.0, 20.0, 6.0) });
    let nowhere = Query::Aabb(Aabb {
        min: Point3::new(900.0, 900.0, 900.0),
        max: Point3::new(950.0, 950.0, 950.0),
    });
    let frustum = Frustum::look_at(
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(30.0, 10.0, 0.0),
        Point3::new(0.0, 0.0, 1.0),
        1.0,
        1.6,
        0.5,
        80.0,
    )
    .expect("valid frustum");
    vec![
        ("all", Query::All),
        ("aabb", rim.clone()),
        ("aabb-empty", nowhere),
        ("frustum", Query::Frustum(frustum)),
        ("lod", Query::Lod { min: 1, max: 12 }),
        ("time-hit", Query::TimeRange { start_us: 0, end_us: u64::MAX }),
        ("time-miss", Query::TimeRange { start_us: 0, end_us: 1 }),
        ("dense", Query::DensityClass(DensityClass::Dense)),
        ("sparse", Query::DensityClass(DensityClass::Sparse)),
        ("outlier", Query::DensityClass(DensityClass::Outlier)),
        ("and", Query::and(rim.clone(), Query::not(Query::DensityClass(DensityClass::Outlier)))),
        (
            "or",
            Query::or(
                Query::Aabb(Aabb {
                    min: Point3::new(-40.0, -40.0, -4.0),
                    max: Point3::new(-5.0, -5.0, 4.0),
                }),
                Query::DensityClass(DensityClass::Outlier),
            ),
        ),
        ("not", Query::not(rim)),
    ]
}

#[test]
fn oracle_all_presets() {
    for preset in ScenePreset::all() {
        let bytes = compress_indexed(preset);
        let mut store = FrameStore::new();
        store.ingest(bytes.clone(), 1_000).unwrap();
        assert!(store.frames()[0].has_index(), "{}: index missing", preset.name());
        for (name, q) in battery() {
            assert_oracle(&store, &bytes, &q, 1_000, &format!("{}/{name}", preset.name()));
        }
    }
}

#[test]
fn oracle_seeded_random_clouds() {
    // Synthetic clouds exercising all three sections: xorshift clusters
    // (dense + sparse groups) plus isolated far points (outliers).
    for seed in [11u64, 57, 4242] {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut cloud = PointCloud::new();
        for _ in 0..8 {
            let (cx, cy, cz) = ((next() - 0.5) * 80.0, (next() - 0.5) * 80.0, (next() - 0.5) * 6.0);
            for _ in 0..400 {
                cloud.push(Point3::new(
                    cx + (next() - 0.5) * 3.0,
                    cy + (next() - 0.5) * 3.0,
                    cz + (next() - 0.5) * 0.5,
                ));
            }
        }
        for _ in 0..20 {
            cloud.push(Point3::new(
                (next() - 0.5) * 400.0,
                (next() - 0.5) * 400.0,
                (next() - 0.5) * 40.0,
            ));
        }
        let cfg = DbgcConfig::with_error_bound(Q).with_spatial_index(true);
        let bytes = Dbgc::new(cfg).compress(&cloud).unwrap().bytes;
        let mut store = FrameStore::new();
        store.ingest(bytes.clone(), 500).unwrap();
        for (name, q) in battery() {
            assert_oracle(&store, &bytes, &q, 500, &format!("seed {seed}/{name}"));
        }
    }
}

/// The paper's spider-web pattern, unrolled: a single-turn spiral sweeping
/// radius 20→35 m with small radial jitter. Radius is monotone in angle, so
/// the encoder's radial grouping yields angular arcs with tight AABBs —
/// exactly the geometry the spatial directory is built to prune — while the
/// jitter keeps the sparse sections from compressing to nothing.
fn spiral_cloud(n: usize) -> PointCloud {
    let mut x = 0x5eed_5eed_5eedu64;
    let mut jitter = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.3
    };
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let th = t * std::f64::consts::TAU;
            let r = 20.0 + 15.0 * t + jitter();
            Point3::new(r * th.cos(), r * th.sin(), -1.7)
        })
        .collect()
}

#[test]
fn pruning_selective_aabb_touches_under_quarter() {
    let cloud = spiral_cloud(12_000);
    let mut cfg = DbgcConfig::with_error_bound(Q).with_spatial_index(true);
    cfg.groups = 14;
    cfg.th_r = 5.0;
    let bytes = Dbgc::new(cfg).compress(&cloud).unwrap().bytes;

    let collector = Collector::new();
    let mut store = FrameStore::with_metrics(&collector);
    store.ingest(bytes.clone(), 0).unwrap();

    // A box over the +y side: a narrow arc of the spiral.
    let q =
        Query::Aabb(Aabb { min: Point3::new(-3.0, 22.0, -3.0), max: Point3::new(3.0, 26.0, 0.0) });
    let res = store.query(&q).unwrap();
    assert!(!res.points.is_empty());
    assert_eq!(res.frames_partial, 1);
    assert_eq!(res.frames_fallback, 0);
    assert!(
        res.bytes_touched * 4 < res.bytes_total,
        "selective query touched {} of {} bytes (>= 25%)",
        res.bytes_touched,
        res.bytes_total
    );

    // The same accounting flows through the metrics byte channels.
    let snap = collector.snapshot();
    assert_eq!(snap.bytes.get("store.bytes_touched").copied(), Some(res.bytes_touched));
    assert_eq!(snap.bytes.get("store.bytes_total").copied(), Some(res.bytes_total));
    assert_eq!(snap.counters.get("store.frames_ingested").copied(), Some(1));

    // And the pruned result is still exactly the oracle's answer.
    assert_oracle(&store, &bytes, &q, 0, "spiral/selective");
}

#[test]
fn v1_index_less_streams_answer_by_full_decode() {
    let (cloud, meta) = small_frame(ScenePreset::KittiRoad, SEED);
    let bytes = Dbgc::new(small_config(Q, meta)).compress(&cloud).unwrap().bytes;
    assert!(matches!(split_index_trailer(&bytes), IndexTrailer::None));

    let mut store = FrameStore::new();
    store.ingest(bytes.clone(), 0).unwrap();
    assert!(!store.frames()[0].has_index());

    for (name, q) in battery() {
        assert_oracle(&store, &bytes, &q, 0, &format!("v1/{name}"));
    }
    // An index-less stream is not an index *failure*: every byte is read,
    // but the fallback counter stays untouched.
    let res = store.query(&Query::All).unwrap();
    assert_eq!(res.frames_fallback, 0);
    assert_eq!(store.index_fallbacks(), 0);
    assert_eq!(res.bytes_touched, res.bytes_total);
}

#[test]
fn corrupt_index_trailer_falls_back_to_full_decode() {
    let mut bytes = compress_indexed(ScenePreset::KittiCity);
    let body_len = match split_index_trailer(&bytes) {
        IndexTrailer::Valid { body, .. } => body.len(),
        other => panic!("expected valid trailer, got {other:?}"),
    };
    // Flip a byte inside the index payload: the CRC no longer matches.
    bytes[body_len + 2] ^= 0xff;

    let collector = Collector::new();
    let mut store = FrameStore::with_metrics(&collector);
    store.ingest(bytes.clone(), 0).unwrap();
    assert!(!store.frames()[0].has_index(), "corrupt index must be demoted");
    assert_eq!(collector.counter("store.index_corrupt").get(), 1);

    for (name, q) in battery() {
        assert_oracle(&store, &bytes, &q, 0, &format!("corrupt/{name}"));
    }
    let res = store.query(&Query::All).unwrap();
    assert_eq!(res.frames_fallback, 1);
    assert!(store.index_fallbacks() >= 1);
}

#[test]
fn lying_index_counts_fall_back_at_query_time() {
    // CRC-valid directories that lie about one section while the point
    // counts still sum to the header's total, so ingest accepts them. Each
    // query decodes the lying section; the partial decoder must catch the
    // per-section mismatch and fall back to exactly the oracle's answer.
    let bytes = compress_indexed(ScenePreset::KittiCampus);
    let (body, payload) = match split_index_trailer(&bytes) {
        IndexTrailer::Valid { body, payload } => (body.to_vec(), payload),
        other => panic!("expected valid trailer, got {other:?}"),
    };
    let dir = SpatialDirectory::parse(payload, body.len()).unwrap();
    let (mut a, mut b) = (usize::MAX, usize::MAX);
    'outer: for i in 0..dir.groups.len() {
        for j in i + 1..dir.groups.len() {
            if dir.groups[i].section.points != dir.groups[j].section.points {
                (a, b) = (i, j);
                break 'outer;
            }
        }
    }
    assert_ne!(a, usize::MAX, "need two groups with distinct point counts");
    assert!(dir.dense.points > 0 && dir.groups[a].section.points > 0);
    let dense = Query::DensityClass(DensityClass::Dense);
    let outlier = Query::DensityClass(DensityClass::Outlier);
    type Lie = fn(&mut SpatialDirectory, usize, usize);
    let lies: [(&str, Lie, Query); 4] = [
        // Two groups swapped: with every section decoded, the first of the
        // two groups is caught.
        (
            "group-counts",
            |d, a, b| {
                let tmp = d.groups[a].section.points;
                d.groups[a].section.points = d.groups[b].section.points;
                d.groups[b].section.points = tmp;
            },
            Query::All,
        ),
        // The dense section claims a point one group gives up.
        (
            "dense-count",
            |d, a, _| {
                d.dense.points += 1;
                d.groups[a].section.points -= 1;
            },
            dense.clone(),
        ),
        ("dense-depth", |d, _, _| d.dense_depth += 1, dense),
        (
            "outlier-count",
            |d, _, _| {
                d.outlier.points += 1;
                d.dense.points -= 1;
            },
            outlier,
        ),
    ];
    for (name, lie, query) in lies {
        let mut lying = dir.clone();
        lie(&mut lying, a, b);
        let mut tampered = body.clone();
        dbgc::index::append_index_trailer(&mut tampered, &lying.serialize());

        let mut store = FrameStore::new();
        store.ingest(tampered.clone(), 0).unwrap();
        // The lie survives ingest (sums match) but not the decode cross-check.
        assert!(store.frames()[0].has_index(), "{name}: demoted at ingest");
        let res = store.query(&query).unwrap();
        assert_eq!((res.frames_partial, res.frames_fallback), (0, 1), "{name}");
        assert_eq!(store.index_fallbacks(), 1, "{name}");
        let oracle = decode_annotated(&tampered).unwrap();
        let want = oracle.points.iter().filter(|p| query.matches(p, 0)).map(|p| p.pos);
        assert_eq!(norm(res.points.iter().map(|r| r.point.pos)), norm(want), "{name}");
    }
}

#[test]
fn session_server_handoff_archives_and_time_queries() {
    use dbgc_net::fleet::{FleetConfig, FleetServer};
    use dbgc_net::session::{ResilientClient, SessionConfig};

    let frames_meta: Vec<_> = (0..3).map(|k| small_frame(ScenePreset::KittiCity, 70 + k)).collect();
    let meta = frames_meta[0].1;
    let clouds: Vec<_> = frames_meta.into_iter().map(|(c, _)| c).collect();

    let fleet = FleetServer::spawn(FleetConfig::new(1));
    let handle = fleet.handle();
    let connector = {
        let handle = handle.clone();
        move || handle.connect(11)
    };
    let mut client = ResilientClient::new(connector, SessionConfig::fast_test(11));
    let dbgc = Dbgc::new(small_config(Q, meta).with_spatial_index(true));
    for c in &clouds {
        client.send_payload(dbgc.compress(c).unwrap().bytes).unwrap();
    }
    client.finish().unwrap();

    // Hand the session's frames to the archive: 10 fps starting at t0.
    let (t0, period) = (1_000_000u64, 100_000u64);
    let mut drained = handle.drain();
    assert_eq!(drained.len(), 1, "one tenant");
    let (sid, stored) = drained.remove(0);
    assert_eq!((sid, stored.len()), (11, 3));
    fleet.shutdown().verify_partition().unwrap();
    let frame_bytes: Vec<Vec<u8>> = stored.iter().map(|f| f.bytes.clone()).collect();
    let mut store = FrameStore::new();
    store.archive_session(stored, t0, period).unwrap();
    assert_eq!(store.len(), 3);
    assert!(store.frames().iter().all(|f| f.has_index()));

    // Half-open window covering frames 1 and 2 only.
    let q = Query::TimeRange { start_us: t0 + period, end_us: t0 + 3 * period };
    let res = store.query(&q).unwrap();
    assert_eq!(res.frames_scanned, 3);
    assert_eq!(res.frames_pruned, 1, "frame 0 must be pruned by its timestamp");

    let mut want = Vec::new();
    for (seq, bytes) in frame_bytes.iter().enumerate() {
        let t = t0 + seq as u64 * period;
        want.extend(
            decode_annotated(bytes)
                .unwrap()
                .points
                .iter()
                .filter(|p| q.matches(p, t))
                .map(|p| p.pos),
        );
    }
    assert_eq!(norm(res.points.iter().map(|r| r.point.pos)), norm(want));
    assert_eq!(res.points.len(), clouds[1].len() + clouds[2].len());
}
