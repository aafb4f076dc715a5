//! Criterion micro-benches for the single-core hot-path kernels: the
//! two-level frequency model step, range-coder renormalization, the SoA
//! sparse-stage loops (organize grid + segment-consensus radial coding),
//! and the sorted-key density split (DEN) on one simulator frame. Besides
//! synthetic inputs, the model and radial kernels also run on the streams
//! of that frame's compressed form: a 256-symbol varint stream, the
//! 255-symbol occupancy stream, and the organized sparse groups.
//!
//! Besides the human-readable criterion output, a compact second pass writes
//! `BENCH_kernels.json` (dbgc-metrics v1 snapshot) to the repo root so CI can
//! trend the kernel throughputs alongside `BENCH_e2e.json`.

use std::time::Instant;

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use dbgc::layout::{group_codec_cfg, parse_header, read_dense, read_group_r_max};
use dbgc::sparse::codec::decode_group;
use dbgc::sparse::organize::{organize_sparse_points_with, OrganizeScratch};
use dbgc::sparse::radial::{encode_radial, encode_radial_into, RadialStreams};
use dbgc_clustering::{approx_cluster, ClusterParams};
use dbgc_codec::intseq::{compress_ints_rc, decompress_ints_rc};
use dbgc_codec::varint::ByteReader;
use dbgc_codec::{
    bitpack_decode, bitpack_encode, delta_decode, delta_encode, AdaptiveModel, ContextModel,
    LanedDecoder, LanedEncoder, RangeEncoder,
};
use dbgc_geom::{Point3, Spherical};
use dbgc_octree::Octree;

/// Skewed symbol stream over `alphabet` symbols (residual-like statistics).
fn skewed_symbols(n: usize, alphabet: usize) -> Vec<usize> {
    (0..n as u32)
        .map(|i| {
            let r = (i.wrapping_mul(2654435761) >> 16) as usize;
            if i % 7 == 0 {
                r % alphabet
            } else {
                r % alphabet.div_ceil(8).max(1)
            }
        })
        .collect()
}

/// The adaptive model through the laned range coder — the coder every
/// entropy profile ships — at `lanes` lanes (1: narrow, 2: dual dense
/// occupancy, 4: wide).
fn model_encode(syms: &[usize], alphabet: usize, lanes: usize) -> Vec<u8> {
    let mut m = AdaptiveModel::new(alphabet);
    let mut enc = LanedEncoder::new(lanes);
    for &s in syms {
        m.encode(&mut enc, s);
    }
    enc.finish()
}

fn model_decode(bytes: &[u8], n: usize, alphabet: usize, lanes: usize) -> usize {
    let mut m = AdaptiveModel::new(alphabet);
    let mut dec = LanedDecoder::new(bytes, lanes).expect("valid frame");
    let mut acc = 0usize;
    for _ in 0..n {
        acc ^= m.decode(&mut dec).expect("valid stream");
    }
    acc
}

/// Delta-like residual payload for the bit-packing kernel (small magnitudes
/// with occasional spikes, the width pattern the OR-fold scan sees).
fn residuals(n: usize) -> Vec<i64> {
    (0..n as u32)
        .map(|i| {
            let r = (i.wrapping_mul(2654435761) >> 18) as i64;
            if i % 97 == 0 {
                r * 5 - 8000
            } else {
                (r % 37) - 18
            }
        })
        .collect()
}

fn context_encode(stream: &[(usize, usize)], contexts: usize, alphabet: usize) -> Vec<u8> {
    let mut m = ContextModel::new(contexts, alphabet);
    let mut enc = RangeEncoder::new();
    for &(c, s) in stream {
        m.encode(&mut enc, c, s);
    }
    enc.finish()
}

/// Uniform 16-bit payload: every `encode` call renormalizes, so this is a
/// renorm-bandwidth measurement more than a modeling one.
fn range_renorm(vals: &[u16]) -> Vec<u8> {
    let mut enc = RangeEncoder::new();
    for &v in vals {
        enc.encode_bits(v as u64, 16);
    }
    enc.finish()
}

/// A ring-structured synthetic sweep: `rings` polar lines of `per_ring`
/// azimuthal steps with mild radial texture and periodic dropouts, the shape
/// the organize grid and consensus window are built for.
fn ring_cloud(
    rings: usize,
    per_ring: usize,
    u_theta: f64,
    u_phi: f64,
) -> (Vec<Spherical>, Vec<Point3>) {
    let mut sph = Vec::with_capacity(rings * per_ring);
    for ring in 0..rings {
        let phi = 0.3 + ring as f64 * u_phi;
        for k in 0..per_ring {
            if (ring + k) % 23 == 0 {
                continue; // dropout: forces seed/extend decisions
            }
            let theta = k as f64 * u_theta;
            let r = 8.0 + ((k / 40) % 5) as f64 * 3.0 + (k % 7) as f64 * 0.01;
            sph.push(Spherical { r, theta, phi });
        }
    }
    let cart: Vec<Point3> = sph.iter().map(|s| s.to_cartesian()).collect();
    (sph, cart)
}

/// Quantized ring polylines for the radial kernel, sorted by head (φ, θ) the
/// way the organize stage emits them.
fn ring_lines(rings: usize, per_ring: usize) -> Vec<Vec<[i64; 3]>> {
    (0..rings as i64)
        .map(|ring| {
            (0..per_ring as i64)
                .map(|k| {
                    let r = 4000 + ((k / 40) % 5) * 1500 + (k % 7) + ring % 3;
                    [k * 10, ring * 4, r]
                })
                .collect()
        })
        .collect()
}

/// The DEN input: one fixed kitti-city frame (scene layout 0, position 0)
/// and the encoder's default split parameters at q = 2 cm.
fn den_frame() -> (Vec<Point3>, ClusterParams) {
    let cloud = dbgc_lidar_sim::frame(dbgc_lidar_sim::ScenePreset::KittiCity, 0, 0);
    (cloud.points().to_vec(), dbgc::DbgcConfig::with_error_bound(0.02).cluster_params())
}

/// A group's quantized polylines with its `(TH_φ, TH_r)`.
type Group = (Vec<Vec<[i64; 3]>>, i64, i64);

/// Streams of [`den_frame`]'s compressed frame (narrow profile, q = 2 cm).
struct FrameStreams {
    /// Every group's radial tail residuals as one rc int frame: the
    /// 256-symbol lead/continuation varint models, on real statistics.
    varint: Vec<u8>,
    /// Raw varint bytes in `varint` (the symbols it decodes).
    varint_syms: usize,
    /// Occupancy codes of the frame's dense points, minus 1, range-coded
    /// through the dense section's 255-symbol model.
    occupancy: Vec<u8>,
    occupancy_syms: usize,
    /// The organized, quantized sparse groups.
    groups: Vec<Group>,
    group_points: usize,
}

fn frame_streams() -> FrameStreams {
    let (points, _) = den_frame();
    let cloud = dbgc_geom::PointCloud::from_points(points);
    let q = 0.02;
    let bytes = dbgc::Dbgc::with_error_bound(q).compress(&cloud).expect("frame compresses").bytes;
    let h = parse_header(&bytes).expect("valid header");
    let mut r = ByteReader::new(&bytes[h.header_len..]);
    let dense = read_dense(&mut r, &h, h.declared_points).expect("valid dense section").points;
    let mut groups = Vec::new();
    for _ in 0..h.n_groups {
        let (cfg, _) = group_codec_cfg(&h, read_group_r_max(&mut r).expect("valid group"));
        let lines = decode_group(&mut r, &cfg).expect("valid group");
        groups.push((lines, cfg.th_phi, cfg.th_r));
    }
    let group_points = groups.iter().map(|g| g.0.iter().map(Vec::len).sum::<usize>()).sum();

    let tails: Vec<i64> = groups
        .iter()
        .flat_map(|(lines, tp, tr)| encode_radial(lines, *tp, *tr).tail_nabla)
        .collect();
    let mut varint = Vec::new();
    compress_ints_rc(&mut varint, &tails, 1);
    let mut raw = Vec::new();
    for &v in &tails {
        dbgc_codec::varint::write_ivarint(&mut raw, v);
    }

    let codes = Octree::build(&dense, q).expect("dense points").occupancy_codes();
    let mut model = AdaptiveModel::new(255);
    let mut enc = LanedEncoder::new(1);
    for &(_, code) in &codes {
        model.encode(&mut enc, code as usize - 1);
    }
    FrameStreams {
        varint,
        varint_syms: raw.len(),
        occupancy: enc.finish(),
        occupancy_syms: codes.len(),
        groups,
        group_points,
    }
}

fn varint_decode(f: &FrameStreams) -> usize {
    decompress_ints_rc(&mut ByteReader::new(&f.varint), 1).expect("valid frame").len()
}

fn occupancy_decode(f: &FrameStreams) -> usize {
    model_decode(&f.occupancy, f.occupancy_syms, 255, 1)
}

fn frame_radial_encode(f: &FrameStreams, streams: &mut RadialStreams) -> usize {
    f.groups
        .iter()
        .map(|(lines, tp, tr)| {
            encode_radial_into(lines, *tp, *tr, streams);
            streams.tail_nabla.len()
        })
        .sum()
}

const MODEL_SYMS: usize = 1 << 16;
const RENORM_VALS: usize = 1 << 15;
const RINGS: usize = 64;
const PER_RING: usize = 500;
const U_THETA: f64 = 0.002;
const U_PHI: f64 = 0.008;

/// The model decode benches: criterion id, the gauge `perf_gate` compares
/// against the committed snapshot, and the lane count.
const MODEL_DECODES: [(&str, &str, usize); 3] = [
    ("decode", "model.decode.melem_per_s", 1),
    ("dual_decode", "model.dual_decode.melem_per_s", 2),
    ("wide_decode", "model.wide_decode.melem_per_s", 4),
];

fn bench_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("model");
    let alphabet = 64usize;
    let syms = skewed_symbols(MODEL_SYMS, alphabet);
    g.throughput(Throughput::Elements(syms.len() as u64));
    g.bench_with_input(BenchmarkId::new("encode", alphabet), &syms, |b, syms| {
        b.iter(|| model_encode(syms, alphabet, 1));
    });
    let stream: Vec<(usize, usize)> = syms.iter().enumerate().map(|(i, &s)| (i % 16, s)).collect();
    g.bench_with_input(BenchmarkId::new("context_encode", "16x64"), &stream, |b, stream| {
        b.iter(|| context_encode(stream, 16, alphabet));
    });
    for (name, _, lanes) in MODEL_DECODES {
        let bytes = model_encode(&syms, alphabet, lanes);
        g.bench_with_input(BenchmarkId::new(name, alphabet), &bytes, |b, bytes| {
            b.iter(|| model_decode(bytes, syms.len(), alphabet, lanes));
        });
    }
    let frame = frame_streams();
    g.throughput(Throughput::Elements(frame.varint_syms as u64));
    g.bench_with_input(BenchmarkId::new("varint_decode", 256), &frame, |b, f| {
        b.iter(|| varint_decode(f));
    });
    g.throughput(Throughput::Elements(frame.occupancy_syms as u64));
    g.bench_with_input(BenchmarkId::new("occupancy_decode", 255), &frame, |b, f| {
        b.iter(|| occupancy_decode(f));
    });
    g.finish();
}

fn bench_bitpack(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitpack");
    let vals = residuals(MODEL_SYMS);
    g.throughput(Throughput::Elements(vals.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| bitpack_encode(&vals));
    });
    let packed = bitpack_encode(&vals);
    g.bench_function("decode", |b| {
        b.iter(|| bitpack_decode(&packed).expect("valid"));
    });
    g.bench_function("delta_encode", |b| {
        b.iter(|| delta_encode(&vals));
    });
    let deltas = delta_encode(&vals);
    g.bench_function("delta_decode", |b| {
        b.iter(|| delta_decode(&deltas));
    });
    g.finish();
}

fn bench_range(c: &mut Criterion) {
    let mut g = c.benchmark_group("range");
    let vals: Vec<u16> =
        (0..RENORM_VALS as u32).map(|i| (i.wrapping_mul(40503) >> 8) as u16).collect();
    g.throughput(Throughput::Bytes(2 * vals.len() as u64));
    g.bench_with_input(BenchmarkId::new("renorm_bits", 16), &vals, |b, vals| {
        b.iter(|| range_renorm(vals));
    });
    g.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse");
    let (sph, cart) = ring_cloud(RINGS, PER_RING, U_THETA, U_PHI);
    g.throughput(Throughput::Elements(sph.len() as u64));
    let mut scratch = OrganizeScratch::default();
    g.bench_function("organize", |b| {
        b.iter(|| organize_sparse_points_with(&sph, &cart, U_THETA, U_PHI, 3, &mut scratch));
    });
    let lines = ring_lines(RINGS, PER_RING);
    let points: usize = lines.iter().map(Vec::len).sum();
    g.throughput(Throughput::Elements(points as u64));
    let mut streams = RadialStreams::default();
    g.bench_function("radial_encode", |b| {
        b.iter(|| {
            encode_radial_into(&lines, 8, 50, &mut streams);
            black_box(streams.tail_nabla.len())
        });
    });
    let frame = frame_streams();
    g.throughput(Throughput::Elements(frame.group_points as u64));
    g.bench_function("radial_encode_frame", |b| {
        b.iter(|| black_box(frame_radial_encode(&frame, &mut streams)));
    });
    g.finish();
}

/// The approximate density split, serial (`threads = 1`), as the
/// compressor runs it on one core.
fn bench_clustering(c: &mut Criterion) {
    let mut g = c.benchmark_group("clustering");
    let (points, params) = den_frame();
    g.throughput(Throughput::Elements(points.len() as u64));
    g.bench_function("approx", |b| {
        b.iter(|| black_box(approx_cluster(&points, params, 1).dense.len()));
    });
    g.finish();
}

/// Mean seconds per call over an adaptively sized batch (quiet pass for the
/// JSON snapshot; criterion's printed numbers come from the groups above).
fn secs_per_call<F: FnMut()>(mut f: F) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().max(std::time::Duration::from_nanos(20));
    let batch =
        (std::time::Duration::from_millis(40).as_nanos() / once.as_nanos()).clamp(1, 1 << 18);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / batch as f64);
    }
    best
}

fn write_snapshot() {
    let collector = dbgc::metrics::Collector::new();
    let alphabet = 64usize;
    let syms = skewed_symbols(MODEL_SYMS, alphabet);
    let n = syms.len() as f64;
    let s = secs_per_call(|| {
        black_box(model_encode(&syms, alphabet, 1));
    });
    collector.set_gauge("model.encode.melem_per_s", n / s / 1e6);
    for (_, gauge, lanes) in MODEL_DECODES {
        let bytes = model_encode(&syms, alphabet, lanes);
        let s = secs_per_call(|| {
            black_box(model_decode(&bytes, syms.len(), alphabet, lanes));
        });
        collector.set_gauge(gauge, n / s / 1e6);
    }

    let frame = frame_streams();
    let s = secs_per_call(|| {
        black_box(varint_decode(&frame));
    });
    collector.set_gauge("model.varint_decode.melem_per_s", frame.varint_syms as f64 / s / 1e6);
    let s = secs_per_call(|| {
        black_box(occupancy_decode(&frame));
    });
    collector
        .set_gauge("model.occupancy_decode.melem_per_s", frame.occupancy_syms as f64 / s / 1e6);

    let resid = residuals(MODEL_SYMS);
    let s = secs_per_call(|| {
        black_box(bitpack_encode(&resid));
    });
    collector.set_gauge("bitpack.encode.melem_per_s", resid.len() as f64 / s / 1e6);
    let packed = bitpack_encode(&resid);
    let s = secs_per_call(|| {
        black_box(bitpack_decode(&packed).expect("valid"));
    });
    collector.set_gauge("bitpack.decode.melem_per_s", resid.len() as f64 / s / 1e6);
    let s = secs_per_call(|| {
        black_box(delta_encode(&resid));
    });
    collector.set_gauge("delta.encode.melem_per_s", resid.len() as f64 / s / 1e6);
    let deltas = delta_encode(&resid);
    let s = secs_per_call(|| {
        black_box(delta_decode(&deltas));
    });
    collector.set_gauge("delta.decode.melem_per_s", resid.len() as f64 / s / 1e6);

    let vals: Vec<u16> =
        (0..RENORM_VALS as u32).map(|i| (i.wrapping_mul(40503) >> 8) as u16).collect();
    let s = secs_per_call(|| {
        black_box(range_renorm(&vals));
    });
    collector.set_gauge("range.renorm.mib_per_s", 2.0 * vals.len() as f64 / s / (1 << 20) as f64);

    let (sph, cart) = ring_cloud(RINGS, PER_RING, U_THETA, U_PHI);
    let mut scratch = OrganizeScratch::default();
    let s = secs_per_call(|| {
        black_box(
            organize_sparse_points_with(&sph, &cart, U_THETA, U_PHI, 3, &mut scratch)
                .polylines
                .len(),
        );
    });
    collector.set_gauge("sparse.organize.melem_per_s", sph.len() as f64 / s / 1e6);

    let lines = ring_lines(RINGS, PER_RING);
    let points: usize = lines.iter().map(Vec::len).sum();
    let mut streams = RadialStreams::default();
    let s = secs_per_call(|| {
        encode_radial_into(&lines, 8, 50, &mut streams);
        black_box(streams.tail_nabla.len());
    });
    collector.set_gauge("sparse.radial_encode.melem_per_s", points as f64 / s / 1e6);
    let s = secs_per_call(|| {
        black_box(frame_radial_encode(&frame, &mut streams));
    });
    collector
        .set_gauge("sparse.radial_encode_frame.melem_per_s", frame.group_points as f64 / s / 1e6);

    let (points, params) = den_frame();
    let s = secs_per_call(|| {
        black_box(approx_cluster(&points, params, 1).dense.len());
    });
    collector.set_gauge("clustering.approx.melem_per_s", points.len() as f64 / s / 1e6);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match std::fs::write(root.join("BENCH_kernels.json"), collector.snapshot().to_json()) {
        Ok(()) => println!("wrote BENCH_kernels.json"),
        Err(e) => eprintln!("warning: could not write BENCH_kernels.json: {e}"),
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_model(&mut c);
    bench_range(&mut c);
    bench_bitpack(&mut c);
    bench_sparse(&mut c);
    bench_clustering(&mut c);
    write_snapshot();
}
