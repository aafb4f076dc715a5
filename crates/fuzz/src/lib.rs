//! Deterministic structure-aware corruption fuzzing for the DBGC decoders.
//!
//! The engine takes *valid* bitstreams produced by the real encoders (seeded
//! simulator frames), applies seed-driven mutations — bit flips, truncation,
//! length-field tampering, section splicing, random bytes — and asserts the
//! decoders' hostile-input contract: every decode returns `Err` or a valid
//! point cloud; never a panic, a hang, or an unbounded allocation.
//!
//! Everything is driven by the workspace `rand` shim, so a `(seed, iters)`
//! pair replays bit-identically on any machine; failures are minimized and
//! written to the regression corpus under `tests/tests/corpus/`.

#![warn(missing_docs)]

use dbgc_codec::varint::{write_uvarint, ByteReader};
use dbgc_geom::{Point3, SensorMeta};
use dbgc_lidar_sim::{LidarSimulator, NoiseModel, ScenePreset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decoder under test. Corpus file names embed [`Target::name`], so replay
/// knows which decoder each regression input belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `dbgc::decompress` on a full DBGC stream, which must accept exactly
    /// what `dbgc_store::decode_annotated` accepts (see [`decode_target`]).
    Dbgc,
    /// The baseline octree coder.
    OctreeBaseline,
    /// The parent-context octree coder (Octree_i).
    OctreeParent,
    /// The 2D quadtree coder.
    Quadtree,
    /// The kd-tree baseline coder.
    Kdtree,
    /// The G-PCC-style octree coder.
    Gpcc,
    /// The wire protocol reader (resynchronizing `FrameReader` drain).
    Wire,
    /// The chaos transport: bytes are a [`dbgc_net::FaultSchedule`] driving a
    /// resilient client into a one-tenant fleet, held to the safety
    /// invariant.
    WireFault,
    /// The queryable archive: bytes are ingested into a
    /// [`dbgc_store::FrameStore`] and queried; mutated index trailers must
    /// degrade to the full-decode fallback, never desync query results.
    StoreIndex,
}

impl Target {
    /// Every fuzzed decoder.
    pub const ALL: [Target; 9] = [
        Target::Dbgc,
        Target::OctreeBaseline,
        Target::OctreeParent,
        Target::Quadtree,
        Target::Kdtree,
        Target::Gpcc,
        Target::Wire,
        Target::WireFault,
        Target::StoreIndex,
    ];

    /// Stable name used in corpus file names and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Target::Dbgc => "dbgc",
            Target::OctreeBaseline => "octree",
            Target::OctreeParent => "octree-parent",
            Target::Quadtree => "quadtree",
            Target::Kdtree => "kdtree",
            Target::Gpcc => "gpcc",
            Target::Wire => "wire",
            Target::WireFault => "wirefault",
            Target::StoreIndex => "store-index",
        }
    }

    /// Inverse of [`Target::name`].
    pub fn from_name(name: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name() == name)
    }
}

fn finite(points: &[Point3]) -> Result<(), String> {
    match points.iter().position(|p| ![p.x, p.y, p.z].iter().all(|v| v.is_finite())) {
        None => Ok(()),
        Some(i) => Err(format!("decoded point {i} is not finite")),
    }
}

/// Run `bytes` through `target`'s decoder and check the hostile-input
/// contract: `Err` is fine, `Ok` must carry only finite points. Panics,
/// hangs, and allocation blowups are the *harness's* job to catch — this
/// function only validates what a successful decode returned.
pub fn decode_target(target: Target, bytes: &[u8]) -> Result<(), String> {
    match target {
        Target::Dbgc => {
            let cloud = dbgc::decompress(bytes).map(|(cloud, _)| cloud);
            // The store's reference decode strips a corrupt trailer that
            // `decompress` refuses; on every other input the two accept the
            // same streams and yield the same points in the same order.
            if !matches!(dbgc::split_index_trailer(bytes), dbgc::IndexTrailer::Corrupt { .. }) {
                let bits = |p: &Point3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
                match (&cloud, dbgc_store::decode_annotated(bytes)) {
                    (Ok(c), Ok(a))
                        if c.iter().map(bits).eq(a.points.iter().map(|p| bits(&p.pos))) => {}
                    (Err(_), Err(_)) => {}
                    (c, a) => {
                        return Err(format!(
                            "decompress and decode_annotated disagree: {} vs {}",
                            c.as_ref().map_or("Err".into(), |c| format!("{} points", c.len())),
                            a.map_or("Err".into(), |a| format!("{} points", a.points.len())),
                        ))
                    }
                }
            }
            match cloud {
                Ok(cloud) => finite(cloud.points()),
                Err(_) => Ok(()),
            }
        }
        Target::OctreeBaseline => match dbgc_octree::OctreeCodec::baseline().decode(bytes) {
            Ok(dec) => finite(&dec.points),
            Err(_) => Ok(()),
        },
        Target::OctreeParent => match dbgc_octree::OctreeCodec::parent_context().decode(bytes) {
            Ok(dec) => finite(&dec.points),
            Err(_) => Ok(()),
        },
        Target::Quadtree => match dbgc_octree::QuadtreeCodec.decode(bytes) {
            Ok(dec) => {
                match dec.points.iter().position(|(x, y)| !x.is_finite() || !y.is_finite()) {
                    None => Ok(()),
                    Some(i) => Err(format!("decoded point {i} is not finite")),
                }
            }
            Err(_) => Ok(()),
        },
        Target::Kdtree => match dbgc_kdtree::KdTreeCodec.decode(bytes) {
            Ok(dec) => finite(&dec.points),
            Err(_) => Ok(()),
        },
        Target::Gpcc => match dbgc_gpcc::GpccCodec.decode(bytes) {
            Ok(dec) => finite(&dec.points),
            Err(_) => Ok(()),
        },
        Target::Wire => {
            // Drain the whole byte stream through the resynchronizing
            // reader; any outcome short of a panic/hang is acceptable.
            let mut reader = dbgc_net::FrameReader::new(bytes);
            while reader.next_frame().is_ok() {}
            Ok(())
        }
        Target::WireFault => {
            // The input is a serialized fault schedule. Decoding is total
            // (hostile bytes clamp to a valid schedule), and the schedule
            // then drives a resilient client over a faulty link into a
            // one-tenant fleet. The contract is the chaos safety invariant:
            // whatever the schedule destroyed, the tenant holds an
            // exactly-once in-order prefix with intact payloads and
            // partitioned counts.
            let schedule = dbgc_net::FaultSchedule::from_bytes(bytes);
            let config = dbgc_net::FleetChaosConfig::fuzz(0);
            dbgc_net::run_fleet_chaos_with_schedule(&config, schedule).verify_safety()
        }
        Target::StoreIndex => {
            // Contract: ingest+query never panic or overallocate, and
            // whenever the archive answers at all, its answer equals the
            // full-decode oracle — a tampered index may only cost
            // performance (fallback), never correctness.
            use dbgc_store::{decode_annotated, DensityClass, FrameStore, Query};
            let mut store = FrameStore::new();
            if store.ingest(bytes.to_vec(), 0).is_err() {
                return Ok(());
            }
            let queries = [
                Query::All,
                Query::Aabb(dbgc_geom::Aabb {
                    min: Point3::new(-12.0, -12.0, -4.0),
                    max: Point3::new(12.0, 12.0, 4.0),
                }),
                Query::not(Query::DensityClass(DensityClass::Dense)),
            ];
            let oracle = decode_annotated(bytes);
            for q in queries {
                match (store.query(&q), &oracle) {
                    // On any fully decodable stream the partial path must
                    // answer, and answer identically.
                    (Ok(res), Ok(oracle)) => {
                        let want: Vec<Point3> = oracle
                            .points
                            .iter()
                            .filter(|p| q.matches(p, 0))
                            .map(|p| p.pos)
                            .collect();
                        let got: Vec<Point3> = res.points.iter().map(|r| r.point.pos).collect();
                        if got != want {
                            return Err(format!(
                                "query {q:?} returned {} points, oracle {}",
                                got.len(),
                                want.len()
                            ));
                        }
                        finite(&got)?;
                    }
                    (Err(e), Ok(_)) => {
                        return Err(format!("oracle succeeded but query failed: {e}"))
                    }
                    // Oracle can't decode the whole stream. A query may
                    // still answer from the sections that are intact (a
                    // skipped section's corruption is invisible to a
                    // partial read, by design) — any finite answer or a
                    // clean error is acceptable.
                    (Ok(res), Err(_)) => {
                        finite(&res.points.iter().map(|r| r.point.pos).collect::<Vec<_>>())?;
                    }
                    (Err(_), Err(_)) => {}
                }
            }
            Ok(())
        }
    }
}

/// A seed bitstream: a valid encoder output for one target.
#[derive(Debug, Clone)]
pub struct SeedInput {
    /// Which decoder this stream belongs to.
    pub target: Target,
    /// The valid bitstream.
    pub bytes: Vec<u8>,
}

/// Build one valid bitstream per target from a deterministic simulator frame.
///
/// The frame is reduced-resolution (fast in debug builds) but structurally
/// real: rings, objects, outliers. `seed` varies the scene.
pub fn build_seed_inputs(seed: u64) -> Vec<SeedInput> {
    build_seed_inputs_sized(seed, 220)
}

/// [`build_seed_inputs`] with an explicit azimuth resolution; the regression
/// corpus uses small frames so checked-in files stay a few KB each.
pub fn build_seed_inputs_sized(seed: u64, h_samples: u32) -> Vec<SeedInput> {
    let presets = [ScenePreset::KittiCity, ScenePreset::KittiRoad, ScenePreset::ApolloUrban];
    let preset = presets[(seed % presets.len() as u64) as usize];
    let meta = SensorMeta { h_samples, ..preset.sensor_meta() };
    let sim = LidarSimulator::new(meta, NoiseModel::realistic());
    let cloud = sim.scan(&preset.build_scene(seed), Point3::ZERO, seed);
    let points: Vec<Point3> = cloud.points().to_vec();
    let q = 0.02;

    let mut cfg = dbgc::DbgcConfig::with_error_bound(q);
    cfg.sensor = meta;
    let indexed_bytes = dbgc::Dbgc::new(cfg.clone().with_spatial_index(true))
        .compress(&cloud)
        .expect("seed frame compresses")
        .bytes;
    // Dual (version 2: two-lane occupancy, one-lane sparse frames) and wide
    // (version 3: four lanes everywhere) streams ride along as extra Dbgc
    // seeds, so mutations and regression inputs exercise every lane layout
    // (per-lane renormalization, lane-length framing) as deeply as v1.
    let profile_bytes = |profile| {
        dbgc::Dbgc::new(cfg.clone().with_entropy_profile(profile))
            .compress(&cloud)
            .expect("seed frame compresses")
            .bytes
    };
    let dual_bytes = profile_bytes(dbgc::EntropyProfile::Dual);
    let wide_bytes = profile_bytes(dbgc::EntropyProfile::Wide);
    let dbgc_bytes = dbgc::Dbgc::new(cfg).compress(&cloud).expect("seed frame compresses").bytes;

    let xy: Vec<(f64, f64)> = points.iter().map(|p| (p.x, p.y)).collect();
    let mut wire = Vec::new();
    for (i, payload) in [&dbgc_bytes, &dbgc_bytes].iter().enumerate() {
        dbgc_net::write_frame(
            &mut wire,
            &dbgc_net::WireFrame { sequence: i as u32, payload: (*payload).clone() },
        )
        .expect("in-memory write");
    }

    vec![
        SeedInput { target: Target::Dbgc, bytes: dbgc_bytes },
        SeedInput { target: Target::Dbgc, bytes: dual_bytes },
        SeedInput { target: Target::Dbgc, bytes: wide_bytes },
        SeedInput {
            target: Target::OctreeBaseline,
            bytes: dbgc_octree::OctreeCodec::baseline().encode(&points, q).bytes,
        },
        SeedInput {
            target: Target::OctreeParent,
            bytes: dbgc_octree::OctreeCodec::parent_context().encode(&points, q).bytes,
        },
        SeedInput {
            target: Target::Quadtree,
            bytes: dbgc_octree::QuadtreeCodec.encode(&xy, q).bytes,
        },
        SeedInput {
            target: Target::Kdtree,
            bytes: dbgc_kdtree::KdTreeCodec.encode(&points, q).bytes,
        },
        SeedInput { target: Target::Gpcc, bytes: dbgc_gpcc::GpccCodec.encode(&points, q).bytes },
        SeedInput { target: Target::Wire, bytes: wire },
        SeedInput {
            target: Target::WireFault,
            bytes: dbgc_net::FleetChaosConfig::fuzz(seed).schedule().to_bytes(),
        },
        SeedInput { target: Target::StoreIndex, bytes: indexed_bytes },
    ]
}

/// The seed-driven mutation engine.
#[derive(Debug)]
pub struct Mutator {
    rng: StdRng,
}

/// Names of the mutation strategies, for reporting.
pub const MUTATIONS: [&str; 8] = [
    "bit-flip",
    "byte-noise",
    "truncate",
    "extend",
    "length-tamper",
    "splice",
    "duplicate",
    "fill-run",
];

impl Mutator {
    /// A mutator replaying deterministically for `seed`.
    pub fn new(seed: u64) -> Mutator {
        Mutator { rng: StdRng::seed_from_u64(seed) }
    }

    /// Mutate `base` into a hostile variant; `donor` supplies foreign bytes
    /// for splicing (typically another target's valid stream). Returns the
    /// mutated bytes and the strategy name.
    pub fn mutate(&mut self, base: &[u8], donor: &[u8]) -> (Vec<u8>, &'static str) {
        if base.is_empty() {
            let n = self.rng.gen_range(1usize..64);
            return ((0..n).map(|_| self.rng.next_u64() as u8).collect(), "byte-noise");
        }
        let kind = MUTATIONS[self.rng.gen_range(0usize..MUTATIONS.len())];
        let mut out = base.to_vec();
        match kind {
            "bit-flip" => {
                for _ in 0..self.rng.gen_range(1usize..=16) {
                    let i = self.rng.gen_range(0usize..out.len());
                    out[i] ^= 1 << self.rng.gen_range(0u32..8);
                }
            }
            "byte-noise" => {
                for _ in 0..self.rng.gen_range(1usize..=8) {
                    let i = self.rng.gen_range(0usize..out.len());
                    out[i] = self.rng.next_u64() as u8;
                }
            }
            "truncate" => out.truncate(self.rng.gen_range(0usize..out.len())),
            "extend" => {
                for _ in 0..self.rng.gen_range(1usize..=64) {
                    out.push(self.rng.next_u64() as u8);
                }
            }
            "length-tamper" => self.tamper_varint(&mut out),
            "splice" => {
                // Replace a random range with a random range of the donor.
                let src = random_range(&mut self.rng, donor.len().max(1));
                let dst = random_range(&mut self.rng, out.len());
                let chunk: Vec<u8> = donor.get(src).unwrap_or(&[]).to_vec();
                out.splice(dst, chunk);
            }
            "duplicate" => {
                let src = random_range(&mut self.rng, out.len());
                let chunk = out[src].to_vec();
                let at = self.rng.gen_range(0usize..=out.len());
                out.splice(at..at, chunk);
            }
            "fill-run" => {
                let range = random_range(&mut self.rng, out.len());
                let fill = [0x00, 0xFF, 0x80][self.rng.gen_range(0usize..3)];
                out[range].fill(fill);
            }
            _ => unreachable!("mutation list is exhaustive"),
        }
        (out, kind)
    }

    /// Structure-aware length tampering: find a decodable varint at a random
    /// offset and rewrite it with a hostile value, shifting the tail.
    fn tamper_varint(&mut self, out: &mut Vec<u8>) {
        for _ in 0..8 {
            let at = self.rng.gen_range(0usize..out.len());
            let mut r = ByteReader::new(&out[at..]);
            let Ok(v) = r.read_uvarint() else { continue };
            let consumed = r.position();
            let hostile = match self.rng.gen_range(0u32..4) {
                0 => v.wrapping_mul(self.rng.gen_range(2u64..=1024)),
                1 => v.wrapping_add(self.rng.gen_range(1u64..=255)),
                2 => v.saturating_sub(self.rng.gen_range(1u64..=255)),
                _ => u64::MAX >> self.rng.gen_range(0u32..40),
            };
            let mut patched = out[..at].to_vec();
            write_uvarint(&mut patched, hostile);
            patched.extend_from_slice(&out[at + consumed..]);
            *out = patched;
            return;
        }
        // No decodable varint found in 8 probes: fall back to a byte flip.
        let i = self.rng.gen_range(0usize..out.len());
        out[i] ^= 0xFF;
    }
}

fn random_range(rng: &mut StdRng, len: usize) -> std::ops::Range<usize> {
    let a = rng.gen_range(0usize..=len);
    let b = rng.gen_range(0usize..=len);
    a.min(b)..a.max(b)
}

/// Shrink a failing input while `still_fails` keeps returning `true`.
///
/// Greedy ddmin-style reduction: repeated passes that drop exponentially
/// smaller chunks, bounded by `max_probes` decode attempts so minimizing a
/// hang (where every probe costs a timeout) stays cheap.
pub fn minimize(
    input: &[u8],
    still_fails: &mut dyn FnMut(&[u8]) -> bool,
    max_probes: usize,
) -> Vec<u8> {
    let mut best = input.to_vec();
    let mut probes = 0usize;
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 && probes < max_probes {
        let mut progressed = false;
        let mut start = 0usize;
        while start < best.len() && probes < max_probes {
            let end = (start + chunk).min(best.len());
            let mut candidate = best[..start].to_vec();
            candidate.extend_from_slice(&best[end..]);
            probes += 1;
            if !candidate.is_empty() && still_fails(&candidate) {
                best = candidate;
                progressed = true;
                // Retry the same offset: the next chunk slid into it.
            } else {
                start += chunk;
            }
        }
        if !progressed {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }
    best
}

/// Deterministic hostile inputs covering the historical decoder failure
/// classes: truncation inside entropy-coded payloads (the range coder used
/// to zero-fill), tampered count/length fields (used to drive unbounded
/// allocations and BFS blowups), and flipped wire bytes. Derived from valid
/// seed streams, so they exercise deep decode paths, not just header checks.
pub fn regression_inputs() -> Vec<(Target, &'static str, Vec<u8>)> {
    let mut out = Vec::new();
    for input in build_seed_inputs_sized(1, 64) {
        let bytes = &input.bytes;
        let n = bytes.len();
        // Truncations: inside the header, mid-payload, and just short of the
        // end (the range decoder's flush tail).
        for (label, cut) in
            [("trunc-head", n / 8), ("trunc-mid", n / 2), ("trunc-tail", n.saturating_sub(3))]
        {
            out.push((input.target, label, bytes[..cut].to_vec()));
        }
        // Tamper varints near the stream front with a huge value — counts,
        // lengths, and depths all live there. A handful per target keeps the
        // checked-in corpus small.
        let mut tampers = 0;
        for at in (0..n.min(80)).step_by(7) {
            if tampers >= 6 {
                break;
            }
            let mut r = ByteReader::new(&bytes[at..]);
            let Ok(_) = r.read_uvarint() else { continue };
            let consumed = r.position();
            let mut tampered = bytes[..at].to_vec();
            write_uvarint(&mut tampered, u64::MAX >> 8);
            tampered.extend_from_slice(&bytes[at + consumed..]);
            out.push((input.target, "count-tamper", tampered));
            tampers += 1;
        }
        // A burst of flipped bits mid-stream (desyncs entropy coders).
        let mut flipped = bytes.clone();
        for i in 0..8usize {
            let pos = n / 3 + i * 5;
            if pos < n {
                flipped[pos] ^= 0xA5;
            }
        }
        out.push((input.target, "bit-burst", flipped));
    }
    out
}

/// FNV-1a hash of `bytes`, used for stable corpus file names.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutator_is_deterministic() {
        let base: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let a: Vec<_> = {
            let mut m = Mutator::new(42);
            (0..50).map(|_| m.mutate(&base, &base).0).collect()
        };
        let b: Vec<_> = {
            let mut m = Mutator::new(42);
            (0..50).map(|_| m.mutate(&base, &base).0).collect()
        };
        assert_eq!(a, b);
        let c = Mutator::new(43).mutate(&base, &base).0;
        assert!(a[0] != c || a[1] != c, "different seeds should diverge");
    }

    #[test]
    fn mutations_actually_change_bytes() {
        let base: Vec<u8> = (0..500u32).map(|i| (i * 7) as u8).collect();
        let mut m = Mutator::new(7);
        let changed = (0..100).filter(|_| m.mutate(&base, &base).0 != base).count();
        assert!(changed > 90, "only {changed}/100 mutations changed the input");
    }

    #[test]
    fn seed_inputs_are_valid_streams() {
        for input in build_seed_inputs(1) {
            assert!(!input.bytes.is_empty(), "{} seed empty", input.target.name());
            decode_target(input.target, &input.bytes)
                .unwrap_or_else(|e| panic!("{} seed rejected: {e}", input.target.name()));
        }
    }

    #[test]
    fn minimizer_shrinks_while_preserving_failure() {
        // Failure = "contains byte 0xEE"; minimal reproducer is 1 byte.
        let mut input = vec![1u8; 300];
        input[137] = 0xEE;
        let out = minimize(&input, &mut |b: &[u8]| b.contains(&0xEE), 10_000);
        assert_eq!(out, vec![0xEE]);
    }

    #[test]
    fn smoke_fuzz_each_target() {
        // A miniature in-process fuzz run; the CI job drives far more
        // iterations through the binary.
        let seeds = build_seed_inputs(3);
        let mut m = Mutator::new(11);
        for round in 0..seeds.len() * 30 {
            let input = &seeds[round % seeds.len()];
            let donor = &seeds[(round + 1) % seeds.len()];
            let (mutated, kind) = m.mutate(&input.bytes, &donor.bytes);
            decode_target(input.target, &mutated).unwrap_or_else(|e| {
                panic!("{} violated contract under {kind}: {e}", input.target.name())
            });
        }
    }
}
