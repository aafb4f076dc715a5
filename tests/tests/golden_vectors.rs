//! Golden-vector conformance suite.
//!
//! `tests/golden/` holds one canonical compressed frame per scene preset at
//! q = 2 cm, produced from the deterministic reduced-resolution simulator
//! frames, plus a manifest of sizes and content hashes. The suite pins down
//! both directions of the format:
//!
//! * **compression reproduces the committed bytes** — any encoder change
//!   that shifts the bitstream (even a better one) must consciously re-bless;
//! * **decompression of the committed bytes is byte-exact** — the decoded
//!   cloud's coordinate bit pattern matches the manifest hash, so silent
//!   decoder drift is caught even when round-trip error bounds still hold.
//!
//! Regenerate after an intentional format change with:
//!
//! ```text
//! DBGC_BLESS=1 cargo test -p dbgc-integration-tests --test golden_vectors
//! ```

mod common;

use std::fmt::Write as _;
use std::path::PathBuf;

use common::{small_config, small_frame};
use dbgc_lidar_sim::ScenePreset;

/// Seed for the golden frames; arbitrary but frozen.
const SEED: u64 = 7;
/// The paper's typical error bound: 2 cm.
const Q: f64 = 0.02;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// FNV-1a 64-bit over a byte stream; no external hashing deps.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of a decoded cloud's exact coordinate bit pattern, in point order.
fn cloud_fnv(cloud: &dbgc_geom::PointCloud) -> u64 {
    fnv1a(
        cloud.points().iter().flat_map(|p| [p.x, p.y, p.z]).flat_map(|c| c.to_bits().to_le_bytes()),
    )
}

struct GoldenEntry {
    points: usize,
    bytes: usize,
    stream_fnv: u64,
    cloud_fnv: u64,
}

fn parse_manifest(text: &str) -> Vec<(String, GoldenEntry)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next().expect("preset name").to_string();
            let mut entry = GoldenEntry { points: 0, bytes: 0, stream_fnv: 0, cloud_fnv: 0 };
            for field in fields {
                let (k, v) = field.split_once('=').expect("k=v field");
                match k {
                    "points" => entry.points = v.parse().expect("points"),
                    "bytes" => entry.bytes = v.parse().expect("bytes"),
                    "stream_fnv" => {
                        entry.stream_fnv = u64::from_str_radix(v, 16).expect("stream_fnv")
                    }
                    "cloud_fnv" => entry.cloud_fnv = u64::from_str_radix(v, 16).expect("cloud_fnv"),
                    other => panic!("unknown manifest field {other}"),
                }
            }
            (name, entry)
        })
        .collect()
}

fn compress_preset(preset: ScenePreset, threads: usize) -> (dbgc::CompressedFrame, usize) {
    compress_preset_with(preset, threads, dbgc::EntropyProfile::Narrow)
}

fn compress_preset_with(
    preset: ScenePreset,
    threads: usize,
    profile: dbgc::EntropyProfile,
) -> (dbgc::CompressedFrame, usize) {
    let (cloud, meta) = small_frame(preset, SEED);
    let mut cfg = small_config(Q, meta).with_entropy_profile(profile);
    cfg.threads = threads;
    (dbgc::Dbgc::new(cfg).compress(&cloud).expect("compress"), cloud.len())
}

#[test]
fn golden_vectors_all_presets() {
    let dir = golden_dir();
    let bless = std::env::var_os("DBGC_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        let mut manifest = String::from(
            "# Golden DBGC streams: small_frame(preset, 7) at q = 0.02.\n\
             # Regenerate with DBGC_BLESS=1 (see golden_vectors.rs).\n",
        );
        for preset in ScenePreset::all() {
            let (frame, points) = compress_preset(preset, 0);
            let (decoded, _) = dbgc::decompress(&frame.bytes).expect("own stream");
            let _ = writeln!(
                manifest,
                "{} points={} bytes={} stream_fnv={:016x} cloud_fnv={:016x}",
                preset.name(),
                points,
                frame.bytes.len(),
                fnv1a(frame.bytes.iter().copied()),
                cloud_fnv(&decoded),
            );
            std::fs::write(dir.join(format!("{}.dbgc", preset.name())), &frame.bytes)
                .expect("write golden stream");
        }
        std::fs::write(dir.join("manifest.txt"), manifest).expect("write manifest");
        eprintln!("blessed {} golden vectors into {}", ScenePreset::all().len(), dir.display());
        return;
    }

    let manifest_text = std::fs::read_to_string(dir.join("manifest.txt"))
        .expect("golden manifest missing — run with DBGC_BLESS=1 to create it");
    let manifest = parse_manifest(&manifest_text);
    assert_eq!(manifest.len(), ScenePreset::all().len(), "manifest covers every preset");

    for preset in ScenePreset::all() {
        let entry = &manifest
            .iter()
            .find(|(name, _)| name == preset.name())
            .unwrap_or_else(|| panic!("{} missing from manifest", preset.name()))
            .1;
        let golden =
            std::fs::read(dir.join(format!("{}.dbgc", preset.name()))).expect("golden stream file");
        assert_eq!(golden.len(), entry.bytes, "{}: stream size", preset.name());
        assert_eq!(
            fnv1a(golden.iter().copied()),
            entry.stream_fnv,
            "{}: committed stream corrupted",
            preset.name()
        );

        // Compression reproduces the committed bytes (default thread count).
        let (frame, points) = compress_preset(preset, 0);
        assert_eq!(points, entry.points, "{}: simulator drifted", preset.name());
        assert_eq!(frame.bytes, golden, "{}: compressed bytes changed", preset.name());

        // Decompression of the committed bytes is byte-exact.
        let (decoded, _) = dbgc::decompress(&golden).expect("golden stream decodes");
        assert_eq!(decoded.len(), entry.points, "{}: decoded point count", preset.name());
        assert_eq!(
            cloud_fnv(&decoded),
            entry.cloud_fnv,
            "{}: decoded coordinates drifted",
            preset.name()
        );
    }
}

#[test]
fn golden_vectors_dual_profile() {
    profile_goldens(dbgc::EntropyProfile::Dual, "dual", 2);
}

#[test]
fn golden_vectors_wide_profile() {
    profile_goldens(dbgc::EntropyProfile::Wide, "wide", 3);
}

/// Goldens for a non-default entropy profile live beside the v1 set as
/// `{preset}-{tag}.dbgc` + `manifest_{tag}.txt`. Blessing them never
/// rewrites the v1 files, so v1 streams stay byte-identical by
/// construction; and a profile's stream must decode to the *same*
/// coordinate bit pattern as the narrow golden — the profile changes
/// transport, not reconstruction — so `cloud_fnv` is cross-checked against
/// the v1 manifest, not independently blessed.
fn profile_goldens(profile: dbgc::EntropyProfile, tag: &str, version: u8) {
    let dir = golden_dir();
    let narrow_manifest = std::fs::read_to_string(dir.join("manifest.txt"))
        .expect("v1 golden manifest missing — bless golden_vectors_all_presets first");
    let narrow = parse_manifest(&narrow_manifest);
    let manifest_path = dir.join(format!("manifest_{tag}.txt"));
    let stream_path = |preset: ScenePreset| dir.join(format!("{}-{tag}.dbgc", preset.name()));

    if std::env::var_os("DBGC_BLESS").is_some() {
        let mut manifest = format!(
            "# Golden {tag}-profile (version {version}) DBGC streams: small_frame(preset, 7)\n\
             # at q = 0.02, entropy_profile = {tag}. cloud_fnv must equal the v1\n\
             # manifest entry. Regenerate with DBGC_BLESS=1 (golden_vectors.rs).\n",
        );
        for preset in ScenePreset::all() {
            let (frame, points) = compress_preset_with(preset, 0, profile);
            assert_eq!(frame.bytes[4], version, "{tag} stream must carry version {version}");
            let (decoded, _) = dbgc::decompress(&frame.bytes).expect("own stream");
            let _ = writeln!(
                manifest,
                "{} points={} bytes={} stream_fnv={:016x} cloud_fnv={:016x}",
                preset.name(),
                points,
                frame.bytes.len(),
                fnv1a(frame.bytes.iter().copied()),
                cloud_fnv(&decoded),
            );
            std::fs::write(stream_path(preset), &frame.bytes).expect("write golden stream");
        }
        std::fs::write(&manifest_path, manifest).expect("write manifest");
        eprintln!(
            "blessed {} {tag} golden vectors into {}",
            ScenePreset::all().len(),
            dir.display()
        );
        return;
    }

    let manifest_text = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|_| panic!("{tag} golden manifest missing — run with DBGC_BLESS=1"));
    let manifest = parse_manifest(&manifest_text);
    assert_eq!(manifest.len(), ScenePreset::all().len(), "{tag} manifest covers every preset");

    for preset in ScenePreset::all() {
        let name = preset.name();
        let entry = &manifest
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from {tag} manifest"))
            .1;
        let narrow_entry = &narrow
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from v1 manifest"))
            .1;
        assert_eq!(
            entry.cloud_fnv, narrow_entry.cloud_fnv,
            "{name}: {tag} decode must reconstruct the identical cloud"
        );

        let golden = std::fs::read(stream_path(preset)).expect("golden stream file");
        assert_eq!(golden.len(), entry.bytes, "{name}: {tag} stream size");
        assert_eq!(golden[4], version, "{name}: {tag} golden must carry version {version}");
        assert_eq!(
            fnv1a(golden.iter().copied()),
            entry.stream_fnv,
            "{name}: committed {tag} stream corrupted"
        );

        let (frame, points) = compress_preset_with(preset, 0, profile);
        assert_eq!(points, entry.points, "{name}: simulator drifted");
        assert_eq!(frame.bytes, golden, "{name}: {tag} compressed bytes changed");

        let (decoded, _) = dbgc::decompress(&golden).expect("golden stream decodes");
        assert_eq!(decoded.len(), entry.points, "{name}: decoded point count");
        assert_eq!(
            cloud_fnv(&decoded),
            entry.cloud_fnv,
            "{name}: {tag} decoded coordinates drifted"
        );
    }
}

#[test]
fn golden_vectors_serial_path_matches() {
    // threads = 1 must produce the same committed bytes as the default
    // (parallel) path — the byte-identical guarantee, pinned to the goldens.
    let dir = golden_dir();
    if std::env::var_os("DBGC_BLESS").is_some() {
        return; // blessing happens in golden_vectors_all_presets
    }
    for preset in [ScenePreset::KittiCity, ScenePreset::FordCampus] {
        let golden =
            std::fs::read(dir.join(format!("{}.dbgc", preset.name()))).expect("golden stream file");
        let (frame, _) = compress_preset(preset, 1);
        assert_eq!(frame.bytes, golden, "{}: serial bytes differ from golden", preset.name());
    }
}
