//! Seeded inputs: simulator frames from a fixed set of scene layouts.
//!
//! The layouts play the part of a recorded dataset: they are the same on
//! every run, and the run seed picks where along each drive the frames are
//! taken (and so the scan noise). A seed that picked the layouts instead
//! would make a run of one scene a different workload from the next: one
//! layout's bits per point and stage times differ by up to ±7% from
//! another's, wider than the bounds the metrics need.

use std::time::Instant;

use dbgc_geom::PointCloud;
use dbgc_lidar_sim::{frame, ScenePreset};

/// Drive positions (1 m apart, from the start of the built-up stretch) a
/// seed picks frames from.
const DRIVE_POSITIONS: u64 = 40;

/// Frames synthesized by one run of `frames`, for the per-layer
/// `lidar_sim.gen_ms_per_frame`.
#[derive(Debug, Default, Clone, Copy)]
pub struct GenCost {
    pub frames: usize,
    pub seconds: f64,
}

impl GenCost {
    pub fn ms_per_frame(&self) -> f64 {
        self.seconds * 1e3 / self.frames as f64
    }
}

/// `count` frames of `preset` for run `seed`: frame `i` is a scan of layout
/// `i` at a drive position the seed draws.
pub fn frames(preset: ScenePreset, seed: u64, count: usize, cost: &mut GenCost) -> Vec<PointCloud> {
    let t = Instant::now();
    let mut rng = Rng::new(seed ^ preset as u64);
    let out = (0..count as u64)
        .map(|layout| frame(preset, layout, rng.below(DRIVE_POSITIONS) as u32))
        .collect();
    cost.frames += count;
    cost.seconds += t.elapsed().as_secs_f64();
    out
}

/// Times to repeat a workload's set-up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Run `setup` [`SETUP_REPEATS`] times, keeping the last result, and return
/// it with the median wall time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous result first so peak memory holds one copy.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), crate::stats::median(&times))
}

/// A tiny deterministic generator for drive positions and query mixes
/// (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_BE7C_4A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
