//! `city-serial` and `road-wide`: the sensor host's encoder and the
//! server's decoder in a closed loop on one thread.

use std::time::Instant;

use dbgc::{Dbgc, DbgcConfig, EntropyProfile};
use dbgc_lidar_sim::ScenePreset;

use crate::inputs::{self, timed_setup};
use crate::stats::{blocked_rate, mean, paired_overhead, percentile, sorted};
use crate::trace::Trace;
use crate::{Outcome, Plan};

/// The paper's default error bound (2 cm).
pub const Q_XYZ: f64 = 0.02;

/// Every `VERIFY_EVERY`-th round trip is checked against the error bound.
const VERIFY_EVERY: usize = 8;

/// One codec workload: frames of `preset` compressed with `profile`.
pub fn run(
    preset: ScenePreset,
    profile: EntropyProfile,
    plan: &Plan,
    trace: Option<&Trace>,
) -> Outcome {
    let mut out = Outcome::default();
    let (frames, setup_s) =
        timed_setup(|| inputs::frames(preset, plan.seed, plan.frames, &mut out.layers.gen));
    out.setup_s = setup_s;
    let config = DbgcConfig::with_error_bound(Q_XYZ).with_threads(1).with_entropy_profile(profile);
    let dbgc = Dbgc::new(config);
    // Warm the thread-local group arena and scratch buffers.
    if let Ok(f) = dbgc.compress(&frames[0]) {
        let _ = dbgc::decompress(&f.bytes);
    }

    // Index 0: untraced round trips, 1: traced (only in a traced run,
    // where every other pass over the frames is traced, so both sides
    // see the same frames).
    let mut compress_ms: [Vec<f64>; 2] = Default::default();
    let mut decompress_ms: Vec<f64> = Vec::new();
    let mut round_trip_ms: Vec<f64> = Vec::new();
    let mut stream_bytes = vec![None; frames.len()];
    let start = Instant::now();
    let mut checks_s = 0.0;
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() - checks_s < plan.seconds {
        let k = i % frames.len();
        let cloud = &frames[k];
        let traced = trace.filter(|_| i / frames.len() % 2 == 1);
        let op = traced.map(|t| t.op("frame", i));
        out.attempted += 1;
        let t = Instant::now();
        let compressed = match traced {
            Some(t) => dbgc.compress_with_metrics(cloud, &t.collector),
            None => dbgc.compress(cloud),
        };
        let c_s = t.elapsed().as_secs_f64();
        let frame = match compressed {
            Ok(f) => f,
            Err(e) => {
                out.fail(format!("compress of frame {k} failed: {e}"));
                i += 1;
                continue;
            }
        };
        let t = Instant::now();
        let decoded = match traced {
            Some(t) => dbgc::decompress_with_metrics(&frame.bytes, &t.collector),
            None => dbgc::decompress(&frame.bytes),
        };
        let d_s = t.elapsed().as_secs_f64();
        drop(op);

        let checks = Instant::now();
        match decoded {
            Ok((restored, stats)) => {
                if restored.len() != cloud.len() {
                    out.fail(format!(
                        "frame {k}: decoded {} points, expected {}",
                        restored.len(),
                        cloud.len()
                    ));
                } else if i.is_multiple_of(VERIFY_EVERY) {
                    if let Err(e) = dbgc::verify_roundtrip(cloud, &restored, &frame, Q_XYZ) {
                        out.fail(format!("frame {k}: round trip out of bound: {e}"));
                    }
                }
                out.layers.decode.push(stats);
            }
            Err(e) => out.fail(format!("decompress of frame {k} failed: {e}")),
        }
        checks_s += checks.elapsed().as_secs_f64();

        stream_bytes[k] = Some(frame.bytes.len());
        out.layers.compress.push(frame.stats);
        compress_ms[traced.is_some() as usize].push(c_s * 1e3);
        if traced.is_none() {
            decompress_ms.push(d_s * 1e3);
            round_trip_ms.push((c_s + d_s) * 1e3);
        }
        i += 1;
    }

    let (bytes, points) = stream_bytes
        .iter()
        .zip(&frames)
        .filter_map(|(b, f)| b.map(|b| (b, f.len())))
        .fold((0usize, 0usize), |(b, p), (fb, fp)| (b + fb, p + fp));
    out.bits_per_point = bytes as f64 * 8.0 / points as f64;
    // One block per pass over the frames, so every block holds the same
    // work.
    out.ops_per_s = blocked_rate(&round_trip_ms, frames.len());
    let [untraced, traced] = compress_ms;
    if trace.is_some() {
        out.layers.trace_overhead_frac = paired_overhead(&untraced, &traced);
    }
    // Over every frame whose stage times `layers` holds.
    let all: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
    out.note("compress_ms_mean", mean(&all), "ms");
    let d = sorted(&decompress_ms);
    out.note("decompress_ms_p50", percentile(&d, 50.0), "ms");
    out.note("decompress_ms_p95", percentile(&d, 95.0), "ms");
    out.latency_ms = untraced;
    out
}
