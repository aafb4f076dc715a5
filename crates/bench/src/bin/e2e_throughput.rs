//! §4.4 end-to-end evaluation: throughput and latency of the full DBGC
//! system — sensor → client (100BASE-TX) → compress → 4G uplink → server →
//! decompress → store (HDD) — on the KITTI city stream (10 fps, ~100 K
//! points/frame).
//!
//! Measures single-frame compression twice — fully serial (`threads = 1`)
//! and intra-frame parallel (`threads = 0`, process-wide pool at hardware
//! size) — and verifies the two bitstreams are byte-identical. Stage times
//! are wall-clock in both modes (under parallelism the fan-out's wall
//! interval is split pro rata between ORG and SPA), so per-stage numbers sum
//! to the frame latency. Besides the console report it writes:
//!
//! - `BENCH_e2e.json` (repo root): a `dbgc-metrics` v1 snapshot — frames/s
//!   serial vs parallel, per-stage timing and parallel-efficiency gauges,
//!   the speedup-vs-threads scaling curve, span trees and per-section byte
//!   accounting from the instrumented runs — for CI trend tracking;
//! - `results/e2e_throughput.txt`: the human-readable report;
//! - `results/scaling_curve.txt`: the speedup-vs-cores curve on its own, the
//!   artifact the CI perf-smoke job uploads.
//!
//! Worker and thread counts are derived from `available_parallelism()` —
//! never hardcoded — so a single-core runner reports a truthful 1-point
//! curve instead of a fabricated multi-core one.
//!
//! ```text
//! cargo run --release -p dbgc-bench --bin e2e_throughput [-- --self-check]
//! ```
//!
//! `--self-check` instead runs two release gates and exits nonzero on
//! failure: (1) metrics recording overhead — best-of-N compression with a
//! collector attached must be within 2% of the uninstrumented path and
//! byte-identical; (2) on multi-core hosts, pipelined compression with the
//! derived worker count must not be slower than serial (a regression in the
//! handoff path would make added workers a net loss).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use dbgc::metrics::StageEfficiency;
use dbgc::{Dbgc, DbgcConfig, TimingBreakdown};
use dbgc_bench::{bench_collector, scene_frame, scene_frames, timed, Q_TYPICAL};
use dbgc_geom::PointCloud;
use dbgc_lidar_sim::ScenePreset;
use dbgc_net::LinkModel;

const FPS: f64 = 10.0;

/// Worker counts for the frame-pipelined runs, derived from the cores this
/// process actually has: {2, 4, cores} clipped to the machine, deduplicated,
/// ascending. A single-core host measures `[1]` — truthfully.
fn derived_worker_counts(cores: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = [2, 4, cores].iter().map(|&w| w.min(cores)).collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Thread counts for the intra-frame scaling curve: 1 plus the derived
/// worker counts (so the serial anchor is always measured).
fn curve_thread_counts(cores: usize) -> Vec<usize> {
    let mut counts = derived_worker_counts(cores);
    if counts.first() != Some(&1) {
        counts.insert(0, 1);
    }
    counts
}

/// Stage sums accumulated over the measured frames, reported as mean ms.
#[derive(Default)]
struct StageSums {
    den: Duration,
    oct: Duration,
    cor: Duration,
    org: Duration,
    spa: Duration,
    out: Duration,
}

impl StageSums {
    fn add(&mut self, t: &TimingBreakdown) {
        self.den += t.den;
        self.oct += t.oct;
        self.cor += t.cor;
        self.org += t.org;
        self.spa += t.spa;
        self.out += t.out;
    }

    /// `(label, mean ms per frame)` in pipeline order.
    fn mean_ms(&self, frames: usize) -> [(&'static str, f64); 6] {
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / frames as f64;
        [
            ("den", ms(self.den)),
            ("oct", ms(self.oct)),
            ("cor", ms(self.cor)),
            ("org", ms(self.org)),
            ("spa", ms(self.spa)),
            ("out", ms(self.out)),
        ]
    }
}

fn stage_line(stages: &StageSums, frames: usize) -> String {
    stages
        .mean_ms(frames)
        .iter()
        .map(|(label, ms)| format!("{} {ms:.1}", label.to_uppercase()))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Record one mode's mean stage times as `<mode>.stage_ms.<stage>` gauges.
fn stage_gauges(
    collector: &dbgc::metrics::Collector,
    mode: &str,
    stages: &StageSums,
    frames: usize,
) {
    for (label, ms) in stages.mean_ms(frames) {
        collector.set_gauge(&format!("{mode}.stage_ms.{label}"), ms);
    }
}

/// `--self-check`: recording must be near-free. Best-of-N wall time with a
/// collector attached vs the plain path, interleaved to decorrelate machine
/// drift; asserts the overhead is within 2% and the bitstream is identical.
fn self_check() {
    const REPS: usize = 7;
    const MAX_OVERHEAD: f64 = 0.02;
    let cloud = scene_frame(ScenePreset::KittiCity);
    let dbgc = Dbgc::new(DbgcConfig::with_error_bound(Q_TYPICAL).with_threads(0));
    let baseline = dbgc.compress(&cloud).expect("compress"); // warm-up
    let mut plain_best = f64::INFINITY;
    let mut instrumented_best = f64::INFINITY;
    for _ in 0..REPS {
        let (frame, t) = timed(|| dbgc.compress(&cloud).expect("compress"));
        assert_eq!(frame.bytes, baseline.bytes);
        plain_best = plain_best.min(t.as_secs_f64());

        let collector = dbgc::metrics::Collector::new();
        let (frame, t) =
            timed(|| dbgc.compress_with_metrics(&cloud, &collector).expect("compress"));
        assert_eq!(frame.bytes, baseline.bytes, "recording must not change the bitstream");
        assert_eq!(
            collector.snapshot().bytes_total() as usize,
            frame.bytes.len(),
            "byte channels must sum to the stream size"
        );
        instrumented_best = instrumented_best.min(t.as_secs_f64());
    }
    let overhead = instrumented_best / plain_best - 1.0;
    println!(
        "metrics overhead self-check ({} points, best of {REPS}): \
         plain {:.1} ms, instrumented {:.1} ms, overhead {:+.2}%",
        cloud.len(),
        plain_best * 1e3,
        instrumented_best * 1e3,
        overhead * 100.0
    );
    assert!(
        overhead <= MAX_OVERHEAD,
        "metrics recording overhead {:.2}% exceeds the {:.0}% budget",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    println!("OK (budget {:.0}%)", MAX_OVERHEAD * 100.0);

    // Gate 2: adding frame workers must never make compression *slower* than
    // the serial loop — that is the regression mode of a broken handoff
    // (deep-copy submission, lock convoy, serial merge). Only meaningful
    // with real cores to add.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 2 {
        println!("pipelined-vs-serial self-check: skipped ({cores} core exposed)");
        return;
    }
    let workers = *derived_worker_counts(cores).last().expect("non-empty");
    let frames: Vec<Arc<PointCloud>> =
        scene_frames(ScenePreset::KittiCity, 3).into_iter().map(Arc::new).collect();
    let serial = Dbgc::new(DbgcConfig::with_error_bound(Q_TYPICAL).with_threads(1));
    const PIPE_REPS: usize = 3;
    let (_, t_serial) = timed(|| {
        for _ in 0..PIPE_REPS {
            for cloud in &frames {
                serial.compress(cloud).expect("compress");
            }
        }
    });
    let mut pipe = dbgc_net::PipelinedCompressor::new(serial.clone(), workers);
    let (_, t_pipe) = timed(|| {
        for _ in 0..PIPE_REPS {
            for cloud in &frames {
                pipe.submit_shared(Arc::clone(cloud));
            }
        }
        while pipe.next_ordered().is_some() {}
    });
    let serial_fps = (PIPE_REPS * frames.len()) as f64 / t_serial.as_secs_f64();
    let pipe_fps = (PIPE_REPS * frames.len()) as f64 / t_pipe.as_secs_f64();
    println!(
        "pipelined-vs-serial self-check ({cores} cores, {workers} workers): \
         serial {serial_fps:.1} fps, pipelined {pipe_fps:.1} fps"
    );
    if pipe_fps < serial_fps {
        eprintln!(
            "FAIL: pipelined compression ({pipe_fps:.1} fps) is slower than \
             serial ({serial_fps:.1} fps) with {workers} workers on {cores} cores"
        );
        std::process::exit(1);
    }
    println!("OK (pipelined {:.2}x serial)", pipe_fps / serial_fps);
}

fn main() {
    if std::env::args().any(|a| a == "--self-check") {
        self_check();
        return;
    }
    let frames: Vec<Arc<PointCloud>> =
        scene_frames(ScenePreset::KittiCity, 3).into_iter().map(Arc::new).collect();
    let serial = Dbgc::new(DbgcConfig::with_error_bound(Q_TYPICAL).with_threads(1));
    let parallel = Dbgc::new(DbgcConfig::with_error_bound(Q_TYPICAL).with_threads(0));
    let ethernet = LinkModel::ethernet_100base_tx();
    let uplink = LinkModel::mobile_4g();
    let hdd = LinkModel::hdd_write();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Spans, counters and byte accounting from the instrumented (parallel
    // compress + decompress) runs land here; summary gauges are added at the
    // end and the whole snapshot becomes BENCH_e2e.json.
    let collector = bench_collector("e2e_throughput", ScenePreset::KittiCity);

    // The report goes to stdout AND results/e2e_throughput.txt.
    let mut report = String::new();
    macro_rules! say {
        ($($arg:tt)*) => {{ let _ = writeln!(report, $($arg)*); }};
    }

    say!(
        "§4.4 — {} stream at {FPS} fps, q = {Q_TYPICAL} m, {} frames measured\n",
        ScenePreset::KittiCity.name(),
        frames.len()
    );
    if cores == 1 {
        let warning = "WARNING: single CPU core exposed to this process — the speedup, \
                       scaling.* and stage.* efficiency gauges below are degenerate (~1.0x) \
                       and MUST NOT be used as a scaling baseline; regenerate BENCH_e2e.json \
                       on a multi-core runner.";
        eprintln!("{warning}");
        say!("{warning}\n");
    }

    let mut sum_comp = 0.0;
    let mut sum_par = 0.0;
    let mut sum_dec = 0.0;
    let mut sum_bytes = 0usize;
    let mut sum_raw = 0usize;
    let mut sum_points = 0usize;
    let mut serial_stages = StageSums::default();
    let mut parallel_stages = StageSums::default();
    for cloud in &frames {
        let raw = cloud.raw_size_bytes();
        let (frame, t_comp) = timed(|| serial.compress(cloud).expect("compress"));
        let (par_frame, t_par) =
            timed(|| parallel.compress_with_metrics(cloud, &collector).expect("compress"));
        assert_eq!(frame.bytes, par_frame.bytes, "parallel path must be byte-identical");
        let (out, t_dec) =
            timed(|| dbgc::decompress_with_metrics(&frame.bytes, &collector).expect("own stream"));
        assert_eq!(out.0.len(), cloud.len());
        serial_stages.add(&frame.stats.timing);
        parallel_stages.add(&par_frame.stats.timing);

        let t_sensor = ethernet.transfer_time(raw);
        let t_uplink = uplink.transfer_time(frame.bytes.len());
        let t_store = hdd.transfer_time(raw);
        let total = t_sensor.as_secs_f64()
            + t_comp.as_secs_f64()
            + t_uplink.as_secs_f64()
            + t_dec.as_secs_f64()
            + t_store.as_secs_f64();
        say!(
            "frame: {} pts | sensor->client {:.0} ms | compress {:.0} ms | \
             4G transfer {:.0} ms | decompress {:.0} ms | store {:.0} ms | \
             total {:.2} s",
            cloud.len(),
            t_sensor.as_secs_f64() * 1e3,
            t_comp.as_secs_f64() * 1e3,
            t_uplink.as_secs_f64() * 1e3,
            t_dec.as_secs_f64() * 1e3,
            t_store.as_secs_f64() * 1e3,
            total
        );
        sum_comp += t_comp.as_secs_f64();
        sum_par += t_par.as_secs_f64();
        sum_dec += t_dec.as_secs_f64();
        sum_bytes += frame.bytes.len();
        sum_raw += raw;
        sum_points += cloud.len();
    }
    let n = frames.len() as f64;
    let avg_bytes = sum_bytes / frames.len();
    let serial_fps = n / sum_comp;
    let parallel_fps = n / sum_par;
    say!("\nthroughput ({cores} CPU core(s) exposed to this process):");
    say!(
        "  compression, serial (threads=1):   {serial_fps:.1} frames/s \
         (sensor produces {FPS}) -> {}",
        if serial_fps >= FPS { "keeps up ONLINE" } else { "needs parallelism" }
    );
    say!(
        "  compression, parallel (threads=0): {parallel_fps:.1} frames/s, \
         {:.2}x serial{} (bitstreams byte-identical)",
        parallel_fps / serial_fps,
        if cores == 1 { " -> single core, no speedup possible" } else { "" }
    );
    say!("    serial stage ms/frame:   {}", stage_line(&serial_stages, frames.len()));
    say!("    parallel stage ms/frame: {}", stage_line(&parallel_stages, frames.len()));

    // Wide entropy profile (stream version 3): serial throughput with the
    // four-lane coder — the number the perf_gate fps/core floor reads.
    let wide = Dbgc::new(
        DbgcConfig::with_error_bound(Q_TYPICAL)
            .with_threads(1)
            .with_entropy_profile(dbgc::EntropyProfile::Wide),
    );
    let wide_reps = 2;
    let (_, wide_wall) = timed(|| {
        for _ in 0..wide_reps {
            for cloud in &frames {
                wide.compress(cloud).expect("compress");
            }
        }
    });
    let wide_fps = (wide_reps * frames.len()) as f64 / wide_wall.as_secs_f64();
    say!(
        "  compression, serial wide profile:  {wide_fps:.1} frames/s \
         ({:+.1}% vs narrow serial)",
        (wide_fps / serial_fps - 1.0) * 100.0
    );

    // Per-stage parallel efficiency: serial vs parallel wall time over the
    // pool the `threads = 0` runs actually used. On a single core every
    // stage reports speedup ~1.0 and the gauges are still meaningful.
    let pool_threads = dbgc_parallel::ThreadPool::global().threads();
    let serial_ms = serial_stages.mean_ms(frames.len());
    let parallel_ms = parallel_stages.mean_ms(frames.len());
    say!("    per-stage speedup ({pool_threads} pool threads):");
    for ((label, s_ms), (_, p_ms)) in serial_ms.iter().zip(parallel_ms.iter()) {
        let eff = StageEfficiency::new(*s_ms, *p_ms, pool_threads);
        eff.record(&collector, &format!("stage.{label}"));
        say!(
            "      {}: {:.2}x ({:.0}% efficient, {:.0}% idle)",
            label.to_uppercase(),
            eff.speedup(),
            eff.efficiency() * 100.0,
            eff.idle_fraction() * 100.0
        );
    }

    // Intra-frame scaling curve: frames/s at each thread count the machine
    // can actually provide, anchored at threads = 1. This is the curve the
    // CI perf-smoke job gates on and uploads.
    let mut curve: Vec<(usize, f64)> = Vec::new();
    for &t in &curve_thread_counts(cores) {
        let dbgc = Dbgc::new(DbgcConfig::with_error_bound(Q_TYPICAL).with_threads(t));
        let reps = 2;
        let (_, wall) = timed(|| {
            for _ in 0..reps {
                for cloud in &frames {
                    dbgc.compress(cloud).expect("compress");
                }
            }
        });
        curve.push((t, (reps * frames.len()) as f64 / wall.as_secs_f64()));
    }
    let curve_base = curve[0].1;
    say!("\nscaling curve (intra-frame threads, {cores} core(s)):");
    let mut curve_txt = format!(
        "speedup-vs-threads, {} @ q={Q_TYPICAL} m, {cores} core(s) exposed\n\
         threads\tframes_per_s\tspeedup\n",
        ScenePreset::KittiCity.name()
    );
    for &(t, fps) in &curve {
        let speedup = fps / curve_base;
        say!("  threads={t}: {fps:.1} frames/s, {speedup:.2}x");
        let _ = writeln!(curve_txt, "{t}\t{fps:.2}\t{speedup:.3}");
        collector.set_gauge(&format!("scaling.threads_{t}.frames_per_s"), fps);
        collector.set_gauge(&format!("scaling.threads_{t}.speedup"), speedup);
    }

    // Pipelined compression (frame-ordered worker pool), worker counts
    // derived from the cores this process has. Frames are submitted shared,
    // so the handoff is a refcount bump, not a cloud copy.
    let mut pipelined = Vec::new();
    for workers in derived_worker_counts(cores) {
        let mut pipe = dbgc_net::PipelinedCompressor::new(serial.clone(), workers);
        let reps = 4;
        let (_, t) = timed(|| {
            for _ in 0..reps {
                for cloud in &frames {
                    pipe.submit_shared(Arc::clone(cloud));
                }
            }
            while pipe.next_ordered().is_some() {}
        });
        let fps = (reps * frames.len()) as f64 / t.as_secs_f64();
        pipelined.push((workers, fps));
        say!(
            "  compression ({workers} frame workers): {fps:.1} frames/s -> {}",
            if fps >= FPS {
                "keeps up ONLINE"
            } else if cores <= workers {
                "limited by available cores"
            } else {
                "falls behind"
            }
        );
    }
    say!("  decompression: {:.1} frames/s", n / sum_dec);
    say!(
        "  uplink need: {:.1} Mbps compressed vs {:.0} Mbps raw (4G gives 8.2) \
         (paper: ~6.0 Mbps at 2 cm)",
        LinkModel::required_mbps(avg_bytes, FPS),
        LinkModel::required_mbps(sum_raw / frames.len(), FPS)
    );
    say!(
        "\n(paper: ~0.4 s compression + ~0.1 s decompression + ~0.2 s transfers \
         ≈ 0.7 s sensor-to-storage latency)"
    );

    print!("{report}");

    // Machine-readable summary for CI trend tracking, in the one snapshot
    // schema (dbgc-metrics v1) every harness emits.
    collector.set_label("byte_identical", "true");
    collector.set_gauge("error_bound_m", Q_TYPICAL);
    collector.set_gauge("sensor_fps", FPS);
    collector.set_gauge("cores", cores as f64);
    collector.set_gauge("frames", frames.len() as f64);
    collector.set_gauge("avg_points_per_frame", (sum_points / frames.len()) as f64);
    collector.set_gauge("avg_compressed_bytes", avg_bytes as f64);
    collector.set_gauge("serial.frames_per_s", serial_fps);
    collector.set_gauge("serial_wide.frames_per_s", wide_fps);
    collector.set_gauge("parallel.frames_per_s", parallel_fps);
    collector.set_gauge("speedup", parallel_fps / serial_fps);
    collector.set_gauge("decompress.frames_per_s", n / sum_dec);
    collector.set_gauge("uplink_mbps", LinkModel::required_mbps(avg_bytes, FPS));
    for (workers, fps) in &pipelined {
        collector.set_gauge(&format!("pipelined.{workers}_workers.frames_per_s"), *fps);
    }
    stage_gauges(&collector, "serial", &serial_stages, frames.len());
    stage_gauges(&collector, "parallel", &parallel_stages, frames.len());

    // The binary lives at crates/bench; the artifacts go to the repo root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if let Err(e) = std::fs::write(root.join("BENCH_e2e.json"), collector.snapshot().to_json()) {
        eprintln!("warning: could not write BENCH_e2e.json: {e}");
    }
    let results = root.join("results");
    let _ = std::fs::create_dir_all(&results);
    if let Err(e) = std::fs::write(results.join("e2e_throughput.txt"), &report) {
        eprintln!("warning: could not write results/e2e_throughput.txt: {e}");
    }
    if let Err(e) = std::fs::write(results.join("scaling_curve.txt"), &curve_txt) {
        eprintln!("warning: could not write results/scaling_curve.txt: {e}");
    }
}
