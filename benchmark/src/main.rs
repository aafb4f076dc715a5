//! The benchmark of record for dbgc-rs: sensor encode, TCP ingest and
//! archive query, measured end to end and per layer.
//!
//! # Running
//!
//! From the repository root (the first run builds the workspace crates):
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     run --workload city-serial --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One workload runs per process. The run prints each metric as
//! `name value unit`, then one JSON line,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, as the
//! last line of stdout; the headline tail percentiles with their sample
//! count and each workload's own layer numbers go to stderr. It exits 1 if
//! any output check failed (the JSON line says `"correct": false`), and 2
//! on a usage error.
//!
//! A seed fixes every input. Seed 1 is the development seed and seed 2 the
//! holdout. The scene layouts are the same on every run, like a recorded
//! dataset; the seed picks where along each drive the frames are taken (see
//! `inputs.rs`). Every workload synthesizes [`FRAMES`] distinct frames and
//! reuses them, since one frame costs 50–150 ms to synthesize.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics instead. Half the operations are traced (bench-side
//! spans around each public call, the library's `*_with_metrics` entry
//! points), interleaved with untraced ones on the same inputs: alternate
//! passes over the frames, one frame of each same-payload pair, both runs
//! of each query. `metrics.trace_overhead_frac` is how much longer the
//! traced headline operations take (a median over matched pairs, and for
//! ingest the traced ack p50 over the untraced one, minus one). The traced
//! run prints a layer table of span
//! counts and self times, checks that the compress stages account for the
//! compress time, and writes a `dbgc-metrics` snapshot to
//! `bench-trace/<workload>-seed<n>.json`. End-to-end numbers come only from
//! untraced runs.
//!
//! # Comparing two commits
//!
//! Save each run's stdout as `<dir>/<workload>.<tag>` for both commits,
//! with the same tags on both sides (ten pairs, alternating which commit
//! runs first), then
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     compare --parent runs/parent --change runs/change
//! ```
//!
//! prints one row per (end-to-end metric, workload): improved, unchanged,
//! regressed or unresolved, by the bounds in `BENCHMARK.json` (see
//! `compare.rs` for the rule). It exits 1 if any row regressed.
//!
//! # Workloads
//!
//! The load generator never uses more than two threads or two connections.
//!
//! * `city-serial`: kitti-city at q = 2 cm, narrow profile (stream v1),
//!   `threads = 1`, compress → decompress round trips in a closed loop.
//!   The paper's default sensor frame: about 45% dense, so DEN, ORG and
//!   SPA carry most of the frame, and its v1 stream is what the golden
//!   vectors pin.
//! * `road-wide`: kitti-road, wide profile (stream v3), otherwise the
//!   same. A dense-heavy scene where OCT is a major stage and every
//!   range-coded stream goes through the four-lane coder: a laned-coder or
//!   octree change shows here more than a DEN/ORG change does.
//! * `ingest-tcp`: `TcpFleetServer` on loopback with one shard per core and
//!   decompression on; two raw wire-v3 sessions at 2 × 25 Hz open loop,
//!   then 8 unacked frames each, closed loop; an archive loop drains into a
//!   `FrameStore` every 100 ms (see `ingest.rs`). The paper's §4.4 server,
//!   the only workload that exercises `dbgc-net`, and it bypasses every
//!   encoder stage.
//! * `archive-query`: `near_box`, `far_box`, `dense_only` and `window`
//!   queries in turn over an indexed archive (see `query.rs`). The planner
//!   and partial decode, never the encoder or the network.
//!
//! Intra-frame `threads = 2` is not a workload: on a 2-vCPU host its frame
//! rate does not repeat from run to run.
//!
//! # End-to-end metrics (every workload)
//!
//! * `setup_s`: median of three repetitions of the workload's set-up
//!   (frame synthesis, compression of the inputs, the archive);
//! * `peak_rss_mib`: the process's peak resident set;
//! * `ops_per_s`: compress → decompress round trips (codec workloads),
//!   acked frames in the closed-loop phases (ingest-tcp), or queries, per
//!   busy second; the median over blocks of equal work (one pass over the
//!   frames, one closed-loop phase, sixteen queries);
//! * `latency_ms_p50`: compress time (codec workloads), ack latency from
//!   the due time in the open-loop phases (ingest-tcp), or query time;
//! * `bits_per_point`: compressed size of the workload's frames.
//!
//! Two metrics are reported but not bounded. The latency tail (p90, p95 and
//! p99, with the sample count, on stderr) is not an end-to-end metric: on
//! a shared 2-vCPU host, slow spells of a few seconds move a p95 by 10–30%
//! from run to run, wider than any bound that would still catch a
//! regression. Failed operations are counted in the JSON line's `failed`,
//! not as a metric: a metric that is zero on every healthy run cannot be
//! bounded.
//!
//! # Per-layer metrics and the end-to-end metric each should move
//!
//! * `lidar_sim.gen_ms_per_frame` → `setup_s` (all workloads);
//! * `clustering.den_ms` → `latency_ms_p50` on city-serial (about a third
//!   of the frame), less on road-wide;
//! * `clustering.dense_frac` → `bits_per_point` (codec workloads);
//! * `octree.oct_ms` → `latency_ms_p50` on road-wide (about a quarter of
//!   the frame, against about a tenth on city);
//! * `core.cor_ms`, `core.org_ms`, `core.spa_ms`, `core.out_ms` →
//!   `latency_ms_p50` on city-serial (ORG alone is over a quarter);
//! * `core.splice_us` → `latency_ms_p50` on both codec workloads;
//! * `octree.decode_ms`, `core.decode_spa_ms`, `core.decode_cor_ms`,
//!   `core.decode_out_ms` → `ops_per_s` on the codec workloads,
//!   `latency_ms_p50` and `ops_per_s` on ingest-tcp (the fleet decodes
//!   before it acks);
//! * `core.polylines_per_frame`, `core.outlier_frac`, `codec.bytes_*` →
//!   `bits_per_point`;
//! * `metrics.trace_overhead_frac` → none; it must stay within 2%.
//!
//! Each of these is measured on every workload: ingest-tcp and
//! archive-query compress their inputs in set-up, the fleet decodes every
//! ingested frame, and archive-query decodes each stream in its output
//! check. Layers only one workload enters are printed on stderr and written
//! to its trace snapshot:
//!
//! * ingest-tcp: `net.write_block_ms_p99` and `net.backlog_max_frames` →
//!   the ack tail; `net.ack_wire_ms_p50` (ack p50 minus the fleet's
//!   frame-handle p50: socket polling and queues) and
//!   `fleet.frame_handle_us_p50|p99` → `latency_ms_p50` and `ops_per_s`;
//!   `fleet.drain_ms_p50` → the ack tail; `store.ingest_us_p50` → nothing
//!   yet, since archiving happens after the ack; `net.gen_late_ms_p99` is a
//!   validity check on the generator (a warning above 1 ms);
//!   `fleet.ack_drops`, `net.decode_failures`, `fleet.conns_reaped` and
//!   `net.resyncs` → failed operations;
//! * archive-query: `store.query_ms.<kind>` (p50 per kind),
//!   `store.bytes_touched_frac`, `store.pruned_frac`, `store.partial_frac`
//!   and `store.section_skip_frac` → `latency_ms_p50`.

mod codec;
mod compare;
mod ingest;
mod inputs;
mod json;
mod layers;
mod query;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use dbgc::EntropyProfile;
use dbgc_lidar_sim::ScenePreset;

use crate::layers::Layers;
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::Trace;

/// The workloads, one per process.
pub const WORKLOADS: [&str; 4] = ["city-serial", "road-wide", "ingest-tcp", "archive-query"];

/// Names and units of the end-to-end metrics, in report order. The
/// `end_to_end` list of `BENCHMARK.json` declares exactly these.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("bits_per_point", "bits"),
];

/// Distinct frames each workload synthesizes.
const FRAMES: usize = 12;
/// Measured seconds per run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 20.0;
/// Most the traced headline p50 may exceed the untraced one by.
const MAX_TRACE_OVERHEAD: f64 = 0.02;

/// What one run does.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub frames: usize,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check.
    pub problems: Vec<String>,
    pub setup_s: f64,
    pub ops_per_s: f64,
    /// Headline latencies of untraced operations, in ms.
    pub latency_ms: Vec<f64>,
    pub bits_per_point: f64,
    pub layers: Layers,
    /// Workload-specific numbers: printed, and kept in the trace snapshot.
    pub notes: Vec<Metric>,
}

impl Outcome {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push(Metric::new(name, value, unit));
    }

    /// The [`END_TO_END`] metrics, in order.
    fn end_to_end(&self) -> Vec<Metric> {
        let values = [
            self.setup_s,
            peak_rss_mib(),
            self.ops_per_s,
            median(&self.latency_ms),
            self.bits_per_point,
        ];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| Metric::new(n, v, u)).collect()
    }
}

/// Peak resident set (`VmHWM`) in MiB; `NaN` where `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Run workload `name`; `None` if there is no such workload.
pub fn run_workload(name: &str, plan: &Plan, trace: Option<&Trace>) -> Option<Outcome> {
    let codec = |preset, profile| codec::run(preset, profile, plan, trace);
    Some(match name {
        "city-serial" => codec(ScenePreset::KittiCity, EntropyProfile::Narrow),
        "road-wide" => codec(ScenePreset::KittiRoad, EntropyProfile::Wide),
        "ingest-tcp" => ingest::run(plan, trace),
        "archive-query" => query::run(plan, trace),
        _ => return None,
    })
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
pub fn reported(outcome: &Outcome, trace: Option<&Trace>) -> Vec<Metric> {
    match trace {
        None => outcome.end_to_end(),
        Some(t) => {
            let splice =
                t.collector.snapshot().histograms.get("compress.splice_us").map(|h| h.mean());
            outcome.layers.metrics(splice.unwrap_or(f64::NAN))
        }
    }
}

/// The contract's result line.
fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

fn run_cmd(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let plan = Plan { seed, seconds, frames: FRAMES };
    let trace = traced.then(Trace::new);
    let mut outcome = run_workload(&workload, &plan, trace.as_ref())
        .ok_or_else(|| format!("unknown workload {workload}; expected one of {WORKLOADS:?}"))?;

    let metrics = reported(&outcome, trace.as_ref());
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        outcome.fail(format!("{} was not measured", m.name));
    }
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let lat = sorted(&outcome.latency_ms);
    let tail: Vec<String> =
        [90.0, 95.0, 99.0].iter().map(|&p| format!("p{p} {:.3} ms", percentile(&lat, p))).collect();
    eprintln!(
        "{workload}: {} headline samples ({}); highest supported percentile {:?}",
        lat.len(),
        tail.join(", "),
        highest_supported_percentile(lat.len())
    );
    for m in &outcome.notes {
        eprintln!("  {} {} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("FAILED CHECK: {p}");
    }
    if let Some(t) = trace {
        let stages = outcome.layers.stage_sum_ms();
        match outcome.notes.iter().find(|m| m.name == "compress_ms_mean") {
            Some(c) => println!(
                "compress stages sum to {stages:.2} ms of a {:.2} ms mean compress ({:+.1}%)",
                c.value,
                (stages / c.value - 1.0) * 100.0
            ),
            None => {
                println!("compress stages of the set-up frames sum to {stages:.2} ms per frame")
            }
        }
        let overhead = outcome.layers.trace_overhead_frac;
        if overhead.is_nan() || overhead > MAX_TRACE_OVERHEAD {
            eprintln!(
                "warning: tracing overhead {:.1}% is above {:.0}%",
                overhead * 1e2,
                MAX_TRACE_OVERHEAD * 1e2
            );
        }
        let mut gauges = metrics.clone();
        gauges.extend(outcome.notes.iter().cloned());
        let path = PathBuf::from("bench-trace").join(format!("{workload}-seed{seed}.json"));
        if let Err(e) = t.finish(&gauges, &path) {
            eprintln!("trace: {e}");
        }
    }
    println!("{}", result_json(&outcome, &metrics));
    Ok(outcome.problems.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => Err("usage: benchmark run --workload <name> --seed <n> [--seconds <s>] \
                  [--trace 0|1]\n       benchmark compare --parent <dir> --change <dir> \
                  [--spec BENCHMARK.json]"
            .into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap()
    }

    /// `(name, unit)` of each entry of the `list` array of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
        spec()
            .get(list)
            .unwrap()
            .as_array()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let workloads: Vec<String> =
            declared("workloads").into_iter().map(|(name, _)| name).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<_> = END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<_> =
            layers::PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared("per_layer"), layers);
    }

    /// Every workload, about a second each on two frames, untraced and
    /// traced: the checks pass and exactly the declared metrics come out,
    /// each a finite number. Slow in a debug build; run with `--release`.
    #[test]
    fn smoke_every_workload_emits_the_declared_metrics() {
        let plan = Plan { seed: 1, seconds: 1.0, frames: 2 };
        for workload in WORKLOADS {
            for traced in [false, true] {
                let trace = traced.then(Trace::new);
                let outcome = run_workload(workload, &plan, trace.as_ref()).unwrap();
                assert!(outcome.problems.is_empty(), "{workload}: {:?}", outcome.problems);
                assert!(outcome.attempted > 0, "{workload}: nothing attempted");
                let metrics = reported(&outcome, trace.as_ref());
                let list = if traced { "per_layer" } else { "end_to_end" };
                assert_eq!(names(&metrics), declared(list), "{workload} {list}");
                for m in &metrics {
                    assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                }
                let line = json::parse(&result_json(&outcome, &metrics)).unwrap();
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            }
        }
    }
}
