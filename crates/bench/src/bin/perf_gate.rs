//! CI perf gate: scaling-curve and kernel-regression checks over the
//! dbgc-metrics snapshots the benches emit.
//!
//! ```text
//! cargo run --release -p dbgc-bench --bin perf_gate -- \
//!     [--e2e BENCH_e2e.json] \
//!     [--kernels BENCH_kernels.json] \
//!     [--baseline-kernels <snapshot to diff against>]
//! ```
//!
//! Three gates, each failing the process (exit 1) with a named reason:
//!
//! 1. **Scaling** — from the e2e snapshot's `scaling.threads_N.speedup`
//!    gauges: on a host with ≥ 4 cores, the 4-thread intra-frame speedup
//!    must be at least 1.5×. On smaller hosts the gate reports the curve and
//!    skips (a 1-core runner cannot measure scaling, and pretending
//!    otherwise would gate on fiction); a `cores: 1` snapshot is refused
//!    outright as a scaling baseline.
//! 2. **fps/core** — serial compression (`serial_wide.frames_per_s`, falling
//!    back to `serial.frames_per_s`) must reach 30 frames/s per core on an
//!    unconstrained (≥ 4-core) runner; constrained runners record the number
//!    honestly and skip loudly.
//! 3. **Kernel regression** — every throughput gauge present in both the
//!    current and baseline kernel snapshots must be within 10% of the
//!    baseline. Gauges only present on one side are reported but never fail
//!    (new kernels appear, retired ones disappear).
//!
//! The snapshots are read with `Snapshot::gauges_from_json`, the focused
//! reader for the one schema every workspace producer emits.

use std::collections::BTreeMap;
use std::process::ExitCode;

use dbgc::metrics::Snapshot;

/// Minimum 4-thread intra-frame speedup on hosts with at least 4 cores.
const MIN_SPEEDUP_4: f64 = 1.5;
/// Cores required before the scaling gate is binding.
const SCALING_GATE_CORES: f64 = 4.0;
/// Allowed fractional throughput drop per kernel gauge.
const MAX_KERNEL_REGRESSION: f64 = 0.10;
/// Minimum serial (single-thread, so per-core) compress throughput on an
/// unconstrained runner, in frames/s. Reads the wide-profile gauge when the
/// snapshot has one, else the default profile's serial number.
const MIN_SERIAL_FPS_PER_CORE: f64 = 30.0;

fn load_gauges(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Snapshot::gauges_from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Gate 1: the scaling curve from the e2e snapshot.
fn check_scaling(e2e: &BTreeMap<String, f64>) -> Result<(), String> {
    let cores = *e2e.get("cores").ok_or("e2e snapshot has no `cores` gauge")?;
    let mut curve: Vec<(&str, f64)> = e2e
        .iter()
        .filter_map(|(k, &v)| {
            k.strip_prefix("scaling.")
                .and_then(|k| k.strip_suffix(".speedup"))
                .map(|threads| (threads, v))
        })
        .collect();
    if curve.is_empty() {
        return Err("e2e snapshot has no scaling.threads_N.speedup gauges".into());
    }
    curve.sort_by_key(|(t, _)| t.trim_start_matches("threads_").parse::<usize>().unwrap_or(0));
    println!("scaling curve ({cores} core(s) at measurement time):");
    for (threads, speedup) in &curve {
        println!("  {threads}: {speedup:.2}x");
    }
    if cores <= 1.0 {
        println!(
            "scaling gate: SKIPPED — snapshot was recorded on a single core; its \
             speedup and stage-efficiency gauges are degenerate and REFUSED as a \
             scaling baseline. Regenerate BENCH_e2e.json on a multi-core runner."
        );
        return Ok(());
    }
    if cores < SCALING_GATE_CORES {
        println!(
            "scaling gate: SKIPPED — {cores} core(s) < {SCALING_GATE_CORES} \
             (cannot measure multi-core scaling on this host)"
        );
        return Ok(());
    }
    let speedup4 = *e2e
        .get("scaling.threads_4.speedup")
        .ok_or("host has >= 4 cores but no scaling.threads_4.speedup gauge")?;
    if speedup4 < MIN_SPEEDUP_4 {
        return Err(format!("4-thread speedup {speedup4:.2}x is below the {MIN_SPEEDUP_4}x floor"));
    }
    println!("scaling gate: OK (threads_4 speedup {speedup4:.2}x >= {MIN_SPEEDUP_4}x)");
    Ok(())
}

/// Gate: serial frames/s per core. Serial compression runs one thread, so
/// `serial*.frames_per_s` *is* the per-core number; the floor binds only on
/// unconstrained runners (shared or single-core CI boxes are throttled in
/// ways that have nothing to do with the code under test).
fn check_fps_per_core(e2e: &BTreeMap<String, f64>) -> Result<(), String> {
    let cores = *e2e.get("cores").ok_or("e2e snapshot has no `cores` gauge")?;
    let (gauge, fps) = match e2e.get("serial_wide.frames_per_s") {
        Some(&fps) => ("serial_wide.frames_per_s", fps),
        None => (
            "serial.frames_per_s",
            *e2e.get("serial.frames_per_s").ok_or("e2e snapshot has no serial fps gauge")?,
        ),
    };
    println!(
        "serial compress ({gauge}): {fps:.1} frames/s per core \
         (floor {MIN_SERIAL_FPS_PER_CORE})"
    );
    if cores < SCALING_GATE_CORES {
        println!(
            "fps/core gate: SKIPPED — constrained runner ({cores} core(s) < \
             {SCALING_GATE_CORES}); the measured {fps:.1} fps is recorded honestly \
             but not gated. Regenerate BENCH_e2e.json on an unconstrained host to \
             make this gate binding."
        );
        return Ok(());
    }
    if fps < MIN_SERIAL_FPS_PER_CORE {
        return Err(format!(
            "serial compress {fps:.1} fps/core is below the {MIN_SERIAL_FPS_PER_CORE} floor"
        ));
    }
    println!("fps/core gate: OK ({fps:.1} >= {MIN_SERIAL_FPS_PER_CORE})");
    Ok(())
}

/// Gate 2: per-kernel throughput vs the baseline snapshot.
fn check_kernels(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let mut failures = Vec::new();
    for (name, &base) in baseline {
        let Some(&now) = current.get(name) else {
            println!("kernel {name}: retired (in baseline only)");
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        let ratio = now / base;
        let verdict = if ratio < 1.0 - MAX_KERNEL_REGRESSION { "REGRESSED" } else { "ok" };
        println!("kernel {name}: {base:.2} -> {now:.2} ({:+.1}%) {verdict}", (ratio - 1.0) * 100.0);
        if ratio < 1.0 - MAX_KERNEL_REGRESSION {
            failures.push(format!("{name} dropped {:.1}%", (1.0 - ratio) * 100.0));
        }
    }
    for name in current.keys().filter(|k| !baseline.contains_key(*k)) {
        println!("kernel {name}: new (no baseline)");
    }
    if failures.is_empty() {
        println!(
            "kernel gate: OK ({} gauge(s) within {:.0}%)",
            baseline.len(),
            MAX_KERNEL_REGRESSION * 100.0
        );
        Ok(())
    } else {
        Err(format!("kernel throughput regressed >10%: {}", failures.join("; ")))
    }
}

fn main() -> ExitCode {
    let mut e2e_path = "BENCH_e2e.json".to_string();
    let mut kernels_path = "BENCH_kernels.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a path"));
        match arg.as_str() {
            "--e2e" => e2e_path = value("--e2e"),
            "--kernels" => kernels_path = value("--kernels"),
            "--baseline-kernels" => baseline_path = Some(value("--baseline-kernels")),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failed = false;
    match load_gauges(&e2e_path) {
        Ok(g) => {
            if let Err(e) = check_scaling(&g) {
                eprintln!("FAIL scaling gate: {e}");
                failed = true;
            }
            if let Err(e) = check_fps_per_core(&g) {
                eprintln!("FAIL fps/core gate: {e}");
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("FAIL scaling gate: {e}");
            failed = true;
        }
    }
    match baseline_path {
        None => println!("kernel gate: SKIPPED (no --baseline-kernels given)"),
        Some(base) => {
            let diff = load_gauges(&kernels_path)
                .and_then(|cur| load_gauges(&base).map(|b| (cur, b)))
                .and_then(|(cur, b)| check_kernels(&cur, &b));
            if let Err(e) = diff {
                eprintln!("FAIL kernel gate: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("perf gate: all checks passed");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// A gauge the baseline lacks (a kernel bench added since it was
    /// taken) is reported, never gated; a known gauge still is.
    #[test]
    fn new_gauges_are_reported_not_gated() {
        let baseline = gauges(&[("model.decode.melem_per_s", 30.0)]);
        let current = gauges(&[
            ("model.decode.melem_per_s", 29.0),
            ("model.varint_decode.melem_per_s", 0.001),
        ]);
        assert!(check_kernels(&current, &baseline).is_ok());
        let regressed = gauges(&[("model.decode.melem_per_s", 20.0)]);
        assert!(check_kernels(&regressed, &baseline).is_err());
    }
}
