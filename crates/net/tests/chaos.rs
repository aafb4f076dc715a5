//! Chaos-injected transport tests for one tenant of the fleet.
//!
//! Each seed deterministically derives a fault schedule (bit flips, drops,
//! disconnects, stalls, duplicated/reordered chunks, bandwidth collapses),
//! drives a resilient client session through it into a one-tenant fleet,
//! and asserts total recovery: every frame stored exactly once, in order,
//! with intact bytes, and the tenant's intact frames partitioning exactly.
//! `cargo test -p dbgc-net --release --test chaos` runs the lossy and
//! hostile smoke sets; the multi-tenant suites and the 1000-seed sweep live
//! in `tests/fleet_chaos.rs`.

use dbgc_net::fleet_chaos::{
    run_fleet_chaos, run_fleet_chaos_with_schedule, FleetChaosConfig, FleetChaosReport,
};
use dbgc_net::FaultSchedule;

/// The single-sensor shape: one tenant, 16 frames of 512 bytes.
fn one_tenant(config: FleetChaosConfig) -> FleetChaosConfig {
    FleetChaosConfig { tenants: 1, frames_per_tenant: 16, payload_len: 512, ..config }
}

fn assert_recovers(config: &FleetChaosConfig) -> FleetChaosReport {
    let report = run_fleet_chaos(config);
    if let Err(e) = report.verify() {
        panic!("{e}\n{}", report.summary());
    }
    report
}

#[test]
fn smoke_lossy_seeds_1_through_8() {
    for seed in 1..=8 {
        assert_recovers(&one_tenant(FleetChaosConfig::smoke(seed)));
    }
}

#[test]
fn smoke_hostile_seeds_101_through_108() {
    for seed in 101..=108 {
        assert_recovers(&FleetChaosConfig::hostile(seed));
    }
}

#[test]
fn replay_from_seed_alone_is_deterministic() {
    // The schedule, payloads, and delivery outcome are all functions of the
    // seed; only wall-clock-dependent client stats (retries, timeouts) may
    // vary between runs.
    let config = one_tenant(FleetChaosConfig::smoke(5));
    let a = assert_recovers(&config);
    let b = assert_recovers(&config);
    assert_eq!(a.fleet.tenants[0].durable, b.fleet.tenants[0].durable);
    assert_eq!(config.schedule().to_bytes(), config.schedule().to_bytes());
}

#[test]
fn serialized_schedule_reruns_identically() {
    // A schedule that survived a corpus roundtrip drives the same bytes
    // through the link — the fuzzer's wire-fault replay path.
    let config = one_tenant(FleetChaosConfig::smoke(7));
    let schedule = config.schedule();
    let restored = FaultSchedule::from_bytes(&schedule.to_bytes());
    assert_eq!(schedule, restored);
    let report = run_fleet_chaos_with_schedule(&config, restored);
    report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
}

#[test]
fn smoke_set_actually_injects_faults() {
    // Guard against the harness silently degenerating into a clean-pipe
    // test: across the smoke seeds, several distinct fault kinds must fire.
    let mut by_kind = [0u64; 7];
    for seed in 1..=8 {
        let report = run_fleet_chaos(&one_tenant(FleetChaosConfig::smoke(seed)));
        for (k, n) in report.outcomes[0].faults_by_kind.iter().enumerate() {
            by_kind[k] += n;
        }
    }
    let kinds_seen = by_kind.iter().filter(|&&n| n > 0).count();
    assert!(kinds_seen >= 4, "only {kinds_seen} fault kinds fired: {by_kind:?}");
}
