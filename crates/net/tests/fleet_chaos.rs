//! Fleet-scale chaos tests: many resilient clients over seeded faulty links
//! into one fleet server, with the fleet-wide exactly-once partition
//! invariant (`frames_intact == durable + deduped + gap_dropped +
//! decode_failures + shed`) checked on every run.
//!
//! `cargo test -p dbgc-net --test fleet_chaos` runs the smoke set; CI's
//! `fleet-smoke` job adds the 200-seed release sweep
//! (`--release -- sweep_200`), and acceptance runs the full 1000
//! (`--release -- --ignored`).

use std::collections::BTreeMap;

use dbgc_net::fleet_chaos::{run_fleet_chaos, FleetChaosConfig, FleetChaosReport, FleetTransport};
use dbgc_net::{FaultProfile, OverloadPolicy};

fn assert_recovers(config: &FleetChaosConfig) -> FleetChaosReport {
    let report = run_fleet_chaos(config);
    if let Err(e) = report.verify() {
        panic!("{e}\n{}", report.summary());
    }
    report
}

/// The seed-indexed sweep shape: every fourth seed runs with tight
/// `DropOldest` budgets so load shedding is exercised *inside* the sweep,
/// not only in dedicated tests, and seeds above 700 run the hostile profile.
fn sweep_config(seed: u64) -> FleetChaosConfig {
    let config = if seed % 4 == 0 {
        FleetChaosConfig::shedding(seed)
    } else {
        FleetChaosConfig::smoke(seed)
    };
    if seed > 700 {
        FleetChaosConfig { profile: FaultProfile::hostile(), ..config }
    } else {
        config
    }
}

/// The loopback-TCP sweep shape: the in-process shapes carried over real
/// sockets with auth enforced, plus one bad-auth prober and one oversize
/// smuggler per seed — so every sweep seed exercises mid-stream resets,
/// stalls, byte-trickle, a credential probe, and the 8 MiB payload guard.
fn tcp_sweep_config(seed: u64) -> FleetChaosConfig {
    FleetChaosConfig {
        transport: FleetTransport::Tcp,
        auth_secret: Some(seed ^ 0x0007_C95E_C2E7),
        bad_auth_clients: 1,
        oversize_clients: 1,
        ..sweep_config(seed)
    }
}

#[test]
fn smoke_lossy_fleet_seeds_1_through_6() {
    for seed in 1..=6 {
        assert_recovers(&FleetChaosConfig::smoke(seed));
    }
}

#[test]
fn smoke_shedding_fleet_seeds_201_through_204() {
    for seed in 201..=204 {
        let report = assert_recovers(&FleetChaosConfig::shedding(seed));
        assert!(report.fleet.shed_frames > 0, "seed {seed}: tight budgets must shed");
    }
}

#[test]
fn smoke_blocking_fleet_with_drain_cadence() {
    // Block-policy budgets park tenants until the archival drain relieves
    // them; delivery must still be total (Block never sheds).
    let mut config = FleetChaosConfig::smoke(42);
    config.max_tenant_frames = 3;
    config.policy = OverloadPolicy::Block;
    config.drain_period = Some(std::time::Duration::from_millis(2));
    let report = assert_recovers(&config);
    assert_eq!(report.fleet.shed_frames, 0, "Block never sheds");
}

#[test]
fn replay_from_seed_alone_is_deterministic() {
    // Same seed, same client set: per-tenant delivery outcomes are
    // identical between runs (only wall-clock-dependent client stats may
    // vary).
    let config = FleetChaosConfig::smoke(9);
    let a = assert_recovers(&config);
    let b = assert_recovers(&config);
    assert_eq!(tenant_counters(&a), tenant_counters(&b));
}

/// Per-tenant (durable, shed, deduped, gap_dropped) counters, keyed by
/// session id.
fn tenant_counters(report: &FleetChaosReport) -> BTreeMap<u64, (Vec<u32>, Vec<u32>, usize, usize)> {
    report
        .fleet
        .tenants
        .iter()
        .map(|t| (t.session_id, (t.durable.clone(), t.shed.clone(), t.deduped, t.gap_dropped)))
        .collect()
}

#[test]
fn fleet_determinism_across_shard_counts() {
    // Same seed + same client set ⇒ identical per-tenant stored / deduped /
    // gap_dropped / shed at 1, 2, and 4 event-loop shards (the fleet
    // analogue of the den-stage shard-determinism test). Clean links keep
    // retransmission timing out of the picture; the tight per-tenant
    // DropOldest budget makes shedding part of what must reproduce.
    for seed in [5u64, 6, 7] {
        let mut reference = None;
        for shards in [1usize, 2, 4] {
            let mut config = FleetChaosConfig::clean(seed);
            config.shards = shards;
            config.tenants = 6;
            config.frames_per_tenant = 10;
            config.max_tenant_frames = 3;
            config.policy = OverloadPolicy::DropOldest;
            let report = assert_recovers(&config);
            assert!(report.fleet.shed_frames > 0, "seed {seed}: budget must bind");
            let counters = tenant_counters(&report);
            match &reference {
                None => reference = Some(counters),
                Some(want) => assert_eq!(
                    &counters, want,
                    "seed {seed}: outcomes differ between 1 and {shards} shards"
                ),
            }
        }
    }
}

#[test]
fn tcp_smoke_seeds_301_through_304() {
    for seed in 301..=304 {
        let report = assert_recovers(&FleetChaosConfig::tcp_smoke(seed));
        let conns = report.conns.expect("tcp runs carry a connection ledger");
        assert_eq!(conns.open, 0, "seed {seed}: leaked sockets");
    }
}

#[test]
fn tcp_graceful_drain_32_sensors_leaves_no_connections() {
    // CI's `tcp-smoke` shape: 32 sensors over seeded loopback chaos with a
    // live archival drain cadence, then one graceful shutdown cycle. The
    // partition must hold and the edge must exit with zero open sockets.
    let mut config = FleetChaosConfig::tcp_smoke(77);
    config.tenants = 32;
    config.frames_per_tenant = 6;
    config.shards = 4;
    config.drain_period = Some(std::time::Duration::from_millis(5));
    let report = assert_recovers(&config);
    let conns = report.conns.expect("tcp ledger");
    assert_eq!(conns.open, 0, "graceful drain must close every socket");
    let drained: usize = report.drained.iter().map(|(_, f)| f.len()).sum();
    assert!(drained > 0, "the archival path saw frames");
}

#[test]
fn tcp_matches_in_process_on_clean_links() {
    // On fault-free links the transports must agree byte-for-byte: same
    // per-tenant durable/shed/dedup/gap outcomes from the same seed whether
    // frames ride an in-memory feed or a real socket.
    for seed in [31u64, 32] {
        let in_process = assert_recovers(&FleetChaosConfig::clean(seed));
        let mut over_tcp = FleetChaosConfig::clean(seed);
        over_tcp.transport = FleetTransport::Tcp;
        let tcp = assert_recovers(&over_tcp);
        assert_eq!(
            tenant_counters(&in_process),
            tenant_counters(&tcp),
            "seed {seed}: transports disagree on clean links"
        );
    }
}

/// CI-sized sweep for the `fleet-smoke` job (release build): seeds 1–200,
/// every fourth under tight shedding budgets.
#[test]
#[ignore = "release sweep; run with --release -- --ignored sweep_200"]
fn sweep_200_seeds() {
    let mut failures = Vec::new();
    for seed in 1..=200u64 {
        if let Err(e) = run_fleet_chaos(&sweep_config(seed)).verify() {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{} seeds failed:\n{}", failures.len(), failures.join("\n"));
}

/// The loopback-TCP acceptance sweep: 200 seeded socket storms (resets,
/// stalls, trickle, bad-auth probes, oversize smuggling), every one holding
/// the partition invariant with zero leaked connections. Release-only; run
/// with `--release -- --ignored tcp_sweep_200`.
#[test]
#[ignore = "release sweep; run with --release -- --ignored tcp_sweep_200"]
fn tcp_sweep_200_seeds() {
    let mut failures = Vec::new();
    for seed in 1..=200u64 {
        let report = run_fleet_chaos(&tcp_sweep_config(seed));
        if let Err(e) = report.verify() {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{} seeds failed:\n{}", failures.len(), failures.join("\n"));
}

/// The acceptance sweep: 1000 seeded fleet storms (seeds 701–1000 under
/// the hostile profile), every one holding the fleet-wide exactly-once
/// partition. Ignored by default (minutes of wall clock); run with
/// `--release -- --ignored`.
#[test]
#[ignore = "full acceptance sweep; run with --release -- --ignored"]
fn sweep_1000_seeds() {
    let mut failures = Vec::new();
    for seed in 1..=1000u64 {
        if let Err(e) = run_fleet_chaos(&sweep_config(seed)).verify() {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{} seeds failed:\n{}", failures.len(), failures.join("\n"));
}
