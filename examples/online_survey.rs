//! Online remote survey: a sensor streams frames through DBGC over a
//! simulated 4G uplink to a storage server (paper §3.1 / §4.4).
//!
//! The sensor compresses each frame and sends it through a resilient session
//! over a bandwidth-throttled pipe modelling the 8.2 Mbps mobile uplink; a
//! one-tenant fleet decompresses and stores. The run reports per-frame
//! latency and confirms the compressed stream fits the uplink while the raw
//! stream would not.
//!
//! A second scenario replays the same uplink with injected faults — bit
//! flips, truncations, mid-frame disconnects, stalls, and bandwidth
//! collapses — and prints the resilient session's recovery report: every
//! frame still arrives exactly once, in order, via retransmits and
//! reconnects.
//!
//! ```text
//! cargo run --release -p dbgc-examples --bin online_survey
//! ```

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dbgc::Dbgc;
use dbgc_lidar_sim::{frame, ScenePreset};
use dbgc_net::link::{throttled_pipe, LinkModel};
use dbgc_net::{FleetConfig, FleetServer, ResilientClient, SessionConfig};

const FRAMES: u32 = 5;
const FPS: f64 = 10.0;
const SENSOR: u64 = 1;

fn main() {
    let uplink = LinkModel::mobile_4g();
    let mut config = FleetConfig::new(1);
    config.decompress = true;
    let fleet = FleetServer::spawn(config);

    // Every connection runs through its own throttled pipe into the fleet;
    // a forwarding thread per connection ends when the client hangs up.
    let handle = fleet.handle();
    let forwarders = Arc::new(Mutex::new(Vec::new()));
    let spawned = Arc::clone(&forwarders);
    let connector = move || {
        let (mut to_fleet, acks) = handle.connect(SENSOR)?;
        let (uplink_tx, mut uplink_rx) = throttled_pipe(Some(uplink));
        let forward = std::thread::spawn(move || std::io::copy(&mut uplink_rx, &mut to_fleet));
        spawned.lock().expect("forwarder list").push(forward);
        Ok((uplink_tx, acks))
    };
    let mut client = ResilientClient::new(connector, SessionConfig::new(SENSOR));
    let compressor = Dbgc::with_error_bound(0.02);
    let t0 = Instant::now();
    let mut sent = Vec::new();
    for k in 0..FRAMES {
        let cloud = frame(ScenePreset::KittiCampus, 7, k);
        let t = Instant::now();
        let compressed = compressor.compress(&cloud).expect("compress");
        let bytes = compressed.bytes.len();
        client.send_payload(compressed.bytes).expect("send");
        sent.push((cloud.len(), bytes, t.elapsed()));
    }
    client.finish().expect("every frame acknowledged");
    let wall = t0.elapsed();
    for forward in forwarders.lock().expect("forwarder list").drain(..) {
        let _ = forward.join().expect("forwarder thread");
    }
    let report = fleet.shutdown();
    let stored = &report.tenant(SENSOR).expect("sensor admitted").resident_frames;
    let received = stored.len();

    println!("streamed {received} frames over a {:.1} Mbps uplink", uplink.bits_per_second / 1e6);
    let mut total_bytes = 0usize;
    for (k, (points, bytes, latency)) in sent.iter().enumerate() {
        total_bytes += bytes;
        println!(
            "frame {k}: {points} pts -> {bytes} B, compress+transfer {:.0} ms, \
             uplink share {:.1} Mbps",
            latency.as_secs_f64() * 1000.0,
            LinkModel::required_mbps(*bytes, FPS)
        );
    }
    let avg = total_bytes / sent.len();
    let need = LinkModel::required_mbps(avg, FPS);
    let raw_need = LinkModel::required_mbps(sent[0].0 * 12, FPS);
    println!("wall clock: {:.2} s for {FRAMES} frames", wall.as_secs_f64());
    println!(
        "bandwidth at {FPS} fps: compressed {need:.1} Mbps vs raw {raw_need:.0} Mbps \
         (uplink {:.1} Mbps) -> online streaming {}",
        uplink.bits_per_second / 1e6,
        if need <= uplink.bits_per_second / 1e6 { "FEASIBLE" } else { "infeasible" }
    );
    for frame in stored {
        assert!(frame.cloud.is_some(), "server decompressed every frame");
    }

    faulty_uplink_scenario();
}

/// The same 4G uplink, now hostile: a seeded fault schedule corrupts,
/// truncates, stalls, and disconnects the link mid-stream while the
/// resilient session retries, reconnects, and retransmits until the fleet
/// holds every frame exactly once, in order.
fn faulty_uplink_scenario() {
    use dbgc_net::fleet_chaos::{run_fleet_chaos, FleetChaosConfig};

    println!();
    println!("--- degraded 4G uplink (seeded fault injection) ---");
    let config =
        FleetChaosConfig { tenants: 1, frames_per_tenant: 16, ..FleetChaosConfig::smoke(42) };
    let report = run_fleet_chaos(&config);
    let mut by_kind: Vec<String> = Vec::new();
    for (kind, n) in ["bit-flip", "drop", "disconnect", "stall", "duplicate", "reorder", "collapse"]
        .iter()
        .zip(report.outcomes[0].faults_by_kind.iter())
    {
        if *n > 0 {
            by_kind.push(format!("{kind} x{n}"));
        }
    }
    println!(
        "injected faults: {}",
        if by_kind.is_empty() { "none".into() } else { by_kind.join(", ") }
    );
    println!("recovery report: {}", report.summary());
    match report.verify() {
        Ok(()) => println!(
            "all {} frames recovered exactly once, in order -> degraded-link streaming SURVIVES",
            report.frames_per_tenant
        ),
        Err(e) => println!("recovery FAILED: {e}"),
    }
}
