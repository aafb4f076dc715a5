//! Fleet ingestion benchmark: sustained frames/s and p99 frame latency for
//! fleets of simulated 10 Hz sensors streaming into one fleet server.
//!
//! ```text
//! cargo run --release -p dbgc-bench --bin fleet_bench            # full run -> BENCH_fleet.json
//! cargo run --release -p dbgc-bench --bin fleet_bench -- --gate  # CI gate: 100 sensors >= 10 Hz each
//! cargo run --release -p dbgc-bench --bin fleet_bench -- --transport tcp   # paced runs over loopback TCP
//! ```
//!
//! Four configurations, all recorded in `BENCH_fleet.json`:
//!
//! * **100 sensors × 30 frames** (the CI gate shape) — every sensor a real
//!   `ResilientClient` session (hello, acked window, reconnect machinery),
//!   paced at the paper's 10 Hz frame rate with ~12 KiB synthetic
//!   compressed payloads;
//! * **1000 sensors × 10 frames** — the same, at fleet scale;
//! * **10000 sensors × 3 frames, in-process, multiplexed** — a handful of
//!   worker threads each driving hundreds of raw wire-v3 sessions
//!   round-robin (hello + paced data frames, acks left unread), measuring
//!   the fleet core's session-count ceiling without 10k OS threads;
//! * **1000 sensors × 5 frames over loopback TCP** — resilient clients
//!   through `TcpFleetServer`, so accept, per-shard socket polling, and
//!   deadline bookkeeping are part of the measured path.
//!
//! Latency is measured per frame on the client: time from "frame due" to
//! the send returning, i.e. the backpressure the fleet pushes onto a
//! sensor. A background drainer archives frames on a cadence like a real
//! ingest node, so the `FleetHandle::drain` hand-off is exercised under load.
//!
//! The gate (`--gate`) requires the 100-sensor run to sustain at least
//! `GATE_HZ_PER_SENSOR` per sensor on hosts with >= 4 cores; on smaller
//! hosts it prints a loud SKIPPED line and exits 0 (a starved runner cannot
//! measure fleet throughput, and gating on fiction helps nobody).

use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbgc::metrics::Collector;
use dbgc_net::fleet::{FleetConfig, FleetHandle, FleetReport, FleetServer};
use dbgc_net::fleet_chaos::chaos_payload;
use dbgc_net::protocol::{write_frame, Control, WireFrame};
use dbgc_net::session::{Connect, ResilientClient, SessionConfig};
use dbgc_net::tcp::{TcpConnector, TcpFleetServer, TcpTuning};

/// The paper's sensor frame rate.
const SENSOR_HZ: f64 = 10.0;
/// Synthetic compressed-frame size (measured DBGC scale for a small frame).
const PAYLOAD_BYTES: usize = 12 * 1024;
/// Smaller payloads for the 10k-session run (bounds total bytes moved).
const HUGE_FLEET_PAYLOAD_BYTES: usize = 4 * 1024;
/// Per-sensor rate the CI gate requires at 100 sensors.
const GATE_HZ_PER_SENSOR: f64 = 10.0;
/// Cores below which the gate loudly skips.
const GATE_MIN_CORES: usize = 4;

/// Which transport the paced resilient-client runs use.
#[derive(Clone, Copy, PartialEq)]
enum Transport {
    InProcess,
    Tcp,
}

/// A transport-erased connection pair: what `ResilientClient` wants.
type BoxedConn = (Box<dyn Write + Send>, Box<dyn Read + Send>);

/// One live fleet behind either transport.
enum Fleet {
    InProcess(FleetServer),
    Tcp(Box<TcpFleetServer>),
}

impl Fleet {
    fn spawn(config: FleetConfig, transport: Transport) -> Fleet {
        match transport {
            Transport::InProcess => Fleet::InProcess(FleetServer::spawn(config)),
            Transport::Tcp => Fleet::Tcp(Box::new(
                TcpFleetServer::bind("127.0.0.1:0", config, TcpTuning::default())
                    .expect("bind loopback fleet"),
            )),
        }
    }

    fn handle(&self) -> FleetHandle {
        match self {
            Fleet::InProcess(f) => f.handle(),
            Fleet::Tcp(s) => s.handle(),
        }
    }

    /// A fresh-connection factory for one sensor, transport-erased.
    fn connector(&self, session_id: u64) -> impl FnMut() -> std::io::Result<BoxedConn> + Send {
        enum Via {
            Handle(FleetHandle),
            Addr(std::net::SocketAddr),
        }
        let via = match self {
            Fleet::InProcess(f) => Via::Handle(f.handle()),
            Fleet::Tcp(s) => Via::Addr(s.local_addr()),
        };
        move || match &via {
            Via::Handle(handle) => {
                let (tx, rx) = handle.connect(session_id)?;
                Ok((Box::new(tx) as Box<dyn Write + Send>, Box::new(rx) as Box<dyn Read + Send>))
            }
            Via::Addr(addr) => {
                let (tx, rx) = TcpConnector::new(*addr).connect()?;
                Ok((Box::new(tx) as Box<dyn Write + Send>, Box::new(rx) as Box<dyn Read + Send>))
            }
        }
    }

    fn shutdown(self) -> FleetReport {
        match self {
            Fleet::InProcess(f) => f.shutdown(),
            Fleet::Tcp(s) => {
                let report = s.shutdown();
                assert_eq!(report.conns_open, 0, "bench fleet leaked sockets");
                report.fleet
            }
        }
    }
}

struct RunResult {
    sensors: usize,
    frames_total: usize,
    elapsed: Duration,
    /// Per-frame client-side latencies (µs), all sensors pooled.
    latencies_us: Vec<u64>,
    /// Worst single tenant's p99 (µs).
    worst_tenant_p99_us: u64,
    drained_frames: usize,
}

impl RunResult {
    fn frames_per_s(&self) -> f64 {
        self.frames_total as f64 / self.elapsed.as_secs_f64()
    }

    fn hz_per_sensor(&self) -> f64 {
        self.frames_per_s() / self.sensors as f64
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Background archival drain on a cadence; returns the total drained count
/// once `stop` is raised.
fn spawn_drainer(handle: FleetHandle, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<usize> {
    std::thread::spawn(move || {
        let mut drained = 0usize;
        while !stop.load(Ordering::Relaxed) {
            drained += handle.drain().iter().map(|(_, f)| f.len()).sum::<usize>();
            std::thread::sleep(Duration::from_millis(100));
        }
        drained + handle.drain().iter().map(|(_, f)| f.len()).sum::<usize>()
    })
}

/// Drive `sensors` paced 10 Hz resilient clients for `frames_per_sensor`
/// frames each, one OS thread per sensor, over `transport`.
fn run_fleet(
    sensors: usize,
    frames_per_sensor: usize,
    shards: usize,
    transport: Transport,
) -> RunResult {
    let mut config = FleetConfig::new(sensors);
    config.shards = shards;
    let fleet = Fleet::spawn(config, transport);
    let handle = fleet.handle();

    // Background archival: drain on a cadence so resident memory stays
    // bounded and the hand-off path is part of what is measured.
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = spawn_drainer(handle.clone(), Arc::clone(&stop));

    let period = Duration::from_secs_f64(1.0 / SENSOR_HZ);
    let t0 = Instant::now();
    let clients: Vec<_> = (0..sensors as u64)
        .map(|sensor| {
            let connector = fleet.connector(sensor);
            std::thread::spawn(move || {
                let mut client = ResilientClient::new(connector, SessionConfig::new(sensor));
                let start = Instant::now();
                let mut lats = Vec::with_capacity(frames_per_sensor);
                for index in 0..frames_per_sensor {
                    // Pace to the sensor clock; latency = how far past the
                    // frame's due time the fleet let us get it accepted.
                    let due = period * index as u32;
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let payload = chaos_payload(sensor, index, PAYLOAD_BYTES);
                    client.send_payload(payload).expect("fleet accepts in-budget sensors");
                    lats.push(start.elapsed().saturating_sub(due).as_micros() as u64);
                }
                client.finish().expect("session completes");
                lats
            })
        })
        .collect();

    let mut latencies_us = Vec::with_capacity(sensors * frames_per_sensor);
    let mut worst_tenant_p99_us = 0u64;
    for client in clients {
        let mut lats = client.join().expect("sensor thread");
        lats.sort_unstable();
        worst_tenant_p99_us = worst_tenant_p99_us.max(percentile(&lats, 0.99));
        latencies_us.append(&mut lats);
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    let drained_frames = drainer.join().expect("drainer thread");
    let report = fleet.shutdown();
    let durable: usize = report.tenants.iter().map(|t| t.durable.len()).sum();
    assert_eq!(durable, sensors * frames_per_sensor, "every paced frame lands durably");
    report.verify_partition().expect("fleet partition holds under load");

    latencies_us.sort_unstable();
    RunResult {
        sensors,
        frames_total: durable,
        elapsed,
        latencies_us,
        worst_tenant_p99_us,
        drained_frames,
    }
}

/// Drive `sensors` raw in-process wire-v3 sessions multiplexed over a few
/// worker threads: each worker owns `sensors / workers` sessions, writes
/// their hellos once, then paces data rounds at the sensor clock. Acks are
/// left unread (the fleet's bounded ack channel sheds them), so this
/// measures the ingest side alone — the point is session *count*, not the
/// client machinery, which the paced runs already cover.
fn run_fleet_multiplexed(
    sensors: usize,
    frames_per_sensor: usize,
    shards: usize,
    workers: usize,
) -> RunResult {
    let mut config = FleetConfig::new(sensors);
    config.shards = shards;
    let fleet = FleetServer::spawn(config);
    let handle = fleet.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = spawn_drainer(handle.clone(), Arc::clone(&stop));

    let period = Duration::from_secs_f64(1.0 / SENSOR_HZ);
    let t0 = Instant::now();
    let workers_joined: Vec<_> = (0..workers as u64)
        .map(|worker| {
            let handle = handle.clone();
            let sensors = sensors as u64;
            let workers = workers as u64;
            std::thread::spawn(move || {
                let mut sessions = Vec::new();
                for sensor in (worker..sensors).step_by(workers as usize) {
                    let (mut tx, ack_rx) =
                        handle.connect(sensor).expect("fleet accepts the session");
                    write_frame(
                        &mut tx,
                        &Control::Hello { session_id: sensor, last_acked: 0 }.to_frame(),
                    )
                    .expect("hello lands");
                    // Keep the ack half alive so the server's ack channel
                    // stays open (it sheds on full — that is the contract).
                    sessions.push((sensor, tx, ack_rx));
                }
                let start = Instant::now();
                let mut lats = vec![Vec::with_capacity(frames_per_sensor); sessions.len()];
                for index in 0..frames_per_sensor {
                    let due = period * index as u32;
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    for (slot, (sensor, tx, _)) in sessions.iter_mut().enumerate() {
                        let frame = WireFrame {
                            sequence: index as u32,
                            payload: chaos_payload(*sensor, index, HUGE_FLEET_PAYLOAD_BYTES),
                        };
                        write_frame(tx, &frame).expect("fleet absorbs the paced write");
                        lats[slot].push(start.elapsed().saturating_sub(due).as_micros() as u64);
                    }
                }
                lats
            })
        })
        .collect();

    let mut latencies_us = Vec::with_capacity(sensors * frames_per_sensor);
    let mut worst_tenant_p99_us = 0u64;
    for worker in workers_joined {
        for mut lats in worker.join().expect("worker thread") {
            lats.sort_unstable();
            worst_tenant_p99_us = worst_tenant_p99_us.max(percentile(&lats, 0.99));
            latencies_us.append(&mut lats);
        }
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    let drained_frames = drainer.join().expect("drainer thread");
    let report = fleet.shutdown();
    let durable: usize = report.tenants.iter().map(|t| t.durable.len()).sum();
    assert_eq!(durable, sensors * frames_per_sensor, "every multiplexed frame lands durably");
    report.verify_partition().expect("fleet partition holds under load");

    latencies_us.sort_unstable();
    RunResult {
        sensors,
        frames_total: durable,
        elapsed,
        latencies_us,
        worst_tenant_p99_us,
        drained_frames,
    }
}

fn record(collector: &Collector, label: &str, result: &RunResult) {
    collector.set_gauge(&format!("fleet.{label}.frames_per_s"), result.frames_per_s());
    collector.set_gauge(&format!("fleet.{label}.hz_per_sensor"), result.hz_per_sensor());
    collector.set_gauge(
        &format!("fleet.{label}.p50_send_us"),
        percentile(&result.latencies_us, 0.50) as f64,
    );
    collector.set_gauge(
        &format!("fleet.{label}.p99_send_us"),
        percentile(&result.latencies_us, 0.99) as f64,
    );
    collector.set_gauge(
        &format!("fleet.{label}.p99_send_us_worst_tenant"),
        result.worst_tenant_p99_us as f64,
    );
    collector.set_gauge(&format!("fleet.{label}.drained_frames"), result.drained_frames as f64);
}

fn print_run(kind: &str, result: &RunResult) {
    println!(
        "{} sensors ({kind}): {:.0} frames/s ({:.2} Hz/sensor), send latency p50 {} µs / \
         p99 {} µs (worst tenant p99 {} µs), {} of {} frames drained mid-run, {:.2}s wall",
        result.sensors,
        result.frames_per_s(),
        result.hz_per_sensor(),
        percentile(&result.latencies_us, 0.50),
        percentile(&result.latencies_us, 0.99),
        result.worst_tenant_p99_us,
        result.drained_frames,
        result.frames_total,
        result.elapsed.as_secs_f64(),
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let gate_only = args.iter().any(|a| a == "--gate");
    let transport = match args.iter().position(|a| a == "--transport") {
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("tcp") => Transport::Tcp,
            Some("in-process") | Some("inprocess") => Transport::InProcess,
            other => {
                eprintln!("unknown --transport {other:?} (expected tcp | in-process)");
                return ExitCode::FAILURE;
            }
        },
        None => Transport::InProcess,
    };
    let transport_name = match transport {
        Transport::InProcess => "in-process",
        Transport::Tcp => "tcp",
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let shards = cores.clamp(1, 8);
    println!(
        "fleet bench: {cores} core(s), {shards} shard(s), {PAYLOAD_BYTES} B payloads, \
         {transport_name} transport"
    );

    if gate_only {
        if cores < GATE_MIN_CORES {
            println!(
                "fleet gate: SKIPPED — {cores} core(s) < {GATE_MIN_CORES} \
                 (cannot measure fleet throughput on this host)"
            );
            return ExitCode::SUCCESS;
        }
        let result = run_fleet(100, 30, shards, transport);
        print_run(transport_name, &result);
        let hz = result.hz_per_sensor();
        if hz < GATE_HZ_PER_SENSOR * 0.95 {
            eprintln!(
                "fleet gate: FAIL — {hz:.2} Hz/sensor at 100 sensors is below the \
                 {GATE_HZ_PER_SENSOR} Hz floor"
            );
            return ExitCode::FAILURE;
        }
        println!("fleet gate: OK ({hz:.2} Hz/sensor at 100 sensors >= {GATE_HZ_PER_SENSOR} Hz)");
        return ExitCode::SUCCESS;
    }

    let collector = Collector::new();
    collector.set_gauge("cores", cores as f64);
    collector.set_gauge("shards", shards as f64);
    collector.set_gauge("sensor_hz", SENSOR_HZ);
    collector.set_gauge("payload_bytes", PAYLOAD_BYTES as f64);

    let small = run_fleet(100, 30, shards, transport);
    print_run(transport_name, &small);
    record(&collector, "s100", &small);

    let large = run_fleet(1000, 10, shards, transport);
    print_run(transport_name, &large);
    record(&collector, "s1000", &large);

    // 10k in-process sessions, multiplexed over a few workers: the fleet
    // core's session-count ceiling.
    let huge = run_fleet_multiplexed(10_000, 3, shards, shards.max(4));
    print_run("in-process multiplexed", &huge);
    record(&collector, "s10000_multiplexed", &huge);

    // 1k sensors over real loopback sockets: the TCP edge under fleet load.
    let tcp = run_fleet(1000, 5, shards, Transport::Tcp);
    print_run("tcp", &tcp);
    record(&collector, "tcp_s1000", &tcp);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match std::fs::write(root.join("BENCH_fleet.json"), collector.snapshot().to_json()) {
        Ok(()) => println!("wrote BENCH_fleet.json"),
        Err(e) => eprintln!("warning: could not write BENCH_fleet.json: {e}"),
    }
    ExitCode::SUCCESS
}
