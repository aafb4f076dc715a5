//! End-to-end network tests: sensor → client → link → fleet → verification.

mod common;

use std::sync::Arc;

use common::{small_config, small_frame};
use dbgc::{CompressedFrame, Dbgc};
use dbgc_geom::PointCloud;
use dbgc_lidar_sim::ScenePreset;
use dbgc_net::fleet::{FleetConfig, FleetServer, TenantReport};
use dbgc_net::link::LinkModel;
use dbgc_net::server::StoredFrame;
use dbgc_net::session::{ResilientClient, SessionConfig};

/// A one-tenant in-process fleet: the single-sensor server.
fn one_tenant(decompress: bool) -> FleetServer {
    let mut config = FleetConfig::new(1);
    config.decompress = decompress;
    FleetServer::spawn(config)
}

/// Deliver `payloads` as session `sid` through a resilient client into a
/// one-tenant fleet, and return the tenant's shutdown report.
fn deliver(decompress: bool, sid: u64, payloads: Vec<Vec<u8>>) -> TenantReport {
    let fleet = one_tenant(decompress);
    let handle = fleet.handle();
    let mut client =
        ResilientClient::new(move || handle.connect(sid), SessionConfig::fast_test(sid));
    for payload in payloads {
        client.send_payload(payload).unwrap();
    }
    client.finish().unwrap();
    let mut report = fleet.shutdown();
    report.verify_partition().unwrap();
    report.tenants.remove(0)
}

#[test]
fn stream_three_frames_over_memory_pipe() {
    let frames_meta: Vec<_> = (0..3).map(|k| small_frame(ScenePreset::KittiCity, 20 + k)).collect();
    let meta = frames_meta[0].1;
    let clouds: Vec<_> = frames_meta.into_iter().map(|(c, _)| c).collect();
    let compressor = Dbgc::new(small_config(0.02, meta));
    let frames: Vec<_> = clouds.iter().map(|c| compressor.compress(c).unwrap()).collect();
    let tenant = deliver(true, 1, frames.iter().map(|f| f.bytes.clone()).collect());
    assert_eq!(tenant.durable, vec![0, 1, 2]);
    for ((cloud, stored), frame) in clouds.iter().zip(&tenant.resident_frames).zip(&frames) {
        let restored = stored.cloud.as_ref().expect("decompressed");
        dbgc::verify_roundtrip(cloud, restored, frame, 0.02).expect("bound holds");
    }
}

#[test]
fn stream_over_tcp_localhost() {
    use dbgc_net::tcp::{TcpConnector, TcpFleetServer, TcpTuning};
    use std::time::Duration;
    let mut config = FleetConfig::new(1);
    config.decompress = true;
    let server = TcpFleetServer::bind("127.0.0.1:0", config, TcpTuning::fast_test())
        .expect("bind loopback fleet");
    let (cloud, meta) = small_frame(ScenePreset::KittiRoad, 30);
    let frame = Dbgc::new(small_config(0.02, meta)).compress(&cloud).unwrap();
    let connector = TcpConnector::new(server.local_addr())
        .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
    let mut client = ResilientClient::new(connector, SessionConfig::fast_test(5));
    client.send_payload(frame.bytes.clone()).expect("send");
    client.finish().expect("finish");
    let report = server.shutdown();
    let (_, stored) = report.drained.iter().find(|(sid, _)| *sid == 5).expect("session drained");
    let restored = stored[0].cloud.as_ref().expect("decompressed");
    dbgc::verify_roundtrip(&cloud, restored, &frame, 0.02).expect("bound holds");
}

/// Two compressed frames with a CRC-valid payload that does not decode
/// between them: the clouds, their frames, and the three payloads.
fn stream_with_undecodable_middle() -> (Vec<PointCloud>, Vec<CompressedFrame>, Vec<Vec<u8>>) {
    let frames_meta: Vec<_> = (0..2).map(|k| small_frame(ScenePreset::KittiCity, 50 + k)).collect();
    let meta = frames_meta[0].1;
    let clouds: Vec<_> = frames_meta.into_iter().map(|(c, _)| c).collect();
    let compressor = Dbgc::new(small_config(0.02, meta));
    let frames: Vec<_> = clouds.iter().map(|c| compressor.compress(c).unwrap()).collect();
    let payloads =
        vec![frames[0].bytes.clone(), b"not-a-dbgc-stream".to_vec(), frames[1].bytes.clone()];
    (clouds, frames, payloads)
}

/// The undecodable frame 1 is acked, counted once and never stored; frames
/// 0 and 2 are stored with clouds within the bound.
fn assert_decode_failure_skipped(
    tenant: &TenantReport,
    stored: &[StoredFrame],
    clouds: &[PointCloud],
    frames: &[CompressedFrame],
) {
    assert_eq!(tenant.decode_failures, 1, "frame 1 does not decode");
    assert_eq!(tenant.durable, vec![0, 2], "the session moved past frame 1");
    assert_eq!(stored.len(), 2);
    for ((cloud, stored), frame) in clouds.iter().zip(stored).zip(frames) {
        let restored = stored.cloud.as_ref().expect("decompressed");
        dbgc::verify_roundtrip(cloud, restored, frame, 0.02).expect("bound holds");
    }
}

#[test]
fn undecodable_frame_is_acked_counted_and_skipped() {
    let (clouds, frames, payloads) = stream_with_undecodable_middle();
    let tenant = deliver(true, 7, payloads);
    assert_decode_failure_skipped(&tenant, &tenant.resident_frames, &clouds, &frames);
}

#[test]
fn undecodable_frame_over_tcp_is_acked_counted_and_skipped() {
    use dbgc_net::tcp::{TcpConnector, TcpFleetServer, TcpTuning};
    use std::time::Duration;
    let (clouds, frames, payloads) = stream_with_undecodable_middle();
    let mut config = FleetConfig::new(1);
    config.decompress = true;
    let server = TcpFleetServer::bind("127.0.0.1:0", config, TcpTuning::fast_test())
        .expect("bind loopback fleet");
    let connector = TcpConnector::new(server.local_addr())
        .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
    let mut client = ResilientClient::new(connector, SessionConfig::fast_test(8));
    for payload in payloads {
        client.send_payload(payload).expect("send");
    }
    client.finish().expect("finish");
    let report = server.shutdown();
    report.fleet.verify_partition().expect("partition holds");
    let tenant = report.fleet.tenant(8).expect("tenant admitted");
    let (_, stored) = report.drained.iter().find(|(sid, _)| *sid == 8).expect("session drained");
    assert_decode_failure_skipped(tenant, stored, &clouds, &frames);
}

#[test]
fn compressed_stream_fits_4g_where_raw_does_not() {
    // The system-level claim of §4.4 at 10 fps.
    let (cloud, meta) = small_frame(ScenePreset::KittiCampus, 31);
    let frame = Dbgc::new(small_config(0.02, meta)).compress(&cloud).unwrap();
    // Scale to a full-resolution frame: small_frame has 500/2083 columns.
    // Reduced azimuth resolution hurts DBGC disproportionately (polylines
    // fragment at 4x ring spacing), so the linear extrapolation is an upper
    // bound on the full-resolution stream; the fig9_ratio harness measures
    // ~5-6 Mbps on full frames. Assert the scaled bound stays near the
    // uplink and the raw stream clearly exceeds it.
    let scale = 2083.0 / 500.0;
    let compressed_mbps =
        LinkModel::required_mbps((frame.bytes.len() as f64 * scale) as usize, 10.0);
    let raw_mbps = LinkModel::required_mbps((cloud.raw_size_bytes() as f64 * scale) as usize, 10.0);
    assert!(compressed_mbps < 10.0, "compressed stream needs {compressed_mbps:.1} Mbps");
    assert!(raw_mbps > 8.2 * 10.0, "raw stream must dwarf 4G ({raw_mbps:.1} Mbps)");
}

/// Three compressed frames as one session's wire (hello first), with a
/// burst of bit flips inside frame 1's payload. Returns the clouds, their
/// frames, the corrupted wire and the flipped offsets.
fn corrupted_session() -> (Vec<PointCloud>, Vec<CompressedFrame>, Vec<u8>, Vec<u64>) {
    use dbgc_net::{write_frame, Control, WireFrame};
    let frames_meta: Vec<_> = (0..3).map(|k| small_frame(ScenePreset::KittiCity, 40 + k)).collect();
    let meta = frames_meta[0].1;
    let clouds: Vec<_> = frames_meta.into_iter().map(|(c, _)| c).collect();
    let compressor = Dbgc::new(small_config(0.02, meta));
    let frames: Vec<_> = clouds.iter().map(|c| compressor.compress(c).unwrap()).collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, &Control::Hello { session_id: 1, last_acked: 0 }.to_frame()).unwrap();
    let mut boundaries = vec![wire.len()];
    for (i, f) in frames.iter().enumerate() {
        write_frame(&mut wire, &WireFrame { sequence: i as u32, payload: f.bytes.clone() })
            .unwrap();
        boundaries.push(wire.len());
    }
    let mid = (boundaries[1] + boundaries[2]) / 2;
    let flips: Vec<u64> = (0..4).map(|k| (mid + k * 9) as u64).collect();
    for &at in &flips {
        wire[at as usize] ^= 0x10;
    }
    (clouds, frames, wire, flips)
}

#[test]
fn corrupt_frame_mid_stream_is_dropped_and_stream_recovers() {
    // Written raw, the session stores frame 0, resynchronizes past the
    // corrupt frame 1 and gap-drops frame 2 for go-back-N to re-deliver.
    use std::io::Write;
    let (clouds, frames, wire, _) = corrupted_session();
    let fleet = one_tenant(true);
    let handle = fleet.handle();
    let (mut tx, _acks) = handle.connect(1).unwrap();
    tx.write_all(&wire).unwrap();
    handle.sync();
    drop(tx);
    let mut report = fleet.shutdown();
    report.verify_partition().unwrap();
    let tenant = report.tenants.remove(0);
    assert_eq!(tenant.durable, vec![0], "only the frame before the damage is in order");
    assert_eq!(tenant.resyncs, 1, "the corrupt frame is skipped as one region");
    assert_eq!(tenant.gap_dropped, 1, "frame 2 waits for go-back-N");
    assert_eq!(tenant.decode_failures, 0);
    let restored = tenant.resident_frames[0].cloud.as_ref().expect("decompressed");
    dbgc::verify_roundtrip(&clouds[0], restored, &frames[0], 0.02).expect("bound holds");
}

#[test]
fn corrupt_frame_mid_stream_is_redelivered_by_go_back_n() {
    // A resilient client over a link that flips the same bits: its stream
    // has the same layout (a hello of the same length, then the frames), so
    // the damage lands in frame 1, and go-back-N re-delivers frames 1 and 2
    // in order.
    use dbgc_net::{FaultEvent, FaultSchedule, FaultyLink};
    let (clouds, frames, _, flips) = corrupted_session();
    let schedule = FaultSchedule::from_events(
        flips.iter().map(|&at| FaultEvent::FlipBit { at, bit: 4 }).collect(),
    );
    let state = schedule.into_state();
    let fleet = one_tenant(true);
    let handle = fleet.handle();
    let link = Arc::clone(&state);
    let connector = move || {
        let (tx, rx) = handle.connect(2)?;
        Ok((FaultyLink::new(tx, Arc::clone(&link)), rx))
    };
    let mut client = ResilientClient::new(connector, SessionConfig::fast_test(2));
    for f in &frames {
        client.send_payload(f.bytes.clone()).unwrap();
    }
    let stats = client.finish().unwrap();
    assert_eq!(state.lock().unwrap().events_applied(), 4, "every flip landed");
    let mut report = fleet.shutdown();
    report.verify_partition().unwrap();
    let tenant = report.tenants.remove(0);
    assert_eq!(tenant.durable, vec![0, 1, 2], "go-back-N re-delivered frames 1 and 2");
    assert_eq!(tenant.resyncs, 1);
    assert!(tenant.gap_dropped >= 1);
    assert!(stats.retransmits >= 2, "{stats:?}");
    for (stored, idx) in tenant.resident_frames.iter().zip(0..) {
        let restored = stored.cloud.as_ref().expect("decompressed");
        dbgc::verify_roundtrip(&clouds[idx], restored, &frames[idx], 0.02).expect("bound holds");
    }
}

#[test]
fn oversized_tenant_is_shed_alone_neighbors_stay_intact() {
    // Fleet admission × the per-connection payload guard: one tenant
    // declares a frame far over `max_payload`. Its reader must treat the
    // oversized frame as garbage (resync past it) without stalling the
    // event loop, and the *other* tenants' sessions must complete
    // untouched.
    use dbgc_net::fleet::{FleetConfig, FleetServer};
    use dbgc_net::session::{ResilientClient, SessionConfig};
    use dbgc_net::{write_frame, Control, WireFrame};

    let mut config = FleetConfig::new(4);
    config.max_payload = 4096;
    config.shards = 2;
    let fleet = FleetServer::spawn(config);
    let handle = fleet.handle();

    // The offender: raw wire writes, because a resilient client would keep
    // retransmitting the never-acked oversized frame.
    let (mut bad_tx, _bad_ack) = handle.connect(3).unwrap();
    write_frame(&mut bad_tx, &Control::Hello { session_id: 3, last_acked: 0 }.to_frame()).unwrap();
    write_frame(&mut bad_tx, &WireFrame { sequence: 0, payload: vec![0xAB; 512] }).unwrap();
    write_frame(&mut bad_tx, &WireFrame { sequence: 1, payload: vec![0xCD; 16 * 1024] }).unwrap();
    write_frame(&mut bad_tx, &WireFrame { sequence: 2, payload: vec![0xEF; 512] }).unwrap();
    handle.sync();

    // Well-behaved neighbors on both shards deliver concurrently.
    let neighbors: Vec<_> = [1u64, 2]
        .into_iter()
        .map(|sid| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let h = handle.clone();
                let mut client =
                    ResilientClient::new(move || h.connect(sid), SessionConfig::fast_test(sid));
                for i in 0..4u8 {
                    client.send_payload(vec![i; 1024]).unwrap();
                }
                client.finish().unwrap()
            })
        })
        .collect();
    for t in neighbors {
        t.join().unwrap();
    }
    drop(bad_tx);

    let report = fleet.shutdown();
    let bad = report.tenant(3).expect("offender admitted");
    assert_eq!(bad.durable, vec![0], "only the in-budget frame before the oversize is stored");
    assert!(bad.resyncs >= 1, "the oversized frame is skipped as garbage");
    assert!(bad.gap_dropped >= 1, "the frame after the hole is gap-dropped, not mis-ordered");
    for sid in [1u64, 2] {
        let t = report.tenant(sid).expect("neighbor admitted");
        assert_eq!(t.durable, (0..4).collect::<Vec<u32>>(), "neighbor {sid} delivered in full");
        assert_eq!(t.resyncs, 0, "neighbor {sid} saw no fallout");
    }
    report.verify_partition().unwrap();
}

#[test]
fn hostile_tcp_peers_are_reaped_neighbors_untouched() {
    // The socket edge's hardening contract: a truncated hello, pure garbage
    // before any frame magic, and a one-byte-per-50 ms slow-loris must all
    // be reaped within the hello deadline — without disturbing a healthy
    // tenant streaming on the same fleet, and without leaking a socket.
    use dbgc_net::fleet::FleetConfig;
    use dbgc_net::session::{ResilientClient, SessionConfig};
    use dbgc_net::tcp::{connect_with_deadline, TcpConnector, TcpFleetServer, TcpTuning};
    use dbgc_net::{write_frame, Control};
    use std::io::Write;
    use std::time::{Duration, Instant};

    let server = TcpFleetServer::bind("127.0.0.1:0", FleetConfig::new(4), TcpTuning::fast_test())
        .expect("bind loopback fleet");
    let addr = server.local_addr();

    // Hostile trio, each on its own thread so the trickle can pace itself.
    let hostiles = vec![
        std::thread::spawn(move || {
            // Truncated hello: a valid prefix, then silence.
            let mut s = connect_with_deadline(addr, Duration::from_secs(2)).expect("connect");
            let mut hello = Vec::new();
            write_frame(&mut hello, &Control::Hello { session_id: 9, last_acked: 0 }.to_frame())
                .expect("encode");
            let _ = s.write_all(&hello[..hello.len() / 2]);
            std::thread::sleep(Duration::from_secs(2));
        }),
        std::thread::spawn(move || {
            // Garbage before any frame magic, and no hello ever.
            let mut s = connect_with_deadline(addr, Duration::from_secs(2)).expect("connect");
            let _ = s.write_all(&[0x42; 700]);
            std::thread::sleep(Duration::from_secs(2));
        }),
        std::thread::spawn(move || {
            // Slow-loris: one garbage byte per 50 ms.
            let mut s = connect_with_deadline(addr, Duration::from_secs(2)).expect("connect");
            for _ in 0..40 {
                if s.write_all(&[0x99]).is_err() {
                    break; // reaped server-side — exactly what we want
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }),
    ];

    // A healthy neighbor delivering while the hostiles misbehave.
    let connector = TcpConnector::new(addr)
        .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
    let mut client = ResilientClient::new(connector, SessionConfig::fast_test(1));
    for i in 0..5u8 {
        client.send_payload(vec![i; 2048]).expect("neighbor send");
        std::thread::sleep(Duration::from_millis(40));
    }
    client.finish().expect("neighbor finish");

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.conns_reaped() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.conns_reaped(), 3, "all three hostiles reaped within deadline");
    for h in hostiles {
        h.join().expect("hostile thread");
    }

    let report = server.shutdown();
    assert_eq!(report.conns_open, 0, "no leaked sockets");
    assert_eq!(report.fleet.tenants.len(), 1, "no hostile ever became a tenant");
    let neighbor = report.fleet.tenant(1).expect("neighbor admitted");
    assert_eq!(neighbor.durable, (0..5).collect::<Vec<u32>>(), "neighbor delivered in full");
    assert_eq!(neighbor.resyncs, 0, "hostile bytes never crossed into the neighbor's stream");
    report.fleet.verify_partition().expect("partition holds");
}

#[test]
fn tcp_graceful_drain_archives_into_frame_store() {
    // Shutdown contract over real sockets: stop accepting, drain what the
    // tenants hold, and hand the frames to the archive — which must parse,
    // query, and decompress them exactly as the in-process path does.
    use dbgc_net::fleet::FleetConfig;
    use dbgc_net::session::{ResilientClient, SessionConfig};
    use dbgc_net::tcp::{TcpConnector, TcpFleetServer, TcpTuning};
    use dbgc_store::FrameStore;
    use std::time::Duration;

    let server = TcpFleetServer::bind("127.0.0.1:0", FleetConfig::new(4), TcpTuning::fast_test())
        .expect("bind loopback fleet");
    let addr = server.local_addr();

    let (cloud, meta) = small_frame(ScenePreset::KittiCity, 33);
    let frame = Dbgc::new(small_config(0.02, meta)).compress(&cloud).expect("compress");
    let bytes = frame.bytes.clone();
    let connector = TcpConnector::new(addr)
        .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
    let mut client = ResilientClient::new(connector, SessionConfig::fast_test(6));
    client.send_payload(bytes.clone()).expect("send compressed frame");
    client.finish().expect("finish");

    let report = server.shutdown();
    assert_eq!(report.conns_open, 0);
    let (sid, stored) = report.drained.iter().find(|(s, _)| *s == 6).expect("session drained");
    assert_eq!(stored[0].bytes, bytes, "tenant {sid} bytes survive the socket path verbatim");

    let mut store = FrameStore::new();
    let (t0, period) = (1_000_000u64, 100_000u64);
    store.archive_session(stored.clone(), t0, period).expect("archive drained session");
    assert_eq!(store.len(), 1);
    let (restored, _) = dbgc::decompress(&store.frames()[0].bytes).expect("archived frame decodes");
    dbgc::verify_roundtrip(&cloud, &restored, &frame, 0.02).expect("bound holds");
}

#[test]
fn store_mode_keeps_exact_bytes() {
    let (cloud, meta) = small_frame(ScenePreset::ApolloUrban, 32);
    let bytes = Dbgc::new(small_config(0.02, meta)).compress(&cloud).unwrap().bytes;
    let tenant = deliver(false, 3, vec![bytes.clone()]);
    let stored = &tenant.resident_frames[0];
    assert_eq!(stored.bytes, bytes);
    assert!(stored.cloud.is_none(), "store mode bypasses decompression");
    // Stored bytes remain decompressible later.
    let (restored, _) = dbgc::decompress(&stored.bytes).unwrap();
    assert!(!restored.is_empty());
}
