//! Metric-invariant suite: the observability layer must *prove* its own
//! numbers. Byte channels partition the stream exactly, span trees are
//! well-formed under every threading mode, recording never changes the
//! bitstream, and the net-server counters agree with its drop/store lists.

mod common;

use common::{small_config, small_frame};
use dbgc::Dbgc;
use dbgc_lidar_sim::ScenePreset;
use dbgc_metrics::Collector;

const Q: f64 = 0.02;

fn compressor(threads: usize) -> (Dbgc, dbgc_geom::PointCloud) {
    let (cloud, meta) = small_frame(ScenePreset::KittiCity, 3);
    let mut cfg = small_config(Q, meta);
    cfg.threads = threads;
    (Dbgc::new(cfg), cloud)
}

#[test]
fn byte_channels_sum_to_stream_size() {
    for preset in ScenePreset::all() {
        let (cloud, meta) = small_frame(preset, 3);
        let collector = Collector::new();
        let frame = Dbgc::new(small_config(Q, meta))
            .compress_with_metrics(&cloud, &collector)
            .expect("compress");
        let snap = collector.snapshot();
        assert_eq!(
            snap.bytes_total() as usize,
            frame.bytes.len(),
            "{}: byte channels must partition the stream",
            preset.name()
        );
        // And channel-by-channel they match the reported section sizes.
        let s = &frame.stats.sections;
        assert_eq!(snap.bytes["header"] as usize, s.header);
        assert_eq!(snap.bytes["dense"] as usize, s.dense);
        assert_eq!(snap.bytes["sparse"] as usize, s.sparse);
        assert_eq!(snap.bytes["outlier"] as usize, s.outlier);
    }
}

#[test]
fn span_trees_well_formed_across_thread_modes() {
    for threads in [0usize, 1, 4] {
        let (dbgc, cloud) = compressor(threads);
        let collector = Collector::new();
        let frame = dbgc.compress_with_metrics(&cloud, &collector).expect("compress");
        let (decoded, _) =
            dbgc::decompress_with_metrics(&frame.bytes, &collector).expect("own stream");
        assert_eq!(decoded.len(), cloud.len());

        let snap = collector.snapshot();
        snap.validate_spans().unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        let roots: Vec<_> = snap.spans.iter().filter(|s| s.parent.is_none()).collect();
        let names: Vec<_> = roots.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["compress", "decompress"], "threads={threads}");

        // The compress root's direct children are the pipeline stages; the
        // per-group org/spa spans recorded on pool workers must hang off the
        // sparse_groups stage, not float free.
        let compress_root = roots[0];
        let stages: Vec<_> =
            snap.span_children(compress_root.id).iter().map(|s| s.name.clone()).collect();
        for stage in ["den", "oct", "cor", "sparse_groups", "out"] {
            assert!(stages.contains(&stage.to_string()), "threads={threads}: missing {stage}");
        }
        let group_stage = snap
            .spans
            .iter()
            .find(|s| s.name == "sparse_groups")
            .expect("sparse_groups stage span");
        let group_children = snap.span_children(group_stage.id);
        assert!(
            group_children.iter().any(|s| s.name == "org")
                && group_children.iter().any(|s| s.name == "spa"),
            "threads={threads}: per-group org/spa spans must nest under sparse_groups"
        );
    }
}

#[test]
fn recording_is_bitstream_invariant() {
    for threads in [0usize, 1] {
        let (dbgc, cloud) = compressor(threads);
        let plain = dbgc.compress(&cloud).expect("compress");
        let collector = Collector::new();
        let instrumented = dbgc.compress_with_metrics(&cloud, &collector).expect("compress");
        assert_eq!(plain.bytes, instrumented.bytes, "threads={threads}");
        assert_eq!(plain.mapping, instrumented.mapping, "threads={threads}");
        // And the decoder's instrumented path decodes the same cloud.
        let (a, _) = dbgc::decompress(&plain.bytes).expect("plain decode");
        let (b, _) = dbgc::decompress_with_metrics(&plain.bytes, &collector).expect("decode");
        assert_eq!(a.points(), b.points());
    }
}

#[test]
fn net_server_counters_match_corrupt_frame_recovery() {
    use dbgc_net::fleet::{FleetConfig, FleetServer};
    use dbgc_net::{write_frame, Control, WireFrame};
    use std::io::Write;

    // A session's wire: hello, frames 0..3 with the middle one corrupted,
    // then frames 1 and 2 again as go-back-N resends them. The fleet must
    // store all three in order, and its counters must say exactly how.
    let (cloud, meta) = small_frame(ScenePreset::KittiRoad, 5);
    let dbgc = Dbgc::new(small_config(Q, meta));
    let payloads: Vec<Vec<u8>> =
        (0..3).map(|_| dbgc.compress(&cloud).expect("compress").bytes).collect();
    let mut buf = Vec::new();
    write_frame(&mut buf, &Control::Hello { session_id: 1, last_acked: 0 }.to_frame())
        .expect("write hello");
    let mut offsets = vec![buf.len()];
    for (i, payload) in payloads.iter().enumerate() {
        write_frame(&mut buf, &WireFrame { sequence: i as u32, payload: payload.clone() })
            .expect("write frame");
        offsets.push(buf.len());
    }
    let mid = (offsets[1] + offsets[2]) / 2;
    for d in 0..3 {
        buf[mid + d * 7] ^= 0x55;
    }
    for i in 1..3u32 {
        write_frame(&mut buf, &WireFrame { sequence: i, payload: payloads[i as usize].clone() })
            .expect("write resend");
    }

    let mut config = FleetConfig::new(1);
    config.decompress = true;
    let fleet = FleetServer::spawn(config);
    let handle = fleet.handle();
    let (mut tx, _acks) = handle.connect(1).expect("connect");
    tx.write_all(&buf).expect("feed the wire");
    handle.sync();
    drop(tx);
    let snap = handle.metrics().snapshot();
    let report = fleet.shutdown();
    report.verify_partition().expect("partition holds");
    let tenant = report.tenant(1).expect("tenant admitted");
    assert_eq!(tenant.durable, vec![0, 1, 2]);

    assert_eq!(snap.counters["net.frames_received"], 3);
    assert_eq!(snap.counters["net.frames_intact"], 4, "0, 2 (gap), 1, 2");
    assert_eq!(snap.counters["net.frames_gap_dropped"], 1);
    assert_eq!(snap.counters["net.frames_dropped"], 1);
    assert_eq!(snap.counters["net.resyncs"], 1);
    assert_eq!(snap.counters["net.bytes_skipped"], (offsets[2] - offsets[1]) as u64);
    let stored_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    assert_eq!(snap.counters["net.bytes_received"], stored_bytes);
    // Three decoded frames => three decompress span trees, all well-formed.
    assert_eq!(snap.spans.iter().filter(|s| s.name == "decompress").count(), 3);
    snap.validate_spans().expect("server span trees well-formed");
    assert_eq!(snap.counters["decompress.frames"], 3);
}

#[test]
fn chaos_counters_partition_intact_frames() {
    use dbgc_net::fleet_chaos::{run_fleet_chaos, FleetChaosConfig};

    // For every fleet chaos smoke seed: each frame the link delivered intact
    // was either stored, deduplicated, dropped as an out-of-order gap
    // arrival, or failed decompression — exactly one of the four, so the
    // counters must partition `net.frames_intact` with nothing left over.
    for seed in 1..=8u64 {
        let config = FleetChaosConfig::smoke(seed);
        let report = run_fleet_chaos(&config);
        report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        let fleet = &report.fleet;
        let intact = fleet.counter("net.frames_intact");
        let partition = fleet.counter("net.frames_stored")
            + fleet.counter("net.frames_deduped")
            + fleet.counter("net.frames_gap_dropped")
            + fleet.counter("net.decode_failures");
        assert!(intact > 0, "seed {seed}: no intact frames counted\n{}", report.summary());
        assert_eq!(
            intact,
            partition,
            "seed {seed}: counters must partition intact frames\n{}",
            report.summary()
        );
        let sent = (config.tenants * config.frames_per_tenant) as u64;
        assert_eq!(fleet.counter("net.frames_stored"), sent);
    }
}

#[test]
fn pipelined_compressor_records_queue_depth() {
    let (cloud, meta) = small_frame(ScenePreset::KittiCampus, 3);
    let dbgc = Dbgc::new(small_config(Q, meta));
    let collector = Collector::new();
    let mut pipe = dbgc_net::PipelinedCompressor::with_metrics(dbgc, 2, &collector);
    for _ in 0..4 {
        pipe.submit(cloud.clone());
    }
    let mut yielded = 0;
    while let Some(result) = pipe.next_ordered() {
        result.expect("compresses");
        yielded += 1;
    }
    assert_eq!(yielded, 4);

    let snap = collector.snapshot();
    assert_eq!(snap.counters["net.frames_submitted"], 4);
    assert_eq!(snap.counters["net.frames_yielded"], 4);
    let depth = &snap.histograms["net.queue_depth"];
    assert_eq!(depth.count, 4);
    assert!(depth.max >= 1, "at least one submission saw a non-empty queue");
    // Worker-side compress spans all landed in the shared collector.
    assert_eq!(snap.spans.iter().filter(|s| s.name == "compress").count(), 4);
    snap.validate_spans().expect("worker span trees well-formed");
    assert_eq!(snap.counters["compress.frames"], 4);
}
