//! Pipelined compression feeding the network server: the full online path of
//! §4.4 with the worker pool in front of the uplink.

mod common;

use common::{small_config, small_frame};
use dbgc::Dbgc;
use dbgc_lidar_sim::ScenePreset;
use dbgc_net::PipelinedCompressor;

#[test]
fn pipelined_frames_stream_in_order_over_tcp() {
    use dbgc_net::fleet::FleetConfig;
    use dbgc_net::session::{ResilientClient, SessionConfig};
    use dbgc_net::tcp::{TcpConnector, TcpFleetServer, TcpTuning};
    use std::time::Duration;

    let mut config = FleetConfig::new(1);
    config.decompress = true;
    let server = TcpFleetServer::bind("127.0.0.1:0", config, TcpTuning::fast_test()).unwrap();
    let addr = server.local_addr();

    let frames_meta: Vec<_> =
        (0..4).map(|k| small_frame(ScenePreset::KittiCampus, 70 + k)).collect();
    let meta = frames_meta[0].1;
    let clouds: Vec<_> = frames_meta.into_iter().map(|(c, _)| c).collect();

    let producer = {
        let clouds = clouds.clone();
        std::thread::spawn(move || {
            let mut pipe = PipelinedCompressor::new(Dbgc::new(small_config(0.02, meta)), 2);
            for c in &clouds {
                pipe.submit(c.clone());
            }
            let connector = TcpConnector::new(addr)
                .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
            let mut client = ResilientClient::new(connector, SessionConfig::fast_test(8));
            let mut sent = Vec::new();
            while let Some(result) = pipe.next_ordered() {
                let frame = result.expect("finite clouds compress");
                client.send_payload(frame.bytes.clone()).unwrap();
                sent.push(frame);
            }
            client.finish().unwrap();
            sent
        })
    };
    let sent = producer.join().unwrap();
    let report = server.shutdown();
    let (_, stored) = report.drained.iter().find(|(sid, _)| *sid == 8).expect("session drained");

    assert_eq!(stored.len(), clouds.len());
    for ((i, stored), frame) in stored.iter().enumerate().zip(&sent) {
        assert_eq!(stored.sequence, i as u32);
        let restored = stored.cloud.as_ref().expect("decompressed");
        // In-order delivery: frame i must match cloud i.
        assert_eq!(restored.len(), clouds[i].len(), "frame {i} out of order");
        dbgc::verify_roundtrip(&clouds[i], restored, frame, 0.02).expect("bound holds");
    }
}

#[test]
fn pipelined_compressor_saturates_submissions() {
    // Submit a burst larger than the worker count; everything must come back
    // exactly once, in order.
    let (cloud, meta) = small_frame(ScenePreset::KittiRoad, 80);
    let mut pipe = PipelinedCompressor::new(Dbgc::new(small_config(0.05, meta)), 3);
    const BURST: usize = 9;
    for _ in 0..BURST {
        pipe.submit(cloud.clone());
    }
    assert_eq!(pipe.in_flight(), BURST as u64);
    let mut sizes = Vec::new();
    while let Some(result) = pipe.next_ordered() {
        sizes.push(result.unwrap().bytes.len());
    }
    assert_eq!(sizes.len(), BURST);
    // Deterministic compressor: identical inputs give identical outputs.
    assert!(sizes.windows(2).all(|w| w[0] == w[1]));
}
