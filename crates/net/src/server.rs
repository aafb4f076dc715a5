//! The per-tenant session state machine behind the ingestion fleet.
//!
//! The paper's server either decompresses `B` into `PC'` for processing or
//! "bypasses the decompression procedure and directly stores B" (§3.1). Both
//! modes live here, one `SessionServer` per wire-v3 tenant: the fleet
//! ([`crate::fleet`]) owns the transports, does the framing, admits and
//! routes hellos, and pushes each parsed frame in. This module only decides
//! what a frame means for its session — accept it in order, deduplicate a
//! replay, or drop an out-of-order arrival for go-back-N to re-deliver — and
//! acknowledges progress.
//!
//! The ack leaves as soon as the session has decided, before any decode: an
//! ack means "accepted in order", not "decoded". With decompression on, an
//! accepted frame is decoded after its ack and then stored; one whose
//! checksummed payload does not decode is counted (`decode_failures`) and
//! never stored, so no drain ever sees it. The decode still runs on the
//! shard, before the shard takes its next event, so a drain, eviction,
//! `sync()` or shutdown sees every accepted frame either stored with its
//! cloud or counted as a failure.

use std::cmp::Ordering;
use std::io::Write;

use dbgc_geom::PointCloud;
use dbgc_metrics::Collector;

use crate::protocol::{write_frame, Control, WireFrame};

/// A received frame: the raw bitstream plus, when decompression is enabled,
/// the restored point cloud.
#[derive(Debug, Clone)]
pub struct StoredFrame {
    /// Sequence number from the wire.
    pub sequence: u32,
    /// The received DBGC bitstream.
    pub bytes: Vec<u8>,
    /// The decompressed cloud, when decompression is enabled.
    pub cloud: Option<PointCloud>,
}

/// Per-tenant outcome counts, kept for the tenant's whole lifetime. Every
/// intact data frame lands in exactly one of `stored`, `deduped`,
/// `gap_dropped` and `decode_failures`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SessionCounts {
    /// Data frames that passed their wire checksum.
    pub intact: usize,
    /// Frames accepted in order (later drained, resident, or shed).
    pub stored: usize,
    /// Replayed frames below the cursor.
    pub deduped: usize,
    /// Frames above the cursor, dropped for go-back-N to re-deliver.
    pub gap_dropped: usize,
    /// Checksummed frames whose payload failed to decode.
    pub decode_failures: usize,
    /// Corrupt wire regions resynchronized past.
    pub resyncs: usize,
}

/// One tenant's wire-v3 session: strict in-order delivery with replay
/// dedup, one ack per data frame (written before the frame decodes) so the
/// client can advance its bounded in-flight window. State outlives any one
/// connection, so a reconnecting client resumes against the same cursor.
///
/// Counter invariant: `net.frames_intact == net.frames_stored +
/// net.frames_deduped + net.frames_gap_dropped + net.decode_failures`, and
/// the same identity holds per tenant over [`SessionCounts`].
#[derive(Debug)]
pub(crate) struct SessionServer {
    session_id: u64,
    decompress: bool,
    store: Vec<StoredFrame>,
    /// Next sequence the session will store.
    next_expected: u32,
    /// A hello has been seen; later ones are reconnects.
    greeted: bool,
    counts: SessionCounts,
    /// The fleet's collector: `net.*` counters, the `net.frame_bytes`
    /// histogram and the decoder's stage spans.
    metrics: Collector,
}

impl SessionServer {
    /// `decompress = false` reproduces the "store B directly" mode.
    pub(crate) fn new(session_id: u64, decompress: bool, metrics: &Collector) -> SessionServer {
        SessionServer {
            session_id,
            decompress,
            store: Vec::new(),
            next_expected: 0,
            greeted: false,
            counts: SessionCounts::default(),
            metrics: metrics.clone(),
        }
    }

    /// Send (or resend) the session acknowledgement. Ack-path failures are
    /// soft: the data path keeps working, the client recovers via timeout.
    fn send_ack(&self, ack: &mut Option<impl Write>) {
        let Some(w) = ack.as_mut() else { return };
        let frame = Control::Ack { session_id: self.session_id, next_expected: self.next_expected }
            .to_frame();
        if write_frame(w, &frame).is_ok() {
            self.metrics.incr("net.acks_sent", 1);
        } else {
            self.metrics.incr("net.ack_errors", 1);
        }
    }

    /// A hello for this session (first connect or reconnect): answer with
    /// the cursor. A client ack floor ahead of the cursor means acked frames
    /// went missing server-side; it is counted (`net.seq_gaps`) but drops no
    /// frame.
    pub(crate) fn hello(&mut self, last_acked: u32, ack: &mut Option<impl Write>) {
        self.metrics.incr("net.hellos", 1);
        if self.greeted {
            self.metrics.incr("net.reconnect_hellos", 1);
        }
        self.greeted = true;
        if last_acked > self.next_expected {
            self.metrics.incr("net.seq_gaps", 1);
        }
        self.send_ack(ack);
    }

    /// Process one data frame; `true` when it was stored.
    ///
    /// The session places the frame first (a replay below the cursor is
    /// deduplicated, a frame above it dropped for go-back-N, the frame at
    /// the cursor accepted and the cursor advanced) and acks that at once.
    /// Only an accepted frame is then decoded (with `decompress` on) and
    /// stored, so the sender never waits for the decode.
    pub(crate) fn data(&mut self, wire: WireFrame, ack: &mut Option<impl Write>) -> bool {
        self.counts.intact += 1;
        self.metrics.incr("net.frames_intact", 1);
        self.metrics.record("net.frame_bytes", wire.payload.len() as u64);
        let accepted = match wire.sequence.cmp(&self.next_expected) {
            // A replay: the re-ack lets a client that missed the original
            // ack advance.
            Ordering::Less => {
                self.counts.deduped += 1;
                self.metrics.incr("net.frames_deduped", 1);
                false
            }
            // A gap: the ack tells the client where the cursor is.
            Ordering::Greater => {
                self.counts.gap_dropped += 1;
                self.metrics.incr("net.seq_gaps", 1);
                self.metrics.incr("net.frames_gap_dropped", 1);
                false
            }
            Ordering::Equal => {
                self.next_expected = self.next_expected.wrapping_add(1);
                true
            }
        };
        self.send_ack(ack);
        if !accepted {
            return false;
        }
        let cloud = if self.decompress {
            match dbgc::decompress_with_metrics(&wire.payload, &self.metrics) {
                Ok((cloud, _)) => Some(cloud),
                Err(_) => {
                    // The payload passed its CRC, so a resend would carry the
                    // same poisoned bytes; the ack already moved the client
                    // past it. Counted, never stored or drained.
                    self.counts.decode_failures += 1;
                    self.metrics.incr("net.decode_failures", 1);
                    self.metrics.incr("net.frames_dropped", 1);
                    return false;
                }
            }
        } else {
            None
        };
        self.counts.stored += 1;
        self.metrics.incr("net.frames_received", 1);
        self.metrics.incr("net.frames_stored", 1);
        self.metrics.incr("net.bytes_received", wire.payload.len() as u64);
        self.store.push(StoredFrame { sequence: wire.sequence, bytes: wire.payload, cloud });
        true
    }

    /// Record a wire-level resynchronization: `skipped` corrupt bytes were
    /// discarded before an intact frame on one of this tenant's connections.
    pub(crate) fn record_resync(&mut self, skipped: u64) {
        if skipped == 0 {
            return;
        }
        self.counts.resyncs += 1;
        self.metrics.incr("net.resyncs", 1);
        self.metrics.incr("net.bytes_skipped", skipped);
        self.metrics.incr("net.frames_dropped", 1);
    }

    /// Remove one stored-but-undrained frame under fleet load shedding: the
    /// oldest (`oldest = true`, policy `DropOldest`) or the newest (degrade /
    /// drop-newest decimation). The frame was already acknowledged, so the
    /// fleet layer owns the accounting (`fleet.shed_frames`); this only bumps
    /// `net.frames_shed` so the store-level partition `net.frames_stored ==
    /// drained + resident + shed` stays checkable from counters alone.
    pub(crate) fn shed_stored(&mut self, oldest: bool) -> Option<StoredFrame> {
        if self.store.is_empty() {
            return None;
        }
        let frame = if oldest { self.store.remove(0) } else { self.store.pop()? };
        self.metrics.incr("net.frames_shed", 1);
        Some(frame)
    }

    /// Stored frames not yet drained.
    pub(crate) fn frames(&self) -> &[StoredFrame] {
        &self.store
    }

    /// Lifetime outcome counts.
    pub(crate) fn counts(&self) -> SessionCounts {
        self.counts
    }

    /// Take every stored frame, leaving the session running and empty.
    pub(crate) fn drain_frames(&mut self) -> Vec<StoredFrame> {
        std::mem::take(&mut self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, FleetServer};
    use crate::protocol::FrameReader;
    use crate::session::{ResilientClient, SessionConfig};
    use dbgc::Dbgc;
    use dbgc_geom::Point3;

    fn toy_cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let th = i as f64 / n as f64 * std::f64::consts::TAU;
                Point3::new(12.0 * th.cos(), 12.0 * th.sin(), -1.7)
            })
            .collect()
    }

    /// A one-tenant fleet, the way every test here reaches the session.
    fn one_tenant(decompress: bool) -> FleetServer {
        let mut config = FleetConfig::new(1);
        config.decompress = decompress;
        FleetServer::spawn(config)
    }

    /// Send `payloads` as session `sid` through a resilient client.
    fn deliver(fleet: &FleetServer, sid: u64, payloads: Vec<Vec<u8>>) {
        let handle = fleet.handle();
        let mut client =
            ResilientClient::new(move || handle.connect(sid), SessionConfig::fast_test(sid));
        for payload in payloads {
            client.send_payload(payload).unwrap();
        }
        client.finish().unwrap();
    }

    fn data_frame(seq: u32) -> WireFrame {
        WireFrame { sequence: seq, payload: vec![seq as u8; 40] }
    }

    fn hello(session_id: u64, last_acked: u32) -> WireFrame {
        Control::Hello { session_id, last_acked }.to_frame()
    }

    #[test]
    fn client_server_over_pipe_with_decompression() {
        let clouds: Vec<PointCloud> = (1..4).map(|k| toy_cloud(k * 500)).collect();
        let frames: Vec<_> =
            clouds.iter().map(|c| Dbgc::with_error_bound(0.02).compress(c).unwrap()).collect();
        let fleet = one_tenant(true);
        deliver(&fleet, 1, frames.iter().map(|f| f.bytes.clone()).collect());
        let report = fleet.shutdown();
        let tenant = report.tenant(1).unwrap();
        assert_eq!(tenant.durable, vec![0, 1, 2]);
        for (i, stored) in tenant.resident_frames.iter().enumerate() {
            let cloud = stored.cloud.as_ref().unwrap();
            assert_eq!(cloud.len(), clouds[i].len());
            dbgc::verify_roundtrip(&clouds[i], cloud, &frames[i], 0.02).unwrap();
        }
        assert_eq!((tenant.deduped, tenant.gap_dropped), (0, 0), "clean in-order stream");
    }

    #[test]
    fn store_without_decompression() {
        let bytes = Dbgc::with_error_bound(0.02).compress(&toy_cloud(800)).unwrap().bytes;
        let fleet = one_tenant(false);
        deliver(&fleet, 2, vec![bytes.clone()]);
        let report = fleet.shutdown();
        let stored = &report.tenant(2).unwrap().resident_frames[0];
        assert_eq!(stored.bytes, bytes);
        assert!(stored.cloud.is_none());
    }

    #[test]
    fn corrupt_frame_dropped_stream_continues() {
        // Hello, then three frames with bytes flipped in the middle one: the
        // session stores frame 0, resynchronizes past frame 1, and drops
        // frame 2 as a gap for go-back-N to re-deliver in order.
        let clouds: Vec<PointCloud> = (1..4).map(|k| toy_cloud(k * 300)).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &hello(3, 0)).unwrap();
        let mut offsets = vec![buf.len()];
        for (i, c) in clouds.iter().enumerate() {
            let payload = Dbgc::with_error_bound(0.02).compress(c).unwrap().bytes;
            write_frame(&mut buf, &WireFrame { sequence: i as u32, payload }).unwrap();
            offsets.push(buf.len());
        }
        let mid = (offsets[1] + offsets[2]) / 2;
        for d in 0..3 {
            buf[mid + d * 7] ^= 0x55;
        }
        let fleet = one_tenant(true);
        let handle = fleet.handle();
        let (mut tx, _acks) = handle.connect(3).unwrap();
        tx.write_all(&buf).unwrap();
        handle.sync();
        drop(tx);
        let report = fleet.shutdown();
        let tenant = report.tenant(3).unwrap();
        assert_eq!(tenant.durable, vec![0]);
        assert_eq!(tenant.resident_frames[0].cloud.as_ref().unwrap().len(), clouds[0].len());
        assert_eq!(tenant.resyncs, 1, "the corrupt frame is skipped once");
        assert_eq!(tenant.gap_dropped, 1, "frame 2 waits for go-back-N");
        report.verify_partition().unwrap();
    }

    #[test]
    fn tcp_transport_roundtrip() {
        use crate::tcp::{TcpConnector, TcpFleetServer, TcpTuning};
        use std::time::Duration;
        let cloud = toy_cloud(1000);
        let bytes = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap().bytes;
        let mut config = FleetConfig::new(1);
        config.decompress = true;
        let server = TcpFleetServer::bind("127.0.0.1:0", config, TcpTuning::fast_test())
            .expect("bind loopback");
        let connector = TcpConnector::new(server.local_addr())
            .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
        let mut client = ResilientClient::new(connector, SessionConfig::fast_test(4));
        client.send_payload(bytes).unwrap();
        client.finish().unwrap();
        let report = server.shutdown();
        let (_, frames) = report.drained.iter().find(|(sid, _)| *sid == 4).unwrap();
        assert_eq!(frames[0].cloud.as_ref().unwrap().len(), cloud.len());
    }

    #[test]
    fn session_mode_dedups_and_acks() {
        // hello, 0, 1, 1 (replay), 3 (gap): stores 0 and 1, dedups the
        // replay, drops the gap, and acks each step.
        let session = 0x5E55_0001;
        let mut acks = Some(Vec::new());
        let mut core = SessionServer::new(session, false, &Collector::new());
        core.hello(0, &mut acks);
        let stored: Vec<bool> =
            [0u32, 1, 1, 3].map(|seq| core.data(data_frame(seq), &mut acks)).into();
        assert_eq!(stored, vec![true, true, false, false]);
        let seqs: Vec<u32> = core.frames().iter().map(|f| f.sequence).collect();
        assert_eq!(seqs, vec![0, 1]);
        let counts = core.counts();
        assert_eq!(
            (counts.intact, counts.stored, counts.deduped, counts.gap_dropped),
            (4, 2, 1, 1)
        );
        // One ack per step, all parseable, ending at next_expected = 2.
        let acks = acks.unwrap();
        let mut r = FrameReader::new(&acks[..]);
        let mut seen = Vec::new();
        while let Ok((frame, _)) = r.next_frame() {
            match Control::from_frame(&frame) {
                Some(Control::Ack { session_id, next_expected }) => {
                    assert_eq!(session_id, session);
                    seen.push(next_expected);
                }
                other => panic!("unexpected control {other:?}"),
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 2, 2]);
        assert_eq!(r.bytes_skipped(), 0, "every ack byte belongs to a frame");
    }

    /// An ack sink that notes, as each ack is flushed, how many `decompress`
    /// spans its collector has finished.
    struct AckProbe {
        collector: Collector,
        pending: Vec<u8>,
        /// `(next_expected, finished decompress spans)` per flushed ack.
        acks: Vec<(u32, usize)>,
    }

    fn decodes_finished(collector: &Collector) -> usize {
        collector.snapshot().spans.iter().filter(|s| s.name == "decompress").count()
    }

    impl Write for AckProbe {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.pending.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            let (frame, _) = FrameReader::new(&self.pending[..]).next_frame().expect("one ack");
            let Some(Control::Ack { next_expected, .. }) = Control::from_frame(&frame) else {
                panic!("not an ack: {frame:?}");
            };
            self.acks.push((next_expected, decodes_finished(&self.collector)));
            self.pending.clear();
            Ok(())
        }
    }

    #[test]
    fn ack_leaves_before_the_decode() {
        // Frame 0 decodes, frame 1 passes its CRC but does not: each is
        // acked once the session accepts it, before its decode runs.
        let cloud = toy_cloud(600);
        let payload = Dbgc::with_error_bound(0.02).compress(&cloud).unwrap().bytes;
        let collector = Collector::new();
        let mut core = SessionServer::new(9, true, &collector);
        let probe =
            AckProbe { collector: collector.clone(), pending: Vec::new(), acks: Vec::new() };
        let mut acks = Some(probe);
        assert!(core.data(WireFrame { sequence: 0, payload }, &mut acks));
        let seen = |acks: &Option<AckProbe>| acks.as_ref().unwrap().acks.clone();
        assert_eq!(seen(&acks), vec![(1, 0)], "frame 0 acked before any decode finished");
        assert_eq!(decodes_finished(&collector), 1);
        let stored = core.frames()[0].cloud.as_ref().expect("frame 0 stored with its cloud");
        assert_eq!(stored.len(), cloud.len());
        assert!(!core.data(data_frame(1), &mut acks));
        assert_eq!(seen(&acks), vec![(1, 0), (2, 1)], "frame 1 acked before its decode ran");
        assert_eq!(core.counts().decode_failures, 1);
        assert_eq!(core.frames().len(), 1, "the undecodable frame is not stored");
    }

    #[test]
    fn session_state_survives_reconnect() {
        // Connection 1: hello + frames 0, 1. Connection 2 (reconnect): hello
        // + replayed 1, then 2. The replay is deduplicated across the
        // reconnect because the cursor lives in the session, not the
        // connection.
        let fleet = one_tenant(false);
        let handle = fleet.handle();
        for (last_acked, seqs) in [(0u32, [0u32, 1]), (1, [1, 2])] {
            let (mut tx, _acks) = handle.connect(77).unwrap();
            write_frame(&mut tx, &hello(77, last_acked)).unwrap();
            for seq in seqs {
                write_frame(&mut tx, &data_frame(seq)).unwrap();
            }
            handle.sync();
        }
        let report = fleet.shutdown();
        let tenant = report.tenant(77).unwrap();
        assert_eq!(tenant.durable, vec![0, 1, 2], "replay deduplicated across reconnect");
        assert_eq!((tenant.deduped, tenant.gap_dropped), (1, 0));
    }
}
