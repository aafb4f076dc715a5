//! `ingest-tcp`: the paper's §4.4 server over loopback TCP.
//!
//! Two raw wire-v3 sessions, one per fleet shard, carry pre-compressed
//! city and road frames. One writer thread sends, one reader thread parses
//! acks; the main thread plays the server's archive loop (as `fleet-serve`
//! does), draining the fleet every 100 ms into a `FrameStore`.
//!
//! The run is [`CYCLES`] cycles of two phases, so that a slow spell of the
//! machine (on a shared 2-vCPU host they last seconds) lands in a few
//! phases of each kind rather than all of one:
//!
//! * Phase A, open loop: frames are due at 2 × 25 Hz for two thirds of the
//!   cycle. A frame's ack latency runs from its due time to the first ack
//!   whose `next_expected` passes its sequence, so a stall also delays the
//!   frames queued behind it.
//! * Phase B, closed loop: each session keeps 8 frames unacked for the
//!   last third; acked frames per second is the server's capacity, and the
//!   run reports its median over the cycles.
//!
//! Between cycles the writer waits, untimed, until every frame is acked, so
//! each phase A starts on an idle server. `ResilientClient` is not used: it
//! hides per-frame ack times.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dbgc::{Dbgc, DbgcConfig, DecompressStats};
use dbgc_lidar_sim::ScenePreset;
use dbgc_metrics::{Snapshot, Span};
use dbgc_net::{
    write_frame, Control, FleetConfig, FleetHandle, FrameReader, NetError, StoredFrame,
    TcpFleetServer, TcpTuning, WireFrame,
};
use dbgc_store::FrameStore;

use crate::codec::Q_XYZ;
use crate::inputs::{self, timed_setup};
use crate::stats::{histogram_percentile, median, paired_overhead, percentile, sorted};
use crate::trace::Trace;
use crate::{Outcome, Plan};

/// Phase A rate of each session; two sessions make 50 frames/s.
const SESSION_HZ: f64 = 25.0;
/// Phase B window: unacked frames each session keeps in flight.
const WINDOW: u32 = 8;
/// Open-then-closed cycles per run.
const CYCLES: u32 = 5;
/// Archive loop cadence.
const DRAIN_EVERY: Duration = Duration::from_millis(100);
/// Undrained frames a tenant may hold before the fleet pauses it (the
/// `Block` policy). `FleetHandle::drain` re-pumps every connection before
/// it replies, and under the closed loop a feed never runs dry, so without
/// this cap a drain waits out the whole phase while decoded clouds (3 MB
/// each) pile up in the tenants.
const TENANT_FRAMES: usize = 16;
/// Longest the ack reader blocks on one socket before polling the other.
const ACK_POLL: Duration = Duration::from_micros(500);
/// How long after the last send every frame must be acked.
const ACK_DEADLINE: Duration = Duration::from_secs(10);
/// The open-loop writer sleeps to this close to a frame's due time, then
/// spins: a sleep alone wakes up to a millisecond late.
const SPIN: Duration = Duration::from_micros(500);

fn sleep_until(due: Instant) {
    if let Some(d) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(d);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// A sent frame awaiting its ack.
struct Due {
    session: usize,
    seq: u32,
    due: Instant,
    open_loop: bool,
    op: Option<Span>,
}

/// Progress shared by the writer, the ack reader and the archive loop.
#[derive(Default)]
struct Progress {
    /// Frames each session has sent or is sending.
    sent: [AtomicU32; 2],
    /// The latest `next_expected` each session was acked with; stored under
    /// `ack_lock` so the writer, waiting on `ack_cv`, misses no ack.
    acked: [AtomicU32; 2],
    ack_lock: Mutex<()>,
    ack_cv: Condvar,
    writer_done: AtomicBool,
    reader_done: AtomicBool,
}

impl Progress {
    fn in_flight(&self, s: usize) -> u32 {
        self.sent[s].load(Ordering::SeqCst).saturating_sub(self.acked[s].load(Ordering::SeqCst))
    }

    fn backlog(&self) -> u32 {
        (0..2).map(|s| self.in_flight(s)).sum()
    }

    fn acked_total(&self) -> u32 {
        (0..2).map(|s| self.acked[s].load(Ordering::SeqCst)).sum()
    }

    fn ack(&self, s: usize, next_expected: u32) {
        let _guard = self.ack_lock.lock().expect("no thread panics holding the ack lock");
        self.acked[s].store(next_expected, Ordering::SeqCst);
        self.ack_cv.notify_all();
    }

    /// Block until an ack arrives or `timeout` passes, unless `ready`
    /// already holds.
    fn wait_for_ack(&self, timeout: Duration, ready: impl Fn() -> bool) {
        let guard = self.ack_lock.lock().expect("no thread panics holding the ack lock");
        if !ready() {
            let _ = self
                .ack_cv
                .wait_timeout(guard, timeout)
                .expect("no thread panics holding the ack lock");
        }
    }
}

/// The inputs: compressed, spatially indexed frames and their point counts.
struct Payloads {
    bytes: Vec<Vec<u8>>,
    points: Vec<usize>,
}

impl Payloads {
    /// Which payload session `s` sends as sequence `seq`: each payload
    /// twice in a row, so a traced run can trace one of each pair.
    fn index(&self, s: usize, seq: u32) -> usize {
        (seq as usize / 2 * 2 + s) % self.bytes.len()
    }
}

pub fn run(plan: &Plan, trace: Option<&Trace>) -> Outcome {
    let mut out = Outcome::default();
    let (payloads, setup_s) = timed_setup(|| {
        let half = plan.frames / 2;
        let mut clouds = inputs::frames(
            ScenePreset::KittiCity,
            plan.seed,
            plan.frames - half,
            &mut out.layers.gen,
        );
        clouds.extend(inputs::frames(ScenePreset::KittiRoad, plan.seed, half, &mut out.layers.gen));
        let dbgc =
            Dbgc::new(DbgcConfig::with_error_bound(Q_XYZ).with_threads(1).with_spatial_index(true));
        let mut payloads = Payloads { bytes: Vec::new(), points: Vec::new() };
        for cloud in &clouds {
            let frame = match trace {
                Some(t) => dbgc.compress_with_metrics(cloud, &t.collector),
                None => dbgc.compress(cloud),
            }
            .expect("simulator frames are finite");
            out.layers.compress.push(frame.stats);
            payloads.bytes.push(frame.bytes);
            payloads.points.push(cloud.len());
        }
        payloads
    });
    out.setup_s = setup_s;
    let bytes: usize = payloads.bytes.iter().map(Vec::len).sum();
    out.bits_per_point = bytes as f64 * 8.0 / payloads.points.iter().sum::<usize>() as f64;

    let mut config = FleetConfig::new(4);
    config.shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    config.decompress = true;
    config.max_tenant_frames = TENANT_FRAMES;
    let sids = session_ids(&config, plan.seed);
    let server = match TcpFleetServer::bind("127.0.0.1:0", config, TcpTuning::default()) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("bind loopback fleet: {e}"));
            return out;
        }
    };
    let sessions = match sids.map(|sid| open_session(server.local_addr(), sid)) {
        [Ok(a), Ok(b)] => [a, b],
        [a, b] => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                out.fail(format!("open session: {e}"));
            }
            server.shutdown();
            return out;
        }
    };
    let [(w0, r0), (w1, r1)] = sessions;

    let handle = server.handle();
    let progress = Progress::default();
    let mut archive = Archive::new(trace, sids);
    let (due_tx, due_rx) = mpsc::channel::<Due>();
    let (writer, reader) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let log = write_frames([w0, w1], &payloads, plan, trace, &progress, due_tx);
            progress.writer_done.store(true, Ordering::SeqCst);
            log
        });
        let reader = scope.spawn(|| {
            let log = read_acks([r0, r1], sids, &progress, due_rx);
            progress.reader_done.store(true, Ordering::SeqCst);
            log
        });
        let mut tick = Instant::now();
        while !progress.reader_done.load(Ordering::SeqCst) {
            tick += DRAIN_EVERY;
            std::thread::sleep(tick.saturating_duration_since(Instant::now()));
            archive.drain(&handle, &payloads, &mut out);
        }
        (writer.join().expect("writer thread"), reader.join().expect("ack reader thread"))
    });
    let report = server.shutdown();
    archive.archive(report.drained, &payloads, &mut out);

    // Output checks.
    for problem in writer.problems.into_iter().chain(reader.problems) {
        out.fail(problem);
    }
    let sent: u32 = (0..2).map(|s| progress.sent[s].load(Ordering::SeqCst)).sum();
    out.attempted = u64::from(sent);
    if archive.seen.len() != sent as usize {
        out.fail(format!("{} of {sent} sent frames archived", archive.seen.len()));
    }
    if let Err(e) = report.fleet.verify_partition() {
        out.fail(format!("fleet partition: {e}"));
    }
    if report.conns_open != 0 {
        out.fail(format!("{} sockets left open", report.conns_open));
    }
    for counter in ["fleet.ack_drops", "net.decode_failures", "fleet.conns_reaped", "net.resyncs"] {
        let n = report.fleet.counter(counter);
        out.note(counter, n as f64, "count");
        if n > 0 {
            out.fail(format!("{counter} = {n}"));
        }
    }

    let fleet = handle.metrics().snapshot();
    out.layers.decode = decode_stages(&fleet);
    out.ops_per_s = writer.capacity_fps;
    let open = reader.clock.open;
    if trace.is_some() {
        let (untraced, traced) = same_payload_pairs(&open);
        out.layers.trace_overhead_frac = paired_overhead(&untraced, &traced);
    }
    let ack: Vec<f64> = open.iter().map(|a| a.ms).collect();
    let untraced: Vec<f64> = open.iter().filter(|a| !a.traced).map(|a| a.ms).collect();
    let handle_us = fleet.histograms.get("fleet.frame_handle_us");
    let handle_p = |p| handle_us.map_or(f64::NAN, |h| histogram_percentile(h, p));
    let late_p99 = percentile(&sorted(&writer.late_ms), 99.0);
    if late_p99 >= 1.0 {
        eprintln!(
            "warning: the generator sent {late_p99:.2} ms late at p99; ack latencies include it"
        );
    }
    out.note("net.gen_late_ms_p99", late_p99, "ms");
    out.note("net.write_block_ms_p99", percentile(&sorted(&writer.write_ms), 99.0), "ms");
    out.note("net.backlog_max_frames", writer.backlog_max as f64, "count");
    out.note("net.ack_wire_ms_p50", median(&ack) - handle_p(50.0) / 1e3, "ms");
    out.note("fleet.frame_handle_us_p50", handle_p(50.0), "us");
    out.note("fleet.frame_handle_us_p99", handle_p(99.0), "us");
    out.note("fleet.drain_ms_p50", median(&archive.drain_ms), "ms");
    out.note("store.ingest_us_p50", median(&archive.ingest_us), "us");
    out.latency_ms = untraced;
    out
}

/// Two session ids that the fleet routes to different shards (when it has
/// more than one).
fn session_ids(config: &FleetConfig, seed: u64) -> [u64; 2] {
    let a = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let b = (1..)
        .map(|k| a.wrapping_add(k))
        .find(|&b| config.shards < 2 || config.shard_of(b) != config.shard_of(a))
        .expect("some id lands on another shard");
    [a, b]
}

/// Connect, say hello, and wait for the hello's ack. Returns the buffered
/// write half and an ack reader whose reads time out after [`ACK_POLL`].
fn open_session(
    addr: SocketAddr,
    sid: u64,
) -> Result<(BufWriter<TcpStream>, FrameReader<TcpStream>), String> {
    let stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let rx = stream.try_clone().map_err(|e| e.to_string())?;
    rx.set_read_timeout(Some(ACK_POLL)).map_err(|e| e.to_string())?;
    let mut tx = BufWriter::with_capacity(1 << 18, stream);
    write_frame(&mut tx, &Control::Hello { session_id: sid, last_acked: 0 }.to_frame())
        .map_err(|e| e.to_string())?;
    let mut acks = FrameReader::new(rx);
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match acks.next_frame() {
            Ok((wire, _)) => match Control::from_frame(&wire) {
                Some(Control::Ack { session_id, .. }) if session_id == sid => {
                    return Ok((tx, acks))
                }
                other => return Err(format!("session {sid}: unexpected reply {other:?}")),
            },
            Err(e) if would_block(&e) => {}
            Err(e) => return Err(format!("session {sid}: {e}")),
        }
    }
    Err(format!("session {sid}: no hello ack within 5 s"))
}

fn would_block(e: &NetError) -> bool {
    match e {
        NetError::Timeout => true,
        NetError::Io(e) => e.kind() == std::io::ErrorKind::WouldBlock,
        _ => false,
    }
}

#[derive(Default)]
struct WriterLog {
    late_ms: Vec<f64>,
    write_ms: Vec<f64>,
    backlog_max: u32,
    capacity_fps: f64,
    problems: Vec<String>,
}

fn write_frames(
    mut streams: [BufWriter<TcpStream>; 2],
    payloads: &Payloads,
    plan: &Plan,
    trace: Option<&Trace>,
    progress: &Progress,
    due_tx: mpsc::Sender<Due>,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut send = |s: usize, due: Instant, open_loop: bool, log: &mut WriterLog| -> bool {
        let seq = progress.sent[s].load(Ordering::SeqCst);
        // One frame of each same-payload pair is traced, the first and the
        // second in turn, so traced and untraced frames carry the same
        // payloads at the same moments of the run.
        let traced = (seq % 2 == 1) != (seq / 2 % 2 == 1);
        let op = trace.filter(|_| traced).map(|t| t.op("frame", format!("{s}/{seq}")));
        let write_span = op.as_ref().map(|op| op.child("net.write_frame"));
        // The record must reach the reader before the ack can.
        let _ = due_tx.send(Due { session: s, seq, due, open_loop, op });
        let payload = payloads.bytes[payloads.index(s, seq)].clone();
        // Counted as sent before the write, so its ack never precedes it.
        progress.sent[s].store(seq + 1, Ordering::SeqCst);
        log.backlog_max = log.backlog_max.max(progress.backlog());
        let t = Instant::now();
        let sent = write_frame(&mut streams[s], &WireFrame { sequence: seq, payload });
        log.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(write_span);
        if let Err(e) = sent {
            log.problems.push(format!("session {s}: write of frame {seq} failed: {e}"));
            return false;
        }
        true
    };

    let period = Duration::from_secs_f64(1.0 / (2.0 * SESSION_HZ));
    let cycle_s = plan.seconds / f64::from(CYCLES);
    let open_frames = (cycle_s * 2.0 / 3.0 / period.as_secs_f64()).ceil() as u32;
    let closed = Duration::from_secs_f64(cycle_s / 3.0);
    let window_full = || (0..2).all(|s| progress.in_flight(s) >= WINDOW);
    let mut capacity = Vec::new();
    for _ in 0..CYCLES {
        // Phase A: open loop on a fixed schedule, sessions taking turns.
        let t0 = Instant::now() + period;
        for i in 0..open_frames {
            let due = t0 + period * i;
            sleep_until(due);
            log.late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            if !send((i % 2) as usize, due, true, &mut log) {
                return log;
            }
        }

        // Phase B: closed loop, WINDOW frames unacked per session.
        let start = Instant::now();
        let acked = progress.acked_total();
        while start.elapsed() < closed {
            for s in 0..2 {
                if progress.in_flight(s) < WINDOW && !send(s, Instant::now(), false, &mut log) {
                    return log;
                }
            }
            progress.wait_for_ack(Duration::from_millis(5), || !window_full());
        }
        capacity.push(f64::from(progress.acked_total() - acked) / start.elapsed().as_secs_f64());

        let deadline = Instant::now() + ACK_DEADLINE;
        while progress.backlog() > 0 {
            if Instant::now() > deadline {
                log.problems
                    .push(format!("{} frames unacked after {ACK_DEADLINE:?}", progress.backlog()));
                return log;
            }
            progress.wait_for_ack(Duration::from_millis(5), || progress.backlog() == 0);
        }
    }
    log.capacity_fps = median(&capacity);
    log
}

/// The ack latency of one open-loop frame, from its due time.
struct OpenAck {
    session: usize,
    seq: u32,
    traced: bool,
    ms: f64,
}

/// Frames sent but not yet acked, per session in send order, and the ack
/// latencies of the open-loop frames acked so far.
#[derive(Default)]
struct AckClock {
    waiting: [VecDeque<Due>; 2],
    open: Vec<OpenAck>,
}

impl AckClock {
    fn sent(&mut self, due: Due) {
        self.waiting[due.session].push_back(due);
    }

    /// An ack received at `now` for every frame of `session` below
    /// `next_expected`: each such frame's latency runs from its due time, so
    /// a stall delays every frame queued behind it, not just the first.
    fn acked(&mut self, session: usize, next_expected: u32, now: Instant) {
        while self.waiting[session].front().is_some_and(|d| d.seq < next_expected) {
            let d = self.waiting[session].pop_front().expect("front checked");
            if d.open_loop {
                let ms = now.saturating_duration_since(d.due).as_secs_f64() * 1e3;
                self.open.push(OpenAck { session, seq: d.seq, traced: d.op.is_some(), ms });
            }
        }
    }
}

/// Untraced and traced latencies of each same-payload pair `(2k, 2k + 1)`
/// of a session that both ran open loop.
fn same_payload_pairs(open: &[OpenAck]) -> (Vec<f64>, Vec<f64>) {
    let by_frame: HashMap<(usize, u32), &OpenAck> =
        open.iter().map(|a| ((a.session, a.seq), a)).collect();
    open.iter()
        .filter(|a| a.seq % 2 == 0)
        .filter_map(|a| Some((a, *by_frame.get(&(a.session, a.seq + 1))?)))
        .filter(|(a, b)| a.traced != b.traced)
        .map(|(a, b)| if a.traced { (b.ms, a.ms) } else { (a.ms, b.ms) })
        .unzip()
}

#[derive(Default)]
struct ReaderLog {
    clock: AckClock,
    problems: Vec<String>,
}

fn read_acks(
    mut readers: [FrameReader<TcpStream>; 2],
    sids: [u64; 2],
    progress: &Progress,
    due_rx: mpsc::Receiver<Due>,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut writer_done_at = None;
    loop {
        for (s, reader) in readers.iter_mut().enumerate() {
            match reader.next_frame() {
                Ok((wire, _)) => match Control::from_frame(&wire) {
                    Some(Control::Ack { session_id, next_expected }) if session_id == sids[s] => {
                        let now = Instant::now();
                        due_rx.try_iter().for_each(|d| log.clock.sent(d));
                        log.clock.acked(s, next_expected, now);
                        progress.ack(s, next_expected);
                    }
                    other => {
                        log.problems.push(format!("session {s}: unexpected frame {other:?}"));
                        return log;
                    }
                },
                Err(e) if would_block(&e) => {}
                Err(e) => {
                    log.problems.push(format!("session {s}: ack stream failed: {e}"));
                    return log;
                }
            }
        }
        if progress.writer_done.load(Ordering::SeqCst) {
            let all_acked = (0..2).all(|s| {
                progress.acked[s].load(Ordering::SeqCst) >= progress.sent[s].load(Ordering::SeqCst)
            });
            if all_acked {
                return log;
            }
            if writer_done_at.get_or_insert_with(Instant::now).elapsed() > ACK_DEADLINE {
                log.problems
                    .push(format!("{} frames unacked after {ACK_DEADLINE:?}", progress.backlog()));
                return log;
            }
        }
    }
}

/// The server's archive side: drained frames checked and stored.
struct Archive<'t> {
    store: FrameStore,
    trace: Option<&'t Trace>,
    sids: [u64; 2],
    seen: HashSet<(usize, u32)>,
    drain_ms: Vec<f64>,
    ingest_us: Vec<f64>,
}

impl<'t> Archive<'t> {
    fn new(trace: Option<&'t Trace>, sids: [u64; 2]) -> Archive<'t> {
        let store = trace.map_or_else(FrameStore::new, |t| FrameStore::with_metrics(&t.collector));
        Archive {
            store,
            trace,
            sids,
            seen: HashSet::new(),
            drain_ms: Vec::new(),
            ingest_us: Vec::new(),
        }
    }

    fn drain(&mut self, handle: &FleetHandle, payloads: &Payloads, out: &mut Outcome) {
        let op = self.trace.map(|t| t.op("drain", self.drain_ms.len()));
        let t = Instant::now();
        let drained = handle.drain();
        self.drain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(op);
        self.archive(drained, payloads, out);
    }

    /// Check each frame against what was sent, then `FrameStore::ingest` it.
    fn archive(
        &mut self,
        drained: Vec<(u64, Vec<StoredFrame>)>,
        payloads: &Payloads,
        out: &mut Outcome,
    ) {
        for (sid, frames) in drained {
            let Some(s) = self.sids.iter().position(|&x| x == sid) else {
                out.fail(format!("frames drained for unknown session {sid}"));
                continue;
            };
            for frame in frames {
                let seq = frame.sequence;
                let idx = payloads.index(s, seq);
                if !self.seen.insert((s, seq)) {
                    out.fail(format!("session {s} frame {seq} archived twice"));
                }
                if frame.bytes != payloads.bytes[idx] {
                    out.fail(format!("session {s} frame {seq}: archived bytes differ from sent"));
                }
                if frame.cloud.as_ref().map(|c| c.len()) != Some(payloads.points[idx]) {
                    out.fail(format!("session {s} frame {seq}: server decode lost points"));
                }
                let op = self.trace.map(|t| t.op("archive", format!("{s}/{seq}")));
                let ingest_span = op.as_ref().map(|op| op.child("store.ingest"));
                let time_us = u64::from(seq) * 40_000 + s as u64 * 20_000;
                let t = Instant::now();
                let stored = self.store.ingest(frame.bytes, time_us);
                self.ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
                drop(ingest_span);
                if let Err(e) = stored {
                    out.fail(format!("session {s} frame {seq}: archive refused it: {e}"));
                }
            }
        }
    }
}

/// Per-frame decode stage times from the fleet's `decompress` spans.
fn decode_stages(fleet: &Snapshot) -> Vec<DecompressStats> {
    let mut by_root: std::collections::HashMap<u64, DecompressStats> = fleet
        .spans
        .iter()
        .filter(|s| s.name == "decompress")
        .map(|s| (s.id, DecompressStats::default()))
        .collect();
    for s in &fleet.spans {
        let Some(stats) = s.parent.and_then(|p| by_root.get_mut(&p)) else { continue };
        let d = Duration::from_nanos(s.duration_ns());
        match s.name.as_str() {
            "oct" => stats.oct += d,
            "spa" => stats.spa += d,
            "cor" => stats.cor += d,
            "out" => stats.out += d,
            _ => {}
        }
    }
    by_root.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latencies(clock: &AckClock) -> Vec<f64> {
        clock.open.iter().map(|a| a.ms).collect()
    }

    fn due(session: usize, seq: u32, due: Instant, open_loop: bool) -> Due {
        Due { session, seq, due, open_loop, op: None }
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time_through_a_stall() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut clock = AckClock::default();
        // Frames due every 20 ms; the server stalls, and one ack at 100 ms
        // covers all three.
        for seq in 0..3 {
            clock.sent(due(0, seq, ms(20 * u64::from(seq)), true));
        }
        clock.sent(due(1, 0, ms(10), true));
        clock.acked(0, 3, ms(100));
        assert_eq!(latencies(&clock), [100.0, 80.0, 60.0]);
        // The other session's frame is still waiting.
        clock.acked(1, 1, ms(15));
        assert_eq!(latencies(&clock)[3], 5.0);
    }

    #[test]
    fn an_ack_covers_only_frames_below_next_expected() {
        let t0 = Instant::now();
        let mut clock = AckClock::default();
        clock.sent(due(0, 0, t0, true));
        clock.sent(due(0, 1, t0, false));
        clock.sent(due(0, 2, t0, true));
        clock.acked(0, 2, t0 + Duration::from_millis(7));
        assert_eq!(latencies(&clock), [7.0], "closed-loop frames are not timed");
        assert_eq!(clock.waiting[0].len(), 1);
        // A repeated ack acknowledges nothing new.
        clock.acked(0, 2, t0 + Duration::from_millis(9));
        assert_eq!(clock.open.len(), 1);
    }

    #[test]
    fn same_payload_pairs_match_within_a_session() {
        let ack = |session, seq, traced, ms| OpenAck { session, seq, traced, ms };
        let open = [
            ack(0, 0, false, 10.0),
            ack(1, 0, false, 30.0),
            ack(0, 1, true, 11.0),
            ack(1, 1, true, 33.0),
            ack(0, 2, true, 12.0),
            ack(0, 3, false, 10.0),
            // Its partner ran closed loop, so it pairs with nothing.
            ack(1, 2, false, 5.0),
        ];
        let (untraced, traced) = same_payload_pairs(&open);
        assert_eq!(untraced, [10.0, 30.0, 10.0]);
        assert_eq!(traced, [11.0, 33.0, 12.0]);
    }
}
