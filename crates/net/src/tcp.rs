//! Real-socket transport for the multi-tenant fleet: a hardened
//! `TcpListener` edge in front of the sans-IO [`crate::fleet`] event loops.
//!
//! The fleet core stays byte-identical to the in-process transport — the
//! edge never parses past the first hello. Its only jobs are:
//!
//! * **Accept + route.** A single acceptor thread owns the listener and
//!   every pre-hello connection (nonblocking, polled). It buffers bytes
//!   until a complete [`Control::Hello`]/[`Control::HelloAuth`] frame can be
//!   scanned out, then registers the connection with the owning shard via
//!   [`FleetHandle::connect`] and replays the *entire* buffered byte stream
//!   into the feed — garbage before the hello reaches the core exactly as
//!   it would in-process (resync counters included), and auth is enforced
//!   by the core, not the edge, so both transports share one reject path.
//! * **Thread-per-shard readiness loop.** Routed connections move to their
//!   shard's reader thread, which polls nonblocking sockets: socket bytes →
//!   feed (+ wakeup event), queued acks/rejects → socket. No per-connection
//!   threads, no mio/tokio — `std` only.
//! * **Deadlines and reaping.** A connection that does not complete its
//!   hello within [`TcpTuning::hello_deadline`] (truncated hello, pure
//!   garbage, one-byte-per-50 ms trickle), buffers more than
//!   [`TcpTuning::prehello_cap`] pre-hello bytes, or goes byte-silent past
//!   [`TcpTuning::idle_deadline`] is *reaped*: socket shut down, fleet-side
//!   connection closed, `fleet.conns_reaped` bumped. Reaping never touches
//!   tenant state — a reaped tenant reconnects and go-back-N replays.
//! * **Bounded buffers + backpressure.** Pre-hello buffers are capped; the
//!   per-connection feed cap is honoured by *not reading* a backpressured
//!   socket (the kernel buffer fills, TCP pushes back on the sender) rather
//!   than blocking a shared thread; the ack write buffer is capped by
//!   [`TcpTuning::write_buf_cap`] (acks are idempotent and droppable).
//! * **Graceful shutdown.** [`TcpFleetServer::shutdown`] stops accepting,
//!   flushes pending acks within [`TcpTuning::flush_budget`], closes every
//!   socket, drains all in-flight sessions (hand the frames to
//!   `FrameStore::archive_session`), and folds the fleet report. The edge
//!   guarantees `conns_open == 0` at exit — no leaked sockets.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fleet::{AckReceiver, FleetConfig, FleetConnTx, FleetHandle, FleetReport, FleetServer};
use crate::protocol::{Control, FrameReader, NetError};
use crate::server::StoredFrame;

/// Deadline/buffer tuning for the TCP edge.
#[derive(Debug, Clone)]
pub struct TcpTuning {
    /// Accept → complete hello budget. Slow-loris peers (trickling bytes so
    /// an idle timer never fires) are cut here: the deadline is absolute.
    pub hello_deadline: Duration,
    /// Reap an established connection after this long without a byte. A
    /// feed-backpressured connection counts as active (the stall is ours).
    pub idle_deadline: Duration,
    /// Pre-hello buffer cap; a peer exceeding it without a hello is reaped.
    pub prehello_cap: usize,
    /// Per-connection pending-ack byte cap; beyond it acks are left queued
    /// (and eventually shed by the fleet's bounded ack channel).
    pub write_buf_cap: usize,
    /// Sleep between polls when no socket made progress.
    pub poll_interval: Duration,
    /// Shutdown budget for flushing each reader thread's pending acks.
    pub flush_budget: Duration,
}

impl Default for TcpTuning {
    fn default() -> TcpTuning {
        TcpTuning {
            hello_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(30),
            prehello_cap: 64 << 10,
            write_buf_cap: 1 << 20,
            poll_interval: Duration::from_millis(1),
            flush_budget: Duration::from_secs(1),
        }
    }
}

impl TcpTuning {
    /// Millisecond-scale deadlines for tests and chaos sweeps.
    pub fn fast_test() -> TcpTuning {
        TcpTuning {
            hello_deadline: Duration::from_millis(400),
            idle_deadline: Duration::from_millis(600),
            prehello_cap: 16 << 10,
            write_buf_cap: 256 << 10,
            poll_interval: Duration::from_micros(200),
            flush_budget: Duration::from_millis(250),
        }
    }
}

/// Edge-level connection counters, shared by the acceptor and every shard
/// reader thread (the fleet report carries the final values).
#[derive(Debug, Default)]
struct EdgeStats {
    accepted: AtomicU64,
    open: AtomicU64,
    reaped: AtomicU64,
}

impl EdgeStats {
    fn opened(&self, handle: &FleetHandle) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let now = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        handle.metrics().incr("fleet.conns_accepted", 1);
        handle.metrics().set_gauge("fleet.conns_open", now as f64);
    }

    fn closed(&self, handle: &FleetHandle, reaped: bool) {
        let now = self.open.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        handle.metrics().set_gauge("fleet.conns_open", now as f64);
        if reaped {
            self.reaped.fetch_add(1, Ordering::Relaxed);
            handle.metrics().incr("fleet.conns_reaped", 1);
        }
    }
}

/// A connection still waiting for its hello, owned by the acceptor.
struct Pending {
    stream: TcpStream,
    buf: Vec<u8>,
    accepted_at: Instant,
}

/// A routed connection, owned by its shard's reader thread.
struct EdgeConn {
    stream: TcpStream,
    /// `Some` while the fleet side is open; dropping it sends `Close`.
    tx: Option<FleetConnTx>,
    acks: AckReceiver,
    write_buf: VecDeque<u8>,
    last_activity: Instant,
    /// The fleet dropped the connection (reject/evict); flush, then close.
    core_gone: bool,
}

impl EdgeConn {
    /// Move queued ack chunks into the write buffer and push it to the
    /// socket without blocking. Returns `(progress, dead)`.
    fn pump_acks(&mut self, cap: usize) -> (bool, bool) {
        let mut progress = false;
        while self.write_buf.len() < cap && !self.core_gone {
            match self.acks.try_recv_chunk() {
                Ok(Some(chunk)) => {
                    self.write_buf.extend(chunk);
                    progress = true;
                }
                Ok(None) => break,
                Err(()) => self.core_gone = true,
            }
        }
        while !self.write_buf.is_empty() {
            let (head, _) = self.write_buf.as_slices();
            match self.stream.write(head) {
                Ok(0) => return (progress, true),
                Ok(n) => {
                    self.write_buf.drain(..n);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return (progress, true),
            }
        }
        (progress, false)
    }
}

/// Scan a pre-hello buffer for the first complete hello frame; returns its
/// session id. Scans a *fresh* reader over the bytes every call, so partial
/// frames are never consumed — they complete on a later call.
fn scan_for_hello(buf: &[u8], max_payload: u64) -> Option<u64> {
    let mut reader = FrameReader::new(buf).with_max_payload(max_payload);
    loop {
        match reader.next_frame() {
            Ok((frame, _)) => match Control::from_frame(&frame) {
                Some(Control::Hello { session_id, .. })
                | Some(Control::HelloAuth { session_id, .. }) => return Some(session_id),
                // Data or server-bound control before the hello: the core
                // will account it (prehello/noise) once the stream is fed.
                _ => continue,
            },
            // Everything else means "no complete hello yet": the reader
            // resyncs internally, so errors here are end-of-buffer states.
            Err(NetError::Closed) | Err(_) => return None,
        }
    }
}

/// What the acceptor decided about a pending connection this poll.
enum PendingStep {
    Keep,
    Route(u64),
    Close { reaped: bool },
}

fn poll_pending(
    p: &mut Pending,
    tuning: &TcpTuning,
    max_payload: u64,
    progress: &mut bool,
) -> PendingStep {
    let mut tmp = [0u8; 4096];
    loop {
        match p.stream.read(&mut tmp) {
            Ok(0) => return PendingStep::Close { reaped: false },
            Ok(n) => {
                *progress = true;
                p.buf.extend_from_slice(&tmp[..n]);
                if let Some(sid) = scan_for_hello(&p.buf, max_payload) {
                    return PendingStep::Route(sid);
                }
                if p.buf.len() > tuning.prehello_cap {
                    // Garbage (or data frames) without a hello: bounded, out.
                    return PendingStep::Close { reaped: true };
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return PendingStep::Close { reaped: false },
        }
    }
    if p.accepted_at.elapsed() > tuning.hello_deadline {
        // Truncated hello, pure garbage, or a byte-trickle slow-loris: the
        // absolute deadline reaps them all.
        return PendingStep::Close { reaped: true };
    }
    PendingStep::Keep
}

fn acceptor_loop(
    listener: TcpListener,
    handle: FleetHandle,
    reader_txs: Vec<Sender<EdgeConn>>,
    stats: Arc<EdgeStats>,
    tuning: TcpTuning,
    stop: Arc<AtomicBool>,
) {
    let max_payload = handle.config().max_payload;
    let mut pending: Vec<Pending> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(true);
                let _ = stream.set_nodelay(true);
                stats.opened(&handle);
                pending.push(Pending { stream, buf: Vec::new(), accepted_at: Instant::now() });
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            // Transient accept errors (EMFILE, aborted handshake): keep
            // serving the connections we have.
            Err(_) => {}
        }
        let mut i = 0;
        while i < pending.len() {
            match poll_pending(&mut pending[i], &tuning, max_payload, &mut progress) {
                PendingStep::Keep => i += 1,
                PendingStep::Close { reaped } => {
                    let p = pending.swap_remove(i);
                    let _ = p.stream.shutdown(Shutdown::Both);
                    stats.closed(&handle, reaped);
                }
                PendingStep::Route(sid) => {
                    let p = pending.swap_remove(i);
                    route(p, sid, &handle, &reader_txs, &stats);
                }
            }
        }
        if !progress {
            std::thread::sleep(tuning.poll_interval);
        }
    }
    // Stop accepting: pre-hello stragglers are cut, not drained.
    for p in pending {
        let _ = p.stream.shutdown(Shutdown::Both);
        stats.closed(&handle, false);
    }
}

/// Register a routed connection with its shard and replay the buffered
/// bytes (garbage, hello, and any frames behind it) into the feed.
fn route(
    p: Pending,
    session_id: u64,
    handle: &FleetHandle,
    reader_txs: &[Sender<EdgeConn>],
    stats: &Arc<EdgeStats>,
) {
    let shard = handle.config().shard_of(session_id);
    let Ok((mut tx, acks)) = handle.connect(session_id) else {
        // Fleet already shut down.
        let _ = p.stream.shutdown(Shutdown::Both);
        stats.closed(handle, false);
        return;
    };
    // The pre-hello buffer is capped far below the feed cap, so this write
    // cannot enter the stall loop.
    if tx.write_all(&p.buf).is_err() {
        let _ = p.stream.shutdown(Shutdown::Both);
        stats.closed(handle, false);
        return;
    }
    let conn = EdgeConn {
        stream: p.stream,
        tx: Some(tx),
        acks,
        write_buf: VecDeque::new(),
        last_activity: Instant::now(),
        core_gone: false,
    };
    if reader_txs[shard].send(conn).is_err() {
        // Readers drain their channel until the acceptor exits, so this
        // only happens if the reader thread died. The dropped connection
        // closed its fleet side and socket; count the close.
        stats.closed(handle, false);
    }
}

fn reader_loop(
    rx: Receiver<EdgeConn>,
    handle: FleetHandle,
    stats: Arc<EdgeStats>,
    tuning: TcpTuning,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<EdgeConn> = Vec::new();
    let mut tmp = vec![0u8; 16 << 10];
    while !stop.load(Ordering::Relaxed) {
        while let Ok(conn) = rx.try_recv() {
            conns.push(conn);
        }
        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            let keep = step_conn(&mut conns[i], &mut tmp, &tuning, &mut progress);
            match keep {
                ConnStep::Keep => i += 1,
                ConnStep::Close { reaped } => {
                    let mut c = conns.swap_remove(i);
                    drop(c.tx.take()); // fleet-side Close event
                    let _ = c.stream.shutdown(Shutdown::Both);
                    stats.closed(&handle, reaped);
                }
            }
        }
        if !progress {
            std::thread::sleep(tuning.poll_interval);
        }
    }
    // Graceful exit. The acceptor may route a connection after this
    // thread's last poll: take every one it sends until it drops its
    // senders on exit, so each routed socket is closed and counted below.
    conns.extend(rx.iter());
    // Within the budget, take in what each peer had already sent (a frame
    // that reached the socket before shutdown is stored like any other),
    // flush pending acks, then close.
    let deadline = Instant::now() + tuning.flush_budget;
    for mut c in conns {
        loop {
            let mut progress = false;
            let step = step_conn(&mut c, &mut tmp, &tuning, &mut progress);
            if matches!(step, ConnStep::Close { .. }) || !progress || Instant::now() >= deadline {
                break;
            }
        }
        while !c.write_buf.is_empty() && Instant::now() < deadline {
            let (_, dead) = c.pump_acks(tuning.write_buf_cap);
            if dead {
                break;
            }
            if !c.write_buf.is_empty() {
                std::thread::sleep(tuning.poll_interval);
            }
        }
        drop(c.tx.take());
        let _ = c.stream.shutdown(Shutdown::Both);
        stats.closed(&handle, false);
    }
}

enum ConnStep {
    Keep,
    Close { reaped: bool },
}

fn step_conn(
    c: &mut EdgeConn,
    tmp: &mut [u8],
    tuning: &TcpTuning,
    progress: &mut bool,
) -> ConnStep {
    let (ack_progress, dead) = c.pump_acks(tuning.write_buf_cap);
    *progress |= ack_progress;
    if dead {
        return ConnStep::Close { reaped: false };
    }
    if c.core_gone && c.write_buf.is_empty() {
        // The fleet rejected or evicted this connection and every queued
        // reject/ack has been flushed: a clean server-side close.
        return ConnStep::Close { reaped: false };
    }
    let Some(tx) = c.tx.as_mut() else { return ConnStep::Close { reaped: false } };
    if tx.feed_len() + tmp.len() > tx.feed_cap() {
        // Feed backpressure: stop reading, let the kernel buffer fill. Not
        // the peer's fault, so the idle clock does not run.
        c.last_activity = Instant::now();
        return ConnStep::Keep;
    }
    match c.stream.read(tmp) {
        Ok(0) => ConnStep::Close { reaped: false },
        Ok(n) => {
            c.last_activity = Instant::now();
            *progress = true;
            match tx.write_all(&tmp[..n]) {
                Ok(()) => ConnStep::Keep,
                // Feed refused (fleet shut down / conn dropped server-side).
                Err(_) => ConnStep::Close { reaped: false },
            }
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
            if c.last_activity.elapsed() > tuning.idle_deadline {
                // Half-open or silent peer: reap, free the slot. The tenant
                // session survives; a live client reconnects and replays.
                ConnStep::Close { reaped: true }
            } else {
                ConnStep::Keep
            }
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => ConnStep::Keep,
        // RST or any other hard socket error.
        Err(_) => ConnStep::Close { reaped: false },
    }
}

/// Outcome of [`TcpFleetServer::shutdown`]: the fleet report plus the final
/// graceful drain and the edge's connection ledger.
#[derive(Debug)]
pub struct TcpFleetReport {
    /// The fleet's shutdown report (tenants, counters, partition inputs).
    pub fleet: FleetReport,
    /// Frames drained from every in-flight session by the graceful
    /// shutdown, sorted by session id — hand these to
    /// `FrameStore::archive_session`.
    pub drained: Vec<(u64, Vec<StoredFrame>)>,
    /// Connections accepted over the server's lifetime.
    pub conns_accepted: u64,
    /// Connections reaped for missed deadlines or bounded-buffer overruns.
    pub conns_reaped: u64,
    /// Sockets still open at exit. Always 0 — asserted by CI's `tcp-smoke`.
    pub conns_open: u64,
}

/// A fleet served over real TCP sockets; see the module docs for the
/// connection lifecycle and hardening rules.
pub struct TcpFleetServer {
    fleet: FleetServer,
    handle: FleetHandle,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    readers: Vec<JoinHandle<()>>,
    stats: Arc<EdgeStats>,
}

impl TcpFleetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the fleet:
    /// `config.shards` event-loop workers, one acceptor thread, and one
    /// reader thread per shard.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: FleetConfig,
        tuning: TcpTuning,
    ) -> io::Result<TcpFleetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let fleet = FleetServer::spawn(config);
        let handle = fleet.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(EdgeStats::default());
        let shards = handle.config().shards.max(1);
        let mut reader_txs = Vec::with_capacity(shards);
        let mut readers = Vec::with_capacity(shards);
        for index in 0..shards {
            let (tx, rx) = channel::<EdgeConn>();
            reader_txs.push(tx);
            let (h, s, t, st) =
                (handle.clone(), Arc::clone(&stats), tuning.clone(), Arc::clone(&stop));
            readers.push(
                std::thread::Builder::new()
                    .name(format!("dbgc-tcp-shard-{index}"))
                    .spawn(move || reader_loop(rx, h, s, t, st))
                    .map_err(io::Error::other)?,
            );
        }
        let (h, s, t, st) = (handle.clone(), Arc::clone(&stats), tuning, Arc::clone(&stop));
        let acceptor = std::thread::Builder::new()
            .name("dbgc-tcp-accept".into())
            .spawn(move || acceptor_loop(listener, h, reader_txs, s, t, st))
            .map_err(io::Error::other)?;
        Ok(TcpFleetServer { fleet, handle, local_addr, stop, acceptor, readers, stats })
    }

    /// The bound listen address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A fleet handle for drain/evict/metrics — the same operator surface
    /// the in-process transport exposes.
    pub fn handle(&self) -> FleetHandle {
        self.handle.clone()
    }

    /// Sockets currently open at the edge.
    pub fn conns_open(&self) -> u64 {
        self.stats.open.load(Ordering::Relaxed)
    }

    /// Connections reaped so far (deadline/buffer violations).
    pub fn conns_reaped(&self) -> u64 {
        self.stats.reaped.load(Ordering::Relaxed)
    }

    /// Connections accepted so far.
    pub fn conns_accepted(&self) -> u64 {
        self.stats.accepted.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, flush pending acks, close every
    /// socket, drain all in-flight sessions, stop the fleet. The returned
    /// report carries the drained frames for archival and the final
    /// connection ledger (`conns_open` is 0 on a clean exit).
    pub fn shutdown(self) -> TcpFleetReport {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.acceptor.join();
        for reader in self.readers {
            let _ = reader.join();
        }
        // Sockets are closed; every stored frame was already acked on the
        // wire. Drain what the tenants still hold for the archive.
        let drained = self.handle.drain();
        let fleet = self.fleet.shutdown();
        TcpFleetReport {
            fleet,
            drained,
            conns_accepted: self.stats.accepted.load(Ordering::Relaxed),
            conns_reaped: self.stats.reaped.load(Ordering::Relaxed),
            conns_open: self.stats.open.load(Ordering::Relaxed),
        }
    }
}

/// A reconnecting TCP [`crate::session::Connect`]or for
/// [`crate::session::ResilientClient`]: every call opens a fresh socket to
/// the fleet and returns its write/read halves.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    addr: SocketAddr,
    connect_timeout: Duration,
    read_timeout: Option<Duration>,
}

impl TcpConnector {
    /// Connector with 1 s connect timeout and 2 s ack-read timeout.
    pub fn new(addr: SocketAddr) -> TcpConnector {
        TcpConnector {
            addr,
            connect_timeout: Duration::from_secs(1),
            read_timeout: Some(Duration::from_secs(2)),
        }
    }

    /// Override both timeouts. A `None` read timeout blocks the ack pump
    /// until the server closes the socket (use only with live servers).
    pub fn with_timeouts(
        mut self,
        connect_timeout: Duration,
        read_timeout: Option<Duration>,
    ) -> TcpConnector {
        self.connect_timeout = connect_timeout;
        self.read_timeout = read_timeout;
        self
    }
}

impl crate::session::Connect for TcpConnector {
    type Tx = TcpStream;
    type Rx = TcpStream;

    fn connect(&mut self) -> io::Result<(TcpStream, TcpStream)> {
        let tx = TcpStream::connect_timeout(&self.addr, self.connect_timeout)?;
        tx.set_nodelay(true)?;
        let rx = tx.try_clone()?;
        // Bound the ack pump: a half-open server surfaces as a timeout the
        // resilient client converts into a reconnect, not a hung thread.
        rx.set_read_timeout(self.read_timeout)?;
        Ok((tx, rx))
    }
}

/// Accept one connection within `deadline`; the listener is left in
/// nonblocking mode. The bounded replacement for bare `listener.accept()`
/// in tests — CI can fail, but it cannot hang.
pub fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Duration,
) -> io::Result<(TcpStream, SocketAddr)> {
    listener.set_nonblocking(true)?;
    let until = Instant::now() + deadline;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                stream.set_nonblocking(false)?;
                return Ok((stream, peer));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= until {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "accept deadline"));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Connect to `addr` within `deadline` and bound every read by it too.
/// The bounded replacement for bare `TcpStream::connect` in tests.
pub fn connect_with_deadline(addr: SocketAddr, deadline: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, deadline)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(deadline))?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetAuth;
    use crate::protocol::{write_frame, WireFrame, REJECT_BAD_AUTH};
    use crate::session::{ResilientClient, SessionConfig};

    fn spawn_fast(config: FleetConfig) -> TcpFleetServer {
        TcpFleetServer::bind("127.0.0.1:0", config, TcpTuning::fast_test())
            .expect("bind loopback fleet")
    }

    fn tcp_client(addr: SocketAddr, sid: u64) -> ResilientClient<TcpConnector> {
        let connector = TcpConnector::new(addr)
            .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
        ResilientClient::new(connector, SessionConfig::fast_test(sid))
    }

    #[test]
    fn tcp_roundtrip_two_tenants() {
        let server = spawn_fast(FleetConfig::new(8));
        let addr = server.local_addr();
        let mut threads = Vec::new();
        for sid in [11u64, 22] {
            threads.push(std::thread::spawn(move || {
                let mut client = tcp_client(addr, sid);
                for i in 0..5u32 {
                    client.send_payload(format!("t{sid}-f{i}").into_bytes()).expect("send");
                }
                client.finish().expect("finish");
            }));
        }
        for t in threads {
            t.join().expect("client thread");
        }
        let report = server.shutdown();
        assert_eq!(report.conns_open, 0, "no leaked sockets");
        report.fleet.verify_partition().expect("partition");
        for sid in [11u64, 22] {
            let tenant = report.fleet.tenant(sid).expect("tenant admitted");
            assert_eq!(tenant.durable, (0..5).collect::<Vec<_>>());
        }
        let payload = &report.drained.iter().find(|(s, _)| *s == 11).expect("drained").1[0].bytes;
        assert_eq!(payload, b"t11-f0");
    }

    #[test]
    fn bad_auth_is_typed_and_never_admitted() {
        let mut config = FleetConfig::new(4);
        let mut auth = FleetAuth::new();
        auth.insert(7, FleetAuth::derive_token(99, 7));
        config.auth = Some(auth);
        let server = spawn_fast(config);
        let addr = server.local_addr();
        // Wrong token.
        let mut cfg = SessionConfig::fast_test(7);
        cfg.auth_token = Some([0u8; 16]);
        let connector = TcpConnector::new(addr)
            .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
        let mut bad = ResilientClient::new(connector, cfg);
        match bad.send_payload(b"nope".to_vec()) {
            Err(NetError::Rejected { code }) => assert_eq!(code, REJECT_BAD_AUTH),
            other => panic!("expected bad-auth reject, got {other:?}"),
        }
        // No token at all is refused the same way.
        let connector2 = TcpConnector::new(addr)
            .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
        let mut bare = ResilientClient::new(connector2, SessionConfig::fast_test(7));
        assert!(matches!(
            bare.send_payload(b"still nope".to_vec()),
            Err(NetError::Rejected { code: REJECT_BAD_AUTH })
        ));
        // The right token sails through.
        let mut cfg = SessionConfig::fast_test(7);
        cfg.auth_token = Some(FleetAuth::derive_token(99, 7));
        let connector3 = TcpConnector::new(addr)
            .with_timeouts(Duration::from_millis(500), Some(Duration::from_millis(500)));
        let mut good = ResilientClient::new(connector3, cfg);
        good.send_payload(b"hello".to_vec()).expect("authed send");
        good.finish().expect("finish");
        let report = server.shutdown();
        assert_eq!(report.conns_open, 0);
        assert_eq!(report.fleet.auth_rejects, 2);
        assert_eq!(report.fleet.admission_rejects, 0, "auth probes never reach admission");
        assert_eq!(report.fleet.tenants.len(), 1);
        assert_eq!(report.fleet.tenants[0].durable, vec![0]);
    }

    #[test]
    fn hello_deadline_reaps_trickler_and_garbage() {
        let server = spawn_fast(FleetConfig::new(4));
        let addr = server.local_addr();
        // Garbage-only peer: bytes flow, but no hello ever parses.
        let mut garbage = connect_with_deadline(addr, Duration::from_millis(500)).expect("gconn");
        let _ = garbage.write_all(&[0xAB; 512]);
        // Truncated hello: a valid frame prefix, then silence.
        let mut truncated = connect_with_deadline(addr, Duration::from_millis(500)).expect("tconn");
        let mut hello_bytes = Vec::new();
        write_frame(&mut hello_bytes, &Control::Hello { session_id: 5, last_acked: 0 }.to_frame())
            .expect("encode");
        let _ = truncated.write_all(&hello_bytes[..hello_bytes.len() / 2]);
        // Both must be reaped by the hello deadline.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.conns_reaped() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.conns_reaped(), 2, "hello deadline reaps hostile peers");
        let report = server.shutdown();
        assert_eq!(report.conns_open, 0);
        assert!(report.fleet.tenants.is_empty(), "no session was ever admitted");
    }

    #[test]
    fn garbage_before_hello_still_routes_and_counts_resync() {
        let server = spawn_fast(FleetConfig::new(4));
        let addr = server.local_addr();
        let mut raw = connect_with_deadline(addr, Duration::from_millis(500)).expect("conn");
        raw.write_all(b"noise-before-magic").expect("garbage");
        write_frame(&mut raw, &Control::Hello { session_id: 3, last_acked: 0 }.to_frame())
            .expect("hello");
        write_frame(&mut raw, &WireFrame { sequence: 0, payload: b"pt".to_vec() }).expect("frame");
        drop(raw);
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.handle().sessions_active() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = server.shutdown();
        assert_eq!(report.conns_open, 0);
        let tenant = report.fleet.tenant(3).expect("tenant admitted past the garbage");
        assert_eq!(tenant.durable, vec![0]);
        assert!(
            report.fleet.counter("net.bytes_skipped") >= b"noise-before-magic".len() as u64,
            "pre-hello garbage lands in the fleet's resync counters"
        );
    }

    #[test]
    fn idle_deadline_reaps_half_open_peer_without_touching_neighbors() {
        let mut config = FleetConfig::new(8);
        config.shards = 2;
        let server = spawn_fast(config);
        let addr = server.local_addr();
        // A real session that goes silent after its hello.
        let mut half_open = connect_with_deadline(addr, Duration::from_millis(500)).expect("conn");
        write_frame(&mut half_open, &Control::Hello { session_id: 40, last_acked: 0 }.to_frame())
            .expect("hello");
        // A healthy neighbor streaming normally.
        let mut client = tcp_client(addr, 41);
        for i in 0..4u32 {
            client.send_payload(format!("n{i}").into_bytes()).expect("send");
            std::thread::sleep(Duration::from_millis(50));
        }
        client.finish().expect("finish");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.conns_reaped() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.conns_reaped() >= 1, "half-open peer reaped");
        // The socket is closed server-side even though we never wrote again.
        let report = server.shutdown();
        assert_eq!(report.conns_open, 0);
        let neighbor = report.fleet.tenant(41).expect("neighbor");
        assert_eq!(neighbor.durable, (0..4).collect::<Vec<_>>());
        assert_eq!(neighbor.resyncs, 0, "neighbor stream untouched by the reap");
        // The reaped tenant's session survives with whatever it delivered.
        assert!(report.fleet.tenant(40).is_some(), "reap kills the socket, not the session");
        drop(half_open);
    }

    #[test]
    fn reader_closes_connections_routed_after_its_last_poll() {
        // Shutdown can stop a reader between its last poll and the
        // acceptor's final route. That connection must still be closed and
        // counted (else `conns_open` reads 1), and the frame its peer had
        // already sent must still be stored.
        let fleet = FleetServer::spawn(FleetConfig::new(1));
        let handle = fleet.handle();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let deadline = Duration::from_secs(1);
        let mut peer =
            connect_with_deadline(listener.local_addr().expect("addr"), deadline).expect("connect");
        write_frame(&mut peer, &Control::Hello { session_id: 1, last_acked: 0 }.to_frame())
            .expect("hello");
        write_frame(&mut peer, &WireFrame { sequence: 0, payload: b"pt".to_vec() }).expect("frame");
        let (stream, _) = accept_with_deadline(&listener, deadline).expect("accept");
        stream.set_nonblocking(true).expect("nonblocking, as the acceptor sets it");
        let stats = Arc::new(EdgeStats::default());
        stats.opened(&handle);
        let (tx, acks) = handle.connect(1).expect("fleet connect");
        let (route, rx) = channel();
        let conn = EdgeConn {
            stream,
            tx: Some(tx),
            acks,
            write_buf: VecDeque::new(),
            last_activity: Instant::now(),
            core_gone: false,
        };
        route.send(conn).expect("reader channel open");
        drop(route); // the acceptor exits
        let stop = Arc::new(AtomicBool::new(true)); // the reader never polls again
        reader_loop(rx, handle, Arc::clone(&stats), TcpTuning::fast_test(), stop);
        assert_eq!(stats.open.load(Ordering::Relaxed), 0, "routed connection left open");
        drop(peer);
        let report = fleet.shutdown();
        assert_eq!(report.tenant(1).expect("tenant admitted").durable, vec![0]);
    }

    #[test]
    fn accept_helper_times_out_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let err = accept_with_deadline(&listener, Duration::from_millis(50))
            .expect_err("no client, must time out");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
