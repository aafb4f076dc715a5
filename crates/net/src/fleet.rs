//! The ingestion fleet: the DBGC server, for one sensor stream or thousands.
//!
//! Every ingest path runs through here — the in-process handle, the TCP edge
//! ([`crate::tcp`]), and the chaos harness ([`crate::fleet_chaos`]). A
//! one-tenant `FleetConfig::new(1)` is the plain single-sensor server:
//!
//! * **Sharded event loops.** [`FleetServer::spawn`] starts `shards` worker
//!   threads; each owns a `FleetCore` — connections, per-tenant
//!   `SessionServer`s ([`crate::server`]), and budgets for its shard — and
//!   drains a bounded event queue (1024 events). Sessions route to shards
//!   by a hash of their id, so one tenant's state never migrates and
//!   per-tenant processing stays in order.
//! * **Push-based framing.** Connections don't get a blocking reader.
//!   Transport bytes land in a per-connection feed buffer and a wakeup event
//!   is queued; the shard pumps the connection's [`FrameReader`] until it
//!   reports `WouldBlock` (feed empty). The reader keeps its full
//!   resynchronization behaviour and its per-connection payload guard
//!   ([`FleetConfig::max_payload`], default 8 MiB). A feed holds at most
//!   four default-size payloads plus a pre-hello replay; a writer that
//!   would overfill it waits, and fails with `TimedOut` after two seconds.
//! * **Admission control.** A fleet-wide session cap enforced with a single
//!   atomic compare-and-swap: concurrent hellos on different shards can never
//!   overshoot. A refused session gets a typed [`Control::Reject`] frame —
//!   never a hang or a reset — which v3.1 clients surface as
//!   [`NetError::Rejected`] without burning their retry budget.
//! * **Fleet-scope load shedding.** The per-pipeline
//!   [`OverloadPolicy`] is lifted to fleet scope: per-tenant undrained-frame
//!   caps and a global byte budget, checked after every stored frame.
//!   `Block` pauses the offending tenant's connections (the client's bounded
//!   window throttles it); `DropOldest` shed the tenant's oldest undrained
//!   frame; `Degrade` decimates over-fair-share tenants to half temporal
//!   resolution while pressure lasts. Shed frames were already
//!   acknowledged, so the session protocol never stalls — they are counted
//!   (`fleet.shed_frames`) and reported per tenant instead.
//! * **Never block the loop.** Acks are forwarded over a bounded channel
//!   with `try_send`; a full ack queue drops the (idempotent) ack and counts
//!   `fleet.ack_drops` — the client recovers by timeout and reconnect.
//!
//! ### Accounting
//!
//! Every tenant counts its intact data frames and their outcomes, and the
//! wire-level partition holds per tenant: `intact == stored + deduped +
//! gap_dropped + decode_failures`. Shedding happens *after* storage, adding
//! a second exact partition: `stored == drained + resident + shed`.
//! Substituting gives the exactly-once invariant the fleet-chaos harness
//! asserts: `intact == durable + deduped + gap_dropped + decode_failures +
//! shed`, where durable = drained + resident. The fleet's shared `net.*`
//! counters must also equal the sums over tenants. Fleet-level events
//! (`fleet.admission_rejects`, `fleet.auth_rejects`, `fleet.shed_frames`,
//! `fleet.prehello_frames`, `fleet.ack_drops`) are counted once, in the
//! fleet's collector, and [`FleetReport`] reads them back from it.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dbgc_metrics::{Collector, Counter};

use crate::fault::SplitMix64;
use crate::pipeline::OverloadPolicy;
use crate::protocol::{
    auth_token_eq, write_frame, AuthToken, Control, FrameReader, NetError, WireFrame,
    DEFAULT_MAX_PAYLOAD, REJECT_BAD_AUTH, REJECT_FLEET_FULL, REJECT_WRONG_SHARD,
};
use crate::server::{SessionServer, StoredFrame};

/// Per-tenant authentication table for a fleet: session id → shared-secret
/// token. When a [`FleetConfig`] carries one, every hello must be a
/// [`Control::HelloAuth`] whose token matches (constant-time compare);
/// anything else — a bare hello, an unknown tenant, a wrong token — is
/// refused with [`REJECT_BAD_AUTH`] before the admission gate is even
/// consulted, so auth probes can never occupy session slots.
///
/// `Debug` deliberately redacts the tokens so fleet configs can be logged.
#[derive(Clone, Default)]
pub struct FleetAuth {
    tokens: HashMap<u64, AuthToken>,
}

impl FleetAuth {
    /// An empty table (every hello is refused until tenants are added).
    pub fn new() -> FleetAuth {
        FleetAuth::default()
    }

    /// Register (or replace) `session_id`'s token.
    pub fn insert(&mut self, session_id: u64, token: AuthToken) {
        self.tokens.insert(session_id, token);
    }

    /// Registered tenant count.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Deterministically derive a per-tenant token from a fleet-wide secret.
    /// A convenience for tests, benches, and the chaos harness — production
    /// deployments load random tokens from an operator-provided file.
    pub fn derive_token(secret: u64, session_id: u64) -> AuthToken {
        let mut rng = SplitMix64(secret ^ session_id.rotate_left(17) ^ 0xA07A_0000_0000_7341);
        let mut token = [0u8; 16];
        for chunk in token.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next().to_le_bytes());
        }
        token
    }

    /// Build a table covering `session_ids`, each with its derived token.
    pub fn with_secret(secret: u64, session_ids: impl IntoIterator<Item = u64>) -> FleetAuth {
        let mut auth = FleetAuth::new();
        for sid in session_ids {
            auth.insert(sid, Self::derive_token(secret, sid));
        }
        auth
    }

    /// Verify a hello. The compare runs even for unknown tenants (against a
    /// zero token) so lookup success does not change the timing profile.
    pub fn check(&self, session_id: u64, token: Option<&AuthToken>) -> bool {
        let Some(presented) = token else { return false };
        match self.tokens.get(&session_id) {
            Some(want) => auth_token_eq(want, presented),
            None => {
                let _ = auth_token_eq(&[0u8; 16], presented);
                false
            }
        }
    }
}

impl std::fmt::Debug for FleetAuth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetAuth").field("tenants", &self.tokens.len()).finish()
    }
}

/// Bound of each shard's event queue; senders block when it fills, so
/// backpressure lands on clients, never on the loop.
const EVENT_QUEUE: usize = 1024;

/// Per-connection feed-buffer guard: a connection whose unparsed bytes would
/// exceed this blocks its writer (and eventually times out), bounding memory
/// against tenants that outrun their shard. Four default-size payloads plus
/// a pre-hello replay fit.
pub(crate) const FEED_CAP: usize = 4 * DEFAULT_MAX_PAYLOAD as usize + (64 << 10);

/// How long an in-process writer may stall on a full feed before its write
/// fails with `TimedOut` (the resilient client then reconnects).
const WRITE_STALL: Duration = Duration::from_secs(2);

/// Tuning for a [`FleetServer`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Event-loop shards (worker threads); sessions hash onto them by id.
    pub shards: usize,
    /// Fleet-wide admission cap on resident tenant sessions.
    pub max_sessions: usize,
    /// Per-tenant cap on stored-but-undrained frames (0 = unbounded).
    pub max_tenant_frames: usize,
    /// Global budget on undrained payload bytes across all tenants
    /// (0 = unbounded).
    pub max_fleet_bytes: u64,
    /// What to do when a budget is exceeded; see the module docs.
    pub policy: OverloadPolicy,
    /// Per-connection payload guard handed to each [`FrameReader`].
    pub max_payload: u64,
    /// Decompress stored frames (the paper's non-bypass mode).
    pub decompress: bool,
    /// Per-tenant auth table. `None` (the default) accepts any hello;
    /// `Some` requires a matching [`Control::HelloAuth`] token on every
    /// hello, over every transport.
    pub auth: Option<FleetAuth>,
}

impl FleetConfig {
    /// Defaults for `max_sessions` tenants on one shard: 8 MiB payload
    /// guard, no shedding budgets, `Block` policy.
    pub fn new(max_sessions: usize) -> FleetConfig {
        FleetConfig {
            shards: 1,
            max_sessions,
            max_tenant_frames: 0,
            max_fleet_bytes: 0,
            policy: OverloadPolicy::Block,
            max_payload: DEFAULT_MAX_PAYLOAD,
            decompress: false,
            auth: None,
        }
    }

    /// Which shard owns `session_id`. Mixed, so sequential sensor ids still
    /// spread evenly.
    pub fn shard_of(&self, session_id: u64) -> usize {
        (SplitMix64(session_id).next() % self.shards.max(1) as u64) as usize
    }
}

/// Fleet-wide state shared by every shard: the admission gate, the global
/// byte budget, and handles on the collector's `fleet.*` event counters
/// (each event is counted once, in the collector).
struct FleetShared {
    sessions: AtomicUsize,
    sessions_peak: AtomicUsize,
    fleet_bytes: AtomicU64,
    admission_rejects: Counter,
    auth_rejects: Counter,
    shed_frames: Counter,
    prehello_frames: Counter,
    ack_drops: Counter,
    collector: Collector,
}

impl FleetShared {
    fn new() -> FleetShared {
        let collector = Collector::new();
        FleetShared {
            sessions: AtomicUsize::new(0),
            sessions_peak: AtomicUsize::new(0),
            fleet_bytes: AtomicU64::new(0),
            admission_rejects: collector.counter("fleet.admission_rejects"),
            auth_rejects: collector.counter("fleet.auth_rejects"),
            shed_frames: collector.counter("fleet.shed_frames"),
            prehello_frames: collector.counter("fleet.prehello_frames"),
            ack_drops: collector.counter("fleet.ack_drops"),
            collector,
        }
    }

    /// Claim one session slot iff the fleet is under `cap`. The CAS loop is
    /// the whole admission controller: shards race freely and the cap still
    /// holds exactly.
    fn try_admit(&self, cap: usize) -> bool {
        let admitted = self
            .sessions
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < cap).then_some(n + 1))
            .is_ok();
        if admitted {
            let now = self.sessions.load(Ordering::SeqCst);
            self.sessions_peak.fetch_max(now, Ordering::SeqCst);
            self.collector.set_gauge("fleet.sessions_active", now as f64);
            self.collector
                .set_gauge("fleet.sessions_peak", self.sessions_peak.load(Ordering::SeqCst) as f64);
        }
        admitted
    }

    fn release_session(&self) {
        let before = self.sessions.fetch_sub(1, Ordering::SeqCst);
        self.collector.set_gauge("fleet.sessions_active", before.saturating_sub(1) as f64);
    }
}

/// Transport bytes queued for a connection plus its close flags.
#[derive(Debug, Default)]
struct FeedShared {
    buf: VecDeque<u8>,
    /// The client hung up: the reader sees EOF once `buf` drains.
    client_closed: bool,
    /// The fleet dropped the connection: further writes fail.
    server_closed: bool,
}

/// The read half the shard's [`FrameReader`] consumes: nonblocking — an
/// empty, still-open feed reports `WouldBlock` so the pump yields back to
/// the event loop with the reader's resync state intact.
#[derive(Debug)]
struct ByteFeed(Arc<Mutex<FeedShared>>);

impl Read for ByteFeed {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut feed = self.0.lock().expect("feed lock");
        if feed.buf.is_empty() {
            return if feed.client_closed {
                Ok(0)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "feed empty"))
            };
        }
        let n = out.len().min(feed.buf.len());
        for (i, b) in feed.buf.drain(..n).enumerate() {
            out[i] = b;
        }
        Ok(n)
    }
}

/// Write half of the fleet's server → client control path. Whole frames are
/// buffered and forwarded with `try_send`: the event loop never blocks on a
/// slow client, and a dropped ack is harmless (acks are idempotent; the
/// client recovers via its send timeout).
pub struct AckSender {
    tx: SyncSender<Vec<u8>>,
    buf: Vec<u8>,
    shared: Arc<FleetShared>,
}

impl Write for AckSender {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        match self.tx.try_send(std::mem::take(&mut self.buf)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                // Shed the ack, keep the loop moving.
                self.shared.ack_drops.add(1);
                Ok(())
            }
            Err(TrySendError::Disconnected(_)) => {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "ack receiver gone"))
            }
        }
    }
}

/// Client-side read half for acks/rejects; blocks like a socket, reports
/// EOF when the fleet drops the connection. Feed it to a [`FrameReader`]
/// (the resilient client's ack pump already does).
#[derive(Debug)]
pub struct AckReceiver {
    rx: Receiver<Vec<u8>>,
    cur: Vec<u8>,
    pos: usize,
}

impl AckReceiver {
    /// Nonblocking drain for the TCP edge: `Ok(Some(chunk))` when a whole
    /// buffered ack/reject frame is ready, `Ok(None)` when the queue is
    /// empty, `Err(())` once the fleet dropped the connection *and* every
    /// queued chunk has been taken (queued rejects still deliver).
    pub(crate) fn try_recv_chunk(&mut self) -> Result<Option<Vec<u8>>, ()> {
        match self.rx.try_recv() {
            Ok(chunk) => Ok(Some(chunk)),
            Err(std::sync::mpsc::TryRecvError::Empty) => Ok(None),
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Err(()),
        }
    }
}

impl Read for AckReceiver {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos >= self.cur.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.cur = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.cur.len() - self.pos);
        out[..n].copy_from_slice(&self.cur[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The in-process client write half handed out by [`FleetHandle::connect`]:
/// bytes go straight into the connection's feed buffer and a wakeup event is
/// queued. A write that would push the feed past its cap (four default-size
/// payloads plus a pre-hello replay) waits for the shard to parse, and fails
/// with `TimedOut` after two seconds. Dropping it closes the connection
/// cleanly.
pub struct FleetConnTx {
    conn: u64,
    shard_tx: SyncSender<FleetEvent>,
    feed: Arc<Mutex<FeedShared>>,
}

impl FleetConnTx {
    /// Bytes currently queued in the feed, unparsed by the shard. The TCP
    /// edge polls this before reading from the socket so backpressure stays
    /// readiness-driven (stop reading, let the kernel buffer fill) instead
    /// of parking a shared reader thread in `write`'s stall loop.
    pub(crate) fn feed_len(&self) -> usize {
        self.feed.lock().map(|f| f.buf.len()).unwrap_or(usize::MAX)
    }
}

impl Write for FleetConnTx {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        loop {
            {
                let mut feed = self.feed.lock().expect("feed lock");
                if feed.server_closed {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "connection dropped"));
                }
                if feed.buf.len() + data.len() <= FEED_CAP {
                    feed.buf.extend(data);
                    break;
                }
            }
            // Over the feed cap: backpressure. A paused (Block-policy)
            // tenant parks here until a drain, bounded by the stall budget.
            if start.elapsed() > WRITE_STALL {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "feed full past stall budget"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        self.shard_tx
            .send(FleetEvent::Data { conn: self.conn })
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "fleet shut down"))?;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for FleetConnTx {
    fn drop(&mut self) {
        if let Ok(mut feed) = self.feed.lock() {
            feed.client_closed = true;
        }
        let _ = self.shard_tx.send(FleetEvent::Close { conn: self.conn });
    }
}

/// One shard's mailbox.
enum FleetEvent {
    /// A new connection with its feed, ack path, and routing hint.
    Accept { conn: u64, feed: Arc<Mutex<FeedShared>>, ack: AckSender },
    /// Bytes landed in `conn`'s feed; pump its reader.
    Data { conn: u64 },
    /// The client hung up; drain the feed tail, then forget the connection.
    Close { conn: u64 },
    /// Hand every tenant's stored frames to the caller (the archival path).
    Drain { reply: SyncSender<Vec<(u64, Vec<StoredFrame>)>> },
    /// Retire one tenant, freeing its admission slot; replies with its
    /// undrained frames (`None` if the tenant lives on another shard or
    /// does not exist).
    Evict { session: u64, reply: SyncSender<Option<Vec<StoredFrame>>> },
    /// Barrier: replies once every earlier event on this shard is applied.
    Sync { reply: SyncSender<()> },
    /// Exit the loop even while senders remain.
    Shutdown,
}

/// Per-connection state on a shard.
struct Conn {
    reader: FrameReader<ByteFeed>,
    feed: Arc<Mutex<FeedShared>>,
    ack: Option<AckSender>,
    /// Bound tenant once a hello routed it; `None` drops data frames.
    tenant: Option<u64>,
    /// Watermark into `reader.bytes_skipped()` for resync attribution.
    skip_mark: u64,
}

/// Per-tenant state on a shard: the session state machine plus fleet
/// bookkeeping.
#[derive(Debug)]
struct Tenant {
    server: SessionServer,
    /// Payload bytes stored but not yet drained (the global-budget share).
    resident_bytes: u64,
    /// Sequences handed to [`FleetHandle::drain`] so far, in order.
    drained_seqs: Vec<u32>,
    /// Sequences shed under overload (acknowledged, then dropped).
    shed_seqs: Vec<u32>,
    /// `Block`-policy flag: stop pumping this tenant's connections until a
    /// drain relieves the pressure.
    paused: bool,
    /// `Degrade` decimation phase; resets when pressure clears.
    decim: u64,
}

/// What one shard knew at shutdown; aggregated into [`FleetReport`].
#[derive(Debug, Default)]
pub struct TenantReport {
    /// The tenant's wire-v3 session id.
    pub session_id: u64,
    /// Durably-held sequences: drained first, then still-resident, in
    /// storage order.
    pub durable: Vec<u32>,
    /// Frames still resident (undrained) at shutdown, bytes included.
    pub resident_frames: Vec<StoredFrame>,
    /// Sequences shed under overload after being acknowledged.
    pub shed: Vec<u32>,
    /// Data frames that arrived with a valid wire checksum.
    pub intact: usize,
    /// Frames accepted in order: `durable` plus `shed`.
    pub stored: usize,
    /// Replayed frames deduplicated.
    pub deduped: usize,
    /// Out-of-order frames dropped for go-back-N to re-deliver.
    pub gap_dropped: usize,
    /// Checksummed frames whose payload failed to decode.
    pub decode_failures: usize,
    /// Corrupt wire regions resynchronized past on this tenant's
    /// connections.
    pub resyncs: usize,
}

impl TenantReport {
    /// Check this tenant's two partitions: every intact frame was stored,
    /// deduplicated, gap-dropped or a decode failure, and every stored frame
    /// is durable or shed.
    fn verify_partition(&self) -> Result<(), String> {
        let sid = self.session_id;
        let parts = self.stored + self.deduped + self.gap_dropped + self.decode_failures;
        if self.intact != parts {
            return Err(format!(
                "tenant {sid}: wire partition broken: intact {} != \
                 stored+deduped+gap_dropped+decode_failures {parts}",
                self.intact
            ));
        }
        if self.stored != self.durable.len() + self.shed.len() {
            return Err(format!(
                "tenant {sid}: storage partition broken: stored {} != durable {} + shed {}",
                self.stored,
                self.durable.len(),
                self.shed.len()
            ));
        }
        Ok(())
    }
}

/// Aggregated outcome of a fleet run, built by [`FleetServer::shutdown`].
#[derive(Debug, Default)]
pub struct FleetReport {
    /// Every tenant the fleet admitted, sorted by session id.
    pub tenants: Vec<TenantReport>,
    /// High-water mark of concurrently resident sessions.
    pub sessions_peak: usize,
    /// Hellos refused at the admission gate (typed `Reject` sent).
    pub admission_rejects: u64,
    /// Hellos refused for a missing or wrong auth token.
    pub auth_rejects: u64,
    /// Frames shed across the fleet under overload policies.
    pub shed_frames: u64,
    /// Data frames dropped because no hello had bound the connection.
    pub prehello_frames: u64,
    /// Acks dropped by the non-blocking ack path.
    pub ack_drops: u64,
    /// The fleet collector's counters (`net.*`, `fleet.*`) at shutdown.
    pub counters: Vec<(String, u64)>,
}

impl FleetReport {
    /// Look up a captured counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    }

    /// Report for one tenant, if admitted.
    pub fn tenant(&self, session_id: u64) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.session_id == session_id)
    }

    /// Check the partitions: per tenant (see the module docs), and that
    /// every `net.*` partition counter equals its sum over tenants.
    pub fn verify_partition(&self) -> Result<(), String> {
        for tenant in &self.tenants {
            tenant.verify_partition()?;
        }
        let sum = |f: fn(&TenantReport) -> usize| -> u64 {
            self.tenants.iter().map(|t| f(t) as u64).sum()
        };
        for (name, want) in [
            ("net.frames_intact", sum(|t| t.intact)),
            ("net.frames_stored", sum(|t| t.stored)),
            ("net.frames_deduped", sum(|t| t.deduped)),
            ("net.frames_gap_dropped", sum(|t| t.gap_dropped)),
            ("net.decode_failures", sum(|t| t.decode_failures)),
            ("net.frames_shed", sum(|t| t.shed.len())),
        ] {
            if self.counter(name) != want {
                return Err(format!("{name} {} != {want} summed over tenants", self.counter(name)));
            }
        }
        Ok(())
    }
}

/// One shard's state machine. Single-threaded by construction: the owning
/// worker applies events in mailbox order, so per-tenant outcomes are a pure
/// function of each tenant's byte stream regardless of shard count.
struct FleetCore {
    index: usize,
    config: FleetConfig,
    shared: Arc<FleetShared>,
    conns: HashMap<u64, Conn>,
    tenants: HashMap<u64, Tenant>,
    /// Tombstone reports for evicted tenants: their stored/shed history must
    /// survive into [`FleetReport`] or the storage partition would not
    /// reconcile against `net.frames_stored` at shutdown.
    retired: Vec<TenantReport>,
}

/// Outcome of one pump step, decoupling the reader borrow from routing.
enum Pumped {
    Frame(WireFrame, u64),
    Yield(u64),
    Done(u64),
}

impl FleetCore {
    fn new(index: usize, config: FleetConfig, shared: Arc<FleetShared>) -> FleetCore {
        FleetCore {
            index,
            config,
            shared,
            conns: HashMap::new(),
            tenants: HashMap::new(),
            retired: Vec::new(),
        }
    }

    /// Apply one event; `false` ends the shard loop.
    fn handle_event(&mut self, event: FleetEvent) -> bool {
        match event {
            FleetEvent::Accept { conn, feed, ack } => {
                let reader = FrameReader::new(ByteFeed(Arc::clone(&feed)))
                    .with_max_payload(self.config.max_payload);
                self.conns.insert(
                    conn,
                    Conn { reader, feed, ack: Some(ack), tenant: None, skip_mark: 0 },
                );
            }
            FleetEvent::Data { conn } | FleetEvent::Close { conn } => self.pump(conn),
            FleetEvent::Drain { reply } => {
                let drained = self.drain_all();
                let _ = reply.send(drained);
            }
            FleetEvent::Evict { session, reply } => {
                let _ = reply.send(self.evict(session));
            }
            FleetEvent::Sync { reply } => {
                let _ = reply.send(());
            }
            FleetEvent::Shutdown => return false,
        }
        true
    }

    /// Pump one connection's reader until the feed runs dry, the connection
    /// ends, or its tenant pauses.
    fn pump(&mut self, conn_id: u64) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&conn_id) else { return };
                if let Some(t) = conn.tenant {
                    if self.tenants.get(&t).is_some_and(|t| t.paused) {
                        return;
                    }
                }
                match conn.reader.next_frame() {
                    Ok((wire, _)) => {
                        let total = conn.reader.bytes_skipped();
                        let delta = total - conn.skip_mark;
                        conn.skip_mark = total;
                        Pumped::Frame(wire, delta)
                    }
                    Err(NetError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                        let total = conn.reader.bytes_skipped();
                        Pumped::Yield(total)
                    }
                    // `Closed` or a hard error: the connection is over either
                    // way (session state persists for a reconnect).
                    Err(_) => {
                        let total = conn.reader.bytes_skipped();
                        Pumped::Done(total)
                    }
                }
            };
            match step {
                Pumped::Frame(wire, skip_delta) => {
                    self.account_skip(conn_id, skip_delta);
                    self.handle_wire(conn_id, wire);
                }
                Pumped::Yield(total) => {
                    self.settle_skip(conn_id, total);
                    return;
                }
                Pumped::Done(total) => {
                    self.settle_skip(conn_id, total);
                    self.remove_conn(conn_id);
                    return;
                }
            }
        }
    }

    /// Attribute garbage consumed since the watermark, then advance it.
    fn settle_skip(&mut self, conn_id: u64, total: u64) {
        let delta = match self.conns.get_mut(&conn_id) {
            Some(conn) => {
                let delta = total - conn.skip_mark;
                conn.skip_mark = total;
                delta
            }
            None => return,
        };
        self.account_skip(conn_id, delta);
    }

    fn account_skip(&mut self, conn_id: u64, skipped: u64) {
        if skipped == 0 {
            return;
        }
        let tenant = self.conns.get(&conn_id).and_then(|c| c.tenant);
        match tenant.and_then(|t| self.tenants.get_mut(&t)) {
            Some(tenant) => tenant.server.record_resync(skipped),
            None => {
                // Garbage on an unbound connection is the fleet's to count.
                self.shared.collector.incr("net.resyncs", 1);
                self.shared.collector.incr("net.bytes_skipped", skipped);
            }
        }
    }

    /// Route one parsed frame: hellos bind/admit, data frames go to the
    /// bound tenant's session state machine, then budgets are enforced.
    fn handle_wire(&mut self, conn_id: u64, wire: WireFrame) {
        let t0 = Instant::now();
        if let Some(control) = Control::from_frame(&wire) {
            match control {
                Control::Hello { session_id, last_acked } => {
                    self.handle_hello(conn_id, session_id, last_acked, None)
                }
                Control::HelloAuth { session_id, last_acked, token } => {
                    self.handle_hello(conn_id, session_id, last_acked, Some(token))
                }
                // Client-bound control arriving here is noise; ignore.
                Control::Ack { .. } | Control::Reject { .. } => {}
            }
        } else {
            match self.conns.get(&conn_id).and_then(|c| c.tenant) {
                None => {
                    // Data before any hello: the fleet speaks sessions only.
                    self.shared.prehello_frames.add(1);
                }
                Some(sid) => self.handle_data(conn_id, sid, wire),
            }
        }
        self.shared.collector.record("fleet.frame_handle_us", t0.elapsed().as_micros() as u64);
    }

    fn handle_hello(
        &mut self,
        conn_id: u64,
        session_id: u64,
        last_acked: u32,
        token: Option<AuthToken>,
    ) {
        // Auth gates everything: a failed token must not learn whether the
        // shard routing or the admission cap would have let it in, and must
        // never consume a session slot.
        if let Some(false) = self.config.auth.as_ref().map(|a| a.check(session_id, token.as_ref()))
        {
            self.shared.auth_rejects.add(1);
            self.reject(conn_id, session_id, REJECT_BAD_AUTH);
            return;
        }
        if self.config.shard_of(session_id) != self.index {
            // The driver registered this connection on the wrong shard; a
            // session split across shards would break dedup, so refuse.
            self.reject(conn_id, session_id, REJECT_WRONG_SHARD);
            return;
        }
        if !self.tenants.contains_key(&session_id) {
            if !self.shared.try_admit(self.config.max_sessions) {
                self.shared.admission_rejects.add(1);
                self.reject(conn_id, session_id, REJECT_FLEET_FULL);
                return;
            }
            let server =
                SessionServer::new(session_id, self.config.decompress, &self.shared.collector);
            self.tenants.insert(
                session_id,
                Tenant {
                    server,
                    resident_bytes: 0,
                    drained_seqs: Vec::new(),
                    shed_seqs: Vec::new(),
                    paused: false,
                    decim: 0,
                },
            );
        }
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        conn.tenant = Some(session_id);
        let tenant = self.tenants.get_mut(&session_id).expect("tenant just ensured");
        // The session machine counts the hello (reconnects, an ack floor
        // ahead of its cursor) and sends the handshake ack.
        tenant.server.hello(last_acked, &mut conn.ack);
    }

    fn handle_data(&mut self, conn_id: u64, session_id: u64, wire: WireFrame) {
        let payload_len = wire.payload.len() as u64;
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        let Some(tenant) = self.tenants.get_mut(&session_id) else { return };
        if tenant.server.data(wire, &mut conn.ack) {
            tenant.resident_bytes += payload_len;
            self.shared.fleet_bytes.fetch_add(payload_len, Ordering::SeqCst);
            self.enforce_budgets(session_id);
        }
    }

    /// Post-store budget check (high-watermark: budgets may overshoot by the
    /// one frame that triggered the check). The frame is already stored and
    /// acknowledged, so every policy below preserves session liveness.
    fn enforce_budgets(&mut self, session_id: u64) {
        let cap_frames = self.config.max_tenant_frames;
        let cap_bytes = self.config.max_fleet_bytes;
        let policy = self.config.policy;
        let global = self.shared.fleet_bytes.load(Ordering::SeqCst);
        let sessions = self.shared.sessions.load(Ordering::SeqCst).max(1) as u64;
        let Some(tenant) = self.tenants.get_mut(&session_id) else { return };
        let over_tenant = cap_frames > 0 && tenant.server.frames().len() > cap_frames;
        let over_global = cap_bytes > 0 && global > cap_bytes;
        match policy {
            OverloadPolicy::Block => {
                if over_tenant || over_global {
                    tenant.paused = true;
                }
            }
            OverloadPolicy::DropOldest => {
                // Charge the tenant that stored: shed its oldest undrained
                // frames until it fits (per-tenant cap) and, under global
                // pressure, give back what it just added.
                while cap_frames > 0 && tenant.server.frames().len() > cap_frames {
                    if !Self::shed_one(&self.shared, tenant, true) {
                        break;
                    }
                }
                if over_global {
                    Self::shed_one(&self.shared, tenant, true);
                }
            }
            OverloadPolicy::Degrade => {
                // Halve the over-budget tenant's temporal resolution: shed
                // every other newly stored frame while pressure lasts. Fair
                // share divides the global budget across live sessions.
                let fair = if cap_bytes > 0 { cap_bytes / sessions } else { u64::MAX };
                if over_tenant || (over_global && tenant.resident_bytes > fair) {
                    tenant.decim += 1;
                    if tenant.decim % 2 == 1 {
                        Self::shed_one(&self.shared, tenant, false);
                    }
                } else {
                    tenant.decim = 0;
                }
            }
        }
    }

    /// Shed one stored frame from `tenant`; `true` if a frame was removed.
    fn shed_one(shared: &FleetShared, tenant: &mut Tenant, oldest: bool) -> bool {
        let Some(frame) = tenant.server.shed_stored(oldest) else { return false };
        tenant.resident_bytes = tenant.resident_bytes.saturating_sub(frame.bytes.len() as u64);
        shared.fleet_bytes.fetch_sub(frame.bytes.len() as u64, Ordering::SeqCst);
        shared.shed_frames.add(1);
        tenant.shed_seqs.push(frame.sequence);
        true
    }

    /// Send a typed refusal and drop the connection.
    fn reject(&mut self, conn_id: u64, session_id: u64, code: u32) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            if let Some(ack) = conn.ack.as_mut() {
                let _ = write_frame(ack, &Control::Reject { session_id, code }.to_frame());
            }
        }
        self.remove_conn(conn_id);
    }

    fn remove_conn(&mut self, conn_id: u64) {
        if let Some(conn) = self.conns.remove(&conn_id) {
            if let Ok(mut feed) = conn.feed.lock() {
                feed.server_closed = true;
            }
            // Dropping `conn.ack` disconnects the client's ack pump.
        }
    }

    /// Drain every tenant's stored frames (sorted by session id for
    /// deterministic output), lift pauses, and re-pump parked connections.
    fn drain_all(&mut self) -> Vec<(u64, Vec<StoredFrame>)> {
        let mut sids: Vec<u64> = self.tenants.keys().copied().collect();
        sids.sort_unstable();
        let mut out = Vec::with_capacity(sids.len());
        for sid in sids {
            let tenant = self.tenants.get_mut(&sid).expect("listed tenant");
            let frames = tenant.server.drain_frames();
            tenant.drained_seqs.extend(frames.iter().map(|f| f.sequence));
            self.shared.fleet_bytes.fetch_sub(tenant.resident_bytes, Ordering::SeqCst);
            tenant.resident_bytes = 0;
            tenant.paused = false;
            self.shared.collector.incr("fleet.frames_drained", frames.len() as u64);
            out.push((sid, frames));
        }
        // Parked feeds hold bytes with no pending wakeup event; pump now.
        let mut conn_ids: Vec<u64> = self.conns.keys().copied().collect();
        conn_ids.sort_unstable();
        for id in conn_ids {
            self.pump(id);
        }
        out
    }

    fn evict(&mut self, session_id: u64) -> Option<Vec<StoredFrame>> {
        let tenant = self.tenants.remove(&session_id)?;
        self.shared.fleet_bytes.fetch_sub(tenant.resident_bytes, Ordering::SeqCst);
        self.shared.release_session();
        // Refuse the tenant's live connections so their clients stop cleanly.
        let bound: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.tenant == Some(session_id))
            .map(|(id, _)| *id)
            .collect();
        for conn_id in bound {
            self.reject(conn_id, session_id, REJECT_FLEET_FULL);
        }
        let (report, frames) = Self::close_tenant(session_id, tenant, true);
        self.retired.push(report);
        Some(frames)
    }

    /// Fold one tenant into its shutdown report. With `hand_off` set the
    /// still-resident frames leave with the caller (eviction): they count as
    /// durable — custody transferred, not lost — but are not reported
    /// resident.
    fn close_tenant(
        session_id: u64,
        mut tenant: Tenant,
        hand_off: bool,
    ) -> (TenantReport, Vec<StoredFrame>) {
        let counts = tenant.server.counts();
        let mut durable = tenant.drained_seqs;
        let frames = tenant.server.drain_frames();
        durable.extend(frames.iter().map(|f| f.sequence));
        let (resident_frames, handed_off) =
            if hand_off { (Vec::new(), frames) } else { (frames, Vec::new()) };
        let report = TenantReport {
            session_id,
            durable,
            resident_frames,
            shed: tenant.shed_seqs,
            intact: counts.intact,
            stored: counts.stored,
            deduped: counts.deduped,
            gap_dropped: counts.gap_dropped,
            decode_failures: counts.decode_failures,
            resyncs: counts.resyncs,
        };
        (report, handed_off)
    }

    /// Fold this shard's tenants (evicted tombstones first) into shutdown
    /// reports.
    fn into_reports(self) -> Vec<TenantReport> {
        let mut out = self.retired;
        out.reserve(self.tenants.len());
        for (sid, tenant) in self.tenants {
            let (report, _) = Self::close_tenant(sid, tenant, false);
            out.push(report);
        }
        out
    }
}

/// Cloneable handle for connecting clients and driving a running fleet.
#[derive(Clone)]
pub struct FleetHandle {
    config: FleetConfig,
    txs: Arc<Vec<SyncSender<FleetEvent>>>,
    shared: Arc<FleetShared>,
    next_conn: Arc<AtomicU64>,
}

impl FleetHandle {
    /// Open an in-process connection for `session_id`. The id routes the
    /// connection to its owning shard, so the eventual hello **must** carry
    /// the same id (a mismatch is refused with
    /// [`REJECT_WRONG_SHARD`]).
    ///
    /// Returns the write half (data frames in) and the read half (acks and
    /// rejects out) — exactly the pair [`crate::session::Connect`] wants.
    pub fn connect(&self, session_id: u64) -> io::Result<(FleetConnTx, AckReceiver)> {
        let shard = self.config.shard_of(session_id);
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let feed = Arc::new(Mutex::new(FeedShared::default()));
        let (ack_tx, ack_rx) = sync_channel::<Vec<u8>>(64);
        let ack = AckSender { tx: ack_tx, buf: Vec::new(), shared: Arc::clone(&self.shared) };
        self.txs[shard]
            .send(FleetEvent::Accept { conn, feed: Arc::clone(&feed), ack })
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "fleet shut down"))?;
        let tx = FleetConnTx { conn, shard_tx: self.txs[shard].clone(), feed };
        Ok((tx, AckReceiver { rx: ack_rx, cur: Vec::new(), pos: 0 }))
    }

    /// Take every tenant's stored frames — the archival hand-off (feed them
    /// to `dbgc-store`'s `FrameStore::archive_session`). Unpauses
    /// `Block`-policy tenants. Sorted by session id.
    pub fn drain(&self) -> Vec<(u64, Vec<StoredFrame>)> {
        let mut out = Vec::new();
        for tx in self.txs.iter() {
            let (reply_tx, reply_rx) = sync_channel(1);
            if tx.send(FleetEvent::Drain { reply: reply_tx }).is_ok() {
                if let Ok(mut part) = reply_rx.recv() {
                    out.append(&mut part);
                }
            }
        }
        out.sort_unstable_by_key(|(sid, _)| *sid);
        out
    }

    /// Retire `session_id`, freeing its admission slot and refusing its live
    /// connections; returns its undrained frames if it existed. The caller
    /// takes custody of the returned frames: they count as durable in the
    /// tenant's shutdown [`TenantReport`] (kept as a tombstone so
    /// [`FleetReport::verify_partition`] still reconciles), with
    /// `resident_frames` empty.
    pub fn evict(&self, session_id: u64) -> Option<Vec<StoredFrame>> {
        let shard = self.config.shard_of(session_id);
        let (reply_tx, reply_rx) = sync_channel(1);
        self.txs[shard].send(FleetEvent::Evict { session: session_id, reply: reply_tx }).ok()?;
        reply_rx.recv().ok().flatten()
    }

    /// Barrier: returns once every shard has applied all events queued
    /// before this call. Lets tests observe a settled fleet.
    pub fn sync(&self) {
        for tx in self.txs.iter() {
            let (reply_tx, reply_rx) = sync_channel(1);
            if tx.send(FleetEvent::Sync { reply: reply_tx }).is_ok() {
                let _ = reply_rx.recv();
            }
        }
    }

    /// Sessions currently resident across the fleet.
    pub fn sessions_active(&self) -> usize {
        self.shared.sessions.load(Ordering::SeqCst)
    }

    /// High-water mark of concurrently resident sessions.
    pub fn sessions_peak(&self) -> usize {
        self.shared.sessions_peak.load(Ordering::SeqCst)
    }

    /// Hellos refused at the admission gate so far.
    pub fn admission_rejects(&self) -> u64 {
        self.shared.admission_rejects.get()
    }

    /// Hellos refused for missing/wrong auth tokens so far.
    pub fn auth_rejects(&self) -> u64 {
        self.shared.auth_rejects.get()
    }

    /// The fleet config this handle was built with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The fleet's metrics collector (`fleet.*` gauges/counters plus every
    /// tenant's `net.*` counters).
    pub fn metrics(&self) -> &Collector {
        &self.shared.collector
    }
}

/// A running fleet: shard workers plus the [`FleetHandle`] to reach them.
pub struct FleetServer {
    handle: FleetHandle,
    workers: Vec<std::thread::JoinHandle<FleetCore>>,
}

impl FleetServer {
    /// Start `config.shards` event-loop workers.
    pub fn spawn(config: FleetConfig) -> FleetServer {
        let shared = Arc::new(FleetShared::new());
        let mut txs = Vec::with_capacity(config.shards.max(1));
        let mut workers = Vec::with_capacity(config.shards.max(1));
        for index in 0..config.shards.max(1) {
            let (tx, rx) = sync_channel::<FleetEvent>(EVENT_QUEUE);
            txs.push(tx);
            let mut core = FleetCore::new(index, config.clone(), Arc::clone(&shared));
            let worker = std::thread::Builder::new()
                .name(format!("dbgc-fleet-{index}"))
                .spawn(move || {
                    while let Ok(event) = rx.recv() {
                        if !core.handle_event(event) {
                            break;
                        }
                    }
                    core
                })
                .expect("spawn fleet shard");
            workers.push(worker);
        }
        let handle = FleetHandle {
            config,
            txs: Arc::new(txs),
            shared,
            next_conn: Arc::new(AtomicU64::new(0)),
        };
        FleetServer { handle, workers }
    }

    /// A handle for connecting clients and draining the archive path.
    pub fn handle(&self) -> FleetHandle {
        self.handle.clone()
    }

    /// Stop every shard and fold their state into a [`FleetReport`]. Live
    /// in-process connections see `BrokenPipe` on their next write.
    pub fn shutdown(self) -> FleetReport {
        for tx in self.handle.txs.iter() {
            let _ = tx.send(FleetEvent::Shutdown);
        }
        let mut tenants = Vec::new();
        for worker in self.workers {
            tenants.extend(worker.join().expect("fleet shard panicked").into_reports());
        }
        tenants.sort_unstable_by_key(|t| t.session_id);
        let shared = &self.handle.shared;
        let counters: Vec<(String, u64)> =
            shared.collector.snapshot().counters.into_iter().collect();
        FleetReport {
            tenants,
            sessions_peak: shared.sessions_peak.load(Ordering::SeqCst),
            admission_rejects: shared.admission_rejects.get(),
            auth_rejects: shared.auth_rejects.get(),
            shed_frames: shared.shed_frames.get(),
            prehello_frames: shared.prehello_frames.get(),
            ack_drops: shared.ack_drops.get(),
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ResilientClient, SessionConfig};

    fn fast_client(
        handle: &FleetHandle,
        session_id: u64,
    ) -> ResilientClient<impl crate::session::Connect<Tx = FleetConnTx, Rx = AckReceiver>> {
        let h = handle.clone();
        let connector = move || h.connect(session_id);
        ResilientClient::new(connector, SessionConfig::fast_test(session_id))
    }

    #[test]
    fn two_tenants_deliver_in_order() {
        let fleet = FleetServer::spawn(FleetConfig::new(8));
        let handle = fleet.handle();
        let mut threads = Vec::new();
        for sid in [3u64, 4] {
            let handle = handle.clone();
            threads.push(std::thread::spawn(move || {
                let mut client = fast_client(&handle, sid);
                for i in 0..6u8 {
                    client.send_payload(vec![sid as u8 ^ i; 64]).unwrap();
                }
                client.finish().unwrap()
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let report = fleet.shutdown();
        assert_eq!(report.tenants.len(), 2);
        for t in &report.tenants {
            assert_eq!(t.durable, (0..6).collect::<Vec<u32>>(), "tenant {}", t.session_id);
            assert!(t.shed.is_empty());
        }
        assert_eq!(report.sessions_peak, 2);
        assert_eq!(report.admission_rejects, 0);
        report.verify_partition().unwrap();
    }

    #[test]
    fn admission_cap_rejects_with_typed_error() {
        let fleet = FleetServer::spawn(FleetConfig::new(1));
        let handle = fleet.handle();
        let mut first = fast_client(&handle, 10);
        first.send_payload(vec![1; 32]).unwrap();
        // Second tenant: the cap is 1, so the hello must be refused with the
        // typed error, promptly (no hang, no retry storm).
        let mut second = fast_client(&handle, 11);
        match second.send_payload(vec![2; 32]) {
            Err(NetError::Rejected { code }) => assert_eq!(code, REJECT_FLEET_FULL),
            other => panic!("expected Rejected, got {other:?}"),
        }
        first.finish().unwrap();
        let report = fleet.shutdown();
        assert_eq!(report.admission_rejects, 1);
        assert_eq!(report.sessions_peak, 1);
        assert!(report.tenant(11).is_none());
    }

    #[test]
    fn eviction_frees_the_slot() {
        let fleet = FleetServer::spawn(FleetConfig::new(1));
        let handle = fleet.handle();
        let mut a = fast_client(&handle, 20);
        a.send_payload(vec![1; 16]).unwrap();
        a.finish().unwrap();
        let frames = handle.evict(20).expect("tenant existed");
        assert_eq!(frames.len(), 1);
        assert_eq!(handle.sessions_active(), 0);
        // The slot is free again.
        let mut b = fast_client(&handle, 21);
        b.send_payload(vec![2; 16]).unwrap();
        b.finish().unwrap();
        let report = fleet.shutdown();
        assert_eq!(report.sessions_peak, 1);
        assert!(report.tenant(21).is_some());
        // The evicted tenant leaves a tombstone: its frame was handed to the
        // caller (durable, not resident) so the storage partition still holds.
        let gone = report.tenant(20).expect("evicted tenant tombstone");
        assert_eq!(gone.durable, vec![0]);
        assert!(gone.resident_frames.is_empty());
        report.verify_partition().expect("eviction preserves the partition");
    }

    #[test]
    fn drain_hands_frames_over_and_resumes_blocked_tenant() {
        let mut config = FleetConfig::new(4);
        config.max_tenant_frames = 2;
        config.policy = OverloadPolicy::Block;
        let fleet = FleetServer::spawn(config);
        let handle = fleet.handle();
        let sender = {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut client = fast_client(&handle, 30);
                for i in 0..10u8 {
                    client.send_payload(vec![i; 128]).unwrap();
                }
                client.finish().unwrap()
            })
        };
        // Drain until the client is done; Block parks it between drains.
        let mut drained = Vec::new();
        while !sender.is_finished() {
            for (_sid, frames) in handle.drain() {
                drained.extend(frames.into_iter().map(|f| f.sequence));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        sender.join().unwrap();
        for (_sid, frames) in handle.drain() {
            drained.extend(frames.into_iter().map(|f| f.sequence));
        }
        assert_eq!(drained, (0..10).collect::<Vec<u32>>(), "drains preserve order, lossless");
        let report = fleet.shutdown();
        assert_eq!(report.shed_frames, 0, "Block never sheds");
        report.verify_partition().unwrap();
    }

    #[test]
    fn drop_oldest_sheds_but_acks_everything() {
        let mut config = FleetConfig::new(4);
        config.max_tenant_frames = 3;
        config.policy = OverloadPolicy::DropOldest;
        let fleet = FleetServer::spawn(config);
        let handle = fleet.handle();
        let mut client = fast_client(&handle, 40);
        for i in 0..12u8 {
            client.send_payload(vec![i; 64]).unwrap();
        }
        client.finish().unwrap();
        let report = fleet.shutdown();
        let t = report.tenant(40).expect("tenant admitted");
        assert!(report.shed_frames > 0, "cap 3 with 12 frames must shed");
        // Exactly-once across outcomes: durable + shed covers 0..12 exactly.
        let mut all: Vec<u32> = t.durable.iter().chain(t.shed.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<u32>>());
        report.verify_partition().unwrap();
    }

    #[test]
    fn degrade_decimates_over_budget_tenant() {
        let mut config = FleetConfig::new(4);
        config.max_tenant_frames = 2;
        config.policy = OverloadPolicy::Degrade;
        let fleet = FleetServer::spawn(config);
        let handle = fleet.handle();
        let mut client = fast_client(&handle, 50);
        for i in 0..16u8 {
            client.send_payload(vec![i; 64]).unwrap();
        }
        client.finish().unwrap();
        let report = fleet.shutdown();
        let t = report.tenant(50).expect("tenant admitted");
        assert!(!t.shed.is_empty(), "decimation sheds under sustained pressure");
        assert!(t.durable.len() >= 2, "degrade keeps frames flowing");
        let mut all: Vec<u32> = t.durable.iter().chain(t.shed.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<u32>>());
        report.verify_partition().unwrap();
    }

    /// A fleet whose global budget holds `payloads` 64-byte payloads under
    /// `policy`, and two tenant ids that live on its two different shards.
    fn budget_fleet(policy: OverloadPolicy, payloads: u64) -> (FleetServer, [u64; 2]) {
        let mut config = FleetConfig::new(4);
        config.shards = 2;
        config.max_fleet_bytes = payloads * 64;
        config.policy = policy;
        let b = (2..).find(|id| config.shard_of(*id) != config.shard_of(1)).expect("ids split");
        (FleetServer::spawn(config), [1, b])
    }

    /// Connect as `sid` and send its hello.
    fn open(handle: &FleetHandle, sid: u64) -> (FleetConnTx, AckReceiver) {
        let (mut tx, acks) = handle.connect(sid).unwrap();
        write_frame(&mut tx, &Control::Hello { session_id: sid, last_acked: 0 }.to_frame())
            .unwrap();
        (tx, acks)
    }

    /// Send 64-byte data frames numbered `seqs`.
    fn send(tx: &mut FleetConnTx, seqs: std::ops::Range<u32>) {
        for seq in seqs {
            write_frame(tx, &WireFrame { sequence: seq, payload: vec![seq as u8; 64] }).unwrap();
        }
    }

    /// The sequences a drain handed over for `sid`.
    fn drained(drain: &[(u64, Vec<StoredFrame>)], sid: u64) -> Vec<u32> {
        drain
            .iter()
            .filter(|(s, _)| *s == sid)
            .flat_map(|(_, f)| f.iter().map(|f| f.sequence))
            .collect()
    }

    /// `durable ∪ shed`, sorted.
    fn outcomes(t: &TenantReport) -> Vec<u32> {
        let mut all: Vec<u32> = t.durable.iter().chain(&t.shed).copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn global_budget_block_pauses_the_storing_tenant_until_a_drain() {
        let (fleet, [a, b]) = budget_fleet(OverloadPolicy::Block, 3);
        let handle = fleet.handle();
        let (mut tx_a, _acks_a) = open(&handle, a);
        let (mut tx_b, _acks_b) = open(&handle, b);
        // A's frame 3 takes the fleet past three payloads: A pauses with
        // frame 4 in its feed. B's first frame stores, then B pauses too.
        send(&mut tx_a, 0..5);
        handle.sync();
        send(&mut tx_b, 0..2);
        handle.sync();
        let first = handle.drain();
        assert_eq!((drained(&first, a), drained(&first, b)), (vec![0, 1, 2, 3], vec![0]));
        // The drain relieved the budget and resumed both feeds.
        let second = handle.drain();
        assert_eq!((drained(&second, a), drained(&second, b)), (vec![4], vec![1]));
        drop((tx_a, tx_b));
        let report = fleet.shutdown();
        assert_eq!(report.shed_frames, 0, "Block never sheds");
        assert_eq!(report.tenant(a).expect("a").durable, (0..5).collect::<Vec<u32>>());
        assert_eq!(report.tenant(b).expect("b").durable, vec![0, 1]);
        report.verify_partition().unwrap();
    }

    #[test]
    fn global_budget_drop_oldest_sheds_and_accounts_every_frame() {
        let (fleet, [a, b]) = budget_fleet(OverloadPolicy::DropOldest, 3);
        let handle = fleet.handle();
        let (mut tx_a, _acks_a) = open(&handle, a);
        let (mut tx_b, _acks_b) = open(&handle, b);
        send(&mut tx_a, 0..8);
        handle.sync();
        send(&mut tx_b, 0..8);
        handle.sync();
        drop((tx_a, tx_b));
        let report = fleet.shutdown();
        assert!(report.shed_frames > 0, "a three-payload budget must shed");
        for sid in [a, b] {
            let t = report.tenant(sid).expect("tenant admitted");
            assert_eq!(outcomes(t), (0..8).collect::<Vec<u32>>(), "tenant {sid}");
        }
        let resident: usize =
            report.tenants.iter().flat_map(|t| &t.resident_frames).map(|f| f.bytes.len()).sum();
        assert!(resident <= 3 * 64, "{resident} bytes resident over the budget");
        report.verify_partition().unwrap();
    }

    #[test]
    fn global_budget_degrade_sheds_only_over_fair_share() {
        // Four payloads across two tenants: a fair share is two.
        let (fleet, [heavy, light]) = budget_fleet(OverloadPolicy::Degrade, 4);
        let handle = fleet.handle();
        let (mut tx_h, _acks_h) = open(&handle, heavy);
        let (mut tx_l, _acks_l) = open(&handle, light);
        send(&mut tx_l, 0..1);
        handle.sync();
        send(&mut tx_h, 0..8);
        handle.sync();
        // The fleet is over budget, but the light tenant holds only its
        // fair share, so its frame is kept.
        send(&mut tx_l, 1..2);
        handle.sync();
        drop((tx_h, tx_l));
        let report = fleet.shutdown();
        let h = report.tenant(heavy).expect("heavy");
        let l = report.tenant(light).expect("light");
        assert!(!h.shed.is_empty(), "the tenant over its share is decimated");
        assert_eq!(outcomes(h), (0..8).collect::<Vec<u32>>());
        assert_eq!((l.durable.clone(), l.shed.len()), (vec![0, 1], 0));
        assert_eq!(report.shed_frames, h.shed.len() as u64);
        report.verify_partition().unwrap();
    }

    #[test]
    fn prehello_data_is_dropped_and_counted() {
        let fleet = FleetServer::spawn(FleetConfig::new(2));
        let handle = fleet.handle();
        let (mut tx, _rx) = handle.connect(60).unwrap();
        write_frame(&mut tx, &WireFrame { sequence: 0, payload: vec![1; 32] }).unwrap();
        handle.sync();
        drop(tx);
        let report = fleet.shutdown();
        assert_eq!(report.prehello_frames, 1);
        assert!(report.tenants.is_empty());
    }

    #[test]
    fn wrong_shard_hello_is_refused() {
        let mut config = FleetConfig::new(8);
        config.shards = 4;
        let fleet = FleetServer::spawn(config.clone());
        let handle = fleet.handle();
        // Register under id 70, then hello as an id owned by another shard.
        let other = (0..64u64)
            .find(|id| config.shard_of(*id) != config.shard_of(70))
            .expect("4 shards must split ids");
        let (mut tx, ack_rx) = handle.connect(70).unwrap();
        write_frame(&mut tx, &Control::Hello { session_id: other, last_acked: 0 }.to_frame())
            .unwrap();
        let mut reader = FrameReader::new(ack_rx);
        let (frame, _) = reader.next_frame().unwrap();
        match Control::from_frame(&frame) {
            Some(Control::Reject { session_id, code }) => {
                assert_eq!(session_id, other);
                assert_eq!(code, REJECT_WRONG_SHARD);
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        drop(tx);
        fleet.shutdown();
    }

    #[test]
    fn corrupt_bytes_on_a_connection_resync_per_tenant() {
        let fleet = FleetServer::spawn(FleetConfig::new(2));
        let handle = fleet.handle();
        let (mut tx, ack_rx) = handle.connect(80).unwrap();
        write_frame(&mut tx, &Control::Hello { session_id: 80, last_acked: 0 }.to_frame()).unwrap();
        write_frame(&mut tx, &WireFrame { sequence: 0, payload: vec![7; 64] }).unwrap();
        tx.write_all(&[0xEE; 37]).unwrap(); // garbage between frames
        write_frame(&mut tx, &WireFrame { sequence: 1, payload: vec![8; 64] }).unwrap();
        handle.sync();
        drop(tx);
        drop(ack_rx);
        let report = fleet.shutdown();
        let t = report.tenant(80).expect("tenant admitted");
        assert_eq!(t.durable, vec![0, 1], "frames on both sides of the garbage stored");
        assert_eq!(t.resyncs, 1);
        report.verify_partition().unwrap();
    }

    #[test]
    fn hello_ahead_of_cursor_drops_no_frame() {
        // Regression: a client ack floor ahead of a fresh tenant's cursor
        // used to be reported as a gap-dropped frame although none was.
        let fleet = FleetServer::spawn(FleetConfig::new(1));
        let handle = fleet.handle();
        let (mut tx, _acks) = handle.connect(90).unwrap();
        write_frame(&mut tx, &Control::Hello { session_id: 90, last_acked: 3 }.to_frame()).unwrap();
        write_frame(&mut tx, &WireFrame { sequence: 0, payload: vec![5; 16] }).unwrap();
        handle.sync();
        drop(tx);
        let report = fleet.shutdown();
        let t = report.tenant(90).expect("tenant admitted");
        assert_eq!(t.durable, vec![0]);
        assert_eq!((t.intact, t.stored, t.deduped, t.gap_dropped), (1, 1, 0, 0));
        report.verify_partition().unwrap();
        for (name, want) in [
            ("net.frames_deduped", t.deduped),
            ("net.frames_gap_dropped", t.gap_dropped),
            ("net.decode_failures", t.decode_failures),
            ("net.resyncs", t.resyncs),
            ("net.seq_gaps", 1), // the ahead-of-cursor hello is still seen
        ] {
            assert_eq!(report.counter(name), want as u64, "{name}");
        }
    }

    /// A one-frame tenant report with the given wire and storage counts.
    fn tenant_report(intact: usize, stored: usize) -> TenantReport {
        TenantReport { session_id: 1, durable: vec![0], intact, stored, ..TenantReport::default() }
    }

    #[test]
    fn partition_is_checked_without_counters() {
        // A tenant whose outcomes do not add up fails the check on its own
        // counts, whether or not `net.*` counters were captured.
        let wire_err = tenant_report(2, 1).verify_partition().unwrap_err();
        assert!(wire_err.contains("wire partition"), "{wire_err}");
        let storage_err = tenant_report(2, 2).verify_partition().unwrap_err();
        assert!(storage_err.contains("storage partition"), "{storage_err}");
    }

    #[test]
    fn net_counters_must_match_tenant_sums() {
        // Captured `net.*` counters that disagree with the tenants' own
        // counts (a frame counted on the wire that no tenant accounts for)
        // break the partition even when every tenant balances.
        let mut report = FleetReport {
            tenants: vec![tenant_report(1, 1)],
            counters: vec![("net.frames_intact".into(), 1), ("net.frames_stored".into(), 1)],
            ..FleetReport::default()
        };
        report.verify_partition().unwrap();
        report.counters[0].1 = 2;
        assert!(report.verify_partition().unwrap_err().contains("net.frames_intact"));
        // An empty counter list is checked too: the tenant's stored frame
        // is then a frame no `net.*` counter accounts for.
        report.counters.clear();
        assert!(report.verify_partition().unwrap_err().contains("net.frames_intact"));
    }
}
