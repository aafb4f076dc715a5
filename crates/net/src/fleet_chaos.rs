//! The chaos harness: N resilient clients over seeded faulty links into
//! **one** [`FleetServer`], replayable from a single seed.
//!
//! [`run_fleet_chaos`] derives one sub-seed per tenant (payloads, fault
//! schedule, and backoff jitter are all functions of it), drives every
//! client on its own thread, optionally drains the archive path on a cadence
//! while the storm runs, and folds the shutdown [`FleetReport`] plus every
//! drained frame into a [`FleetChaosReport`]. [`run_fleet_chaos_with_schedule`]
//! drives a one-tenant config through an explicit [`FaultSchedule`]: since
//! schedules serialize to bytes, that is the fuzzer's wire-fault mode, where
//! a mutated corpus file becomes a schedule via [`FaultSchedule::from_bytes`].
//!
//! The invariant ([`FleetChaosReport::verify`]): for every tenant, `durable ∪
//! shed` covers `0..frames` **exactly once**, durable sequences are strictly
//! in order with byte-intact payloads, and the outcomes partition twice — on
//! the wire as `intact == stored + deduped + gap_dropped + decode_failures`,
//! in storage as `stored == durable + shed` — which together give the
//! headline identity `intact == durable + deduped + gap_dropped +
//! decode_failures + shed`. [`FleetChaosReport::verify_safety`] is the subset
//! that must hold even when a client runs out of retries.

use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::{FaultProfile, FaultSchedule, FaultyLink, SplitMix64};
use crate::fleet::{FleetAuth, FleetConfig, FleetHandle, FleetReport, FleetServer};
use crate::pipeline::OverloadPolicy;
use crate::protocol::{write_frame, Control, FrameReader, NetError, WireFrame, REJECT_BAD_AUTH};
use crate::retry::RetryPolicy;
use crate::server::StoredFrame;
use crate::session::{Connect, ResilientClient, SessionConfig, SessionStats};
use crate::tcp::{TcpConnector, TcpFleetServer, TcpTuning};

/// Deterministic payload for frame `index` of a run: content is a function
/// of (seed, index) so the server side can be checked byte-for-byte.
pub fn chaos_payload(seed: u64, index: usize, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64(seed ^ 0xC0DE_0000_0000_0000 ^ (index as u64).wrapping_mul(0x9E37));
    let mut out = Vec::with_capacity(len.max(4));
    out.extend_from_slice(&(index as u32).to_le_bytes());
    while out.len() < len.max(4) {
        out.extend_from_slice(&rng.next().to_le_bytes());
    }
    out.truncate(len.max(4));
    out
}

/// Which transport carries the chaos storm into the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetTransport {
    /// Push-based in-memory feeds ([`FleetHandle::connect`]).
    InProcess,
    /// Real loopback sockets through [`TcpFleetServer`]: the same seeded
    /// [`FaultyLink`] schedules applied at the socket layer, so mid-stream
    /// resets, stalls, and byte-trickle hit a genuine TCP edge.
    Tcp,
}

/// Parameters of one fleet-chaos run. Everything observable is a function of
/// `seed` and the shape fields.
#[derive(Debug, Clone)]
pub struct FleetChaosConfig {
    /// Master seed; per-tenant sub-seeds, schedules, and payloads derive
    /// from it.
    pub seed: u64,
    /// Concurrent sensor sessions to drive.
    pub tenants: usize,
    /// Data frames each tenant sends.
    pub frames_per_tenant: usize,
    /// Bytes per synthetic payload.
    pub payload_len: usize,
    /// Fleet event-loop shards.
    pub shards: usize,
    /// Fault intensity of every tenant's link.
    pub profile: FaultProfile,
    /// Ack-progress deadline before a client reconnects.
    pub send_timeout: Duration,
    /// Client retry/backoff policy.
    pub retry: RetryPolicy,
    /// Per-tenant undrained-frame cap handed to the fleet (0 = unbounded).
    pub max_tenant_frames: usize,
    /// Global undrained-byte budget handed to the fleet (0 = unbounded).
    pub max_fleet_bytes: u64,
    /// Fleet overload policy under those budgets.
    pub policy: OverloadPolicy,
    /// Drain the archive path on this cadence while clients run (required
    /// for `Block`-policy runs with caps, where only a drain un-pauses).
    pub drain_period: Option<Duration>,
    /// Carry the storm in-process or over real loopback sockets.
    pub transport: FleetTransport,
    /// When set, the fleet requires per-tenant auth tokens derived from
    /// this secret ([`FleetAuth::with_secret`]) and every legitimate client
    /// presents its token on hello.
    pub auth_secret: Option<u64>,
    /// Extra hostile clients presenting wrong/unknown credentials; each
    /// must be refused with a typed `REJECT_BAD_AUTH` before admission.
    /// Requires `auth_secret`.
    pub bad_auth_clients: usize,
    /// Extra raw-wire clients that authenticate, then smuggle a frame
    /// header claiming a payload beyond the fleet's 8 MiB guard between two
    /// legitimate frames. The guard must resync past it and both real
    /// frames must land byte-intact.
    pub oversize_clients: usize,
}

impl FleetChaosConfig {
    /// Standard smoke shape: 4 tenants × 8 frames over lossy-4G links into
    /// a 2-shard fleet, no shedding budgets.
    pub fn smoke(seed: u64) -> FleetChaosConfig {
        FleetChaosConfig {
            seed,
            tenants: 4,
            frames_per_tenant: 8,
            payload_len: 256,
            shards: 2,
            profile: FaultProfile::lossy_4g(),
            send_timeout: Duration::from_millis(200),
            retry: RetryPolicy::fast_test(),
            max_tenant_frames: 0,
            max_fleet_bytes: 0,
            policy: OverloadPolicy::Block,
            drain_period: None,
            transport: FleetTransport::InProcess,
            auth_secret: None,
            bad_auth_clients: 0,
            oversize_clients: 0,
        }
    }

    /// The smoke shape under heavy corruption and repeated disconnects.
    pub fn hostile(seed: u64) -> FleetChaosConfig {
        FleetChaosConfig { profile: FaultProfile::hostile(), ..FleetChaosConfig::smoke(seed) }
    }

    /// One tenant on one shard with tight deadlines, for the fuzzer's
    /// wire-fault mode: arbitrary mutated schedules must complete (or give
    /// up) within the fuzz case watchdog. Pair with
    /// [`FleetChaosReport::verify_safety`]: hostile schedules may
    /// legitimately exhaust the retry budget.
    pub fn fuzz(seed: u64) -> FleetChaosConfig {
        let mut retry = RetryPolicy::fast_test();
        retry.max_retries = 6;
        FleetChaosConfig {
            tenants: 1,
            frames_per_tenant: 6,
            payload_len: 160,
            shards: 1,
            profile: FaultProfile::hostile(),
            send_timeout: Duration::from_millis(40),
            retry,
            ..FleetChaosConfig::smoke(seed)
        }
    }

    /// The smoke shape over loopback TCP with auth enforced and one of each
    /// hostile extra: a bad-auth prober and an oversize smuggler.
    pub fn tcp_smoke(seed: u64) -> FleetChaosConfig {
        FleetChaosConfig {
            transport: FleetTransport::Tcp,
            auth_secret: Some(seed ^ 0x0007_C95E_C2E7),
            bad_auth_clients: 1,
            oversize_clients: 1,
            ..FleetChaosConfig::smoke(seed)
        }
    }

    /// Tight budgets: per-tenant cap of 3 undrained frames under
    /// `DropOldest`, so load shedding runs *during* the fault storm and the
    /// `durable + shed` partition is exercised, not just satisfied trivially.
    pub fn shedding(seed: u64) -> FleetChaosConfig {
        FleetChaosConfig {
            max_tenant_frames: 3,
            policy: OverloadPolicy::DropOldest,
            frames_per_tenant: 12,
            tenants: 3,
            ..FleetChaosConfig::smoke(seed)
        }
    }

    /// Clean links (no faults): the shape used by the determinism test,
    /// where per-tenant outcomes must be identical across shard counts.
    pub fn clean(seed: u64) -> FleetChaosConfig {
        FleetChaosConfig { profile: FaultProfile::clean(), ..FleetChaosConfig::smoke(seed) }
    }

    /// The per-tenant identities and sub-seeds this config derives: session
    /// ids are index-tagged (collision-free by construction) yet hash-spread
    /// across shards.
    pub fn tenant_plan(&self) -> Vec<(u64, u64)> {
        let mut rng = SplitMix64(self.seed ^ 0xF1EE_7000_0000_0000);
        (0..self.tenants as u64)
            .map(|index| {
                let sub_seed = rng.next();
                ((index << 32) | (sub_seed & 0xFFFF_FFFF), sub_seed)
            })
            .collect()
    }

    /// The identities and sub-seeds of the oversize smugglers, disjoint
    /// from [`FleetChaosConfig::tenant_plan`] by construction.
    pub fn oversize_plan(&self) -> Vec<(u64, u64)> {
        let mut rng = SplitMix64(self.seed ^ 0x0B16_FEED);
        (0..self.oversize_clients as u64).map(|index| ((0xB5E << 48) | index, rng.next())).collect()
    }

    /// The fleet configuration this run drives: capacity covers every
    /// legitimate tenant plus the oversize smugglers (which are admitted),
    /// and the auth table — when a secret is set — covers exactly those ids,
    /// so bad-auth probes are refused without consuming a slot.
    pub fn fleet_config(&self) -> FleetConfig {
        let mut fleet = FleetConfig::new(self.tenants.max(1) + self.oversize_clients);
        fleet.shards = self.shards.max(1);
        fleet.max_tenant_frames = self.max_tenant_frames;
        fleet.max_fleet_bytes = self.max_fleet_bytes;
        fleet.policy = self.policy;
        if let Some(secret) = self.auth_secret {
            let ids = self
                .tenant_plan()
                .into_iter()
                .chain(self.oversize_plan())
                .map(|(session_id, _)| session_id);
            fleet.auth = Some(FleetAuth::with_secret(secret, ids));
        }
        fleet
    }

    /// The first tenant's derived schedule: what a one-tenant run injects
    /// unless [`run_fleet_chaos_with_schedule`] supplies one.
    pub fn schedule(&self) -> FaultSchedule {
        let (_, sub_seed) = self.tenant_plan().first().copied().unwrap_or_default();
        self.schedule_for(sub_seed)
    }

    fn schedule_for(&self, sub_seed: u64) -> FaultSchedule {
        // Faults spread over one clean transmission of the tenant's stream
        // (headers + hello slack); retransmitted bytes past that run clean.
        let stream_len = (self.frames_per_tenant * (self.payload_len + 20) + 128) as u64;
        FaultSchedule::generate(sub_seed, &self.profile, stream_len)
    }
}

/// One tenant's client-side outcome.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The tenant's session id (see [`FleetChaosConfig::tenant_plan`]).
    pub session_id: u64,
    /// The tenant's sub-seed (drives its payloads and schedule).
    pub sub_seed: u64,
    /// Session stats, or the typed error the client gave up with.
    pub client: Result<SessionStats, String>,
    /// Fault events the tenant's schedule actually applied, per kind in
    /// [`crate::fault::FaultEvent`] declaration order (bit-flip, drop,
    /// disconnect, stall, duplicate, reorder, collapse).
    pub faults_by_kind: [u64; 7],
}

impl TenantOutcome {
    /// Fault events applied, all kinds.
    pub fn faults_applied(&self) -> u64 {
        self.faults_by_kind.iter().sum()
    }
}

/// The TCP edge's connection ledger, present on `Tcp`-transport runs.
#[derive(Debug, Clone, Copy)]
pub struct ConnLedger {
    /// Sockets the edge accepted over the run.
    pub accepted: u64,
    /// Connections reaped for deadline/buffer violations.
    pub reaped: u64,
    /// Sockets still open at shutdown (must be 0).
    pub open: u64,
}

/// What one fleet-chaos run did; see [`FleetChaosReport::verify`].
#[derive(Debug)]
pub struct FleetChaosReport {
    /// The driving master seed.
    pub seed: u64,
    /// Frames each tenant attempted to deliver.
    pub frames_per_tenant: usize,
    /// Payload size the run used (needed to recheck bytes).
    pub payload_len: usize,
    /// Per-tenant client outcomes, in tenant-plan order.
    pub outcomes: Vec<TenantOutcome>,
    /// Frames handed over by mid-run drains, per session id.
    pub drained: Vec<(u64, Vec<StoredFrame>)>,
    /// The fleet's shutdown report (per-tenant durable/shed, counters).
    pub fleet: FleetReport,
    /// Transport the run used.
    pub transport: FleetTransport,
    /// Per-prober result: `Ok` iff it was refused with `REJECT_BAD_AUTH`.
    pub bad_auth_outcomes: Vec<Result<(), String>>,
    /// `(session_id, sub_seed, result)` per oversize smuggler.
    pub oversize_outcomes: Vec<(u64, u64, Result<(), String>)>,
    /// TCP edge connection counters (`None` on in-process runs).
    pub conns: Option<ConnLedger>,
}

impl FleetChaosReport {
    /// Check the exactly-once invariant; `Err` names the first violation
    /// (prefixed with the offending seed for replay).
    pub fn verify(&self) -> Result<(), String> {
        for outcome in &self.outcomes {
            let sid = outcome.session_id;
            if let Err(e) = &outcome.client {
                return Err(format!("seed {}: tenant {sid} client failed: {e}", self.seed));
            }
            let delivered = self.fleet.tenant(sid).map_or(0, |t| t.durable.len() + t.shed.len());
            if delivered != self.frames_per_tenant {
                return Err(format!(
                    "seed {}: tenant {sid} holds {delivered} of {} frames",
                    self.seed, self.frames_per_tenant
                ));
            }
        }
        if self.fleet.tenants.len() != self.outcomes.len() + self.oversize_outcomes.len() {
            return Err(format!(
                "seed {}: fleet saw {} tenants, run drove {} (+{} oversize)",
                self.seed,
                self.fleet.tenants.len(),
                self.outcomes.len(),
                self.oversize_outcomes.len()
            ));
        }
        self.verify_safety()
    }

    /// The safety subset of [`FleetChaosReport::verify`]: whatever the
    /// clients managed (one may have exhausted its retry budget against a
    /// sufficiently hostile schedule), every tenant holds an exactly-once,
    /// in-order prefix `0..k` of what it sent, with intact bytes, and the
    /// partitions hold. This is the contract the fuzzer's arbitrary mutated
    /// schedules are held to.
    pub fn verify_safety(&self) -> Result<(), String> {
        let frames = self.frames_per_tenant as u32;
        for outcome in &self.outcomes {
            let sid = outcome.session_id;
            // A tenant whose every hello was destroyed was never admitted.
            let Some(tenant) = self.fleet.tenant(sid) else { continue };
            if !tenant.durable.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "seed {}: tenant {sid} durable {:?} is not strictly in order",
                    self.seed, tenant.durable
                ));
            }
            let mut all: Vec<u32> =
                tenant.durable.iter().chain(tenant.shed.iter()).copied().collect();
            all.sort_unstable();
            if all.len() > frames as usize || all != (0..all.len() as u32).collect::<Vec<u32>>() {
                return Err(format!(
                    "seed {}: tenant {sid} durable∪shed {all:?} is not an exactly-once \
                     prefix of 0..{frames} (durable {:?}, shed {:?})",
                    self.seed, tenant.durable, tenant.shed
                ));
            }
        }
        // Every frame any tenant still holds or handed over is byte-intact.
        let resident = self.fleet.tenants.iter().map(|t| (t.session_id, &t.resident_frames));
        for (sid, frames) in resident.chain(self.drained.iter().map(|(sid, f)| (*sid, f))) {
            let sub_seed = self.sub_seed(sid).ok_or_else(|| {
                format!("seed {}: frames held for unknown tenant {sid}", self.seed)
            })?;
            let want =
                |f: &StoredFrame| chaos_payload(sub_seed, f.sequence as usize, self.payload_len);
            if let Some(frame) = frames.iter().find(|f| f.bytes != want(f)) {
                return Err(format!(
                    "seed {}: tenant {sid} frame {} bytes differ from what was sent",
                    self.seed, frame.sequence
                ));
            }
        }
        self.verify_hostiles()?;
        if self.fleet.admission_rejects != 0 {
            return Err(format!(
                "seed {}: {} admission rejects with cap == tenant count",
                self.seed, self.fleet.admission_rejects
            ));
        }
        if let Some(conns) = self.conns {
            if conns.open != 0 {
                return Err(format!(
                    "seed {}: {} TCP connections leaked at shutdown",
                    self.seed, conns.open
                ));
            }
        }
        self.fleet.verify_partition().map_err(|e| format!("seed {}: {e}", self.seed))
    }

    /// The hostile-extra contracts: every bad-auth probe was refused with
    /// the typed reject (and counted, without consuming a slot), and every
    /// oversize smuggler's two legitimate frames survived the guard
    /// byte-intact with at least one resync in between.
    fn verify_hostiles(&self) -> Result<(), String> {
        for (i, result) in self.bad_auth_outcomes.iter().enumerate() {
            if let Err(e) = result {
                return Err(format!("seed {}: bad-auth prober {i}: {e}", self.seed));
            }
        }
        if self.fleet.auth_rejects < self.bad_auth_outcomes.len() as u64 {
            return Err(format!(
                "seed {}: {} auth rejects for {} probers",
                self.seed,
                self.fleet.auth_rejects,
                self.bad_auth_outcomes.len()
            ));
        }
        for (sid, _, result) in &self.oversize_outcomes {
            if let Err(e) = result {
                return Err(format!("seed {}: oversize client {sid}: {e}", self.seed));
            }
            let tenant = self.fleet.tenant(*sid).ok_or_else(|| {
                format!("seed {}: oversize tenant {sid} missing from fleet", self.seed)
            })?;
            let mut all: Vec<u32> =
                tenant.durable.iter().chain(tenant.shed.iter()).copied().collect();
            all.sort_unstable();
            if all != vec![0, 1] {
                return Err(format!(
                    "seed {}: oversize tenant {sid} durable∪shed {all:?} != [0, 1]",
                    self.seed
                ));
            }
            if tenant.resyncs == 0 {
                return Err(format!(
                    "seed {}: oversize tenant {sid} saw no resync — the guard never fired",
                    self.seed
                ));
            }
        }
        Ok(())
    }

    /// The sub-seed whose payloads `session_id` sent (tenant or smuggler).
    fn sub_seed(&self, session_id: u64) -> Option<u64> {
        let tenants = self.outcomes.iter().map(|o| (o.session_id, o.sub_seed));
        let smugglers = self.oversize_outcomes.iter().map(|(sid, sub_seed, _)| (*sid, *sub_seed));
        tenants.chain(smugglers).find(|(sid, _)| *sid == session_id).map(|(_, sub_seed)| sub_seed)
    }

    /// One-line human summary for recovery reports.
    pub fn summary(&self) -> String {
        let durable: usize = self.fleet.tenants.iter().map(|t| t.durable.len()).sum();
        let shed: usize = self.fleet.tenants.iter().map(|t| t.shed.len()).sum();
        let faults: u64 = self.outcomes.iter().map(TenantOutcome::faults_applied).sum();
        let failed = self.outcomes.iter().filter(|o| o.client.is_err()).count();
        let conns = match self.conns {
            Some(c) => format!(", tcp conns {}/{} reaped", c.reaped, c.accepted),
            None => String::new(),
        };
        format!(
            "seed {}: {} tenants × {} frames — {durable} durable, {shed} shed, \
             {faults} faults applied, {} client failures, peak sessions {}{conns}",
            self.seed,
            self.outcomes.len(),
            self.frames_per_tenant,
            failed,
            self.fleet.sessions_peak
        )
    }
}

/// How chaos clients reach the fleet: a cloneable connection factory that
/// erases the transport, so one client body drives both.
#[derive(Clone)]
enum Edge {
    InProcess(FleetHandle),
    Tcp(SocketAddr),
}

type RawConn = (Box<dyn Write + Send>, Box<dyn Read + Send>);

impl Edge {
    fn connect_raw(&self, session_id: u64) -> io::Result<RawConn> {
        match self {
            Edge::InProcess(handle) => {
                let (tx, rx) = handle.connect(session_id)?;
                Ok((Box::new(tx), Box::new(rx)))
            }
            Edge::Tcp(addr) => {
                // The finite ack-read timeout bounds every pump thread; a
                // pump that dies quiet just looks like a lost ack, which
                // go-back-N already absorbs.
                let mut connector = TcpConnector::new(*addr)
                    .with_timeouts(Duration::from_millis(500), Some(Duration::from_secs(2)));
                let (tx, rx) = connector.connect()?;
                Ok((Box::new(tx), Box::new(rx)))
            }
        }
    }
}

/// What [`Runtime::shutdown`] folds both transports down to: the fleet
/// report, any frames the graceful TCP drain handed over, and the edge's
/// connection ledger (TCP only).
type ShutdownOutcome = (FleetReport, Vec<(u64, Vec<StoredFrame>)>, Option<ConnLedger>);

/// One fleet runtime, either transport; shutdown folds to a common shape.
enum Runtime {
    InProcess(FleetServer),
    Tcp(Box<TcpFleetServer>),
}

impl Runtime {
    fn spawn(config: &FleetChaosConfig) -> Runtime {
        match config.transport {
            FleetTransport::InProcess => {
                Runtime::InProcess(FleetServer::spawn(config.fleet_config()))
            }
            FleetTransport::Tcp => Runtime::Tcp(Box::new(
                TcpFleetServer::bind("127.0.0.1:0", config.fleet_config(), TcpTuning::fast_test())
                    .expect("bind loopback chaos fleet"),
            )),
        }
    }

    fn handle(&self) -> FleetHandle {
        match self {
            Runtime::InProcess(fleet) => fleet.handle(),
            Runtime::Tcp(server) => server.handle(),
        }
    }

    fn edge(&self) -> Edge {
        match self {
            Runtime::InProcess(fleet) => Edge::InProcess(fleet.handle()),
            Runtime::Tcp(server) => Edge::Tcp(server.local_addr()),
        }
    }

    /// Stop the fleet; returns the report, any frames the graceful TCP
    /// drain handed over, and the edge's connection ledger.
    fn shutdown(self) -> ShutdownOutcome {
        match self {
            Runtime::InProcess(fleet) => (fleet.shutdown(), Vec::new(), None),
            Runtime::Tcp(server) => {
                let report = server.shutdown();
                let ledger = ConnLedger {
                    accepted: report.conns_accepted,
                    reaped: report.conns_reaped,
                    open: report.conns_open,
                };
                (report.fleet, report.drained, Some(ledger))
            }
        }
    }
}

/// A hostile prober: wrong/unknown credentials must earn the typed reject
/// without admission side effects. Runs over a clean (unfaulted) link so
/// the observation is unambiguous.
fn run_bad_auth_prober(edge: Edge, index: usize) -> Result<(), String> {
    let session_id = (0xBAD << 40) | index as u64;
    let mut session = SessionConfig::fast_test(session_id);
    session.auth_token = Some([0xEE; 16]);
    let connector = move || edge.connect_raw(session_id);
    let mut client = ResilientClient::new(connector, session);
    match client.send_payload(vec![0u8; 8]) {
        Err(NetError::Rejected { code }) if code == REJECT_BAD_AUTH => Ok(()),
        Err(e) => Err(format!("expected REJECT_BAD_AUTH, got error {e}")),
        Ok(_) => Err("expected REJECT_BAD_AUTH, but the frame was accepted".into()),
    }
}

/// A raw-wire smuggler: authenticate properly, deliver frame 0, then a
/// forged header claiming a payload past the fleet's guard, junk, and
/// frame 1. Success = the server acks both real frames (`next_expected`
/// reaches 2), proving the guard skipped the forgery without corrupting
/// the stream.
fn run_oversize_client(
    edge: Edge,
    session_id: u64,
    sub_seed: u64,
    payload_len: usize,
    token: Option<crate::protocol::AuthToken>,
    max_payload: u64,
) -> Result<(), String> {
    let (mut tx, rx) = edge.connect_raw(session_id).map_err(|e| e.to_string())?;
    let hello = match token {
        Some(token) => Control::HelloAuth { session_id, last_acked: 0, token },
        None => Control::Hello { session_id, last_acked: 0 },
    };
    let send = |tx: &mut Box<dyn Write + Send>, frame: &WireFrame| {
        write_frame(tx, frame).map_err(|e| format!("oversize write: {e}"))
    };
    send(&mut tx, &hello.to_frame())?;
    send(&mut tx, &WireFrame { sequence: 0, payload: chaos_payload(sub_seed, 0, payload_len) })?;
    // Forge the oversize header by patching a real one's length field
    // (magic 4 | seq 4 | len 8 | crc 4): no payload follows — the guard
    // must skip and resynchronize on frame 1's magic.
    let mut forged = Vec::new();
    write_frame(&mut forged, &WireFrame { sequence: 1, payload: Vec::new() })
        .map_err(|e| format!("oversize forge: {e}"))?;
    forged[8..16].copy_from_slice(&(max_payload + 1).to_le_bytes());
    tx.write_all(&forged).map_err(|e| format!("oversize forged write: {e}"))?;
    tx.write_all(&[0x5A; 32]).map_err(|e| format!("oversize junk write: {e}"))?;
    send(&mut tx, &WireFrame { sequence: 1, payload: chaos_payload(sub_seed, 1, payload_len) })?;
    let mut reader = FrameReader::new(rx);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match reader.next_frame() {
            Ok((frame, _)) => match Control::from_frame(&frame) {
                Some(Control::Ack { next_expected, .. }) if next_expected >= 2 => return Ok(()),
                Some(Control::Reject { code, .. }) => {
                    return Err(format!("oversize client rejected with code {code}"));
                }
                _ => {}
            },
            Err(NetError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() > deadline {
                    return Err("oversize client: no covering ack before deadline".into());
                }
            }
            Err(e) => return Err(format!("oversize ack stream: {e}")),
        }
    }
}

/// Drive one full fleet-chaos run: spawn the fleet, storm it with every
/// tenant concurrently, settle, shut down, and report.
pub fn run_fleet_chaos(config: &FleetChaosConfig) -> FleetChaosReport {
    run(config, None)
}

/// [`run_fleet_chaos`] for a one-tenant `config`, with `schedule` injected
/// on the tenant's link in place of the derived one. Never panics on any
/// schedule (hostile ones are clamped by the fault layer's budgets); panics
/// if `config.tenants != 1`.
pub fn run_fleet_chaos_with_schedule(
    config: &FleetChaosConfig,
    schedule: FaultSchedule,
) -> FleetChaosReport {
    assert_eq!(config.tenants, 1, "an explicit schedule drives a one-tenant config");
    run(config, Some(schedule))
}

fn run(config: &FleetChaosConfig, mut schedule: Option<FaultSchedule>) -> FleetChaosReport {
    assert!(
        config.bad_auth_clients == 0 || config.auth_secret.is_some(),
        "bad_auth_clients without auth_secret would be admitted as normal tenants"
    );
    let runtime = Runtime::spawn(config);
    let handle = runtime.handle();
    let edge = runtime.edge();

    // Optional archival cadence: keeps Block-policy tenants flowing and
    // exercises the drain hand-off under fire.
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = config.drain_period.map(|period| {
        let handle = handle.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut drained: Vec<(u64, Vec<StoredFrame>)> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                merge_drained(&mut drained, handle.drain());
                std::thread::sleep(period);
            }
            merge_drained(&mut drained, handle.drain());
            drained
        })
    });

    let clients: Vec<_> = config
        .tenant_plan()
        .into_iter()
        .map(|(session_id, sub_seed)| {
            let edge = edge.clone();
            let state =
                schedule.take().unwrap_or_else(|| config.schedule_for(sub_seed)).into_state();
            let frames = config.frames_per_tenant;
            let payload_len = config.payload_len;
            let mut session = SessionConfig::fast_test(session_id);
            session.send_timeout = config.send_timeout;
            session.retry = config.retry;
            session.seed = sub_seed;
            session.auth_token =
                config.auth_secret.map(|secret| FleetAuth::derive_token(secret, session_id));
            std::thread::spawn(move || {
                let link_state = Arc::clone(&state);
                let connector = move || -> io::Result<(FaultyLink<Box<dyn Write + Send>>, _)> {
                    let (tx, rx) = edge.connect_raw(session_id)?;
                    Ok((FaultyLink::new(tx, Arc::clone(&link_state)), rx))
                };
                let mut client = ResilientClient::new(connector, session);
                let mut result: Result<SessionStats, NetError> = Ok(SessionStats::default());
                for index in 0..frames {
                    let payload = chaos_payload(sub_seed, index, payload_len);
                    if let Err(e) = client.send_payload(payload) {
                        result = Err(e);
                        break;
                    }
                }
                if result.is_ok() {
                    result = client.finish();
                } else {
                    drop(client);
                }
                let faults_by_kind = state.lock().expect("fault state").applied_by_kind();
                TenantOutcome {
                    session_id,
                    sub_seed,
                    client: result.map_err(|e| e.to_string()),
                    faults_by_kind,
                }
            })
        })
        .collect();

    // Hostile extras run concurrently with the storm: auth probes and
    // oversize smuggling must not disturb the legitimate tenants.
    let probers: Vec<_> = (0..config.bad_auth_clients)
        .map(|index| {
            let edge = edge.clone();
            std::thread::spawn(move || run_bad_auth_prober(edge, index))
        })
        .collect();
    let max_payload = handle.config().max_payload;
    let smugglers: Vec<_> = config
        .oversize_plan()
        .into_iter()
        .map(|(session_id, sub_seed)| {
            let edge = edge.clone();
            let payload_len = config.payload_len;
            let token =
                config.auth_secret.map(|secret| FleetAuth::derive_token(secret, session_id));
            std::thread::spawn(move || {
                let result = run_oversize_client(
                    edge,
                    session_id,
                    sub_seed,
                    payload_len,
                    token,
                    max_payload,
                );
                (session_id, sub_seed, result)
            })
        })
        .collect();

    let mut outcomes: Vec<TenantOutcome> =
        clients.into_iter().map(|t| t.join().expect("fleet-chaos client thread")).collect();
    outcomes.sort_by_key(|o| o.session_id);
    let bad_auth_outcomes: Vec<Result<(), String>> =
        probers.into_iter().map(|t| t.join().expect("bad-auth prober thread")).collect();
    let oversize_outcomes: Vec<(u64, u64, Result<(), String>)> =
        smugglers.into_iter().map(|t| t.join().expect("oversize client thread")).collect();

    stop.store(true, Ordering::Relaxed);
    let mut drained = match drainer {
        Some(t) => t.join().expect("fleet-chaos drainer thread"),
        None => Vec::new(),
    };

    let (fleet, shutdown_drained, conns) = runtime.shutdown();
    merge_drained(&mut drained, shutdown_drained);

    FleetChaosReport {
        seed: config.seed,
        frames_per_tenant: config.frames_per_tenant,
        payload_len: config.payload_len,
        outcomes,
        drained,
        fleet,
        transport: config.transport,
        bad_auth_outcomes,
        oversize_outcomes,
        conns,
    }
}

/// Fold a drain batch into the accumulated per-tenant frame lists.
fn merge_drained(into: &mut Vec<(u64, Vec<StoredFrame>)>, batch: Vec<(u64, Vec<StoredFrame>)>) {
    for (sid, mut frames) in batch {
        if frames.is_empty() {
            continue;
        }
        match into.iter_mut().find(|(s, _)| *s == sid) {
            Some((_, existing)) => existing.append(&mut frames),
            None => into.push((sid, frames)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;

    fn one_tenant(seed: u64) -> FleetChaosConfig {
        FleetChaosConfig { tenants: 1, ..FleetChaosConfig::smoke(seed) }
    }

    #[test]
    fn clean_schedule_delivers_everything_first_try() {
        let report = run_fleet_chaos_with_schedule(&one_tenant(1), FaultSchedule::empty());
        report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        let outcome = &report.outcomes[0];
        assert_eq!(outcome.faults_applied(), 0);
        assert_eq!(report.fleet.tenants[0].resyncs, 0);
        let stats = outcome.client.as_ref().unwrap();
        assert_eq!(stats.reconnects, 0);
        assert_eq!(stats.retransmits, 0);
    }

    #[test]
    fn lossy_schedule_recovers_every_frame() {
        // Seed 3 applies a representative mix of faults; recovery must be
        // total. (The sweeps live in tests/chaos.rs and tests/fleet_chaos.rs.)
        let report = run_fleet_chaos(&one_tenant(3));
        report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        assert!(report.outcomes[0].faults_applied() > 0, "schedule was not a no-op");
    }

    #[test]
    fn safety_holds_when_the_client_runs_out_of_retries() {
        // Three frames get through, then every connection is cut: the client
        // gives up, so `verify` fails, but what the tenant holds must still
        // be an intact, exactly-once prefix.
        let config = FleetChaosConfig::fuzz(5);
        let cut_from = (20 + 13 + 3 * (20 + config.payload_len)) as u64;
        let cuts = (0..400).map(|k| FaultEvent::Disconnect { at: cut_from + 8 * k }).collect();
        let report = run_fleet_chaos_with_schedule(&config, FaultSchedule::from_events(cuts));
        assert!(report.outcomes[0].client.is_err(), "{}", report.summary());
        assert!(report.verify().is_err());
        report.verify_safety().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        let durable = &report.fleet.tenants[0].durable;
        assert!(!durable.is_empty() && durable.len() < config.frames_per_tenant, "{durable:?}");
    }

    #[test]
    fn payload_generator_is_deterministic_and_distinct() {
        assert_eq!(chaos_payload(5, 2, 100), chaos_payload(5, 2, 100));
        assert_ne!(chaos_payload(5, 2, 100), chaos_payload(5, 3, 100));
        assert_ne!(chaos_payload(6, 2, 100), chaos_payload(5, 2, 100));
        assert_eq!(chaos_payload(1, 0, 0).len(), 4, "sequence prefix always present");
    }

    #[test]
    fn clean_fleet_delivers_every_tenant() {
        let report = run_fleet_chaos(&FleetChaosConfig::clean(7));
        report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        assert_eq!(report.fleet.shed_frames, 0);
        for outcome in &report.outcomes {
            let stats = outcome.client.as_ref().unwrap();
            assert_eq!(stats.reconnects, 0, "clean links never reconnect");
        }
    }

    #[test]
    fn lossy_fleet_recovers_every_tenant() {
        let report = run_fleet_chaos(&FleetChaosConfig::smoke(11));
        report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        assert!(
            report.outcomes.iter().map(TenantOutcome::faults_applied).sum::<u64>() > 0,
            "schedules were not a no-op"
        );
    }

    #[test]
    fn shedding_fleet_keeps_the_partition() {
        let report = run_fleet_chaos(&FleetChaosConfig::shedding(13));
        report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        assert!(report.fleet.shed_frames > 0, "tight budgets must shed");
    }

    #[test]
    fn tcp_fleet_recovers_with_auth_and_hostiles() {
        let report = run_fleet_chaos(&FleetChaosConfig::tcp_smoke(23));
        report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        let conns = report.conns.expect("tcp runs carry a connection ledger");
        assert_eq!(conns.open, 0, "no leaked sockets");
        assert!(conns.accepted >= 6, "4 tenants + prober + smuggler at minimum");
        assert!(report.fleet.auth_rejects >= 1, "the prober was refused");
    }

    #[test]
    fn in_process_hostiles_hold_the_same_contract() {
        let mut config = FleetChaosConfig::smoke(29);
        config.auth_secret = Some(0xDEED);
        config.bad_auth_clients = 2;
        config.oversize_clients = 1;
        let report = run_fleet_chaos(&config);
        report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        assert!(report.conns.is_none());
        assert_eq!(report.fleet.tenants.len(), config.tenants + 1);
    }

    #[test]
    fn drain_cadence_hands_frames_over_mid_run() {
        let mut config = FleetChaosConfig::clean(17);
        config.drain_period = Some(Duration::from_millis(2));
        let report = run_fleet_chaos(&config);
        report.verify().unwrap_or_else(|e| panic!("{e}\n{}", report.summary()));
        let drained: usize = report.drained.iter().map(|(_, f)| f.len()).sum();
        assert!(drained > 0, "the drainer ran while clients were live");
    }
}
