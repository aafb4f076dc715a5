//! The resilient client session: acked delivery over unreliable transports.
//!
//! A bare frame writer is fine on a clean pipe and silently lossy on a real
//! mobile uplink. [`ResilientClient`] layers wire-v3 session semantics on top
//! of any reconnectable transport:
//!
//! * every connection opens with a [`Control::Hello`] carrying the session id
//!   and the client's acked floor, so the server can deduplicate replays and
//!   detect gaps across reconnects;
//! * the server acknowledges progress with [`Control::Ack`]; unacknowledged
//!   frames stay in a bounded in-flight window and are retransmitted
//!   go-back-N style after a reconnect;
//! * failures (send errors, ack stalls past `send_timeout`) trigger
//!   reconnection under a typed [`RetryPolicy`] with exponential backoff and
//!   seeded jitter — every timing decision replays from the seed.
//!
//! The ack stream is drained on a per-connection pump thread so a stalled
//! server can never deadlock the sender.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::Duration;

use crate::protocol::{write_frame, AuthToken, Control, FrameReader, NetError, WireFrame};
use crate::retry::{Backoff, RetryPolicy};

/// Optional metrics sink (always `None` with the `metrics` feature off).
#[cfg(feature = "metrics")]
type MetricsSink = Option<dbgc_metrics::Collector>;
#[cfg(not(feature = "metrics"))]
type MetricsSink = Option<std::convert::Infallible>;

/// Something that can (re)establish a connection to the server: a write half
/// for data frames and a read half for acknowledgements.
///
/// Implemented for any `FnMut() -> io::Result<(Tx, Rx)>` closure, so tests
/// and the chaos harness can hand out fresh fault-injected pipe pairs.
pub trait Connect {
    /// Write half (client → server data frames).
    type Tx: Write;
    /// Read half (server → client acks); pumped on a helper thread.
    type Rx: Read + Send + 'static;
    /// Attempt one connection.
    fn connect(&mut self) -> std::io::Result<(Self::Tx, Self::Rx)>;
}

impl<Tx, Rx, F> Connect for F
where
    Tx: Write,
    Rx: Read + Send + 'static,
    F: FnMut() -> std::io::Result<(Tx, Rx)>,
{
    type Tx = Tx;
    type Rx = Rx;
    fn connect(&mut self) -> std::io::Result<(Tx, Rx)> {
        self()
    }
}

/// Tuning for a [`ResilientClient`] session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Session identity carried in every hello; lets the server tie
    /// reconnects back to the same dedup state.
    pub session_id: u64,
    /// Maximum unacknowledged frames in flight before sends block on acks.
    pub window: usize,
    /// How long to wait for ack progress before declaring the connection
    /// stalled and reconnecting.
    pub send_timeout: Duration,
    /// Retry/backoff policy for connects and stall recoveries.
    pub retry: RetryPolicy,
    /// Seed for backoff jitter; replays produce identical timing.
    pub seed: u64,
    /// Auth token sent on every hello (as [`Control::HelloAuth`]). `None`
    /// sends plain hellos; required when the fleet carries an auth table.
    pub auth_token: Option<AuthToken>,
}

impl SessionConfig {
    /// Production-flavoured defaults for `session_id`: window 32, 2 s send
    /// timeout, [`RetryPolicy::mobile_uplink`].
    pub fn new(session_id: u64) -> SessionConfig {
        SessionConfig {
            session_id,
            window: 32,
            send_timeout: Duration::from_secs(2),
            retry: RetryPolicy::mobile_uplink(),
            seed: session_id,
            auth_token: None,
        }
    }

    /// Millisecond-scale timeouts for tests and chaos sweeps.
    pub fn fast_test(session_id: u64) -> SessionConfig {
        SessionConfig {
            session_id,
            window: 8,
            send_timeout: Duration::from_millis(400),
            retry: RetryPolicy::fast_test(),
            seed: session_id,
            auth_token: None,
        }
    }
}

/// Counters describing what a session endured; see also the `net.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Data frames handed to [`ResilientClient::send_payload`].
    pub frames_sent: u64,
    /// Frames rewritten after a reconnect (go-back-N replays).
    pub retransmits: u64,
    /// Successful connections after the first.
    pub reconnects: u64,
    /// Connection attempts, successful or not.
    pub connect_attempts: u64,
    /// Acknowledgements applied.
    pub acks_received: u64,
    /// Ack waits that hit `send_timeout`.
    pub timeouts: u64,
    /// Failed operations that consumed retry budget.
    pub retries: u64,
}

/// A client session that survives a faulty transport; see the module docs.
pub struct ResilientClient<C: Connect> {
    connector: C,
    config: SessionConfig,
    backoff: Backoff,
    tx: Option<C::Tx>,
    acks: Option<Receiver<Control>>,
    /// Sent-but-unacked frames, oldest first (the go-back-N window).
    unacked: VecDeque<(u32, Vec<u8>)>,
    next_sequence: u32,
    /// Server-confirmed floor: everything below is stored server-side.
    acked_floor: u32,
    ever_connected: bool,
    stats: SessionStats,
    #[cfg_attr(not(feature = "metrics"), allow(dead_code))]
    metrics: MetricsSink,
}

impl<C: Connect> ResilientClient<C> {
    /// A new session; no connection is attempted until the first send.
    pub fn new(connector: C, config: SessionConfig) -> ResilientClient<C> {
        let backoff = Backoff::new(config.retry, config.seed);
        ResilientClient {
            connector,
            config,
            backoff,
            tx: None,
            acks: None,
            unacked: VecDeque::new(),
            next_sequence: 0,
            acked_floor: 0,
            ever_connected: false,
            stats: SessionStats::default(),
            metrics: None,
        }
    }

    /// Mirror session counters (`net.retries`, `net.reconnects`,
    /// `net.retransmits`, `net.timeouts`, `net.acks_applied`,
    /// `net.frames_sent`, `net.bytes_sent`) into `collector`.
    #[cfg(feature = "metrics")]
    pub fn with_metrics(mut self, collector: &dbgc_metrics::Collector) -> ResilientClient<C> {
        self.metrics = Some(collector.clone());
        self
    }

    fn incr(&self, _name: &str, _n: u64) {
        #[cfg(feature = "metrics")]
        if let Some(c) = &self.metrics {
            c.incr(_name, _n);
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Frames currently in flight (sent, not yet acknowledged).
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Spawn the ack pump for a fresh read half: parses control frames off
    /// the wire and forwards acks over an unbounded channel, so the sender
    /// never blocks on a slow ack path.
    fn spawn_pump(rx: C::Rx) -> Receiver<Control> {
        let (tx, out) = channel();
        std::thread::Builder::new()
            .name("dbgc-net-ack-pump".into())
            .spawn(move || {
                let mut reader = FrameReader::new(rx);
                while let Ok((frame, _)) = reader.next_frame() {
                    if let Some(control) = Control::from_frame(&frame) {
                        if tx.send(control).is_err() {
                            return; // session dropped this connection
                        }
                    }
                }
            })
            .expect("spawn ack pump");
        out
    }

    /// Apply one ack: advance the floor, drop covered frames from the
    /// window. Returns `true` if the floor moved.
    fn apply_ack(&mut self, control: Control) -> bool {
        let Control::Ack { session_id, next_expected } = control else { return false };
        if session_id != self.config.session_id {
            return false;
        }
        self.stats.acks_received += 1;
        self.incr("net.acks_applied", 1);
        let before = self.unacked.len();
        while self.unacked.front().is_some_and(|(seq, _)| *seq < next_expected) {
            self.unacked.pop_front();
        }
        if next_expected > self.acked_floor {
            self.acked_floor = next_expected;
        }
        self.unacked.len() != before
    }

    /// Drain any acks that already arrived, without blocking.
    fn drain_acks(&mut self) {
        loop {
            let Some(acks) = &self.acks else { return };
            match acks.try_recv() {
                Ok(control) => {
                    self.apply_ack(control);
                }
                Err(_) => return,
            }
        }
    }

    /// Tear down the current connection (the pump thread notices the
    /// channel die and exits once its read half fails).
    fn disconnect(&mut self) {
        self.tx = None;
        self.acks = None;
    }

    /// One connection attempt: connect, hello, wait for the handshake ack,
    /// retransmit everything still unacked.
    fn try_connect(&mut self) -> Result<(), NetError> {
        let (mut tx, rx) = self.connector.connect()?;
        let acks = Self::spawn_pump(rx);
        let hello = match self.config.auth_token {
            Some(token) => Control::HelloAuth {
                session_id: self.config.session_id,
                last_acked: self.acked_floor,
                token,
            },
            None => {
                Control::Hello { session_id: self.config.session_id, last_acked: self.acked_floor }
            }
        };
        write_frame(&mut tx, &hello.to_frame())?;
        // Handshake: the server answers every hello with its cursor.
        let deadline_err = || NetError::Timeout;
        let control = acks.recv_timeout(self.config.send_timeout).map_err(|_| deadline_err())?;
        if let Control::Reject { session_id, code } = control {
            if session_id == self.config.session_id {
                // The server refused the session outright (fleet admission).
                // Terminal: reconnecting would only be rejected again.
                return Err(NetError::Rejected { code });
            }
        }
        self.tx = Some(tx);
        self.acks = Some(acks);
        self.apply_ack(control);
        if self.ever_connected {
            self.stats.reconnects += 1;
            self.incr("net.reconnects", 1);
        }
        self.ever_connected = true;
        // Go-back-N: replay the window the server hasn't confirmed.
        let replay: Vec<(u32, Vec<u8>)> = self.unacked.iter().cloned().collect();
        if !replay.is_empty() {
            self.stats.retransmits += replay.len() as u64;
            self.incr("net.retransmits", replay.len() as u64);
        }
        for (sequence, payload) in replay {
            let tx = self.tx.as_mut().expect("just connected");
            write_frame(tx, &WireFrame { sequence, payload })?;
        }
        Ok(())
    }

    /// Ensure a live connection, consuming retry budget on failures.
    fn ensure_connected(&mut self) -> Result<(), NetError> {
        while self.tx.is_none() {
            self.stats.connect_attempts += 1;
            match self.try_connect() {
                Ok(()) => {
                    self.backoff.reset();
                    return Ok(());
                }
                Err(e @ NetError::Rejected { .. }) => {
                    // A typed refusal is final — surface it without burning
                    // the retry budget or hammering a full fleet.
                    self.disconnect();
                    return Err(e);
                }
                Err(e) => {
                    self.disconnect();
                    self.stats.retries += 1;
                    self.incr("net.retries", 1);
                    if !self.backoff.wait() {
                        return Err(NetError::RetriesExhausted {
                            attempts: self.backoff.attempts(),
                            last_error: e.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Block until an ack arrives or `send_timeout` passes; a timeout or a
    /// dead pump kills the connection so the caller reconnects.
    fn wait_for_ack(&mut self) -> Result<(), NetError> {
        let Some(acks) = &self.acks else {
            return Ok(()); // not connected; caller reconnects
        };
        match acks.recv_timeout(self.config.send_timeout) {
            Ok(Control::Reject { session_id, code }) if session_id == self.config.session_id => {
                // Mid-session refusal (e.g. evicted by the fleet operator):
                // terminal for the same reason as at the handshake.
                self.disconnect();
                Err(NetError::Rejected { code })
            }
            Ok(control) => {
                self.apply_ack(control);
                Ok(())
            }
            Err(RecvTimeoutError::Timeout) => {
                self.stats.timeouts += 1;
                self.incr("net.timeouts", 1);
                self.disconnect();
                Ok(())
            }
            Err(RecvTimeoutError::Disconnected) => {
                self.disconnect();
                Ok(())
            }
        }
    }

    /// Send one compressed frame, returning its sequence number.
    ///
    /// Blocks while the in-flight window is full, reconnecting and
    /// retransmitting as needed; fails only with
    /// [`NetError::RetriesExhausted`] once the backoff budget is spent
    /// without progress.
    pub fn send_payload(&mut self, payload: Vec<u8>) -> Result<u32, NetError> {
        let sequence = self.next_sequence;
        self.next_sequence = self.next_sequence.wrapping_add(1);
        self.incr("net.frames_sent", 1);
        self.incr("net.bytes_sent", payload.len() as u64);
        self.stats.frames_sent += 1;
        // Connect before queueing: a reconnect replays `unacked`, and this
        // frame gets its first transmission below, not via that replay.
        self.ensure_connected()?;
        self.unacked.push_back((sequence, payload.clone()));
        if let Some(tx) = self.tx.as_mut() {
            if write_frame(tx, &WireFrame { sequence, payload }).is_err() {
                self.disconnect(); // reconnect below retransmits it
            }
        }
        self.drain_acks();
        // Window admission: wait for acks until there is room again.
        while self.unacked.len() > self.config.window {
            self.ensure_connected()?;
            let floor = self.acked_floor;
            self.wait_for_ack()?;
            if self.acked_floor > floor {
                self.backoff.reset();
            } else {
                // No progress: the server may be re-acking an old floor
                // because a frame was destroyed on the wire (it can only
                // arrive again via go-back-N). Force a reconnect-and-replay.
                self.stats.retries += 1;
                self.incr("net.retries", 1);
                if !self.backoff.wait() {
                    return Err(NetError::RetriesExhausted {
                        attempts: self.backoff.attempts(),
                        last_error: "no ack progress with a full window".into(),
                    });
                }
                self.disconnect();
            }
        }
        Ok(sequence)
    }

    /// Drive the session until every sent frame is acknowledged, then close
    /// the connection. Returns the final stats.
    pub fn finish(mut self) -> Result<SessionStats, NetError> {
        while !self.unacked.is_empty() {
            self.ensure_connected()?;
            let floor = self.acked_floor;
            self.drain_acks();
            if self.unacked.is_empty() {
                break;
            }
            self.wait_for_ack()?;
            if self.acked_floor > floor {
                self.backoff.reset();
            } else if self.tx.is_some() {
                // Connected but no progress within the deadline.
                self.stats.retries += 1;
                self.incr("net.retries", 1);
                if !self.backoff.wait() {
                    return Err(NetError::RetriesExhausted {
                        attempts: self.backoff.attempts(),
                        last_error: "undelivered frames at session close".into(),
                    });
                }
                self.disconnect();
            }
        }
        self.disconnect();
        Ok(self.stats)
    }
}

impl<C: Connect> std::fmt::Debug for ResilientClient<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("session_id", &self.config.session_id)
            .field("next_sequence", &self.next_sequence)
            .field("acked_floor", &self.acked_floor)
            .field("in_flight", &self.unacked.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, FleetServer, TenantReport};

    /// Send `frames` payloads through `client` into its one-tenant `fleet`,
    /// then shut down; returns the client's stats and the tenant report.
    fn deliver<C: Connect>(
        fleet: FleetServer,
        mut client: ResilientClient<C>,
        frames: u8,
    ) -> (SessionStats, TenantReport) {
        for i in 0..frames {
            client.send_payload(vec![i; 50]).unwrap();
        }
        let stats = client.finish().unwrap();
        let mut report = fleet.shutdown();
        report.verify_partition().unwrap();
        (stats, report.tenants.remove(0))
    }

    #[test]
    fn clean_session_delivers_in_order_with_acks() {
        let fleet = FleetServer::spawn(FleetConfig::new(1));
        let h = fleet.handle();
        let client = ResilientClient::new(move || h.connect(42), SessionConfig::fast_test(42));
        let (stats, tenant) = deliver(fleet, client, 20);
        assert_eq!(stats.frames_sent, 20);
        assert_eq!(stats.reconnects, 0);
        assert_eq!(stats.retransmits, 0);
        assert!(stats.acks_received >= 1);
        assert_eq!(tenant.durable, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn dead_first_connection_is_retried() {
        let fleet = FleetServer::spawn(FleetConfig::new(1));
        let h = fleet.handle();
        let mut fail_budget = 2;
        let connector = move || {
            if fail_budget > 0 {
                fail_budget -= 1;
                return Err(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "injected"));
            }
            h.connect(7)
        };
        let client = ResilientClient::new(connector, SessionConfig::fast_test(7));
        let (stats, tenant) = deliver(fleet, client, 1);
        assert_eq!(tenant.durable, vec![0]);
        assert!(stats.retries >= 2, "both refused connects consumed budget: {stats:?}");
    }

    #[test]
    fn retries_exhausted_is_typed() {
        let connector = || -> std::io::Result<(Vec<u8>, std::io::Empty)> {
            Err(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "always down"))
        };
        let mut config = SessionConfig::fast_test(1);
        config.retry.max_retries = 3;
        let mut client = ResilientClient::new(connector, config);
        let err = client.send_payload(vec![0]).unwrap_err();
        match err {
            NetError::RetriesExhausted { attempts, last_error } => {
                assert_eq!(attempts, 3);
                assert!(last_error.contains("always down"), "{last_error}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn mid_session_disconnect_retransmits_unacked_window() {
        // Connection 1 acks the hello, then swallows every frame and hangs
        // up, so the client must notice, reconnect to the fleet, and replay.
        let fleet = FleetServer::spawn(FleetConfig::new(1));
        let h = fleet.handle();
        let mut first = true;
        let connector = move || -> std::io::Result<(Box<dyn Write>, Box<dyn Read + Send>)> {
            if std::mem::take(&mut first) {
                let mut ack = Vec::new();
                write_frame(&mut ack, &Control::Ack { session_id: 9, next_expected: 0 }.to_frame())
                    .expect("in-memory write");
                return Ok((Box::new(std::io::sink()), Box::new(std::io::Cursor::new(ack))));
            }
            let (tx, rx) = h.connect(9)?;
            Ok((Box::new(tx), Box::new(rx)))
        };
        let client = ResilientClient::new(connector, SessionConfig::fast_test(9));
        let (stats, tenant) = deliver(fleet, client, 5);
        assert_eq!(tenant.durable, vec![0, 1, 2, 3, 4], "all frames stored exactly once, in order");
        assert!(stats.reconnects >= 1, "{stats:?}");
        assert_eq!(stats.retransmits, 5, "the whole lost window is replayed: {stats:?}");
    }
}
