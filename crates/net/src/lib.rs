//! Sensor-to-server transport for online LiDAR compression (paper §3.1, §4.4).
//!
//! The DBGC system acquires point clouds at the sensor host, compresses them,
//! and ships the bitstreams over a constrained mobile uplink to a server that
//! decompresses and stores them. This crate provides:
//!
//! * [`protocol`] — length-prefixed frame protocol over any `Read`/`Write`,
//!   including the stateful [`protocol::FrameReader`] resynchronizer and
//!   wire-v3 session control frames;
//! * [`link`] — a bandwidth model ([`link::LinkModel`]) for computing
//!   transfer times (4G uplink ≈ 8.2 Mbps, paper §4.4) and a throttled
//!   in-memory pipe for live simulation;
//! * [`fault`] — deterministic, seed-replayable fault injection
//!   ([`fault::FaultyLink`]) for chaos testing the whole stack;
//! * [`retry`] — typed retry policies with exponential backoff and jitter;
//! * [`session`] — the resilient sensor-side client: acked delivery,
//!   reconnect, retransmission from a bounded in-flight window;
//! * [`server`] — the per-tenant session state machine (dedup, gap
//!   detection, acks, optional decompression) and the [`StoredFrame`] it
//!   hands to the archive;
//! * [`pipeline`] — a frame-ordered worker pool so compression keeps up with
//!   a 10 fps sensor (§4.4's online-processing claim), with bounded queues
//!   and overload policies (block / drop-oldest / degrade);
//! * [`fleet`] — the server: sans-IO sharded event loops, CAS-gated
//!   admission, per-tenant auth tokens, fleet budgets; a one-tenant fleet is
//!   the single-sensor server;
//! * [`tcp`] — the hardened real-socket edge in front of the fleet:
//!   thread-per-shard nonblocking readers, hello/idle deadlines, bounded
//!   buffers, connection reaping, and graceful drain;
//! * [`fleet_chaos`] — the seeded chaos harness used by tests, the fuzzer's
//!   wire-fault mode, and CI smoke jobs.

#![warn(missing_docs)]

pub mod fault;
pub mod fleet;
pub mod fleet_chaos;
pub mod link;
pub mod pipeline;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod session;
pub mod tcp;

pub use fault::{FaultEvent, FaultProfile, FaultSchedule, FaultyLink};
pub use fleet::{FleetAuth, FleetConfig, FleetHandle, FleetReport, FleetServer, TenantReport};
pub use fleet_chaos::{
    run_fleet_chaos, run_fleet_chaos_with_schedule, FleetChaosConfig, FleetChaosReport,
};
pub use link::LinkModel;
pub use pipeline::{OverloadPolicy, PipelinedCompressor};
pub use protocol::{
    auth_token_eq, frame_checksum, write_frame, AuthToken, Control, FrameReader, NetError,
    WireFrame, AUTH_TOKEN_LEN, DEFAULT_MAX_PAYLOAD, REJECT_BAD_AUTH, REJECT_FLEET_FULL,
    REJECT_WRONG_SHARD,
};
pub use retry::{Backoff, RetryPolicy};
pub use server::StoredFrame;
pub use session::{ResilientClient, SessionConfig, SessionStats};
pub use tcp::{
    accept_with_deadline, connect_with_deadline, TcpConnector, TcpFleetReport, TcpFleetServer,
    TcpTuning,
};
