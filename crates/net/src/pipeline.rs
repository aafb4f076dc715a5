//! Pipelined compression: keep up with the sensor by compressing frames on
//! worker threads while earlier frames are still in flight.
//!
//! A Velodyne HDL-64E produces 10 frames/s; single-threaded DBGC compression
//! takes ~0.1-0.15 s per frame at 2 cm, which leaves little headroom (and at
//! finer bounds falls behind). [`PipelinedCompressor`] fans frames out to a
//! small worker pool and yields results in submission order, so the paper's
//! "online compression" claim (§4.4) holds with a realistic number of cores.
//!
//! ## Two-level parallelism
//!
//! Unless the config asks for `threads = 1`, each worker's `compress` call
//! also parallelizes *within* the frame — spherical conversion, per-group
//! ORG+SPA, clustering — over the process-wide `dbgc-parallel` pool. Frame
//! workers and intra-frame helpers share that single pool: a scoped run's
//! initiating thread participates in its own work and never blocks on busy
//! pool workers, so stacking the two levels cannot deadlock or oversubscribe
//! the machine with per-frame thread spawns. Frame-level workers hide
//! latency; intra-frame helpers cut per-frame latency; both draw from the
//! same fixed set of OS threads. Compression output is byte-identical
//! whatever the thread placement (see `Dbgc::compress`).
//!
//! ## Backpressure and graceful degradation
//!
//! The submission queue is *bounded* ([`PipelinedCompressor::with_queue_capacity`]);
//! what happens when a burst outruns the workers is the [`OverloadPolicy`]:
//!
//! * [`OverloadPolicy::Block`] (default) — `submit` blocks until a worker
//!   frees a slot. Latency grows, nothing is lost; exactly the old unbounded
//!   behaviour whenever the queue never fills.
//! * [`OverloadPolicy::DropOldest`] — the oldest *queued* (not yet started)
//!   frame is discarded to admit the new one; sensible for live streams
//!   where a fresher frame beats a stale one. Drops surface as
//!   [`PipelineEvent::Dropped`] and in [`PipelinedCompressor::overload_dropped`].
//! * [`OverloadPolicy::Degrade`] — under sustained pressure the compressor
//!   coarsens the error bound `q_xyz` one notch (×2) at a time, making each
//!   frame cheaper and smaller until the queue drains, then restores it.
//!   The level active at submission is recorded per frame in
//!   [`PipelineEvent::Frame`]. `submit` still blocks at the bound, but the
//!   degraded frames clear it quickly — bounded latency at reduced fidelity
//!   instead of unbounded latency at full fidelity.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use dbgc::{CompressedFrame, Dbgc, DbgcError};
use dbgc_geom::PointCloud;
use dbgc_metrics::Collector;

/// What `submit` does when the bounded queue is full; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block the submitter until a slot frees (lossless, unbounded latency).
    #[default]
    Block,
    /// Discard the oldest still-queued frame to admit the new one.
    DropOldest,
    /// Coarsen `q_xyz` one notch (×2) under sustained pressure; restore on
    /// recovery.
    Degrade,
}

/// Consecutive pressured (resp. relieved) submissions before the degrade
/// level moves. Hysteresis: a single burst or a single idle gap does not
/// flap the quantization.
const DEGRADE_SUSTAIN: u32 = 3;
/// Maximum degrade notches: `q_xyz` is never coarsened beyond ×2⁴.
const MAX_DEGRADE_LEVEL: u8 = 4;

/// One in-order pipeline outcome (the detailed API; [`PipelinedCompressor::next_ordered`]
/// is the compatible frames-only view).
// Events are yielded one at a time and immediately consumed, never stored in
// bulk, so the Frame/Dropped size gap costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PipelineEvent {
    /// A frame finished (or failed) compression.
    Frame {
        /// Submission sequence number.
        sequence: u64,
        /// Degrade level active when the frame was admitted (0 = configured
        /// fidelity; level `n` means `q_xyz × 2ⁿ`).
        degrade_level: u8,
        /// The compression outcome.
        result: Result<CompressedFrame, DbgcError>,
    },
    /// A frame was discarded unstarted by [`OverloadPolicy::DropOldest`].
    Dropped {
        /// Submission sequence number.
        sequence: u64,
    },
}

// One item in flight per worker; boxing the result would add a hot-path
// allocation to save bytes that are never held in aggregate.
#[allow(clippy::large_enum_variant)]
enum WorkItem {
    Done { level: u8, result: Result<CompressedFrame, DbgcError> },
    Dropped,
}

struct QueueState {
    /// Frames are queued as `Arc` so submission never deep-copies point
    /// buffers: the submitter keeps (or drops) its handle and workers borrow
    /// the same allocation. A multi-megabyte cloud costs one refcount bump to
    /// hand off instead of a copy on the producer thread — which is exactly
    /// the serial section Amdahl charges against every worker added.
    jobs: std::collections::VecDeque<(u64, Arc<PointCloud>, u8)>,
    closed: bool,
    high_water: u64,
}

struct SharedQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A frame-ordered, multi-threaded DBGC compressor with bounded queues.
pub struct PipelinedCompressor {
    queue: Arc<SharedQueue>,
    results: Receiver<(u64, WorkItem)>,
    /// Kept so the submitter can report drops through the same channel.
    result_tx: Sender<(u64, WorkItem)>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
    policy: OverloadPolicy,
    next_submit: u64,
    next_yield: u64,
    /// Out-of-order results parked until their turn.
    parked: HashMap<u64, WorkItem>,
    /// Degrade controller.
    degrade_level: u8,
    pressure: u32,
    relief: u32,
    degrade_transitions: u64,
    overload_dropped: u64,
    metrics: Option<Collector>,
}

impl PipelinedCompressor {
    /// Spawn `workers` threads, each owning a clone of `compressor`.
    pub fn new(compressor: Dbgc, workers: usize) -> PipelinedCompressor {
        Self::new_impl(compressor, workers, None)
    }

    /// [`PipelinedCompressor::new`], recording observability data into
    /// `collector`: `net.frames_submitted` / `net.frames_yielded` counters, a
    /// `net.queue_depth` histogram sampled at each submission, the
    /// `net.queue_depth_high_water` gauge, `net.degrade_transitions` /
    /// `net.frames_dropped_overload` counters, and each worker's `compress`
    /// span tree (workers share the collector, so spans from concurrent
    /// frames interleave; span parentage keeps them separable).
    pub fn with_metrics(
        compressor: Dbgc,
        workers: usize,
        collector: &Collector,
    ) -> PipelinedCompressor {
        Self::new_impl(compressor, workers, Some(collector.clone()))
    }

    fn new_impl(
        compressor: Dbgc,
        workers: usize,
        metrics: Option<Collector>,
    ) -> PipelinedCompressor {
        assert!(workers >= 1, "need at least one worker");
        let queue = Arc::new(SharedQueue {
            state: Mutex::new(QueueState {
                jobs: std::collections::VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        let (result_tx, results) = channel();
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let tx = result_tx.clone();
            let dbgc = compressor.clone();
            let worker_metrics = metrics.clone();
            handles.push(std::thread::spawn(move || {
                // Degraded variants built lazily: level n doubles q_xyz n
                // times over the configured bound.
                let mut variants: HashMap<u8, Dbgc> = HashMap::new();
                loop {
                    let job = {
                        let mut state = queue.state.lock().expect("queue lock");
                        loop {
                            if let Some(job) = state.jobs.pop_front() {
                                queue.not_full.notify_one();
                                break Some(job);
                            }
                            if state.closed {
                                break None;
                            }
                            state = queue.not_empty.wait(state).expect("queue lock");
                        }
                    };
                    let Some((seq, cloud, level)) = job else { return };
                    let active = variants.entry(level).or_insert_with(|| {
                        let mut config = dbgc.config.clone();
                        config.q_xyz *= f64::from(1u32 << u32::from(level));
                        Dbgc::new(config)
                    });
                    let result = match &worker_metrics {
                        Some(c) => active.compress_with_metrics(&cloud, c),
                        None => active.compress(&cloud),
                    };
                    if tx.send((seq, WorkItem::Done { level, result })).is_err() {
                        return;
                    }
                }
            }));
        }
        PipelinedCompressor {
            queue,
            results,
            result_tx,
            workers: handles,
            capacity: 64,
            policy: OverloadPolicy::Block,
            next_submit: 0,
            next_yield: 0,
            parked: HashMap::new(),
            degrade_level: 0,
            pressure: 0,
            relief: 0,
            degrade_transitions: 0,
            overload_dropped: 0,
            metrics,
        }
    }

    /// Bound the submission queue at `capacity` frames (default 64).
    pub fn with_queue_capacity(mut self, capacity: usize) -> PipelinedCompressor {
        assert!(capacity >= 1, "queue capacity must be positive");
        self.capacity = capacity;
        self
    }

    /// Choose what `submit` does at the bound (default [`OverloadPolicy::Block`]).
    pub fn with_overload_policy(mut self, policy: OverloadPolicy) -> PipelinedCompressor {
        self.policy = policy;
        self
    }

    fn incr(&self, name: &str, n: u64) {
        if let Some(c) = &self.metrics {
            c.incr(name, n);
        }
    }

    /// Count one degrade-level move and publish the new level.
    fn degrade_moved(&mut self) {
        self.degrade_transitions += 1;
        if let Some(c) = &self.metrics {
            c.incr("net.degrade_transitions", 1);
            c.set_gauge("net.degrade_level", f64::from(self.degrade_level));
        }
    }

    /// Advance the degrade hysteresis given the queue depth seen at this
    /// submission. High watermark: ¾ capacity; low watermark: ¼ capacity.
    fn update_degrade(&mut self, depth: usize) {
        if self.policy != OverloadPolicy::Degrade {
            return;
        }
        let high = (self.capacity * 3 / 4).max(1);
        let low = self.capacity / 4;
        if depth >= high {
            self.pressure += 1;
            self.relief = 0;
            if self.pressure >= DEGRADE_SUSTAIN && self.degrade_level < MAX_DEGRADE_LEVEL {
                self.degrade_level += 1;
                self.pressure = 0;
                self.degrade_moved();
            }
        } else if depth <= low {
            self.relief += 1;
            self.pressure = 0;
            if self.relief >= DEGRADE_SUSTAIN && self.degrade_level > 0 {
                self.degrade_level -= 1;
                self.relief = 0;
                self.degrade_moved();
            }
        } else {
            self.pressure = 0;
            self.relief = 0;
        }
    }

    /// Queue a frame for compression; returns its sequence number.
    ///
    /// At the queue bound the [`OverloadPolicy`] decides whether this blocks,
    /// drops the oldest queued frame, or (Degrade) blocks while pressure
    /// coarsens subsequent frames.
    pub fn submit(&mut self, cloud: PointCloud) -> u64 {
        self.submit_shared(Arc::new(cloud))
    }

    /// [`submit`](PipelinedCompressor::submit) without the handoff copy: the
    /// caller keeps its `Arc` handle (e.g. to replay or archive the frame)
    /// and the pipeline shares the same point buffer. Submitting an
    /// already-shared cloud is the fast path for sensor loops that fan one
    /// capture out to several consumers.
    pub fn submit_shared(&mut self, cloud: Arc<PointCloud>) -> u64 {
        let seq = self.next_submit;
        self.next_submit += 1;
        let depth;
        {
            let mut state = self.queue.state.lock().expect("queue lock");
            assert!(!state.closed, "submit after shutdown");
            if self.policy == OverloadPolicy::DropOldest {
                while state.jobs.len() >= self.capacity {
                    let (dropped_seq, _, _) =
                        state.jobs.pop_front().expect("non-empty at capacity");
                    self.overload_dropped += 1;
                    self.result_tx
                        .send((dropped_seq, WorkItem::Dropped))
                        .expect("results receiver alive");
                }
            } else {
                while state.jobs.len() >= self.capacity {
                    state = self.queue.not_full.wait(state).expect("queue lock");
                }
            }
            depth = state.jobs.len() + 1;
            state.jobs.push_back((seq, cloud, self.degrade_level));
            state.high_water = state.high_water.max(depth as u64);
            if let Some(c) = &self.metrics {
                c.set_gauge("net.queue_depth_high_water", state.high_water as f64);
            }
        }
        self.queue.not_empty.notify_one();
        self.update_degrade(depth);
        if let Some(c) = &self.metrics {
            c.incr("net.frames_submitted", 1);
            c.record("net.queue_depth", self.in_flight());
        }
        seq
    }

    /// Number of frames submitted but not yet yielded.
    pub fn in_flight(&self) -> u64 {
        self.next_submit - self.next_yield
    }

    /// The degrade notch new submissions are admitted at (0 = full fidelity).
    pub fn degrade_level(&self) -> u8 {
        self.degrade_level
    }

    /// Level transitions (up or down) the degrade controller has made.
    pub fn degrade_transitions(&self) -> u64 {
        self.degrade_transitions
    }

    /// Frames discarded unstarted by [`OverloadPolicy::DropOldest`].
    pub fn overload_dropped(&self) -> u64 {
        self.overload_dropped
    }

    /// Deepest the submission queue has been.
    pub fn queue_high_water(&self) -> u64 {
        self.queue.state.lock().expect("queue lock").high_water
    }

    /// Block until the next outcome *in submission order* is ready; `None`
    /// when every submitted frame has been yielded.
    pub fn next_event(&mut self) -> Option<PipelineEvent> {
        if self.next_yield == self.next_submit {
            return None;
        }
        loop {
            if let Some(item) = self.parked.remove(&self.next_yield) {
                let sequence = self.next_yield;
                self.next_yield += 1;
                return Some(match item {
                    WorkItem::Done { level, result } => {
                        self.incr("net.frames_yielded", 1);
                        PipelineEvent::Frame { sequence, degrade_level: level, result }
                    }
                    WorkItem::Dropped => {
                        self.incr("net.frames_dropped_overload", 1);
                        PipelineEvent::Dropped { sequence }
                    }
                });
            }
            let (seq, item) = self.results.recv().expect("workers alive");
            self.parked.insert(seq, item);
        }
    }

    /// Block until the next *frame* in submission order is ready, skipping
    /// overload drops. Returns `None` when all submitted frames have been
    /// yielded.
    pub fn next_ordered(&mut self) -> Option<Result<CompressedFrame, DbgcError>> {
        loop {
            match self.next_event()? {
                PipelineEvent::Frame { result, .. } => return Some(result),
                PipelineEvent::Dropped { .. } => continue,
            }
        }
    }

    /// Drop the submission side and join all workers; remaining results are
    /// discarded. Called automatically on drop.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.queue.state.lock().expect("queue lock");
            state.closed = true;
            state.jobs.clear();
        }
        self.queue.not_empty.notify_all();
        self.queue.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for PipelinedCompressor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedCompressor")
            .field("workers", &self.workers.len())
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("in_flight", &self.in_flight())
            .field("degrade_level", &self.degrade_level)
            .finish()
    }
}

impl Drop for PipelinedCompressor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgc_geom::Point3;

    fn cloud(seed: u64, n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let th = (i as f64 + seed as f64) / n as f64 * std::f64::consts::TAU;
                Point3::new(20.0 * th.cos(), 20.0 * th.sin(), -1.7 + seed as f64 * 0.01)
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let mut pipe = PipelinedCompressor::new(Dbgc::with_error_bound(0.02), 4);
        let clouds: Vec<PointCloud> = (0..12).map(|s| cloud(s, 2000 + s as usize * 500)).collect();
        for c in &clouds {
            pipe.submit(c.clone());
        }
        for (i, c) in clouds.iter().enumerate() {
            let frame = pipe.next_ordered().expect("frame pending").expect("compresses");
            // Verify it is really frame i: decompress and compare counts.
            let (restored, _) = dbgc::decompress(&frame.bytes).unwrap();
            assert_eq!(restored.len(), c.len(), "frame {i} out of order");
        }
        assert!(pipe.next_ordered().is_none());
    }

    #[test]
    fn matches_single_threaded_output() {
        // Compression is deterministic, so the pipelined bytes must be
        // byte-identical to the direct path.
        let dbgc = Dbgc::with_error_bound(0.02);
        let c = cloud(3, 4000);
        let direct = dbgc.compress(&c).unwrap();
        let mut pipe = PipelinedCompressor::new(dbgc, 2);
        pipe.submit(c);
        let piped = pipe.next_ordered().unwrap().unwrap();
        assert_eq!(piped.bytes, direct.bytes);
    }

    #[test]
    fn intra_frame_parallelism_matches_serial_bytes() {
        // Frame-level workers and intra-frame pool helpers run concurrently;
        // the bitstream must still be byte-identical to the fully serial
        // path (threads = 1).
        let mut serial_cfg = dbgc::DbgcConfig::with_error_bound(0.02);
        serial_cfg.threads = 1;
        let mut parallel_cfg = serial_cfg.clone();
        parallel_cfg.threads = 4;

        let clouds: Vec<PointCloud> = (0..6).map(|s| cloud(s, 3000)).collect();
        let direct: Vec<CompressedFrame> =
            clouds.iter().map(|c| Dbgc::new(serial_cfg.clone()).compress(c).unwrap()).collect();

        let mut pipe = PipelinedCompressor::new(Dbgc::new(parallel_cfg), 2);
        for c in &clouds {
            pipe.submit(c.clone());
        }
        for expected in &direct {
            let got = pipe.next_ordered().unwrap().unwrap();
            assert_eq!(got.bytes, expected.bytes);
            assert_eq!(got.mapping, expected.mapping);
        }
    }

    #[test]
    fn wide_profile_flows_through_the_pipeline() {
        // Degrade variants clone the full config, so the entropy profile must
        // survive the worker handoff: pipelined wide frames are byte-identical
        // to direct wide compression and carry stream version 3.
        let cfg = dbgc::DbgcConfig::with_error_bound(0.02)
            .with_entropy_profile(dbgc::EntropyProfile::Wide);
        let dbgc = Dbgc::new(cfg);
        let c = cloud(7, 3000);
        let direct = dbgc.compress(&c).unwrap();
        assert_eq!(direct.bytes[4], 3, "wide frames carry stream version 3");
        let mut pipe = PipelinedCompressor::new(dbgc, 2);
        pipe.submit(c);
        let piped = pipe.next_ordered().unwrap().unwrap();
        assert_eq!(piped.bytes, direct.bytes);
        let (restored, _) = dbgc::decompress(&piped.bytes).unwrap();
        assert_eq!(restored.len(), 3000);
    }

    #[test]
    fn submit_shared_avoids_the_handoff_copy() {
        let dbgc = Dbgc::with_error_bound(0.02);
        let c = Arc::new(cloud(5, 3000));
        let direct = dbgc.compress(&c).unwrap();
        let mut pipe = PipelinedCompressor::new(dbgc, 2);
        // The submitter keeps its handle; the pipeline shares the buffer.
        pipe.submit_shared(Arc::clone(&c));
        let piped = pipe.next_ordered().unwrap().unwrap();
        assert_eq!(piped.bytes, direct.bytes);
        assert_eq!(c.len(), 3000, "caller's handle still valid");
    }

    #[test]
    fn errors_are_delivered_in_order() {
        let mut pipe = PipelinedCompressor::new(Dbgc::with_error_bound(0.02), 2);
        pipe.submit(cloud(1, 1000));
        let mut bad = cloud(2, 10);
        bad.push(Point3::new(f64::NAN, 0.0, 0.0));
        pipe.submit(bad);
        assert!(pipe.next_ordered().unwrap().is_ok());
        assert!(matches!(pipe.next_ordered().unwrap(), Err(DbgcError::NonFinitePoint { .. })));
    }

    #[test]
    fn in_flight_tracking_and_drop() {
        let mut pipe = PipelinedCompressor::new(Dbgc::with_error_bound(0.05), 2);
        assert_eq!(pipe.in_flight(), 0);
        pipe.submit(cloud(1, 500));
        pipe.submit(cloud(2, 500));
        assert_eq!(pipe.in_flight(), 2);
        let _ = pipe.next_ordered();
        assert_eq!(pipe.in_flight(), 1);
        // Dropping with one frame still in flight must not hang.
        drop(pipe);
    }

    #[test]
    fn block_policy_bounds_the_queue_without_losing_frames() {
        let mut pipe = PipelinedCompressor::new(Dbgc::with_error_bound(0.05), 1)
            .with_queue_capacity(2)
            .with_overload_policy(OverloadPolicy::Block);
        // 8 frames through a 2-slot queue: submit blocks, nothing is lost.
        for s in 0..8 {
            pipe.submit(cloud(s, 400));
        }
        let mut yielded = 0;
        while let Some(r) = pipe.next_ordered() {
            r.unwrap();
            yielded += 1;
        }
        assert_eq!(yielded, 8);
        assert!(pipe.queue_high_water() <= 2, "bounded: {}", pipe.queue_high_water());
        assert_eq!(pipe.overload_dropped(), 0);
    }

    #[test]
    fn drop_oldest_sheds_queued_frames_and_reports_them() {
        let mut pipe = PipelinedCompressor::new(Dbgc::with_error_bound(0.05), 1)
            .with_queue_capacity(1)
            .with_overload_policy(OverloadPolicy::DropOldest);
        // Burst far ahead of one worker with a single queue slot: later
        // submissions evict earlier queued frames.
        for s in 0..10 {
            pipe.submit(cloud(s, 1500));
        }
        let mut frames = 0;
        let mut dropped = Vec::new();
        while let Some(event) = pipe.next_event() {
            match event {
                PipelineEvent::Frame { result, .. } => {
                    result.unwrap();
                    frames += 1;
                }
                PipelineEvent::Dropped { sequence } => dropped.push(sequence),
            }
        }
        assert_eq!(frames + dropped.len(), 10, "every submission accounted for");
        assert_eq!(dropped.len() as u64, pipe.overload_dropped());
        assert!(!dropped.is_empty(), "1-slot queue under a 10-frame burst must shed");
        // The most recent frame is never the one shed.
        assert!(!dropped.contains(&9));
    }

    #[test]
    fn degrade_coarsens_under_pressure_and_recovers() {
        let mut pipe = PipelinedCompressor::new(Dbgc::with_error_bound(0.02), 1)
            .with_queue_capacity(4)
            .with_overload_policy(OverloadPolicy::Degrade);
        // Saturate: one slow worker, rapid submissions. The controller must
        // step the level up after sustained pressure.
        let mut levels = Vec::new();
        for s in 0..16 {
            pipe.submit(cloud(s, 1200));
            levels.push(pipe.degrade_level());
        }
        assert!(*levels.last().unwrap() > 0, "sustained pressure coarsens: {levels:?}");
        assert!(pipe.degrade_transitions() > 0);
        // Drain; per-frame levels are recorded and degraded frames decode.
        let mut seen_levels = Vec::new();
        while let Some(event) = pipe.next_event() {
            match event {
                PipelineEvent::Frame { degrade_level, result, .. } => {
                    let frame = result.unwrap();
                    dbgc::decompress(&frame.bytes).unwrap();
                    seen_levels.push(degrade_level);
                }
                PipelineEvent::Dropped { .. } => panic!("Degrade never drops"),
            }
        }
        assert_eq!(seen_levels.len(), 16);
        assert!(seen_levels.iter().any(|&l| l > 0), "some frames shipped degraded");
        assert_eq!(seen_levels[0], 0, "first frame at full fidelity");
        // Recovery: with the queue idle, relief steps the level back down.
        let before = pipe.degrade_level();
        assert!(before > 0);
        for s in 0..40 {
            pipe.submit(cloud(s, 30));
            while pipe.next_ordered().is_some() {}
            if pipe.degrade_level() == 0 {
                break;
            }
        }
        assert_eq!(pipe.degrade_level(), 0, "level restored after pressure clears");
    }

    #[test]
    fn overload_counters_flow_through_metrics() {
        let collector = Collector::new();
        let mut pipe =
            PipelinedCompressor::with_metrics(Dbgc::with_error_bound(0.05), 1, &collector)
                .with_queue_capacity(1)
                .with_overload_policy(OverloadPolicy::DropOldest);
        for s in 0..6 {
            pipe.submit(cloud(s, 1200));
        }
        while pipe.next_event().is_some() {}
        let snap = collector.snapshot();
        assert!(snap.counters["net.frames_dropped_overload"] > 0);
        assert!(snap.gauges["net.queue_depth_high_water"] >= 1.0);
    }
}
