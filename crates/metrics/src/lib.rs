//! # dbgc-metrics — pipeline observability for DBGC
//!
//! A std-only (offline, shim-compatible) metrics layer shared by the
//! compressor core, the network server, the CLI and the experiment
//! harnesses. It provides exactly the four instruments the paper's
//! evaluation (§4) is built on:
//!
//! * **hierarchical spans** ([`Span`]) with monotonic wall-clock timing.
//!   Span handles are `Send + Sync`, so a stage span created on the calling
//!   thread can hand out children to `dbgc-parallel` pool workers; the
//!   owning stage is attributed by *wall-clock* (the interval the stage
//!   actually occupied), never by summed worker CPU time;
//! * **atomic counters** and f64 **gauges** ([`Collector::incr`],
//!   [`Collector::set_gauge`]);
//! * **log-bucket histograms** ([`Histogram`]): power-of-two buckets,
//!   lock-free recording;
//! * **per-substream byte accounting** ([`Collector::add_bytes`]): named
//!   byte channels (header/dense/sparse/outlier, …) whose sum must equal
//!   the frame total — [`Snapshot::bytes_total`] makes the invariant
//!   testable.
//!
//! Everything funnels into a [`Collector`] — a cheap-to-clone `Arc` handle —
//! and out through [`Collector::snapshot`], a point-in-time [`Snapshot`]
//! that serializes to a versioned JSON document ([`Snapshot::to_json`],
//! schema [`SCHEMA`]`/`[`SCHEMA_VERSION`]). Every producer in the workspace
//! (CLI `--metrics-out`, `dbgc-bench` harnesses, the net server) emits this
//! one schema instead of bespoke structs.
//!
//! Recording into a named instrument costs one locked map lookup plus one
//! atomic op per counter bump or histogram sample (the name's key is
//! allocated only the first time it is seen), and one short mutex push per
//! finished span. A collector keeps the newest [`MAX_SPANS`] finished spans
//! and counts the older ones it lets go in `metrics.spans_dropped`, so a
//! long-lived one (a fleet decoding every frame it receives) stays
//! bounded. Crates that embed the layer always compile it: their recording
//! sites take an optional collector, and with none attached each site costs
//! one `None` branch.

#![warn(missing_docs)]

mod efficiency;
mod hist;
mod snapshot;
mod span;

pub use efficiency::StageEfficiency;
pub use hist::{Histogram, HistogramSnapshot};
pub use snapshot::{json_escape, Snapshot};
pub use span::{Span, SpanRecord};

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Snapshot schema name; bump [`SCHEMA_VERSION`] on breaking changes.
pub const SCHEMA: &str = "dbgc-metrics";
/// Snapshot schema version emitted by [`Snapshot::to_json`].
pub const SCHEMA_VERSION: u32 = 1;
/// Finished spans a collector keeps: the newest ones; each older span let
/// go is counted in the [`SPANS_DROPPED`] counter.
pub const MAX_SPANS: usize = 65_536;
/// Counter of finished spans dropped to hold the [`MAX_SPANS`] bound.
pub const SPANS_DROPPED: &str = "metrics.spans_dropped";

/// A named atomic counter handle; cheap to clone, lock-free to bump.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    pub(crate) next_span_id: AtomicU64,
    pub(crate) spans: Mutex<VecDeque<SpanRecord>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    bytes: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, u64>>, // f64 bit patterns
    labels: Mutex<BTreeMap<String, String>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The shared metrics sink: clone freely, record from any thread.
///
/// All instruments are created on first use by name; names are stable keys
/// in the emitted snapshot, so pick dotted lowercase identifiers
/// (`net.frames_received`, `compress.points_in`).
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").finish_non_exhaustive()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// A fresh, empty collector; its span clock starts now.
    pub fn new() -> Collector {
        Collector {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_span_id: AtomicU64::new(1),
                spans: Mutex::new(VecDeque::new()),
                counters: Mutex::new(BTreeMap::new()),
                bytes: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                labels: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Start a root span. Finish it by dropping (or [`Span::finish`]).
    pub fn span(&self, name: &str) -> Span {
        Span::new(self.clone(), None, name)
    }

    /// The counter registered under `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(instrument(&self.inner.counters, name))
    }

    /// Add `n` to the counter `name` (convenience over [`Collector::counter`]).
    pub fn incr(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Account `n` bytes to the substream channel `name`.
    ///
    /// Channels live in their own namespace so snapshots can check the
    /// accounting invariant: the per-substream values of one frame must sum
    /// to the frame's total stream size.
    pub fn add_bytes(&self, channel: &str, n: u64) {
        instrument(&self.inner.bytes, channel).fetch_add(n, Ordering::Relaxed);
    }

    /// Set the f64 gauge `name` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut map = self.inner.gauges.lock().expect("gauges lock");
        match map.get_mut(name) {
            Some(bits) => *bits = value.to_bits(),
            None => {
                map.insert(name.to_string(), value.to_bits());
            }
        }
    }

    /// Attach a string label (preset name, mode, hostname, …).
    pub fn set_label(&self, name: &str, value: &str) {
        let mut map = self.inner.labels.lock().expect("labels lock");
        map.insert(name.to_string(), value.to_string());
    }

    /// The log-bucket histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        instrument(&self.inner.histograms, name)
    }

    /// Record one sample into histogram `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// Every counter's current value, without copying anything else (a
    /// snapshot also copies every kept span).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner
            .counters
            .lock()
            .expect("counters lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// A point-in-time snapshot of every instrument.
    ///
    /// Unfinished spans are *not* included — snapshot after the work you
    /// want to read about has completed (or keep the collector and snapshot
    /// again later; recording continues unaffected). Only the newest
    /// [`MAX_SPANS`] finished spans are kept.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self.counters();
        let bytes = self
            .inner
            .bytes
            .lock()
            .expect("bytes lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauges lock")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(*v)))
            .collect();
        let labels = self.inner.labels.lock().expect("labels lock").clone();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histograms lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let spans = self.inner.spans.lock().expect("spans lock").iter().cloned().collect();
        Snapshot { counters, bytes, gauges, labels, histograms, spans }
    }

    /// Keep a finished span, letting the oldest go past [`MAX_SPANS`].
    pub(crate) fn keep_span(&self, record: SpanRecord) {
        let dropped = {
            let mut spans = self.inner.spans.lock().expect("spans lock");
            let dropped = spans.len() >= MAX_SPANS;
            if dropped {
                spans.pop_front();
            }
            spans.push_back(record);
            dropped
        };
        if dropped {
            self.incr(SPANS_DROPPED, 1);
        }
    }

    pub(crate) fn inner(&self) -> &Inner {
        &self.inner
    }
}

/// The instrument registered under `name` in `map`, created on first use.
/// Names seen before are a plain lookup: the `String` key is allocated only
/// on a miss, so steady-state recording never allocates.
fn instrument<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().expect("instrument map lock");
    match map.get(name) {
        Some(cell) => Arc::clone(cell),
        None => Arc::clone(map.entry(name.to_string()).or_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones_and_threads() {
        let c = Collector::new();
        let handle = c.counter("frames");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr("frames", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.get(), 4000);
        assert_eq!(c.snapshot().counters["frames"], 4000);
    }

    #[test]
    fn byte_channels_are_a_separate_namespace() {
        let c = Collector::new();
        c.incr("dense", 5);
        c.add_bytes("dense", 100);
        c.add_bytes("sparse", 200);
        let s = c.snapshot();
        assert_eq!(s.counters["dense"], 5);
        assert_eq!(s.bytes["dense"], 100);
        assert_eq!(s.bytes_total(), 300);
    }

    #[test]
    fn gauges_and_labels_round_trip() {
        let c = Collector::new();
        c.set_gauge("fps", 9.75);
        c.set_gauge("fps", 10.25); // last write wins
        c.set_label("preset", "kitti-city");
        let s = c.snapshot();
        assert_eq!(s.gauges["fps"], 10.25);
        assert_eq!(s.labels["preset"], "kitti-city");
    }

    #[test]
    fn spans_record_a_tree() {
        let c = Collector::new();
        {
            let root = c.span("compress");
            {
                let child = root.child("den");
                std::thread::sleep(std::time::Duration::from_millis(1));
                child.finish();
            }
            root.finish();
        }
        let s = c.snapshot();
        assert_eq!(s.spans.len(), 2);
        s.validate_spans().unwrap();
        let root = s.spans.iter().find(|r| r.name == "compress").unwrap();
        let child = s.spans.iter().find(|r| r.name == "den").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(child.end_ns > child.start_ns, "child slept, duration must be positive");
    }

    #[test]
    fn span_log_keeps_the_newest_and_counts_the_dropped() {
        let c = Collector::new();
        // Parents finish after their children, so dropping the oldest
        // records never orphans a kept child.
        for _ in 0..(MAX_SPANS + 10) / 2 {
            let root = c.span("decompress");
            root.child("oct").finish();
        }
        let s = c.snapshot();
        assert_eq!(s.spans.len(), MAX_SPANS);
        assert_eq!(s.counters[SPANS_DROPPED], 10);
        // Finish order is oct 2, decompress 1, oct 4, decompress 3, …: the
        // first ten records went, so the log starts at the sixth pair.
        assert_eq!((s.spans[0].id, s.spans[0].name.as_str()), (12, "oct"));
        assert_eq!((s.spans[1].id, s.spans[1].name.as_str()), (11, "decompress"));
        let last = s.spans.last().unwrap();
        assert_eq!((last.id, last.name.as_str()), (MAX_SPANS as u64 + 9, "decompress"));
        s.validate_spans().unwrap();
    }

    #[test]
    fn counters_read_without_a_snapshot() {
        let c = Collector::new();
        c.incr("net.frames_received", 3);
        c.span("decompress").finish();
        c.record("h", 5);
        assert_eq!(c.counters(), c.snapshot().counters);
        assert_eq!(c.counters()["net.frames_received"], 3);
        assert!(!c.counters().contains_key(SPANS_DROPPED), "nothing dropped yet");
    }

    #[test]
    fn span_handles_cross_threads() {
        let c = Collector::new();
        let stage = c.span("group");
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let stage = &stage;
                scope.spawn(move || {
                    let worker = stage.child("org");
                    worker.finish();
                });
            }
        });
        stage.finish();
        let s = c.snapshot();
        assert_eq!(s.spans.len(), 4);
        s.validate_spans().unwrap();
    }

    #[test]
    fn snapshot_is_stable_under_concurrent_recording() {
        let c = Collector::new();
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for i in 0..5000u64 {
                    c.incr("n", 1);
                    c.record("h", i);
                }
            })
        };
        // Snapshots taken mid-flight must be internally consistent (never
        // panic, histogram count matches bucket sum).
        for _ in 0..20 {
            let s = c.snapshot();
            for h in s.histograms.values() {
                assert_eq!(h.count, h.buckets.iter().map(|b| b.count).sum::<u64>());
            }
        }
        writer.join().unwrap();
        assert_eq!(c.snapshot().counters["n"], 5000);
    }
}
