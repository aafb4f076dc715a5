//! Hierarchical wall-clock spans.
//!
//! A [`Span`] measures the wall-clock interval between its creation and its
//! finish (explicit [`Span::finish`] or drop). Spans form a tree through
//! [`Span::child`]; the handle is `Send + Sync`, so a stage span can be
//! shared with pool workers by reference and children created on any thread
//! are attributed to it. Because the *stage* span brackets the whole
//! fan-out, its duration is the stage's wall-clock occupancy — overlapping
//! worker children do not inflate it the way summed CPU time would.

use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::Collector;

/// One finished span, in a [`crate::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the collector (> 0).
    pub id: u64,
    /// Parent span id; `None` for roots.
    pub parent: Option<u64>,
    /// Span name as given to [`Collector::span`] / [`Span::child`].
    pub name: String,
    /// Start, in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the collector's epoch (`>= start_ns`).
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A live span; finishes (and records itself) on drop.
#[derive(Debug)]
pub struct Span {
    collector: Collector,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

impl Span {
    pub(crate) fn new(collector: Collector, parent: Option<u64>, name: &str) -> Span {
        let id = collector.inner().next_span_id.fetch_add(1, Ordering::Relaxed);
        Span { collector, id, parent, name: name.to_string(), start: Instant::now() }
    }

    /// This span's id (stable in the snapshot's records).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Start a child span. The child borrows nothing: it holds its own
    /// collector handle, so it may outlive the parent *handle* (though a
    /// well-formed tree finishes children first) and may be created and
    /// finished on a different thread.
    pub fn child(&self, name: &str) -> Span {
        Span::new(self.collector.clone(), Some(self.id), name)
    }

    /// Finish the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let inner = self.collector.inner();
        let start_ns = self.start.saturating_duration_since(inner.epoch).as_nanos() as u64;
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_ns,
            end_ns: end_ns.max(start_ns),
        };
        self.collector.keep_span(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_on_drop_and_explicit_agree() {
        let c = Collector::new();
        {
            let _implicit = c.span("a");
        }
        c.span("b").finish();
        let s = c.snapshot();
        assert_eq!(s.spans.len(), 2);
        assert!(s.spans.iter().all(|r| r.end_ns >= r.start_ns));
    }

    #[test]
    fn ids_are_unique_and_positive() {
        let c = Collector::new();
        let a = c.span("a");
        let b = c.span("b");
        let child = a.child("c");
        assert!(a.id() > 0);
        assert!(a.id() != b.id() && b.id() != child.id() && a.id() != child.id());
    }
}
