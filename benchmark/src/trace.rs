//! The traced run: bench-side spans around each public call, the layer
//! table of self times, and the `dbgc-metrics` snapshot written at the end.
//!
//! The benchmark opens one root span per operation, named `<kind>/<id>`:
//! `frame/<i>` for a codec round trip, `frame/<session>/<seq>` for an
//! ingested frame (sent to acked), `archive/<session>/<seq>` for its
//! archival, `query/<i>` for a query. Calls the library does not trace
//! itself (`write_frame`, `FleetHandle::drain`, `FrameStore::ingest`) get a
//! child span named after the layer. The library's own root spans
//! (`compress`, `decompress`, `store.query`) land in the same collector;
//! [`Trace::finish`] re-parents each under the operation span that encloses
//! it, so the snapshot is one tree per operation.

use std::collections::HashMap;
use std::fmt::Display;
use std::path::Path;

use dbgc_metrics::{Collector, Snapshot, Span, SpanRecord};

use crate::Metric;

/// In-memory span sink for one traced run.
pub struct Trace {
    pub collector: Collector,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { collector: Collector::new() }
    }

    /// Root span of one operation; `id` is the frame's `session/seq` or the
    /// query index.
    pub fn op(&self, kind: &str, id: impl Display) -> Span {
        self.collector.span(&format!("{kind}/{id}"))
    }

    /// Re-parent library roots, print the layer table, and write the
    /// snapshot (with `gauges` recorded in it) to `path`.
    pub fn finish(self, gauges: &[Metric], path: &Path) -> Result<(), String> {
        for m in gauges {
            self.collector.set_gauge(m.name, m.value);
        }
        let mut snap = self.collector.snapshot();
        reparent_library_roots(&mut snap.spans);
        snap.validate_spans()?;
        print_layer_table(&snap);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, snap.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace snapshot: {}", path.display());
        Ok(())
    }
}

/// Bench operation spans carry an id after a `/`; library spans do not.
fn is_op(span: &SpanRecord) -> bool {
    span.parent.is_none() && span.name.contains('/')
}

/// Give every library root the innermost operation span whose interval
/// contains it. Operations run on one thread at a time, so containment is
/// exactly the call nesting.
fn reparent_library_roots(spans: &mut [SpanRecord]) {
    let ops: Vec<(u64, u64, u64)> =
        spans.iter().filter(|s| is_op(s)).map(|s| (s.start_ns, s.end_ns, s.id)).collect();
    for s in spans.iter_mut().filter(|s| s.parent.is_none() && !s.name.contains('/')) {
        s.parent = ops
            .iter()
            .filter(|&&(start, end, _)| start <= s.start_ns && s.end_ns <= end)
            .min_by_key(|&&(start, end, _)| end - start)
            .map(|&(_, _, id)| id);
    }
}

/// One row of the layer table: spans sharing a name path.
#[derive(Default)]
struct Row {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Per name path (`frame > compress > den`): span count, mean duration and
/// mean self time (duration minus the time direct children cover).
fn print_layer_table(snap: &Snapshot) {
    let by_id: HashMap<u64, &SpanRecord> = snap.spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in &snap.spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    let mut rows: std::collections::BTreeMap<String, Row> = Default::default();
    for s in &snap.spans {
        let row = rows.entry(span_path(&by_id, s)).or_default();
        row.count += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += s.duration_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    println!("{:<44} {:>8} {:>12} {:>12}", "layer (span path)", "count", "mean ms", "self ms");
    for (name, r) in &rows {
        let n = r.count as f64;
        println!(
            "{name:<44} {:>8} {:>12.3} {:>12.3}",
            r.count,
            r.total_ns as f64 / n / 1e6,
            r.self_ns as f64 / n / 1e6
        );
    }
    for (name, v) in &snap.gauges {
        println!("{name:<44} {v:>12.4}");
    }
}

/// `root > child > grandchild`, operation ids dropped.
fn span_path<'a>(by_id: &HashMap<u64, &'a SpanRecord>, mut s: &'a SpanRecord) -> String {
    let mut parts = Vec::new();
    loop {
        parts.push(s.name.split('/').next().unwrap_or_default());
        match s.parent.and_then(|p| by_id.get(&p)) {
            Some(p) => s = p,
            None => break,
        }
    }
    parts.reverse();
    parts.join(" > ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord { id, parent, name: name.into(), start_ns, end_ns }
    }

    #[test]
    fn library_roots_join_the_enclosing_operation() {
        let mut spans = vec![
            span(1, None, "frame/0", 0, 100),
            span(2, None, "compress", 10, 60),
            span(3, Some(2), "den", 10, 30),
            span(4, None, "frame/1", 200, 300),
            span(5, None, "decompress", 210, 250),
            span(6, None, "compress", 400, 450),
        ];
        reparent_library_roots(&mut spans);
        assert_eq!(spans[1].parent, Some(1));
        assert_eq!(spans[2].parent, Some(2), "children keep their parent");
        assert_eq!(spans[4].parent, Some(4));
        assert_eq!(spans[5].parent, None, "set-up calls outside any operation stay roots");
        Snapshot { spans, ..Default::default() }.validate_spans().unwrap();
    }
}
