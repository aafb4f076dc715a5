//! The frame archive: ingest compressed frames, answer queries by partial
//! decode, fall back to full decode when the index cannot be trusted.

use dbgc::layout::{decode_body, parse_header, section_spans};
use dbgc::{split_index_trailer, IndexTrailer, SpatialDirectory, StreamHeader};
use dbgc_metrics::Collector;
use dbgc_net::StoredFrame;

use crate::oracle::AnnotatedPoint;
use crate::partial::{validate_directory, QuerySink};
use crate::plan::{plan, SectionMeta, Verdict};
use crate::query::Query;
use crate::StoreError;

/// One archived frame: raw bytes plus everything the planner needs, parsed
/// once at ingest.
#[derive(Debug, Clone)]
pub struct ArchivedFrame {
    /// Archive-assigned frame id (dense, in ingest order).
    pub id: u64,
    /// Capture timestamp in microseconds ([`Query::TimeRange`] filters it).
    pub time_us: u64,
    /// The full stream as received, index trailer included.
    pub bytes: Vec<u8>,
    pub(crate) body_len: usize,
    pub(crate) header: StreamHeader,
    pub(crate) directory: Option<SpatialDirectory>,
    /// An index trailer was present but corrupt or inconsistent.
    pub(crate) index_corrupt: bool,
}

impl ArchivedFrame {
    /// The validated spatial directory, when the frame carries one.
    pub fn directory(&self) -> Option<&SpatialDirectory> {
        self.directory.as_ref()
    }

    /// Whether queries can partially decode this frame.
    pub fn has_index(&self) -> bool {
        self.directory.is_some()
    }
}

/// Result of [`FrameStore::query`].
#[derive(Debug, Default)]
pub struct QueryResult {
    /// Matching points in archive order (frames by id, stream order within
    /// a frame), annotated with provenance.
    pub points: Vec<PointRecord>,
    /// Frames examined (everything in the store).
    pub frames_scanned: usize,
    /// Frames pruned without touching any payload bytes.
    pub frames_pruned: usize,
    /// Frames answered by partial decode.
    pub frames_partial: usize,
    /// Frames answered by the full-decode fallback.
    pub frames_fallback: usize,
    /// Compressed bytes actually read to answer the query.
    pub bytes_touched: u64,
    /// Total compressed bytes archived.
    pub bytes_total: u64,
}

/// One matching point with its frame provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointRecord {
    /// Archive id of the frame the point came from.
    pub frame_id: u64,
    /// The frame's capture timestamp (µs).
    pub time_us: u64,
    /// The point itself plus section provenance.
    pub point: AnnotatedPoint,
}

/// An archive of compressed DBGC frames that answers [`Query`]s without
/// decompressing more than it has to.
///
/// Ingest accepts indexed streams, index-less v1 streams, and streams with a
/// corrupt trailer (the recoverable body is kept). Queries use the spatial
/// directory to prune and partially decode; anything suspicious about an
/// index demotes that frame to the full-decode fallback and bumps the
/// `store.index_fallbacks` counter.
#[derive(Debug, Clone)]
pub struct FrameStore {
    frames: Vec<ArchivedFrame>,
    metrics: Collector,
}

impl Default for FrameStore {
    fn default() -> FrameStore {
        FrameStore::new()
    }
}

impl FrameStore {
    /// An empty archive with its own metrics collector.
    pub fn new() -> FrameStore {
        FrameStore { frames: Vec::new(), metrics: Collector::new() }
    }

    /// An empty archive reporting into an existing collector.
    pub fn with_metrics(collector: &Collector) -> FrameStore {
        FrameStore { frames: Vec::new(), metrics: collector.clone() }
    }

    /// Archive one compressed stream captured at `time_us`. Returns the
    /// assigned frame id.
    ///
    /// The header must parse (undecodable frames are rejected up front); a
    /// missing or corrupt index is fine — such frames are queried via the
    /// full-decode fallback.
    pub fn ingest(&mut self, bytes: Vec<u8>, time_us: u64) -> Result<u64, StoreError> {
        let (body_len, directory, mut index_corrupt) = match split_index_trailer(&bytes) {
            IndexTrailer::None => (bytes.len(), None, false),
            IndexTrailer::Corrupt { body } => (body.len(), None, true),
            IndexTrailer::Valid { body, payload } => {
                match SpatialDirectory::parse(payload, body.len()) {
                    Ok(dir) => (body.len(), Some(dir), false),
                    Err(_) => (body.len(), None, true),
                }
            }
        };
        let header = parse_header(&bytes[..body_len])?;
        // A directory that does not describe this body is as good as no
        // directory — but worth counting.
        let directory = match directory {
            Some(dir) => match validate_directory(&dir, &header, body_len) {
                Ok(()) => Some(dir),
                Err(_) => {
                    index_corrupt = true;
                    None
                }
            },
            None => None,
        };
        if index_corrupt {
            self.metrics.incr("store.index_corrupt", 1);
        }
        let id = self.frames.len() as u64;
        self.frames.push(ArchivedFrame {
            id,
            time_us,
            bytes,
            body_len,
            header,
            directory,
            index_corrupt,
        });
        self.metrics.incr("store.frames_ingested", 1);
        Ok(id)
    }

    /// Archive every frame one fleet tenant handed over (see
    /// [`dbgc_net::FleetHandle::drain`]), stamping frame `seq` with
    /// `t0_us + seq * frame_period_us`. Returns the assigned ids.
    pub fn archive_session(
        &mut self,
        frames: impl IntoIterator<Item = StoredFrame>,
        t0_us: u64,
        frame_period_us: u64,
    ) -> Result<Vec<u64>, StoreError> {
        frames
            .into_iter()
            .map(|f| self.ingest(f.bytes, t0_us + u64::from(f.sequence) * frame_period_us))
            .collect()
    }

    /// Number of archived frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The archived frames, in ingest order.
    pub fn frames(&self) -> &[ArchivedFrame] {
        &self.frames
    }

    /// The metrics collector the store reports into (`store.*` counters,
    /// `store.bytes_touched` / `store.bytes_total` byte channels).
    pub fn metrics(&self) -> &Collector {
        &self.metrics
    }

    /// How many frame queries degraded to the full-decode fallback because
    /// an index was corrupt, inconsistent, or lied about the stream.
    pub fn index_fallbacks(&self) -> u64 {
        self.metrics.counter("store.index_fallbacks").get()
    }

    /// Answer `query` over every archived frame.
    ///
    /// Frames the planner can rule out wholesale (by time range or frame
    /// AABB) cost zero payload bytes; indexed frames decode only surviving
    /// sections; unindexed or untrustworthy frames decode every section,
    /// filtered as they decode — results are identical either way.
    pub fn query(&self, query: &Query) -> Result<QueryResult, StoreError> {
        let _span = self.metrics.span("store.query");
        let mut res = QueryResult { frames_scanned: self.frames.len(), ..QueryResult::default() };
        for frame in &self.frames {
            res.bytes_total += frame.bytes.len() as u64;
            let frame_meta = SectionMeta {
                aabb: frame.directory.as_ref().and_then(|d| d.frame_aabb()),
                empty: frame.header.declared_points == 0,
                class: None,
                lod_depth: None,
                time_us: Some(frame.time_us),
                r_interval: None,
            };
            if plan(query, &frame_meta) == Verdict::Skip {
                res.frames_pruned += 1;
                continue;
            }
            let body = &frame.bytes[..frame.body_len];
            let first = res.points.len();
            if let Some(dir) = &frame.directory {
                let mut sink = QuerySink::new(query, frame, Some(dir), &mut res.points);
                if decode_body(body, &frame.header, &dir.spans(), &mut sink, None).is_ok() {
                    res.frames_partial += 1;
                    let index_bytes = frame.bytes.len() - frame.body_len;
                    res.bytes_touched +=
                        (frame.header.header_len + index_bytes) as u64 + sink.section_bytes;
                    self.metrics.incr("store.sections_skipped", sink.sections_skipped as u64);
                    self.metrics.incr("store.sections_decoded", sink.sections_decoded as u64);
                    continue;
                }
                // The index lied about the stream: drop what the walk kept
                // and fall back to the trusted full decode below.
                res.points.truncate(first);
            }
            if frame.directory.is_some() || frame.index_corrupt {
                res.frames_fallback += 1;
                self.metrics.incr("store.index_fallbacks", 1);
            }
            res.bytes_touched += frame.bytes.len() as u64;
            let spans = section_spans(body, &frame.header)?;
            let mut sink = QuerySink::new(query, frame, None, &mut res.points);
            decode_body(body, &frame.header, &spans, &mut sink, None)?;
        }
        self.metrics.add_bytes("store.bytes_touched", res.bytes_touched);
        self.metrics.add_bytes("store.bytes_total", res.bytes_total);
        self.metrics.incr("store.frames_pruned", res.frames_pruned as u64);
        Ok(res)
    }
}
