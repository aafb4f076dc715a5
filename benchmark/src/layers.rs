//! Per-layer metrics every workload reports, named after the crates.
//!
//! Every workload compresses frames (in its timed loop or in set-up) and
//! decodes frames (in its loop, in the fleet, or in its output check), so
//! each of these metrics is measured on every workload. Layers only one
//! workload enters (`net`, `fleet`, `store`) are printed in the traced
//! layer table and written to the trace snapshot instead.

use dbgc::{CompressionStats, DecompressStats};

use crate::inputs::GenCost;
use crate::stats::mean;
use crate::Metric;

/// Names and units of the per-layer metrics, in report order. The
/// `per_layer` list of `BENCHMARK.json` declares exactly these.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("lidar_sim.gen_ms_per_frame", "ms"),
    ("clustering.den_ms", "ms"),
    ("clustering.dense_frac", "ratio"),
    ("octree.oct_ms", "ms"),
    ("core.cor_ms", "ms"),
    ("core.org_ms", "ms"),
    ("core.spa_ms", "ms"),
    ("core.out_ms", "ms"),
    ("core.splice_us", "us"),
    ("core.polylines_per_frame", "count"),
    ("core.outlier_frac", "ratio"),
    ("codec.bytes_header", "bytes"),
    ("codec.bytes_dense", "bytes"),
    ("codec.bytes_sparse", "bytes"),
    ("codec.bytes_outlier", "bytes"),
    ("octree.decode_ms", "ms"),
    ("core.decode_spa_ms", "ms"),
    ("core.decode_cor_ms", "ms"),
    ("core.decode_out_ms", "ms"),
    ("metrics.trace_overhead_frac", "ratio"),
];

/// What a workload observed of the codec layers.
#[derive(Debug, Default)]
pub struct Layers {
    /// Frame synthesis during set-up.
    pub gen: GenCost,
    /// Stats of every frame the workload compressed.
    pub compress: Vec<CompressionStats>,
    /// Stage times of every frame the workload decoded.
    pub decode: Vec<DecompressStats>,
    /// Traced headline p50 over untraced headline p50, minus one.
    pub trace_overhead_frac: f64,
}

impl Layers {
    /// Mean compressed-stage times summed, in ms (the "stages account for
    /// the frame" check of the traced table).
    pub fn stage_sum_ms(&self) -> f64 {
        self.compress_mean(|s| s.timing.total().as_secs_f64() * 1e3)
    }

    fn compress_mean(&self, f: impl Fn(&CompressionStats) -> f64) -> f64 {
        mean(&self.compress.iter().map(f).collect::<Vec<_>>())
    }

    fn decode_mean(&self, f: impl Fn(&DecompressStats) -> f64) -> f64 {
        mean(&self.decode.iter().map(f).collect::<Vec<_>>())
    }

    /// The [`PER_LAYER`] metrics, in order. `splice_us` is the mean of the
    /// library's `compress.splice_us` histogram over the traced calls.
    pub fn metrics(&self, splice_us: f64) -> Vec<Metric> {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let values = [
            self.gen.ms_per_frame(),
            self.compress_mean(|s| ms(s.timing.den)),
            self.compress_mean(|s| s.dense_fraction()),
            self.compress_mean(|s| ms(s.timing.oct)),
            self.compress_mean(|s| ms(s.timing.cor)),
            self.compress_mean(|s| ms(s.timing.org)),
            self.compress_mean(|s| ms(s.timing.spa)),
            self.compress_mean(|s| ms(s.timing.out)),
            splice_us,
            self.compress_mean(|s| s.polylines as f64),
            self.compress_mean(|s| s.outlier_fraction()),
            self.compress_mean(|s| s.sections.header as f64),
            self.compress_mean(|s| s.sections.dense as f64),
            self.compress_mean(|s| s.sections.sparse as f64),
            self.compress_mean(|s| s.sections.outlier as f64),
            self.decode_mean(|d| ms(d.oct)),
            self.decode_mean(|d| ms(d.spa)),
            self.decode_mean(|d| ms(d.cor)),
            self.decode_mean(|d| ms(d.out)),
            self.trace_overhead_frac,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect()
    }
}
