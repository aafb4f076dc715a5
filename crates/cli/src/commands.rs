//! Command implementations.

use std::io::Write;

use std::path::Path;

use dbgc::{decompress, inspect, Dbgc};
use dbgc_geom::{ErrorReport, PointCloud};
use dbgc_lidar_sim::{kitti, pcd, ply};

use crate::args::{Command, USAGE};
use crate::CliError;

/// Load a point cloud, dispatching on the file extension.
pub fn read_cloud(path: &Path) -> Result<PointCloud, CliError> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => Ok(kitti::read_bin(path)?),
        Some("ply") => Ok(ply::read_ply(path)?),
        Some("pcd") => Ok(pcd::read_pcd(path)?),
        other => Err(CliError::Invalid(format!(
            "unknown point-cloud extension {other:?} (expected bin/ply/pcd): {}",
            path.display()
        ))),
    }
}

/// Write a point cloud, dispatching on the file extension.
pub fn write_cloud(path: &Path, cloud: &PointCloud) -> Result<(), CliError> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => Ok(kitti::write_bin(path, cloud)?),
        Some("ply") => Ok(ply::write_ply(path, cloud, ply::PlyFormat::BinaryLittleEndian)?),
        Some("pcd") => Ok(pcd::write_pcd(path, cloud, pcd::PcdFormat::Binary)?),
        other => Err(CliError::Invalid(format!(
            "unknown point-cloud extension {other:?} (expected bin/ply/pcd): {}",
            path.display()
        ))),
    }
}

/// Build the collector for a `--metrics-out` run, pre-labelled with the
/// command and input path.
fn metrics_collector(command: &str, input: &Path) -> dbgc::metrics::Collector {
    let collector = dbgc::metrics::Collector::new();
    collector.set_label("command", command);
    collector.set_label("input", &input.display().to_string());
    collector
}

/// Write the collector's snapshot as JSON to `path`.
fn write_metrics_snapshot(
    path: &Path,
    collector: &dbgc::metrics::Collector,
) -> Result<(), CliError> {
    std::fs::write(path, collector.snapshot().to_json())?;
    Ok(())
}

/// Execute a parsed command, writing its report to `out`.
pub fn execute(command: Command, out: &mut impl Write) -> Result<(), CliError> {
    match command {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Compress { input, output, config, metrics_out } => {
            config.validate().map_err(CliError::Invalid)?;
            let cloud = read_cloud(&input)?;
            let dbgc = Dbgc::new(config);
            let collector = metrics_out.as_ref().map(|_| metrics_collector("compress", &input));
            let frame = match &collector {
                Some(c) => dbgc.compress_with_metrics(&cloud, c)?,
                None => dbgc.compress(&cloud)?,
            };
            std::fs::write(&output, &frame.bytes)?;
            if let (Some(path), Some(c)) = (&metrics_out, &collector) {
                c.set_gauge("compression_ratio", frame.compression_ratio());
                c.set_gauge("bits_per_point", frame.stats.bits_per_point());
                write_metrics_snapshot(path, c)?;
                writeln!(out, "metrics snapshot -> {}", path.display())?;
            }
            let s = &frame.stats;
            writeln!(
                out,
                "{} -> {}: {} points, {} bytes, ratio {:.2}x ({:.2} bits/point)",
                input.display(),
                output.display(),
                s.total_points,
                frame.bytes.len(),
                frame.compression_ratio(),
                s.bits_per_point()
            )?;
            writeln!(
                out,
                "split: {:.1}% dense | {} polylines | {:.2}% outliers",
                100.0 * s.dense_fraction(),
                s.polylines,
                100.0 * s.outlier_fraction()
            )?;
            Ok(())
        }
        Command::Decompress { input, output } => {
            let bytes = std::fs::read(&input)?;
            let (cloud, _) = decompress(&bytes)?;
            write_cloud(&output, &cloud)?;
            writeln!(
                out,
                "{} -> {}: {} points restored",
                input.display(),
                output.display(),
                cloud.len()
            )?;
            Ok(())
        }
        Command::Info { input } => {
            let bytes = std::fs::read(&input)?;
            let info = inspect(&bytes)?;
            writeln!(out, "{}:", input.display())?;
            writeln!(out, "  points        {}", info.points)?;
            writeln!(out, "  error bound   {} m", info.q_xyz)?;
            writeln!(
                out,
                "  mode          {}{}",
                if info.spherical { "spherical" } else { "cartesian" },
                if info.radial { " + radial-optimized" } else { "" }
            )?;
            writeln!(out, "  groups        {}", info.groups)?;
            writeln!(out, "  total bytes   {}", info.total_bytes)?;
            writeln!(out, "    dense       {}", info.dense_bytes)?;
            writeln!(out, "    sparse      {}", info.sparse_bytes)?;
            writeln!(out, "    outliers    {}", info.outlier_bytes)?;
            if info.index_bytes > 0 {
                writeln!(out, "    index       {}", info.index_bytes)?;
            }
            writeln!(out, "  ratio         {:.2}x", info.compression_ratio())?;
            Ok(())
        }
        Command::Query { input, query, output } => {
            let bytes = std::fs::read(&input)?;
            let mut store = dbgc_store::FrameStore::new();
            store.ingest(bytes, 0).map_err(|e| CliError::Invalid(e.to_string()))?;
            let res = store.query(&query).map_err(|e| CliError::Invalid(e.to_string()))?;
            // The one frame took exactly one path; name the one it took.
            let path = if res.frames_partial > 0 {
                "partial decode"
            } else if res.frames_fallback > 0 {
                "full decode, index fallback"
            } else if res.frames_pruned > 0 {
                "pruned, nothing decoded"
            } else {
                "full decode, no index"
            };
            writeln!(out, "{}: {} matching points ({path})", input.display(), res.points.len())?;
            writeln!(
                out,
                "  bytes touched {} / {} ({:.1}%)",
                res.bytes_touched,
                res.bytes_total,
                100.0 * res.bytes_touched as f64 / res.bytes_total.max(1) as f64
            )?;
            if let Some(path) = output {
                let cloud: PointCloud = res.points.iter().map(|r| r.point.pos).collect();
                write_cloud(&path, &cloud)?;
                writeln!(out, "  matches -> {}", path.display())?;
            }
            Ok(())
        }
        Command::Roundtrip { input, config, metrics_out } => {
            config.validate().map_err(CliError::Invalid)?;
            let q = config.q_xyz;
            let cloud = read_cloud(&input)?;
            let dbgc = Dbgc::new(config);
            let collector = metrics_out.as_ref().map(|_| metrics_collector("roundtrip", &input));
            let frame = match &collector {
                Some(c) => dbgc.compress_with_metrics(&cloud, c)?,
                None => dbgc.compress(&cloud)?,
            };
            let (restored, _) = match &collector {
                Some(c) => dbgc::decompress_with_metrics(&frame.bytes, c)?,
                None => decompress(&frame.bytes)?,
            };
            let report = ErrorReport::paired(&cloud, &restored, &frame.mapping)
                .map_err(|e| CliError::Invalid(e.to_string()))?;
            let bound = 3f64.sqrt() * q;
            writeln!(
                out,
                "{}: {} points, ratio {:.2}x, max error {:.4} m (bound {:.4} m) -> {}",
                input.display(),
                cloud.len(),
                frame.compression_ratio(),
                report.max_euclidean_error,
                bound,
                if report.max_euclidean_error <= bound * (1.0 + 1e-9) { "OK" } else { "VIOLATION" }
            )?;
            if let (Some(path), Some(c)) = (&metrics_out, &collector) {
                c.set_gauge("compression_ratio", frame.compression_ratio());
                c.set_gauge("max_euclidean_error", report.max_euclidean_error);
                write_metrics_snapshot(path, c)?;
                writeln!(out, "metrics snapshot -> {}", path.display())?;
            }
            if report.max_euclidean_error > bound * (1.0 + 1e-9) {
                return Err(CliError::Invalid("error bound violated".into()));
            }
            Ok(())
        }
        Command::Convert { input, output } => {
            let cloud = read_cloud(&input)?;
            write_cloud(&output, &cloud)?;
            writeln!(
                out,
                "{} -> {}: {} points converted",
                input.display(),
                output.display(),
                cloud.len()
            )?;
            Ok(())
        }
        Command::Simulate { scene, output, seed, frame } => {
            let cloud = dbgc_lidar_sim::frame(scene, seed, frame);
            write_cloud(&output, &cloud)?;
            writeln!(
                out,
                "wrote {} ({} points, scene {}, seed {seed}, frame {frame})",
                output.display(),
                cloud.len(),
                scene.name()
            )?;
            Ok(())
        }
        Command::FleetServe(config) => crate::fleet_ops::FleetOpsServer::start(&config)?.run(out),
        Command::FleetCtl { ops_addr, action } => crate::fleet_ops::ctl(&ops_addr, &action, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use dbgc_geom::{Point3, PointCloud};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dbgc_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn ring_bin(name: &str, n: usize) -> PathBuf {
        let cloud: PointCloud = (0..n)
            .map(|i| {
                let th = i as f64 / n as f64 * std::f64::consts::TAU;
                Point3::new(25.0 * th.cos(), 25.0 * th.sin(), -1.7)
            })
            .collect();
        let path = tmp(name);
        kitti::write_bin(&path, &cloud).unwrap();
        path
    }

    fn run_str(line: &str) -> String {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let mut out = Vec::new();
        execute(parse(&argv).unwrap(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn compress_decompress_info_flow() {
        let bin = ring_bin("flow.bin", 4000);
        let dbgc_path = tmp("flow.dbgc");
        let restored = tmp("flow.out.bin");

        let report = run_str(&format!(
            "compress {} {} --error-bound 0.02",
            bin.display(),
            dbgc_path.display()
        ));
        assert!(report.contains("4000 points"), "{report}");
        assert!(report.contains("ratio"));

        let report = run_str(&format!("info {}", dbgc_path.display()));
        assert!(report.contains("points        4000"), "{report}");
        assert!(report.contains("spherical + radial-optimized"));

        let report = run_str(&format!("decompress {} {}", dbgc_path.display(), restored.display()));
        assert!(report.contains("4000 points restored"));

        let back = kitti::read_bin(&restored).unwrap();
        assert_eq!(back.len(), 4000);
    }

    #[test]
    fn compress_writes_metrics_snapshot() {
        let bin = ring_bin("met.bin", 2500);
        let dbgc_path = tmp("met.dbgc");
        let snap_path = tmp("met.json");
        let report = run_str(&format!(
            "compress {} {} --metrics-out {}",
            bin.display(),
            dbgc_path.display(),
            snap_path.display()
        ));
        assert!(report.contains("metrics snapshot"), "{report}");
        let json = std::fs::read_to_string(&snap_path).unwrap();
        for needle in [
            "\"schema\": \"dbgc-metrics\"",
            "\"version\": 1",
            "\"command\": \"compress\"",
            "\"compress.frames\": 1",
            "\"compression_ratio\"",
            "\"name\": \"compress\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // The snapshot's byte channels must partition the written stream.
        let stream_len = std::fs::metadata(&dbgc_path).unwrap().len();
        assert!(json.contains("\"header\""), "{json}");
        let collector = dbgc::metrics::Collector::new();
        let cloud = kitti::read_bin(&bin).unwrap();
        let frame = Dbgc::new(dbgc::DbgcConfig::default())
            .compress_with_metrics(&cloud, &collector)
            .unwrap();
        assert_eq!(frame.bytes.len() as u64, stream_len);
        assert_eq!(collector.snapshot().bytes_total(), stream_len);
    }

    #[test]
    fn roundtrip_metrics_snapshot_has_decode_spans() {
        let bin = ring_bin("metrt.bin", 1500);
        let snap_path = tmp("metrt.json");
        let report =
            run_str(&format!("roundtrip {} --metrics-out {}", bin.display(), snap_path.display()));
        assert!(report.contains("-> OK"), "{report}");
        let json = std::fs::read_to_string(&snap_path).unwrap();
        assert!(json.contains("\"name\": \"decompress\""), "{json}");
        assert!(json.contains("\"decompress.frames\": 1"), "{json}");
        assert!(json.contains("\"max_euclidean_error\""), "{json}");
    }

    #[test]
    fn roundtrip_reports_ok() {
        let bin = ring_bin("rt.bin", 3000);
        let report = run_str(&format!("roundtrip {} --error-bound 0.01", bin.display()));
        assert!(report.contains("-> OK"), "{report}");
    }

    #[test]
    fn simulate_writes_a_frame() {
        let out_path = tmp("sim.bin");
        let report =
            run_str(&format!("simulate kitti-road {} --seed 2 --frame 1", out_path.display()));
        assert!(report.contains("kitti-road"), "{report}");
        let cloud = kitti::read_bin(&out_path).unwrap();
        assert!(cloud.len() > 50_000);
    }

    #[test]
    fn query_flow_partial_and_full() {
        let bin = ring_bin("query.bin", 5000);
        let indexed = tmp("query.dbgc");
        let plain = tmp("query_plain.dbgc");
        run_str(&format!("compress {} {} --index", bin.display(), indexed.display()));
        run_str(&format!("compress {} {}", bin.display(), plain.display()));

        let report = run_str(&format!("info {}", indexed.display()));
        assert!(report.contains("index"), "{report}");

        // A selective box over the +x rim: the indexed stream answers it by
        // partial decode without reading most section bytes.
        let matches_out = tmp("query_hits.bin");
        let report = run_str(&format!(
            "query {} --aabb 20,-9,-3,26,9,0 --out {}",
            indexed.display(),
            matches_out.display()
        ));
        assert!(report.contains("partial decode"), "{report}");
        let hits = kitti::read_bin(&matches_out).unwrap();
        assert!(!hits.is_empty() && hits.len() < 5000, "{} hits", hits.len());

        // Same query on the index-less stream: same points, full decode.
        let report_plain = run_str(&format!("query {} --aabb 20,-9,-3,26,9,0", plain.display()));
        assert!(report_plain.contains("full decode, no index"), "{report_plain}");
        let n: usize = report_plain
            .split(": ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert_eq!(n, hits.len());

        // `query` with no predicates returns everything.
        let report_all = run_str(&format!("query {}", indexed.display()));
        assert!(report_all.contains("5000 matching points"), "{report_all}");

        // A box the frame's bounds miss decodes nothing.
        let report = run_str(&format!("query {} --aabb 90,90,90,91,91,91", indexed.display()));
        assert!(report.contains("0 matching points (pruned"), "{report}");

        // A corrupt trailer is not "no index": the fallback answered.
        let mut bytes = std::fs::read(&indexed).unwrap();
        // The payload's last byte: the CRC, length, version and magic after
        // it take 13 bytes.
        let last = bytes.len() - 14;
        bytes[last] ^= 0x10;
        let corrupt = tmp("query_corrupt.dbgc");
        std::fs::write(&corrupt, bytes).unwrap();
        let report = run_str(&format!("query {} --aabb 20,-9,-3,26,9,0", corrupt.display()));
        assert!(report.contains("full decode, index fallback"), "{report}");
        assert!(report.contains(&format!(": {} matching points", hits.len())), "{report}");
    }

    #[test]
    fn convert_between_formats() {
        let bin = ring_bin("conv.bin", 600);
        let ply_path = tmp("conv.ply");
        let pcd_path = tmp("conv.pcd");
        run_str(&format!("convert {} {}", bin.display(), ply_path.display()));
        run_str(&format!("convert {} {}", ply_path.display(), pcd_path.display()));
        let back = dbgc_lidar_sim::pcd::read_pcd(&pcd_path).unwrap();
        assert_eq!(back.len(), 600);
    }

    #[test]
    fn compress_from_ply() {
        let bin = ring_bin("cp.bin", 900);
        let ply_path = tmp("cp.ply");
        run_str(&format!("convert {} {}", bin.display(), ply_path.display()));
        let dbgc_path = tmp("cp.dbgc");
        let report = run_str(&format!("compress {} {}", ply_path.display(), dbgc_path.display()));
        assert!(report.contains("900 points"), "{report}");
    }

    #[test]
    fn unknown_extension_rejected() {
        let argv: Vec<String> =
            ["convert", "a.xyz", "b.bin"].iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        assert!(matches!(execute(parse(&argv).unwrap(), &mut out), Err(CliError::Invalid(_))));
    }

    #[test]
    fn help_prints_usage() {
        let report = run_str("--help");
        assert!(report.contains("USAGE"));
    }

    #[test]
    fn missing_file_is_io_error() {
        let argv: Vec<String> =
            ["info", "/nonexistent/never.dbgc"].iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        assert!(matches!(execute(parse(&argv).unwrap(), &mut out), Err(CliError::Io(_))));
    }
}
