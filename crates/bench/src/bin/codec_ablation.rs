//! Codec ablation: which entropy coder should carry each DBGC stream?
//!
//! The paper picks Deflate for the azimuthal streams (repeated patterns) and
//! arithmetic coding for the rest (§3.5 steps 6-7). This experiment extracts
//! the actual polyline delta streams from a simulated frame and compares
//! four back-ends on each: adaptive range coding, the deflate-like codec,
//! fixed-width bit-packing, and frame-of-reference packing.
//!
//! ```text
//! cargo run --release -p dbgc-bench --bin codec_ablation
//! ```

use dbgc::sparse::organize::organize_sparse_points;
use dbgc_bench::{print_table, scene_frame, Q_TYPICAL};
use dbgc_clustering::approx_cluster;
use dbgc_codec::{bitpack_encode, for_encode, intseq, shannon_entropy};
use dbgc_geom::quant::SphericalQuant;
use dbgc_geom::Spherical;
use dbgc_lidar_sim::ScenePreset;

fn sizes(vals: &[i64]) -> [usize; 4] {
    let mut rc = Vec::new();
    intseq::compress_ints_rc(&mut rc, vals, 1);
    let mut df = Vec::new();
    intseq::compress_ints_deflate(&mut df, vals);
    [rc.len(), df.len(), bitpack_encode(vals).len(), for_encode(vals).len()]
}

fn main() {
    let cloud = scene_frame(ScenePreset::KittiCity);
    let cfg = dbgc::DbgcConfig::with_error_bound(Q_TYPICAL);
    let split = approx_cluster(cloud.points(), cfg.cluster_params(), cfg.threads);
    let (_, sparse_idx) = split.partition_indices();
    let sph: Vec<Spherical> =
        sparse_idx.iter().map(|&i| cloud.points()[i].to_spherical()).collect();
    let cart: Vec<_> = sparse_idx.iter().map(|&i| cloud.points()[i]).collect();
    let r_max = sph.iter().map(|s| s.r).fold(0.0f64, f64::max);
    let organized = organize_sparse_points(
        &sph,
        &cart,
        cfg.sensor.u_theta(),
        cfg.sensor.u_phi(),
        cfg.min_polyline_len,
    );
    let sq = SphericalQuant::from_error_bound(Q_TYPICAL, r_max);
    let lines: Vec<Vec<[i64; 3]>> = organized
        .polylines
        .iter()
        .map(|l| l.iter().map(|&i| sq.quantize(sph[i as usize])).collect())
        .collect();

    // The streams DBGC actually produces (step 2 deltas).
    let tail_deltas = |c: usize| -> Vec<i64> {
        let mut v = Vec::new();
        for l in &lines {
            for k in 1..l.len() {
                v.push(l[k][c] - l[k - 1][c]);
            }
        }
        v
    };
    let heads = |c: usize| -> Vec<i64> {
        dbgc_codec::delta_encode(&lines.iter().map(|l| l[0][c]).collect::<Vec<_>>())
    };
    let streams: [(&str, Vec<i64>); 5] = [
        ("Δθ tails", tail_deltas(0)),
        ("Δφ tails", tail_deltas(1)),
        ("Δr tails", tail_deltas(2)),
        ("Δθ heads", heads(0)),
        ("lengths", organized.polylines.iter().map(|l| l.len() as i64).collect()),
    ];

    println!(
        "Codec ablation — real polyline streams from {} (q = {} m, {} lines)\n",
        ScenePreset::KittiCity.name(),
        Q_TYPICAL,
        lines.len()
    );
    let header: Vec<String> =
        ["stream", "values", "H (bits)", "range", "deflate", "bitpack", "FOR"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let mut rows = Vec::new();
    for (name, vals) in &streams {
        let h = shannon_entropy(vals.iter().copied());
        let s = sizes(vals);
        rows.push(vec![
            name.to_string(),
            vals.len().to_string(),
            format!("{h:.2}"),
            s[0].to_string(),
            s[1].to_string(),
            s[2].to_string(),
            s[3].to_string(),
        ]);
    }
    print_table(&header, &rows);
    println!(
        "\nTakeaway: the entropy coders (range/deflate) track H(L); bit-packing \
         pays for every outlier bit in the block, which is why DBGC's pipeline \
         entropy-codes its delta streams rather than packing them."
    );
}
