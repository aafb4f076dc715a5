//! §4.3 "Approximate Density-based Clustering": exact cell-based vs the
//! O(n) approximation — dense-set agreement, clustering-time speedup, and
//! end-to-end compression speedup.
//!
//! ```text
//! cargo run --release -p dbgc-bench --bin approx_clustering
//! ```

use dbgc::{ClusteringAlgorithm, Dbgc, DbgcConfig, SplitStrategy};
use dbgc_bench::{scene_frame, timed, Q_TYPICAL};
use dbgc_clustering::{approx_cluster, cell_based_cluster};
use dbgc_lidar_sim::ScenePreset;

fn main() {
    let cloud = scene_frame(ScenePreset::KittiCity);
    let params = DbgcConfig::with_error_bound(Q_TYPICAL).cluster_params();
    println!(
        "§4.3 — {} ({} points), eps = {} m, minPts = {}\n",
        ScenePreset::KittiCity.name(),
        cloud.len(),
        params.eps,
        params.min_pts
    );

    const REPS: usize = 3;
    let mut exact_t = 0.0;
    let mut approx_t = 0.0;
    let mut exact = None;
    let mut approx = None;
    for _ in 0..REPS {
        let (e, te) = timed(|| cell_based_cluster(cloud.points(), params, 0));
        let (a, ta) = timed(|| approx_cluster(cloud.points(), params, 0));
        exact_t += te.as_secs_f64() / REPS as f64;
        approx_t += ta.as_secs_f64() / REPS as f64;
        exact = Some(e);
        approx = Some(a);
    }
    let (exact, approx) = (exact.expect("reps > 0"), approx.expect("reps > 0"));

    let agree = exact.dense.iter().zip(&approx.dense).filter(|(a, b)| a == b).count();
    println!(
        "dense sets: exact {:.1}% dense, approx {:.1}% dense, agreement {:.1}%",
        100.0 * exact.dense_fraction(),
        100.0 * approx.dense_fraction(),
        100.0 * agree as f64 / cloud.len() as f64
    );
    println!(
        "clustering time: exact {:.1} ms, approx {:.1} ms -> {:.1}x speedup \
         (paper: ~2x)",
        exact_t * 1e3,
        approx_t * 1e3,
        exact_t / approx_t
    );

    // End-to-end effect.
    let e2e = |alg: ClusteringAlgorithm| {
        let mut cfg = DbgcConfig::with_error_bound(Q_TYPICAL);
        cfg.split = SplitStrategy::Density(alg);
        let dbgc = Dbgc::new(cfg);
        let mut total = 0.0;
        let mut ratio = 0.0;
        for _ in 0..REPS {
            let (f, t) = timed(|| dbgc.compress(&cloud).expect("compress"));
            total += t.as_secs_f64() / REPS as f64;
            ratio = f.compression_ratio();
        }
        (total, ratio)
    };
    let (t_exact, r_exact) = e2e(ClusteringAlgorithm::CellBased);
    let (t_approx, r_approx) = e2e(ClusteringAlgorithm::Approximate);
    println!(
        "end-to-end compression: exact {:.0} ms (ratio {:.2}), approx {:.0} ms \
         (ratio {:.2}) -> {:.2}x speedup (paper: ~1.2x)",
        t_exact * 1e3,
        r_exact,
        t_approx * 1e3,
        r_approx,
        t_exact / t_approx
    );
}
