//! Criterion benches for the clustering algorithms (§4.3's speedup claims).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dbgc_clustering::{approx_cluster, cell_based_cluster, dbscan, ClusterParams};
use dbgc_geom::Point3;
use rand::{Rng, SeedableRng};

fn mixed_cloud(n: usize) -> Vec<Point3> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                // Sparse far field.
                let r = rng.gen_range(25.0..80.0);
                let th = rng.gen_range(0.0..std::f64::consts::TAU);
                Point3::new(r * th.cos(), r * th.sin(), rng.gen_range(-1.8..2.0))
            } else {
                // Dense near field.
                Point3::new(
                    rng.gen_range(-6.0..6.0),
                    rng.gen_range(-6.0..6.0),
                    rng.gen_range(-1.8..-1.6),
                )
            }
        })
        .collect()
}

fn bench_clustering(c: &mut Criterion) {
    let points = mixed_cloud(60_000);
    let params = ClusterParams::surface_default(0.02, 10);
    let mut g = c.benchmark_group("clustering_60k");
    g.throughput(Throughput::Elements(points.len() as u64));
    g.sample_size(10);
    g.bench_function("approximate", |b| {
        b.iter(|| approx_cluster(&points, params, 0));
    });
    g.bench_function("cell_based", |b| {
        b.iter(|| cell_based_cluster(&points, params, 0));
    });
    g.bench_function("dbscan", |b| {
        b.iter(|| dbscan(&points, params, 0));
    });
    g.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
