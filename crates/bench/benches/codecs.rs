//! Criterion micro-benches for the entropy-coding substrates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn skewed_bytes(n: usize) -> Vec<u8> {
    (0..n as u32).map(|i| if i % 11 == 0 { (i % 7) as u8 + 1 } else { 0 }).collect()
}

fn textish_bytes(n: usize) -> Vec<u8> {
    b"polyline organization in spherical coordinates ".iter().cycle().take(n).copied().collect()
}

fn random_bytes(n: usize) -> Vec<u8> {
    (0..n as u32).map(|i| (i.wrapping_mul(2654435761) >> 17) as u8).collect()
}

fn bench_range_coder(c: &mut Criterion) {
    let mut g = c.benchmark_group("range_coder");
    for (label, data) in [("skewed", skewed_bytes(1 << 16)), ("random", random_bytes(1 << 16))] {
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("compress", label), &data, |b, data| {
            b.iter(|| dbgc_codec::range::rc_compress_bytes(data));
        });
        let compressed = dbgc_codec::range::rc_compress_bytes(&data);
        g.bench_with_input(BenchmarkId::new("decompress", label), &compressed, |b, comp| {
            b.iter(|| dbgc_codec::range::rc_decompress_bytes(comp, data.len()).unwrap());
        });
    }
    g.finish();
}

fn bench_deflate(c: &mut Criterion) {
    let mut g = c.benchmark_group("deflate");
    for (label, data) in [("textish", textish_bytes(1 << 16)), ("random", random_bytes(1 << 16))] {
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("compress", label), &data, |b, data| {
            b.iter(|| dbgc_codec::deflate_compress(data));
        });
        let compressed = dbgc_codec::deflate_compress(&data);
        g.bench_with_input(BenchmarkId::new("decompress", label), &compressed, |b, comp| {
            b.iter(|| dbgc_codec::deflate_decompress(comp).unwrap());
        });
    }
    g.finish();
}

fn bench_intseq(c: &mut Criterion) {
    let vals: Vec<i64> = (0..50_000).map(|i| 1000 + (i % 17) - 8).collect();
    let mut g = c.benchmark_group("intseq");
    g.throughput(Throughput::Elements(vals.len() as u64));
    g.bench_function("delta_rc_compress", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            dbgc_codec::intseq::compress_ints_delta_rc(&mut out, &vals, 1);
            out
        });
    });
    g.bench_function("varint_encode", |b| {
        b.iter(|| dbgc_codec::intseq::ints_to_bytes(&vals));
    });
    g.finish();
}

fn bench_huffman(c: &mut Criterion) {
    let data = textish_bytes(1 << 16);
    let mut freqs = vec![0u64; 256];
    for &b in &data {
        freqs[b as usize] += 1;
    }
    c.bench_function("huffman/encode_64k", |b| {
        let enc = dbgc_codec::HuffmanEncoder::from_frequencies(&freqs);
        b.iter(|| {
            let mut w = dbgc_codec::BitWriter::new();
            for &byte in &data {
                enc.encode(&mut w, byte as usize);
            }
            w.finish()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_range_coder, bench_deflate, bench_intseq, bench_huffman
}
criterion_main!(benches);
