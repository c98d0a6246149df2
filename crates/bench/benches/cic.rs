//! Criterion benchmarks of the reference CIC deposit and interpolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hacc_pm::{deposit_cic, interpolate_cic};

fn particles(np: usize, n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut s = 99u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) as f32 * n as f32
    };
    let xs: Vec<f32> = (0..np).map(|_| next()).collect();
    let ys: Vec<f32> = (0..np).map(|_| next()).collect();
    let zs: Vec<f32> = (0..np).map(|_| next()).collect();
    (xs, ys, zs)
}

fn bench_cic(c: &mut Criterion) {
    let n = 64usize;
    let np = 100_000usize;
    let (xs, ys, zs) = particles(np, n);
    let mut group = c.benchmark_group("cic");
    group.throughput(Throughput::Elements(np as u64));
    group.bench_function(BenchmarkId::new("deposit", np), |b| {
        b.iter(|| {
            let mut grid = vec![0.0f64; n * n * n];
            deposit_cic(&mut grid, n, &xs, &ys, &zs, 1.0);
            std::hint::black_box(grid)
        });
    });
    let grid = vec![1.0f64; n * n * n];
    group.bench_function(BenchmarkId::new("interpolate", np), |b| {
        b.iter(|| std::hint::black_box(interpolate_cic(&grid, n, &xs, &ys, &zs)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_cic
}
criterion_main!(benches);
