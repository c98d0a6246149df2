//! Criterion microbenchmarks of the short-range force kernel (the Fig. 5
//! inner loop): throughput vs shared-interaction-list length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hacc_short::ForceKernel;

fn synth(m: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut s = 12345u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) as f32 * 2.0 - 1.0
    };
    let nx: Vec<f32> = (0..m).map(|_| next()).collect();
    let ny: Vec<f32> = (0..m).map(|_| next()).collect();
    let nz: Vec<f32> = (0..m).map(|_| next()).collect();
    (nx, ny, nz, vec![1.0; m])
}

fn bench_kernel(c: &mut Criterion) {
    let kernel = ForceKernel::new([0.08, -0.01, 0.0008, -3e-5, 5e-7, -4e-9], 3.0, 1e-5);
    let mut group = c.benchmark_group("force_kernel");
    for &m in &[64usize, 256, 1024, 4096] {
        let (nx, ny, nz, nm) = synth(m);
        group.throughput(Throughput::Elements(m as u64 * 16));
        group.bench_with_input(BenchmarkId::new("list_len", m), &m, |b, _| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for t in 0..16 {
                    let f = kernel.force_on(t as f32 * 0.05, 0.1, -0.1, &nx, &ny, &nz, &nm);
                    acc += f[0] + f[1] + f[2];
                }
                std::hint::black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernel
}
criterion_main!(benches);
