//! Criterion benchmarks of the FFT stack: 1-D plans (radix mix vs
//! Bluestein), batched lines across the radix mix, serial 3-D transforms
//! (complex and real at the `pm.*` benchmark mesh), and one Poisson-solve
//! composition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hacc_fft::{Complex64, Fft1d, Fft3, RealFft3};
use hacc_pm::{PmSolver, SpectralParams};

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new(((i * 37) % 101) as f64 / 50.0 - 1.0, 0.0))
        .collect()
}

fn bench_fft1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft1d");
    // Power of two, mixed radix, and prime (Bluestein) sizes.
    for &n in &[256usize, 240, 251, 1024, 1000] {
        let plan = Fft1d::new(n);
        let data = signal(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            let mut scratch = plan.make_scratch();
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    plan.forward(&mut d, &mut scratch);
                    d
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Four batch-major lines per call, the layout every 3-D pass feeds the
/// kernels: 128 is pure radix-2/4, 48 and 96 add a radix-3 stage and 160 a
/// radix-5 one, so a stage without a vector lowering shows as a per-line
/// outlier.
fn bench_batch(c: &mut Criterion) {
    const BATCH: usize = 4;
    let mut group = c.benchmark_group("fft1d_batch4");
    for &n in &[48usize, 96, 128, 160] {
        let plan = Fft1d::new(n);
        let data = signal(n * BATCH);
        group.throughput(Throughput::Elements((n * BATCH) as u64));
        group.bench_with_input(BenchmarkId::new("transform_batch", n), &n, |b, _| {
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len_batch(BATCH)];
            let mut d = data.clone();
            b.iter(|| {
                plan.transform_batch(&mut d, BATCH, &mut scratch, false);
                std::hint::black_box(&mut d);
            });
        });
    }
    group.finish();
}

fn bench_fft3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft3");
    for &n in &[32usize, 48] {
        let plan = Fft3::new_cubic(n);
        let data = signal(n * n * n);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    plan.forward(&mut d);
                    d
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// The r2c/c2r pair at 96³, the mesh of the `pm.*` benchmark workloads.
fn bench_real3(c: &mut Criterion) {
    let mut group = c.benchmark_group("rfft3");
    group.sample_size(10);
    let n = 96;
    let plan = RealFft3::new_cubic(n);
    let field: Vec<f64> = (0..n * n * n)
        .map(|i| ((i * 37) % 101) as f64 / 50.0 - 1.0)
        .collect();
    let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
    let mut out = vec![0.0; n * n * n];
    group.throughput(Throughput::Elements((n * n * n) as u64));
    group.bench_function(BenchmarkId::new("forward_backward", n), |b| {
        b.iter(|| {
            plan.forward(&field, &mut spec);
            plan.backward(&mut spec, &mut out);
            std::hint::black_box(&mut out);
        });
    });
    group.finish();
}

fn bench_poisson(c: &mut Criterion) {
    let mut group = c.benchmark_group("poisson_solve");
    group.sample_size(10);
    for &n in &[32usize, 48] {
        let solver = PmSolver::new(n, n as f64, SpectralParams::default());
        let src: Vec<f64> = (0..n * n * n)
            .map(|i| ((i * 13) % 29) as f64 / 14.5 - 1.0)
            .collect();
        group.bench_with_input(BenchmarkId::new("forces", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(solver.solve_forces(&src)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fft1d, bench_batch, bench_fft3, bench_real3, bench_poisson
}
criterion_main!(benches);
