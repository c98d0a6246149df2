//! The FMA probe is a roof for the force kernel it frames: the rate at
//! which `hacc-short`'s dispatched kernel executes flops, divided by
//! [`calibrate_peak_flops`], lands in (0, 1]. (Before the probe took the
//! same AVX2+FMA dispatch as the kernel its `mul_add` was a libm call,
//! it reported ~0.7 Gflop/s, and this ratio read ~100.)

use hacc_machine::calibrate_peak_flops;
use hacc_short::simd::{detect, SimdLevel};
use hacc_short::{force_on_best, ForceKernel, FLOPS_PER_INTERACTION_ACTUAL};
use std::hint::black_box;
use std::time::Instant;

#[test]
fn kernel_rate_is_a_fraction_of_the_fma_roof() {
    let kernel = ForceKernel::new([0.1, -0.02, 0.003, -0.0004, 0.00005, -0.000006], 3.0, 1e-5);
    // One leaf-sized source list (L1-resident), many targets: the
    // kernel's compute-bound shape.
    let n = 1024usize;
    let coord = |i: usize, s: usize| ((i * s) % 257) as f32 * 0.01;
    let (sx, sy, sz): (Vec<f32>, Vec<f32>, Vec<f32>) = (
        (0..n).map(|i| coord(i, 7)).collect(),
        (0..n).map(|i| coord(i, 11)).collect(),
        (0..n).map(|i| coord(i, 13)).collect(),
    );
    let sm = vec![1.0f32; n];
    let targets = 2048usize;
    let kernel_rate = (0..3)
        .map(|_| {
            let start = Instant::now();
            for t in 0..targets {
                let f = force_on_best(
                    &kernel,
                    coord(t, 3),
                    coord(t, 5),
                    coord(t, 17),
                    &sx,
                    &sy,
                    &sz,
                    &sm,
                );
                black_box(f);
            }
            (targets * n) as f64 * FLOPS_PER_INTERACTION_ACTUAL as f64
                / start.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max);
    // The best of a few short probes, so a descheduled probe cannot
    // lower the roof under the kernel.
    let roof = (0..3)
        .map(|_| calibrate_peak_flops(1, 30))
        .fold(0.0, f64::max);
    let frac = kernel_rate / roof;
    println!(
        "kernel {:.2} Gflop/s, roof {:.2} Gflop/s, fraction {frac:.3}",
        kernel_rate / 1e9,
        roof / 1e9
    );
    assert!(frac > 0.0, "kernel rate {kernel_rate}, roof {roof}");
    // Where the kernel falls back to the portable path the probe's
    // `mul_add` may be a software FMA, so only the dispatched pair is a
    // like-for-like bound: on any AVX2-or-wider host, where this row is
    // the AVX2 kernel and the roof at least as wide.
    if detect() >= SimdLevel::Avx2Fma {
        assert!(
            frac <= 1.0,
            "kernel {kernel_rate} flop/s exceeds the roof {roof} flop/s"
        );
    }
}
