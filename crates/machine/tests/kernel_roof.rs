//! The FMA probe is a roof for the force kernel it frames: the rate at
//! which `hacc-short`'s force pass executes kernel flops, divided by
//! [`calibrate_peak_flops`], lands in (0, 1]. (Before the probe took the
//! same AVX2+FMA dispatch as the kernel its `mul_add` was a libm call,
//! it reported ~0.7 Gflop/s, and this ratio read ~100.)

use hacc_machine::calibrate_peak_flops;
use hacc_short::simd::{detect, SimdLevel};
use hacc_short::{ForceKernel, RcbTree, TreeParams, TreeScratch, FLOPS_PER_INTERACTION_ACTUAL};
use std::hint::black_box;
use std::time::Instant;

#[test]
fn kernel_rate_is_a_fraction_of_the_fma_roof() {
    let kernel = ForceKernel::new([0.1, -0.02, 0.003, -0.0004, 0.00005, -0.000006], 3.0, 1e-5);
    // One dense periodic cloud (8 particles a cell³, so most chunk pairs
    // a leaf pair lists are in range): the kernel's compute-bound shape,
    // through the force pass the engines run. Rate = kernel evaluations
    // × the flops each executes, over the whole pass.
    let (n, side) = (4096usize, 8.0f32);
    let coord = |i: usize, s: usize| ((i * s) % 4093) as f32 * (side / 4093.0);
    let (xs, ys, zs): (Vec<f32>, Vec<f32>, Vec<f32>) = (
        (0..n).map(|i| coord(i, 7)).collect(),
        (0..n).map(|i| coord(i, 1031)).collect(),
        (0..n).map(|i| coord(i, 2053)).collect(),
    );
    let mut tree = RcbTree::build(&xs, &ys, &zs, &vec![1.0; n], TreeParams::default());
    tree.set_periods([side; 3]);
    let mut scratch = TreeScratch::default();
    let mut out = [Vec::new(), Vec::new(), Vec::new()];
    let kernel_rate = (0..3)
        .map(|_| {
            let start = Instant::now();
            let rep = tree.forces_symmetric_into(&kernel, 0.0, &mut scratch, &mut out);
            black_box(&out);
            rep.evals as f64 * FLOPS_PER_INTERACTION_ACTUAL as f64 / start.elapsed().as_secs_f64()
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
    // like-for-like bound: on any AVX2-or-wider host, where the tile is
    // an AVX2 or AVX-512 one and the roof at least as wide.
    if detect() >= SimdLevel::Avx2Fma {
        assert!(
            frac <= 1.0,
            "kernel {kernel_rate} flop/s exceeds the roof {roof} flop/s"
        );
    }
}
