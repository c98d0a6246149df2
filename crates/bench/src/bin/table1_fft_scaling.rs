//! Table I reproduction: pencil-FFT scaling on the BG/Q.
//!
//! The paper's table has three blocks: (a) strong scaling of a 1024³
//! transform from 256 to 8192 ranks, (b) weak scaling at ~160³ points per
//! rank up to 9216³ on 262,144 ranks, (c) weak scaling at ~200³ per rank
//! up to 10240³. We measure the same ladders at laptop scale with
//! simulated ranks on the transform the engine ships — the real-to-complex
//! [`RealPencilFft`] — on both the slab-shaped `p × 1` grid and the
//! `p1 × p2` pencil grid, then print the machine-model rows at the
//! paper's exact sizes for shape comparison. The paper's grids are
//! non-power-of-two on purpose (6400 = 2⁸·5², 9216 = 2¹⁰·3²), so the
//! measured ladders carry radix-3 (96³) and radix-5 (160³, 40³, 50³)
//! sizes beside the powers of two.

use hacc_bench::{best_of_slowest, fft_grids, fmt_time, print_table, r2c_flops, warm_reps};
use hacc_comm::Machine;
use hacc_fft::{DistRealFft3, RealPencilFft};
use hacc_machine::{calibrate_peak_flops, FftModel};

/// Timed repetitions per measurement (the best one is reported).
const REPS: usize = 3;

fn main() {
    println!("Table I: 3-D FFT scaling (real-to-complex pencil decomposition)");
    // The measured 1-thread FMA roof is single precision at the widest
    // dispatched width; an f64 transform's roof is half of it.
    let roof = calibrate_peak_flops(1, 200) / 2.0;
    println!(
        "f64 roof: {:.2} GF/s (half the measured 1-thread f32 FMA peak); \
         GF/s counts 2.5·N·log2 N per r2c transform",
        roof / 1e9
    );
    let row = |n: usize, ranks: usize, grid: [usize; 2]| {
        let t = measure(n, grid);
        let rate = r2c_flops(n, t);
        vec![
            format!("{n}^3"),
            ranks.to_string(),
            format!("{}x{}", grid[0], grid[1]),
            format!("{}", n * n * n / ranks),
            fmt_time(t),
            format!("{:.2}", rate / 1e9),
            format!("{:.1}", 100.0 * rate / roof),
        ]
    };
    let header = &[
        "FFT size",
        "ranks",
        "grid",
        "points/rank",
        "wall-clock",
        "GF/s",
        "% roof",
    ];

    // Block (a): strong scaling at fixed grids — a power of two, the
    // radix-3 mesh of the `pm.*` benchmark workloads, and a radix-5 size.
    let mut rows = Vec::new();
    for n in [64usize, 96, 160] {
        for ranks in [1usize, 2, 4, 8] {
            for grid in fft_grids(ranks) {
                rows.push(row(n, ranks, grid));
            }
        }
    }
    print_table("(a) measured strong scaling, fixed grid", header, &rows);

    // Block (b): weak scaling, fixed ~32³ points per rank.
    let mut rows = Vec::new();
    for (ranks, n) in [(1usize, 32usize), (2, 40), (4, 50), (8, 64)] {
        for grid in fft_grids(ranks) {
            rows.push(row(n, ranks, grid));
        }
    }
    print_table(
        "(b) measured weak scaling, ~constant points/rank",
        header,
        &rows,
    );

    // Machine model at the paper's sizes.
    let model = FftModel::default();
    let paper = [
        (1024usize, 256usize, 2.731),
        (1024, 512, 1.392),
        (1024, 1024, 0.713),
        (1024, 2048, 0.354),
        (1024, 4096, 0.179),
        (1024, 8192, 0.098),
        (4096, 16384, 5.254),
        (5120, 32768, 6.173),
        (6400, 65536, 6.841),
        (8192, 131072, 7.359),
        (9216, 262144, 7.238),
        (5120, 16384, 10.36),
        (6400, 32768, 12.40),
        (8192, 65536, 14.72),
        (10240, 131072, 14.24),
    ];
    let mut rows = Vec::new();
    for &(n, ranks, paper_t) in &paper {
        let r = model.transform_time(n, ranks, 8);
        rows.push(vec![
            format!("{n}^3"),
            ranks.to_string(),
            format!("{:.3}", r.time),
            format!("{paper_t:.3}"),
            format!("{:.2}", r.time / paper_t),
        ]);
    }
    print_table(
        "(c) BG/Q machine model vs paper Table I",
        &["FFT size", "ranks", "model [s]", "paper [s]", "ratio"],
        &rows,
    );
    println!(
        "\nshape check: strong-scaling block speeds up ~linearly with ranks;\n\
         weak-scaling blocks stay within a small factor as ranks grow 16x.\n\
         Ranks are threads sharing this host's cores, so the measured blocks\n\
         show the decomposition's overheads, not a parallel speed-up."
    );
}

/// Wall-clock of one warm r2c forward transform of `n³` on a `p1 × p2`
/// grid (best of [`REPS`], each at its slowest rank).
fn measure(n: usize, [p1, p2]: [usize; 2]) -> f64 {
    let (times, _) = Machine::new(p1 * p2).run(|comm| {
        let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
        let data: Vec<f64> = (0..fft.real_layout().len())
            .map(|i| (i % 97) as f64 / 97.0 - 0.5)
            .collect();
        let mut spec = Vec::new();
        warm_reps(&comm, REPS, || fft.forward_into(&data, &mut spec))
    });
    best_of_slowest(&times)
}
