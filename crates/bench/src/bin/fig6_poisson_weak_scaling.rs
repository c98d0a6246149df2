//! Fig. 6 reproduction: weak scaling of the Poisson solver.
//!
//! The paper plots time (ns) per step per particle of the
//! long/medium-range solver against rank count on Roadrunner (slab FFT),
//! BG/P and BG/Q (pencil FFT), all essentially flat out to 131,072 ranks.
//! We measure the same quantity with simulated ranks at fixed grid volume
//! per rank through the solver the engine ships — the half-spectrum
//! [`DistRealPoisson`] on a [`RealPencilFft`] — on the slab-shaped `p × 1`
//! grid and the `p1 × p2` pencil grid, then print the BG/Q machine-model
//! series at the paper's rank counts.

use hacc_bench::{best_of_slowest, fft_grids, print_table, r2c_flops, warm_reps};
use hacc_comm::Machine;
use hacc_fft::{DistRealFft3, RealPencilFft};
use hacc_machine::FftModel;
use hacc_pm::{DistRealPoisson, SpectralParams};

/// Timed repetitions per measurement (the best one is reported).
const REPS: usize = 3;

fn main() {
    println!("Fig. 6: weak scaling of the Poisson solver (time per step per particle)");
    // Fixed per-rank volume of ~32³ grid points (40³ = 2³·5 and 50³ = 2·5²
    // run radix-5 stages); particle count per rank taken equal to grid
    // points (1 particle/cell loading).
    let configs: &[(usize, usize)] = &[(1, 32), (2, 40), (4, 50), (8, 64)];
    let mut rows = Vec::new();
    for &(ranks, n) in configs {
        let ns_per_pt = |t: f64| format!("{:.2}", t * 1e9 / (n * n * n) as f64);
        let grids = fft_grids(ranks);
        let t_slab = measure(n, grids[0]);
        let (pencil, t_pencil) = match grids.get(1) {
            Some(&g) => (g, measure(n, g)),
            None => (grids[0], t_slab),
        };
        rows.push(vec![
            ranks.to_string(),
            format!("{n}^3"),
            (n * n * n / ranks).to_string(),
            ns_per_pt(t_slab),
            format!("{}x{}", pencil[0], pencil[1]),
            ns_per_pt(t_pencil),
            // One solve = 1 r2c forward + 3 c2r inverses.
            format!("{:.2}", 4.0 * r2c_flops(n, t_pencil) / 1e9),
        ]);
    }
    print_table(
        "Measured warm solve (simulated ranks, threads-as-ranks)",
        &[
            "ranks",
            "mesh",
            "points/rank",
            "p x 1 ns/pt",
            "p1 x p2",
            "p1 x p2 ns/pt",
            "p1 x p2 GF/s",
        ],
        &rows,
    );

    // Machine-model series at paper scale: one Poisson solve = 4
    // transforms (1 forward + 3 gradient inverses).
    let model = FftModel::default();
    let mut mrows = Vec::new();
    for (ranks, n) in [
        (64usize, 512usize),
        (256, 812),
        (1024, 1290),
        (4096, 2048),
        (16384, 3250),
        (65536, 5160),
        (131072, 6502),
    ] {
        let row = model.transform_time(n, ranks, 8);
        let t_solve = 4.0 * row.time;
        mrows.push(vec![
            ranks.to_string(),
            format!("{n}^3"),
            format!("{:.1}", t_solve * 1e9 * ranks as f64 / (n as f64).powi(3)),
        ]);
    }
    print_table(
        "BG/Q model at paper scale (pencil, ~2M pts/rank; solve time per point a rank holds, flat = ideal weak scaling)",
        &["ranks", "grid", "ns/rank-pt/solve"],
        &mrows,
    );
    println!(
        "\npaper reference (Fig. 6): all three machines scale essentially ideally\n\
         (flat ns/step/particle) out to 131,072 ranks; BG/Q sits lowest, Roadrunner's\n\
         slab decomposition highest."
    );
}

/// Wall-clock of one warm distributed force solve of size `n³` on a
/// `p1 × p2` grid (best of [`REPS`], each at its slowest rank); the
/// solver's tables are built outside the timed section.
fn measure(n: usize, [p1, p2]: [usize; 2]) -> f64 {
    let (times, _) = Machine::new(p1 * p2).run(|comm| {
        let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
        // Deterministic synthetic density contrast.
        let src: Vec<f64> = (0..fft.real_layout().len())
            .map(|i| ((i * 2_654_435_761) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let solver = DistRealPoisson::new(fft, n as f64, SpectralParams::default());
        let mut grids = [Vec::new(), Vec::new(), Vec::new()];
        warm_reps(&comm, REPS, || {
            grids[0].clone_from(&src);
            solver.solve_forces_in_place(&mut grids);
        })
    });
    best_of_slowest(&times)
}
