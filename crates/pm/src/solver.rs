//! Serial (shared-memory) spectral Poisson solver.
//!
//! Solves `∇²φ = source` on a periodic `n³` grid and returns the force
//! field `F = -∇φ`, with all HACC kernels composed in k-space: the
//! "Poisson-solve" costs one forward FFT, and each gradient component one
//! independent inverse FFT (Section II).
//!
//! [`PmSolver`] is the engine's half-spectrum solve, [`DistRealPoisson`],
//! over a 1×1 [`RealPencilFft`] on the process-wide one-rank world
//! ([`hacc_comm::one_rank`]): both transposes are elided and no message
//! is sent, so the serial solve and every distributed one run the one
//! single-term solve loop. Its tests check it mode by mode against the
//! kernels' closed form, with no FFT in the oracle.

use hacc_comm::one_rank;
use hacc_fft::RealPencilFft;

use crate::dist::DistRealPoisson;
use crate::spectral::SpectralParams;

/// A reusable spectral solver for a fixed grid.
pub struct PmSolver {
    n: usize,
    poisson: DistRealPoisson<RealPencilFft<'static>>,
}

impl PmSolver {
    /// Create a solver for an `n³` grid over a periodic box of side
    /// `box_len` (any length units; forces come out in source·length).
    #[must_use]
    pub fn new(n: usize, box_len: f64, params: SpectralParams) -> Self {
        assert!(n > 1, "grid too small");
        let fft = RealPencilFft::with_grid(one_rank(), n, 1, 1);
        PmSolver {
            n,
            poisson: DistRealPoisson::new(fft, box_len, params),
        }
    }

    /// Grid points per side.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solve for the potential: `φ = FFT⁻¹[ G(k)·S(k)·FFT[source] ]`,
    /// writing into `out` (resized as needed, no allocation once warm).
    pub fn solve_potential_into(&self, source: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(source);
        self.poisson.solve_potential_in_place(out);
    }

    /// Solve for the potential, returning a fresh grid.
    #[must_use]
    pub fn solve_potential(&self, source: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.solve_potential_into(source, &mut out);
        out
    }

    /// Solve for the force field `F = -∇φ` where `∇²φ = source`,
    /// writing the three component grids into `out` (resized as needed;
    /// allocation-free once the buffers are warm).
    ///
    /// Cost: 1 r2c forward + 3 c2r inverses on the half-spectrum. The
    /// filtered spectrum is computed once and shared by all components.
    pub fn solve_forces_into(&self, source: &[f64], out: &mut [Vec<f64>; 3]) {
        out[0].clear();
        out[0].extend_from_slice(source);
        self.poisson.solve_forces_in_place(out);
    }

    /// Solve for the force field, returning fresh component grids.
    #[must_use]
    pub fn solve_forces(&self, source: &[f64]) -> [Vec<f64>; 3] {
        self.poisson.solve_forces(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cic::{deposit_cic, interpolate_cic};
    use hacc_comm::Machine;
    use hacc_fft::{Complex64, DistRealFft3};

    /// Exact-spectral variant (no filter beyond necessities) for analytic
    /// comparisons.
    fn exact_params() -> SpectralParams {
        SpectralParams {
            sigma: 0.0,
            ns: 0,
            sixth_order_influence: false,
            super_lanczos_gradient: false,
        }
    }

    fn rand_density(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n * n * n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) - 0.5
            })
            .collect()
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "FFT-heavy accuracy test, too slow interpreted; no unsafe code runs beneath it"
    )]
    fn sine_density_gives_analytic_force() {
        // source = A·sin(k₀x) ⇒ φ = -A sin(k₀x)/k₀², F_x = A cos(k₀x)/k₀.
        let n = 32;
        let l = 2.0 * std::f64::consts::PI;
        let solver = PmSolver::new(n, l, exact_params());
        let k0 = 2.0 * std::f64::consts::PI / l; // fundamental
        let a = 0.7;
        let mut src = vec![0.0; n * n * n];
        for ix in 0..n {
            let x = ix as f64 * l / n as f64;
            let v = a * (k0 * x).sin();
            for e in src[ix * n * n..(ix + 1) * n * n].iter_mut() {
                *e = v;
            }
        }
        let f = solver.solve_forces(&src);
        for ix in 0..n {
            let x = ix as f64 * l / n as f64;
            let want = a * (k0 * x).cos() / k0;
            let got = f[0][(ix * n + 3) * n + 5];
            assert!((got - want).abs() < 1e-10, "ix={ix}: {got} vs {want}");
            // y and z components vanish.
            assert!(f[1][(ix * n + 3) * n + 5].abs() < 1e-10);
            assert!(f[2][(ix * n + 3) * n + 5].abs() < 1e-10);
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "FFT-heavy accuracy test, too slow interpreted; no unsafe code runs beneath it"
    )]
    fn potential_of_sine_matches() {
        let n = 16;
        let l = 1.0;
        let solver = PmSolver::new(n, l, exact_params());
        let k0 = 2.0 * std::f64::consts::PI / l;
        let mut src = vec![0.0; n * n * n];
        for iy in 0..n {
            let y = iy as f64 / n as f64;
            for ix in 0..n {
                for iz in 0..n {
                    src[(ix * n + iy) * n + iz] = (k0 * y).sin();
                }
            }
        }
        let phi = solver.solve_potential(&src);
        for iy in 0..n {
            let y = iy as f64 / n as f64;
            let want = -(k0 * y).sin() / (k0 * k0);
            let got = phi[(2 * n + iy) * n + 7];
            assert!((got - want).abs() < 1e-12, "iy={iy}");
        }
    }

    #[test]
    fn mean_mode_is_projected_out() {
        // A uniform source has no effect (G(0) = 0): forces vanish.
        let n = 8;
        let solver = PmSolver::new(n, 10.0, SpectralParams::default());
        let src = vec![5.0; n * n * n];
        let f = solver.solve_forces(&src);
        for c in &f {
            for v in c {
                assert!(v.abs() < 1e-12);
            }
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "FFT-heavy accuracy test, too slow interpreted; no unsafe code runs beneath it"
    )]
    fn force_field_sums_to_zero() {
        // Momentum conservation: Σ_cells F = 0 for any source.
        let n = 16;
        let solver = PmSolver::new(n, 16.0, SpectralParams::default());
        let mut src = vec![0.0; n * n * n];
        deposit_cic(
            &mut src,
            n,
            &[3.3, 9.1, 12.7],
            &[4.4, 2.2, 8.8],
            &[5.5, 11.0, 1.1],
            1.0,
        );
        let f = solver.solve_forces(&src);
        for c in &f {
            let sum: f64 = c.iter().sum();
            assert!(sum.abs() < 1e-8, "component sum {sum}");
        }
    }

    /// The solve against its closed form, one Fourier mode at a time,
    /// with no FFT in the oracle. For δ(x) = cos(2π k·x/n) the forward
    /// transform puts n³/2 at k and at −k; G·S is even and D odd in k,
    /// so the two halves are complex conjugates and component c is
    ///
    /// F_c(x) = Re[−i·D_c(k)·G(k)S(k)·e^{2πi k·x/n}],
    ///
    /// with D_c zeroed at the Nyquist index as [`DistRealPoisson::new`]
    /// documents. Modes:
    /// DC, single and mixed axes, negative frequencies, the odd grid's
    /// highest frequency and, on the even grid, each axis's Nyquist index
    /// alone and beside other axes. Each mode runs through the serial
    /// solver and through [`DistRealPoisson`] on 2×1, 1×2 and 2×2 pencil
    /// grids, whose per-rank blocks are reassembled into global grids.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "FFT-heavy accuracy test, too slow interpreted; no unsafe code runs beneath it"
    )]
    fn r2c_forces_match_single_mode_oracle() {
        let cases: [(usize, &[[i64; 3]]); 2] = [
            (
                12,
                &[
                    [0, 0, 0],
                    [1, 0, 0],
                    [0, 0, 3],
                    [2, -1, 3],
                    [-3, 5, -2],
                    [6, 0, 0],
                    [0, 6, 0],
                    [0, 0, 6],
                    [6, 0, 1],
                    [1, 6, 2],
                    [2, 1, 6],
                    [6, 6, 6],
                ],
            ),
            (
                9,
                &[[0, 0, 0], [0, 1, 0], [2, -3, 1], [-4, 4, 4], [1, 0, -2]],
            ),
        ];
        for (n, modes) in cases {
            let l = 1.3 * n as f64;
            let d = l / n as f64;
            let idx = |k: i64| k.rem_euclid(n as i64) as usize;
            let phase = |k: [i64; 3], i: usize| {
                let x = [i / (n * n), i / n % n, i % n];
                let dot: i64 = (0..3).map(|a| k[a] * x[a] as i64).sum();
                2.0 * std::f64::consts::PI * dot as f64 / n as f64
            };
            let sources: Vec<Vec<f64>> = modes
                .iter()
                .map(|&k| (0..n * n * n).map(|i| phase(k, i).cos()).collect())
                .collect();
            for params in [SpectralParams::default(), exact_params()] {
                let solver = PmSolver::new(n, l, params);
                let mut runs = vec![(
                    "serial".to_string(),
                    sources
                        .iter()
                        .map(|s| solver.solve_forces(s))
                        .collect::<Vec<_>>(),
                )];
                for grid in [[2, 1], [1, 2], [2, 2]] {
                    runs.push((
                        format!("{grid:?}"),
                        pencil_solves(n, l, params, grid, &sources),
                    ));
                }
                for (grid, forces) in &runs {
                    for (&k, f) in modes.iter().zip(forces) {
                        let kidx = k.map(idx);
                        let gs = params.influence(kidx, n, d) * params.filter(kidx, n, d);
                        let dk = kidx.map(|i| {
                            if 2 * i == n {
                                0.0
                            } else {
                                params.gradient(i, n, d)
                            }
                        });
                        for (c, comp) in f.iter().enumerate() {
                            let mult = Complex64::new(0.0, -dk[c] * gs);
                            for (i, &got) in comp.iter().enumerate() {
                                let want = (mult * Complex64::cis(phase(k, i))).re;
                                assert!(
                                    (got - want).abs() <= 1e-10,
                                    "{grid} n={n} k={k:?} c={c} i={i}: {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`DistRealPoisson`] over a `p1 × p2` [`RealPencilFft`] on each
    /// source, every rank's force blocks reassembled into global grids.
    fn pencil_solves(
        n: usize,
        l: f64,
        params: SpectralParams,
        [p1, p2]: [usize; 2],
        sources: &[Vec<f64>],
    ) -> Vec<[Vec<f64>; 3]> {
        let (per_rank, _) = Machine::new(p1 * p2).run(|comm| {
            let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
            let rl = fft.real_layout();
            let solver = DistRealPoisson::new(fft, l, params);
            let forces: Vec<[Vec<f64>; 3]> = sources
                .iter()
                .map(|src| {
                    let local: Vec<f64> = (0..rl.len())
                        .map(|i| {
                            let g = rl.global_coords(i);
                            src[(g[0] * n + g[1]) * n + g[2]]
                        })
                        .collect();
                    solver.solve_forces(&local)
                })
                .collect();
            (rl, forces)
        });
        let mut global = vec![
            [
                vec![0.0; n * n * n],
                vec![0.0; n * n * n],
                vec![0.0; n * n * n]
            ];
            sources.len()
        ];
        for (rl, forces) in &per_rank {
            for (grids, f) in global.iter_mut().zip(forces) {
                for c in 0..3 {
                    for (i, &v) in f[c].iter().enumerate() {
                        let g = rl.global_coords(i);
                        grids[c][(g[0] * n + g[1]) * n + g[2]] = v;
                    }
                }
            }
        }
        global
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "FFT-heavy accuracy test, too slow interpreted; no unsafe code runs beneath it"
    )]
    fn solve_into_reuses_buffers_and_matches() {
        let n = 12;
        let solver = PmSolver::new(n, 24.0, SpectralParams::default());
        let src = rand_density(n, 5);
        let want = solver.solve_forces(&src);
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        // Two rounds into the same buffers; second must be identical.
        solver.solve_forces_into(&src, &mut out);
        solver.solve_forces_into(&src, &mut out);
        for c in 0..3 {
            assert_eq!(out[c], want[c]);
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "FFT-heavy accuracy test, too slow interpreted; no unsafe code runs beneath it"
    )]
    fn pair_force_attractive_and_newtonian_at_medium_range() {
        // Two particles 8 cells apart on a 32³ grid: grid force should be
        // within ~5% of Newtonian -1/r² (normalization: source = 4π·δ mass
        // ⇒ here source is raw CIC mass, so F = m/(4π r²)... we test the
        // *ratio* between two separations instead of absolute scale).
        let n = 32;
        let solver = PmSolver::new(n, n as f64, SpectralParams::default());
        let force_at = |r: f32| -> f64 {
            let mut src = vec![0.0; n * n * n];
            deposit_cic(&mut src, n, &[8.0], &[16.0], &[16.0], 1.0);
            let f = solver.solve_forces(&src);
            let fx = interpolate_cic(&f[0], n, &[8.0 + r], &[16.0], &[16.0]);
            f64::from(fx[0])
        };
        let f6 = force_at(6.0);
        let f12 = force_at(12.0);
        // Attractive: force points back toward the source (negative x).
        assert!(f6 < 0.0 && f12 < 0.0, "f6 {f6}, f12 {f12}");
        let ratio = f6 / f12;
        // Bare 1/r² gives 4; at r = 12 on a 32-cell periodic box the
        // attraction from images beyond the half-box noticeably weakens
        // the far force, pushing the ratio above 4.
        assert!(ratio > 3.2 && ratio < 6.5, "ratio {ratio}");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "FFT-heavy accuracy test, too slow interpreted; no unsafe code runs beneath it"
    )]
    fn filtered_force_suppressed_below_matching_scale() {
        // Inside ~1 cell the spectrally filtered grid force falls well
        // below Newtonian — that's what the short-range kernel restores.
        let n = 32;
        let solver = PmSolver::new(n, n as f64, SpectralParams::default());
        let mut src = vec![0.0; n * n * n];
        deposit_cic(&mut src, n, &[16.0], &[16.0], &[16.0], 1.0);
        let f = solver.solve_forces(&src);
        let near = f64::from(interpolate_cic(&f[0], n, &[16.5], &[16.0], &[16.0])[0].abs());
        let far = f64::from(interpolate_cic(&f[0], n, &[22.0], &[16.0], &[16.0])[0].abs());
        // Newtonian would make near/far = (6/0.5)² = 144; the filter caps
        // the near force so the observed ratio is far smaller.
        assert!(near / far < 40.0, "near/far = {}", near / far);
    }
}
