//! Serial (shared-memory) spectral Poisson solver.
//!
//! Solves `∇²φ = source` on a periodic `n³` grid and returns the force
//! field `F = -∇φ`, with all HACC kernels composed in k-space: the
//! "Poisson-solve" costs one forward FFT, and each gradient component one
//! independent inverse FFT (Section II).
//!
//! The production path works on the Hermitian half-spectrum
//! (`n × n × (n/2+1)` bins) via [`RealFft3`]: the density is real, so
//! one r2c forward plus three c2r inverses does the same job as the
//! complex solve at roughly half the flops and memory traffic. The
//! influence×filter and gradient kernels are precomputed into tables at
//! construction, and a single shared spectrum feeds all three gradient
//! components — no per-component clone of ρ(k). Its tests check it
//! mode by mode against the kernels' closed form, with no FFT in the
//! oracle.

use std::sync::Mutex;

use hacc_fft::{Complex64, RealFft3};
use rayon::prelude::*;

use crate::spectral::SpectralParams;

/// Reusable spectral scratch: the shared filtered spectrum and the
/// per-component gradient spectrum. Grown once, reused every solve.
#[derive(Default)]
struct PmWorkspace {
    base: Vec<Complex64>,
    comp: Vec<Complex64>,
}

/// A reusable spectral solver for a fixed grid.
pub struct PmSolver {
    n: usize,
    nzh: usize,
    box_len: f64,
    params: SpectralParams,
    /// Half-spectrum transforms.
    rfft: RealFft3,
    /// Influence×filter table over the half-spectrum, `n·n·nzh` entries
    /// in the same row-major layout as the spectrum itself.
    gs: Vec<f64>,
    /// 1-D gradient multiplier table, one entry per global index. The
    /// grid is cubic so all three components share it.
    grad: Vec<f64>,
    ws: Mutex<PmWorkspace>,
}

impl PmSolver {
    /// Create a solver for an `n³` grid over a periodic box of side
    /// `box_len` (any length units; forces come out in source·length).
    #[must_use] 
    pub fn new(n: usize, box_len: f64, params: SpectralParams) -> Self {
        assert!(n > 1, "grid too small");
        let nzh = n / 2 + 1;
        let d = box_len / n as f64;
        let mut gs = vec![0.0f64; n * n * nzh];
        gs.par_chunks_mut(n * nzh).enumerate().for_each(|(ix, pl)| {
            for iy in 0..n {
                for iz in 0..nzh {
                    let idx = [ix, iy, iz];
                    pl[iy * nzh + iz] = params.influence(idx, n, d) * params.filter(idx, n, d);
                }
            }
        });
        let mut grad: Vec<f64> = (0..n).map(|i| params.gradient(i, n, d)).collect();
        if n.is_multiple_of(2) {
            // A Hermitian-consistent odd multiplier must vanish at the
            // Nyquist index (k ≡ -k there). A complex solve reaches the
            // same answer implicitly: a nonzero D(n/2) makes the Nyquist
            // plane of -i·D·φ purely anti-Hermitian, and truncating the
            // inverse transform to `.re` discards exactly that plane.
            grad[n / 2] = 0.0;
        }
        PmSolver {
            n,
            nzh,
            box_len,
            params,
            rfft: RealFft3::new_cubic(n),
            gs,
            grad,
            ws: Mutex::new(PmWorkspace::default()),
        }
    }

    /// Create a solver with caller-supplied spectral tables: `gs` is the
    /// scalar (influence×filter-like) half-spectrum table (`n·n·(n/2+1)`
    /// entries) and `grad` the 1-D gradient multiplier (`n` entries,
    /// already zeroed at Nyquist if Hermitian consistency requires it).
    /// The two-level mesh uses this to run its coarse level — a low-pass
    /// filtered, window-deconvolved variant of the standard kernel —
    /// through the identical pooled, allocation-free solve path.
    pub(crate) fn with_tables(
        n: usize,
        box_len: f64,
        params: SpectralParams,
        gs: Vec<f64>,
        grad: Vec<f64>,
    ) -> Self {
        assert!(n > 1, "grid too small");
        let nzh = n / 2 + 1;
        assert_eq!(gs.len(), n * n * nzh, "scalar table size");
        assert_eq!(grad.len(), n, "gradient table size");
        PmSolver {
            n,
            nzh,
            box_len,
            params,
            rfft: RealFft3::new_cubic(n),
            gs,
            grad,
            ws: Mutex::new(PmWorkspace::default()),
        }
    }

    /// Scalar (influence×filter) half-spectrum table, `n·n·(n/2+1)`
    /// row-major entries — exposed so the two-level split can verify
    /// complementarity against the exact tables the solver applies.
    #[must_use]
    pub fn scalar_table(&self) -> &[f64] {
        &self.gs
    }

    /// 1-D gradient multiplier table (`n` entries, Nyquist-zeroed for
    /// even `n`).
    #[must_use]
    pub fn gradient_table(&self) -> &[f64] {
        &self.grad
    }

    /// Grid points per side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cell size Δ.
    pub fn delta(&self) -> f64 {
        self.box_len / self.n as f64
    }

    /// Box side length.
    pub fn box_len(&self) -> f64 {
        self.box_len
    }

    /// Spectral parameters in use.
    pub fn params(&self) -> &SpectralParams {
        &self.params
    }

    /// Multiply the half-spectrum by the influence×filter table.
    fn apply_influence(&self, spec: &mut [Complex64]) {
        spec.par_iter_mut()
            .zip(self.gs.par_iter())
            .for_each(|(v, &g)| *v = v.scale(g));
    }

    /// Write `comp = -i·D_axis·base` over the half-spectrum.
    ///
    /// With the gradient table zeroed at DC and Nyquist the multiplier
    /// is an exactly odd function of its axis index, so the product
    /// stays Hermitian and the c2r inverse loses nothing.
    fn apply_gradient(&self, base: &[Complex64], comp: &mut [Complex64], axis: usize) {
        let (n, nzh) = (self.n, self.nzh);
        let grad = &self.grad;
        comp.par_chunks_mut(n * nzh)
            .enumerate()
            .for_each(|(ix, cp)| {
                let bp = &base[ix * n * nzh..(ix + 1) * n * nzh];
                for iy in 0..n {
                    let row = iy * nzh;
                    if axis < 2 {
                        let d = if axis == 0 { grad[ix] } else { grad[iy] };
                        for iz in 0..nzh {
                            let v = bp[row + iz];
                            cp[row + iz] = Complex64::new(v.im * d, -v.re * d);
                        }
                    } else {
                        for iz in 0..nzh {
                            let d = grad[iz];
                            let v = bp[row + iz];
                            cp[row + iz] = Complex64::new(v.im * d, -v.re * d);
                        }
                    }
                }
            });
    }

    /// Solve for the potential: `φ = FFT⁻¹[ G(k)·S(k)·FFT[source] ]`,
    /// writing into `out` (resized as needed, no allocation once warm).
    pub fn solve_potential_into(&self, source: &[f64], out: &mut Vec<f64>) {
        let mut ws = self.ws.lock().expect("pm workspace poisoned");
        let base = &mut ws.base;
        base.resize(self.rfft.spectrum_len(), Complex64::ZERO);
        self.rfft.forward(source, base);
        self.apply_influence(base);
        out.resize(self.n * self.n * self.n, 0.0);
        self.rfft.backward(base, out);
    }

    /// Solve for the potential, returning a fresh grid.
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
        let mut ws = self.ws.lock().expect("pm workspace poisoned");
        let PmWorkspace { base, comp } = &mut *ws;
        let slen = self.rfft.spectrum_len();
        base.resize(slen, Complex64::ZERO);
        comp.resize(slen, Complex64::ZERO);
        self.rfft.forward(source, base);
        self.apply_influence(base);
        for (c, slot) in out.iter_mut().enumerate() {
            slot.resize(self.n * self.n * self.n, 0.0);
            // F_c(k) = -i·D_c(k)·φ(k).
            self.apply_gradient(base, comp, c);
            self.rfft.backward(comp, slot);
        }
    }

    /// Solve for the force field, returning fresh component grids.
    pub fn solve_forces(&self, source: &[f64]) -> [Vec<f64>; 3] {
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        self.solve_forces_into(source, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cic::{deposit_cic, interpolate_cic};

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
    #[cfg_attr(miri, ignore = "FFT-heavy accuracy test; miri exercises the unsafe paths via the small-grid tests")]
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
    #[cfg_attr(miri, ignore = "FFT-heavy accuracy test; miri exercises the unsafe paths via the small-grid tests")]
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
    #[cfg_attr(miri, ignore = "FFT-heavy accuracy test; miri exercises the unsafe paths via the small-grid tests")]
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
    /// with D_c zeroed at the Nyquist index as `new` documents. Modes:
    /// DC, single and mixed axes, negative frequencies, the odd grid's
    /// highest frequency and, on the even grid, each axis's Nyquist index
    /// alone and beside other axes.
    #[test]
    #[cfg_attr(miri, ignore = "FFT-heavy accuracy test; miri exercises the unsafe paths via the small-grid tests")]
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
            (9, &[[0, 0, 0], [0, 1, 0], [2, -3, 1], [-4, 4, 4], [1, 0, -2]]),
        ];
        for (n, modes) in cases {
            let l = 1.3 * n as f64;
            let d = l / n as f64;
            let idx = |k: i64| k.rem_euclid(n as i64) as usize;
            for params in [SpectralParams::default(), exact_params()] {
                let solver = PmSolver::new(n, l, params);
                for &k in modes {
                    let kidx = k.map(idx);
                    let gs = params.influence(kidx, n, d) * params.filter(kidx, n, d);
                    let dk = kidx.map(|i| {
                        if 2 * i == n {
                            0.0
                        } else {
                            params.gradient(i, n, d)
                        }
                    });
                    let phase = |x: [usize; 3]| {
                        let dot: i64 = (0..3).map(|a| k[a] * x[a] as i64).sum();
                        2.0 * std::f64::consts::PI * dot as f64 / n as f64
                    };
                    let at = |i: usize| phase([i / (n * n), i / n % n, i % n]);
                    let src: Vec<f64> = (0..n * n * n).map(|i| at(i).cos()).collect();
                    let f = solver.solve_forces(&src);
                    for (c, comp) in f.iter().enumerate() {
                        let mult = Complex64::new(0.0, -dk[c] * gs);
                        for (i, &got) in comp.iter().enumerate() {
                            let want = (mult * Complex64::cis(at(i))).re;
                            assert!(
                                (got - want).abs() <= 1e-10,
                                "n={n} k={k:?} c={c} i={i}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "FFT-heavy accuracy test; miri exercises the unsafe paths via the small-grid tests")]
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
    #[cfg_attr(miri, ignore = "FFT-heavy accuracy test; miri exercises the unsafe paths via the small-grid tests")]
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
    #[cfg_attr(miri, ignore = "FFT-heavy accuracy test; miri exercises the unsafe paths via the small-grid tests")]
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
