//! Matter power spectrum estimator.
//!
//! CIC-deposits the particles on a measurement mesh, r2c-transforms the
//! density contrast, deconvolves the CIC window, and bins `|δ(k)|²` of the
//! half-spectrum in shells of `|k|`, each unstored mirror mode counted
//! with the mode it mirrors:
//!
//! `P(k) = ⟨|δ(k)|²⟩ · V / N⁶` with `k` in h/Mpc and `P` in (Mpc/h)³.

use hacc_fft::{k_of_index, Complex64, RealFft3};
use hacc_pm::deposit_cic;
use hacc_pm::spectral::sinc;

/// A binned power spectrum measurement.
#[derive(Debug, Clone)]
pub struct PowerSpectrum {
    /// Bin-averaged wavenumbers, h/Mpc.
    pub k: Vec<f64>,
    /// Power in (Mpc/h)³.
    pub p: Vec<f64>,
    /// Modes per bin.
    pub count: Vec<u64>,
}

impl PowerSpectrum {
    /// Measure `P(k)` from particle positions in a periodic box.
    ///
    /// `mesh` is the FFT mesh per side (sets the maximum `k ≈ π·mesh/L`);
    /// `bins` the number of linear k-shells up to the Nyquist frequency.
    #[must_use] 
    pub fn measure(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        box_len: f64,
        mesh: usize,
        bins: usize,
    ) -> Self {
        assert!(mesh >= 2 && bins >= 1);
        let field = density_contrast(xs, ys, zs, box_len, mesh);
        let fft = RealFft3::new_cubic(mesh);
        let mut spec = vec![Complex64::ZERO; fft.spectrum_len()];
        fft.forward(&field, &mut spec);
        // A mode with 0 < iz < mesh/2 also stands for its unstored mirror.
        let nzh = fft.nzh();
        let modes = spec.iter().enumerate().map(|(i, v)| {
            let iz = i % nzh;
            let weight = if iz > 0 && 2 * iz < mesh { 2 } else { 1 };
            ([i / (nzh * mesh), i / nzh % mesh, iz], v.norm_sqr(), weight)
        });
        Self::bin(modes, box_len, mesh, bins)
    }

    /// Shell-average the CIC-deconvolved powers of `(index, |δ(k)|², weight)`
    /// modes of a `mesh³` transform into `bins` linear k-shells up to the
    /// Nyquist frequency; a mode of weight `w` counts `w` times.
    fn bin(
        modes: impl Iterator<Item = ([usize; 3], f64, u64)>,
        box_len: f64,
        mesh: usize,
        bins: usize,
    ) -> Self {
        let n3 = (mesh * mesh * mesh) as f64;
        let volume = box_len * box_len * box_len;
        let norm = volume / (n3 * n3);
        let k_nyquist = std::f64::consts::PI * mesh as f64 / box_len;
        let dk = k_nyquist / bins as f64;
        let delta_cell = box_len / mesh as f64;
        let mut k_sum = vec![0.0; bins];
        let mut p_sum = vec![0.0; bins];
        let mut count = vec![0u64; bins];
        for (idx, power, weight) in modes {
            if idx == [0, 0, 0] {
                continue;
            }
            let [kx, ky, kz] = idx.map(|i| k_of_index(i, mesh, box_len));
            let kk = (kx * kx + ky * ky + kz * kz).sqrt();
            let bin = (kk / dk) as usize;
            if bin >= bins {
                continue;
            }
            // CIC window: sinc²(k_iΔ/2) per axis.
            let w = sinc(0.5 * kx * delta_cell)
                * sinc(0.5 * ky * delta_cell)
                * sinc(0.5 * kz * delta_cell);
            let w2 = (w * w).max(1e-12);
            let pk = power * norm / (w2 * w2);
            k_sum[bin] += weight as f64 * kk;
            p_sum[bin] += weight as f64 * pk;
            count[bin] += weight;
        }
        let mut out = PowerSpectrum {
            k: Vec::new(),
            p: Vec::new(),
            count: Vec::new(),
        };
        for b in 0..bins {
            if count[b] > 0 {
                out.k.push(k_sum[b] / count[b] as f64);
                out.p.push(p_sum[b] / count[b] as f64);
                out.count.push(count[b]);
            }
        }
        out
    }

    /// Shot-noise level `V/N` for `n_particles`.
    #[must_use] 
    pub fn shot_noise(box_len: f64, n_particles: usize) -> f64 {
        box_len.powi(3) / n_particles as f64
    }

    /// Interpolate the measured spectrum at wavenumber `k` (linear in the
    /// bin table; clamps outside).
    #[must_use] 
    pub fn at(&self, k: f64) -> f64 {
        if self.k.is_empty() {
            return 0.0;
        }
        match self.k.iter().position(|&kb| kb >= k) {
            None => *self.p.last().expect("non-empty"),
            Some(0) => self.p[0],
            Some(i) => {
                let t = (k - self.k[i - 1]) / (self.k[i] - self.k[i - 1]);
                self.p[i - 1] * (1.0 - t) + self.p[i] * t
            }
        }
    }
}

/// The density contrast `ρ/ρ̄ − 1` of the particles, CIC-deposited on a
/// `mesh³` grid over a periodic box of side `box_len`.
fn density_contrast(xs: &[f32], ys: &[f32], zs: &[f32], box_len: f64, mesh: usize) -> Vec<f64> {
    let np = xs.len();
    assert!(np > 0, "no particles");
    let to_grid = mesh as f64 / box_len;
    let [gx, gy, gz] = [xs, ys, zs]
        .map(|v| -> Vec<f32> { v.iter().map(|&c| (f64::from(c) * to_grid) as f32).collect() });
    let mut grid = vec![0.0f64; mesh * mesh * mesh];
    deposit_cic(&mut grid, mesh, &gx, &gy, &gz, 1.0);
    let mean = np as f64 / grid.len() as f64;
    for v in &mut grid {
        *v = *v / mean - 1.0;
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_cosmo::{Cosmology, LinearPower, Transfer};
    use hacc_ics::zeldovich;

    #[test]
    fn uniform_grid_has_no_power() {
        // Perfectly regular particles: zero power below the Nyquist alias.
        let n = 8;
        let l = 64.0;
        let g = hacc_ics::uniform_grid(n, l);
        let ps = PowerSpectrum::measure(&g.x, &g.y, &g.z, l, 16, 8);
        for (k, p) in ps.k.iter().zip(&ps.p) {
            if *k < std::f64::consts::PI * n as f64 / l * 0.9 {
                assert!(p.abs() < 1e-12, "P({k}) = {p}");
            }
        }
    }

    #[test]
    fn single_plane_wave_recovered() {
        // Particles displaced by a single sine mode produce power in
        // exactly that bin (leading order).
        let n = 16;
        let l = 100.0;
        let mut g = hacc_ics::uniform_grid(n, l);
        let k0 = 2.0 * std::f64::consts::PI / l * 2.0; // mode 2
        let amp = 0.5;
        for x in g.x.iter_mut() {
            *x += (amp * (k0 * f64::from(*x)).sin()) as f32;
        }
        let ps = PowerSpectrum::measure(&g.x, &g.y, &g.z, l, 16, 16);
        // δ ≈ -dψ/dx = -amp·k0·cos(k0 x): P at mode 2 = (amp·k0)²/2·V/...
        // Just check the peak bin dominates.
        let imax = ps
            .p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("bins")
            .0;
        let k_peak = ps.k[imax];
        // Shell-averaged bin centers are slightly offset from the mode;
        // require the peak bin to be the one containing k0 (±1 bin).
        assert!(
            (k_peak - k0).abs() < 0.3 * k0,
            "peak at {k_peak}, expect {k0}"
        );
    }

    #[test]
    fn zeldovich_ics_reproduce_linear_power() {
        // The headline validation: a Zel'dovich realization at a_init
        // must measure P(k) ≈ D²(a) P_lin(k) at low k.
        let cosmo = Cosmology::lcdm();
        let power = LinearPower::new(&cosmo, Transfer::EisensteinHuNoWiggle);
        let n = 32;
        let l = 500.0;
        let a = 0.1;
        let ics = zeldovich(n, l, &power, a, 2024);
        let ps = PowerSpectrum::measure(&ics.x, &ics.y, &ics.z, l, 32, 16);
        let mut checked = 0;
        let mut log_ratio_sum: f64 = 0.0;
        for (k, p) in ps.k.iter().zip(&ps.p) {
            // Low-k bins only (well below Nyquist, above fundamental).
            if *k > 0.02 && *k < 0.12 {
                let want = power.p_of_k_a(*k, a);
                log_ratio_sum += (p / want).ln();
                checked += 1;
            }
        }
        assert!(checked >= 3, "too few bins checked");
        let mean_ratio = (log_ratio_sum / f64::from(checked)).exp();
        // Cosmic variance on a handful of modes: allow 30%.
        assert!(
            (mean_ratio - 1.0).abs() < 0.3,
            "measured/linear = {mean_ratio}"
        );
    }

    #[test]
    fn half_spectrum_bins_match_c2c_bins() {
        // Oracle: the full c2c spectrum binned mode by mode. The
        // half-spectrum's doubled modes must give the same counts and the
        // same shell averages up to summation round-off.
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let l = 200.0;
        let ics = zeldovich(12, l, &power, 0.2, 31);
        for mesh in [16, 15] {
            let got = PowerSpectrum::measure(&ics.x, &ics.y, &ics.z, l, mesh, 8);
            let mut full: Vec<Complex64> = density_contrast(&ics.x, &ics.y, &ics.z, l, mesh)
                .into_iter()
                .map(|v| Complex64::new(v, 0.0))
                .collect();
            hacc_fft::Fft3::new_cubic(mesh).forward(&mut full);
            let modes = full.iter().enumerate().map(|(i, v)| {
                let idx = [i / (mesh * mesh), i / mesh % mesh, i % mesh];
                (idx, v.norm_sqr(), 1)
            });
            let want = PowerSpectrum::bin(modes, l, mesh, 8);
            assert_eq!(got.count, want.count, "mesh {mesh}");
            for (g, w) in got.k.iter().zip(&want.k).chain(got.p.iter().zip(&want.p)) {
                assert!((g / w - 1.0).abs() <= 1e-12, "mesh {mesh}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn shot_noise_value() {
        assert_eq!(PowerSpectrum::shot_noise(100.0, 1000), 1000.0);
    }

    #[test]
    fn interpolation_clamps_and_interpolates() {
        let ps = PowerSpectrum {
            k: vec![0.1, 0.2, 0.4],
            p: vec![10.0, 20.0, 5.0],
            count: vec![1, 1, 1],
        };
        assert_eq!(ps.at(0.05), 10.0);
        assert_eq!(ps.at(1.0), 5.0);
        assert!((ps.at(0.15) - 15.0).abs() < 1e-12);
    }
}
