//! Matter power spectrum estimator.
//!
//! CIC-deposits the particles on a measurement mesh, Fourier transforms
//! the density contrast, deconvolves the CIC window, and bins `|δ(k)|²`
//! in shells of `|k|`:
//!
//! `P(k) = ⟨|δ(k)|²⟩ · V / N⁶` with `k` in h/Mpc and `P` in (Mpc/h)³.

use hacc_fft::{k_of_index, Complex64, Fft3};
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
        let np = xs.len();
        assert!(np > 0, "no particles");
        let n3 = mesh * mesh * mesh;

        // Density contrast on the mesh (positions → grid units).
        let to_grid = mesh as f64 / box_len;
        let gx: Vec<f32> = xs.iter().map(|&v| (f64::from(v) * to_grid) as f32).collect();
        let gy: Vec<f32> = ys.iter().map(|&v| (f64::from(v) * to_grid) as f32).collect();
        let gz: Vec<f32> = zs.iter().map(|&v| (f64::from(v) * to_grid) as f32).collect();
        let mut grid = vec![0.0f64; n3];
        deposit_cic(&mut grid, mesh, &gx, &gy, &gz, 1.0);
        let mean = np as f64 / n3 as f64;
        let mut field: Vec<Complex64> = grid
            .iter()
            .map(|&v| Complex64::new(v / mean - 1.0, 0.0))
            .collect();
        Fft3::new_cubic(mesh).forward(&mut field);

        // Bin the deconvolved mode powers.
        let volume = box_len * box_len * box_len;
        let norm = volume / (n3 as f64 * n3 as f64);
        let k_nyquist = std::f64::consts::PI * mesh as f64 / box_len;
        let dk = k_nyquist / bins as f64;
        let delta_cell = box_len / mesh as f64;
        let mut k_sum = vec![0.0; bins];
        let mut p_sum = vec![0.0; bins];
        let mut count = vec![0u64; bins];
        for ix in 0..mesh {
            let kx = k_of_index(ix, mesh, box_len);
            for iy in 0..mesh {
                let ky = k_of_index(iy, mesh, box_len);
                for iz in 0..mesh {
                    let kz = k_of_index(iz, mesh, box_len);
                    if ix == 0 && iy == 0 && iz == 0 {
                        continue;
                    }
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
                    let pk = field[(ix * mesh + iy) * mesh + iz].norm_sqr() * norm / (w2 * w2);
                    k_sum[bin] += kk;
                    p_sum[bin] += pk;
                    count[bin] += 1;
                }
            }
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
