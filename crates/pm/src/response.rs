//! Grid force response measurement and the poly5 fit of paper Eq. 7.
//!
//! "The filtered grid force was obtained numerically to high accuracy
//! using randomly sampled particle pairs and then fitted to an expression
//! with the correct large and small distance asymptotics. Because this
//! functional form is needed only over a small, compact region, it can be
//! simplified using a fifth-order polynomial expansion."
//!
//! We reproduce exactly that: deposit a unit source at random offsets on a
//! reference grid, solve with the PM solver, interpolate the force at
//! sampled separations, reduce to the radial response `g(s) = F_r/r`
//! (`s = r²`), and least-squares fit a 5th-degree polynomial in `s` over
//! the compact matching region `r ≤ r_cut` (nominally 3 grid cells).

use crate::cic::{deposit_cic, interpolate_cic};
use crate::solver::PmSolver;
use crate::spectral::SpectralParams;

/// Fitted grid-force response in grid units.
///
/// The short-range pair force factor is
/// `f_SR(s) = (s+ε)^{-3/2} − poly5(s)` for `s < r_cut²`, so that
/// `F_pair = r · f_SR(s)` complements the PM force to Newtonian
/// `r̂/r²` (in units where the pair normalization is 1).
#[derive(Debug, Clone)]
pub struct GridForceFit {
    /// Polynomial coefficients `c₀ + c₁s + … + c₅s⁵` for `g(s) = F_grid/r`.
    pub coeffs: [f64; 6],
    /// Matching radius in grid cells (force handoff; paper: 3).
    pub r_cut: f64,
    /// Short-distance softening ε (grid cells squared).
    pub epsilon: f64,
    /// Overall normalization of the measured response: the PM force for a
    /// unit source approaches `norm/r²` at large `r` (depends on the 4π
    /// convention); `coeffs` are stored *after* dividing by it so that
    /// `poly5(s) ≈ 1/r³ · F_grid/F_newton`… i.e. directly comparable to
    /// `s^{-3/2}`.
    pub norm: f64,
    /// RMS relative residual of the fit over the sampled region.
    pub rms_residual: f64,
}

impl GridForceFit {
    /// Measure the grid force response of `params` and fit it.
    ///
    /// `n` is the reference grid size (≥ 32 recommended); `r_cut` the
    /// matching radius in grid cells. Deterministic given `seed`.
    #[must_use]
    pub fn measure(n: usize, params: SpectralParams, r_cut: f64, seed: u64) -> Self {
        let solver = PmSolver::new(n, n as f64, params);
        let samples = sample_response(&solver, r_cut, seed);
        Self::fit(&samples, r_cut)
    }

    /// Fit `g(s)` samples `(s, g)` (already normalized) with poly5.
    fn fit(samples: &[(f64, f64)], r_cut: f64) -> Self {
        // The response at large r approaches Newtonian: use the outermost
        // decade of samples to find the normalization so that
        // g(s) → s^{-3/2} at the matching radius.
        let s_max = r_cut * r_cut;
        let mut norm_num = 0.0;
        let mut norm_den = 0.0;
        for &(s, g) in samples {
            if s > 0.7 * s_max {
                norm_num += g;
                norm_den += (s).powf(-1.5);
            }
        }
        let norm = norm_num / norm_den;
        let pts: Vec<(f64, f64)> = samples.iter().map(|&(s, g)| (s, g / norm)).collect();

        // Weight each sample by s^{3/2}: the error that matters physically
        // is the *total force* error relative to Newtonian, and the total
        // force divides the poly residual by s^{-3/2}. Without this the
        // fit over-serves the (dense, tiny-g) small-s samples and can miss
        // the handoff region by tens of percent.
        let weighted: Vec<(f64, f64, f64)> =
            pts.iter().map(|&(s, g)| (s, g, s.powf(1.5))).collect();
        let coeffs = polyfit5_weighted(&weighted);
        // Residuals relative to the typical magnitude.
        let scale = pts.iter().map(|&(_, g)| g.abs()).fold(0.0, f64::max);
        let mut ss = 0.0;
        for &(s, g) in &pts {
            let p = eval_poly5(&coeffs, s);
            ss += ((p - g) / scale).powi(2);
        }
        let rms_residual = (ss / pts.len() as f64).sqrt();
        GridForceFit {
            coeffs,
            r_cut,
            epsilon: 1e-5,
            norm,
            rms_residual,
        }
    }

    /// The fitted grid response `g(s) = F_grid(r)/r` (normalized so that
    /// Newtonian is `s^{-3/2}`).
    #[inline]
    #[must_use]
    pub fn fgrid(&self, s: f64) -> f64 {
        eval_poly5(&self.coeffs, s)
    }

    /// Short-range force factor `f_SR(s)` of paper Eq. 7 (zero beyond the
    /// cutoff).
    #[inline]
    #[must_use]
    pub fn short_range(&self, s: f64) -> f64 {
        if s >= self.r_cut * self.r_cut {
            0.0
        } else {
            (s + self.epsilon).powf(-1.5) - self.fgrid(s)
        }
    }

    /// Coefficients in f32 for the single-precision kernel.
    #[must_use]
    pub fn coeffs_f32(&self) -> [f32; 6] {
        let mut out = [0.0f32; 6];
        for (o, c) in out.iter_mut().zip(self.coeffs.iter()) {
            *o = *c as f32;
        }
        out
    }
}

/// Evaluate `c₀ + c₁s + … + c₅s⁵` by Horner's rule.
#[inline]
#[must_use]
pub fn eval_poly5(c: &[f64; 6], s: f64) -> f64 {
    ((((c[5] * s + c[4]) * s + c[3]) * s + c[2]) * s + c[1]) * s + c[0]
}

/// Sample the radial grid-force response `g(s) = F·r̂/r` for a unit CIC
/// source, averaged over random source offsets and orientations.
/// Returns `(s, g)` pairs with `r ∈ (0.05, r_cut]` grid cells.
fn sample_response(solver: &PmSolver, r_cut: f64, seed: u64) -> Vec<(f64, f64)> {
    let n = solver.n();
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng as f64 / u64::MAX as f64
    };
    let n_sources = 6;
    let n_radii = 48;
    let n_dirs = 6;
    let mut acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); n_radii]; // (s, Σg, count)
    for _ in 0..n_sources {
        let sx = (n as f64 / 4.0 + next() * n as f64 / 2.0) as f32;
        let sy = (n as f64 / 4.0 + next() * n as f64 / 2.0) as f32;
        let sz = (n as f64 / 4.0 + next() * n as f64 / 2.0) as f32;
        let mut src = vec![0.0; n * n * n];
        deposit_cic(&mut src, n, &[sx], &[sy], &[sz], 1.0);
        let forces = solver.solve_forces(&src);
        for (ir, slot) in acc.iter_mut().enumerate() {
            let r = 0.05 + (ir as f64 + 0.5) / n_radii as f64 * (r_cut - 0.05);
            slot.0 = r * r;
            for _ in 0..n_dirs {
                // Random unit vector.
                let u = 2.0 * next() - 1.0;
                let phi = 2.0 * std::f64::consts::PI * next();
                let q = (1.0 - u * u).sqrt();
                let (dx, dy, dz) = (q * phi.cos(), q * phi.sin(), u);
                let px = sx + (r * dx) as f32;
                let py = sy + (r * dy) as f32;
                let pz = sz + (r * dz) as f32;
                let fx = f64::from(interpolate_cic(&forces[0], n, &[px], &[py], &[pz])[0]);
                let fy = f64::from(interpolate_cic(&forces[1], n, &[px], &[py], &[pz])[0]);
                let fz = f64::from(interpolate_cic(&forces[2], n, &[px], &[py], &[pz])[0]);
                // Radial (attractive ⇒ negative projection on r̂);
                // g = -F·r̂ / r so that Newtonian g = norm/r³ > 0.
                let fr = -(fx * dx + fy * dy + fz * dz);
                slot.1 += fr / r;
                slot.2 += 1.0;
            }
        }
    }
    acc.into_iter().map(|(s, g, c)| (s, g / c)).collect()
}

/// Unweighted least-squares poly5 fit (all weights one).
#[cfg_attr(not(test), allow(dead_code))]
fn polyfit5(pts: &[(f64, f64)]) -> [f64; 6] {
    let w: Vec<(f64, f64, f64)> = pts.iter().map(|&(s, g)| (s, g, 1.0)).collect();
    polyfit5_weighted(&w)
}

/// Weighted least-squares fit of a degree-5 polynomial through
/// `(s, g, weight)` samples via normal equations (6×6 Gaussian
/// elimination with partial pivoting).
fn polyfit5_weighted(pts: &[(f64, f64, f64)]) -> [f64; 6] {
    // Scale s to O(1) for conditioning, then unscale coefficients.
    let s_max = pts.iter().map(|&(s, _, _)| s).fold(0.0, f64::max);
    let scale = if s_max > 0.0 { s_max } else { 1.0 };
    let mut a = [[0.0f64; 7]; 6];
    for &(s, g, w) in pts {
        let t = s / scale;
        let mut pow = [1.0; 6];
        for i in 1..6 {
            pow[i] = pow[i - 1] * t;
        }
        for i in 0..6 {
            for j in 0..6 {
                a[i][j] += w * pow[i] * pow[j];
            }
            a[i][6] += w * pow[i] * g;
        }
    }
    // Gaussian elimination.
    for col in 0..6 {
        let piv = (col..6)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty");
        a.swap(col, piv);
        let d = a[col][col];
        assert!(d.abs() > 1e-30, "singular normal equations");
        for v in a[col][col..7].iter_mut() {
            *v /= d;
        }
        for row in 0..6 {
            if row != col {
                let f = a[row][col];
                let pivot = a[col];
                for (v, pv) in a[row][col..7].iter_mut().zip(&pivot[col..7]) {
                    *v -= f * pv;
                }
            }
        }
    }
    let mut c = [0.0; 6];
    let mut unscale = 1.0;
    for i in 0..6 {
        c[i] = a[i][6] / unscale;
        unscale *= scale;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polyfit_recovers_exact_polynomial() {
        let truth = [1.0, -2.0, 0.5, 0.1, -0.02, 0.003];
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let s = f64::from(i) * 0.2;
                (s, eval_poly5(&truth, s))
            })
            .collect();
        let fit = polyfit5(&pts);
        for (a, b) in fit.iter().zip(truth.iter()) {
            assert!((a - b).abs() < 1e-6, "{fit:?}");
        }
    }

    #[test]
    fn horner_matches_naive() {
        let c = [2.0, 1.0, -0.5, 0.25, 0.0, -0.125];
        let s: f64 = 1.7;
        let naive: f64 = (0..6).map(|i| c[i] * s.powi(i as i32)).sum();
        assert!((eval_poly5(&c, s) - naive).abs() < 1e-12);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "32-cubed force-response measurement; no unsafe code on this path"
    )]
    fn measured_fit_is_tight_and_smooth() {
        let fit = GridForceFit::measure(32, SpectralParams::default(), 3.0, 12345);
        assert!(
            fit.rms_residual < 0.05,
            "rms residual {} too large",
            fit.rms_residual
        );
        assert!(fit.norm > 0.0, "norm {}", fit.norm);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "32-cubed force-response measurement; no unsafe code on this path"
    )]
    fn short_range_restores_newtonian_asymptotics() {
        let fit = GridForceFit::measure(32, SpectralParams::default(), 3.0, 7);
        // Deep inside the matching region, the grid force is tiny so the
        // short-range factor approaches the bare Newtonian s^{-3/2}.
        let s_small = 0.25 * 0.25;
        let ratio = fit.short_range(s_small) / (s_small).powf(-1.5);
        assert!((ratio - 1.0).abs() < 0.2, "ratio {ratio}");
        // At the cutoff it hands over: |f_SR| ≪ Newtonian.
        let s_cut = 2.9 * 2.9;
        let frac = fit.short_range(s_cut).abs() / s_cut.powf(-1.5);
        assert!(frac < 0.35, "handoff fraction {frac}");
        // Beyond the cutoff exactly zero.
        assert_eq!(fit.short_range(9.5), 0.0);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "32-cubed force-response measurement; no unsafe code on this path"
    )]
    fn grid_response_is_positive_and_monotone_in_core() {
        // g(s) (normalized) grows from ~0 at s→0 toward s^{-3/2} matching;
        // check positivity over the fitted range.
        let fit = GridForceFit::measure(32, SpectralParams::default(), 3.0, 99);
        let mut prev = -f64::INFINITY;
        let mut increasing_up_to_peak = true;
        let mut peaked = false;
        for i in 1..30 {
            let s = (f64::from(i) / 30.0 * 3.0).powi(2);
            let g = fit.fgrid(s);
            if !peaked && g < prev {
                peaked = true;
            } else if peaked && g > prev * 1.05 {
                increasing_up_to_peak = false;
            }
            prev = g;
        }
        assert!(increasing_up_to_peak, "response not single-peaked");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "32-cubed force-response measurement; no unsafe code on this path"
    )]
    fn determinism() {
        let a = GridForceFit::measure(32, SpectralParams::default(), 3.0, 5);
        let b = GridForceFit::measure(32, SpectralParams::default(), 3.0, 5);
        assert_eq!(a.coeffs, b.coeffs);
    }
}
