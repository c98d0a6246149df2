//! The short-range polynomial force kernel.
//!
//! This is the routine the paper spends Section III on: on the BG/Q it is
//! QPX assembly with fsel-based branch elimination running at ~80% of
//! peak. The Rust version keeps every structural property that made that
//! possible —
//!
//! * neighbor coordinates and masses are pre-gathered into contiguous
//!   arrays ("every neighbor list can be accessed with vector memory
//!   operations");
//! * the cutoff test is folded into the force evaluation as a branch-free
//!   select (the `fsel` trick), so the inner loop has no data-dependent
//!   branches;
//! * the polynomial is evaluated by an FMA Horner chain (`mul_add`);
//!
//! — here in scalar form: [`ForceKernel::factor`] defines the pair force
//! and [`ForceKernel::force_on`] is the one-sided reference the tests and
//! `fig5_kernel_threading` measure against. The solvers run the
//! vectorised lane-rotation tile of [`crate::simd`].

/// Flops charged per particle–particle interaction, matching the paper's
/// accounting (168 flops per 4-wide QPX iteration = 42 per interaction,
/// Section III: "16 of them are FMAs yielding a total Flop count of 168").
pub const FLOPS_PER_INTERACTION: u64 = 42;

/// Flops this kernel *actually executes* per interaction (the paper's 42
/// includes the QPX reciprocal-sqrt refinement our `1/sqrt` hardware op
/// replaces): 3 subs + 5 for `s` + softening add + sqrt + div + 2 cube
/// muls + 10 Horner + subtract + mass mul + 6 accumulate FMAs ≈ 32.
/// Use this one when reporting fraction-of-peak efficiency.
pub const FLOPS_PER_INTERACTION_ACTUAL: u64 = 32;

/// Short-range force kernel with fitted grid-force coefficients.
#[derive(Debug, Clone, Copy)]
pub struct ForceKernel {
    /// poly5 coefficients of the grid response `g(s)` (grid units).
    pub coeffs: [f32; 6],
    /// Squared cutoff radius (grid units²).
    pub rcut2: f32,
    /// Softening ε added to `s` before the inverse-cube.
    pub eps: f32,
}

impl ForceKernel {
    /// Build from an f64 grid-force fit.
    #[must_use] 
    pub fn new(coeffs: [f32; 6], rcut: f32, eps: f32) -> Self {
        ForceKernel {
            coeffs,
            rcut2: rcut * rcut,
            eps,
        }
    }

    /// A kernel with `poly5 = 0` (pure softened Newtonian within the
    /// cutoff) — used by tests and the kernel microbenchmarks of Fig. 5.
    #[must_use] 
    pub fn newtonian(rcut: f32, eps: f32) -> Self {
        Self::new([0.0; 6], rcut, eps)
    }

    /// Pair force factor `f_SR(s)`; the force on a target at separation
    /// `r` from a neighbor of mass `m` is `m·f_SR(s)·r` (pointing toward
    /// the neighbor when positive... sign handled by the caller's `r`
    /// convention: `r = x_neighbor − x_target` gives attraction).
    #[inline(always)]
    #[must_use] 
    pub fn factor(&self, s: f32) -> f32 {
        let inv = 1.0 / (s + self.eps).sqrt();
        let inv3 = inv * inv * inv;
        let c = &self.coeffs;
        let poly = c[5]
            .mul_add(s, c[4])
            .mul_add(s, c[3])
            .mul_add(s, c[2])
            .mul_add(s, c[1])
            .mul_add(s, c[0]);
        let f = inv3 - poly;
        // Branch-free cutoff and self-interaction guard (the fsel idiom):
        // one combined select instead of two chained ones.
        if s > 0.0 && s < self.rcut2 {
            f
        } else {
            0.0
        }
    }

    /// Accumulate the short-range force on one target from a pre-gathered
    /// neighbor list. Returns the force components.
    ///
    /// The loop body is the paper's 26-instruction kernel: 3 subs, an FMA
    /// dot product for `s`, reciprocal-sqrt cube, Horner poly5, select,
    /// and 3 accumulation FMAs.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    #[must_use] 
    pub fn force_on(
        &self,
        tx: f32,
        ty: f32,
        tz: f32,
        nx: &[f32],
        ny: &[f32],
        nz: &[f32],
        nm: &[f32],
    ) -> [f32; 3] {
        debug_assert!(nx.len() == ny.len() && ny.len() == nz.len() && nz.len() == nm.len());
        let mut fx = 0.0f32;
        let mut fy = 0.0f32;
        let mut fz = 0.0f32;
        for i in 0..nx.len() {
            let dx = nx[i] - tx;
            let dy = ny[i] - ty;
            let dz = nz[i] - tz;
            let s = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
            let w = nm[i] * self.factor(s);
            fx = dx.mul_add(w, fx);
            fy = dy.mul_add(w, fy);
            fz = dz.mul_add(w, fz);
        }
        [fx, fy, fz]
    }

    /// Reference scalar implementation with explicit branches, for
    /// validating the branch-free kernel.
    #[must_use] 
    pub fn factor_reference(&self, s: f32) -> f32 {
        if s <= 0.0 || s >= self.rcut2 {
            return 0.0;
        }
        let newton = 1.0 / (s + self.eps).powf(1.5);
        let poly: f32 = self
            .coeffs
            .iter()
            .enumerate()
            .map(|(i, c)| c * s.powi(i as i32))
            .sum();
        newton - poly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> ForceKernel {
        ForceKernel::new([0.1, -0.02, 0.003, -0.0004, 0.00005, -0.000006], 3.0, 1e-5)
    }

    #[test]
    fn factor_matches_reference() {
        let k = kernel();
        for i in 1..200 {
            let s = i as f32 * 0.05;
            let a = k.factor(s);
            let b = k.factor_reference(s);
            let tol = 1e-5 * (a.abs() + b.abs() + 1.0);
            assert!((a - b).abs() < tol, "s={s}: {a} vs {b}");
        }
    }

    #[test]
    fn cutoff_and_self_interaction_masked() {
        let k = kernel();
        assert_eq!(k.factor(0.0), 0.0);
        assert_eq!(k.factor(9.0), 0.0);
        assert_eq!(k.factor(100.0), 0.0);
        assert!(k.factor(1.0) != 0.0);
    }

    /// The combined select must yield *exact* zeros (bit pattern +0.0) at
    /// the self-interaction point and at/beyond the cutoff, for both
    /// plain and fitted kernels.
    #[test]
    fn factor_exactly_zero_at_bounds() {
        for k in [kernel(), ForceKernel::newtonian(3.0, 1e-6)] {
            assert_eq!(k.factor(0.0).to_bits(), 0.0f32.to_bits(), "s = 0");
            let rcut2 = 9.0f32;
            assert_eq!(k.factor(rcut2).to_bits(), 0.0f32.to_bits(), "s = rcut²");
            for s in [rcut2 + f32::EPSILON, 1.5 * rcut2, 1e6] {
                assert_eq!(k.factor(s).to_bits(), 0.0f32.to_bits(), "s = {s}");
            }
        }
    }

    #[test]
    fn attraction_points_toward_neighbor() {
        let k = ForceKernel::newtonian(3.0, 1e-5);
        let f = k.force_on(0.0, 0.0, 0.0, &[1.0], &[0.0], &[0.0], &[1.0]);
        assert!(f[0] > 0.0, "force should point toward +x neighbor");
        assert_eq!(f[1], 0.0);
        assert_eq!(f[2], 0.0);
    }

    #[test]
    fn newtons_third_law() {
        let k = kernel();
        let f_ab = k.force_on(0.1, 0.2, 0.3, &[1.1], &[0.9], &[-0.4], &[2.0]);
        let f_ba = k.force_on(1.1, 0.9, -0.4, &[0.1], &[0.2], &[0.3], &[2.0]);
        for c in 0..3 {
            assert!((f_ab[c] + f_ba[c]).abs() < 1e-6, "component {c}");
        }
    }

    #[test]
    fn inverse_square_scaling_when_unsoftened() {
        let k = ForceKernel::newtonian(10.0, 0.0);
        let f1 = k.force_on(0.0, 0.0, 0.0, &[1.0], &[0.0], &[0.0], &[1.0])[0];
        let f2 = k.force_on(0.0, 0.0, 0.0, &[2.0], &[0.0], &[0.0], &[1.0])[0];
        assert!((f1 / f2 - 4.0).abs() < 1e-4, "ratio {}", f1 / f2);
    }

    #[test]
    fn masses_scale_linearly() {
        let k = ForceKernel::newtonian(5.0, 1e-4);
        let f1 = k.force_on(0.0, 0.0, 0.0, &[1.5], &[0.3], &[0.0], &[1.0]);
        let f3 = k.force_on(0.0, 0.0, 0.0, &[1.5], &[0.3], &[0.0], &[3.0]);
        for c in 0..3 {
            assert!((3.0 * f1[c] - f3[c]).abs() < 1e-5);
        }
    }
}
