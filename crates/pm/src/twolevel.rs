//! Two-level PM mesh: coarse global solve + rank-local fine complement.
//!
//! PMFAST-style force splitting (astro-ph/0402443, and the production
//! HACC discipline of arXiv 1410.2805): the PM force is divided into
//!
//! * a **coarse** part — the reference response multiplied by a Gaussian
//!   low-pass `L(k) = exp(-k²σ_m²/2)`, solved on an `(n/c)³` global grid
//!   whose distributed FFT moves `~c³` fewer bytes through the
//!   all-to-all transposes; and
//! * a **fine** part — the *exact spectral complement*, whose kernel is
//!   the reference response minus the coarse level's shadow. `L` makes
//!   the complement short-ranged in real space, so each rank can solve
//!   it with a serial FFT on its own subdomain padded by a ghost buffer
//!   of width [`ForceSplit::ghost_width`].
//!
//! Complementarity is exact by construction on the shared modes: the
//! fine kernel is defined as `reference − shadow`, and the coarse table
//! is `shadow × (W_f/W_c)²` where `W` is the CIC assignment window —
//! the window ratio deconvolves the coarser deposit+interpolation pair
//! so the coarse chain carries the *fine-grid* window weighting, and
//! the two chains sum to the single-level response mode by mode (the
//! `≤1e-12` test below). The residual error of the full pipeline is
//! coarse-grid aliasing, suppressed by `L` being `~7·10⁻³` at the
//! coarse Nyquist — far below the P³M hand-off force-noise floor.
//!
//! Nyquist/zone rules (the PR 2 discipline, extended): the coarse zone
//! on the fine grid is `2·|k_index| ≤ n_c` per axis; scalar tables keep
//! the boundary modes (filter/influence are even in k, so the aliased
//! `±n_c/2` pair agrees), while every gradient multiplier is zero at
//! its grid's Nyquist — fine grid, coarse grid, and the ghost-padded
//! local lattice alike — keeping each half-spectrum product Hermitian.

use std::sync::Mutex;

use hacc_comm::one_rank;
use hacc_fft::wavenumber::{k_index, k_of_index};
use hacc_fft::{Complex64, RealFft3, RealPencilFft};
use rayon::prelude::*;

use crate::dist::{DistRealPoisson, Spectra};
use crate::spectral::{sinc, SpectralParams};

/// Matching scale σ_m in coarse-grid cells: the Gaussian hand-off width
/// between the levels. 1.0 coarse cell puts the low-pass at `7.2e-3` by
/// the coarse Nyquist while keeping the complement's real-space support
/// (and hence the ghost width) to a handful of fine cells.
const SIGMA_M_COARSE_CELLS: f64 = 1.5;

/// User-facing two-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmLevelConfig {
    /// Coarsening factor `c` (coarse grid is `(n/c)³`; must divide `n`).
    /// The paper-relevant choices are 2 and 4.
    pub coarsening: usize,
    /// Matching tolerance: the allowed relative force error from
    /// truncating the fine complement at the ghost-buffer radius. The
    /// ghost width is derived from this via the kernel's Gaussian
    /// envelope and validated numerically in the test suite.
    pub matching_tol: f64,
}

impl Default for PmLevelConfig {
    fn default() -> Self {
        PmLevelConfig {
            coarsening: 2,
            matching_tol: 1e-3,
        }
    }
}

/// The spectral force split: every kernel both levels need, in index
/// form (exact on the global fine/coarse lattices) and in k form (for
/// ghost-padded local lattices whose modes are not global indices).
#[derive(Debug, Clone, Copy)]
pub struct ForceSplit {
    n: usize,
    nc: usize,
    box_len: f64,
    params: SpectralParams,
    /// Physical matching length σ_m.
    sigma_m: f64,
    matching_tol: f64,
}

impl ForceSplit {
    /// Build the split for an `n³` fine grid over `box_len`.
    #[must_use]
    pub fn new(n: usize, box_len: f64, params: SpectralParams, cfg: PmLevelConfig) -> Self {
        let c = cfg.coarsening;
        assert!(c >= 2, "coarsening must be at least 2");
        assert!(
            n.is_multiple_of(c),
            "coarsening {c} must divide the fine grid side {n}"
        );
        let nc = n / c;
        assert!(nc > 1, "coarse grid too small: n={n}, c={c}");
        assert!(
            cfg.matching_tol > 0.0 && cfg.matching_tol < 0.5,
            "matching_tol must be in (0, 0.5)"
        );
        let delta_f = box_len / n as f64;
        ForceSplit {
            n,
            nc,
            box_len,
            params,
            sigma_m: SIGMA_M_COARSE_CELLS * c as f64 * delta_f,
            matching_tol: cfg.matching_tol,
        }
    }

    /// Fine grid side.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Coarse grid side `n/c`.
    #[must_use]
    pub fn nc(&self) -> usize {
        self.nc
    }

    /// Periodic box side.
    #[must_use]
    pub fn box_len(&self) -> f64 {
        self.box_len
    }

    /// Spectral parameters of the reference response.
    #[must_use]
    pub fn params(&self) -> &SpectralParams {
        &self.params
    }

    fn delta_f(&self) -> f64 {
        self.box_len / self.n as f64
    }

    fn delta_c(&self) -> f64 {
        self.box_len / self.nc as f64
    }

    /// Gaussian low-pass `L(k²) = exp(-k²σ_m²/2)` applied to the coarse
    /// level (its complement is baked into the fine kernel).
    #[must_use]
    pub fn lowpass(&self, k2: f64) -> f64 {
        (-k2 * self.sigma_m * self.sigma_m / 2.0).exp()
    }

    /// `(W_f/W_c)²` — the square of the ratio of fine to coarse CIC
    /// assignment windows (`W = Π sinc²(k_iΔ/2)`). Multiplying the
    /// coarse table by this deconvolves the coarse deposit+interpolation
    /// pair down to the fine-grid pair, so both chains share the same
    /// window weighting and the kernels add exactly.
    #[must_use]
    pub fn window_ratio(&self, ks: [f64; 3]) -> f64 {
        let (df, dc) = (self.delta_f(), self.delta_c());
        let mut r = 1.0;
        for &k in ks.iter() {
            r *= (sinc(0.5 * k * df) / sinc(0.5 * k * dc)).powi(4);
        }
        r
    }

    /// Does fine-grid index `j` fall inside the coarse zone
    /// (`2·|k_index| ≤ n_c`)?
    #[must_use]
    pub fn in_zone_index(&self, j: usize) -> bool {
        2 * k_index(j, self.n).unsigned_abs() as usize <= self.nc
    }

    /// Map a fine-grid index inside the zone to its coarse-grid index
    /// (`None` outside the zone). Both fine Nyquist-boundary modes
    /// `±n_c/2` land on the single coarse Nyquist bin.
    #[must_use]
    pub fn map_to_coarse(&self, j: usize) -> Option<usize> {
        let ki = k_index(j, self.n);
        if 2 * ki.unsigned_abs() as usize > self.nc {
            return None;
        }
        let nc = self.nc as i64;
        Some(if ki >= 0 { ki } else { nc + ki } as usize)
    }

    /// Shadow scalar: the coarse chain's per-mode scalar in fine-grid
    /// weighting, `G_c(k)·S_c(k)·L(k)` (coarse-spacing influence and
    /// filter), before window deconvolution. Zero at the zero mode.
    fn shadow_scalar_k(&self, ks: [f64; 3]) -> f64 {
        let dc = self.delta_c();
        let k2 = ks.iter().map(|k| k * k).sum::<f64>();
        self.params.influence_k(ks, dc) * self.params.filter_k(ks, dc) * self.lowpass(k2)
    }

    /// Fine-level scalar A: the reference `G·S` at fine index `idx` —
    /// identical arithmetic to the single-level [`crate::PmSolver`] table.
    #[must_use]
    pub fn fine_scalar_a(&self, idx: [usize; 3]) -> f64 {
        let d = self.delta_f();
        self.params.influence(idx, self.n, d) * self.params.filter(idx, self.n, d)
    }

    /// Fine-level scalar B: the coarse shadow at fine index `idx`,
    /// masked to the coarse zone. The fine kernel applies
    /// `D_f·A − D_c·B`, subtracting exactly what the coarse level adds.
    #[must_use]
    pub fn fine_scalar_b(&self, idx: [usize; 3]) -> f64 {
        if !idx.iter().all(|&j| self.in_zone_index(j)) {
            return 0.0;
        }
        let l = self.box_len;
        self.shadow_scalar_k(idx.map(|j| k_of_index(j, self.n, l)))
    }

    /// Fine-grid gradient multiplier, Nyquist-zeroed (the PR 2 rule).
    #[must_use]
    pub fn fine_grad(&self, j: usize) -> f64 {
        if self.n.is_multiple_of(2) && j == self.n / 2 {
            0.0
        } else {
            self.params.gradient(j, self.n, self.delta_f())
        }
    }

    /// Coarse-spacing gradient multiplier sampled at fine index `j`,
    /// zero at and beyond the coarse Nyquist (where the coarse grid's
    /// own Hermitian rule zeroes it).
    #[must_use]
    pub fn fine_grad_coarse(&self, j: usize) -> f64 {
        if 2 * k_index(j, self.n).unsigned_abs() as usize >= self.nc {
            0.0
        } else {
            self.params
                .gradient_k(k_of_index(j, self.n, self.box_len), self.delta_c())
        }
    }

    /// Coarse-solver scalar table entry at coarse index `idx_c`:
    /// shadow × window ratio. The coarse chain's effective response
    /// (deposit window × table × interpolation window) then matches the
    /// fine-weighted shadow the fine kernel subtracts.
    #[must_use]
    pub fn coarse_scalar(&self, idx_c: [usize; 3]) -> f64 {
        let l = self.box_len;
        let ks = idx_c.map(|j| k_of_index(j, self.nc, l));
        self.shadow_scalar_k(ks) * self.window_ratio(ks)
    }

    /// Coarse-grid gradient multiplier, Nyquist-zeroed on the coarse
    /// lattice.
    #[must_use]
    pub fn coarse_grad(&self, jc: usize) -> f64 {
        if self.nc.is_multiple_of(2) && jc == self.nc / 2 {
            0.0
        } else {
            self.params
                .gradient_k(k_of_index(jc, self.nc, self.box_len), self.delta_c())
        }
    }

    /// Fine scalar A at an arbitrary wavevector (ghost-padded local
    /// lattices).
    #[must_use]
    pub fn scalar_a_k(&self, ks: [f64; 3]) -> f64 {
        let d = self.delta_f();
        self.params.influence_k(ks, d) * self.params.filter_k(ks, d)
    }

    /// Fine scalar B at an arbitrary wavevector. The zone test is
    /// k-based with a relative guard band, since local-lattice modes
    /// generally do not hit the coarse Nyquist exactly.
    #[must_use]
    pub fn scalar_b_k(&self, ks: [f64; 3]) -> f64 {
        let kcny = std::f64::consts::PI / self.delta_c();
        if ks.iter().any(|k| k.abs() > kcny * (1.0 + 1e-9)) {
            return 0.0;
        }
        self.shadow_scalar_k(ks)
    }

    /// Coarse-spacing gradient at an arbitrary wavenumber, zero at and
    /// beyond the coarse Nyquist.
    #[must_use]
    pub fn grad_coarse_k(&self, k: f64) -> f64 {
        let kcny = std::f64::consts::PI / self.delta_c();
        if k.abs() >= kcny * (1.0 - 1e-9) {
            0.0
        } else {
            self.params.gradient_k(k, self.delta_c())
        }
    }

    /// Real-space truncation radius of the fine complement: the Gaussian
    /// split bounds the residual force fraction beyond `r` by
    /// `erfc(x) + (2x/√π)e^{-x²}` with `x = r/(√2σ_m)`; using
    /// `erfc(x) ≤ e^{-x²}/(x√π)` the whole bound is
    /// `e^{-x²}(1/x + 2x)/√π`, bisected against `matching_tol`.
    #[must_use]
    pub fn truncation_radius(&self) -> f64 {
        let bound = |x: f64| (-x * x).exp() * (1.0 / x + 2.0 * x) / std::f64::consts::PI.sqrt();
        let (mut lo, mut hi) = (0.3f64, 40.0f64);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if bound(mid) > self.matching_tol {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi * std::f64::consts::SQRT_2 * self.sigma_m
    }

    /// Ghost-buffer width in fine cells: the truncation radius rounded
    /// up, plus one cell of CIC slack. Beyond this distance the fine
    /// complement's force is below `matching_tol` of the Newtonian
    /// force at the same distance (validated numerically in the test
    /// suite).
    #[must_use]
    pub fn ghost_width(&self) -> usize {
        (self.truncation_radius() / self.delta_f()).ceil() as usize + 1
    }

    /// The matching tolerance this split was built with.
    #[must_use]
    pub fn matching_tol(&self) -> f64 {
        self.matching_tol
    }
}

/// Serial two-level solver: global fine complement + coarse level on a
/// shared box, the oracle the engine's two-level mesh is checked
/// against. Each level is the engine's own solve loop fed the oracle's
/// own tables: the coarse level is the [`DistRealPoisson`] the engine
/// builds, on the one-rank world, and the fine level is a
/// [`LocalComplementSolver`] on the periodic fine grid whose tables come
/// from the split's index-form kernels (`fine_scalar_a/b`, `fine_grad`,
/// `fine_grad_coarse`), not from the k-form kernels the engine's local
/// lattices evaluate.
pub struct TwoLevelPmSolver {
    split: ForceSplit,
    fine: LocalComplementSolver,
    coarse: DistRealPoisson<RealPencilFft<'static>>,
}

impl TwoLevelPmSolver {
    /// Create a two-level solver for an `n³` fine grid over a periodic
    /// box of side `box_len`.
    #[must_use]
    pub fn new(n: usize, box_len: f64, params: SpectralParams, cfg: PmLevelConfig) -> Self {
        let split = ForceSplit::new(n, box_len, params, cfg);
        let fine = LocalComplementSolver::with_tables(
            &split,
            n,
            |idx| [split.fine_scalar_a(idx), split.fine_scalar_b(idx)],
            |j| [split.fine_grad(j), split.fine_grad_coarse(j)],
        );
        let coarse = DistRealPoisson::with_kernels(
            RealPencilFft::with_grid(one_rank(), split.nc(), 1, 1),
            |g| split.coarse_scalar(g),
            |j| split.coarse_grad(j),
        );
        TwoLevelPmSolver {
            split,
            fine,
            coarse,
        }
    }

    /// Fine grid side.
    #[must_use]
    pub fn n(&self) -> usize {
        self.split.n()
    }

    /// Coarse grid side.
    #[must_use]
    pub fn nc(&self) -> usize {
        self.split.nc()
    }

    /// The force split (kernels, ghost width, zone bookkeeping).
    #[must_use]
    pub fn split(&self) -> &ForceSplit {
        &self.split
    }

    /// Solve the fine complement on the global fine grid (one r2c
    /// forward plus 3 c2r inverses; allocation-free once warm). Serial
    /// reference for the rank-local ghost-padded path.
    pub fn solve_fine_into(&self, source: &[f64], out: &mut [Vec<f64>; 3]) {
        let [fx, fy, fz] = out;
        // The z slot is the work grid: it takes the source and holds
        // the z component when the solve ends.
        fz.clear();
        fz.extend_from_slice(source);
        self.fine.solve_each_axis(fz, |axis, force| {
            let slot = match axis {
                0 => &mut *fx,
                1 => &mut *fy,
                _ => return,
            };
            slot.clear();
            slot.extend_from_slice(force);
        });
    }

    /// Solve the coarse level from its own `(n/c)³` source grid
    /// (allocation-free once warm).
    pub fn solve_coarse_into(&self, coarse_source: &[f64], out: &mut [Vec<f64>; 3]) {
        out[0].clear();
        out[0].extend_from_slice(coarse_source);
        self.coarse.solve_forces_in_place(out);
    }

    /// Full two-level solve: fine complement from the fine source,
    /// coarse level from the coarse source. The caller interpolates
    /// each level's force grids at the particle positions (in that
    /// grid's units) and sums — the serial equivalent of the
    /// distributed coarse-FFT + local-FFT step.
    pub fn solve_forces_into(
        &self,
        fine_source: &[f64],
        coarse_source: &[f64],
        fine_out: &mut [Vec<f64>; 3],
        coarse_out: &mut [Vec<f64>; 3],
    ) {
        self.solve_fine_into(fine_source, fine_out);
        self.solve_coarse_into(coarse_source, coarse_out);
    }
}

/// Fine-complement solver on a rank-local slab padded with ghost
/// planes: an `nx × n × n` grid that is periodic in y/z with the *true*
/// box length and periodic in x with the lattice extent `nx·Δ`. The
/// caller lays the slab and its ghost planes (`lx + 2·ghost` planes) at
/// the bottom of the lattice and zeros above them; `nx` is the smallest
/// fast FFT length ([`hacc_fft::fast_len`]) that holds them. Because the
/// complement kernel's support is below the ghost width, forces on the
/// interior `lx` planes match the global fine solve to the matching
/// tolerance: the zero planes carry no mass, and the slab
/// periodization's spurious images all sit beyond the truncation radius.
///
/// A slab that spans x whole needs neither: [`Self::periodic`] solves on
/// exactly the `n` planes of the box, whose x period is the box's, so
/// the lattice *is* the periodic fine grid and no plane is truncated.
///
/// Its solve is the crate's one two-term solve loop, `-i·(D_f·A −
/// D_c·B)`; the serial [`TwoLevelPmSolver`] runs it too.
pub struct LocalComplementSolver {
    nx: usize,
    n: usize,
    nzh: usize,
    rfft: RealFft3,
    a: Vec<f64>,
    b: Vec<f64>,
    grad_fx: Vec<f64>,
    grad_cx: Vec<f64>,
    grad_fy: Vec<f64>,
    grad_cy: Vec<f64>,
    ws: Mutex<Spectra>,
}

impl LocalComplementSolver {
    /// Build the local solver for a slab and its ghost planes spanning
    /// `min_nx` x-planes of the split's fine grid (`lx + 2·ghost`). The
    /// lattice is [`hacc_fft::fast_len`]`(min_nx)` planes long; read it
    /// back with [`Self::nx`].
    #[must_use]
    pub fn new(split: &ForceSplit, min_nx: usize) -> Self {
        Self::with_len(split, hacc_fft::fast_len(min_nx))
    }

    /// The solver on the whole periodic fine grid: exactly the split's
    /// `n` x-planes, for a slab that spans x whole — no ghost plane, no
    /// zero plane.
    #[must_use]
    pub fn periodic(split: &ForceSplit) -> Self {
        Self::with_len(split, split.n())
    }

    /// The local solver on exactly `nx ≥ 2` x-planes, its kernels
    /// evaluated at the lattice's own wavevectors (k form).
    fn with_len(split: &ForceSplit, nx: usize) -> Self {
        let n = split.n();
        let l = split.box_len();
        let df = l / n as f64;
        let lx_phys = nx as f64 * df;
        // Wavenumbers come from the indices, not from a lookup table:
        // as pure arithmetic of the loop indices the compiler hoists the
        // x and y factors out of the z loop (a table made this 2× slower).
        let kx = move |ix: usize| k_of_index(ix, nx, lx_phys);
        Self::with_tables(
            split,
            nx,
            move |[ix, iy, iz]| {
                let ks = [kx(ix), k_of_index(iy, n, l), k_of_index(iz, n, l)];
                [split.scalar_a_k(ks), split.scalar_b_k(ks)]
            },
            |ix| {
                // Hermitian rule on the local lattice's own Nyquist.
                let fine = if 2 * ix == nx {
                    0.0
                } else {
                    split.params().gradient_k(kx(ix), df)
                };
                [fine, split.grad_coarse_k(kx(ix))]
            },
        )
    }

    /// The local solver on `nx ≥ 2` x-planes from caller-supplied
    /// tables: `scalars` gives the `[A, B]` scalars at a local
    /// half-spectrum mode and `grad_x` the `[D_f, D_c]` multipliers at
    /// an x index; y and z take the split's index-form gradients.
    fn with_tables(
        split: &ForceSplit,
        nx: usize,
        scalars: impl Fn([usize; 3]) -> [f64; 2] + Sync,
        grad_x: impl Fn(usize) -> [f64; 2],
    ) -> Self {
        assert!(nx >= 2, "local slab too thin");
        let n = split.n();
        let nzh = n / 2 + 1;
        let mut a = vec![0.0f64; nx * n * nzh];
        let mut b = vec![0.0f64; nx * n * nzh];
        a.par_chunks_mut(n * nzh)
            .zip(b.par_chunks_mut(n * nzh))
            .enumerate()
            .for_each(|(ix, (ap, bp))| {
                for iy in 0..n {
                    for iz in 0..nzh {
                        [ap[iy * nzh + iz], bp[iy * nzh + iz]] = scalars([ix, iy, iz]);
                    }
                }
            });
        let (grad_fx, grad_cx) = (0..nx)
            .map(|ix| {
                let [f, c] = grad_x(ix);
                (f, c)
            })
            .unzip();
        let grad_fy = (0..n).map(|j| split.fine_grad(j)).collect();
        let grad_cy = (0..n).map(|j| split.fine_grad_coarse(j)).collect();
        LocalComplementSolver {
            nx,
            n,
            nzh,
            rfft: RealFft3::new(nx, n, n),
            a,
            b,
            grad_fx,
            grad_cx,
            grad_fy,
            grad_cy,
            ws: Mutex::default(),
        }
    }

    /// Number of x-planes of the local lattice.
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Solve the fine complement in place on the ghost-padded local
    /// lattice: `grid` (`nx·n·n`) enters as the source, the forward
    /// transform consumes it, and each force component in turn lands in
    /// it (only the interior planes, those ≥ ghost width from the padded
    /// slab's edges, are valid) and is handed to `each(axis, grid)`.
    /// Allocation-free once the spectra are warm.
    pub fn solve_each_axis(&self, grid: &mut [f64], mut each: impl FnMut(usize, &[f64])) {
        let (nx, n, nzh) = (self.nx, self.n, self.nzh);
        assert_eq!(grid.len(), nx * n * n);
        let mut ws = self.ws.lock().expect("local complement workspace poisoned");
        let Spectra { phi: base, comp } = &mut *ws;
        let slen = self.rfft.spectrum_len();
        base.resize(slen, Complex64::ZERO);
        comp.resize(slen, Complex64::ZERO);
        self.rfft.forward(grid, base);
        for axis in 0..3 {
            comp.par_chunks_mut(n * nzh)
                .enumerate()
                .for_each(|(ix, cp)| {
                    let off = ix * n * nzh;
                    let bp = &base[off..off + n * nzh];
                    let ap = &self.a[off..off + n * nzh];
                    let sp = &self.b[off..off + n * nzh];
                    for iy in 0..n {
                        let row = iy * nzh;
                        for iz in 0..nzh {
                            let (gf, gc) = match axis {
                                0 => (self.grad_fx[ix], self.grad_cx[ix]),
                                1 => (self.grad_fy[iy], self.grad_cy[iy]),
                                _ => (self.grad_fy[iz], self.grad_cy[iz]),
                            };
                            let d = gf * ap[row + iz] - gc * sp[row + iz];
                            let v = bp[row + iz];
                            cp[row + iz] = Complex64::new(v.im * d, -v.re * d);
                        }
                    }
                });
            self.rfft.backward(comp, grid);
            each(axis, grid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cic::{deposit_cic, interpolate_cic};
    use crate::solver::PmSolver;

    fn dparams() -> SpectralParams {
        SpectralParams::default()
    }

    /// Single-level reference per-axis kernel at a fine mode: the exact
    /// tables [`PmSolver`] applies (influence×filter scalar, Nyquist-
    /// zeroed gradient).
    fn reference_kernel(p: &SpectralParams, idx: [usize; 3], axis: usize, n: usize, d: f64) -> f64 {
        let mut grad = p.gradient(idx[axis], n, d);
        if n.is_multiple_of(2) && idx[axis] == n / 2 {
            grad = 0.0;
        }
        p.influence(idx, n, d) * p.filter(idx, n, d) * grad
    }

    /// Coarse shadow at a fine mode, reconstructed from the *coarse
    /// solver's stored tables* through the index mapping and the window
    /// ratio — i.e. exactly what the coarse chain contributes per mode
    /// in fine weighting.
    fn coarse_shadow_from_tables(tl: &TwoLevelPmSolver, idx: [usize; 3], axis: usize) -> f64 {
        let split = tl.split();
        let Some(jc) = split.map_to_coarse(idx[0]) else {
            return 0.0;
        };
        let Some(kc) = split.map_to_coarse(idx[1]) else {
            return 0.0;
        };
        let Some(lc) = split.map_to_coarse(idx[2]) else {
            return 0.0;
        };
        let idx_c = [jc, kc, lc];
        let nc = split.nc();
        let nczh = nc / 2 + 1;
        let (scalars, grads) = tl.coarse.tables();
        // The coarse table stores shadow×ratio; undo the ratio to
        // compare in fine weighting. z-indices above the half-spectrum
        // fold to their conjugate (scalar tables are even in k).
        let lc_h = if lc < nczh { lc } else { nc - lc };
        let jc_h = if lc < nczh { jc } else { (nc - jc) % nc };
        let kc_h = if lc < nczh { kc } else { (nc - kc) % nc };
        let scalar = scalars[(jc_h * nc + kc_h) * nczh + lc_h];
        let ks = idx_c.map(|j| k_of_index(j, nc, split.box_len()));
        let ratio = split.window_ratio(ks);
        let mut grad = grads[axis][idx_c[axis]];
        // The gradient table is odd; conjugate folding flips its sign
        // together with the mode, so read it at the true coarse index
        // (not the folded one) — sign handled by the index itself.
        let _ = &mut grad;
        scalar / ratio * grad
    }

    /// Satellite: coarse-filter + fine-complement must reproduce the
    /// reference response at every fine mode to ≤1e-12, including the
    /// Nyquist-zeroing rule.
    fn check_complementarity(n: usize, c: usize) {
        let p = dparams();
        let box_len = n as f64 * 1.7;
        let d = box_len / n as f64;
        let tl = TwoLevelPmSolver::new(
            n,
            box_len,
            p,
            PmLevelConfig {
                coarsening: c,
                matching_tol: 1e-3,
            },
        );
        let nzh = n / 2 + 1;
        // Scale: the largest reference kernel magnitude.
        let mut scale = 0.0f64;
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..nzh {
                    for axis in 0..3 {
                        scale = scale.max(reference_kernel(&p, [ix, iy, iz], axis, n, d).abs());
                    }
                }
            }
        }
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..nzh {
                    let idx = [ix, iy, iz];
                    let i = (ix * n + iy) * nzh + iz;
                    for axis in 0..3 {
                        let j = idx[axis];
                        let f = &tl.fine;
                        let (gf, gc) = if axis == 0 {
                            (&f.grad_fx, &f.grad_cx)
                        } else {
                            (&f.grad_fy, &f.grad_cy)
                        };
                        let fine = gf[j] * f.a[i] - gc[j] * f.b[i];
                        let shadow = coarse_shadow_from_tables(&tl, idx, axis);
                        let reference = reference_kernel(&p, idx, axis, n, d);
                        let err = (fine + shadow - reference).abs();
                        assert!(
                            err <= 1e-12 * scale.max(1.0),
                            "n={n} c={c} idx={idx:?} axis={axis}: fine={fine:e} \
                             shadow={shadow:e} ref={reference:e} err={err:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn complementarity_even_grid_c2() {
        check_complementarity(8, 2);
        check_complementarity(16, 2);
    }

    #[test]
    fn complementarity_c4_and_odd_coarse() {
        check_complementarity(16, 4);
        // n=30, c=2 → nc=15: odd coarse grid, no coarse Nyquist plane.
        check_complementarity(30, 2);
    }

    // Satellite: complementarity over smooth grid sizes n = 2^a·3^b·5^c
    // (the FFT's fast-path family). Cases kept small — each builds full
    // fine tables.
    #[cfg(not(miri))]
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn complementarity_smooth_sizes(a in 1u32..4, b in 0u32..2, c5 in 0u32..2) {
            let n = 2usize.pow(a) * 3usize.pow(b) * 5usize.pow(c5) * 2;
            // n is even (extra factor 2) so c=2 always divides; skip
            // degenerate/huge sizes.
            if (8..=60).contains(&n) {
                check_complementarity(n, 2);
            }
        }
    }

    /// The zero mode must stay projected out on both levels.
    #[test]
    fn dc_mode_is_zero_on_both_levels() {
        let tl = TwoLevelPmSolver::new(16, 16.0, dparams(), PmLevelConfig::default());
        assert_eq!(tl.fine.a[0], 0.0);
        assert_eq!(tl.fine.b[0], 0.0);
        assert_eq!(tl.coarse.tables().0[0], 0.0);
    }

    /// Numeric validation of the ghost-width bound: the fine complement
    /// force of a point source, beyond the truncation radius, is below
    /// `matching_tol` of the Newtonian force at that distance (with a
    /// grid-artifact margin).
    #[test]
    #[cfg_attr(miri, ignore = "FFT-heavy numeric validation")]
    fn fine_complement_is_short_ranged() {
        let n = 64;
        let cfg = PmLevelConfig {
            coarsening: 2,
            matching_tol: 1e-3,
        };
        let tl = TwoLevelPmSolver::new(n, n as f64, dparams(), cfg);
        let h = tl.split().ghost_width();
        assert!((4..=16).contains(&h), "ghost width {h} outside sane range");
        let mut src = vec![0.0f64; n * n * n];
        let ctr = n / 2;
        src[(ctr * n + ctr) * n + ctr] = 1.0;
        let mut f = [Vec::new(), Vec::new(), Vec::new()];
        tl.solve_fine_into(&src, &mut f);
        // Sample along the x axis at and beyond the ghost radius.
        for r in [h, h + 2, h + 5] {
            let fx = f[0][((ctr + r) * n + ctr) * n + ctr].abs();
            let newton = 1.0 / (4.0 * std::f64::consts::PI * (r as f64).powi(2));
            assert!(
                fx <= 10.0 * cfg.matching_tol * newton,
                "r={r}: residual {fx:e} vs tol·newton {:e}",
                cfg.matching_tol * newton
            );
        }
        // And the kernel is genuinely active inside the radius.
        let near = f[0][((ctr + 2) * n + ctr) * n + ctr].abs();
        let newton2 = 1.0 / (4.0 * std::f64::consts::PI * 4.0);
        assert!(near > 0.05 * newton2, "complement inert near the source");
    }

    /// Local ghost-padded solve matches the global fine solve on the
    /// interior planes — the distributed fine path's correctness
    /// argument, validated numerically.
    #[test]
    #[cfg_attr(miri, ignore = "FFT-heavy numeric validation")]
    fn local_solver_matches_global_in_interior() {
        let n = 48;
        let cfg = PmLevelConfig {
            coarsening: 2,
            matching_tol: 1e-3,
        };
        let tl = TwoLevelPmSolver::new(n, n as f64, dparams(), cfg);
        let split = *tl.split();
        let h = split.ghost_width();
        // Random density contrast.
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut src = vec![0.0f64; n * n * n];
        for v in src.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = (s as f64 / u64::MAX as f64) - 0.5;
        }
        let mut global = [Vec::new(), Vec::new(), Vec::new()];
        tl.solve_fine_into(&src, &mut global);
        let scale = global
            .iter()
            .flat_map(|g| g.iter())
            .fold(0.0f64, |m, v| m.max(v.abs()));

        // On the bare `lx + 2h` lattice and on the solver's own fast
        // length, with the zero planes above the upper ghost planes
        // where the engine puts them.
        let (x0, lx) = (7usize, 14usize);
        let bare = lx + 2 * h;
        let padded = LocalComplementSolver::new(&split, bare);
        assert!(padded.nx() > bare, "the case must exercise zero padding");
        for local in [LocalComplementSolver::with_len(&split, bare), padded] {
            let nx = local.nx();
            let mut grid = vec![0.0f64; nx * n * n];
            for (pl, dst) in grid.chunks_mut(n * n).take(bare).enumerate() {
                let gx = (x0 + n + pl - h) % n;
                dst.copy_from_slice(&src[gx * n * n..(gx + 1) * n * n]);
            }
            let mut max_err = 0.0f64;
            local.solve_each_axis(&mut grid, |axis, f| {
                for pl in 0..lx {
                    let gx = (x0 + pl) % n;
                    for yz in 0..n * n {
                        let want = global[axis][gx * n * n + yz];
                        let got = f[(pl + h) * n * n + yz];
                        max_err = max_err.max((want - got).abs());
                    }
                }
            });
            eprintln!("nx {nx}: interior max error {max_err:e}, scale {scale:e}");
            assert!(
                max_err <= 8.0 * cfg.matching_tol * scale,
                "nx {nx}: interior mismatch {max_err:e} vs scale {scale:e}"
            );
        }
    }

    /// Tentpole accuracy gate: the two-level pipeline (fine deposit +
    /// coarse deposit, both solves, summed interpolation) matches the
    /// single-level PM reference below the P³M force-noise floor (5%,
    /// the `GridForceFit` residual gate) on uniform and clustered ICs.
    #[test]
    #[cfg_attr(miri, ignore = "FFT-heavy accuracy test")]
    fn two_level_forces_match_single_level() {
        let n = 32;
        let c = 2;
        let nc = n / c;
        let p = dparams();
        let single = PmSolver::new(n, n as f64, p);
        let tl = TwoLevelPmSolver::new(n, n as f64, p, PmLevelConfig::default());

        let cases = [("uniform", uniform_ics(n)), ("clustered", clustered_ics(n))];
        for (tag, (xs, ys, zs)) in &cases {
            let np = xs.len();
            // Single-level: contrast on the fine grid.
            let nbar_f = np as f64 / (n * n * n) as f64;
            let mut fine = vec![0.0f64; n * n * n];
            deposit_cic(&mut fine, n, xs, ys, zs, 1.0);
            for v in fine.iter_mut() {
                *v = *v / nbar_f - 1.0;
            }
            let fref = single.solve_forces(&fine);
            let fx_ref = interpolate_cic(&fref[0], n, xs, ys, zs);
            let fy_ref = interpolate_cic(&fref[1], n, xs, ys, zs);
            let fz_ref = interpolate_cic(&fref[2], n, xs, ys, zs);

            // Two-level: same fine contrast + coarse contrast from a
            // fresh particle deposit at n/c (positions in coarse units).
            let cxs: Vec<f32> = xs.iter().map(|&v| v / c as f32).collect();
            let cys: Vec<f32> = ys.iter().map(|&v| v / c as f32).collect();
            let czs: Vec<f32> = zs.iter().map(|&v| v / c as f32).collect();
            let nbar_c = np as f64 / (nc * nc * nc) as f64;
            let mut coarse = vec![0.0f64; nc * nc * nc];
            deposit_cic(&mut coarse, nc, &cxs, &cys, &czs, 1.0);
            for v in coarse.iter_mut() {
                *v = *v / nbar_c - 1.0;
            }
            let mut ff = [Vec::new(), Vec::new(), Vec::new()];
            let mut fc = [Vec::new(), Vec::new(), Vec::new()];
            tl.solve_forces_into(&fine, &coarse, &mut ff, &mut fc);
            let sum_axis = |axis: usize| -> Vec<f32> {
                let f_fine = interpolate_cic(&ff[axis], n, xs, ys, zs);
                let f_coarse = interpolate_cic(&fc[axis], nc, &cxs, &cys, &czs);
                f_fine.iter().zip(&f_coarse).map(|(a, b)| a + b).collect()
            };
            let fx = sum_axis(0);
            let fy = sum_axis(1);
            let fz = sum_axis(2);

            let mut err2 = 0.0f64;
            let mut ref2 = 0.0f64;
            for i in 0..np {
                for (got, want) in [(fx[i], fx_ref[i]), (fy[i], fy_ref[i]), (fz[i], fz_ref[i])] {
                    err2 += f64::from(got - want).powi(2);
                    ref2 += f64::from(want).powi(2);
                }
            }
            let rel = (err2 / ref2.max(1e-30)).sqrt();
            // Force-noise floor of the P³M hand-off (GridForceFit gate).
            assert!(rel < 0.05, "{tag}: two-level rms force error {rel:.4}");
            // And well inside it for the default matching scale.
            assert!(rel < 0.035, "{tag}: error {rel:.4} above expected margin");
        }
    }

    /// Perturbed-lattice ("uniform") initial conditions.
    fn uniform_ics(n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let side = n / 2;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        let k0 = 2.0 * std::f64::consts::PI / n as f64;
        for i in 0..side {
            for j in 0..side {
                for k in 0..side {
                    let (x, y, z) = (
                        i as f64 * 2.0 + 0.5,
                        j as f64 * 2.0 + 0.5,
                        k as f64 * 2.0 + 0.5,
                    );
                    xs.push((x + 0.9 * (k0 * y).sin() + 0.4 * (2.0 * k0 * z).cos()) as f32);
                    ys.push((y + 0.7 * (k0 * z).cos() + 0.5 * (2.0 * k0 * x).sin()) as f32);
                    zs.push((z + 0.8 * (k0 * x).sin() + 0.3 * (2.0 * k0 * y).sin()) as f32);
                }
            }
        }
        (xs, ys, zs)
    }

    /// Clustered initial conditions: Gaussian blobs around random
    /// centers (late-time-like density contrast).
    fn clustered_ics(n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut s = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as f64 / u64::MAX as f64
        };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        for _ in 0..8 {
            let (cx, cy, cz) = (next() * n as f64, next() * n as f64, next() * n as f64);
            let sigma = 1.5 + 2.0 * next();
            for _ in 0..500 {
                // Box-Muller pairs for an isotropic Gaussian blob.
                let mut gauss = || {
                    let (u1, u2) = (next().max(1e-12), next());
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                };
                let nf = n as f64;
                xs.push(((cx + sigma * gauss()).rem_euclid(nf)) as f32);
                ys.push(((cy + sigma * gauss()).rem_euclid(nf)) as f32);
                zs.push(((cz + sigma * gauss()).rem_euclid(nf)) as f32);
            }
        }
        (xs, ys, zs)
    }

    #[test]
    fn solver_reuses_buffers_and_matches() {
        let n = 12;
        let tl = TwoLevelPmSolver::new(n, 24.0, dparams(), PmLevelConfig::default());
        let nc = tl.nc();
        let mut s = 7u64;
        let mut rand_grid = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s as f64 / u64::MAX as f64) - 0.5
                })
                .collect()
        };
        let fine = rand_grid(n * n * n);
        let coarse = rand_grid(nc * nc * nc);
        let mut f1 = [Vec::new(), Vec::new(), Vec::new()];
        let mut c1 = [Vec::new(), Vec::new(), Vec::new()];
        tl.solve_forces_into(&fine, &coarse, &mut f1, &mut c1);
        let snap_f = f1.clone();
        let snap_c = c1.clone();
        tl.solve_forces_into(&fine, &coarse, &mut f1, &mut c1);
        for axis in 0..3 {
            assert_eq!(f1[axis], snap_f[axis]);
            assert_eq!(c1[axis], snap_c[axis]);
        }
    }

    /// Ghost width grows as the tolerance tightens and shrinks with it.
    #[test]
    fn ghost_width_tracks_tolerance() {
        let mk = |tol: f64| {
            ForceSplit::new(
                64,
                64.0,
                dparams(),
                PmLevelConfig {
                    coarsening: 2,
                    matching_tol: tol,
                },
            )
            .ghost_width()
        };
        let (loose, nominal, tight) = (mk(1e-2), mk(1e-3), mk(1e-5));
        assert!(loose <= nominal && nominal <= tight);
        assert!(loose >= 4, "loose ghost width {loose} implausibly small");
        assert!(tight <= 20, "tight ghost width {tight} implausibly large");
    }
}

// Distributed coarse-solve tests need the threads-as-ranks Machine.
#[cfg(all(test, not(miri)))]
mod dist_tests {
    use super::*;
    use crate::dist::DistRealPoisson;
    use hacc_comm::Machine;
    use hacc_fft::{DistRealFft3, RealPencilFft};

    /// The distributed coarse solve over a slab-shaped RealPencilFft
    /// must equal the serial coarse level bit-for-tolerance.
    #[test]
    fn dist_coarse_matches_serial_coarse() {
        let (n, c, ranks) = (16usize, 2usize, 4usize);
        let nc = n / c;
        let tl = TwoLevelPmSolver::new(
            n,
            n as f64,
            SpectralParams::default(),
            PmLevelConfig::default(),
        );
        let split = *tl.split();
        let mut s = 3u64;
        let source: Vec<f64> = (0..nc * nc * nc)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) - 0.5
            })
            .collect();
        let mut want = [Vec::new(), Vec::new(), Vec::new()];
        tl.solve_coarse_into(&source, &mut want);

        let src = source.clone();
        let (results, _) = Machine::new(ranks).run(move |comm| {
            // p×1 pencil grid ⇒ x-slab real layout, matching the
            // coarse deposit's slab decomposition.
            let fft = RealPencilFft::with_grid(&comm, nc, ranks, 1);
            let rl = fft.real_layout();
            let mut local = vec![0.0; rl.len()];
            for (i, v) in local.iter_mut().enumerate() {
                let g = rl.global_coords(i);
                *v = src[(g[0] * nc + g[1]) * nc + g[2]];
            }
            let solver = DistRealPoisson::with_kernels(
                fft,
                |g| split.coarse_scalar(g),
                |j| split.coarse_grad(j),
            );
            (rl, solver.solve_forces(&local))
        });
        for (rl, forces) in &results {
            for axis in 0..3 {
                for (i, v) in forces[axis].iter().enumerate() {
                    let g = rl.global_coords(i);
                    let w = want[axis][(g[0] * nc + g[1]) * nc + g[2]];
                    assert!((v - w).abs() < 1e-9, "axis {axis} {g:?}: {v} vs {w}");
                }
            }
        }
    }
}
