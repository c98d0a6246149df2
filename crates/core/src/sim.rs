//! Serial (shared-memory) simulation driver.

use std::time::Instant;

use hacc_pm::{
    deposit_cic_par, deposit_cic_par_with, interpolate_cic, interpolate_cic_into, CicScratch,
    GridForceFit, PmSolver, TwoLevelPmSolver,
};
use hacc_short::{ForceKernel, P3mScratch, P3mSolver};
use rayon::prelude::*;

use crate::config::{SimConfig, SolverKind};
use crate::short::TreeShortRange;
use crate::stats::{RunStats, StepBreakdown};
use crate::stepper::{self, ForceField};

/// Process-wide cache of grid-force fits, keyed by the spectral
/// configuration. The fit is deterministic (fixed seed) and costs ~24
/// Poisson solves, so drivers constructed repeatedly — every rank of a
/// simulated machine, every benchmark iteration — share one measurement,
/// just as production HACC computes the force-matching polynomial once.
fn cached_grid_fit(spectral: hacc_pm::SpectralParams, rcut_cells: f64) -> GridForceFit {
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<Vec<(String, GridForceFit)>>> = OnceLock::new();
    let key = format!("{spectral:?}|{rcut_cells}");
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    {
        let guard = cache.lock().expect("fit cache");
        if let Some((_, fit)) = guard.iter().find(|(k, _)| *k == key) {
            return fit.clone();
        }
    }
    // Measure outside the lock (rayon-parallel inside); racing threads may
    // duplicate work but converge to identical results.
    let fit = GridForceFit::measure(32, spectral, rcut_cells, 0x4841_4343);
    let mut guard = cache.lock().expect("fit cache");
    if !guard.iter().any(|(k, _)| *k == key) {
        guard.push((key, fit.clone()));
    }
    fit
}

/// The grid-force fit for `cfg` and the short-range kernel matched to it
/// (paper Eq. 7): both engines build their force pair here.
pub(crate) fn fitted_kernel(cfg: &SimConfig) -> (GridForceFit, ForceKernel) {
    let fit = cached_grid_fit(cfg.spectral, cfg.rcut_cells);
    let kernel = ForceKernel::new(fit.coeffs_f32(), cfg.rcut_cells as f32, fit.epsilon as f32);
    (fit, kernel)
}

/// Reusable per-step working memory. Every buffer a timestep needs lives
/// here (or in the solver-owned pools), so a steady-state [`Simulation::step`]
/// performs zero heap allocations: the first step sizes everything, later
/// steps only overwrite.
#[derive(Default)]
struct StepScratch {
    /// Positions in PM grid units.
    gx: Vec<f32>,
    gy: Vec<f32>,
    gz: Vec<f32>,
    /// Density / per-component force grids for the PM solve. On the
    /// two-level path these carry the fine level.
    grid: Vec<f64>,
    fgrids: [Vec<f64>; 3],
    /// CIC counting-sort bins.
    cic: CicScratch,
    /// Two-level coarse path: positions in coarse-grid units, coarse
    /// density/force grids, their own CIC bins (sized `ng/c`, kept
    /// separate so the bins never resize between levels), and the
    /// per-particle coarse-force staging buffer.
    cgx: Vec<f32>,
    cgy: Vec<f32>,
    cgz: Vec<f32>,
    cgrid: Vec<f64>,
    cfgrids: [Vec<f64>; 3],
    ccic: CicScratch,
    cbuf: Vec<f32>,
    /// Unit masses of the P3m path.
    mass: Vec<f32>,
    /// TreePm path: source particle index of each ghost image appended
    /// to the tree's coordinates at build time.
    ghost_src: Vec<u32>,
    /// Chaining-mesh scratch (P3m path).
    p3m: P3mScratch,
}

/// A running N-body simulation.
pub struct Simulation {
    cfg: SimConfig,
    pm: PmSolver,
    /// Two-level mesh (coarse global + fine complement) when enabled.
    pm2: Option<TwoLevelPmSolver>,
    fit: GridForceFit,
    kernel: ForceKernel,
    /// Current scale factor.
    pub a: f64,
    /// Positions (Mpc/h) and momenta (`p = a²ẋ`, Mpc/h·H0), SoA f32.
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
    vx: Vec<f32>,
    vy: Vec<f32>,
    vz: Vec<f32>,
    /// The acceleration the next kick applies: the long-range solve's,
    /// or between sub-cycle kicks the short-range solver's (the TreePm
    /// one with the ghost images after the real particles). The two are
    /// never live together, so they share one buffer.
    accel: [Vec<f32>; 3],
    /// `accel` holds the closing solve's long-range field at the current
    /// positions, so the next opening kick applies it without solving.
    held: bool,
    /// Reusable per-step working memory.
    scratch: StepScratch,
    /// Persistent short-range tree state (TreePm path).
    tree_sr: TreeShortRange,
    /// Statistics.
    pub stats: RunStats,
}

impl Simulation {
    /// Build a simulation from initial conditions.
    ///
    /// The grid-force response is measured and fitted at construction
    /// (paper Eq. 7); this is a one-time cost per spectral configuration.
    #[must_use] 
    pub fn from_ics(cfg: SimConfig, ics: &hacc_ics::IcsRealization) -> Self {
        assert!((ics.box_len - cfg.box_len).abs() < 1e-9, "box mismatch");
        Self::from_state(
            cfg,
            ics.a_init,
            ics.x.clone(),
            ics.y.clone(),
            ics.z.clone(),
            ics.vx.clone(),
            ics.vy.clone(),
            ics.vz.clone(),
        )
    }

    /// Rebuild a simulation from checkpointed state (positions, momenta,
    /// scale factor). No long-range field is held: the next step solves
    /// it from bit-identical positions, producing a bit-identical force,
    /// so a resumed run matches an uninterrupted one exactly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_state(
        cfg: SimConfig,
        a: f64,
        x: Vec<f32>,
        y: Vec<f32>,
        z: Vec<f32>,
        vx: Vec<f32>,
        vy: Vec<f32>,
        vz: Vec<f32>,
    ) -> Self {
        let n = x.len();
        assert!(
            [&y, &z, &vx, &vy, &vz].iter().all(|c| c.len() == n),
            "checkpoint columns must share one length"
        );
        let pm = PmSolver::new(cfg.ng, cfg.box_len, cfg.spectral);
        let pm2 = cfg
            .two_level
            .map(|lv| TwoLevelPmSolver::new(cfg.ng, cfg.box_len, cfg.spectral, lv));
        let (fit, kernel) = fitted_kernel(&cfg);
        Simulation {
            cfg,
            pm,
            pm2,
            fit,
            kernel,
            a,
            x,
            y,
            z,
            vx,
            vy,
            vz,
            accel: Default::default(),
            held: false,
            scratch: StepScratch::default(),
            tree_sr: TreeShortRange::new(&cfg),
            stats: RunStats::default(),
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the simulation holds no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Position accessors (Mpc/h).
    pub fn positions(&self) -> (&[f32], &[f32], &[f32]) {
        (&self.x, &self.y, &self.z)
    }

    /// Momentum accessors.
    pub fn momenta(&self) -> (&[f32], &[f32], &[f32]) {
        (&self.vx, &self.vy, &self.vz)
    }

    /// The driver configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The fitted grid-force response in use.
    pub fn grid_fit(&self) -> &GridForceFit {
        &self.fit
    }

    /// Mean particles per PM cell.
    fn nbar(&self) -> f64 {
        self.len() as f64 / (self.cfg.ng * self.cfg.ng * self.cfg.ng) as f64
    }

    /// Long/medium-range acceleration per particle (physical units),
    /// left in `self.accel`. Allocation-free once warm: grids, CIC bins
    /// and spectra come from `self.scratch` / the solver workspace.
    fn pm_accel_into(&mut self, brk: &mut StepBreakdown) {
        let ng = self.cfg.ng;
        let nbar = self.nbar();
        let s = (ng as f64 / self.cfg.box_len) as f32;
        let (sc, out) = (&mut self.scratch, &mut self.accel);
        fill_scaled(&self.x, s, &mut sc.gx);
        fill_scaled(&self.y, s, &mut sc.gy);
        fill_scaled(&self.z, s, &mut sc.gz);

        let t0 = Instant::now();
        sc.grid.clear();
        sc.grid.resize(ng * ng * ng, 0.0);
        deposit_cic_par_with(&mut sc.grid, ng, &sc.gx, &sc.gy, &sc.gz, 1.0, &mut sc.cic);
        for v in sc.grid.iter_mut() {
            *v = *v / nbar - 1.0;
        }
        brk.cic += t0.elapsed();

        if let Some(tl) = &self.pm2 {
            // Two-level path, same buffer discipline: every grid and
            // staging vector lives in the scratch, so steady-state steps
            // stay allocation-free.
            let nc = tl.nc();
            let inv_c = (nc as f64 / ng as f64) as f32;
            let tc = Instant::now();
            fill_scaled(&sc.gx, inv_c, &mut sc.cgx);
            fill_scaled(&sc.gy, inv_c, &mut sc.cgy);
            fill_scaled(&sc.gz, inv_c, &mut sc.cgz);
            sc.cgrid.clear();
            sc.cgrid.resize(nc * nc * nc, 0.0);
            deposit_cic_par_with(
                &mut sc.cgrid,
                nc,
                &sc.cgx,
                &sc.cgy,
                &sc.cgz,
                1.0,
                &mut sc.ccic,
            );
            let nbar_c = nbar * (ng as f64 / nc as f64).powi(3);
            for v in sc.cgrid.iter_mut() {
                *v = *v / nbar_c - 1.0;
            }
            brk.cic += tc.elapsed();

            let t1 = Instant::now();
            tl.solve_fine_into(&sc.grid, &mut sc.fgrids);
            brk.fft += t1.elapsed();
            let t1c = Instant::now();
            tl.solve_coarse_into(&sc.cgrid, &mut sc.cfgrids);
            brk.coarse_fft += t1c.elapsed();

            let t2 = Instant::now();
            for (c, slot) in out.iter_mut().enumerate() {
                interpolate_cic_into(&sc.fgrids[c], ng, &sc.gx, &sc.gy, &sc.gz, slot);
                interpolate_cic_into(&sc.cfgrids[c], nc, &sc.cgx, &sc.cgy, &sc.cgz, &mut sc.cbuf);
                for (o, v) in slot.iter_mut().zip(&sc.cbuf) {
                    *o += v;
                }
            }
            brk.cic += t2.elapsed();
            return;
        }

        let t1 = Instant::now();
        self.pm.solve_forces_into(&sc.grid, &mut sc.fgrids);
        brk.fft += t1.elapsed();

        let t2 = Instant::now();
        for (slot, fg) in out.iter_mut().zip(sc.fgrids.iter()) {
            interpolate_cic_into(fg, ng, &sc.gx, &sc.gy, &sc.gz, slot);
        }
        brk.cic += t2.elapsed();
    }

    /// Advance one full long-range step to scale factor `a1`
    /// (paper Eq. 6: `M_lr(t/2)(M_sr(t/nc))^nc M_lr(t/2)`).
    pub fn step(&mut self, a1: f64) {
        assert!(a1 > self.a, "steps must move forward in a");
        let (cfg, a0) = (self.cfg, self.a);
        let brk = stepper::step(self, &cfg, a0, a1);
        self.a = a1;
        self.stats.steps.push(brk);
    }

    /// Run the configured schedule to `a_final`; calls `on_step(a, self)`
    /// after each step for snapshotting.
    pub fn run<F: FnMut(f64, &Simulation)>(&mut self, mut on_step: F) {
        let edges = self.cfg.step_edges();
        for &a1 in edges.iter().skip(1) {
            if a1 <= self.a {
                continue;
            }
            self.step(a1);
            on_step(self.a, self);
        }
    }

    /// Specific kinetic and potential energy of the particle system at
    /// the current epoch (per unit particle mass, `H0 = 1` units):
    /// `K = Σ p²/2a²`, `U = ½·(3/2)Ωm/a·Σ φ̂(x_i)` with `∇²φ̂ = δ`.
    ///
    /// Together these satisfy the Layzer–Irvine cosmic energy equation
    /// `d(K+U)/dt = -H(2K+U)`, the standard global accuracy check for
    /// cosmological N-body integrators.
    pub fn energies(&self) -> (f64, f64) {
        let a2 = (self.a * self.a) as f32;
        let mut k = 0.0f64;
        for i in 0..self.len() {
            let p2 = self.vx[i] * self.vx[i] + self.vy[i] * self.vy[i] + self.vz[i] * self.vz[i];
            k += f64::from(p2 / (2.0 * a2));
        }
        // Potential from the spectral solve (unfiltered influence only
        // would double-count softening; using the production kernel keeps
        // consistency with the forces actually applied).
        let ng = self.cfg.ng;
        let to_grid = (ng as f64 / self.cfg.box_len) as f32;
        let [gx, gy, gz] = [&self.x, &self.y, &self.z].map(|c| {
            let mut g = Vec::new();
            fill_scaled(c, to_grid, &mut g);
            g
        });
        let mut grid = vec![0.0f64; ng * ng * ng];
        deposit_cic_par(&mut grid, ng, &gx, &gy, &gz, 1.0);
        let nbar = self.nbar();
        for v in grid.iter_mut() {
            *v = *v / nbar - 1.0;
        }
        let phi_hat = self.pm.solve_potential(&grid);
        let phi_i = interpolate_cic(&phi_hat, ng, &gx, &gy, &gz);
        let prefactor = 1.5 * self.cfg.cosmology.omega_m / self.a;
        let u = 0.5 * prefactor * phi_i.iter().map(|&v| f64::from(v)).sum::<f64>();
        (k, u)
    }

    /// Total acceleration (PM + short-range) at the current positions —
    /// exposed for force-accuracy studies and tests. Runs the step's own
    /// force paths into the held buffer, so it takes `&mut self`.
    pub fn total_accel(&mut self) -> [Vec<f32>; 3] {
        let mut brk = StepBreakdown::default();
        self.long_range(true, &mut brk);
        let mut out = self.accel.clone();
        if self.cfg.solver != SolverKind::PmOnly {
            self.short_range(&mut brk);
            // The held buffer now carries the short-range force: the
            // next step must solve its opening field.
            self.held = false;
            for (o, s) in out.iter_mut().zip(&self.accel) {
                for (o, s) in o.iter_mut().zip(s) {
                    *o += s;
                }
            }
        }
        out
    }
}

impl ForceField for Simulation {
    fn open(&mut self, _: &mut StepBreakdown) {}

    fn long_range(&mut self, solve: bool, brk: &mut StepBreakdown) {
        if solve || !self.held {
            self.pm_accel_into(brk);
        }
        // The closing solve's field is held for the next opening kick,
        // which consumes it.
        self.held = solve;
    }

    /// Short-range acceleration per particle (physical units), left in
    /// `self.accel` (first `self.len()` entries are the real particles).
    /// Allocation-free once warm: the tree is rebuilt in place and
    /// ghost/mass buffers persist.
    fn short_range(&mut self, brk: &mut StepBreakdown) {
        let ng = self.cfg.ng;
        let np = self.len();
        let scale = (self.cfg.box_len / ng as f64 / self.nbar() * self.fit.norm) as f32;
        let s = (ng as f64 / self.cfg.box_len) as f32;
        let StepScratch {
            gx,
            gy,
            gz,
            mass,
            ghost_src,
            p3m,
            ..
        } = &mut self.scratch;
        fill_scaled(&self.x, s, gx);
        fill_scaled(&self.y, s, gy);
        fill_scaled(&self.z, s, gz);
        match self.cfg.solver {
            SolverKind::PmOnly => unreachable!("short-range force with PmOnly"),
            SolverKind::P3m => {
                let t0 = Instant::now();
                mass.clear();
                mass.resize(np, 1.0);
                let solver = P3mSolver::new(self.kernel, ng as f32);
                let inter = solver.forces_into(gx, gy, gz, mass, p3m, &mut self.accel);
                brk.kernel += t0.elapsed();
                brk.interactions += inter;
                brk.pair_interactions += inter;
                for v in self.accel.iter_mut().flatten() {
                    *v *= scale;
                }
            }
            SolverKind::TreePm => {
                let t0 = Instant::now();
                let rcut = self.cfg.rcut_cells as f32;
                let skin = self.tree_sr.skin;
                let lg = ng as f32;
                let rebuild = self.tree_sr.must_rebuild();
                let [ax, ay, az] = &mut self.tree_sr.pos;
                if rebuild {
                    // Ghost images for periodicity (the serial stand-in
                    // for overloading), in a band widened by the skin so
                    // every partner a particle can meet while drifting up
                    // to skin/2 is already present.
                    with_ghosts_into(gx, gy, gz, lg, rcut + skin, ax, ay, az, ghost_src);
                } else {
                    // Move the tree's coordinates along with the
                    // particles. Positions may have wrapped through the
                    // periodic boundary since the last sub-cycle, so take
                    // the minimum image of each displacement; a ghost
                    // moves with its source (read before the source
                    // itself is updated).
                    let mi = move |d: f32| -> f32 {
                        if d > 0.5 * lg {
                            d - lg
                        } else if d < -0.5 * lg {
                            d + lg
                        } else {
                            d
                        }
                    };
                    for (g, &src) in ghost_src.iter().enumerate() {
                        let (j, sp) = (np + g, src as usize);
                        ax[j] += mi(gx[sp] - ax[sp]);
                        ay[j] += mi(gy[sp] - ay[sp]);
                        az[j] += mi(gz[sp] - az[sp]);
                    }
                    for i in 0..np {
                        ax[i] += mi(gx[i] - ax[i]);
                        ay[i] += mi(gy[i] - ay[i]);
                        az[i] += mi(gz[i] - az[i]);
                    }
                }
                brk.build += t0.elapsed();
                self.tree_sr
                    .evaluate(&self.kernel, scale, brk, &mut self.accel);
            }
        }
    }

    fn kick_operands(&mut self) -> ([&mut [f32]; 3], [&[f32]; 3]) {
        let np = self.x.len();
        let [ax, ay, az] = &self.accel;
        (
            [&mut self.vx, &mut self.vy, &mut self.vz],
            [&ax[..np], &ay[..np], &az[..np]],
        )
    }

    /// Stream, wrapping every position back into the box.
    fn drift(&mut self, factor: f64) {
        let (l, f) = (self.cfg.box_len as f32, factor as f32);
        let xs = [&mut self.x, &mut self.y, &mut self.z];
        for (x, v) in xs.into_iter().zip([&self.vx, &self.vy, &self.vz]) {
            x.par_iter_mut()
                .zip(v.par_iter())
                .for_each(|(p, &v)| *p = wrap_into_box(*p + f * v, l));
        }
        // Displacement bound for the Verlet-skin rebuild criterion.
        self.tree_sr.add_drift(
            factor,
            [&self.vx, &self.vy, &self.vz],
            self.cfg.ng as f64 / self.cfg.box_len,
        );
    }
}

/// `v` wrapped into the periodic box `[0, l)`.
pub(crate) fn wrap_into_box(v: f32, l: f32) -> f32 {
    let w = v % l;
    let w = if w < 0.0 { w + l } else { w };
    if w >= l {
        0.0
    } else {
        w
    }
}

/// `out = s·src` into a reused buffer (positions → grid units).
pub(crate) fn fill_scaled(src: &[f32], s: f32, out: &mut Vec<f32>) {
    out.clear();
    out.extend(src.iter().map(|&v| v * s));
}

/// Append periodic ghost images of particles within `rcut` of the box
/// faces (grid units, box side `l`) into the caller's reused buffers;
/// returns the count of real particles (the prefix).
///
/// `ghost_src[g]` records the real-particle index each appended ghost is
/// an image of, so a Verlet-skin refresh can re-derive ghost coordinates
/// from the drifted real positions without regenerating the ghost set.
#[allow(clippy::too_many_arguments)] // three input + four output SoA arrays
fn with_ghosts_into(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    l: f32,
    rcut: f32,
    ax: &mut Vec<f32>,
    ay: &mut Vec<f32>,
    az: &mut Vec<f32>,
    ghost_src: &mut Vec<u32>,
) -> usize {
    let n = xs.len();
    ax.clear();
    ay.clear();
    az.clear();
    ghost_src.clear();
    ax.extend_from_slice(xs);
    ay.extend_from_slice(ys);
    az.extend_from_slice(zs);
    // Slot 0 is always the zero shift; slots 1.. are the ±l wraps.
    let shifts = |v: f32, out: &mut [f32; 3]| -> usize {
        out[0] = 0.0;
        let mut c = 1;
        if v < rcut {
            out[c] = l;
            c += 1;
        }
        if v > l - rcut {
            out[c] = -l;
            c += 1;
        }
        c
    };
    let (mut sx, mut sy, mut sz) = ([0.0f32; 3], [0.0f32; 3], [0.0f32; 3]);
    for i in 0..n {
        let cx = shifts(xs[i], &mut sx);
        let cy = shifts(ys[i], &mut sy);
        let cz = shifts(zs[i], &mut sz);
        for (a, &dx) in sx[..cx].iter().enumerate() {
            for (b, &dy) in sy[..cy].iter().enumerate() {
                for (c, &dz) in sz[..cz].iter().enumerate() {
                    if a == 0 && b == 0 && c == 0 {
                        continue;
                    }
                    ax.push(xs[i] + dx);
                    ay.push(ys[i] + dy);
                    az.push(zs[i] + dz);
                    ghost_src.push(i as u32);
                }
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_cosmo::{Cosmology, LinearPower, Transfer};

    fn small_cfg(solver: SolverKind) -> SimConfig {
        SimConfig {
            ng: 16,
            box_len: 64.0,
            steps: 4,
            subcycles: 2,
            solver,
            ..SimConfig::small_lcdm()
        }
    }

    fn make_sim(solver: SolverKind, a0: f64) -> Simulation {
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let ics = hacc_ics::zeldovich(16, 64.0, &power, a0, 7);
        let cfg = SimConfig {
            a_init: a0,
            ..small_cfg(solver)
        };
        Simulation::from_ics(cfg, &ics)
    }

    /// `with_ghosts_into` through fresh buffers: augmented x/y/z, the
    /// ghost → source map and the real-particle count.
    fn ghosts(xs: &[f32], ys: &[f32], zs: &[f32]) -> ([Vec<f32>; 3], Vec<u32>, usize) {
        let (mut ax, mut ay, mut az, mut gs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let n = with_ghosts_into(xs, ys, zs, 10.0, 1.0, &mut ax, &mut ay, &mut az, &mut gs);
        ([ax, ay, az], gs, n)
    }

    #[test]
    fn ghosts_replicate_faces_only() {
        let ([ax, _, _], gs, n) = ghosts(&[5.0, 0.5], &[5.0, 5.0], &[5.0, 5.0]);
        assert_eq!(n, 2);
        // Interior particle adds nothing; the face particle adds one image.
        assert_eq!(ax.len(), 3);
        assert_eq!(ax[2], 10.5);
        assert_eq!(gs, vec![1]);
    }

    #[test]
    fn corner_ghosts_complete() {
        let ([ax, ay, az], gs, _) = ghosts(&[0.2], &[0.3], &[9.9]);
        // 2×2×2 images minus the original = 7 ghosts.
        assert_eq!(ax.len(), 8);
        assert_eq!(ay.len(), 8);
        assert_eq!(az.len(), 8);
        assert_eq!(gs, vec![0; 7]);
    }

    #[test]
    fn momentum_conserved_over_step() {
        let mut sim = make_sim(SolverKind::TreePm, 0.1);
        let p0: f64 = sim.vx.iter().map(|&v| f64::from(v)).sum();
        sim.step(0.11);
        let p1: f64 = sim.vx.iter().map(|&v| f64::from(v)).sum();
        let scale: f64 = sim.vx.iter().map(|&v| f64::from(v.abs())).sum();
        assert!(
            (p1 - p0).abs() < 1e-3 * scale.max(1.0),
            "Δp = {}",
            p1 - p0
        );
    }

    /// `total_accel` runs the step's force paths into the held buffer and
    /// `energies` solves beside it: called between two steps, neither may
    /// move the trajectory by a bit.
    #[test]
    fn probes_between_steps_leave_the_trajectory_alone() {
        for solver in [SolverKind::TreePm, SolverKind::PmOnly] {
            let run = |probe: bool| {
                let mut sim = make_sim(solver, 0.2);
                sim.step(0.22);
                if probe {
                    let _ = sim.total_accel();
                    let _ = sim.energies();
                }
                sim.step(0.24);
                [&sim.x, &sim.y, &sim.z, &sim.vx, &sim.vy, &sim.vz]
                    .map(|c| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert!(
                run(false) == run(true),
                "{solver:?}: probing moved the trajectory"
            );
        }
    }

    #[test]
    fn positions_stay_in_box() {
        let mut sim = make_sim(SolverKind::P3m, 0.2);
        sim.step(0.25);
        sim.step(0.3);
        let l = sim.cfg.box_len as f32;
        for v in sim.x.iter().chain(&sim.y).chain(&sim.z) {
            assert!(*v >= 0.0 && *v < l, "position {v}");
        }
    }

    #[test]
    fn linear_growth_reproduced_pm_only() {
        // Evolve a Zel'dovich start through the linear regime; the
        // *low-k* power (well below the force-resolution scale, where the
        // PM force is exact) must grow as D²(a). The total momentum rms
        // would lag because CIC+filter suppress the near-Nyquist modes —
        // that is by design (the short-range solver owns those scales).
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let a0 = 0.05;
        let a1 = 0.1;
        let box_len = 200.0;
        let ics = hacc_ics::zeldovich(24, box_len, &power, a0, 3);
        let cfg = SimConfig {
            a_init: a0,
            a_final: a1,
            steps: 10,
            box_len,
            ng: 48,
            solver: SolverKind::PmOnly,
            ..small_cfg(SolverKind::PmOnly)
        };
        let mut sim = Simulation::from_ics(cfg, &ics);
        let spectrum = |s: &Simulation| {
            let (x, y, z) = s.positions();
            hacc_analysis::PowerSpectrum::measure(x, y, z, box_len, 24, 12)
        };
        let ps0 = spectrum(&sim);
        sim.run(|_, _| {});
        let ps1 = spectrum(&sim);
        let g = power.growth();
        let want = (g.d_of_a(a1) / g.d_of_a(a0)).powi(2);
        // Average the growth over the lowest few k bins.
        let mut ratio = 0.0;
        let mut n = 0;
        for i in 0..ps0.k.len().min(4) {
            ratio += ps1.p[i] / ps0.p[i];
            n += 1;
        }
        let got = ratio / f64::from(n);
        assert!(
            (got / want - 1.0).abs() < 0.12,
            "low-k power growth {got}, linear theory D² = {want}"
        );
    }

    #[test]
    fn treepm_and_p3m_forces_agree() {
        let mut sim_tree = make_sim(SolverKind::TreePm, 0.3);
        let mut sim_p3m = make_sim(SolverKind::P3m, 0.3);
        let ft = sim_tree.total_accel();
        let fp = sim_p3m.total_accel();
        // Identical particle states ⇒ near-identical forces (both exact
        // within the cutoff; differences only from f32 ordering).
        let mut max_rel: f64 = 0.0;
        let scale = ft[0]
            .iter()
            .map(|&v| f64::from(v.abs()))
            .fold(0.0, f64::max)
            .max(1e-12);
        for c in 0..3 {
            for (a, b) in ft[c].iter().zip(&fp[c]) {
                max_rel = max_rel.max(f64::from((a - b).abs()) / scale);
            }
        }
        assert!(max_rel < 1e-3, "max relative force diff {max_rel}");
    }

    #[test]
    fn two_level_pm_matches_single_level_forces() {
        // The two-level Poisson solve must reproduce the single-level PM
        // acceleration below the P³M force-noise floor on an evolved
        // (clustered) particle state.
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let ics = hacc_ics::zeldovich(16, 64.0, &power, 0.3, 11);
        let cfg1 = SimConfig {
            a_init: 0.3,
            ng: 32,
            solver: SolverKind::PmOnly,
            ..small_cfg(SolverKind::PmOnly)
        };
        let cfg2 = SimConfig {
            two_level: Some(hacc_pm::PmLevelConfig::default()),
            ..cfg1
        };
        let mut s1 = Simulation::from_ics(cfg1, &ics);
        let mut s2 = Simulation::from_ics(cfg2, &ics);
        // Evolve the two-level run a little so the step loop itself (both
        // half kicks, cache reuse) exercises the new path, then compare
        // forces at identical positions.
        s2.step(0.32);
        s1.a = s2.a;
        s1.x.clone_from(&s2.x);
        s1.y.clone_from(&s2.y);
        s1.z.clone_from(&s2.z);
        let f1 = s1.total_accel();
        let f2 = s2.total_accel();
        let mut err2 = 0.0f64;
        let mut ref2 = 0.0f64;
        for c in 0..3 {
            for (a, b) in f1[c].iter().zip(&f2[c]) {
                err2 += f64::from(a - b).powi(2);
                ref2 += f64::from(*a).powi(2);
            }
        }
        let rel = (err2 / ref2.max(1e-30)).sqrt();
        assert!(rel < 0.05, "two-level vs single-level rms force diff {rel:.4}");
        // The coarse solve must have been timed into its own slot.
        let total = s2.stats.total();
        assert!(total.coarse_fft.as_nanos() > 0);
        assert!(total.fft.as_nanos() > 0);
    }

    #[test]
    fn stats_populated() {
        let mut sim = make_sim(SolverKind::TreePm, 0.2);
        sim.step(0.22);
        let total = sim.stats.total();
        assert!(total.interactions > 0);
        assert!(total.kernel.as_nanos() > 0);
        assert!(total.fft.as_nanos() > 0);
        assert!(sim.stats.time_per_substep_per_particle(sim.len(), 2) > 0.0);
    }

    #[test]
    fn layzer_irvine_energy_budget() {
        // The cosmic energy equation d(K+U)/da = -(2K+U)/a·(da-normalized)
        // must hold along the trajectory. Integrate the right-hand side
        // with the midpoint rule across several steps and compare with
        // the actual change of K+U.
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let a0 = 0.2;
        let a1 = 0.3;
        let ics = hacc_ics::zeldovich(16, 100.0, &power, a0, 77);
        let cfg = SimConfig {
            a_init: a0,
            a_final: a1,
            steps: 10,
            box_len: 100.0,
            solver: SolverKind::PmOnly,
            ..small_cfg(SolverKind::PmOnly)
        };
        let mut sim = Simulation::from_ics(cfg, &ics);
        let mut states = vec![(sim.a, sim.energies())];
        sim.run(|_, s| states.push((s.a, s.energies())));
        let (_, (k0, u0)) = states[0];
        let (_, (k1, u1)) = *states.last().expect("states");
        let lhs = (k1 + u1) - (k0 + u0);
        // RHS: -∫ (2K+U) da/a via trapezoid over the recorded states,
        // using dt = da/(aE): d(K+U)/dt = -H(2K+U) ⇒ d(K+U)/da = -(2K+U)/a.
        let mut rhs = 0.0;
        for w in states.windows(2) {
            let (aa, (ka, ua)) = w[0];
            let (ab, (kb, ub)) = w[1];
            let fa = -(2.0 * ka + ua) / aa;
            let fb = -(2.0 * kb + ub) / ab;
            rhs += 0.5 * (fa + fb) * (ab - aa);
        }
        let scale = (k0 + k1 + u0.abs() + u1.abs()).max(1e-12);
        assert!(
            (lhs - rhs).abs() < 0.05 * scale,
            "Layzer-Irvine violated: ΔE = {lhs:.4e}, -∫H(2K+U)dt = {rhs:.4e}, scale {scale:.3e}"
        );
        // Sanity: potential negative (bound structure), kinetic positive.
        assert!(k1 > 0.0 && u1 < 0.0, "K = {k1}, U = {u1}");
    }

    #[test]
    fn pair_force_matches_newtonian_in_matching_region() {
        // Two isolated particles: |total accel| ≈ (Δ/n̄)·norm/r² with the
        // fitted normalization, for r inside the matching region.
        // Use the same grid size as the fit's reference (32³) so the PM
        // response matches the fitted poly; average many random
        // orientations/offsets, because at r < r_cut the residual CIC
        // anisotropy of the *grid* force (±10-20% pointwise even after
        // filtering) only cancels in the spherical mean — which is exactly
        // what the isotropic short-range kernel is fitted against.
        let cfg = SimConfig {
            a_init: 0.5,
            ng: 32,
            ..small_cfg(SolverKind::TreePm)
        };
        let ng = cfg.ng as f64;
        let delta = cfg.box_len / ng; // 2 Mpc/h per cell
        let r_cells = 1.5;
        let nbar = 2.0 / (ng * ng * ng);
        let mut rng = 0xDEADBEEFu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng as f64 / u64::MAX as f64
        };
        let mut ratios = Vec::new();
        for _ in 0..16 {
            let u = 2.0 * next() - 1.0;
            let phi = 2.0 * std::f64::consts::PI * next();
            let q = (1.0 - u * u).sqrt();
            let (ux, uy, uz) = (q * phi.cos(), q * phi.sin(), u);
            let bx = 24.0 + 16.0 * next();
            let by = 24.0 + 16.0 * next();
            let bz = 24.0 + 16.0 * next();
            let mut ics = hacc_ics::uniform_grid(2, cfg.box_len);
            ics.x = vec![bx as f32, (bx + r_cells * delta * ux) as f32];
            ics.y = vec![by as f32, (by + r_cells * delta * uy) as f32];
            ics.z = vec![bz as f32, (bz + r_cells * delta * uz) as f32];
            ics.vx = vec![0.0; 2];
            ics.vy = vec![0.0; 2];
            ics.vz = vec![0.0; 2];
            ics.a_init = 0.5;
            let mut sim = Simulation::from_ics(cfg, &ics);
            let f = sim.total_accel();
            // Radial component of the force on particle 0 toward 1.
            let fr = f64::from(f[0][0]) * ux + f64::from(f[1][0]) * uy + f64::from(f[2][0]) * uz;
            let want = delta / nbar * sim.grid_fit().norm / (r_cells * r_cells);
            assert!(fr > 0.0, "attraction expected, got {fr}");
            ratios.push(fr / want);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            (mean - 1.0).abs() < 0.08,
            "mean pair accel / Newtonian = {mean} (samples {ratios:?})"
        );
    }
}
