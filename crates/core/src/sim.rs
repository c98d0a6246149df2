//! Serial (shared-memory) simulation driver: the 1-rank case of the
//! distributed engine. It drifts, wraps at the refresh, deposits,
//! gathers and evaluates the short range as a 1-rank
//! [`DistSimulation`] does, so a serial run is
//! bitwise a 1-rank distributed run on a single-level mesh.

use std::time::Instant;

use hacc_domain::Decomposition;
use hacc_pm::{GridForceFit, PmSolver, TwoLevelPmSolver};

use crate::config::{SimConfig, SolverKind};
use crate::dist::DistSimulation;
use crate::short::ShortRange;
use crate::slab::{contrast, HaloSlab, SlabGrid};
use crate::stats::{RunStats, StepBreakdown};
use crate::stepper::{self, ForceField, PhaseSpace};

/// Process-wide cache of grid-force fits, keyed by the spectral
/// configuration. The fit is deterministic (fixed seed) and costs ~24
/// Poisson solves, so drivers constructed repeatedly — every rank of a
/// simulated machine, every benchmark iteration — share one measurement,
/// just as production HACC computes the force-matching polynomial once.
pub(crate) fn cached_grid_fit(cfg: &SimConfig) -> GridForceFit {
    use std::sync::{Mutex, OnceLock};
    let SimConfig { spectral, rcut_cells, .. } = *cfg;
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

/// Reusable per-step working memory. Every buffer a timestep needs lives
/// here (or in the solver-owned pools), so a steady-state [`Simulation::step`]
/// performs zero heap allocations: the first step sizes everything, later
/// steps only overwrite.
#[derive(Default)]
struct StepScratch {
    /// Density / per-component force grids for the PM solve. On the
    /// two-level path these carry the fine level.
    grid: Vec<f64>,
    fgrids: [Vec<f64>; 3],
    /// Two-level coarse path: the coarse density and force grids.
    cgrid: Vec<f64>,
    cfgrids: [Vec<f64>; 3],
}

/// A running N-body simulation.
pub struct Simulation {
    cfg: SimConfig,
    pm: PmSolver,
    /// Two-level mesh (coarse global + fine complement) when enabled.
    pm2: Option<TwoLevelPmSolver>,
    fit: GridForceFit,
    /// The box as one block: its wrap is the refresh's.
    decomp: Decomposition,
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
    /// or between sub-cycle kicks the short-range solver's. The two are
    /// never live together, so they share one buffer.
    accel: [Vec<f32>; 3],
    /// `accel` holds the closing solve's long-range field at the current
    /// positions, so the next opening kick applies it without solving.
    held: bool,
    /// Reusable per-step working memory.
    scratch: StepScratch,
    /// The short-range layer, every axis periodic.
    short: ShortRange,
    /// Statistics.
    pub stats: RunStats,
}

impl Simulation {
    /// Build a simulation from initial conditions.
    ///
    /// The grid-force response is measured and fitted at construction
    /// (paper Eq. 7); this is a one-time cost per spectral configuration.
    /// Positions are wrapped as the distributed engine's constructing
    /// refresh wraps them.
    #[must_use] 
    pub fn from_ics(cfg: SimConfig, ics: &hacc_ics::IcsRealization) -> Self {
        assert!((ics.box_len - cfg.box_len).abs() < 1e-9, "box mismatch");
        let mut sim = Self::from_state(
            cfg,
            ics.a_init,
            ics.x.clone(),
            ics.y.clone(),
            ics.z.clone(),
            ics.vx.clone(),
            ics.vy.clone(),
            ics.vz.clone(),
        );
        sim.wrap();
        sim
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
        let fit = cached_grid_fit(&cfg);
        Simulation {
            short: ShortRange::new(&cfg, &fit, [cfg.ng as f32; 3]),
            decomp: DistSimulation::decomposition(&cfg, 1),
            cfg,
            pm,
            pm2,
            fit,
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

    /// Position accessors (Mpc/h). Positions stream unwrapped within a
    /// step and are wrapped at the next step's refresh, so a coordinate
    /// may lie up to one step's drift outside `[0, box_len)`: wrap it,
    /// or use minimum-image separations.
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

    /// Long/medium-range acceleration per particle (physical units),
    /// left in `self.accel`: the slab kernels the distributed engine
    /// runs, on a box that is one slab and so wraps every axis.
    /// Allocation-free once warm: grids and spectra come from
    /// `self.scratch` / the solver workspace.
    fn pm_accel_into(&mut self, brk: &mut StepBreakdown) {
        let (ng, box_len) = (self.cfg.ng, self.cfg.box_len);
        let pos = [&self.x[..], &self.y[..], &self.z[..]];
        let (sc, out) = (&mut self.scratch, &mut self.accel);
        let fine = SlabGrid::whole(ng, box_len);

        let t0 = Instant::now();
        box_density(&fine, pos, &mut sc.grid);
        brk.cic += t0.elapsed();

        if let Some(tl) = &self.pm2 {
            let coarse = SlabGrid::whole(tl.nc(), box_len);
            let tc = Instant::now();
            box_density(&coarse, pos, &mut sc.cgrid);
            brk.cic += tc.elapsed();

            let t1 = Instant::now();
            tl.solve_fine_into(&sc.grid, &mut sc.fgrids);
            brk.fft += t1.elapsed();
            let t1c = Instant::now();
            tl.solve_coarse_into(&sc.cgrid, &mut sc.cfgrids);
            brk.coarse_fft += t1c.elapsed();

            let t2 = Instant::now();
            fine.gather(HaloSlab::whole(&sc.fgrids), 0, pos, out, false);
            coarse.gather(HaloSlab::whole(&sc.cfgrids), 0, pos, out, true);
            brk.cic += t2.elapsed();
            return;
        }

        let t1 = Instant::now();
        self.pm.solve_forces_into(&sc.grid, &mut sc.fgrids);
        brk.fft += t1.elapsed();

        let t2 = Instant::now();
        fine.gather(HaloSlab::whole(&sc.fgrids), 0, pos, out, false);
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
        let grid = SlabGrid::whole(self.cfg.ng, self.cfg.box_len);
        let pos = [&self.x[..], &self.y[..], &self.z[..]];
        let mut rho = Vec::new();
        box_density(&grid, pos, &mut rho);
        let phi_hat = self.pm.solve_potential(&rho);
        let mut phi_i = [Vec::new()];
        grid.gather([HaloSlab::contiguous(&phi_hat)], 0, pos, &mut phi_i, false);
        let [phi_i] = phi_i;
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

    /// Every position wrapped into the box by the 1-rank domain's wrap,
    /// as the distributed refresh wraps its actives.
    fn wrap(&mut self) {
        for c in [&mut self.x, &mut self.y, &mut self.z] {
            for v in c.iter_mut() {
                *v = self.decomp.wrap_f32(*v);
            }
        }
    }
}

impl ForceField for Simulation {
    fn open(&mut self, _: &mut StepBreakdown) {}

    /// The 1-rank refresh: every position wrapped by the domain's wrap,
    /// the short-range layer invalidated, so its tree is rebuilt at the
    /// first sub-cycle of every step as a resumed run's fresh tree is.
    fn refresh(&mut self, brk: &mut StepBreakdown) {
        let t0 = Instant::now();
        self.wrap();
        self.short.invalidate();
        brk.other += t0.elapsed();
    }

    fn long_range(&mut self, solve: bool, brk: &mut StepBreakdown) {
        if solve || !self.held {
            self.pm_accel_into(brk);
        }
        // The closing solve's field is held for the next opening kick,
        // which consumes it.
        self.held = solve;
    }

    /// The short-range layer over all N particles, left in
    /// `self.accel`. Allocation-free once warm.
    fn short_range(&mut self, brk: &mut StepBreakdown) {
        let pos = [&self.x[..], &self.y[..], &self.z[..]];
        self.short.evaluate(pos, self.x.len(), brk, &mut self.accel);
    }

    fn phase_space(&mut self) -> PhaseSpace<'_> {
        let [ax, ay, az] = &self.accel;
        PhaseSpace {
            x: [&mut self.x, &mut self.y, &mut self.z],
            p: [&mut self.vx, &mut self.vy, &mut self.vz],
            a: [ax, ay, az],
        }
    }
}

/// The density contrast of every particle on a box that is one slab,
/// left in `ext`.
fn box_density(grid: &SlabGrid, pos: [&[f32]; 3], ext: &mut Vec<f64>) {
    let count = pos[0].len();
    grid.deposit(pos, count, ext);
    contrast(ext, count as f64 / (grid.n * grid.n * grid.n) as f64);
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

    /// The serial engine's force field, checked after every short-range
    /// evaluation: the held acceleration must be the f64 minimum-image
    /// brute-force sum over all particles at their current positions.
    struct Checked<'s> {
        sim: &'s mut Simulation,
        /// Indices of two clusters whose pairs the check also counts.
        a: std::ops::Range<usize>,
        b: std::ops::Range<usize>,
        /// Per evaluation: the largest error relative to the largest
        /// force component, the smallest a–b minimum-image distance
        /// (cells) and the a–b pairs inside the cutoff.
        evals: Vec<(f64, f64, usize)>,
    }

    impl Checked<'_> {
        fn check(&mut self) {
            let sim = &*self.sim;
            let (ng, np) = (sim.cfg.ng as f64, sim.len());
            let to_grid = ng / sim.cfg.box_len;
            let nbar = np as f64 / (ng * ng * ng);
            let scale = sim.cfg.box_len / ng / nbar * sim.fit.norm;
            let k = hacc_short::ForceKernel::new(
                sim.fit.coeffs_f32(),
                sim.cfg.rcut_cells as f32,
                sim.fit.epsilon as f32,
            );
            let g: [Vec<f64>; 3] = [&sim.x, &sim.y, &sim.z]
                .map(|c| c.iter().map(|&v| f64::from(v) * to_grid).collect());
            let sep = |i: usize, j: usize| -> [f64; 3] {
                std::array::from_fn(|c| {
                    let d = g[c][j] - g[c][i];
                    d - ng * (d / ng).round()
                })
            };
            let want: Vec<[f64; 3]> = (0..np)
                .map(|i| {
                    let mut f = [0.0f64; 3];
                    for j in 0..np {
                        let d = sep(i, j);
                        let s = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                        if s <= 0.0 || s >= f64::from(k.rcut2) {
                            continue;
                        }
                        let poly = k.coeffs.iter().rev().fold(0.0, |p, &c| p * s + f64::from(c));
                        let g = (s + f64::from(k.eps)).powf(-1.5) - poly;
                        for (f, d) in f.iter_mut().zip(d) {
                            *f += scale * d * g;
                        }
                    }
                    f
                })
                .collect();
            let big = want.iter().flatten().fold(1e-30, |m: f64, v| m.max(v.abs()));
            let err = want
                .iter()
                .enumerate()
                .flat_map(|(i, f)| (0..3).map(move |c| (f[c] - f64::from(sim.accel[c][i])).abs()))
                .fold(0.0, f64::max);
            let (mut closest, mut cross) = (f64::INFINITY, 0);
            for i in self.a.clone() {
                for j in self.b.clone() {
                    let d = sep(i, j);
                    let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                    closest = closest.min(r);
                    cross += usize::from(r * r < f64::from(k.rcut2));
                }
            }
            self.evals.push((err / big, closest, cross));
        }
    }

    impl ForceField for Checked<'_> {
        fn open(&mut self, brk: &mut StepBreakdown) {
            self.sim.open(brk);
        }
        fn refresh(&mut self, brk: &mut StepBreakdown) {
            self.sim.refresh(brk);
        }
        fn long_range(&mut self, solve: bool, brk: &mut StepBreakdown) {
            self.sim.long_range(solve, brk);
        }
        fn short_range(&mut self, brk: &mut StepBreakdown) {
            self.sim.short_range(brk);
            self.check();
        }
        fn phase_space(&mut self) -> PhaseSpace<'_> {
            self.sim.phase_space()
        }
    }

    /// The Verlet-skin rebuild criterion, after every sub-cycle. Two
    /// 8-particle clusters (one leaf each) close in on each other across
    /// the periodic x face, each moving 0.8 skin per sub-cycle: at the
    /// build their gap is 1.3 skins beyond `r_cut` — outside the pair
    /// list — and one sub-cycle later they are 0.3 skins inside it. Only
    /// a rebuild catches that, and only the two-particle bound (twice
    /// the largest displacement against the skin) asks for one; a lone
    /// fast particle never outruns the list, so it takes two.
    #[test]
    fn subcycle_forces_match_brute_force_with_fast_clusters() {
        let (ng, cell, skin, rcut) = (12usize, 4.0f64, 0.5f64, 3.0f64);
        let (a0, a1) = (0.5f64, 0.5 * 1.004);
        let cfg = SimConfig {
            ng,
            box_len: ng as f64 * cell,
            a_init: a0,
            subcycles: 4,
            skin_cells: skin,
            rcut_cells: rcut,
            tree: hacc_short::TreeParams { leaf_size: 8 },
            ..small_cfg(SolverKind::TreePm)
        };
        // Sub-cycle edges, equal in ln a: the first evaluation follows a
        // half sub-cycle drift, the next one a whole sub-cycle.
        let b = |s: f64| a0 * (a1 / a0).powf(s / 4.0);
        let c = cfg.cosmology;
        let half = c.drift_factor(b(0.0), (b(0.0) * b(1.0)).sqrt());
        let whole = c.drift_factor((b(0.0) * b(1.0)).sqrt(), (b(1.0) * b(2.0)).sqrt());
        let v = 0.8 * skin * cell / whole;
        let gap0 = rcut + 1.3 * skin + 2.0 * v * half / cell;
        let (p, w) = (ng as f64, 0.2);
        let mut ics = hacc_ics::uniform_grid(2, cfg.box_len);
        let (mut x, mut y, mut z, mut vx) = (vec![], vec![], vec![], vec![]);
        for (edge, side, vel) in [(p - 0.5 * gap0, -1.0, v), (0.5 * gap0, 1.0, -v)] {
            for l in 0..8 {
                let o = [l & 1, (l >> 1) & 1, l >> 2].map(|b| f64::from(b) * w);
                x.push(((edge + side * o[0]) * cell) as f32);
                y.push(((6.0 + o[1]) * cell) as f32);
                z.push(((6.0 + o[2]) * cell) as f32);
                vx.push(vel as f32);
            }
        }
        (ics.x, ics.y, ics.z) = (x, y, z);
        ics.vx = vx;
        (ics.vy, ics.vz) = (vec![0.0; 16], vec![0.0; 16]);
        ics.a_init = a0;
        let mut sim = Simulation::from_ics(cfg, &ics);
        let mut run = Checked {
            sim: &mut sim,
            a: 0..8,
            b: 8..16,
            evals: Vec::new(),
        };
        stepper::step(&mut run, &cfg, a0, a1);
        let evals = run.evals;
        assert_eq!(evals.len(), 4);
        let (_, built, _) = evals[0];
        assert!(
            built > rcut + skin,
            "at the build the clusters must lie beyond the list: {built:.3}"
        );
        assert!(evals.iter().any(|e| e.2 > 0), "the clusters must come into range: {evals:?}");
        for (sub, &(err, closest, cross)) in evals.iter().enumerate() {
            assert!(
                err < 1e-5,
                "sub-cycle {sub}: short-range force off by {err:.2e} of the largest \
                 (closest cluster pair {closest:.3} cells, {cross} pairs in range)"
            );
        }
    }

    /// The serial engine's force field, its positions checked after
    /// every refresh.
    struct Refreshed<'s> {
        sim: &'s mut Simulation,
        refreshes: usize,
    }

    impl ForceField for Refreshed<'_> {
        fn open(&mut self, brk: &mut StepBreakdown) {
            self.sim.open(brk);
        }
        fn refresh(&mut self, brk: &mut StepBreakdown) {
            self.sim.refresh(brk);
            self.refreshes += 1;
            let l = self.sim.cfg.box_len as f32;
            let (x, y, z) = self.sim.positions();
            for v in x.iter().chain(y).chain(z) {
                assert!(*v >= 0.0 && *v < l, "position {v} after refresh {}", self.refreshes);
            }
        }
        fn long_range(&mut self, solve: bool, brk: &mut StepBreakdown) {
            self.sim.long_range(solve, brk);
        }
        fn short_range(&mut self, brk: &mut StepBreakdown) {
            self.sim.short_range(brk);
        }
        fn phase_space(&mut self) -> PhaseSpace<'_> {
            self.sim.phase_space()
        }
    }

    /// Positions stream unwrapped within a step; every refresh wraps
    /// them all into `[0, L)`. Steps large enough that some particle
    /// leaves the box within each.
    #[test]
    fn refresh_wraps_every_position_into_the_box() {
        for solver in [SolverKind::P3m, SolverKind::TreePm] {
            let mut sim = make_sim(solver, 0.2);
            let cfg = sim.cfg;
            let mut field = Refreshed {
                sim: &mut sim,
                refreshes: 0,
            };
            let mut outside = 0;
            for (a0, a1) in [(0.2, 0.25), (0.25, 0.3)] {
                stepper::step(&mut field, &cfg, a0, a1);
                let l = cfg.box_len as f32;
                let (x, y, z) = field.sim.positions();
                outside += x.iter().chain(y).chain(z).filter(|&&v| !(0.0..l).contains(&v)).count();
            }
            assert_eq!(field.refreshes, 2, "{solver:?}");
            assert!(outside > 0, "{solver:?}: no particle left the box within a step");
        }
    }

    /// P³M's chaining mesh bins coordinates wrapped into the mesh: at
    /// positions up to a step's drift outside the box, the forces are
    /// those at the wrapped positions, to rounding.
    #[test]
    fn p3m_forces_do_not_depend_on_the_wrap() {
        let mut sim = make_sim(SolverKind::P3m, 0.2);
        sim.step(0.25);
        let l = sim.cfg.box_len as f32;
        let outside = sim.x.iter().chain(&sim.y).chain(&sim.z).filter(|v| !(0.0..l).contains(*v));
        assert!(outside.count() > 0, "no particle outside the box");
        let unwrapped = sim.total_accel();
        sim.wrap();
        let wrapped = sim.total_accel();
        let big = wrapped.iter().flatten().fold(0.0f32, |m, v| m.max(v.abs()));
        let (u, w) = (unwrapped.iter().flatten(), wrapped.iter().flatten());
        let worst = u.zip(w).fold(0.0f32, |m, (u, w)| m.max((u - w).abs()));
        assert!(worst <= 1e-4 * big, "forces differ by {worst:.3e} of the largest {big:.3e}");
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
