//! Distributed simulation driver over the mini-MPI substrate.
//!
//! Reproduces the full parallel structure of the paper at simulated-rank
//! scale: slab (1-D x) domain decomposition aligned with the distributed
//! FFT's slab layout, particle overloading for rank-local short-range
//! solves, and the distributed spectral Poisson solve. This is the driver
//! behind the Table II / Table III (Figs. 7–8) scaling experiments.
//!
//! One deliberate deviation from the paper is documented here: HACC
//! obtains boundary-cell density from the overloaded replicas with no
//! communication; we instead deposit *active* particles into a two-plane
//! halo on each side and fold the spill planes onto the x-neighbors (one
//! small message per solve). The resulting grid is numerically
//! identical; the fold keeps the deposit free of replica double-counting
//! without tracking canonical copies.
//!
//! A 1-rank view spans every axis whole, and it is the serial engine:
//! [`crate::Simulation`] is this engine on a process-wide one-rank
//! world, whose steps send no message (see `sim.rs` for why).

use std::cell::OnceCell;
use std::time::{Duration, Instant};

use hacc_comm::Comm;
use hacc_domain::gridhalo::{exchange_halos, fold_spill_into};
use hacc_domain::{refresh, Decomposition, Packed, Particles};
use hacc_fft::{DistRealFft3, RealPencilFft};
use hacc_pm::{DistRealPoisson, ForceSplit, GridForceFit, LocalComplementSolver};

use crate::config::{SimConfig, SolverKind};
use crate::short::ShortRange;
use crate::slab::{contrast, HaloSlab, SlabGrid, DEPOSIT_HALO};
use crate::stats::{RunStats, StepBreakdown};
use crate::stepper::{self, ForceField, PhaseSpace};

/// Point-to-point tag pairs for the slab-grid exchanges; each call site
/// gets its own pair so concurrent halos never cross.
const TAGS_FINE_FOLD: (u64, u64) = (101, 102);
const TAGS_FORCE_HALO: (u64, u64) = (201, 202);
const TAGS_COARSE_FOLD: (u64, u64) = (111, 112);
const TAGS_COARSE_FORCE_HALO: (u64, u64) = (211, 212);
const TAGS_FINE_DENSITY_HALO: (u64, u64) = (221, 222);
const TAGS_POTENTIAL_HALO: (u64, u64) = (231, 232);

/// Process-wide cache of grid-force fits, keyed by the spectral
/// configuration. The fit is deterministic (fixed seed) and costs ~24
/// Poisson solves, so drivers constructed repeatedly — every rank of a
/// simulated machine, every benchmark iteration — share one measurement,
/// just as production HACC computes the force-matching polynomial once.
fn cached_grid_fit(cfg: &SimConfig) -> GridForceFit {
    static CACHE: std::sync::Mutex<Vec<(String, GridForceFit)>> = std::sync::Mutex::new(Vec::new());
    let SimConfig { spectral, rcut_cells, .. } = *cfg;
    let key = format!("{spectral:?}|{rcut_cells}");
    let cached = |key: &str| {
        let cache = CACHE.lock().expect("fit cache");
        cache.iter().find(|(k, _)| k == key).map(|(_, fit)| fit.clone())
    };
    if let Some(fit) = cached(&key) {
        return fit;
    }
    // Measure outside the lock (rayon-parallel inside); racing threads may
    // duplicate work but converge to identical results.
    let fit = GridForceFit::measure(32, spectral, rcut_cells, 0x4841_4343);
    CACHE.lock().expect("fit cache").push((key, fit.clone()));
    fit
}

/// Rank-local machinery of the two-level PM mesh: the force split, the
/// local complement solver, and the halo depths its solve uses. Across
/// a split x axis the local solve runs on the slab padded with ghost
/// planes; a whole slab is the periodic fine grid itself.
struct TwoLevelDist {
    split: ForceSplit,
    local: LocalComplementSolver,
    /// Ghost density planes on each side of the fine slab in the local
    /// lattice: the complement kernel's support plus the fine force
    /// halo across a split axis, none on a whole slab.
    ghost: usize,
    /// Coarse force-halo depth in coarse cells.
    h_c: usize,
}

impl TwoLevelDist {
    /// Build the per-rank two-level machinery for `p` slabs. Across a
    /// split axis it validates that the slab geometry can host the ghost
    /// depths the split requires on top of the `h_int`-plane fine force
    /// halo; one slab solves on the periodic `ng` lattice and needs no
    /// ghost and no halo. Communication-free.
    fn new(cfg: &SimConfig, p: usize, w_cells: f64, h_int: usize) -> Option<Self> {
        let lv = cfg.two_level?;
        let split = ForceSplit::new(cfg.ng, cfg.box_len, cfg.spectral, lv);
        let nc = split.nc();
        assert_eq!(
            nc % p,
            0,
            "coarse grid side {nc} must be divisible by the rank count {p}"
        );
        let h_c = ((w_cells / lv.coarsening as f64).ceil() as usize) + 1;
        if p == 1 {
            return Some(TwoLevelDist {
                local: LocalComplementSolver::periodic(&split),
                split,
                ghost: 0,
                h_c,
            });
        }
        let lx = cfg.ng / p;
        let h_kernel = split.ghost_width();
        let ghost = h_kernel + h_int;
        assert!(
            ghost <= lx,
            "slab too thin for the two-level ghost depth: \
             kernel {h_kernel} + interpolation {h_int} planes vs {lx}-plane slab \
             (use more grid per rank or a looser matching_tol)"
        );
        let lc = nc / p;
        assert!(
            h_c <= lc && lc >= 2,
            "coarse slab too thin: {lc} planes vs halo {h_c}"
        );
        Some(TwoLevelDist {
            local: LocalComplementSolver::new(&split, lx + 2 * ghost),
            split,
            ghost,
            h_c,
        })
    }
}

/// Overload shell depth in grid cells (DESIGN.md: `w = r_cut + 1.5`).
fn overload_cells(cfg: &SimConfig) -> f64 {
    cfg.rcut_cells + 1.5
}

/// The long-range pipeline's held buffers, one set for both mesh
/// levels: sized by the first solve, reused by every later one.
#[derive(Default)]
struct PmState {
    /// The global solve's grids: `[0]` is the extended deposit slab,
    /// folded in place into the owned density contrast (the source),
    /// and the solve leaves the three force slabs here.
    grids: [Vec<f64>; 3],
    /// `accel` holds the closing solve's long-range acceleration at
    /// every local particle, which the closing kick did not move and no
    /// refresh has replaced since, so the next opening kick applies it
    /// without solving. Either mesh; the opening call clears it.
    held: bool,
    /// Two-level mesh only: the local solve's lattice. The fine deposit
    /// is extended in place by its ghost planes and zero planes (none on
    /// a whole slab), and the solve then leaves each fine force
    /// component here in turn.
    fine_source: Vec<f64>,
    /// The acceleration the next kick applies to every local particle:
    /// the long-range gather's, or between sub-cycle kicks the
    /// short-range tree's. The two are never live together, so they
    /// share one buffer.
    accel: [Vec<f32>; 3],
}

/// One rank's view of a distributed simulation.
pub struct DistSimulation<'a> {
    comm: &'a Comm,
    cfg: SimConfig,
    decomp: Decomposition,
    parts: Particles,
    /// Current scale factor.
    pub a: f64,
    /// Per-rank statistics.
    pub stats: RunStats,
    /// Overload width in grid cells.
    w_cells: f64,
    /// Fine force-halo depth across a split x axis, `⌈w⌉ + 1` planes:
    /// every plane beyond the slab that the CIC gather at a local
    /// particle, replicas included, can read.
    h_int: usize,
    /// Two-level PM machinery when `cfg.two_level` is set.
    tl: Option<TwoLevelDist>,
    /// The fitted grid-force response the short-range kernel matches.
    fit: GridForceFit,
    /// The global long-range solve of this view — the `ng` mesh, or the
    /// coarse `ng/c` mesh of the two-level split — on a `p × 1` pencil
    /// FFT, whose real layout is exactly this rank's slab. Building it is
    /// collective (`Comm::split`), so the first long-range solve of a
    /// view builds it: constructors stay communication-free (a lone
    /// replacement rank builds its view while survivors keep their
    /// state), and the views a membership change builds on every rank
    /// build it together with matching sub-communicators.
    global: OnceCell<DistRealPoisson<RealPencilFft<'a>>>,
    /// The short-range layer over the rank's overloaded particle set,
    /// periodic along the axes the rank spans whole.
    short: ShortRange,
    /// Held long-range buffers.
    pm: PmState,
    /// The global particle count. It is conserved, so each step's
    /// opening takes it once and that step's force calls use it.
    count: usize,
}

impl<'a> DistSimulation<'a> {
    /// Create from a full IC realization (each rank keeps its domain's
    /// particles). Requires `cfg.ng % ranks == 0` so domain and slab
    /// boundaries coincide, and slabs wide enough for the overload shell.
    #[must_use] 
    pub fn new(comm: &'a Comm, cfg: SimConfig, ics: &hacc_ics::IcsRealization) -> Self {
        let mut sim = Self::from_checkpoint_state(comm, cfg, ics.a_init, Particles::default());
        // Claim this rank's particles.
        for i in 0..ics.len() {
            let pos = [f64::from(ics.x[i]), f64::from(ics.y[i]), f64::from(ics.z[i])];
            if sim.decomp.owner_of(pos) == comm.rank() {
                sim.parts.push(Packed {
                    x: ics.x[i],
                    y: ics.y[i],
                    z: ics.z[i],
                    vx: ics.vx[i],
                    vy: ics.vy[i],
                    vz: ics.vz[i],
                    id: i as u64,
                });
            }
        }
        sim.parts.n_active = sim.parts.len();
        refresh(sim.comm, &sim.decomp, &mut sim.parts);
        sim
    }

    /// Rebuild one rank's view from checkpointed state: the active
    /// particles exactly as they were (order and bits), scale factor
    /// restored. Neither a solve nor a refresh is performed here, and
    /// the view holds no long-range field: `step()` solves on the
    /// restored actives, kicks, then refreshes — the closing solve, the
    /// opening kick and the refresh of the uninterrupted run, on the
    /// same inputs — so the resumed trajectory is bit-identical.
    /// Communication-free; every rank must call it with consistent `cfg`.
    pub(crate) fn from_checkpoint_state(
        comm: &'a Comm,
        cfg: SimConfig,
        a: f64,
        parts: Particles,
    ) -> Self {
        let p = comm.size();
        assert_eq!(cfg.ng % p, 0, "ng must be divisible by rank count");
        let w_cells = overload_cells(&cfg);
        let lx = cfg.ng / p;
        assert!(
            (lx as f64) > w_cells + 1.0,
            "slab too thin: {lx} cells vs overload {w_cells}"
        );
        let h_int = (w_cells.ceil() as usize) + 1;
        let decomp = Self::decomposition(&cfg, p);
        // An axis this rank spans whole gets no replicas from the
        // decomposition: the short range sees its images through shifts.
        let periods = decomp.dims.map(|d| if d == 1 { cfg.ng as f32 } else { 0.0 });
        let tl = TwoLevelDist::new(&cfg, p, w_cells, h_int);
        let fit = cached_grid_fit(&cfg);
        DistSimulation {
            comm,
            short: ShortRange::new(&cfg, &fit, periods),
            fit,
            cfg,
            decomp,
            parts,
            a,
            stats: RunStats::default(),
            w_cells,
            h_int,
            tl,
            global: OnceCell::new(),
            pm: PmState::default(),
            count: 0,
        }
    }

    /// How `ranks` ranks tile the box, overload shell included. The one
    /// place that knows: the engine above and the rehome of every
    /// membership change both build from it, so a rehomed world can
    /// never disagree with the engine built on it.
    pub(crate) fn decomposition(cfg: &SimConfig, ranks: usize) -> Decomposition {
        let delta = cfg.box_len / cfg.ng as f64;
        Decomposition::new([ranks, 1, 1], cfg.box_len, overload_cells(cfg) * delta)
    }

    /// Overload shell depth in grid cells — the paper's replication
    /// width, and the Tier-0 coverage bound: a particle is recoverable
    /// online only while some neighbor's replica of it lies within this
    /// depth of the domain face.
    #[must_use]
    pub fn overload_depth_cells(&self) -> f64 {
        self.w_cells
    }

    /// Collective physics-invariant sample over the active population:
    /// non-finite phase-space entries, total momentum, total kinetic
    /// energy. Reduced to rank 0 and broadcast, so every rank sees
    /// bitwise-identical values — the watchdog verdicts derived from a
    /// sample are globally consistent by construction.
    #[must_use]
    pub fn invariant_sample(&self) -> crate::invariant::InvariantSample {
        let mut non_finite = 0u64;
        let mut p = [0.0f64; 3];
        let mut ke = 0.0f64;
        let ((x, y, z), (vx, vy, vz)) = (self.positions(), self.momenta());
        for i in 0..x.len() {
            let v = [x[i], y[i], z[i], vx[i], vy[i], vz[i]];
            if v.iter().any(|c| !c.is_finite()) {
                non_finite += 1;
                continue;
            }
            let u = [v[3], v[4], v[5]].map(f64::from);
            for (p, u) in p.iter_mut().zip(u) {
                *p += u;
            }
            ke += 0.5 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
        }
        let g = self.comm.allreduce(
            vec![
                non_finite as f64,
                p[0],
                p[1],
                p[2],
                ke,
                self.parts.n_active as f64,
            ],
            |a, b| a + b,
        );
        crate::invariant::InvariantSample {
            non_finite: g[0] as u64,
            momentum: [g[1], g[2], g[3]],
            kinetic: g[4],
            count: g[5] as u64,
        }
    }

    /// Local particle store (active prefix + passive replicas).
    #[must_use]
    pub fn particles(&self) -> &Particles {
        &self.parts
    }

    /// Tear the view down to its owned state `(a, particles)` — the
    /// exact inverse of [`Self::from_checkpoint_state`]. The elastic
    /// driver extracts this when a world resize retires the borrowed
    /// communicator: the particles are re-sharded over the union
    /// communicator and a fresh view is built on the new world.
    pub(crate) fn into_state(self) -> (f64, Particles) {
        (self.a, self.parts)
    }

    /// The driver configuration.
    #[must_use] 
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The communicator this rank runs on.
    #[must_use] 
    pub fn comm(&self) -> &'a Comm {
        self.comm
    }

    /// Global particle count (collective: one allreduce).
    #[must_use] 
    pub fn global_count(&self) -> usize {
        self.comm.allreduce_sum(self.parts.n_active as f64) as usize
    }

    fn slab_grid(&self, n: usize) -> SlabGrid {
        SlabGrid::new(n, self.comm.rank(), self.comm.size(), self.cfg.box_len)
    }

    /// This rank's slab of the density contrast of `count` particles on
    /// `grid`'s mesh, left in `ext`: the actives deposited, across a
    /// split axis with their spill planes, which are folded onto the
    /// ring neighbors.
    fn density(&self, grid: &SlabGrid, count: usize, tags: (u64, u64), ext: &mut Vec<f64>) {
        grid.deposit(self.particle_positions(), self.parts.n_active, ext);
        if !grid.is_whole() {
            fold_spill_into(self.comm, ext, grid.plane(), DEPOSIT_HALO, tags);
        }
        contrast(ext, count as f64 / (grid.n * grid.n * grid.n) as f64);
    }

    /// Gather the slabs `grids` of `grid`'s mesh at every local particle
    /// into `out` (or add to it): across a split axis with `h` halo
    /// planes exchanged with the ring neighbors, on a whole slab with
    /// none.
    fn gather<const K: usize>(
        &self,
        grid: &SlabGrid,
        (h, tags): (usize, (u64, u64)),
        grids: &[Vec<f64>; K],
        out: &mut [Vec<f32>; K],
        add: bool,
    ) {
        let pos = self.particle_positions();
        if grid.is_whole() {
            return grid.gather(HaloSlab::whole(grids), 0, pos, out, add);
        }
        let halos = exchange_halos(self.comm, grids, grid.plane(), h, tags);
        let fields = std::array::from_fn(|k| HaloSlab::received(&halos, k, &grids[k]));
        grid.gather(fields, h, pos, out, add);
    }

    /// A Poisson solve on this view's slabs of the `n`-per-side mesh, on
    /// a `p × 1` pencil FFT whose real layout is exactly this rank's
    /// slab: the reference response, or with `split` the two-level
    /// coarse tables. Collective (`Comm::split`).
    fn poisson(&self, n: usize, split: Option<&ForceSplit>) -> DistRealPoisson<RealPencilFft<'a>> {
        let p = self.comm.size();
        let fft = RealPencilFft::with_grid(self.comm, n, p, 1);
        // The p×1 pencil grid must hand this rank exactly its slab,
        // aligned with the particle decomposition.
        let rl = fft.real_layout();
        assert_eq!(rl.origin, [self.comm.rank() * (n / p), 0, 0], "slab misaligned");
        assert_eq!(rl.size, [n / p, n, n], "slab shape mismatch");
        match split {
            Some(s) => DistRealPoisson::with_kernels(fft, |g| s.coarse_scalar(g), |j| s.coarse_grad(j)),
            None => DistRealPoisson::new(fft, self.cfg.box_len, self.cfg.spectral),
        }
    }

    /// The global long-range solve of this view, built collectively on
    /// first use (see the `global` field).
    fn global_solve(&self) -> &DistRealPoisson<RealPencilFft<'a>> {
        self.global.get_or_init(|| match &self.tl {
            Some(tl) => self.poisson(tl.split.nc(), Some(&tl.split)),
            None => self.poisson(self.cfg.ng, None),
        })
    }

    fn particle_positions(&self) -> [&[f32]; 3] {
        [&self.parts.x, &self.parts.y, &self.parts.z]
    }

    /// The single-level long-range acceleration: deposit the actives,
    /// fold and solve, then the force slabs' halos and the fused CIC
    /// gather at every local particle, replicas included.
    fn pm_accel_single(&self, pm: &mut PmState, brk: &mut StepBreakdown) {
        let ng = self.cfg.ng;
        let grid = self.slab_grid(ng);
        let t0 = Instant::now();
        self.density(&grid, self.count, TAGS_FINE_FOLD, &mut pm.grids[0]);
        brk.cic += t0.elapsed();

        let t1 = Instant::now();
        self.global_solve().solve_forces_in_place(&mut pm.grids);
        brk.fft += t1.elapsed();

        let t2 = Instant::now();
        self.gather(&grid, (self.h_int, TAGS_FORCE_HALO), &pm.grids, &mut pm.accel, false);
        brk.cic += t2.elapsed();
    }

    /// Two-level long-range acceleration: the only *global* transform is
    /// the coarse `(ng/c)³` pencil FFT — its alltoallv volume is `~c³`
    /// smaller than the single-level solve's. Across a split x axis the
    /// fine complement is a rank-local serial FFT over the slab padded
    /// with `h_kernel + h_int` ghost density planes from the ring
    /// neighbors, then zero planes up to the local solver's fast lattice
    /// length. Output planes within `h_int` of the slab (everything
    /// force interpolation touches) sit at least `h_kernel` from the
    /// padded slab's edges, so neither the zero planes nor the lattice
    /// periodization moves them beyond the matching tolerance. A whole
    /// slab is the periodic fine grid: its complement is exact, with no
    /// ghost, no zero plane and no message. The solve runs in place in
    /// `pm.fine_source`.
    fn pm_accel_two_level(&self, tl: &TwoLevelDist, pm: &mut PmState, brk: &mut StepBreakdown) {
        let ng = self.cfg.ng;
        let nc = tl.split.nc();
        let (fine, coarse) = (self.slab_grid(ng), self.slab_grid(nc));
        let (h_int, ghost, h_c) = (self.h_int, tl.ghost, tl.h_c);
        let plane = ng * ng;

        // Both deposits (fine for the complement, coarse for the global
        // solve) sample the same density-contrast field at their own
        // resolution; the fine one then takes its ghost and zero planes.
        let t0 = Instant::now();
        self.density(&fine, self.count, TAGS_FINE_FOLD, &mut pm.fine_source);
        self.density(&coarse, self.count, TAGS_COARSE_FOLD, &mut pm.grids[0]);
        if ghost > 0 {
            let density = std::slice::from_ref(&pm.fine_source);
            exchange_halos(self.comm, density, plane, ghost, TAGS_FINE_DENSITY_HALO)
                .extend(0, &mut pm.fine_source);
            pm.fine_source.resize(tl.local.nx() * plane, 0.0);
        }
        brk.cic += t0.elapsed();

        // Coarse global solve: 1 r2c + 3 c2r on the (ng/c)³ grid.
        let t1 = Instant::now();
        self.global_solve().solve_forces_in_place(&mut pm.grids);
        brk.coarse_fft += t1.elapsed();

        // Fine complement: the local solve, no global comm, each
        // component gathered as it lands. Valid fine planes
        // [x0-h, x0+lx+h) are the contiguous slice starting ghost - h
        // planes into the lattice: h = h_int across a split axis, 0 on a
        // whole slab, whose gather wraps x.
        let h = if fine.is_whole() { 0 } else { h_int };
        let valid = (ghost - h) * plane..(ghost + fine.lx + h) * plane;
        let pos = self.particle_positions();
        let t2 = Instant::now();
        let mut gather_time = Duration::ZERO;
        tl.local
            .solve_each_axis(&mut pm.fine_source, |axis, force| {
                let t = Instant::now();
                let field = [HaloSlab::contiguous(&force[valid.clone()])];
                let out = std::array::from_mut(&mut pm.accel[axis]);
                fine.gather(field, h, pos, out, false);
                gather_time += t.elapsed();
            });
        brk.fft += t2.elapsed() - gather_time;
        brk.cic += gather_time;

        let t3 = Instant::now();
        self.gather(&coarse, (h_c, TAGS_COARSE_FORCE_HALO), &pm.grids, &mut pm.accel, true);
        brk.cic += t3.elapsed();
    }

    /// One full long-range step to `a1` (collective).
    ///
    /// One long-range solve per step on either mesh: the closing solve
    /// leaves its per-particle acceleration held, and the next opening
    /// kick applies it before the refresh changes the particle set (the
    /// field is the same — a kick moves no particle). A view that holds
    /// none — fresh from [`Self::new`], a checkpoint or a membership
    /// change — solves cold, on its actives exactly as stored and
    /// *before* the refresh: the same actives, order and positions as
    /// the closing solve of the uninterrupted run, so a resumed
    /// trajectory is bit-identical without any held state in the
    /// checkpoint.
    pub fn step(&mut self, a1: f64) {
        assert!(a1 > self.a);
        let (cfg, a0) = (self.cfg, self.a);
        let brk = stepper::step(self, &cfg, a0, a1);
        self.a = a1;
        self.stats.steps.push(brk);
    }

    /// Run the configured schedule to `a_final` (collective); calls
    /// `on_step(a, self)` after each step for snapshotting.
    pub fn run<F: FnMut(f64, &Self)>(&mut self, mut on_step: F) {
        for &a1 in &self.cfg.step_edges()[1..] {
            if a1 > self.a {
                self.step(a1);
                on_step(self.a, self);
            }
        }
    }

    /// Number of this rank's active particles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts.n_active
    }

    /// True when this rank holds no active particle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positions (Mpc/h) of this rank's actives. Positions stream
    /// unwrapped within a step and are wrapped at the next step's
    /// refresh, so a coordinate may lie up to one step's drift outside
    /// `[0, box_len)`: wrap it, or use minimum-image separations.
    #[must_use]
    pub fn positions(&self) -> (&[f32], &[f32], &[f32]) {
        let (p, n) = (&self.parts, self.parts.n_active);
        (&p.x[..n], &p.y[..n], &p.z[..n])
    }

    /// Momenta (`p = a²ẋ`, Mpc/h·H0) of this rank's actives.
    #[must_use]
    pub fn momenta(&self) -> (&[f32], &[f32], &[f32]) {
        let (p, n) = (&self.parts, self.parts.n_active);
        (&p.vx[..n], &p.vy[..n], &p.vz[..n])
    }

    /// The fitted grid-force response in use (paper Eq. 7).
    #[must_use]
    pub fn grid_fit(&self) -> &GridForceFit {
        &self.fit
    }

    /// Total acceleration (PM + short-range) of this rank's actives at
    /// their current positions, for force-accuracy studies and tests
    /// (collective). Runs the step's own force paths into the held
    /// buffer, so it takes `&mut self`; the trajectory is unchanged.
    pub fn total_accel(&mut self) -> [Vec<f32>; 3] {
        let mut brk = StepBreakdown::default();
        self.open(&mut brk);
        self.long_range(true, &mut brk);
        let n = self.parts.n_active;
        let mut out = self.pm.accel.each_ref().map(|a| a[..n].to_vec());
        if self.cfg.solver != SolverKind::PmOnly {
            self.short_range(&mut brk);
            // The held buffer now carries the short-range force: the
            // next step must solve its opening field.
            self.pm.held = false;
            for (o, s) in out.iter_mut().zip(&self.pm.accel) {
                for (o, s) in o.iter_mut().zip(s) {
                    *o += s;
                }
            }
        }
        out
    }

    /// Specific kinetic and potential energy of the particle system at
    /// the current epoch (per unit particle mass, `H0 = 1` units), over
    /// every rank's actives (collective): `K = Σ p²/2a²`,
    /// `U = ½·(3/2)Ωm/a·Σ φ̂(x_i)` with `∇²φ̂ = δ` solved with the
    /// single-level mesh's filtered kernel, the one the forces match.
    ///
    /// Together these satisfy the Layzer–Irvine cosmic energy equation
    /// `d(K+U)/dt = -H(2K+U)`, the standard global accuracy check for
    /// cosmological N-body integrators.
    #[must_use]
    pub fn energies(&self) -> (f64, f64) {
        let (vx, vy, vz) = self.momenta();
        let a2 = (self.a * self.a) as f32;
        let mut k = 0.0f64;
        for i in 0..vx.len() {
            let p2 = vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i];
            k += f64::from(p2 / (2.0 * a2));
        }
        let ng = self.cfg.ng;
        let grid = self.slab_grid(ng);
        let mut phi = [Vec::new()];
        self.density(&grid, self.global_count(), TAGS_FINE_FOLD, &mut phi[0]);
        // The two-level view's global solve is the coarse level's.
        let single = self.tl.as_ref().map(|_| self.poisson(ng, None));
        let poisson = single.as_ref().unwrap_or_else(|| self.global_solve());
        poisson.solve_potential_in_place(&mut phi[0]);
        let mut at = [Vec::new()];
        self.gather(&grid, (self.h_int, TAGS_POTENTIAL_HALO), &phi, &mut at, false);
        let prefactor = 1.5 * self.cfg.cosmology.omega_m / self.a;
        let u = 0.5 * prefactor * at[0][..vx.len()].iter().map(|&v| f64::from(v)).sum::<f64>();
        (self.comm.allreduce_sum(k), self.comm.allreduce_sum(u))
    }

    /// Particle load imbalance across ranks: `max/mean` active particles
    /// (1.0 = perfectly balanced). Collective. The paper's §VI notes
    /// nodal load balancing as the next improvement; clustering makes
    /// this grow over a run.
    #[must_use] 
    pub fn load_imbalance(&self) -> f64 {
        let n = self.parts.n_active as f64;
        let max = self.comm.allreduce_max(n);
        let mean = self.comm.allreduce_sum(n) / self.comm.size() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Gather `(id, position)` of all *active* particles to rank 0.
    #[must_use] 
    pub fn gather_positions(&self) -> Option<Vec<(u64, [f32; 3])>> {
        let (p, wrap) = (&self.parts, |v: f32| self.decomp.wrap_f32(v));
        let mine: Vec<(u64, [f32; 3])> = (0..p.n_active)
            .map(|i| (p.id[i], [wrap(p.x[i]), wrap(p.y[i]), wrap(p.z[i])]))
            .collect();
        self.comm.gather(0, mine).map(|all| {
            let mut flat: Vec<(u64, [f32; 3])> = all.into_iter().flatten().collect();
            flat.sort_by_key(|&(id, _)| id);
            flat
        })
    }
}

impl ForceField for DistSimulation<'_> {
    /// The global count, which every force call of the step uses.
    fn open(&mut self, brk: &mut StepBreakdown) {
        let t0 = Instant::now();
        self.count = self.global_count();
        brk.other += t0.elapsed();
    }

    /// The refresh of domains and overload shells, after the opening
    /// kick has applied the held field to the particles it was gathered
    /// at (see [`DistSimulation::step`]). On one rank it wraps every
    /// position in place.
    fn refresh(&mut self, brk: &mut StepBreakdown) {
        let t0 = Instant::now();
        refresh(self.comm, &self.decomp, &mut self.parts);
        self.short.invalidate();
        brk.other += t0.elapsed();
    }

    /// Solves unless `solve` is false and the closing solve's field is
    /// held.
    fn long_range(&mut self, solve: bool, brk: &mut StepBreakdown) {
        if solve || !self.pm.held {
            // The held buffers are lent out of `self` so the solve can
            // read the rest of the view.
            let mut pm = std::mem::take(&mut self.pm);
            match &self.tl {
                Some(tl) => self.pm_accel_two_level(tl, &mut pm, brk),
                None => self.pm_accel_single(&mut pm, brk),
            }
            self.pm = pm;
        }
        self.pm.held = solve;
    }

    /// The short-range layer over the overloaded slab: no
    /// communication, exactly the overloading payoff, and no allocation
    /// once warm.
    fn short_range(&mut self, brk: &mut StepBreakdown) {
        let pos = [&self.parts.x[..], &self.parts.y[..], &self.parts.z[..]];
        self.short.evaluate(pos, self.count, brk, &mut self.pm.accel);
    }

    /// Every local particle, replicas included: the next refresh
    /// re-homes whatever crossed a domain face.
    fn phase_space(&mut self) -> PhaseSpace<'_> {
        let p = &mut self.parts;
        let [ax, ay, az] = &self.pm.accel;
        PhaseSpace {
            x: [&mut p.x, &mut p.y, &mut p.z],
            p: [&mut p.vx, &mut p.vy, &mut p.vz],
            a: [ax, ay, az],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverKind;
    use hacc_comm::Machine;
    use hacc_cosmo::{Cosmology, LinearPower, Transfer};

    fn cfg(solver: SolverKind, a0: f64) -> SimConfig {
        SimConfig {
            ng: 32,
            box_len: 64.0,
            a_init: a0,
            steps: 2,
            subcycles: 2,
            solver,
            ..SimConfig::small_lcdm()
        }
    }

    fn ics(a0: f64) -> hacc_ics::IcsRealization {
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        hacc_ics::zeldovich(16, 64.0, &power, a0, 99)
    }

    #[test]
    fn particles_conserved_across_steps() {
        let a0 = 0.3;
        let realization = ics(a0);
        let total = realization.len();
        let (counts, _) = Machine::new(4).run(move |comm| {
            let mut sim = DistSimulation::new(&comm, cfg(SolverKind::TreePm, a0), &realization);
            sim.step(0.33);
            sim.step(0.36);
            sim.global_count()
        });
        for c in counts {
            assert_eq!(c, total);
        }
    }

    /// A view rebuilt from its own state (`into_state` →
    /// `from_checkpoint_state`, as every membership change does) holds
    /// no long-range field; its cold solve must reproduce the held
    /// path's next step bit for bit: ids, positions and momenta in
    /// order. On TreePm over the single-level mesh, and on PmOnly over
    /// the two-level mesh at a slab that hosts its 14 + 6 ghost planes.
    #[test]
    fn rebuilt_view_steps_like_the_held_one() {
        let a0 = 0.3;
        let two_level = SimConfig {
            ng: 48,
            two_level: Some(hacc_pm::PmLevelConfig {
                coarsening: 2,
                ..hacc_pm::PmLevelConfig::default()
            }),
            ..cfg(SolverKind::PmOnly, a0)
        };
        for config in [cfg(SolverKind::TreePm, a0), two_level] {
            let realization = ics(a0);
            let (runs, _) = Machine::new(2).run(move |comm| {
                let run = |rebuild: bool| {
                    let mut sim = DistSimulation::new(&comm, config, &realization);
                    sim.step(0.33);
                    if rebuild {
                        let (a, parts) = sim.into_state();
                        sim = DistSimulation::from_checkpoint_state(&comm, config, a, parts);
                    }
                    sim.step(0.36);
                    let p = sim.particles();
                    let n = p.n_active;
                    let bits = [&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz]
                        .map(|c| c[..n].iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                    (p.id[..n].to_vec(), bits)
                };
                (run(false), run(true))
            });
            for (held, rebuilt) in runs {
                assert!(!held.0.is_empty());
                assert!(
                    held == rebuilt,
                    "{:?} two_level={}: the rebuilt view's step diverged",
                    config.solver,
                    config.two_level.is_some()
                );
            }
        }
    }

    /// An active particle that drifted a hair below zero wraps to
    /// `box_len - 1e-6`, which rounds to exactly `box_len` in f32: the
    /// step's refresh must hand it to rank 0 *at* 0.0, not a box away
    /// from its slab where the deposit rejects it.
    #[test]
    fn particle_just_below_zero_survives_a_step() {
        let a0 = 0.3;
        let realization = ics(a0);
        let total = realization.len();
        let (counts, _) = Machine::new(2).run(move |comm| {
            let mut sim = DistSimulation::new(&comm, cfg(SolverKind::PmOnly, a0), &realization);
            if comm.rank() == 0 {
                sim.parts.x[0] = -1e-6;
            }
            sim.step(0.33);
            sim.global_count()
        });
        assert_eq!(counts, vec![total; 2]);
    }

    /// The Layzer–Irvine cosmic energy equation `d(K+U)/da = -(2K+U)/a`
    /// along a PM-only trajectory, on one rank and on two: the actual
    /// change of `K+U` against the right-hand side integrated by the
    /// trapezoid rule over the per-step states. Both ranks see the same
    /// reduced energies, and the 2-rank `(K, U)` after every step are
    /// the 1-rank values to round-off (relative 1e-12).
    #[test]
    fn layzer_irvine_energy_budget() {
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let (a0, a1) = (0.2, 0.3);
        let ics = hacc_ics::zeldovich(16, 100.0, &power, a0, 77);
        let cfg = SimConfig {
            ng: 16,
            box_len: 100.0,
            a_init: a0,
            a_final: a1,
            steps: 10,
            subcycles: 2,
            solver: SolverKind::PmOnly,
            ..SimConfig::small_lcdm()
        };
        let states = |sim: &mut DistSimulation<'_>| {
            let mut out = vec![(sim.a, sim.energies())];
            sim.run(|a, s| out.push((a, s.energies())));
            out
        };
        let one = states(&mut crate::Simulation::from_ics(cfg, &ics));
        let (two, _) = Machine::new(2).run(|comm| states(&mut DistSimulation::new(&comm, cfg, &ics)));
        assert!(two[0] == two[1], "the ranks disagree on the reduced energies");
        for (ranks, states) in [(1, &one), (2, &two[0])] {
            let (_, (k0, u0)) = states[0];
            let (_, (k1, u1)) = *states.last().expect("states");
            let lhs = (k1 + u1) - (k0 + u0);
            // d(K+U)/dt = -H(2K+U) with dt = da/(aE) ⇒ d(K+U)/da = -(2K+U)/a.
            let rhs: f64 = states
                .windows(2)
                .map(|w| {
                    let ((aa, (ka, ua)), (ab, (kb, ub))) = (w[0], w[1]);
                    0.5 * (-(2.0 * ka + ua) / aa - (2.0 * kb + ub) / ab) * (ab - aa)
                })
                .sum();
            let scale = (k0 + k1 + u0.abs() + u1.abs()).max(1e-12);
            assert!(
                (lhs - rhs).abs() < 0.05 * scale,
                "{ranks} rank(s): Layzer-Irvine violated: ΔE = {lhs:.4e}, \
                 -∫H(2K+U)dt = {rhs:.4e}, scale {scale:.3e}"
            );
            // Sanity: potential negative (bound structure), kinetic positive.
            assert!(k1 > 0.0 && u1 < 0.0, "{ranks} rank(s): K = {k1}, U = {u1}");
        }
        let mut worst = [0.0f64; 2];
        for (&(a, (k1, u1)), &(b, (k2, u2))) in one.iter().zip(&two[0]) {
            assert_eq!(a, b);
            worst[0] = worst[0].max((k2 - k1).abs() / k1.abs());
            worst[1] = worst[1].max((u2 - u1).abs() / u1.abs());
        }
        // Measured: K equal, U within 3e-16 — summation order and the
        // 2-rank transform's rounding.
        assert!(worst[0] < 1e-12 && worst[1] < 1e-12, "2-rank vs 1-rank relative (K, U) error {worst:?}");
    }

    /// P³M on the production decomposition: its chaining mesh is the
    /// tree's, whose open x axis takes the overload shell as its ghost
    /// cells, so a 2-rank P³M run tracks the 1-rank one within TreePm's
    /// budget (0.05 Mpc/h, as in `distributed_driver_tracks_serial`).
    #[test]
    fn p3m_on_two_ranks_tracks_one_rank() {
        let a0 = 0.3;
        let config = cfg(SolverKind::P3m, a0);
        let realization = ics(a0);
        let mut one = crate::Simulation::from_ics(config, &realization);
        one.step(0.33);
        one.step(0.36);
        let (gathered, _) = Machine::new(2).run(|comm| {
            let mut sim = DistSimulation::new(&comm, config, &realization);
            sim.step(0.33);
            sim.step(0.36);
            sim.gather_positions()
        });
        let gathered = gathered[0].as_ref().expect("rank 0 gathers");
        assert_eq!(gathered.len(), realization.len(), "particles lost");
        let (x, y, z) = one.positions();
        let l = config.box_len as f32;
        for &(id, p) in gathered {
            let i = id as usize;
            for (got, want) in p.into_iter().zip([x[i], y[i], z[i]]) {
                let d = (got - want).abs();
                assert!(
                    d.min(l - d) < 0.05,
                    "id {id}: {got} on 2 ranks vs {want} on 1"
                );
            }
        }
    }

    #[test]
    fn overload_fraction_reasonable() {
        let a0 = 0.25;
        let realization = ics(a0);
        let (fracs, _) = Machine::new(2).run(move |comm| {
            let sim = DistSimulation::new(&comm, cfg(SolverKind::TreePm, a0), &realization);
            sim.particles().overload_fraction()
        });
        for f in fracs {
            // A 4.5-cell shell on each face of a 16-plane slab, and no
            // replicas along y and z, which each rank spans whole.
            assert!(f > 0.0 && f <= 2.0 * 4.5 / 16.0 * 1.2, "overload fraction {f}");
        }
    }

    /// The fused three-component gather is bitwise three serial
    /// `interpolate_cic_into` calls, and `add` accumulates onto what is
    /// there — on a one-slab box, which wraps x, and on two slabs padded
    /// by a force halo exchange, each gathering the particles whose
    /// cloud starts in its slab or the plane below. Grid values are
    /// small integers and cell offsets multiples of 1/8, so both
    /// summation orders are exact and any index, weight, wrap or
    /// component slip shows as a bit difference. Positions reach a
    /// plane below the box in x, and y/z cover the compare-and-add path
    /// (−n, 2n) and beyond it the `%` fallback.
    #[test]
    fn fused_gather_is_bitwise_serial_interpolation() {
        let n = 8usize;
        let grids: [Vec<f64>; 3] = [0, 1, 2].map(|c| {
            (0..n * n * n)
                .map(|i| ((i * 37 + c * 11) % 61) as f64 - 30.0)
                .collect()
        });
        let eighths = |k: usize, lo: f32, span: usize| lo + (k % (8 * span)) as f32 / 8.0;
        let count = 500;
        let xs: Vec<f32> = (0..count).map(|k| eighths(k * 13, -1.0, n + 1)).collect();
        let ys: Vec<f32> = (0..count)
            .map(|k| eighths(k * 29 + 5, -(n as f32), 3 * n))
            .collect();
        let mut zs: Vec<f32> = (0..count)
            .map(|k| eighths(k * 7 + 3, -(n as f32), 3 * n))
            .collect();
        zs[..4].copy_from_slice(&[-1.5 * n as f32, 2.5 * n as f32, -(n as f32), 2.0 * n as f32]);
        let want = grids.each_ref().map(|g| {
            let mut out = Vec::new();
            hacc_pm::cic::interpolate_cic_into(g, n, &xs, &ys, &zs, &mut out);
            out
        });
        // (particle indices, gathered, gathered then added) on `grid`.
        let gather_twice = |grid: SlabGrid, fields: [HaloSlab<'_>; 3], h: usize, mine: Vec<usize>| {
            let pick = |c: &[f32]| mine.iter().map(|&i| c[i]).collect::<Vec<f32>>();
            let pos = [pick(&xs), pick(&ys), pick(&zs)];
            let pos = [&pos[0][..], &pos[1][..], &pos[2][..]];
            let mut once: [Vec<f32>; 3] = Default::default();
            grid.gather(fields, h, pos, &mut once, false);
            let mut twice = once.clone();
            grid.gather(fields, h, pos, &mut twice, true);
            (mine, once, twice)
        };
        let whole = SlabGrid::new(n, 0, 1, n as f64);
        let fields = grids.each_ref().map(|g| HaloSlab::contiguous(g));
        let own = gather_twice(whole, fields, 0, (0..count).collect());
        let lx = n / 2;
        let (received, _) = Machine::new(2).run(|comm| {
            let r = comm.rank();
            let owned = grids.each_ref().map(|g| g[r * lx * n * n..(r + 1) * lx * n * n].to_vec());
            let halos = exchange_halos(&comm, &owned, n * n, 1, (991, 992));
            let fields = [0, 1, 2].map(|k| HaloSlab::received(&halos, k, &owned[k]));
            let mine = (0..count).filter(|&i| (xs[i] >= lx as f32) == (r == 1)).collect();
            gather_twice(SlabGrid::new(n, r, 2, n as f64), fields, 1, mine)
        });
        let mut seen = 0;
        for (case, (mine, once, twice)) in [("whole", &own), ("rank 0", &received[0]), ("rank 1", &received[1])] {
            seen += usize::from(case != "whole") * mine.len();
            for c in 0..3 {
                for (j, &i) in mine.iter().enumerate() {
                    assert_eq!(
                        once[c][j].to_bits(),
                        want[c][i].to_bits(),
                        "{case}, component {c} particle {i}"
                    );
                    assert_eq!(
                        twice[c][j].to_bits(),
                        (2.0 * want[c][i]).to_bits(),
                        "{case}, add, component {c} particle {i}"
                    );
                }
            }
        }
        assert_eq!(seen, count, "the two slabs gather every particle once");
    }
}
