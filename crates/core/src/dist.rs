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

use std::cell::OnceCell;
use std::time::{Duration, Instant};

use hacc_comm::Comm;
use hacc_domain::gridhalo::{exchange_halos, fold_spill_into, Halos};
use hacc_domain::{refresh, Decomposition, Packed, Particles};
use hacc_fft::{DistRealFft3, RealPencilFft};
use hacc_pm::{DistRealPoisson, ForceSplit, GridForceFit, LocalComplementSolver};
use hacc_short::ForceKernel;

use crate::config::{SimConfig, SolverKind};
use crate::short::TreeShortRange;
use crate::sim::{fill_scaled, fitted_kernel, wrap_into_box};
use crate::stats::{RunStats, StepBreakdown};
use crate::stepper::{self, ForceField};

/// Point-to-point tag pairs for the slab-grid exchanges; each call site
/// gets its own pair so concurrent halos never cross.
const TAGS_FINE_FOLD: (u64, u64) = (101, 102);
const TAGS_FORCE_HALO: (u64, u64) = (201, 202);
const TAGS_COARSE_FOLD: (u64, u64) = (111, 112);
const TAGS_COARSE_FORCE_HALO: (u64, u64) = (211, 212);
const TAGS_FINE_DENSITY_HALO: (u64, u64) = (221, 222);

/// Rank-local machinery of the two-level PM mesh: the force split, the
/// local complement solver on the ghost-padded slab, and the halo
/// depths its solve uses.
struct TwoLevelDist {
    split: ForceSplit,
    local: LocalComplementSolver,
    /// Fine-complement kernel support in fine cells.
    h_kernel: usize,
    /// Coarse force-halo depth in coarse cells.
    h_c: usize,
}

impl TwoLevelDist {
    /// Build the per-rank two-level machinery for `p` slabs, validating
    /// that the slab geometry can host the ghost depths the split
    /// requires on top of the `h_int`-plane fine force halo.
    /// Communication-free.
    fn new(cfg: &SimConfig, p: usize, w_cells: f64, h_int: usize) -> Option<Self> {
        let lv = cfg.two_level?;
        let split = ForceSplit::new(cfg.ng, cfg.box_len, cfg.spectral, lv);
        let nc = split.nc();
        assert_eq!(
            nc % p,
            0,
            "coarse grid side {nc} must be divisible by the rank count {p}"
        );
        let lx = cfg.ng / p;
        let h_kernel = split.ghost_width();
        let hh = h_kernel + h_int;
        assert!(
            hh <= lx,
            "slab too thin for the two-level ghost depth: \
             kernel {h_kernel} + interpolation {h_int} planes vs {lx}-plane slab \
             (use more grid per rank or a looser matching_tol)"
        );
        let lc = nc / p;
        let h_c = ((w_cells / lv.coarsening as f64).ceil() as usize) + 1;
        assert!(
            h_c <= lc && lc >= 2,
            "coarse slab too thin: {lc} planes vs halo {h_c}"
        );
        Some(TwoLevelDist {
            local: LocalComplementSolver::new(&split, lx + 2 * hh),
            split,
            h_kernel,
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
    /// is extended in place by its ghost planes and zero planes, and the
    /// solve then leaves each fine force component here in turn.
    fine_source: Vec<f64>,
    /// The acceleration the next kick applies to every local particle:
    /// the long-range gather's, or between sub-cycle kicks the
    /// short-range tree's. The two are never live together, so they
    /// share one buffer.
    accel: [Vec<f32>; 3],
}

/// A slab field with its halo, planes `[x0-h, x0+lx+h)`, as three runs
/// of whole planes: the halo received from below, the owned planes and
/// the halo received from above (or one run and two empty ones).
#[derive(Clone, Copy)]
struct HaloSlab<'a>([&'a [f64]; 3]);

impl<'a> HaloSlab<'a> {
    /// Field `k` of a halo exchange, its halos read in place from the
    /// received messages.
    fn received(halos: &'a Halos, k: usize, owned: &'a [f64]) -> Self {
        HaloSlab([halos.below(k), owned, halos.above(k)])
    }
}

/// This rank's slab of an `n`-per-side mesh (the fine grid or the
/// coarse `ng/c` grid; slab boundaries coincide because both are
/// divisible by the rank count).
#[derive(Clone, Copy)]
struct SlabGrid {
    n: usize,
    lx: usize,
    x0: usize,
    /// Box units → grid units.
    to_grid: f64,
}

impl SlabGrid {
    fn new(comm: &Comm, n: usize, box_len: f64) -> Self {
        let lx = n / comm.size();
        SlabGrid {
            n,
            lx,
            x0: comm.rank() * lx,
            to_grid: n as f64 / box_len,
        }
    }

    /// Deposit the active particles into `ext` with a two-plane halo on
    /// each side, fold the spill planes onto the neighbors, and leave
    /// the owned `lx`-plane density contrast in `ext`. Two planes cover
    /// the CIC cloud (one cell), the sub-cycle drift of active particles
    /// between refreshes (well under one cell per step at any sane time
    /// step), and the fine-to-coarse rounding of the slab boundary.
    fn deposit(
        &self,
        comm: &Comm,
        parts: &Particles,
        nbar: f64,
        tags: (u64, u64),
        ext: &mut Vec<f64>,
    ) {
        const HD: usize = 2;
        let (n, lx) = (self.n, self.lx);
        assert!(lx >= HD, "slab thinner than the deposit halo");
        let plane = n * n;
        // Extended grid: planes [x0-HD, x0+lx+HD).
        ext.clear();
        ext.resize((lx + 2 * HD) * plane, 0.0);
        for i in 0..parts.n_active {
            let gx = f64::from(parts.x[i]) * self.to_grid;
            let gy = f64::from(parts.y[i]) * self.to_grid;
            let gz = f64::from(parts.z[i]) * self.to_grid;
            let fx = gx.floor();
            let (iy, dy) = wrap_cell_near(gy, n);
            let (iz, dz) = wrap_cell_near(gz, n);
            let dx = gx - fx;
            let ix_ext = fx as i64 - (self.x0 as i64 - HD as i64);
            assert!(
                ix_ext >= 0 && ix_ext + 1 < (lx + 2 * HD) as i64,
                "active particle drifted outside the deposit halo"
            );
            let iy1 = next_cell(iy, n);
            let iz1 = next_cell(iz, n);
            let (tx, ty, tz) = (1.0 - dx, 1.0 - dy, 1.0 - dz);
            for (pofs, wx) in [(ix_ext as usize, tx), (ix_ext as usize + 1, dx)] {
                let base = pofs * plane;
                ext[base + iy * n + iz] += wx * ty * tz;
                ext[base + iy * n + iz1] += wx * ty * dz;
                ext[base + iy1 * n + iz] += wx * dy * tz;
                ext[base + iy1 * n + iz1] += wx * dy * dz;
            }
        }
        // Fold spill planes onto the owning neighbors (periodic ring).
        fold_spill_into(comm, ext, plane, HD, tags);
        // Density contrast.
        for v in ext.iter_mut() {
            *v = *v / nbar - 1.0;
        }
    }

    /// Fused CIC gather of `K` force slabs (the three components) at
    /// every particle in `pos` (local-frame coordinates, possibly outside
    /// the box): the eight cells and their offsets are found once per
    /// particle, and each component is read with the single-component
    /// interpolation's exact expression, so the result is bitwise that
    /// of `K` separate gathers. The slabs cover planes `[x0-h, x0+lx+h)`
    /// in the same runs. Writes `out`, or adds to it when `add`.
    fn gather<const K: usize>(
        &self,
        fields: [HaloSlab<'_>; K],
        h: usize,
        pos: [&[f32]; 3],
        out: &mut [Vec<f32>; K],
        add: bool,
    ) {
        let n = self.n;
        let plane = n * n;
        let [below, owned, _] = fields[0].0.map(|r| r.len() / plane);
        debug_assert_eq!(
            below + owned + fields[0].0[2].len() / plane,
            self.lx + 2 * h
        );
        // (run, offset of the plane in it) for extended plane `ix`.
        let locate = |ix: usize| {
            if ix < below {
                (0, ix * plane)
            } else if ix < below + owned {
                (1, (ix - below) * plane)
            } else {
                (2, (ix - below - owned) * plane)
            }
        };
        let [xs, ys, zs] = pos;
        for o in out.iter_mut() {
            o.resize(xs.len(), 0.0);
        }
        for i in 0..xs.len() {
            let gx = f64::from(xs[i]) * self.to_grid;
            let gy = f64::from(ys[i]) * self.to_grid;
            let gz = f64::from(zs[i]) * self.to_grid;
            let fx = gx.floor();
            let dx = gx - fx;
            let ixe = fx as i64 - (self.x0 as i64 - h as i64);
            debug_assert!(
                ixe >= 0 && (ixe as usize) < self.lx + 2 * h - 1,
                "particle outside halo: ixe={ixe}"
            );
            let planes = [
                (locate(ixe as usize), 1.0 - dx),
                (locate(ixe as usize + 1), dx),
            ];
            let (iy, dy) = wrap_cell_near(gy, n);
            let (iz, dz) = wrap_cell_near(gz, n);
            let iy1 = next_cell(iy, n);
            let iz1 = next_cell(iz, n);
            let cells = [iy * n + iz, iy * n + iz1, iy1 * n + iz, iy1 * n + iz1];
            let (ty, tz) = (1.0 - dy, 1.0 - dz);
            for (f, o) in fields.iter().zip(out.iter_mut()) {
                let mut acc = 0.0;
                for ((run, base), wx) in planes {
                    let c = cells.map(|c| f.0[run][base + c]);
                    acc += wx * (c[0] * ty * tz + c[1] * ty * dz + c[2] * dy * tz + c[3] * dy * dz);
                }
                if add {
                    o[i] += acc as f32;
                } else {
                    o[i] = acc as f32;
                }
            }
        }
    }
}

/// One rank's view of a distributed simulation.
pub struct DistSimulation<'a> {
    comm: &'a Comm,
    cfg: SimConfig,
    decomp: Decomposition,
    fit: GridForceFit,
    kernel: ForceKernel,
    parts: Particles,
    /// Current scale factor.
    pub a: f64,
    /// Per-rank statistics.
    pub stats: RunStats,
    /// Overload width in grid cells.
    w_cells: f64,
    /// Fine force-halo depth, `⌈w⌉ + 1` planes: every plane beyond the
    /// slab that the CIC gather at a local particle, replicas included,
    /// can read.
    h_int: usize,
    /// Two-level PM machinery when `cfg.two_level` is set.
    tl: Option<TwoLevelDist>,
    /// The global long-range solve of this view — the `ng` mesh, or the
    /// coarse `ng/c` mesh of the two-level split — on a `p × 1` pencil
    /// FFT, whose real layout is exactly this rank's slab. Building it is
    /// collective (`Comm::split`), so the first long-range solve of a
    /// view builds it: constructors stay communication-free (a lone
    /// replacement rank builds its view while survivors keep their
    /// state), and the views a membership change builds on every rank
    /// build it together with matching sub-communicators.
    global: OnceCell<DistRealPoisson<RealPencilFft<'a>>>,
    /// Persistent short-range tree state over the rank's overloaded
    /// particle set, periodic along the axes the rank spans whole:
    /// rebuilt at the first sub-cycle after each refresh and whenever a
    /// particle has moved half the skin since, positions refreshed in
    /// place on the other sub-cycles.
    short: TreeShortRange,
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
        // The distributed step has no P³M branch: it would run the tree
        // on a drift bound the tree never receives.
        assert!(
            cfg.solver != SolverKind::P3m,
            "DistSimulation runs PmOnly or TreePm; P3m is serial-only"
        );
        let w_cells = overload_cells(&cfg);
        let lx = cfg.ng / p;
        assert!(
            (lx as f64) > w_cells + 1.0,
            "slab too thin: {lx} cells vs overload {w_cells}"
        );
        let h_int = (w_cells.ceil() as usize) + 1;
        let decomp = Self::decomposition(&cfg, p);
        // An axis this rank spans whole gets no replicas from the
        // decomposition: the tree sees its images through shifts.
        let periods = decomp.dims.map(|d| if d == 1 { cfg.ng as f32 } else { 0.0 });
        let (fit, kernel) = fitted_kernel(&cfg);
        let tl = TwoLevelDist::new(&cfg, p, w_cells, h_int);
        DistSimulation {
            comm,
            cfg,
            decomp,
            fit,
            kernel,
            parts,
            a,
            stats: RunStats::default(),
            w_cells,
            h_int,
            tl,
            global: OnceCell::new(),
            short: TreeShortRange::new(&cfg, periods),
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
        for i in 0..self.parts.n_active {
            let v = [
                self.parts.x[i],
                self.parts.y[i],
                self.parts.z[i],
                self.parts.vx[i],
                self.parts.vy[i],
                self.parts.vz[i],
            ];
            if v.iter().any(|c| !c.is_finite()) {
                non_finite += 1;
                continue;
            }
            let (vx, vy, vz) = (f64::from(v[3]), f64::from(v[4]), f64::from(v[5]));
            p[0] += vx;
            p[1] += vy;
            p[2] += vz;
            ke += 0.5 * (vx * vx + vy * vy + vz * vz);
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
        SlabGrid::new(self.comm, n, self.cfg.box_len)
    }

    /// The global long-range solve of this view, built collectively on
    /// first use (see the `global` field).
    fn global_solve(&self) -> &DistRealPoisson<RealPencilFft<'a>> {
        self.global.get_or_init(|| {
            let p = self.comm.size();
            let n = self.tl.as_ref().map_or(self.cfg.ng, |tl| tl.split.nc());
            let fft = RealPencilFft::with_grid(self.comm, n, p, 1);
            // The p×1 pencil grid must hand this rank exactly its slab,
            // aligned with the particle decomposition.
            let rl = fft.real_layout();
            assert_eq!(rl.origin, [self.comm.rank() * (n / p), 0, 0], "slab misaligned");
            assert_eq!(rl.size, [n / p, n, n], "slab shape mismatch");
            match &self.tl {
                Some(tl) => DistRealPoisson::with_kernels(
                    fft,
                    |g| tl.split.coarse_scalar(g),
                    |j| tl.split.coarse_grad(j),
                ),
                None => DistRealPoisson::new(fft, self.cfg.box_len, self.cfg.spectral),
            }
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
        let nbar = self.count as f64 / (ng * ng * ng) as f64;
        let t0 = Instant::now();
        grid.deposit(
            self.comm,
            &self.parts,
            nbar,
            TAGS_FINE_FOLD,
            &mut pm.grids[0],
        );
        brk.cic += t0.elapsed();

        let t1 = Instant::now();
        self.global_solve().solve_forces_in_place(&mut pm.grids);
        brk.fft += t1.elapsed();

        let t2 = Instant::now();
        let h = self.h_int;
        let halos = exchange_halos(self.comm, &pm.grids, ng * ng, h, TAGS_FORCE_HALO);
        let fields = [0, 1, 2].map(|k| HaloSlab::received(&halos, k, &pm.grids[k]));
        grid.gather(fields, h, self.particle_positions(), &mut pm.accel, false);
        brk.cic += t2.elapsed();
    }

    /// Two-level long-range acceleration: the only *global* transform is
    /// the coarse `(ng/c)³` pencil FFT — its alltoallv volume is `~c³`
    /// smaller than the single-level solve's. The fine complement is a
    /// rank-local serial FFT over the slab padded with
    /// `h_kernel + h_int` ghost density planes from the ring neighbors,
    /// then zero planes up to the local solver's fast lattice length.
    /// Output planes within `h_int` of the slab (everything force
    /// interpolation touches) sit at least `h_kernel` from the padded
    /// slab's edges, so neither the zero planes nor the lattice
    /// periodization moves them beyond the matching tolerance. The solve
    /// runs in place in `pm.fine_source`.
    fn pm_accel_two_level(&self, tl: &TwoLevelDist, pm: &mut PmState, brk: &mut StepBreakdown) {
        let ng = self.cfg.ng;
        let np = self.count as f64;
        let nc = tl.split.nc();
        let (fine, coarse) = (self.slab_grid(ng), self.slab_grid(nc));
        let (h_int, h_kernel, h_c) = (self.h_int, tl.h_kernel, tl.h_c);
        let plane = ng * ng;

        // Both deposits (fine for the complement, coarse for the global
        // solve) sample the same density-contrast field at their own
        // resolution; the fine one then takes its ghost and zero planes.
        let t0 = Instant::now();
        let nbar_f = np / (ng * ng * ng) as f64;
        fine.deposit(
            self.comm,
            &self.parts,
            nbar_f,
            TAGS_FINE_FOLD,
            &mut pm.fine_source,
        );
        let nbar_c = np / (nc * nc * nc) as f64;
        coarse.deposit(
            self.comm,
            &self.parts,
            nbar_c,
            TAGS_COARSE_FOLD,
            &mut pm.grids[0],
        );
        let density = std::slice::from_ref(&pm.fine_source);
        exchange_halos(
            self.comm,
            density,
            plane,
            h_kernel + h_int,
            TAGS_FINE_DENSITY_HALO,
        )
        .extend(0, &mut pm.fine_source);
        pm.fine_source.resize(tl.local.nx() * plane, 0.0);
        brk.cic += t0.elapsed();

        // Coarse global solve: 1 r2c + 3 c2r on the (ng/c)³ grid.
        let t1 = Instant::now();
        self.global_solve().solve_forces_in_place(&mut pm.grids);
        brk.coarse_fft += t1.elapsed();

        // Fine complement: the local solve, no global comm, each
        // component gathered as it lands. Valid fine planes
        // [x0-h_int, x0+lx+h_int) are the contiguous slice starting
        // h_kernel planes into the lattice.
        let valid = h_kernel * plane..(h_kernel + fine.lx + 2 * h_int) * plane;
        let pos = self.particle_positions();
        let t2 = Instant::now();
        let mut gather_time = Duration::ZERO;
        tl.local
            .solve_each_axis(&mut pm.fine_source, |axis, force| {
                let t = Instant::now();
                let field = [HaloSlab([&[], &force[valid.clone()], &[]])];
                fine.gather(
                    field,
                    h_int,
                    pos,
                    std::array::from_mut(&mut pm.accel[axis]),
                    false,
                );
                gather_time += t.elapsed();
            });
        brk.fft += t2.elapsed() - gather_time;
        brk.cic += gather_time;

        let t3 = Instant::now();
        let halos = exchange_halos(self.comm, &pm.grids, nc * nc, h_c, TAGS_COARSE_FORCE_HALO);
        let fields = [0, 1, 2].map(|k| HaloSlab::received(&halos, k, &pm.grids[k]));
        coarse.gather(fields, h_c, pos, &mut pm.accel, true);
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
        let wrap = |v: f32| wrap_into_box(v, self.cfg.box_len as f32);
        let mine: Vec<(u64, [f32; 3])> = (0..self.parts.n_active)
            .map(|i| {
                (
                    self.parts.id[i],
                    [
                        wrap(self.parts.x[i]),
                        wrap(self.parts.y[i]),
                        wrap(self.parts.z[i]),
                    ],
                )
            })
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
    /// at (see [`DistSimulation::step`]).
    fn refresh(&mut self, brk: &mut StepBreakdown) {
        let t0 = Instant::now();
        refresh(self.comm, &self.decomp, &mut self.parts);
        self.short.invalidate();
        brk.other += t0.elapsed();
    }

    /// Solves unless `solve` is false and the closing solve's field is
    /// held, as the serial engine's `long_range` does.
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

    /// The rank-local RCB tree over the overloaded slab: no
    /// communication, exactly the overloading payoff, and no allocation
    /// once warm.
    fn short_range(&mut self, brk: &mut StepBreakdown) {
        let ng = self.cfg.ng;
        let to_grid = (ng as f64 / self.cfg.box_len) as f32;
        let t0 = Instant::now();
        for (g, p) in self
            .short
            .pos
            .iter_mut()
            .zip([&self.parts.x, &self.parts.y, &self.parts.z])
        {
            fill_scaled(p, to_grid, g);
        }
        brk.build += t0.elapsed();
        let nbar = self.count as f64 / (ng * ng * ng) as f64;
        let scale = (self.cfg.box_len / ng as f64 / nbar * self.fit.norm) as f32;
        self.short
            .evaluate(&self.kernel, scale, brk, &mut self.pm.accel);
    }

    fn kick_operands(&mut self) -> ([&mut [f32]; 3], [&[f32]; 3]) {
        let p = &mut self.parts;
        let [ax, ay, az] = &self.pm.accel;
        ([&mut p.vx, &mut p.vy, &mut p.vz], [ax, ay, az])
    }

    /// Stream without wrapping: the next refresh re-homes whatever
    /// crossed the box, and until then the tree's coordinates stay
    /// continuous.
    fn drift(&mut self, factor: f64) {
        let f = factor as f32;
        let p = &mut self.parts;
        for i in 0..p.len() {
            p.x[i] += f * p.vx[i];
            p.y[i] += f * p.vy[i];
            p.z[i] += f * p.vz[i];
        }
    }
}

/// [`wrap_cell`] with its `%` replaced by one compare-and-add. On
/// `-n < g < 2n` — every coordinate a slab particle or its replica holds
/// — `g % n` is `g`, or `g - n` exactly (Sterbenz), so the cell and
/// offset are bit-identical; anything else, and a `g + n` that rounds to
/// `n`, takes the `%` path.
#[inline]
fn wrap_cell_near(g: f64, n: usize) -> (usize, f64) {
    let nf = n as f64;
    let w = if g < 0.0 {
        g + nf
    } else if g >= nf {
        g - nf
    } else {
        g
    };
    if !(g > -nf && g < 2.0 * nf && w < nf) {
        return wrap_cell(g, n);
    }
    let i = w.floor() as usize;
    (i.min(n - 1), w - i as f64)
}

/// The periodic successor of cell `i` on an `n` grid.
#[inline]
fn next_cell(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// Periodic cell index + offset for coordinate `g` on an `n` grid.
#[inline]
fn wrap_cell(g: f64, n: usize) -> (usize, f64) {
    let nf = n as f64;
    let mut w = g % nf;
    if w < 0.0 {
        w += nf;
    }
    if w >= nf {
        w = 0.0;
    }
    let i = w.floor() as usize;
    (i.min(n - 1), w - i as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    #[should_panic(expected = "P3m is serial-only")]
    fn p3m_config_is_rejected() {
        let (_, _) = Machine::new(1).run(|comm| {
            let _ = DistSimulation::from_checkpoint_state(
                &comm,
                cfg(SolverKind::P3m, 0.3),
                0.3,
                Particles::default(),
            );
        });
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

    /// The fused three-component gather on one rank — the periodic grid
    /// padded by a one-rank force halo exchange, which wraps the ring
    /// onto itself — is bitwise three serial `interpolate_cic_into`
    /// calls, and `add` accumulates onto what is there. Grid values are
    /// small integers and cell offsets multiples of 1/8, so both
    /// summation orders are exact and any index, weight, wrap or
    /// component slip shows as a bit difference. Positions cover the
    /// x halo on both sides, y/z on the compare-and-add path (−n, 2n)
    /// and beyond it on the `%` fallback.
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
        let (got, _) = Machine::new(1).run(|comm| {
            let halos = exchange_halos(&comm, &grids, n * n, 1, (991, 992));
            let fields = [0, 1, 2].map(|k| HaloSlab::received(&halos, k, &grids[k]));
            let grid = SlabGrid::new(&comm, n, n as f64);
            let mut once = Default::default();
            grid.gather(fields, 1, [&xs, &ys, &zs], &mut once, false);
            let mut twice = once.clone();
            grid.gather(fields, 1, [&xs, &ys, &zs], &mut twice, true);
            (once, twice)
        });
        let (once, twice) = &got[0];
        for c in 0..3 {
            for i in 0..count {
                assert_eq!(
                    once[c][i].to_bits(),
                    want[c][i].to_bits(),
                    "component {c} particle {i}"
                );
                assert_eq!(
                    twice[c][i].to_bits(),
                    (2.0 * want[c][i]).to_bits(),
                    "add, component {c} particle {i}"
                );
            }
        }
    }

    #[test]
    fn wrap_cell_behaviour() {
        assert_eq!(wrap_cell(3.25, 8), (3, 0.25));
        assert_eq!(wrap_cell(-0.5, 8), (7, 0.5));
        assert_eq!(wrap_cell(8.0, 8), (0, 0.0));
        let (i, d) = wrap_cell(7.999, 8);
        assert_eq!(i, 7);
        assert!(d > 0.99);
    }
}
