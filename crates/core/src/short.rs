//! The short-range layer of the engine (paper §1 item 2): a view
//! hands over its positions (box units, continuous within a step; the
//! refresh wraps them and invalidates the layer) and the global count,
//! and the layer fills its own grid coordinates, scales the kernel by
//! `n̄` and runs the tree into the engine's held buffer.
//!
//! TreePM and P³M differ only in how the tree is cut: bisection down to
//! fat leaves, or the cells of a chaining mesh of side ≥ `r_cut`
//! ([`RcbTree::chaining_mesh`]). Either tree persists across sub-cycles:
//! it is rebuilt only when the particle set changed or some particle has
//! moved far enough from its build position to carry a pair across the
//! Verlet skin. It indexes the engine's particles plus, across a split
//! axis, the cross-rank replicas (the overload shell is P³M's ghost
//! layer too); an axis the engine spans whole is periodic through the
//! tree's own image shifts, so both solvers run at any rank count.

use std::time::Instant;

use hacc_pm::GridForceFit;
use hacc_short::{ForceKernel, RcbTree, TreeScratch};

use crate::config::{SimConfig, SolverKind};
use crate::stats::StepBreakdown;

pub(crate) struct ShortRange {
    kernel: ForceKernel,
    ng: usize,
    /// Box units → grid units.
    to_grid: f32,
    /// Cell side (box units) and the fit's normalisation: the kernel
    /// scale is `delta / n̄ · norm`.
    delta: f64,
    norm: f64,
    /// Grid-unit coordinates of every particle handed over, and unit
    /// masses.
    pos: [Vec<f32>; 3],
    mass: Vec<f32>,
    tree: RcbTree,
    scratch: TreeScratch,
    /// `pos` as the last build saw it: the rebuild criterion measures
    /// every particle's displacement from here.
    built: [Vec<f32>; 3],
    /// Verlet skin in grid cells (never negative).
    skin: f32,
    /// The particle set changed since the last build.
    stale: bool,
}

impl ShortRange {
    /// The layer for `cfg` with the kernel matched to `fit` (paper
    /// Eq. 7), over per-axis `periods` in grid cells (`0` for a split
    /// axis).
    pub(crate) fn new(cfg: &SimConfig, fit: &GridForceFit, periods: [f32; 3]) -> Self {
        let mut tree = if cfg.solver == SolverKind::P3m {
            // The chaining mesh divides the box evenly into as many
            // cells as fit with none narrower than `r_cut`.
            let (n, rcut) = (cfg.ng as f32, cfg.rcut_cells as f32);
            RcbTree::chaining_mesh(n / (n / rcut).floor().max(1.0))
        } else {
            RcbTree::new_empty(cfg.tree)
        };
        tree.set_periods(periods);
        ShortRange {
            kernel: ForceKernel::new(fit.coeffs_f32(), cfg.rcut_cells as f32, fit.epsilon as f32),
            ng: cfg.ng,
            to_grid: (cfg.ng as f64 / cfg.box_len) as f32,
            delta: cfg.box_len / cfg.ng as f64,
            norm: fit.norm,
            pos: Default::default(),
            mass: Vec::new(),
            tree,
            scratch: TreeScratch::default(),
            built: Default::default(),
            skin: cfg.skin_cells.max(0.0) as f32,
            stale: true,
        }
    }

    /// The particle set changed (refresh, migration, recovery): the next
    /// evaluation rebuilds.
    pub(crate) fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Short-range acceleration at every particle of `pos` (box units),
    /// `count` particles in the whole box, into `force`, the engine's
    /// held buffer. Allocation-free once warm.
    pub(crate) fn evaluate(
        &mut self,
        pos: [&[f32]; 3],
        count: usize,
        brk: &mut StepBreakdown,
        force: &mut [Vec<f32>; 3],
    ) {
        let nbar = count as f64 / (self.ng * self.ng * self.ng) as f64;
        let scale = (self.delta / nbar * self.norm) as f32;
        let s = self.to_grid;
        let t0 = Instant::now();
        self.mass.resize(pos[0].len(), 1.0);
        for (g, p) in self.pos.iter_mut().zip(pos) {
            g.clear();
            g.extend(p.iter().map(|&v| v * s));
        }
        let [x, y, z] = &self.pos;
        if self.must_rebuild() {
            self.tree.rebuild(x, y, z, &self.mass, &mut self.scratch);
            for (b, p) in self.built.iter_mut().zip(&self.pos) {
                b.clone_from(p);
            }
            self.stale = false;
        } else {
            self.tree.refresh_positions(x, y, z);
        }
        brk.build += t0.elapsed();
        let rep =
            self.tree
                .forces_symmetric_into(&self.kernel, self.skin, &mut self.scratch, force);
        brk.walk += rep.walk;
        brk.kernel += rep.kernel;
        brk.interactions += rep.directed;
        brk.pair_interactions += rep.evals;
        let t1 = Instant::now();
        for v in force.iter_mut().flatten() {
            *v *= scale;
        }
        brk.kernel += t1.elapsed();
    }

    /// The Verlet-list criterion: the pair list built with the skin
    /// stays valid while twice the largest displacement from the build
    /// positions (two particles may approach each other) is within it.
    fn must_rebuild(&self) -> bool {
        let [x, y, z] = &self.pos;
        if self.stale || self.skin <= 0.0 || self.tree.particle_count() != x.len() {
            return true;
        }
        let [bx, by, bz] = &self.built;
        let mut max2 = 0.0f32;
        for i in 0..x.len() {
            let d = [x[i] - bx[i], y[i] - by[i], z[i] - bz[i]];
            max2 = max2.max(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
        }
        4.0 * max2 > self.skin * self.skin
    }
}

