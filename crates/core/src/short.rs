//! The persistent TreePM short-range state both engines own.
//!
//! One RCB tree and its scratch live across sub-cycles: the tree is
//! rebuilt only when the particle set changed or some particle has moved
//! far enough from its build position to carry a pair across the Verlet
//! skin, and is refreshed in place otherwise. The tree indexes only the
//! particles whose forces the engine uses plus, in the distributed
//! engine, the cross-rank replicas; periodicity along an axis the engine
//! covers whole is the tree's own image shift. The serial engine hands
//! over all N particles with every axis periodic, the distributed engine
//! its overloaded slab with the axes it spans whole periodic.

use std::time::Instant;

use hacc_short::{ForceKernel, RcbTree, TreeScratch};

use crate::config::SimConfig;
use crate::stats::StepBreakdown;

pub(crate) struct TreeShortRange {
    tree: RcbTree,
    scratch: TreeScratch,
    /// Grid-unit coordinates of everything the tree indexes, continuous
    /// (never wrapped) since the last build. The owning engine fills
    /// them before [`Self::evaluate`].
    pub(crate) pos: [Vec<f32>; 3],
    /// `pos` as the last build saw it: the rebuild criterion measures
    /// every particle's displacement from here.
    built: [Vec<f32>; 3],
    /// Unit masses, one per tree particle.
    mass: Vec<f32>,
    /// Verlet skin in grid cells (never negative): the pair list's
    /// reach beyond `r_cut`.
    pub(crate) skin: f32,
    /// The particle set changed since the last build, or there is none.
    stale: bool,
}

impl TreeShortRange {
    /// Short-range state over coordinates with per-axis `periods` in
    /// grid cells (`0` for an open axis), set by the owning engine from
    /// its geometry.
    pub(crate) fn new(cfg: &SimConfig, periods: [f32; 3]) -> Self {
        let mut tree = RcbTree::new_empty(cfg.tree);
        tree.set_periods(periods);
        TreeShortRange {
            tree,
            scratch: TreeScratch::default(),
            pos: Default::default(),
            built: Default::default(),
            mass: Vec::new(),
            skin: cfg.skin_cells.max(0.0) as f32,
            stale: true,
        }
    }

    /// The particle set changed (refresh, migration, recovery): the next
    /// evaluation rebuilds.
    pub(crate) fn invalidate(&mut self) {
        self.stale = true;
    }

    /// The rebuild criterion: the pair list built with the skin stays
    /// valid while twice the largest displacement from the build
    /// positions (each of two particles may have moved toward the other)
    /// is within the skin. Measured at `self.pos`.
    pub(crate) fn must_rebuild(&self) -> bool {
        if self.stale || self.skin <= 0.0 || self.tree.particle_count() != self.pos[0].len() {
            return true;
        }
        let [x, y, z] = &self.pos;
        let [bx, by, bz] = &self.built;
        let mut max2 = 0.0f32;
        for i in 0..x.len() {
            let d = [x[i] - bx[i], y[i] - by[i], z[i] - bz[i]];
            max2 = max2.max(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
        }
        4.0 * max2 > self.skin * self.skin
    }

    /// Short-range acceleration at `self.pos`, times `scale`, into
    /// `force` (one entry per tree particle): rebuild or refresh the
    /// tree, then one symmetric pass. Allocation-free once warm. The
    /// buffer is the engine's — the acceleration its next kick applies.
    pub(crate) fn evaluate(
        &mut self,
        kernel: &ForceKernel,
        scale: f32,
        brk: &mut StepBreakdown,
        force: &mut [Vec<f32>; 3],
    ) {
        let t0 = Instant::now();
        let [x, y, z] = &self.pos;
        if self.must_rebuild() {
            self.mass.resize(x.len(), 1.0);
            self.tree.rebuild(x, y, z, &self.mass, &mut self.scratch);
            for (b, p) in self.built.iter_mut().zip(&self.pos) {
                b.clone_from(p);
            }
            self.stale = false;
        } else {
            self.tree.refresh_positions(x, y, z);
        }
        brk.build += t0.elapsed();
        let rep = self
            .tree
            .forces_symmetric_into(kernel, self.skin, &mut self.scratch, force);
        brk.walk += rep.walk;
        brk.interactions += rep.directed;
        brk.pair_interactions += rep.evals;
        let t1 = Instant::now();
        for v in force.iter_mut().flatten() {
            *v *= scale;
        }
        brk.kernel += rep.kernel + t1.elapsed();
    }
}
