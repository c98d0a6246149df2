//! The persistent TreePM short-range state both engines own.
//!
//! One RCB tree and its scratch live across sub-cycles and steps: the
//! tree is rebuilt only when the particle set changed or the accumulated
//! drift bound can have carried a pair across the Verlet skin, and is
//! refreshed in place otherwise. The engines differ only in how they
//! produce the coordinates: the serial driver appends periodic ghost
//! images, the distributed driver hands over its overloaded slab.

use std::time::Instant;

use hacc_short::{ForceKernel, RcbTree, TreeScratch};

use crate::config::SimConfig;
use crate::stats::StepBreakdown;

pub(crate) struct TreeShortRange {
    tree: RcbTree,
    scratch: TreeScratch,
    /// Grid-unit coordinates of everything the tree indexes. The owning
    /// engine fills them before [`Self::evaluate`].
    pub(crate) pos: [Vec<f32>; 3],
    /// Unit masses, one per tree particle.
    mass: Vec<f32>,
    /// Verlet skin in grid cells (never negative): the pair list's
    /// reach beyond `r_cut`, and the serial engine's ghost band margin.
    pub(crate) skin: f32,
    /// Upper bound on any particle's displacement since the last build,
    /// in grid cells; infinite while there is no build to reuse.
    drift_since_build: f64,
}

impl TreeShortRange {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        TreeShortRange {
            tree: RcbTree::new_empty(cfg.tree),
            scratch: TreeScratch::default(),
            pos: Default::default(),
            mass: Vec::new(),
            skin: cfg.skin_cells.max(0.0) as f32,
            drift_since_build: f64::INFINITY,
        }
    }

    /// The particle set changed (migration, recovery): the next
    /// evaluation rebuilds.
    pub(crate) fn invalidate(&mut self) {
        self.drift_since_build = f64::INFINITY;
    }

    /// Record a drift `x += factor · v` over momenta `v`: no particle
    /// moved farther than `|factor|·√(max|vx|² + max|vy|² + max|vz|²)`,
    /// taken to grid cells by `to_grid`.
    pub(crate) fn add_drift(&mut self, factor: f64, v: [&[f32]; 3], to_grid: f64) {
        let speed2: f64 = v.iter().map(|c| f64::from(max_abs(c)).powi(2)).sum();
        self.drift_since_build += factor.abs() * speed2.sqrt() * to_grid;
    }

    /// The rebuild criterion: the skin pair list stays valid while twice
    /// the displacement bound (each of two particles may drift toward
    /// the other) is within the skin.
    pub(crate) fn must_rebuild(&self) -> bool {
        self.skin <= 0.0 || 2.0 * self.drift_since_build > f64::from(self.skin)
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
        if self.must_rebuild() || self.tree.particle_count() != x.len() {
            self.mass.clear();
            self.mass.resize(x.len(), 1.0);
            self.tree.rebuild(x, y, z, &self.mass, &mut self.scratch);
            self.drift_since_build = 0.0;
        } else {
            self.tree.refresh_positions(x, y, z);
        }
        brk.build += t0.elapsed();
        let rep = self
            .tree
            .forces_symmetric_into(kernel, self.skin, &mut self.scratch, force);
        brk.walk += rep.walk;
        brk.kernel += rep.kernel;
        brk.interactions += rep.directed;
        brk.pair_interactions += rep.evals;
        for v in force.iter_mut().flatten() {
            *v *= scale;
        }
    }
}

/// Largest `|v|`, in eight independent lanes so the pass runs at vector
/// throughput rather than along one scalar max chain.
fn max_abs(v: &[f32]) -> f32 {
    let mut hi = [0.0f32; 8];
    let blocks = v.chunks_exact(8);
    for (h, &x) in hi.iter_mut().zip(blocks.remainder()) {
        *h = x.abs();
    }
    for b in blocks {
        for (h, &x) in hi.iter_mut().zip(b) {
            *h = h.max(x.abs());
        }
    }
    hi.into_iter().fold(0.0, f32::max)
}
