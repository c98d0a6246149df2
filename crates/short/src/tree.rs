//! Recursive coordinate bisection (RCB) tree.
//!
//! The BG/Q short-range solver of Section III, built on two principles the
//! paper calls out:
//!
//! * **Spatial locality** — the tree is built by recursively splitting the
//!   particle set at the center-of-mass coordinate perpendicular to the
//!   longest box side, *partitioning the SoA buffers so each subtree
//!   occupies disjoint contiguous memory*. The partition runs in the
//!   paper's three phases: (1) scan the split coordinate recording swaps,
//!   (2) apply the recorded swaps to the position arrays, (3) apply them
//!   to the remaining arrays (mass, permutation) — letting the hardware
//!   prefetcher hide latency.
//! * **Walk minimization** — "fat" leaves keep tens to hundreds of
//!   particles, so the walk only ever pairs leaves; all fine-grained
//!   work happens in the vectorized force kernel, trading slow
//!   pointer-chasing walks for fast kernel flops.
//!
//! Forces have finite range `r_cut` (everything longer-range belongs to
//! the PM solver), so interaction lists are exact: all particles in leaves
//! intersecting the target leaf's bounding box inflated by `r_cut`.
//!
//! A fat leaf pair is mostly out of range (at one particle per cell and
//! `r_cut = 3` a 128-particle leaf pair holds ~27 pairs per pair inside
//! the cutoff), so there is one level *below* the leaf that costs no
//! walk: [`RcbTree::rebuild`] continues the bisection inside each leaf
//! for ordering only, cuts the leaf into **chunks** of
//! [`CHUNK`] = 8 consecutive particles and keeps one
//! bounding box per chunk. Leaf storage is padded to whole chunks.
//!
//! [`RcbTree::forces_symmetric_into`] is the force pass: a symmetric
//! dual-tree walk emits each interacting *leaf pair* once; each listed
//! pair is evaluated chunk × chunk, a box test discarding chunk pairs
//! beyond `r_cut` and an 8 × 8 tile kernel accumulating `+f` on targets
//! and the Newton-3 reaction `−f` on sources. Accumulation uses a fixed
//! set of chunk-owned force buffers reduced in a fixed order, so results
//! are race-free and bit-reproducible regardless of how rayon schedules
//! them. Its tests check it against O(N²) brute-force sums that share
//! no code with it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::kernel::ForceKernel;
use crate::simd::{self, CHUNK};

/// Fixed number of pair-list chunks for the symmetric walk. Each chunk
/// owns its own force accumulator and processes a contiguous,
/// cost-balanced range of the pair list; the serial reduction over chunks
/// runs in index order. Chunk→buffer assignment is positional (not
/// per-thread), which is what makes the result independent of rayon's
/// work-stealing schedule.
const PAIR_CHUNKS: usize = 16;

/// `perm` entry of a pad slot.
const PAD: u32 = u32::MAX;

/// Coordinate of pad slots: finite (so `d · 0` is `0`, not NaN) and far
/// beyond any cutoff (so the kernel's select always zeroes the pair).
const PAD_COORD: f32 = 1.0e10;

/// One contiguous range of the leaf-pair list and the tree-order slots
/// its pairs can write — all of its accumulator that is ever zeroed,
/// written or reduced.
#[derive(Clone, Copy)]
struct PairChunk {
    pairs: (u32, u32),
    slots: (u32, u32),
}

/// Reusable scratch for [`RcbTree::rebuild`] and
/// [`RcbTree::forces_symmetric_into`]: partition swap records, in-leaf
/// ordering columns, the leaf-pair list and the force accumulators.
/// Steady-state rebuild + force evaluation performs no heap allocation.
#[derive(Default)]
pub struct TreeScratch {
    /// Swap pairs recorded by the three-phase partition.
    swaps: Vec<(u32, u32)>,
    /// In-leaf ordering: slot index list under bisection, and staging
    /// columns for moving one SoA array into that order.
    order: Vec<u32>,
    tmp_f32: Vec<f32>,
    tmp_u32: Vec<u32>,
    /// Forces in tree (slot) order, scattered to input order at the
    /// end of a pass.
    ftree: [Vec<f32>; 3],
    /// Interacting leaf-pair list (node indices, first ≤ second in tree
    /// order).
    pairs: Vec<(u32, u32)>,
    /// The pair list cut into at most [`PAIR_CHUNKS`].
    chunks: Vec<PairChunk>,
    /// Chunk-owned force accumulators (slot order). Only a chunk's
    /// `slots` span holds meaningful data.
    chunk_bufs: Vec<[Vec<f32>; 3]>,
    /// Node stack for pair generation.
    stack: Vec<usize>,
}

/// Tree tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum particles per leaf. The leaf is the unit of the *walk*
    /// only — the kernel works on 8-particle chunks inside it — so the
    /// trade is walk and chunk-cull candidates (fewer, fatter leaves)
    /// against pad lanes (a leaf wastes 3.5 of them on average). The
    /// default is the flat optimum of `ablation_leaf_size` at the
    /// benchmark's density (EXPERIMENTS.md).
    pub leaf_size: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { leaf_size: 128 }
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Tree-order rank of the first particle (pads not counted).
    start: usize,
    /// One past the last particle.
    end: usize,
    /// Axis-aligned bounding box of the particles at build time.
    lo: [f32; 3],
    hi: [f32; 3],
    /// Children indices; `usize::MAX` marks a leaf.
    left: usize,
    right: usize,
    /// Leaves: first storage slot (a multiple of [`CHUNK`]); the leaf's
    /// particles sit in `slot..slot + (end − start)`, pads after them.
    slot: usize,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.left == usize::MAX
    }

    fn len(&self) -> usize {
        self.end - self.start
    }

    /// Storage slots of the leaf's particles.
    fn slots(&self) -> std::ops::Range<usize> {
        self.slot..self.slot + self.len()
    }

    /// The leaf's chunk range.
    fn chunks(&self) -> std::ops::Range<usize> {
        self.slot / CHUNK..self.slot / CHUNK + self.len().div_ceil(CHUNK)
    }
}

/// An RCB tree over a rank-local particle set (no periodic wrapping — the
/// overloading scheme guarantees all interaction partners are present
/// locally; for serial full-box use, callers append ghost images).
pub struct RcbTree {
    nodes: Vec<Node>,
    /// Permuted SoA particle data in storage slots: each leaf's
    /// particles, then pads up to a whole number of chunks.
    xs: Vec<f32>,
    ys: Vec<f32>,
    zs: Vec<f32>,
    mass: Vec<f32>,
    /// `perm[i]` = original index of slot `i`, [`PAD`] for pad slots.
    perm: Vec<u32>,
    leaves: Vec<usize>,
    /// Per chunk: bounding box over its real lanes at the *current*
    /// coordinates (SoA, 7 far entries appended so 8-wide loads stay in
    /// bounds) and the count of real lanes.
    chunk_lo: [Vec<f32>; 3],
    chunk_hi: [Vec<f32>; 3],
    chunk_len: Vec<u8>,
    params: TreeParams,
    /// Incremented by every [`RcbTree::rebuild`] (not by position
    /// refreshes), so callers can tell whether a cached companion
    /// structure still matches this tree's topology.
    generation: u64,
}

impl RcbTree {
    /// Build the tree (copies the particle data into tree-local SoA
    /// buffers, then partitions them in place).
    #[must_use]
    pub fn build(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        mass: &[f32],
        params: TreeParams,
    ) -> Self {
        let mut tree = Self::new_empty(params);
        tree.rebuild(xs, ys, zs, mass, &mut TreeScratch::default());
        tree
    }

    /// An empty tree ready for [`RcbTree::rebuild`].
    #[must_use]
    pub fn new_empty(params: TreeParams) -> Self {
        RcbTree {
            nodes: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            zs: Vec::new(),
            mass: Vec::new(),
            perm: Vec::new(),
            leaves: Vec::new(),
            chunk_lo: Default::default(),
            chunk_hi: Default::default(),
            chunk_len: Vec::new(),
            params,
            generation: 0,
        }
    }

    /// Rebuild the tree over a new particle set, reusing every internal
    /// buffer (and the partition scratch) — allocation-free once the
    /// capacities are warm.
    pub fn rebuild(
        &mut self,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        mass: &[f32],
        scratch: &mut TreeScratch,
    ) {
        let np = xs.len();
        assert!(ys.len() == np && zs.len() == np && mass.len() == np);
        assert!(np < PAD as usize, "particle index must fit below the pad marker");
        self.nodes.clear();
        self.leaves.clear();
        self.xs.clear();
        self.xs.extend_from_slice(xs);
        self.ys.clear();
        self.ys.extend_from_slice(ys);
        self.zs.clear();
        self.zs.extend_from_slice(zs);
        self.mass.clear();
        self.mass.extend_from_slice(mass);
        self.perm.clear();
        self.perm.extend(0..np as u32);
        self.generation += 1;
        if np > 0 {
            let root = self.make_node(0, np);
            self.split(root, &mut scratch.swaps);
        }
        self.cut_chunks(scratch);
    }

    /// Rebuild counter — bumped by [`RcbTree::rebuild`] only, never by
    /// [`RcbTree::refresh_positions`].
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Update the permuted particle coordinates *without* re-partitioning
    /// or recomputing leaf bounding boxes — the Verlet-skin refresh.
    ///
    /// The topology (leaf and chunk membership, leaf boxes) stays frozen
    /// at its build-time state, so leaf-pair lists generated with a
    /// `slack` margin remain a superset of the true `r_cut` neighborhood
    /// as long as no particle has moved more than `slack / 2` since the
    /// build. Chunk boxes *are* recomputed from the new coordinates (one
    /// O(N) pass), so the chunk test stays exact at `r_cut` itself.
    /// Callers must track drift and rebuild once the bound is exceeded.
    pub fn refresh_positions(&mut self, xs: &[f32], ys: &[f32], zs: &[f32]) {
        let np = self.particle_count();
        assert!(xs.len() == np && ys.len() == np && zs.len() == np);
        for (i, &orig) in self.perm.iter().enumerate() {
            if orig != PAD {
                let o = orig as usize;
                self.xs[i] = xs[o];
                self.ys[i] = ys[o];
                self.zs[i] = zs[o];
            }
        }
        self.bound_chunks();
    }

    /// Number of particles the tree was built over.
    #[must_use]
    pub fn particle_count(&self) -> usize {
        self.nodes.first().map_or(0, Node::len)
    }

    /// Number of tree nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The permutation from tree order to original order.
    pub fn permutation(&self) -> impl Iterator<Item = u32> + '_ {
        self.perm.iter().copied().filter(|&p| p != PAD)
    }

    fn coord(&self, axis: usize) -> &[f32] {
        match axis {
            0 => &self.xs,
            1 => &self.ys,
            _ => &self.zs,
        }
    }

    /// Bounding box of slots `start..end`.
    fn bounds(&self, start: usize, end: usize) -> ([f32; 3], [f32; 3]) {
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for c in 0..3 {
            (lo[c], hi[c]) = min_max(&self.coord(c)[start..end]);
        }
        (lo, hi)
    }

    fn make_node(&mut self, start: usize, end: usize) -> usize {
        let (lo, hi) = self.bounds(start, end);
        self.nodes.push(Node {
            start,
            end,
            lo,
            hi,
            left: usize::MAX,
            right: usize::MAX,
            slot: 0,
        });
        self.nodes.len() - 1
    }

    fn longest_axis(lo: &[f32; 3], hi: &[f32; 3]) -> usize {
        (0..3)
            .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
            .expect("three axes")
    }

    fn split(&mut self, node: usize, swaps: &mut Vec<(u32, u32)>) {
        let (start, end) = (self.nodes[node].start, self.nodes[node].end);
        if end - start <= self.params.leaf_size {
            self.leaves.push(node);
            return;
        }
        let axis = Self::longest_axis(&self.nodes[node].lo, &self.nodes[node].hi);
        // Center-of-mass coordinate along the split axis.
        let coord = self.coord(axis);
        let mut msum = 0.0f64;
        let mut wsum = 0.0f64;
        for (m, x) in self.mass[start..end].iter().zip(&coord[start..end]) {
            msum += f64::from(*m);
            wsum += f64::from(m * x);
        }
        let pivot = (wsum / msum) as f32;

        let mid = self.partition(start, end, axis, pivot, swaps);
        // Degenerate split (all particles on one side — e.g. identical
        // coordinates): fall back to a median split by index.
        let mid = if mid == start || mid == end {
            (start + end) / 2
        } else {
            mid
        };
        let left = self.make_node(start, mid);
        let right = self.make_node(mid, end);
        self.nodes[node].left = left;
        self.nodes[node].right = right;
        self.split(left, swaps);
        self.split(right, swaps);
    }

    /// Three-phase SoA partition around `pivot` on `axis`; returns the
    /// split point. Phase 1 records swaps scanning only the split
    /// coordinate; phases 2 and 3 replay them over the other arrays.
    fn partition(
        &mut self,
        start: usize,
        end: usize,
        axis: usize,
        pivot: f32,
        swaps: &mut Vec<(u32, u32)>,
    ) -> usize {
        let coord: &mut Vec<f32> = match axis {
            0 => &mut self.xs,
            1 => &mut self.ys,
            _ => &mut self.zs,
        };
        // Phase 1: two-pointer scan over the split coordinate, recording
        // the swap pairs and applying them to the scanned array itself.
        swaps.clear();
        let mut i = start;
        let mut j = end;
        loop {
            while i < j && coord[i] < pivot {
                i += 1;
            }
            while i < j && coord[j - 1] >= pivot {
                j -= 1;
            }
            if i + 1 >= j {
                break;
            }
            coord.swap(i, j - 1);
            swaps.push((i as u32, (j - 1) as u32));
            i += 1;
            j -= 1;
        }
        let mid = i;
        // Phase 2: replay on the remaining position arrays.
        for c in 0..3usize {
            if c == axis {
                continue;
            }
            let arr: &mut Vec<f32> = match c {
                0 => &mut self.xs,
                1 => &mut self.ys,
                _ => &mut self.zs,
            };
            for &(a, b) in swaps.iter() {
                arr.swap(a as usize, b as usize);
            }
        }
        // Phase 3: replay on mass and permutation.
        for &(a, b) in swaps.iter() {
            self.mass.swap(a as usize, b as usize);
            self.perm.swap(a as usize, b as usize);
        }
        mid
    }

    /// The level below the leaf. Orders each leaf's particles by
    /// continued bisection, spreads the leaves out to whole chunks (pads
    /// after each leaf's particles) and bounds every chunk.
    fn cut_chunks(&mut self, scratch: &mut TreeScratch) {
        let mut slots = 0;
        for l in 0..self.leaves.len() {
            let leaf = self.leaves[l];
            let (start, end) = (self.nodes[leaf].start, self.nodes[leaf].end);
            self.order_chunks(start, end, scratch);
            self.nodes[leaf].slot = slots;
            slots += (end - start).next_multiple_of(CHUNK);
        }
        // Spread from the last leaf back: a leaf's slots never start
        // before its packed range, so each move only overwrites data that
        // has already been moved.
        for arr in [&mut self.xs, &mut self.ys, &mut self.zs] {
            arr.resize(slots, PAD_COORD);
        }
        self.mass.resize(slots, 0.0);
        self.perm.resize(slots, PAD);
        self.chunk_len.clear();
        self.chunk_len.resize(slots / CHUNK, CHUNK as u8);
        for &leaf in self.leaves.iter().rev() {
            let node = &self.nodes[leaf];
            let (src, dst) = (node.start..node.end, node.slots());
            let pads = dst.end..node.chunks().end * CHUNK;
            self.chunk_len[node.chunks().end - 1] = (CHUNK - pads.len()) as u8;
            for arr in [&mut self.xs, &mut self.ys, &mut self.zs] {
                arr.copy_within(src.clone(), dst.start);
                arr[pads.clone()].fill(PAD_COORD);
            }
            self.mass.copy_within(src.clone(), dst.start);
            self.mass[pads.clone()].fill(0.0);
            self.perm.copy_within(src, dst.start);
            self.perm[pads].fill(PAD);
        }
        for b in self.chunk_lo.iter_mut().chain(self.chunk_hi.iter_mut()) {
            b.clear();
            b.resize(slots / CHUNK + CHUNK - 1, PAD_COORD);
        }
        self.bound_chunks();
    }

    /// Order packed range `start..end` (one leaf) so that every aligned
    /// run of [`CHUNK`] particles is spatially compact: bisect at a
    /// chunk-aligned rank along the longest side, recursively. Ordering
    /// only — no nodes, and force results do not depend on it. The
    /// bisection permutes an index list; the five SoA arrays move once.
    fn order_chunks(&mut self, start: usize, end: usize, scratch: &mut TreeScratch) {
        let TreeScratch {
            order,
            tmp_f32,
            tmp_u32,
            ..
        } = scratch;
        if end - start <= CHUNK {
            return;
        }
        order.clear();
        order.extend(start as u32..end as u32);
        self.bisect(order);
        reorder(&mut self.perm, start, order, tmp_u32);
        for arr in [&mut self.xs, &mut self.ys, &mut self.zs, &mut self.mass] {
            reorder(arr, start, order, tmp_f32);
        }
    }

    /// Reorder slot indices `idx` so the first half of its chunks holds
    /// the particles lowest along the longest side of their box, then
    /// recurse into both halves.
    fn bisect(&self, idx: &mut [u32]) {
        let chunks = idx.len().div_ceil(CHUNK);
        if chunks < 2 {
            return;
        }
        let mut lo = [f32::INFINITY; 3];
        let mut hi = [f32::NEG_INFINITY; 3];
        for &i in idx.iter() {
            for c in 0..3 {
                let v = self.coord(c)[i as usize];
                lo[c] = lo[c].min(v);
                hi[c] = hi[c].max(v);
            }
        }
        let coord = self.coord(Self::longest_axis(&lo, &hi));
        let mid = CHUNK * (chunks / 2);
        idx.select_nth_unstable_by(mid, |&a, &b| coord[a as usize].total_cmp(&coord[b as usize]));
        let (left, right) = idx.split_at_mut(mid);
        self.bisect(left);
        self.bisect(right);
    }

    /// Recompute every chunk's bounding box from the current coordinates
    /// of its real lanes.
    fn bound_chunks(&mut self) {
        for (c, &n) in self.chunk_len.iter().enumerate() {
            let (lo, hi) = self.bounds(c * CHUNK, c * CHUNK + usize::from(n));
            for ax in 0..3 {
                self.chunk_lo[ax][c] = lo[ax];
                self.chunk_hi[ax][c] = hi[ax];
            }
        }
    }

    /// Squared distance between a point's box and a node's bounding box.
    fn box_dist2(lo_a: &[f32; 3], hi_a: &[f32; 3], lo_b: &[f32; 3], hi_b: &[f32; 3]) -> f32 {
        let mut d2 = 0.0f32;
        for c in 0..3 {
            let d = if hi_a[c] < lo_b[c] {
                lo_b[c] - hi_a[c]
            } else if hi_b[c] < lo_a[c] {
                lo_a[c] - hi_b[c]
            } else {
                0.0
            };
            d2 += d * d;
        }
        d2
    }

    /// Scatter slot-order forces back to the original input ordering.
    fn scatter(&self, ftree: &[Vec<f32>; 3], out: &mut [Vec<f32>; 3]) {
        for (o, f) in out.iter_mut().zip(ftree) {
            o.resize(self.particle_count(), 0.0);
            for (&orig, &v) in self.perm.iter().zip(f) {
                if orig != PAD {
                    o[orig as usize] = v;
                }
            }
        }
    }

    /// Convenience wrapper over [`RcbTree::forces_symmetric_into`] with
    /// fresh scratch and no skin slack; returns (forces in input order,
    /// directed interaction count).
    #[must_use]
    pub fn forces_symmetric(&self, kernel: &ForceKernel) -> ([Vec<f32>; 3], u64) {
        let mut scratch = TreeScratch::default();
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        let rep = self.forces_symmetric_into(kernel, 0.0, &mut scratch, &mut out);
        (out, rep.directed)
    }

    /// Symmetric dual-tree force evaluation.
    ///
    /// Emits each interacting leaf pair **once** (including each leaf's
    /// self pair), then evaluates every listed pair chunk × chunk: a
    /// box test on the chunks' current bounding boxes keeps the chunk
    /// pairs within `r_cut`, and each of those runs one 8 × 8 tile that
    /// accumulates `+f` on the targets and the Newton-3 reaction `−f` on
    /// the sources — one kernel evaluation per particle pair, where a
    /// per-target sum pays two. Within a leaf only the upper triangle of
    /// chunk pairs is evaluated.
    ///
    /// `slack` widens the leaf-pair acceptance test to
    /// `(r_cut + slack)²` at *build-time* bounding boxes. With `slack =
    /// 0` it lists exactly the leaf pairs whose boxes lie within `r_cut`
    /// of each other, which holds every particle pair in range while
    /// the particles have not moved; a positive slack makes the pair list
    /// a valid superset for any particle configuration in which no
    /// particle has drifted more than `slack / 2` from its build-time
    /// position (see [`RcbTree::refresh_positions`]). Only the leaf list
    /// needs the skin: chunk boxes follow the particles, so the chunk
    /// test uses `r_cut` itself, and the kernel's own cutoff select
    /// zeroes the remaining pairs beyond `r_cut`, so forces stay exact.
    ///
    /// Race-freedom and reproducibility: the pair list is split into at
    /// most `PAIR_CHUNKS` contiguous cost-balanced ranges; range `i`
    /// always accumulates into scratch buffer `i` (zeroed and reduced
    /// only over the slots its pairs can touch), and the final reduction
    /// sums buffers in index order. The result is bit-identical for a
    /// given tree no matter how rayon schedules the ranges or what the
    /// scratch held before.
    ///
    /// Forces land in `out` in the original input ordering.
    pub fn forces_symmetric_into(
        &self,
        kernel: &ForceKernel,
        slack: f32,
        scratch: &mut TreeScratch,
        out: &mut [Vec<f32>; 3],
    ) -> SymmetricReport {
        let slots = self.xs.len();
        let TreeScratch {
            ftree,
            pairs,
            chunks,
            chunk_bufs,
            stack,
            ..
        } = scratch;

        // Phase 1 (walk): emit interacting leaf pairs, deterministically
        // ordered by the first leaf's tree rank. For leaf `a`, partner
        // subtrees lying entirely before `a` are pruned (`end ≤ a.start`);
        // the pair (earlier, later) is therefore emitted exactly once,
        // from the earlier side.
        let t0 = Instant::now();
        // With no slack, use the kernel's rcut² verbatim: the pair set is
        // then exactly the leaf pairs whose boxes lie within r_cut.
        let reach2 = if slack > 0.0 {
            let reach = kernel.rcut2.sqrt() + slack;
            reach * reach
        } else {
            kernel.rcut2
        };
        pairs.clear();
        for &leaf in &self.leaves {
            let la = &self.nodes[leaf];
            stack.clear();
            stack.push(0);
            while let Some(n) = stack.pop() {
                let node = &self.nodes[n];
                if node.end <= la.start
                    || Self::box_dist2(&la.lo, &la.hi, &node.lo, &node.hi) > reach2
                {
                    continue;
                }
                if node.is_leaf() {
                    pairs.push((leaf as u32, n as u32));
                } else {
                    stack.push(node.left);
                    stack.push(node.right);
                }
            }
        }

        // Cost-balanced contiguous cut of the pair list. Pair cost = the
        // particle pairs it holds, an upper bound on its evaluations.
        let cost = |&(a, b): &(u32, u32)| -> u64 {
            let na = self.nodes[a as usize].len() as u64;
            if a == b {
                na * na.saturating_sub(1) / 2
            } else {
                na * self.nodes[b as usize].len() as u64
            }
        };
        let total: u64 = pairs.iter().map(cost).sum();
        let nchunks = PAIR_CHUNKS.min(pairs.len()).max(1);
        let target = total / nchunks as u64 + 1;
        chunks.clear();
        let mut acc = 0u64;
        let empty_from = |at: u32| PairChunk {
            pairs: (at, at),
            slots: (u32::MAX, 0),
        };
        let mut open = empty_from(0);
        for (i, p) in pairs.iter().enumerate() {
            acc += cost(p);
            // The earlier leaf starts the pair's slot span, the later
            // leaf's last chunk ends it.
            let first = self.nodes[p.0 as usize].slot as u32;
            let last = (self.nodes[p.1 as usize].chunks().end * CHUNK) as u32;
            open.slots = (open.slots.0.min(first), open.slots.1.max(last));
            open.pairs.1 = (i + 1) as u32;
            if acc >= target && chunks.len() + 1 < nchunks {
                chunks.push(open);
                open = empty_from(open.pairs.1);
                acc = 0;
            }
        }
        if open.pairs.0 < open.pairs.1 {
            chunks.push(open);
        }
        let walk = t0.elapsed();

        // Phase 2 (kernel, chunk culling included): each range
        // accumulates into its own buffer; disjoint buffers make the
        // writes race-free.
        if chunk_bufs.len() < chunks.len() {
            chunk_bufs.resize_with(chunks.len(), Default::default);
        }
        let view = simd::Chunks {
            pos: [&self.xs, &self.ys, &self.zs],
            mass: &self.mass,
            lo: [&self.chunk_lo[0], &self.chunk_lo[1], &self.chunk_lo[2]],
            hi: [&self.chunk_hi[0], &self.chunk_hi[1], &self.chunk_hi[2]],
            len: &self.chunk_len,
        };
        let kernel_ns = AtomicU64::new(0);
        let evals = AtomicU64::new(0);
        chunk_bufs
            .par_iter_mut()
            .zip(chunks.par_iter())
            .for_each(|(buf, chunk)| {
                let tk = Instant::now();
                let span = chunk.slots.0 as usize..chunk.slots.1 as usize;
                for c in buf.iter_mut() {
                    if c.len() < slots {
                        // Fresh zeroed pages, with headroom so a rebuild
                        // that shifts the padding does not come back here;
                        // pages outside the spans are never touched.
                        *c = vec![0.0; slots + slots / 8];
                    }
                    c[span.clone()].fill(0.0);
                }
                let mut n = 0;
                for &(la, lb) in &pairs[chunk.pairs.0 as usize..chunk.pairs.1 as usize] {
                    let (a, b) = (&self.nodes[la as usize], &self.nodes[lb as usize]);
                    debug_assert!(la == lb || a.end <= b.start, "pairs must be tree-ordered");
                    n += simd::leaf_pair(kernel, &view, a.chunks(), b.chunks(), buf);
                }
                evals.fetch_add(n, Ordering::Relaxed);
                kernel_ns.fetch_add(tk.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });

        // Deterministic reduction in fixed chunk order, then scatter from
        // slot order back to the original input ordering.
        for f in ftree.iter_mut() {
            f.clear();
            f.resize(slots, 0.0);
        }
        for (buf, chunk) in chunk_bufs.iter().zip(chunks.iter()) {
            let span = chunk.slots.0 as usize..chunk.slots.1 as usize;
            for (acc, part) in ftree.iter_mut().zip(buf.iter()) {
                for (a, &p) in acc[span.clone()].iter_mut().zip(&part[span.clone()]) {
                    *a += p;
                }
            }
        }
        self.scatter(ftree, out);
        let evals = evals.load(Ordering::Relaxed);
        SymmetricReport {
            evals,
            directed: 2 * evals,
            walk,
            kernel: Duration::from_nanos(kernel_ns.load(Ordering::Relaxed)),
        }
    }
}

/// Move `arr[order[i]]` to `arr[start + i]` (`order` permutes the slots
/// `start..start + order.len()`), staging through `tmp`.
fn reorder<T: Copy>(arr: &mut [T], start: usize, order: &[u32], tmp: &mut Vec<T>) {
    tmp.clear();
    tmp.extend(order.iter().map(|&i| arr[i as usize]));
    arr[start..start + tmp.len()].copy_from_slice(tmp);
}

/// Smallest and largest value of `v` (`(+∞, −∞)` when empty), NaNs
/// ignored. Eight independent lanes, so the build's box passes run at
/// vector min/max throughput instead of one scalar dependency chain.
fn min_max(v: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; CHUNK];
    let mut hi = [f32::NEG_INFINITY; CHUNK];
    let blocks = v.chunks_exact(CHUNK);
    let tail = blocks.remainder();
    for b in blocks {
        for l in 0..CHUNK {
            lo[l] = lo[l].min(b[l]);
            hi[l] = hi[l].max(b[l]);
        }
    }
    for (l, &x) in tail.iter().enumerate() {
        lo[l] = lo[l].min(x);
        hi[l] = hi[l].max(x);
    }
    (
        lo.into_iter().fold(f32::INFINITY, f32::min),
        hi.into_iter().fold(f32::NEG_INFINITY, f32::max),
    )
}

/// What a symmetric force pass did: kernel evaluations executed, directed
/// interactions they delivered (two per evaluation), and the walk/kernel
/// time split.
#[derive(Debug, Clone, Copy, Default)]
pub struct SymmetricReport {
    /// Particle pairs sent through the kernel — the pairs of the chunk
    /// pairs that passed the box test, pad lanes not counted.
    pub evals: u64,
    /// Directed (target, source) interactions applied — `2 × evals`.
    pub directed: u64,
    /// Leaf-pair list generation time.
    pub walk: Duration,
    /// Chunk culling plus force evaluation time (summed across workers).
    pub kernel: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_particles(np: usize, side: f32, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 * side
        };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        for _ in 0..np {
            xs.push(next());
            ys.push(next());
            zs.push(next());
        }
        (xs, ys, zs, vec![1.0; np])
    }

    /// Brute force without periodicity (the tree is non-periodic).
    fn brute(
        kernel: &ForceKernel,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        m: &[f32],
    ) -> [Vec<f32>; 3] {
        let np = xs.len();
        let mut f = [vec![0.0f32; np], vec![0.0f32; np], vec![0.0f32; np]];
        for t in 0..np {
            for q in 0..np {
                let dx = xs[q] - xs[t];
                let dy = ys[q] - ys[t];
                let dz = zs[q] - zs[t];
                let s = dx * dx + dy * dy + dz * dz;
                let w = m[q] * kernel.factor(s);
                f[0][t] += dx * w;
                f[1][t] += dy * w;
                f[2][t] += dz * w;
            }
        }
        f
    }

    #[test]
    fn partition_is_a_permutation() {
        let (xs, ys, zs, m) = rand_particles(1000, 10.0, 3);
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 16 });
        let mut seen = vec![false; 1000];
        for p in tree.permutation() {
            assert!(!seen[p as usize], "duplicate {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
        // Permuted data matches originals; pads are inert.
        for (i, &orig) in tree.perm.iter().enumerate() {
            if orig == PAD {
                assert_eq!(tree.mass[i], 0.0);
                assert_eq!(tree.xs[i], PAD_COORD);
                continue;
            }
            let orig = orig as usize;
            assert_eq!(tree.xs[i], xs[orig]);
            assert_eq!(tree.ys[i], ys[orig]);
            assert_eq!(tree.zs[i], zs[orig]);
            assert_eq!(tree.mass[i], m[orig]);
        }
    }

    #[test]
    fn chunks_tile_the_leaves_and_bound_their_particles() {
        let (xs, ys, zs, m) = rand_particles(777, 10.0, 5);
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 50 });
        let mut next_chunk = 0;
        for &l in &tree.leaves {
            let node = &tree.nodes[l];
            assert_eq!(node.slot % CHUNK, 0);
            assert_eq!(node.chunks().start, next_chunk, "leaves are chunk-contiguous");
            next_chunk = node.chunks().end;
            let real: usize = node.chunks().map(|c| usize::from(tree.chunk_len[c])).sum();
            assert_eq!(real, node.len());
            // Only a leaf's last chunk is partial.
            for c in node.chunks().start..node.chunks().end - 1 {
                assert_eq!(usize::from(tree.chunk_len[c]), CHUNK);
            }
        }
        assert_eq!(next_chunk * CHUNK, tree.xs.len());
        for (c, &n) in tree.chunk_len.iter().enumerate() {
            assert!(n >= 1);
            for l in 0..CHUNK {
                let i = c * CHUNK + l;
                assert_eq!(tree.perm[i] == PAD, l >= usize::from(n), "pads trail the chunk");
                if l < usize::from(n) {
                    for (ax, v) in [tree.xs[i], tree.ys[i], tree.zs[i]].into_iter().enumerate() {
                        assert!(tree.chunk_lo[ax][c] <= v && v <= tree.chunk_hi[ax][c]);
                    }
                }
            }
        }
    }

    #[test]
    fn in_leaf_ordering_makes_chunks_compact() {
        // One leaf of 128 uniform particles in a unit cube: kd-ordered
        // chunks of 8 tile it, so the mean chunk box is a small fraction
        // of the leaf's volume (an unordered chunk spans most of it).
        let (xs, ys, zs, m) = rand_particles(128, 1.0, 19);
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 128 });
        assert_eq!(tree.leaf_count(), 1);
        let vol = |c: usize| -> f32 {
            (0..3).map(|ax| tree.chunk_hi[ax][c] - tree.chunk_lo[ax][c]).product()
        };
        let mean: f32 = (0..16).map(vol).sum::<f32>() / 16.0;
        assert!(mean < 0.1, "mean chunk volume {mean} of a unit leaf");
    }

    #[test]
    fn leaves_respect_size_bound_and_cover_all() {
        let (xs, ys, zs, m) = rand_particles(500, 8.0, 7);
        let params = TreeParams { leaf_size: 32 };
        let tree = RcbTree::build(&xs, &ys, &zs, &m, params);
        let mut covered = 0;
        for &l in &tree.leaves {
            let n = &tree.nodes[l];
            assert!(n.end - n.start <= 32);
            covered += n.end - n.start;
        }
        assert_eq!(covered, 500);
    }

    #[test]
    fn forces_match_brute_force() {
        let kernel = ForceKernel::newtonian(2.0, 1e-4);
        // Miri: fewer particles (O(np²) reference) but still several
        // leaves.
        let np = if cfg!(miri) { 64 } else { 400 };
        let (xs, ys, zs, m) = rand_particles(np, 10.0, 11);
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 24 });
        let (f, directed) = tree.forces_symmetric(&kernel);
        // The box tests may pass pairs beyond the cutoff to the kernel,
        // but never drop one inside it.
        let in_range = (0..np)
            .flat_map(|i| (i + 1..np).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                let d = [xs[j] - xs[i], ys[j] - ys[i], zs[j] - zs[i]];
                d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < kernel.rcut2
            })
            .count() as u64;
        assert!(in_range > 0);
        assert!(directed >= 2 * in_range, "{directed} directed < 2 × {in_range} in range");
        let want = brute(&kernel, &xs, &ys, &zs, &m);
        for c in 0..3 {
            for p in 0..xs.len() {
                let scale = want[c][p].abs().max(1e-2);
                assert!(
                    (f[c][p] - want[c][p]).abs() < 2e-3 * scale,
                    "c={c} p={p}: {} vs {}",
                    f[c][p],
                    want[c][p]
                );
            }
        }
    }

    #[test]
    fn fat_leaves_reduce_node_count() {
        let (xs, ys, zs, m) = rand_particles(2000, 16.0, 13);
        let fat = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 256 });
        let thin = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 8 });
        assert!(fat.node_count() * 4 < thin.node_count());
    }

    #[test]
    fn identical_positions_do_not_hang() {
        // Degenerate input: everything at one point; the median fallback
        // must terminate the recursion.
        let np = if cfg!(miri) { 100 } else { 300 };
        let xs = vec![1.0f32; np];
        let tree = RcbTree::build(&xs, &xs, &xs, &vec![1.0; np], TreeParams { leaf_size: 8 });
        assert!(tree.leaf_count() >= np / 8);
        let kernel = ForceKernel::newtonian(1.0, 1e-4);
        let (f, _) = tree.forces_symmetric(&kernel);
        // Every pair has s = 0, which the kernel masks: zero forces.
        assert!(f[0].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cutoff_limits_interactions() {
        // Two distant clusters: no cross-cluster interactions.
        let mut xs = vec![0.0f32; 50];
        xs.extend(vec![100.0f32; 50]);
        let ys = vec![0.0f32; 100];
        let zs = vec![0.0f32; 100];
        let m = vec![1.0f32; 100];
        // Spread each cluster slightly so forces are nonzero within.
        let mut xs2 = xs.clone();
        for (i, v) in xs2.iter_mut().enumerate() {
            *v += (i % 50) as f32 * 0.01;
        }
        let tree = RcbTree::build(&xs2, &ys, &zs, &m, TreeParams { leaf_size: 16 });
        let kernel = ForceKernel::newtonian(2.0, 1e-5);
        let (_, directed) = tree.forces_symmetric(&kernel);
        // Each cluster of 50 interacts only internally: ≤ 50·50 each.
        assert!(directed <= 2 * 50 * 50, "interactions {directed}");
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_build() {
        let kernel = ForceKernel::newtonian(2.0, 1e-4);
        let mut scratch = TreeScratch::default();
        let mut tree = RcbTree::new_empty(TreeParams { leaf_size: 24 });
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        // Rebuild across particle sets of varying size; each pass must
        // match a from-scratch build + forces bit for bit (miri: smaller
        // sets, same grow/shrink/grow capacity sequence).
        let sweep: &[(usize, u64)] = if cfg!(miri) {
            &[(90, 11), (150, 21), (60, 31)]
        } else {
            &[(400, 11), (700, 21), (300, 31)]
        };
        for &(np, seed) in sweep {
            let (xs, ys, zs, m) = rand_particles(np, 10.0, seed);
            tree.rebuild(&xs, &ys, &zs, &m, &mut scratch);
            let rep = tree.forces_symmetric_into(&kernel, 0.0, &mut scratch, &mut out);
            let fresh = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 24 });
            let (want, directed) = fresh.forces_symmetric(&kernel);
            assert_eq!(rep.directed, directed, "np={np}");
            for c in 0..3 {
                assert_eq!(out[c], want[c], "np={np} c={c}");
            }
        }
    }

    #[test]
    fn symmetric_total_momentum_vanishes() {
        // Newton-3 pairing: every kernel evaluation applies equal and
        // opposite contributions, so ΣF over all particles must vanish to
        // f32 accumulation rounding — a per-target sum only achieves
        // this to kernel-symmetry tolerance.
        let kernel = ForceKernel::newtonian(3.0, 1e-5);
        let np = if cfg!(miri) { 80 } else { 2000 };
        let (xs, ys, zs, m) = rand_particles(np, 8.0, 29);
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 32 });
        let (f, _) = tree.forces_symmetric(&kernel);
        for (c, comp) in f.iter().enumerate() {
            let total: f64 = comp.iter().map(|&v| f64::from(v)).sum();
            let mag: f64 = comp.iter().map(|&v| f64::from(v.abs())).sum();
            assert!(
                total.abs() < 1e-5 * mag.max(1.0),
                "c={c}: ΣF = {total:.3e} vs Σ|F| = {mag:.3e}"
            );
        }
    }

    #[test]
    fn pad_slots_never_receive_force() {
        let kernel = ForceKernel::newtonian(2.0, 1e-4);
        let (xs, ys, zs, m) = rand_particles(if cfg!(miri) { 60 } else { 333 }, 6.0, 47);
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 20 });
        let mut scratch = TreeScratch::default();
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        tree.forces_symmetric_into(&kernel, 0.2, &mut scratch, &mut out);
        let pads = tree.perm.iter().filter(|&&p| p == PAD).count();
        assert!(pads > 0, "the case must have pad slots");
        for f in &scratch.ftree {
            for (&p, &v) in tree.perm.iter().zip(f) {
                assert!(p != PAD || v == 0.0, "pad slot accumulated {v}");
            }
        }
    }

    #[test]
    fn symmetric_deterministic_across_runs() {
        let kernel = ForceKernel::newtonian(2.0, 1e-4);
        let np = if cfg!(miri) { 60 } else { 500 };
        let (xs, ys, zs, m) = rand_particles(np, 10.0, 41);
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 16 });
        let (a, _) = tree.forces_symmetric(&kernel);
        let (b, _) = tree.forces_symmetric(&kernel);
        for c in 0..3 {
            assert_eq!(a[c], b[c], "component {c} not bit-reproducible");
        }
    }

    #[test]
    fn skin_refresh_matches_fresh_build() {
        // Drift every particle by less than slack/2, refresh positions in
        // the stale tree, and evaluate with the slack-widened pair list:
        // forces must match a from-scratch tree at the new positions.
        let kernel = ForceKernel::newtonian(2.0, 1e-4);
        let np = if cfg!(miri) { 70 } else { 500 };
        let (xs, ys, zs, m) = rand_particles(np, 10.0, 53);
        let slack = 0.3f32;
        let mut scratch = TreeScratch::default();
        let mut tree = RcbTree::new_empty(TreeParams { leaf_size: 24 });
        tree.rebuild(&xs, &ys, &zs, &m, &mut scratch);
        let gen0 = tree.generation();
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        // Two refresh rounds against the same build.
        let mut s = 97u64;
        let mut jitter = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s as f64 / u64::MAX as f64) as f32 - 0.5) * slack * 0.9
        };
        let (mut cx, mut cy, mut cz) = (xs.clone(), ys.clone(), zs.clone());
        for round in 0..2 {
            for i in 0..np {
                cx[i] += jitter();
                cy[i] += jitter();
                cz[i] += jitter();
            }
            tree.refresh_positions(&cx, &cy, &cz);
            let rep = tree.forces_symmetric_into(&kernel, slack, &mut scratch, &mut out);
            assert_eq!(rep.directed, 2 * rep.evals);
            let fresh = RcbTree::build(&cx, &cy, &cz, &m, TreeParams { leaf_size: 24 });
            let (want, _) = fresh.forces_symmetric(&kernel);
            for c in 0..3 {
                for p in 0..np {
                    let scale = want[c][p].abs().max(1e-2);
                    assert!(
                        (out[c][p] - want[c][p]).abs() < 2e-3 * scale,
                        "round={round} c={c} p={p}: {} vs {}",
                        out[c][p],
                        want[c][p]
                    );
                }
            }
        }
        assert_eq!(tree.generation(), gen0, "refresh must not rebuild");
    }

    #[test]
    fn generation_counts_rebuilds() {
        let (xs, ys, zs, m) = rand_particles(100, 5.0, 61);
        let mut scratch = TreeScratch::default();
        let mut tree = RcbTree::new_empty(TreeParams::default());
        assert_eq!(tree.generation(), 0);
        tree.rebuild(&xs, &ys, &zs, &m, &mut scratch);
        assert_eq!(tree.generation(), 1);
        tree.refresh_positions(&xs, &ys, &zs);
        assert_eq!(tree.generation(), 1);
        tree.rebuild(&xs, &ys, &zs, &m, &mut scratch);
        assert_eq!(tree.generation(), 2);
    }

    #[test]
    fn symmetric_empty_and_single() {
        let kernel = ForceKernel::newtonian(1.0, 1e-4);
        let empty = RcbTree::build(&[], &[], &[], &[], TreeParams::default());
        let (f, d) = empty.forces_symmetric(&kernel);
        assert_eq!(d, 0);
        assert!(f[0].is_empty());
        let one = RcbTree::build(&[1.0], &[2.0], &[3.0], &[1.0], TreeParams::default());
        let (f1, d1) = one.forces_symmetric(&kernel);
        assert_eq!(d1, 0);
        assert_eq!(f1[0][0], 0.0);
    }
}
