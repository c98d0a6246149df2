//! Direct particle–particle short-range solver with a chaining mesh (P³M).
//!
//! The solver used on Roadrunner and CPU/GPU systems: no mediating tree,
//! just a chaining mesh of cells of side ≥ r_cut so all interactions within
//! the cutoff are found among the 27 neighboring cells. Periodic
//! minimum-image displacements make it usable on the full box (the serial
//! TreePM/P³M comparison of the paper's code verification suite).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;

use crate::kernel::ForceKernel;

/// Per-worker neighbor-gather buffers for one chaining-mesh force pass.
#[derive(Default)]
struct CellGather {
    nx: Vec<f32>,
    ny: Vec<f32>,
    nz: Vec<f32>,
    nm: Vec<f32>,
}

/// RAII return-to-pool guard for a [`CellGather`]: a panicking cell task
/// (or any exit after the lease) still parks its buffer, so later passes
/// stay on the warm, alloc-free path instead of silently re-allocating.
struct CellLease<'a> {
    pool: &'a Mutex<Vec<CellGather>>,
    buf: CellGather,
}

impl Drop for CellLease<'_> {
    fn drop(&mut self) {
        // `if let`: during unwind the lock may be poisoned; dropping the
        // buffer then is fine, aborting on a double panic is not.
        if let Ok(mut pool) = self.pool.lock() {
            pool.push(std::mem::take(&mut self.buf));
        }
    }
}

/// Reusable scratch for [`P3mSolver::forces_into`]: counting-sort bins
/// and per-worker gather buffers. Steady-state force evaluation performs
/// no heap allocation once the capacities are warm.
#[derive(Default)]
pub struct P3mScratch {
    /// Particles per cell (counting sort histogram).
    counts: Vec<u32>,
    /// Exclusive prefix of `counts`: cell → first slot in `order`.
    starts: Vec<u32>,
    /// Write cursors while scattering (same layout as `starts`).
    cursor: Vec<u32>,
    /// Particle indices sorted by cell.
    order: Vec<u32>,
    /// Per-worker gather buffers, leased and returned per cell task.
    pool: Mutex<Vec<CellGather>>,
}

/// Chaining-mesh direct solver over a periodic cubic box.
pub struct P3mSolver {
    kernel: ForceKernel,
    /// Periodic box side (grid units — same units as the kernel cutoff).
    box_len: f32,
    /// Chaining mesh cells per side.
    cells: usize,
}

impl P3mSolver {
    /// Create a solver; the chaining mesh resolution is derived from the
    /// kernel cutoff (cell side ≥ r_cut).
    #[must_use] 
    pub fn new(kernel: ForceKernel, box_len: f32) -> Self {
        let rcut = kernel.rcut2.sqrt();
        let cells = ((box_len / rcut).floor() as usize).max(1);
        P3mSolver {
            kernel,
            box_len,
            cells,
        }
    }

    /// Number of chaining-mesh cells per side.
    #[must_use] 
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The chaining-mesh cell of a position in `[0, box_len)`; the
    /// clamp catches a coordinate a hair below `box_len` whose scaled
    /// value rounds up to the mesh side.
    fn cell_of(&self, x: f32, y: f32, z: f32) -> usize {
        let m = self.cells as f32;
        let cell = |v: f32| ((v / self.box_len * m).floor() as usize).min(self.cells - 1);
        (cell(x) * self.cells + cell(y)) * self.cells + cell(z)
    }

    /// Compute short-range forces for all particles. Returns
    /// `([fx, fy, fz], interaction_count)`. Convenience wrapper over
    /// [`P3mSolver::forces_into`] with fresh scratch.
    #[must_use]
    pub fn forces(
        &self,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        mass: &[f32],
    ) -> ([Vec<f32>; 3], u64) {
        let mut scratch = P3mScratch::default();
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        let inter = self.forces_into(xs, ys, zs, mass, &mut scratch, &mut out);
        (out, inter)
    }

    /// Compute short-range forces into caller-owned buffers, reusing
    /// `scratch` — allocation-free once everything is warm. Every
    /// coordinate must lie in `[0, box_len)`: the periodic shifts
    /// assume it, so one outside is refused, not binned.
    ///
    /// Particles are binned with a counting sort (histogram → prefix →
    /// scatter) instead of per-cell `Vec`s; each cell task leases a
    /// per-worker gather buffer from the scratch pool. Periodicity is
    /// handled at gather time: a neighbor cell reached through the box
    /// boundary contributes its particles pre-shifted by ±L, so the inner
    /// loop is the plain non-periodic kernel and runs through the fastest
    /// SIMD path.
    pub fn forces_into(
        &self,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        mass: &[f32],
        scratch: &mut P3mScratch,
        out: &mut [Vec<f32>; 3],
    ) -> u64 {
        let np = xs.len();
        assert!(ys.len() == np && zs.len() == np && mass.len() == np);
        let l = self.box_len;
        for (axis, c) in [("x", xs), ("y", ys), ("z", zs)] {
            if let Some(i) = c.iter().position(|v| !(0.0..l).contains(v)) {
                panic!("P³M: particle {i} has {axis} = {} outside the box [0, {l})", c[i]);
            }
        }
        let nc = self.cells;
        let ncells = nc * nc * nc;

        // Counting-sort binning.
        scratch.counts.clear();
        scratch.counts.resize(ncells, 0);
        for p in 0..np {
            scratch.counts[self.cell_of(xs[p], ys[p], zs[p])] += 1;
        }
        scratch.starts.clear();
        scratch.starts.resize(ncells + 1, 0);
        let mut acc = 0u32;
        for (c, &n) in scratch.counts.iter().enumerate() {
            scratch.starts[c] = acc;
            acc += n;
        }
        scratch.starts[ncells] = acc;
        scratch.cursor.clear();
        scratch.cursor.extend_from_slice(&scratch.starts[..ncells]);
        scratch.order.clear();
        scratch.order.resize(np, 0);
        for p in 0..np {
            let cell = self.cell_of(xs[p], ys[p], zs[p]);
            scratch.order[scratch.cursor[cell] as usize] = p as u32;
            scratch.cursor[cell] += 1;
        }

        for o in out.iter_mut() {
            o.clear();
            o.resize(np, 0.0);
        }
        let fp = [
            SyncF32Ptr(out[0].as_mut_ptr()),
            SyncF32Ptr(out[1].as_mut_ptr()),
            SyncF32Ptr(out[2].as_mut_ptr()),
        ];
        let inter = AtomicU64::new(0);
        let P3mScratch {
            starts, order, pool, ..
        } = scratch;
        // Reborrow shared: cell tasks contend on the pool lock, they do
        // not need (and must not claim) the exclusive reference.
        let pool: &Mutex<Vec<CellGather>> = pool;
        (0..ncells).into_par_iter().for_each(|cell| {
            let targets = &order[starts[cell] as usize..starts[cell + 1] as usize];
            if targets.is_empty() {
                return;
            }
            let mut lease = CellLease {
                pool,
                buf: pool
                    .lock()
                    .expect("p3m gather pool poisoned")
                    .pop()
                    .unwrap_or_default(),
            };
            let g = &mut lease.buf;
            let cz = cell % nc;
            let cy = (cell / nc) % nc;
            let cx = cell / (nc * nc);
            g.nx.clear();
            g.ny.clear();
            g.nz.clear();
            g.nm.clear();
            // 27-cell stencil with periodic shifts; on coarse meshes
            // (nc < 3) several stencil entries alias the same (cell,
            // shift) pair, so deduplicate the visited combinations.
            let mut seen = [(usize::MAX, 0i8, 0i8, 0i8); 27];
            let mut nseen = 0usize;
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dz in -1i64..=1 {
                        let wrap = |c: usize, d: i64| -> (usize, i8) {
                            let raw = c as i64 + d;
                            if raw < 0 {
                                ((raw + nc as i64) as usize, -1)
                            } else if raw >= nc as i64 {
                                ((raw - nc as i64) as usize, 1)
                            } else {
                                (raw as usize, 0)
                            }
                        };
                        let (wx, sx) = wrap(cx, dx);
                        let (wy, sy) = wrap(cy, dy);
                        let (wz, sz) = wrap(cz, dz);
                        let nb = (wx * nc + wy) * nc + wz;
                        let key = (nb, sx, sy, sz);
                        if seen[..nseen].contains(&key) {
                            continue;
                        }
                        seen[nseen] = key;
                        nseen += 1;
                        let (ox, oy, oz) =
                            (f32::from(sx) * l, f32::from(sy) * l, f32::from(sz) * l);
                        for &q in &order[starts[nb] as usize..starts[nb + 1] as usize] {
                            let q = q as usize;
                            g.nx.push(xs[q] + ox);
                            g.ny.push(ys[q] + oy);
                            g.nz.push(zs[q] + oz);
                            g.nm.push(mass[q]);
                        }
                    }
                }
            }
            let mut count = 0u64;
            for &t in targets {
                let t = t as usize;
                let f =
                    crate::simd::force_on_best(&self.kernel, xs[t], ys[t], zs[t], &g.nx, &g.ny, &g.nz, &g.nm);
                count += g.nx.len() as u64;
                // SAFETY: each particle belongs to exactly one chaining
                // cell, cells are processed by disjoint tasks, and `t`
                // indexes the length-`np` output buffers.
                unsafe {
                    *fp[0].0.add(t) = f[0];
                    *fp[1].0.add(t) = f[1];
                    *fp[2].0.add(t) = f[2];
                }
            }
            inter.fetch_add(count, Ordering::Relaxed);
        });
        inter.load(Ordering::Relaxed)
    }

    /// Brute-force O(N²) reference with minimum-image convention.
    #[must_use] 
    pub fn forces_brute(
        &self,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        mass: &[f32],
    ) -> [Vec<f32>; 3] {
        let np = xs.len();
        let half = 0.5 * self.box_len;
        let mut fx = vec![0.0f32; np];
        let mut fy = vec![0.0f32; np];
        let mut fz = vec![0.0f32; np];
        for t in 0..np {
            for q in 0..np {
                let mi = |d: f32| -> f32 {
                    if d > half {
                        d - self.box_len
                    } else if d < -half {
                        d + self.box_len
                    } else {
                        d
                    }
                };
                let dx = mi(xs[q] - xs[t]);
                let dy = mi(ys[q] - ys[t]);
                let dz = mi(zs[q] - zs[t]);
                let s = dx * dx + dy * dy + dz * dz;
                let w = mass[q] * self.kernel.factor(s);
                fx[t] += dx * w;
                fy[t] += dy * w;
                fz[t] += dz * w;
            }
        }
        [fx, fy, fz]
    }
}

/// Pointer wrapper asserting cross-thread use is sound (each particle is
/// owned by exactly one chaining cell, and cells are disjoint tasks).
#[derive(Clone, Copy)]
struct SyncF32Ptr(*mut f32);
// SAFETY: the pointer names the caller's output buffers, which outlive
// the scoped cell sweep, and each parallel task writes only the indices
// of its own cell's particles (cells partition the particle set). The
// wrapper only moves the pointer into rayon closures.
unsafe impl Send for SyncF32Ptr {}
// SAFETY: shared references only copy the pointer; dereferences happen
// inside the unsafe block that proves per-cell disjointness.
unsafe impl Sync for SyncF32Ptr {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_particles(np: usize, box_len: f32, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 * box_len
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

    #[test]
    fn matches_brute_force() {
        let kernel = ForceKernel::newtonian(2.5, 1e-4);
        let solver = P3mSolver::new(kernel, 16.0);
        let (xs, ys, zs, m) = rand_particles(300, 16.0, 9);
        let (fast, _) = solver.forces(&xs, &ys, &zs, &m);
        let brute = solver.forces_brute(&xs, &ys, &zs, &m);
        for c in 0..3 {
            for p in 0..xs.len() {
                let scale = brute[c][p].abs().max(1e-3);
                assert!(
                    (fast[c][p] - brute[c][p]).abs() < 1e-3 * scale + 1e-4,
                    "c={c} p={p}: {} vs {}",
                    fast[c][p],
                    brute[c][p]
                );
            }
        }
    }

    #[test]
    fn coarse_mesh_small_box() {
        // Box barely larger than the cutoff: nc = 1..2 exercises the
        // dedup path.
        let kernel = ForceKernel::newtonian(2.0, 1e-4);
        let solver = P3mSolver::new(kernel, 5.0);
        assert!(solver.cells() <= 3);
        let (xs, ys, zs, m) = rand_particles(60, 5.0, 21);
        let (fast, _) = solver.forces(&xs, &ys, &zs, &m);
        let brute = solver.forces_brute(&xs, &ys, &zs, &m);
        for c in 0..3 {
            for p in 0..xs.len() {
                let scale = brute[c][p].abs().max(1e-2);
                assert!(
                    (fast[c][p] - brute[c][p]).abs() < 2e-3 * scale,
                    "c={c} p={p}"
                );
            }
        }
    }

    #[test]
    fn momentum_conserved() {
        let kernel = ForceKernel::newtonian(3.0, 1e-4);
        let solver = P3mSolver::new(kernel, 20.0);
        let (xs, ys, zs, m) = rand_particles(500, 20.0, 33);
        let (f, _) = solver.forces(&xs, &ys, &zs, &m);
        for (c, comp) in f.iter().enumerate() {
            let sum: f64 = comp.iter().map(|&v| f64::from(v)).sum();
            // f32 accumulation: tolerance scales with the force magnitudes.
            let mag: f64 = comp.iter().map(|&v| f64::from(v.abs())).sum();
            assert!(sum.abs() < 1e-4 * mag.max(1.0), "c={c}: sum {sum}");
        }
    }

    #[test]
    fn two_particles_across_periodic_boundary() {
        let kernel = ForceKernel::newtonian(3.0, 0.0);
        let solver = P3mSolver::new(kernel, 16.0);
        // Particles at x = 0.2 and x = 15.8: true separation 0.4 through
        // the boundary.
        let (f, inter) = solver.forces(
            &[0.2, 15.8],
            &[8.0, 8.0],
            &[8.0, 8.0],
            &[1.0, 1.0],
        );
        assert!(inter > 0);
        // Particle 0 is pulled in -x (toward the image at -0.2).
        assert!(f[0][0] < 0.0, "fx0 = {}", f[0][0]);
        assert!(f[0][1] > 0.0);
        let expect = 1.0 / (0.4f32 * 0.4);
        assert!((f[0][0].abs() / expect - 1.0).abs() < 1e-3);
    }

    #[test]
    fn interaction_count_reasonable() {
        let kernel = ForceKernel::newtonian(2.0, 1e-4);
        let solver = P3mSolver::new(kernel, 32.0);
        let (xs, ys, zs, m) = rand_particles(2000, 32.0, 5);
        let (_, inter) = solver.forces(&xs, &ys, &zs, &m);
        // Each particle sees on average 27 cells × density·cell_volume.
        let nc = solver.cells() as f64;
        let expect = 2000.0 * 27.0 * 2000.0 / (nc * nc * nc);
        let ratio = inter as f64 / expect;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }

    /// A coordinate outside `[0, box_len)` is refused: a negative one
    /// would be binned into the last cell with its unshifted value, and
    /// its pairs across the face lost.
    #[test]
    #[should_panic(expected = "particle 1 has y = -0.25 outside the box")]
    fn out_of_box_coordinate_is_refused() {
        let solver = P3mSolver::new(ForceKernel::newtonian(3.0, 0.0), 16.0);
        let _ = solver.forces(&[0.2, 15.8], &[8.0, -0.25], &[8.0, 8.0], &[1.0, 1.0]);
    }

    #[test]
    fn empty_input() {
        let kernel = ForceKernel::newtonian(2.0, 1e-4);
        let solver = P3mSolver::new(kernel, 8.0);
        let (f, inter) = solver.forces(&[], &[], &[], &[]);
        assert_eq!(inter, 0);
        assert!(f.iter().all(|c| c.is_empty()));
    }
}
