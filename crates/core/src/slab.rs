//! The CIC kernels of the long-range pipeline.
//!
//! A mesh is cut into x slabs, one per rank; a 1-rank view's (the
//! serial engine's) is a single slab. Every axis a slab spans whole
//! wraps inside the kernels: y and z always, x on a one-slab box, which
//! therefore deposits no spill and gathers with no halo. Across a split
//! x axis the deposit fills a slab extended by [`DEPOSIT_HALO`] planes
//! on each side and the gather reads a slab padded by force halos: the
//! caller folds the spill onto the ring neighbours (`fold_spill_into`)
//! and supplies the halo planes it received from them. No communication
//! happens here.

use hacc_domain::gridhalo::Halos;

/// Planes the deposit extends its slab by on each side. Two cover the
/// CIC cloud (one cell), the sub-cycle drift of active particles
/// between refreshes (well under one cell per step at any sane time
/// step), and the fine-to-coarse rounding of the slab boundary.
pub(crate) const DEPOSIT_HALO: usize = 2;

/// A slab field with its halo, planes `[x0-h, x0+lx+h)`, as three runs
/// of whole planes: the halo below, the owned planes and the halo above
/// (or one run and two empty ones).
#[derive(Clone, Copy)]
pub(crate) struct HaloSlab<'a>(pub(crate) [&'a [f64]; 3]);

impl<'a> HaloSlab<'a> {
    /// Field `k` of a halo exchange, its halos read in place from the
    /// received messages.
    pub(crate) fn received(halos: &'a Halos, k: usize, owned: &'a [f64]) -> Self {
        HaloSlab([halos.below(k), owned, halos.above(k)])
    }

    /// Planes `[x0-h, x0+lx+h)` held as one run (with `h = 0`, a
    /// one-slab box's whole grid).
    pub(crate) fn contiguous(planes: &'a [f64]) -> Self {
        HaloSlab([&[], planes, &[]])
    }

    /// Whole-slab grids, which a gather reads with no halo.
    pub(crate) fn whole<const K: usize>(grids: &'a [Vec<f64>; K]) -> [Self; K] {
        grids.each_ref().map(|g| Self::contiguous(g))
    }
}

/// One slab of an `n`-per-side mesh (the fine grid or the coarse `ng/c`
/// grid; slab boundaries coincide because both are divisible by the
/// rank count).
#[derive(Clone, Copy)]
pub(crate) struct SlabGrid {
    pub(crate) n: usize,
    pub(crate) lx: usize,
    x0: usize,
    /// Box units → grid units.
    to_grid: f64,
}

impl SlabGrid {
    /// Slab `rank` of `ranks` over a box of side `box_len`.
    pub(crate) fn new(n: usize, rank: usize, ranks: usize, box_len: f64) -> Self {
        let lx = n / ranks;
        SlabGrid {
            n,
            lx,
            x0: rank * lx,
            to_grid: n as f64 / box_len,
        }
    }

    /// Values in one x plane.
    pub(crate) fn plane(&self) -> usize {
        self.n * self.n
    }

    /// The slab spans the whole x axis, which then wraps in the kernels.
    pub(crate) fn is_whole(&self) -> bool {
        self.lx == self.n
    }

    /// The two x planes of a CIC cloud at grid coordinate `gx` and the
    /// offset into the first: wrapped on a whole slab, otherwise counted
    /// from plane `x0 - h` of the slab extended by `h` planes, if it
    /// holds both.
    fn x_planes(&self, gx: f64, h: usize) -> Option<(usize, usize, f64)> {
        if self.is_whole() {
            let (ix, dx) = wrap_cell_near(gx, self.n);
            return Some((ix, next_cell(ix, self.n), dx));
        }
        let fx = gx.floor();
        let ix = fx as i64 - (self.x0 as i64 - h as i64);
        let inside = ix >= 0 && ix + 1 < (self.lx + 2 * h) as i64;
        inside.then(|| (ix as usize, ix as usize + 1, gx - fx))
    }

    /// The panic of a particle at grid x `gx` whose CIC cloud leaves the
    /// slab's `h`-plane halo: `what` overran, where, and why. The
    /// deposit's `what` is the clause `benchmark/src/run.rs` recognizes
    /// as its known wrap defect.
    #[cold]
    fn halo_overrun(&self, what: &str, gx: f64, h: usize) -> ! {
        let lo = self.x0 as i64 - h as i64;
        let hi = (self.x0 + self.lx + h) as i64;
        panic!(
            "{what}: its CIC cloud at grid x {gx} leaves the slab's planes \
             [x0-h, x0+lx+h) = [{lo}, {hi}) (h = {h}); the step drifted it farther \
             than the halo, so shorter steps are needed"
        )
    }

    /// Deposit the first `count` particles of `pos` (box units) into
    /// `ext`: the owned planes of a whole slab, or across a split axis
    /// planes `[x0-DEPOSIT_HALO, x0+lx+DEPOSIT_HALO)`, leaving the spill
    /// planes for the caller to fold.
    pub(crate) fn deposit(&self, pos: [&[f32]; 3], count: usize, ext: &mut Vec<f64>) {
        let (n, lx, plane) = (self.n, self.lx, self.plane());
        let hd = if self.is_whole() { 0 } else { DEPOSIT_HALO };
        assert!(lx >= hd, "slab thinner than the deposit halo");
        ext.clear();
        ext.resize((lx + 2 * hd) * plane, 0.0);
        let [xs, ys, zs] = pos;
        for i in 0..count {
            let gx = f64::from(xs[i]) * self.to_grid;
            let gy = f64::from(ys[i]) * self.to_grid;
            let gz = f64::from(zs[i]) * self.to_grid;
            let (ix, ix1, dx) = self.x_planes(gx, hd).unwrap_or_else(|| {
                self.halo_overrun("active particle drifted outside the deposit halo", gx, hd)
            });
            let (iy, dy) = wrap_cell_near(gy, n);
            let (iz, dz) = wrap_cell_near(gz, n);
            let iy1 = next_cell(iy, n);
            let iz1 = next_cell(iz, n);
            let (tx, ty, tz) = (1.0 - dx, 1.0 - dy, 1.0 - dz);
            for (pofs, wx) in [(ix, tx), (ix1, dx)] {
                let base = pofs * plane;
                ext[base + iy * n + iz] += wx * ty * tz;
                ext[base + iy * n + iz1] += wx * ty * dz;
                ext[base + iy1 * n + iz] += wx * dy * tz;
                ext[base + iy1 * n + iz1] += wx * dy * dz;
            }
        }
    }

    /// Fused CIC gather of `K` force slabs (the three components) at
    /// every particle in `pos` (box units, possibly outside the box):
    /// the eight cells and their offsets are found once per particle,
    /// and each component is read with the single-component gather's
    /// exact expression, so the result is bitwise that of `K` separate
    /// gathers. The slabs cover planes `[x0-h, x0+lx+h)` in the same
    /// runs; a whole slab wraps x and takes `h = 0`. Writes `out`, or
    /// adds to it when `add`.
    pub(crate) fn gather<const K: usize>(
        &self,
        fields: [HaloSlab<'_>; K],
        h: usize,
        pos: [&[f32]; 3],
        out: &mut [Vec<f32>; K],
        add: bool,
    ) {
        let n = self.n;
        let plane = self.plane();
        debug_assert!(!self.is_whole() || h == 0, "a whole slab wraps x and reads no halo");
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
            let (ix, ix1, dx) = self
                .x_planes(gx, h)
                .unwrap_or_else(|| self.halo_overrun("particle outside the force halo", gx, h));
            let planes = [(locate(ix), 1.0 - dx), (locate(ix1), dx)];
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

/// Turn a folded deposit into the density contrast `ρ/n̄ − 1`, in place.
pub(crate) fn contrast(grid: &mut [f64], nbar: f64) {
    for v in grid {
        *v = *v / nbar - 1.0;
    }
}

/// [`wrap_cell`] with its `%` replaced by one compare-and-add. On
/// `-n < g < 2n` — every coordinate a particle or its replica holds
/// within a step — `g % n` is `g`, or `g - n` exactly (Sterbenz), so the
/// cell and offset are bit-identical; anything else, and a `g + n` that
/// rounds to `n`, takes the `%` path.
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

    /// Positions in grid units on an `n = 8` box, every offset a
    /// multiple of 1/8 so each CIC weight product and every sum of them
    /// is exact in any order. The first particles sit on the x = 0 and
    /// x = n−1 faces, whose clouds spill below and above the slab.
    fn dyadic(count: usize, n: usize) -> [Vec<f32>; 3] {
        let eighths = |k: usize| (k % (8 * n)) as f32 / 8.0;
        let mut pos = [13, 29, 7].map(|m| (0..count).map(|k| eighths(k * m + 3)).collect::<Vec<_>>());
        let last = (n - 1) as f32;
        pos[0][..6].copy_from_slice(&[0.0, 0.125, 0.875, last, last + 0.5, last + 0.875]);
        pos
    }

    /// The one-slab deposit, wrapping x as it wraps y and z, is bitwise
    /// the periodic reference deposit — also for positions a drift
    /// outside the box.
    #[test]
    fn one_slab_deposit_is_bitwise_the_reference() {
        let n = 8;
        let [mut xs, ys, zs] = dyadic(700, n);
        xs[6..8].copy_from_slice(&[-0.375, n as f32 + 0.25]);
        let mut want = vec![0.0; n * n * n];
        hacc_pm::deposit_cic(&mut want, n, &xs, &ys, &zs, 1.0);
        let grid = SlabGrid::new(n, 0, 1, n as f64);
        let mut got = Vec::new();
        grid.deposit([&xs, &ys, &zs], xs.len(), &mut got);
        assert_eq!(got.len(), want.len());
        for (c, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "cell {c}: {g} vs {w}");
        }
    }

    /// A particle drifted past the deposit halo of slab 1 of 2 (planes
    /// `[4, 8)` of an 8-box, halo 2) names its grid x, the slab's range
    /// and the cause.
    #[test]
    #[should_panic(expected = "active particle drifted outside the deposit halo: its CIC cloud \
                               at grid x 1.5 leaves the slab's planes [x0-h, x0+lx+h) = [2, 10) \
                               (h = 2); the step drifted it farther than the halo, so shorter \
                               steps are needed")]
    fn deposit_past_the_halo_names_particle_and_slab() {
        let grid = SlabGrid::new(8, 1, 2, 8.0);
        let pos = [vec![1.5f32], vec![0.0], vec![0.0]];
        grid.deposit([&pos[0], &pos[1], &pos[2]], 1, &mut Vec::new());
    }

    /// The gather of a particle past the force halo says the same.
    #[test]
    #[should_panic(expected = "particle outside the force halo: its CIC cloud at grid x 6.75 \
                               leaves the slab's planes [x0-h, x0+lx+h) = [-1, 5) (h = 1)")]
    fn gather_past_the_halo_names_particle_and_slab() {
        let grid = SlabGrid::new(8, 0, 2, 8.0);
        let planes = vec![0.0; 6 * 64];
        let pos = [vec![6.75f32], vec![0.0], vec![0.0]];
        let mut out = [Vec::new()];
        grid.gather([HaloSlab::contiguous(&planes)], 1, [&pos[0], &pos[1], &pos[2]], &mut out, false);
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
