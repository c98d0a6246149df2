//! The CIC kernels of the long-range pipeline, shared by both engines.
//!
//! A mesh is cut into x slabs, one per rank; the serial engine's box is
//! a single slab. The deposit fills a slab extended by
//! [`DEPOSIT_HALO`] planes on each side and the gather reads a slab
//! padded by force halos, so neither wraps x: the caller folds the
//! spill back onto the owned planes — over the ring
//! (`fold_spill_into`), or in place on a one-slab box
//! ([`SlabGrid::fold_self`]) — and supplies the halo planes, received
//! from the neighbors or, on a one-slab box, taken from the grid's own
//! far end ([`HaloSlab::periodic`]). No communication happens here.

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

    /// The one-slab box's halo of depth `h`: the periodic grid read in
    /// place, its last `h` planes below it and its first `h` above.
    pub(crate) fn periodic(grid: &'a [f64], plane: usize, h: usize) -> Self {
        let n = grid.len() / plane;
        HaloSlab([&grid[(n - h) * plane..], grid, &grid[..h * plane]])
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

    /// The whole box as one slab.
    pub(crate) fn whole(n: usize, box_len: f64) -> Self {
        Self::new(n, 0, 1, box_len)
    }

    /// Values in one x plane.
    pub(crate) fn plane(&self) -> usize {
        self.n * self.n
    }

    /// Deposit the first `count` particles of `pos` (box units) into
    /// `ext`, planes `[x0-DEPOSIT_HALO, x0+lx+DEPOSIT_HALO)`, leaving the
    /// spill planes for the caller to fold.
    pub(crate) fn deposit(&self, pos: [&[f32]; 3], count: usize, ext: &mut Vec<f64>) {
        const HD: usize = DEPOSIT_HALO;
        let (n, lx, plane) = (self.n, self.lx, self.plane());
        assert!(lx >= HD, "slab thinner than the deposit halo");
        ext.clear();
        ext.resize((lx + 2 * HD) * plane, 0.0);
        let [xs, ys, zs] = pos;
        for i in 0..count {
            let gx = f64::from(xs[i]) * self.to_grid;
            let gy = f64::from(ys[i]) * self.to_grid;
            let gz = f64::from(zs[i]) * self.to_grid;
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
    }

    /// Fold a one-slab box's deposit spill onto its own far planes and
    /// cut `ext` to the owned grid, in place: the 1-rank ring's
    /// `fold_spill_into`, the same additions in the same order, with no
    /// message.
    pub(crate) fn fold_self(&self, ext: &mut Vec<f64>) {
        const HD: usize = DEPOSIT_HALO;
        let (lx, plane) = (self.lx, self.plane());
        debug_assert_eq!(lx, self.n, "only a one-slab box folds onto itself");
        let spill = HD * plane;
        // The spill above lands on the first owned planes, the spill
        // below on the last; neither spill run is an owned plane.
        for j in 0..spill {
            ext[spill + j] += ext[(lx + HD) * plane + j];
        }
        for j in 0..spill {
            ext[lx * plane + j] += ext[j];
        }
        ext.copy_within(spill..(lx + HD) * plane, 0);
        ext.truncate(lx * plane);
    }

    /// Fused CIC gather of `K` force slabs (the three components) at
    /// every particle in `pos` (box units, possibly outside the box):
    /// the eight cells and their offsets are found once per particle,
    /// and each component is read with the single-component gather's
    /// exact expression, so the result is bitwise that of `K` separate
    /// gathers. The slabs cover planes `[x0-h, x0+lx+h)` in the same
    /// runs. Writes `out`, or adds to it when `add`.
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

/// Turn a folded deposit into the density contrast `ρ/n̄ − 1`, in place.
pub(crate) fn contrast(grid: &mut [f64], nbar: f64) {
    for v in grid {
        *v = *v / nbar - 1.0;
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
    use hacc_domain::gridhalo::fold_spill_into;

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

    /// The one-slab deposit folded onto itself is bitwise the periodic
    /// reference deposit.
    #[test]
    fn one_slab_deposit_is_bitwise_the_reference() {
        let n = 8;
        let [xs, ys, zs] = dyadic(700, n);
        let mut want = vec![0.0; n * n * n];
        hacc_pm::deposit_cic(&mut want, n, &xs, &ys, &zs, 1.0);
        let grid = SlabGrid::whole(n, n as f64);
        let mut got = Vec::new();
        grid.deposit([&xs, &ys, &zs], xs.len(), &mut got);
        grid.fold_self(&mut got);
        assert_eq!(got.len(), want.len());
        for (c, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "cell {c}: {g} vs {w}");
        }
    }

    /// The in-place fold is bitwise the 1-rank ring's `fold_spill_into`
    /// on a deposit whose sums are not all exact (random offsets), so
    /// the two must add the same values in the same order.
    #[test]
    fn self_fold_is_bitwise_the_one_rank_ring() {
        let n = 8;
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64 * n as f64) as f32
        };
        let mut pos: [Vec<f32>; 3] = Default::default();
        for _ in 0..900 {
            for c in &mut pos {
                c.push(next());
            }
        }
        let [xs, ys, zs] = &pos;
        let grid = SlabGrid::whole(n, n as f64);
        let mut ext = Vec::new();
        // Only the first 800 are deposited: the count bounds the loop.
        grid.deposit([xs, ys, zs], 800, &mut ext);
        let (ring, _) = Machine::new(1).run(|comm| {
            let mut ext = ext.clone();
            fold_spill_into(&comm, &mut ext, n * n, DEPOSIT_HALO, (991, 992));
            ext
        });
        grid.fold_self(&mut ext);
        assert_eq!(ext.len(), n * n * n);
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(&ext) == bits(&ring[0]), "self fold differs from the 1-rank ring");
        let mass: f64 = ext.iter().sum();
        assert!((mass - 800.0).abs() < 1e-9, "mass {mass}");
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
