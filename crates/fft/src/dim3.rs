//! Serial (shared-memory) 3-D complex FFT.
//!
//! Row-major `[nx][ny][nz]` layout (`z` fastest). Lines along each axis
//! are transformed in **batched bundles** of up to `BATCH` lines: each
//! pass tiles an L1-sized panel (`[n][BATCH]`, batch-major) out of the
//! grid with contiguous small copies, runs one batched kernel call over
//! the whole bundle, and writes the panel back. For the strided y and x
//! passes this is a cache-blocked transpose — adjacent z columns are
//! contiguous in memory, so gathering a panel touches each cache line
//! once instead of once per line. Rayon parallelizes across independent
//! panels.

use crate::complex::Complex64;
use crate::plan::Fft1d;
use crate::scratch::BufPool;
use rayon::prelude::*;

/// 3-D FFT plan for an `nx × ny × nz` grid.
///
/// Carries an internal [`BufPool`] so repeated transforms allocate no
/// scratch after the first call.
#[derive(Debug)]
pub struct Fft3 {
    nx: usize,
    ny: usize,
    nz: usize,
    plan_x: Fft1d,
    plan_y: Fft1d,
    plan_z: Fft1d,
    pool: BufPool,
}

impl Clone for Fft3 {
    fn clone(&self) -> Self {
        // The scratch pool is transient state; a clone starts cold.
        Fft3 {
            nx: self.nx,
            ny: self.ny,
            nz: self.nz,
            plan_x: self.plan_x.clone(),
            plan_y: self.plan_y.clone(),
            plan_z: self.plan_z.clone(),
            pool: BufPool::new(),
        }
    }
}

impl Fft3 {
    /// Plan for a cubic `n³` grid.
    #[must_use] 
    pub fn new_cubic(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Plan for a general `nx × ny × nz` grid.
    #[must_use] 
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Fft3 {
            nx,
            ny,
            nz,
            plan_x: Fft1d::new(nx),
            plan_y: Fft1d::new(ny),
            plan_z: Fft1d::new(nz),
            pool: BufPool::new(),
        }
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True only for a degenerate empty grid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unnormalized forward transform in place.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, false);
    }

    /// Normalized backward transform in place (divides by `nx·ny·nz`).
    pub fn backward(&self, data: &mut [Complex64]) {
        self.transform(data, true);
        let inv = 1.0 / self.len() as f64;
        data.par_iter_mut().for_each(|v| *v = v.scale(inv));
    }

    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.len(), "grid size mismatch");
        pass_z(&self.plan_z, data, self.nz, inverse, &self.pool);
        pass_y(&self.plan_y, data, self.ny, self.nz, inverse, &self.pool);
        pass_x(&self.plan_x, data, self.ny, self.nz, inverse, &self.pool);
    }
}

/// Batch width of the tiled passes (bundle of lines per kernel call).
pub(crate) const BATCH: usize = Fft1d::MAX_BATCH;

/// Pass 1 of the 3-D transform: contiguous z lines of length `nz`,
/// bundled [`BATCH`] at a time into a batch-major tile.
pub(crate) fn pass_z(
    plan: &Fft1d,
    data: &mut [Complex64],
    nz: usize,
    inverse: bool,
    pool: &BufPool,
) {
    data.par_chunks_mut(BATCH * nz).for_each_init(
        || {
            (
                pool.lease(BATCH * nz),
                pool.lease(plan.scratch_len_batch(BATCH)),
            )
        },
        |(tile, scratch), chunk| {
            let b = chunk.len() / nz;
            let tile = &mut tile[..nz * b];
            for (bi, line) in chunk.chunks(nz).enumerate() {
                for (j, &v) in line.iter().enumerate() {
                    tile[j * b + bi] = v;
                }
            }
            plan.transform_batch(tile, b, scratch, inverse);
            for (bi, line) in chunk.chunks_mut(nz).enumerate() {
                for (j, v) in line.iter_mut().enumerate() {
                    *v = tile[j * b + bi];
                }
            }
        },
    );
}

/// Pass 2: y lines of length `ny`, strided by the z-extent `nzc` within
/// each x-plane (`nzc` is `nz` for c2c, `nz/2+1` for the half-spectrum).
///
/// Adjacent `iz` columns are contiguous, so a `[ny][b]` batch-major tile
/// is gathered with `ny` contiguous `b`-element copies — the
/// cache-blocked transpose that feeds the batched kernel contiguous
/// panels (`ny·BATCH` complex ≤ a few KiB, L1-resident).
pub(crate) fn pass_y(
    plan: &Fft1d,
    data: &mut [Complex64],
    ny: usize,
    nzc: usize,
    inverse: bool,
    pool: &BufPool,
) {
    data.par_chunks_mut(ny * nzc).for_each_init(
        || {
            (
                pool.lease(BATCH * ny),
                pool.lease(plan.scratch_len_batch(BATCH)),
            )
        },
        |(tile, scratch), plane| {
            let mut iz0 = 0;
            while iz0 < nzc {
                let b = BATCH.min(nzc - iz0);
                let tile = &mut tile[..ny * b];
                for iy in 0..ny {
                    let row = iy * nzc + iz0;
                    tile[iy * b..(iy + 1) * b].copy_from_slice(&plane[row..row + b]);
                }
                plan.transform_batch(tile, b, scratch, inverse);
                for iy in 0..ny {
                    let row = iy * nzc + iz0;
                    plane[row..row + b].copy_from_slice(&tile[iy * b..(iy + 1) * b]);
                }
                iz0 += b;
            }
        },
    );
}

/// Pass 3: x lines strided by `ny·nzc`. Parallelizes over y so each task
/// works on disjoint (y, z) columns; uses raw indexing through a shared
/// pointer wrapper kept sound by the disjointness of columns. Within a
/// task, [`BATCH`] adjacent z columns tile into one batch-major panel
/// per kernel call, same as [`pass_y`].
pub(crate) fn pass_x(
    plan: &Fft1d,
    data: &mut [Complex64],
    ny: usize,
    nzc: usize,
    inverse: bool,
    pool: &BufPool,
) {
    let nx = plan.len();
    let plane_stride = ny * nzc;
    let ptr = SyncPtr(data.as_mut_ptr());
    (0..ny).into_par_iter().for_each_init(
        || {
            (
                pool.lease(BATCH * nx),
                pool.lease(plan.scratch_len_batch(BATCH)),
            )
        },
        |(tile, scratch), iy| {
            let base = ptr;
            let mut iz0 = 0;
            while iz0 < nzc {
                let b = BATCH.min(nzc - iz0);
                let tile = &mut tile[..nx * b];
                let off = iy * nzc + iz0;
                for ix in 0..nx {
                    // SAFETY: distinct iy tasks touch disjoint (iy, iz)
                    // columns; `ix·plane_stride + off + b ≤ nx·ny·nzc`
                    // (the length of the allocation behind `data`), and
                    // the tile is a private lease, so this contiguous
                    // b-element copy reads in-bounds, non-overlapping
                    // memory.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            base.0.add(ix * plane_stride + off),
                            tile.as_mut_ptr().add(ix * b),
                            b,
                        );
                    }
                }
                plan.transform_batch(tile, b, scratch, inverse);
                for ix in 0..nx {
                    // SAFETY: writes the same disjoint (iy, iz) columns
                    // read above, with identical bounds reasoning.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            tile.as_ptr().add(ix * b),
                            base.0.add(ix * plane_stride + off),
                            b,
                        );
                    }
                }
                iz0 += b;
            }
        },
    );
}

/// Pointer wrapper asserting cross-thread use is sound (columns disjoint).
#[derive(Clone, Copy)]
struct SyncPtr(*mut Complex64);
// SAFETY: the pointer names the caller's cube allocation, which outlives
// the scoped x-pass, and each parallel (y, z) task touches only its own
// strided column — distinct (y, z) pairs index disjoint elements. The
// wrapper only moves the pointer into rayon closures.
unsafe impl Send for SyncPtr {}
// SAFETY: shared references only copy the pointer; dereferences happen
// inside the unsafe blocks that prove per-column disjointness.
unsafe impl Sync for SyncPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavenumber::k_index;

    fn rand_grid(n: usize, seed: u64) -> Vec<Complex64> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        (0..n).map(|_| Complex64::new(next(), next())).collect()
    }

    /// Brute-force 3-D DFT for tiny grids.
    fn dft3(x: &[Complex64], n: usize) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; n * n * n];
        for kx in 0..n {
            for ky in 0..n {
                for kz in 0..n {
                    let mut acc = Complex64::ZERO;
                    for jx in 0..n {
                        for jy in 0..n {
                            for jz in 0..n {
                                let phase = -2.0 * std::f64::consts::PI
                                    * ((kx * jx + ky * jy + kz * jz) % n) as f64
                                    / n as f64;
                                acc += x[(jx * n + jy) * n + jz] * Complex64::cis(phase);
                            }
                        }
                    }
                    out[(kx * n + ky) * n + kz] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_small() {
        for n in [2, 3, 4] {
            let plan = Fft3::new_cubic(n);
            let sig = rand_grid(n * n * n, 7);
            let mut data = sig.clone();
            plan.forward(&mut data);
            let want = dft3(&sig, n);
            let err = data
                .iter()
                .zip(&want)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "n = {n}, err = {err}");
        }
    }

    #[test]
    fn roundtrip_cubic_and_rectangular() {
        for (nx, ny, nz) in [(8, 8, 8), (4, 6, 10), (16, 8, 4), (5, 5, 5)] {
            let plan = Fft3::new(nx, ny, nz);
            let sig = rand_grid(nx * ny * nz, 99);
            let mut data = sig.clone();
            plan.forward(&mut data);
            plan.backward(&mut data);
            let err = data
                .iter()
                .zip(&sig)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "dims {nx}x{ny}x{nz}: err {err}");
        }
    }

    #[test]
    fn plane_wave_lands_in_one_bin() {
        let n = 8;
        let plan = Fft3::new_cubic(n);
        let (mx, my, mz) = (2usize, 5usize, 1usize);
        let mut data: Vec<Complex64> = Vec::with_capacity(n * n * n);
        for jx in 0..n {
            for jy in 0..n {
                for jz in 0..n {
                    let phase = 2.0 * std::f64::consts::PI
                        * ((mx * jx + my * jy + mz * jz) % n) as f64
                        / n as f64;
                    data.push(Complex64::cis(phase));
                }
            }
        }
        plan.forward(&mut data);
        for kx in 0..n {
            for ky in 0..n {
                for kz in 0..n {
                    let v = data[(kx * n + ky) * n + kz];
                    let expect = if (kx, ky, kz) == (mx, my, mz) {
                        (n * n * n) as f64
                    } else {
                        0.0
                    };
                    assert!(
                        (v.re - expect).abs() < 1e-8 && v.im.abs() < 1e-8,
                        "bin ({kx},{ky},{kz})"
                    );
                }
            }
        }
    }

    #[test]
    fn real_input_has_hermitian_spectrum() {
        let n = 6;
        let plan = Fft3::new_cubic(n);
        let mut data: Vec<Complex64> = rand_grid(n * n * n, 3)
            .into_iter()
            .map(|c| Complex64::new(c.re, 0.0))
            .collect();
        plan.forward(&mut data);
        // X[-k] = conj(X[k]).
        for kx in 0..n {
            for ky in 0..n {
                for kz in 0..n {
                    let neg = |i: usize| (n - i) % n;
                    let a = data[(kx * n + ky) * n + kz];
                    let b = data[(neg(kx) * n + neg(ky)) * n + neg(kz)];
                    assert!((a - b.conj()).abs() < 1e-9);
                }
            }
        }
        // Suppress unused import warning in this test module.
        let _ = k_index(0, 2);
    }

    #[test]
    fn dc_bin_is_sum() {
        let n = 4;
        let plan = Fft3::new_cubic(n);
        let sig = rand_grid(n * n * n, 17);
        let sum: Complex64 = sig.iter().fold(Complex64::ZERO, |a, &b| a + b);
        let mut data = sig;
        plan.forward(&mut data);
        assert!((data[0] - sum).abs() < 1e-10);
    }
}
