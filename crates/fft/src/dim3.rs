//! Serial (shared-memory) 3-D complex FFT, and the two batched line
//! passes under every 3-D transform in the crate.
//!
//! Row-major `[nx][ny][nz]` layout (`z` fastest). Lines along each axis
//! are transformed in **batched bundles** of up to `BATCH` lines by one
//! of two passes, which the serial, real, slab and pencil transforms
//! all call: `pass_lines` for contiguous lines (the z pass) and
//! `pass_columns` for the middle axis of a `[outer][n][inner]` view (a
//! y pass, or an x pass with one outer block). Each tiles an L1-sized
//! panel (`[n][BATCH]`, batch-major) out of the grid with contiguous
//! small copies, runs one batched kernel call over the whole bundle,
//! and writes the panel back. For the strided passes this is a
//! cache-blocked transpose — adjacent columns are contiguous in memory,
//! so gathering a panel touches each cache line once instead of once
//! per line. Rayon splits across independent chunks of lines or outer
//! blocks.

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
        pass_lines(&self.plan_z, data, inverse, &self.pool);
        pass_columns(&self.plan_y, data, self.nz, inverse, &self.pool);
        pass_columns(&self.plan_x, data, self.ny * self.nz, inverse, &self.pool);
    }
}

/// Batch width of the line passes (bundle of lines per kernel call).
pub(crate) const BATCH: usize = Fft1d::MAX_BATCH;

/// Transform the contiguous lines of `data`, each `plan.len()` long
/// (the z pass): [`BATCH`] lines at a time are transposed into a
/// batch-major tile, run through one batched kernel call and transposed
/// back.
pub(crate) fn pass_lines(plan: &Fft1d, data: &mut [Complex64], inverse: bool, pool: &BufPool) {
    let n = plan.len();
    data.par_chunks_mut(BATCH * n).for_each_init(
        || (pool.lease(BATCH * n), pool.lease(plan.scratch_len_batch(BATCH))),
        |(tile, scratch), chunk| {
            let b = chunk.len() / n;
            let tile = &mut tile[..n * b];
            for (bi, line) in chunk.chunks(n).enumerate() {
                for (j, &v) in line.iter().enumerate() {
                    tile[j * b + bi] = v;
                }
            }
            plan.transform_batch(tile, b, scratch, inverse);
            for (bi, line) in chunk.chunks_mut(n).enumerate() {
                for (j, v) in line.iter_mut().enumerate() {
                    *v = tile[j * b + bi];
                }
            }
        },
    );
}

/// Transform the middle axis of `data` viewed as `[outer][n][inner]`,
/// `n = plan.len()`: a y pass is `inner` = the z extent, an x pass one
/// outer block with `inner` = the (y, z) plane. Adjacent columns are
/// contiguous, so a `[n][b]` batch-major tile of [`BATCH`] of them is
/// gathered with `n` contiguous `b`-element copies — the cache-blocked
/// transpose that feeds the batched kernel an L1-resident panel.
/// In an x pass a batch may take columns from two y rows, which is
/// bitwise inert because lanes never interact. The outer blocks are
/// the parallel split.
pub(crate) fn pass_columns(
    plan: &Fft1d,
    data: &mut [Complex64],
    inner: usize,
    inverse: bool,
    pool: &BufPool,
) {
    let n = plan.len();
    data.par_chunks_mut(n * inner).for_each_init(
        || (pool.lease(BATCH * n), pool.lease(plan.scratch_len_batch(BATCH))),
        |(tile, scratch), block| {
            for c0 in (0..inner).step_by(BATCH) {
                let b = BATCH.min(inner - c0);
                let tile = &mut tile[..n * b];
                for (j, row) in tile.chunks_exact_mut(b).enumerate() {
                    row.copy_from_slice(&block[j * inner + c0..][..b]);
                }
                plan.transform_batch(tile, b, scratch, inverse);
                for (j, row) in tile.chunks_exact(b).enumerate() {
                    block[j * inner + c0..][..b].copy_from_slice(row);
                }
            }
        },
    );
}

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

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// Both passes are bitwise a line-by-line oracle (each line through
    /// its own batch-1 kernel call), forward and inverse, at lengths
    /// covering every radix and at `inner`/`outer` extents that leave
    /// batch tails and let column batches run on across rows.
    #[test]
    fn passes_are_bitwise_the_line_by_line_oracle() {
        let pool = BufPool::new();
        for n in [6, 15, 16, 96] {
            let plan = Fft1d::new(n);
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len_batch(1)];
            let mut line = vec![Complex64::ZERO; n];
            for inner in [1, 3, 5, 49] {
                for outer in [1, 2] {
                    let sig = rand_grid(outer * n * inner, (n * 100 + inner * 10 + outer) as u64);
                    for inverse in [false, true] {
                        let case = format!("n={n} inner={inner} outer={outer} inverse={inverse}");
                        let mut got = sig.clone();
                        pass_lines(&plan, &mut got, inverse, &pool);
                        let mut want = sig.clone();
                        for l in want.chunks_mut(n) {
                            plan.transform_batch(l, 1, &mut scratch, inverse);
                        }
                        assert_eq!(bits(&got), bits(&want), "pass_lines {case}");

                        let mut got = sig.clone();
                        pass_columns(&plan, &mut got, inner, inverse, &pool);
                        let mut want = sig.clone();
                        for block in want.chunks_mut(n * inner) {
                            for c in 0..inner {
                                for (j, v) in line.iter_mut().enumerate() {
                                    *v = block[j * inner + c];
                                }
                                plan.transform_batch(&mut line, 1, &mut scratch, inverse);
                                for (j, v) in line.iter().enumerate() {
                                    block[j * inner + c] = *v;
                                }
                            }
                        }
                        assert_eq!(bits(&got), bits(&want), "pass_columns {case}");
                    }
                }
            }
        }
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
