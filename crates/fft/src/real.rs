//! Real-to-complex / complex-to-real 3-D FFT over the Hermitian
//! half-spectrum.
//!
//! A real field's spectrum obeys `F(-k) = conj(F(k))`, so only the
//! non-negative z frequencies need storing: the half-spectrum layout is
//! `[nx][ny][nzh]` with `nzh = nz/2 + 1` (row-major, z fastest) — half
//! the memory and roughly half the flops of a complex transform. This is
//! the transform PMFAST-style memory-minimal PM solvers are built on and
//! what the production HACC line uses to fit trillion-particle grids.
//!
//! The z pass uses the classic pair-packing trick, valid for any `nz`
//! (odd or even): two real lines `a`, `b` are packed as `z = a + i·b`,
//! transformed once, and untangled via
//! `A[k] = (Z[k] + conj(Z[-k]))/2`, `B[k] = -i·(Z[k] - conj(Z[-k]))/2`.
//! `pass_r2c`/`pass_c2r` run that z pass for this serial transform and
//! for [`crate::pencil::RealPencilFft`] alike. The y and x passes then
//! run standard complex FFTs over the `nzh` retained columns through
//! [`crate::dim3`]'s `pass_columns`.
//!
//! Scratch comes from an internal [`BufPool`]; repeated transforms on a
//! warm plan perform zero heap allocations.

use rayon::prelude::*;

use crate::complex::Complex64;
use crate::dim3::{pass_columns, BATCH};
use crate::plan::Fft1d;
use crate::scratch::BufPool;

/// Serial (shared-memory) r2c/c2r 3-D FFT plan.
#[derive(Debug)]
pub struct RealFft3 {
    nx: usize,
    ny: usize,
    nz: usize,
    nzh: usize,
    plan_x: Fft1d,
    plan_y: Fft1d,
    plan_z: Fft1d,
    pool: BufPool,
}

impl Clone for RealFft3 {
    fn clone(&self) -> Self {
        RealFft3 {
            nx: self.nx,
            ny: self.ny,
            nz: self.nz,
            nzh: self.nzh,
            plan_x: self.plan_x.clone(),
            plan_y: self.plan_y.clone(),
            plan_z: self.plan_z.clone(),
            pool: BufPool::new(),
        }
    }
}

impl RealFft3 {
    /// Plan for a cubic `n³` grid.
    #[must_use] 
    pub fn new_cubic(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Plan for a general `nx × ny × nz` grid.
    #[must_use] 
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0);
        RealFft3 {
            nx,
            ny,
            nz,
            nzh: nz / 2 + 1,
            plan_x: Fft1d::new(nx),
            plan_y: Fft1d::new(ny),
            plan_z: Fft1d::new(nz),
            pool: BufPool::new(),
        }
    }

    /// Real-space dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Retained z bins of the half-spectrum, `nz/2 + 1`.
    pub fn nzh(&self) -> usize {
        self.nzh
    }

    /// Number of real grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True only for a degenerate empty grid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of retained spectral coefficients, `nx·ny·nzh`.
    pub fn spectrum_len(&self) -> usize {
        self.nx * self.ny * self.nzh
    }

    /// Unnormalized forward r2c transform: `input` (real layout, length
    /// [`RealFft3::len`]) is preserved; the half-spectrum is written to
    /// `spec` (length [`RealFft3::spectrum_len`]).
    pub fn forward(&self, input: &[f64], spec: &mut [Complex64]) {
        assert_eq!(input.len(), self.len(), "real grid size mismatch");
        assert_eq!(spec.len(), self.spectrum_len(), "spectrum size mismatch");
        pass_r2c(&self.plan_z, input, spec, &self.pool);
        pass_columns(&self.plan_y, spec, self.nzh, false, &self.pool);
        pass_columns(&self.plan_x, spec, self.ny * self.nzh, false, &self.pool);
    }

    /// Normalized backward c2r transform (divides by `nx·ny·nz`): the
    /// half-spectrum in `spec` is consumed (clobbered in place) and the
    /// real field written to `out`.
    ///
    /// Bins whose implied mirror is stored (z index 0 and, for even `nz`,
    /// the Nyquist plane) are treated as self-conjugate: only the values
    /// present in `spec` contribute, exactly as if the full Hermitian
    /// spectrum had been synthesized.
    pub fn backward(&self, spec: &mut [Complex64], out: &mut [f64]) {
        assert_eq!(spec.len(), self.spectrum_len(), "spectrum size mismatch");
        assert_eq!(out.len(), self.len(), "real grid size mismatch");
        // Unnormalized inverse x and y passes on the half-spectrum, then
        // the z pass with the single global normalization.
        pass_columns(&self.plan_x, spec, self.ny * self.nzh, true, &self.pool);
        pass_columns(&self.plan_y, spec, self.nzh, true, &self.pool);
        pass_c2r(&self.plan_z, spec, out, 1.0 / self.len() as f64, &self.pool);
    }
}

/// The r2c z pass: real lines of `input`, each `plan.len()` long, into
/// half-spectrum rows of `spec`, `plan.len()/2 + 1` long. Bundles of up
/// to 2·[`BATCH`] real lines pack into ≤ [`BATCH`] complex lanes per
/// kernel call (an odd remainder line rides along as its own lane).
pub(crate) fn pass_r2c(plan: &Fft1d, input: &[f64], spec: &mut [Complex64], pool: &BufPool) {
    let (nz, nzh) = (plan.len(), plan.len() / 2 + 1);
    input
        .par_chunks(2 * BATCH * nz)
        .zip(spec.par_chunks_mut(2 * BATCH * nzh))
        .for_each_init(
            || (pool.lease(BATCH * nz), pool.lease(plan.scratch_len_batch(BATCH))),
            |(zbuf, scratch), (src, dst)| r2c_lines(plan, src, dst, zbuf, scratch),
        );
}

/// The c2r z pass, inverse of [`pass_r2c`]: half-spectrum rows of `spec`
/// into real lines of `out`, scaled by `inv`.
pub(crate) fn pass_c2r(plan: &Fft1d, spec: &[Complex64], out: &mut [f64], inv: f64, pool: &BufPool) {
    let (nz, nzh) = (plan.len(), plan.len() / 2 + 1);
    spec.par_chunks(2 * BATCH * nzh)
        .zip(out.par_chunks_mut(2 * BATCH * nz))
        .for_each_init(
            || (pool.lease(BATCH * nz), pool.lease(plan.scratch_len_batch(BATCH))),
            |(zbuf, scratch), (src, dst)| c2r_lines(plan, src, dst, inv, zbuf, scratch),
        );
}

/// Forward-transform a bundle of real z lines into half-spectrum rows.
/// `src` holds `L = src.len()/nz ≤ 2·BATCH` lines: consecutive pairs
/// pack as `a + i·b` complex lanes (an odd trailing line becomes its own
/// `a + i·0` lane), the whole bundle runs through **one** batched
/// transform, and each lane untangles into its spectrum row(s).
fn r2c_lines(
    plan_z: &Fft1d,
    src: &[f64],
    dst: &mut [Complex64],
    zbuf: &mut [Complex64],
    scratch: &mut [Complex64],
) {
    let (nz, nzh) = (plan_z.len(), plan_z.len() / 2 + 1);
    debug_assert!(src.len().is_multiple_of(nz));
    let lines = src.len() / nz;
    let pairs = lines / 2;
    let b = pairs + lines % 2;
    debug_assert!((1..=BATCH).contains(&b));
    let zbuf = &mut zbuf[..nz * b];
    // Pack: lane bi < pairs carries lines (2bi, 2bi+1) as a + i·b; a
    // trailing odd line rides as lane `pairs` with zero imaginary part.
    for bi in 0..pairs {
        let a = &src[2 * bi * nz..(2 * bi + 1) * nz];
        let bl = &src[(2 * bi + 1) * nz..(2 * bi + 2) * nz];
        for j in 0..nz {
            zbuf[j * b + bi] = Complex64::new(a[j], bl[j]);
        }
    }
    if lines % 2 == 1 {
        let a = &src[(lines - 1) * nz..];
        for j in 0..nz {
            zbuf[j * b + pairs] = Complex64::new(a[j], 0.0);
        }
    }
    plan_z.transform_batch(zbuf, b, scratch, false);
    // Untangle each packed lane into its two spectrum rows.
    for bi in 0..pairs {
        let (da, db) = dst[2 * bi * nzh..(2 * bi + 2) * nzh].split_at_mut(nzh);
        for k in 0..nzh {
            let zk = zbuf[k * b + bi];
            let zm = zbuf[((nz - k) % nz) * b + bi];
            da[k] = Complex64::new(0.5 * (zk.re + zm.re), 0.5 * (zk.im - zm.im));
            db[k] = Complex64::new(0.5 * (zk.im + zm.im), 0.5 * (zm.re - zk.re));
        }
    }
    if lines % 2 == 1 {
        let d = &mut dst[(lines - 1) * nzh..];
        for k in 0..nzh {
            d[k] = zbuf[k * b + pairs];
        }
    }
}

/// Inverse of [`r2c_lines`]: synthesize full conjugate-symmetric z lanes
/// from half-spectrum rows, inverse-transform the bundle in one batched
/// call, and write the real output scaled by `inv`.
fn c2r_lines(
    plan_z: &Fft1d,
    src: &[Complex64],
    dst: &mut [f64],
    inv: f64,
    zbuf: &mut [Complex64],
    scratch: &mut [Complex64],
) {
    let (nz, nzh) = (plan_z.len(), plan_z.len() / 2 + 1);
    debug_assert!(dst.len().is_multiple_of(nz));
    let lines = dst.len() / nz;
    let pairs = lines / 2;
    let b = pairs + lines % 2;
    debug_assert!((1..=BATCH).contains(&b));
    let zbuf = &mut zbuf[..nz * b];
    for bi in 0..pairs {
        let (a, bl) = src[2 * bi * nzh..(2 * bi + 2) * nzh].split_at(nzh);
        for k in 0..nzh {
            // A + i·B.
            zbuf[k * b + bi] = Complex64::new(a[k].re - bl[k].im, a[k].im + bl[k].re);
        }
        for k in nzh..nz {
            // conj(A[nz-k]) + i·conj(B[nz-k]).
            let am = a[nz - k];
            let bm = bl[nz - k];
            zbuf[k * b + bi] = Complex64::new(am.re + bm.im, bm.re - am.im);
        }
    }
    if lines % 2 == 1 {
        let s = &src[(lines - 1) * nzh..];
        for k in 0..nzh {
            zbuf[k * b + pairs] = s[k];
        }
        for k in nzh..nz {
            zbuf[k * b + pairs] = s[nz - k].conj();
        }
    }
    plan_z.transform_batch(zbuf, b, scratch, true);
    for bi in 0..pairs {
        let (da, db) = dst[2 * bi * nz..(2 * bi + 2) * nz].split_at_mut(nz);
        for j in 0..nz {
            let z = zbuf[j * b + bi];
            da[j] = z.re * inv;
            db[j] = z.im * inv;
        }
    }
    if lines % 2 == 1 {
        let d = &mut dst[(lines - 1) * nz..];
        for j in 0..nz {
            d[j] = zbuf[j * b + pairs].re * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim3::Fft3;

    fn rand_real(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        (0..len).map(|_| next()).collect()
    }

    /// Full c2c spectrum of a real field, for cross-checking.
    fn c2c_spectrum(field: &[f64], nx: usize, ny: usize, nz: usize) -> Vec<Complex64> {
        let mut data: Vec<Complex64> =
            field.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        Fft3::new(nx, ny, nz).forward(&mut data);
        data
    }

    #[test]
    fn half_spectrum_matches_c2c() {
        for (nx, ny, nz) in [(4, 4, 4), (6, 5, 7), (3, 8, 9), (5, 5, 5), (2, 2, 2)] {
            let field = rand_real(nx * ny * nz, 42 + (nx * ny * nz) as u64);
            let want = c2c_spectrum(&field, nx, ny, nz);
            let plan = RealFft3::new(nx, ny, nz);
            let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
            plan.forward(&field, &mut spec);
            let nzh = plan.nzh();
            let mut err: f64 = 0.0;
            for ix in 0..nx {
                for iy in 0..ny {
                    for iz in 0..nzh {
                        let got = spec[(ix * ny + iy) * nzh + iz];
                        let w = want[(ix * ny + iy) * nz + iz];
                        err = err.max((got - w).abs());
                    }
                }
            }
            assert!(err < 1e-10, "dims {nx}x{ny}x{nz}: err {err}");
        }
    }

    #[test]
    fn roundtrip_identity_including_non_pow2() {
        for (nx, ny, nz) in [(8, 8, 8), (6, 10, 15), (7, 7, 7), (12, 9, 5), (2, 3, 2)] {
            let field = rand_real(nx * ny * nz, 7 + nz as u64);
            let plan = RealFft3::new(nx, ny, nz);
            let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
            plan.forward(&field, &mut spec);
            let mut back = vec![0.0f64; plan.len()];
            plan.backward(&mut spec, &mut back);
            let err = field
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-12, "dims {nx}x{ny}x{nz}: err {err}");
        }
    }

    #[test]
    fn repeated_transforms_reuse_pool() {
        let plan = RealFft3::new_cubic(8);
        let field = rand_real(512, 3);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        let mut out = vec![0.0f64; plan.len()];
        plan.forward(&field, &mut spec);
        plan.backward(&mut spec, &mut out);
        let idle = plan.pool.idle();
        assert!(idle > 0);
        for _ in 0..3 {
            plan.forward(&field, &mut spec);
            plan.backward(&mut spec, &mut out);
        }
        // Steady state: the pool neither grows nor shrinks.
        assert_eq!(plan.pool.idle(), idle);
    }

    #[test]
    fn dc_bin_is_sum_and_real() {
        let (nx, ny, nz) = (4, 3, 5);
        let field = rand_real(nx * ny * nz, 11);
        let plan = RealFft3::new(nx, ny, nz);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&field, &mut spec);
        let sum: f64 = field.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-10);
        assert!(spec[0].im.abs() < 1e-10);
    }
}
