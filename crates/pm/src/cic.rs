//! Cloud-In-Cell (CIC) deposit and interpolation on a periodic cubic grid.
//!
//! Positions are single precision (the paper's mixed-precision choice:
//! particles in f32, spectral arithmetic in f64); the density grid is f64.
//! Positions are in *grid units* — `[0, n)` per axis — callers convert from
//! physical coordinates by `n/L`.
//!
//! These are the periodic references: the engine runs the slab deposit
//! and fused gather of `hacc-core`, which the references pin in tests,
//! and the benchmark probes and analysis tools call these directly.

use rayon::prelude::*;

/// Weights and base cell for one particle's CIC cloud.
#[inline]
fn cic_cell(x: f32, n: usize) -> (usize, f64) {
    // Periodic wrap into [0, n).
    let nf = n as f64;
    let mut xf = f64::from(x) % nf;
    if xf < 0.0 {
        xf += nf;
    }
    // Guard the x == n edge case after rounding.
    if xf >= nf {
        xf -= nf;
    }
    let i = xf.floor() as usize;
    (i.min(n - 1), xf - i as f64)
}

/// Deposit particles with `mass` each onto the `n³` grid (adds to `grid`).
///
/// `grid[(ix·n + iy)·n + iz]` accumulates mass in cell units (divide by
/// the mean to get `1 + δ`).
pub fn deposit_cic(grid: &mut [f64], n: usize, xs: &[f32], ys: &[f32], zs: &[f32], mass: f64) {
    assert_eq!(grid.len(), n * n * n);
    assert!(xs.len() == ys.len() && ys.len() == zs.len());
    for ((&x, &y), &z) in xs.iter().zip(ys).zip(zs) {
        let (i, dx) = cic_cell(x, n);
        let (j, dy) = cic_cell(y, n);
        let (k, dz) = cic_cell(z, n);
        let i1 = (i + 1) % n;
        let j1 = (j + 1) % n;
        let k1 = (k + 1) % n;
        let (tx, ty, tz) = (1.0 - dx, 1.0 - dy, 1.0 - dz);
        grid[(i * n + j) * n + k] += mass * tx * ty * tz;
        grid[(i * n + j) * n + k1] += mass * tx * ty * dz;
        grid[(i * n + j1) * n + k] += mass * tx * dy * tz;
        grid[(i * n + j1) * n + k1] += mass * tx * dy * dz;
        grid[(i1 * n + j) * n + k] += mass * dx * ty * tz;
        grid[(i1 * n + j) * n + k1] += mass * dx * ty * dz;
        grid[(i1 * n + j1) * n + k] += mass * dx * dy * tz;
        grid[(i1 * n + j1) * n + k1] += mass * dx * dy * dz;
    }
}

/// Triangular-Shaped-Cloud (TSC) deposit — the "complex and inflexible
/// higher-order spatial particle deposition" alternative the paper's
/// spectral filter makes unnecessary (Section II). Provided so the
/// ablation experiments can quantify that claim: TSC spreads each
/// particle over 27 cells with quadratic weights.
pub fn deposit_tsc(grid: &mut [f64], n: usize, xs: &[f32], ys: &[f32], zs: &[f32], mass: f64) {
    assert_eq!(grid.len(), n * n * n);
    assert!(xs.len() == ys.len() && ys.len() == zs.len());
    // Per-axis: center cell c = floor(x+1/2) (nearest), offset d = x - c,
    // weights (1/2)(1/2-d)², 3/4-d², (1/2)(1/2+d)².
    let axis = |x: f32| -> (usize, [f64; 3]) {
        let nf = n as f64;
        let mut xf = f64::from(x) % nf;
        if xf < 0.0 {
            xf += nf;
        }
        if xf >= nf {
            xf -= nf;
        }
        let c = (xf + 0.5).floor();
        let d = xf - c;
        let cu = (c as usize) % n;
        (
            cu,
            [
                0.5 * (0.5 - d) * (0.5 - d),
                0.75 - d * d,
                0.5 * (0.5 + d) * (0.5 + d),
            ],
        )
    };
    for ((&x, &y), &z) in xs.iter().zip(ys).zip(zs) {
        let (ci, wi) = axis(x);
        let (cj, wj) = axis(y);
        let (ck, wk) = axis(z);
        for (oi, &wx) in wi.iter().enumerate() {
            let i = (ci + n + oi - 1) % n;
            for (oj, &wy) in wj.iter().enumerate() {
                let j = (cj + n + oj - 1) % n;
                for (ok, &wz) in wk.iter().enumerate() {
                    let k = (ck + n + ok - 1) % n;
                    grid[(i * n + j) * n + k] += mass * wx * wy * wz;
                }
            }
        }
    }
}

/// Interpolate a grid field at particle positions (inverse CIC gather).
#[must_use]
pub fn interpolate_cic(grid: &[f64], n: usize, xs: &[f32], ys: &[f32], zs: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    interpolate_cic_into(grid, n, xs, ys, zs, &mut out);
    out
}

/// [`interpolate_cic`] into a caller-owned buffer (resized as needed; no
/// allocation once warm).
pub fn interpolate_cic_into(
    grid: &[f64],
    n: usize,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    out: &mut Vec<f32>,
) {
    assert_eq!(grid.len(), n * n * n);
    out.resize(xs.len(), 0.0);
    out.par_iter_mut()
        .zip(xs.par_iter())
        .zip(ys.par_iter())
        .zip(zs.par_iter())
        .for_each(|(((o, &x), &y), &z)| {
            let (i, dx) = cic_cell(x, n);
            let (j, dy) = cic_cell(y, n);
            let (k, dz) = cic_cell(z, n);
            let i1 = (i + 1) % n;
            let j1 = (j + 1) % n;
            let k1 = (k + 1) % n;
            let (tx, ty, tz) = (1.0 - dx, 1.0 - dy, 1.0 - dz);
            *o = (grid[(i * n + j) * n + k] * tx * ty * tz
                + grid[(i * n + j) * n + k1] * tx * ty * dz
                + grid[(i * n + j1) * n + k] * tx * dy * tz
                + grid[(i * n + j1) * n + k1] * tx * dy * dz
                + grid[(i1 * n + j) * n + k] * dx * ty * tz
                + grid[(i1 * n + j) * n + k1] * dx * ty * dz
                + grid[(i1 * n + j1) * n + k] * dx * dy * tz
                + grid[(i1 * n + j1) * n + k1] * dx * dy * dz) as f32;
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_positions(count: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * n as f64
        };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        for _ in 0..count {
            xs.push(next() as f32);
            ys.push(next() as f32);
            zs.push(next() as f32);
        }
        (xs, ys, zs)
    }

    #[test]
    fn deposit_conserves_mass() {
        let n = 8;
        let (xs, ys, zs) = rand_positions(500, n, 3);
        let mut grid = vec![0.0; n * n * n];
        deposit_cic(&mut grid, n, &xs, &ys, &zs, 2.5);
        let total: f64 = grid.iter().sum();
        assert!((total - 500.0 * 2.5).abs() < 1e-9);
    }

    #[test]
    #[allow(clippy::identity_op)] // (ix*n + iy)*n + iz with ix = 1
    fn particle_at_cell_center_fills_one_cell() {
        let n = 4;
        let mut grid = vec![0.0; n * n * n];
        deposit_cic(&mut grid, n, &[1.0], &[2.0], &[3.0], 1.0);
        assert!((grid[(1 * n + 2) * n + 3] - 1.0).abs() < 1e-12);
        assert_eq!(grid.iter().filter(|&&v| v != 0.0).count(), 1);
    }

    #[test]
    #[allow(clippy::identity_op)] // (ix*n + iy)*n + iz with ix = 1
    fn half_cell_offset_splits_evenly() {
        let n = 4;
        let mut grid = vec![0.0; n * n * n];
        deposit_cic(&mut grid, n, &[1.5], &[2.0], &[3.0], 1.0);
        assert!((grid[(1 * n + 2) * n + 3] - 0.5).abs() < 1e-12);
        assert!((grid[(2 * n + 2) * n + 3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn periodic_wrap_deposits() {
        let n = 4;
        let mut grid = vec![0.0; n * n * n];
        // At x = 3.5, half goes to cell 3, half wraps to cell 0.
        deposit_cic(&mut grid, n, &[3.5], &[0.0], &[0.0], 1.0);
        assert!((grid[3 * n * n] - 0.5).abs() < 1e-12);
        assert!((grid[0] - 0.5).abs() < 1e-12);
        // Negative positions wrap too.
        let mut g2 = vec![0.0; n * n * n];
        deposit_cic(&mut g2, n, &[-0.5], &[0.0], &[0.0], 1.0);
        assert!((g2[3 * n * n] - 0.5).abs() < 1e-12, "{}", g2[3 * n * n]);
        assert!((g2[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn interpolation_is_adjoint_partition_of_unity() {
        // Interpolating a constant field returns the constant exactly.
        let n = 6;
        let grid = vec![3.25; n * n * n];
        let (xs, ys, zs) = rand_positions(100, n, 5);
        let vals = interpolate_cic(&grid, n, &xs, &ys, &zs);
        for v in vals {
            assert!((v - 3.25).abs() < 1e-5);
        }
    }

    #[test]
    fn interpolation_linear_field_exact() {
        // CIC reproduces linear variation exactly between cell centers.
        let n = 8;
        let mut grid = vec![0.0; n * n * n];
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    grid[(ix * n + iy) * n + iz] = iz as f64;
                }
            }
        }
        let vals = interpolate_cic(&grid, n, &[2.0, 2.0], &[3.0, 3.0], &[2.25, 4.75]);
        assert!((vals[0] - 2.25).abs() < 1e-5);
        assert!((vals[1] - 4.75).abs() < 1e-5);
    }

    #[test]
    fn tsc_conserves_mass() {
        let n = 8;
        let (xs, ys, zs) = rand_positions(400, n, 9);
        let mut grid = vec![0.0; n * n * n];
        deposit_tsc(&mut grid, n, &xs, &ys, &zs, 1.5);
        let total: f64 = grid.iter().sum();
        assert!((total - 600.0).abs() < 1e-8, "total {total}");
        assert!(grid.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn tsc_centered_particle_weights() {
        // Particle exactly at a cell center: weights (1/8? no —) per axis
        // are [1/8? ...] → center weight (3/4)³ and faces (1/2·1/4)·…
        let n = 5;
        let mut grid = vec![0.0; n * n * n];
        deposit_tsc(&mut grid, n, &[2.5], &[2.5], &[2.5], 1.0);
        // x = 2.5 ⇒ c = 3? floor(3.0) = 3, d = -0.5: weights (1/2, 1/2, 0)
        // — i.e. exactly between cells 2 and 3, like CIC at a boundary.
        let w: f64 = grid.iter().sum();
        assert!((w - 1.0).abs() < 1e-12);
        // Centered in the cell (x = 2.0): c = 2, d = 0 → weights
        // (1/8, 3/4, 1/8) per axis; center cell gets (3/4)³.
        let mut g2 = vec![0.0; n * n * n];
        deposit_tsc(&mut g2, n, &[2.0], &[2.0], &[2.0], 1.0);
        let center = g2[(2 * n + 2) * n + 2];
        assert!((center - 0.75f64.powi(3)).abs() < 1e-12, "center {center}");
    }

    #[test]
    fn tsc_periodic_wrap() {
        let n = 4;
        let mut grid = vec![0.0; n * n * n];
        deposit_tsc(&mut grid, n, &[0.0], &[0.0], &[0.0], 1.0);
        let total: f64 = grid.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "wrap lost mass: {total}");
        // Mass is shared across the x = 0 seam: plane n-1 gets some.
        let plane_last: f64 = grid[(n - 1) * n * n..].iter().sum();
        assert!(plane_last > 0.0);
    }

    #[test]
    fn tsc_smoother_than_cic() {
        // A particle mid-cell: TSC spreads over 27 cells, CIC over 8.
        let n = 6;
        let mut cic = vec![0.0; n * n * n];
        deposit_cic(&mut cic, n, &[2.3], &[3.1], &[1.7], 1.0);
        let mut tsc = vec![0.0; n * n * n];
        deposit_tsc(&mut tsc, n, &[2.3], &[3.1], &[1.7], 1.0);
        let nz = |g: &[f64]| g.iter().filter(|&&v| v > 1e-14).count();
        assert!(nz(&tsc) > nz(&cic));
        // And its maximum cell weight is lower.
        let mx = |g: &[f64]| g.iter().copied().fold(0.0, f64::max);
        assert!(mx(&tsc) < mx(&cic));
    }

    #[test]
    fn deposit_then_interpolate_roundtrip_at_centers() {
        // A particle exactly at a cell center sees exactly its own cloud.
        let n = 5;
        let mut grid = vec![0.0; n * n * n];
        deposit_cic(&mut grid, n, &[2.0], &[2.0], &[2.0], 1.0);
        let v = interpolate_cic(&grid, n, &[2.0], &[2.0], &[2.0]);
        assert!((v[0] - 1.0).abs() < 1e-6);
    }
}
