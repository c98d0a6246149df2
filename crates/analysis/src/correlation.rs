//! Two-point correlation function ξ(r).
//!
//! The configuration-space partner of the power spectrum: the other
//! "statistical measurement of the matter distribution" Section V lists
//! among the cosmological probes (galaxy correlation functions). For a
//! periodic box the natural estimator needs no random catalog:
//!
//! `ξ(r) = DD(r) / (N·n̄·dV(r)) − 1`,
//!
//! where `DD(r)` counts ordered pairs in the shell of volume `dV(r)` and
//! `n̄ = N/V`. Pair counting uses a chaining mesh, so the cost is
//! `O(N · n̄ · r_max³)`.

use rayon::prelude::*;

/// A binned correlation-function measurement.
#[derive(Debug, Clone)]
pub struct CorrelationFunction {
    /// Bin-center separations.
    pub r: Vec<f64>,
    /// ξ(r) per bin.
    pub xi: Vec<f64>,
    /// Ordered pair counts per bin.
    pub pairs: Vec<u64>,
}

impl CorrelationFunction {
    /// Measure ξ(r) for separations in `(0, r_max]` with `bins` linear
    /// shells, on a periodic box of side `box_len`.
    #[must_use] 
    pub fn measure(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        box_len: f64,
        r_max: f64,
        bins: usize,
    ) -> Self {
        let np = xs.len();
        assert!(np > 1 && bins >= 1 && r_max > 0.0 && r_max <= box_len / 2.0);
        let nc = ((box_len / r_max).floor() as usize).clamp(1, 128);
        let cell_of = |x: f32, y: f32, z: f32| -> usize {
            let w = |v: f32| -> usize {
                let m = nc as f64;
                let c = ((crate::in_box(f64::from(v), box_len) / box_len) * m).floor();
                let c = if c < 0.0 { c + m } else { c };
                (c as usize).min(nc - 1)
            };
            (w(x) * nc + w(y)) * nc + w(z)
        };
        let mut bins_idx: Vec<Vec<u32>> = vec![Vec::new(); nc * nc * nc];
        for p in 0..np {
            bins_idx[cell_of(xs[p], ys[p], zs[p])].push(p as u32);
        }
        let half = (box_len / 2.0) as f32;
        let lf = box_len as f32;
        let r_max2 = (r_max * r_max) as f32;
        let dr = r_max / bins as f64;

        // Parallel over cells; count ordered pairs (i ≠ j) to keep the
        // normalization simple.
        let counts: Vec<u64> = (0..bins_idx.len())
            .into_par_iter()
            .map(|cell| {
                let mut local = vec![0u64; bins];
                let targets = &bins_idx[cell];
                if targets.is_empty() {
                    return local;
                }
                let cz = cell % nc;
                let cy = (cell / nc) % nc;
                let cx = cell / (nc * nc);
                let mut seen = Vec::with_capacity(27);
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            let w = |c: usize, d: i64| -> usize {
                                ((c as i64 + d).rem_euclid(nc as i64)) as usize
                            };
                            let nb = (w(cx, dx) * nc + w(cy, dy)) * nc + w(cz, dz);
                            if seen.contains(&nb) {
                                continue;
                            }
                            seen.push(nb);
                            for &a in targets {
                                for &b in &bins_idx[nb] {
                                    if a == b {
                                        continue;
                                    }
                                    let (a, b) = (a as usize, b as usize);
                                    let mi = |d: f32| -> f32 {
                                        if d > half {
                                            d - lf
                                        } else if d < -half {
                                            d + lf
                                        } else {
                                            d
                                        }
                                    };
                                    let ddx = mi(xs[a] - xs[b]);
                                    let ddy = mi(ys[a] - ys[b]);
                                    let ddz = mi(zs[a] - zs[b]);
                                    let s = ddx * ddx + ddy * ddy + ddz * ddz;
                                    if s < r_max2 && s > 0.0 {
                                        let r = f64::from(s).sqrt();
                                        let bin = ((r / dr) as usize).min(bins - 1);
                                        local[bin] += 1;
                                    }
                                }
                            }
                        }
                    }
                }
                local
            })
            .reduce(
                || vec![0u64; bins],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                },
            );

        let volume = box_len.powi(3);
        let nbar = np as f64 / volume;
        let mut out = CorrelationFunction {
            r: Vec::with_capacity(bins),
            xi: Vec::with_capacity(bins),
            pairs: counts.clone(),
        };
        for (b, &n_pairs) in counts.iter().enumerate() {
            let r0 = b as f64 * dr;
            let r1 = (b + 1) as f64 * dr;
            let shell = 4.0 / 3.0 * std::f64::consts::PI * (r1.powi(3) - r0.powi(3));
            let expected = np as f64 * nbar * shell;
            out.r.push(0.5 * (r0 + r1));
            out.xi.push(n_pairs as f64 / expected - 1.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_points(np: usize, l: f32, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 * l
        };
        let xs: Vec<f32> = (0..np).map(|_| next()).collect();
        let ys: Vec<f32> = (0..np).map(|_| next()).collect();
        let zs: Vec<f32> = (0..np).map(|_| next()).collect();
        (xs, ys, zs)
    }

    #[test]
    fn poisson_points_uncorrelated() {
        let (xs, ys, zs) = poisson_points(8000, 64.0, 3);
        let xi = CorrelationFunction::measure(&xs, &ys, &zs, 64.0, 8.0, 6);
        for (r, x) in xi.r.iter().zip(&xi.xi) {
            assert!(x.abs() < 0.15, "ξ({r}) = {x} for random points");
        }
    }

    #[test]
    fn pair_clumps_correlate_at_their_separation() {
        // Particles in tight pairs separated by ~3: ξ spikes in that bin.
        let mut s = 17u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32
        };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        for _ in 0..1000 {
            let (x, y, z) = (next() * 64.0, next() * 64.0, next() * 64.0);
            xs.push(x);
            ys.push(y);
            zs.push(z);
            xs.push((x + 3.0) % 64.0);
            ys.push(y);
            zs.push(z);
        }
        let xi = CorrelationFunction::measure(&xs, &ys, &zs, 64.0, 5.0, 10);
        // Pairs at exactly r = 3 land in bin [3.0, 3.5) — index 6.
        let spike = xi.xi[6];
        assert!(spike > 1.0, "expected spike at r=3, got ξ = {spike}");
        // Neighboring-but-distant bin much lower.
        assert!(xi.xi[9] < spike / 3.0, "far bin {} vs spike {spike}", xi.xi[9]);
    }

    #[test]
    fn pair_counts_symmetric_total() {
        // Ordered pair counts must be even (each unordered pair twice).
        let (xs, ys, zs) = poisson_points(500, 32.0, 7);
        let xi = CorrelationFunction::measure(&xs, &ys, &zs, 32.0, 5.0, 5);
        let total: u64 = xi.pairs.iter().sum();
        assert_eq!(total % 2, 0);
        assert!(total > 0);
    }

    #[test]
    #[should_panic(expected = "r_max")]
    fn oversized_rmax_rejected() {
        let (xs, ys, zs) = poisson_points(10, 10.0, 1);
        let _ = CorrelationFunction::measure(&xs, &ys, &zs, 10.0, 8.0, 4);
    }
}
