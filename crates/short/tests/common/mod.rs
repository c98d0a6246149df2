//! The independent force oracle the short-range tests share: an f64
//! O(N²) sum over every pair inside the cutoff, minimum image on periodic
//! axes, written from the kernel's definition (`ForceKernel::{coeffs,
//! eps, rcut2}`) with no tree, chunk or SIMD code. Unit masses.

// Each test file compiles its own copy and uses a subset.
#![allow(dead_code)]

use hacc_short::ForceKernel;

/// Particle coordinates, one column per axis.
pub type Cloud = [Vec<f32>; 3];

/// f64 brute force over all pairs with `0 < s < r_cut²`; also returns the
/// number of unordered pairs inside the cutoff.
pub fn oracle(k: &ForceKernel, c: &Cloud) -> ([Vec<f64>; 3], u64) {
    let all: Vec<usize> = (0..c[0].len()).collect();
    let (f, directed) = oracle_at(k, c, [0.0; 3], &all);
    (f, directed / 2)
}

/// f64 brute force on each particle of `targets` from every particle
/// with `0 < s < r_cut²`, taking the minimum image along every axis with
/// a nonzero period; also returns the number of (target, source) pairs
/// inside the cutoff. Forces are indexed like `targets`.
pub fn oracle_at(
    k: &ForceKernel,
    c: &Cloud,
    periods: [f64; 3],
    targets: &[usize],
) -> ([Vec<f64>; 3], u64) {
    let nt = targets.len();
    let mut f = [vec![0.0f64; nt], vec![0.0f64; nt], vec![0.0f64; nt]];
    let mut in_range = 0u64;
    for (i, &t) in targets.iter().enumerate() {
        for q in 0..c[0].len() {
            let d: [f64; 3] = std::array::from_fn(|a| {
                let d = f64::from(c[a][q]) - f64::from(c[a][t]);
                let p = periods[a];
                if p > 0.0 {
                    d - p * (d / p).round()
                } else {
                    d
                }
            });
            let s = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if s <= 0.0 || s >= f64::from(k.rcut2) {
                continue;
            }
            in_range += 1;
            let poly = k
                .coeffs
                .iter()
                .rev()
                .fold(0.0, |p, &co| p * s + f64::from(co));
            let g = (s + f64::from(k.eps)).powf(-1.5) - poly;
            for a in 0..3 {
                f[a][i] += d[a] * g;
            }
        }
    }
    (f, in_range)
}

/// Largest force error relative to the largest force component (a
/// pointwise relative error explodes where the true force passes
/// through zero).
pub fn max_rel_err<T: Copy + Into<f64>>(want: &[Vec<T>; 3], got: &[Vec<f32>; 3]) -> f64 {
    let scale = want
        .iter()
        .flatten()
        .fold(1e-12, |m: f64, &v| m.max(Into::<f64>::into(v).abs()));
    want.iter()
        .flatten()
        .zip(got.iter().flatten())
        .fold(0.0, |m: f64, (&w, g)| {
            m.max((w.into() - f64::from(*g)).abs() / scale)
        })
}
