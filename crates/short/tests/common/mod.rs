//! The independent force oracle the short-range tests share: an f64
//! O(N²) sum over every pair inside the cutoff, written from the kernel's
//! definition (`ForceKernel::{coeffs, eps, rcut2}`) with no tree, chunk
//! or SIMD code. Unit masses.

use hacc_short::ForceKernel;

/// Particle coordinates, one column per axis.
pub type Cloud = [Vec<f32>; 3];

/// f64 brute force over all pairs with `0 < s < r_cut²`; also returns the
/// number of unordered pairs inside the cutoff.
pub fn oracle(k: &ForceKernel, c: &Cloud) -> ([Vec<f64>; 3], u64) {
    let np = c[0].len();
    let mut f = [vec![0.0f64; np], vec![0.0f64; np], vec![0.0f64; np]];
    let mut in_range = 0u64;
    for t in 0..np {
        for q in t + 1..np {
            let d: [f64; 3] = std::array::from_fn(|a| f64::from(c[a][q]) - f64::from(c[a][t]));
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
                f[a][t] += d[a] * g;
                f[a][q] -= d[a] * g;
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
