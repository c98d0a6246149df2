//! Plan-based 1-D complex FFT.
//!
//! Mixed-radix recursive Cooley–Tukey over the full factorization of `N`
//! (any factors; small primes handled by a generic butterfly, large primes
//! by Bluestein's chirp-z algorithm so prime sizes stay O(N log N)).
//! The paper's pencil FFT is explicitly *non-power-of-two* capable — grid
//! sizes like 6400³ and 9216³ in Table I factor as 2^a·3^b·5^c — so the
//! mixed-radix path is exercised by the Table I reproduction.

use crate::complex::Complex64;
use crate::kernels::{StockhamPlan, MAX_BATCH};

/// Direction of a transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Backward,
}

/// A reusable 1-D FFT plan for a fixed length.
///
/// Plans are immutable after construction and safe to share across threads;
/// callers supply per-thread scratch via [`Fft1d::make_scratch`].
#[derive(Debug, Clone)]
pub struct Fft1d {
    n: usize,
    /// Factorization of `n`, smallest factors first.
    factors: Vec<usize>,
    /// Forward twiddles `exp(-2πi j/n)` for `j in 0..n`.
    twiddles: Vec<Complex64>,
    /// Bluestein machinery for lengths with a prime factor > 31.
    bluestein: Option<Box<Bluestein>>,
    /// Iterative SIMD stage schedule for `n = 2^a·3^b·5^c` (the hot
    /// path); `None` falls back to the recursive reference.
    stockham: Option<StockhamPlan>,
}

/// Precomputed state for Bluestein's algorithm.
#[derive(Debug, Clone)]
struct Bluestein {
    /// Chirp `c[j] = exp(-iπ j²/n)`.
    chirp: Vec<Complex64>,
    /// FFT (size m) of the symmetric extension of `conj(chirp)`.
    b_hat: Vec<Complex64>,
    /// Inner power-of-two plan of size `m ≥ 2n-1`.
    inner: Fft1d,
}

impl Fft1d {
    /// Plan a transform of length `n` (> 0).
    #[must_use] 
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let factors = factorize(n);
        let needs_bluestein = factors.iter().any(|&f| f > 31);
        let twiddles = (0..n)
            .map(|j| Complex64::cis(-2.0 * std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        let bluestein = if needs_bluestein {
            Some(Box::new(Bluestein::new(n)))
        } else {
            None
        };
        Fft1d {
            n,
            factors,
            twiddles,
            bluestein,
            stockham: StockhamPlan::try_new(n),
        }
    }

    /// Maximum `batch` accepted by [`Fft1d::transform_batch`].
    pub const MAX_BATCH: usize = MAX_BATCH;

    /// Transform length.
    #[must_use] 
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-1 plan.
    #[must_use] 
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Allocate a scratch buffer suitable for [`Fft1d::forward`] /
    /// [`Fft1d::backward`] calls on this plan.
    #[must_use] 
    pub fn make_scratch(&self) -> Vec<Complex64> {
        vec![Complex64::ZERO; self.scratch_len()]
    }

    /// Required scratch length for this plan (lets callers lease from a
    /// [`crate::scratch::BufPool`] instead of allocating).
    #[must_use] 
    pub fn scratch_len(&self) -> usize {
        let inner = self
            .bluestein
            .as_ref()
            .map(|b| 3 * b.inner.n)
            .unwrap_or(0);
        self.n.max(inner)
    }

    /// Unnormalized forward transform, in place.
    pub fn forward(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        self.process(data, scratch, Direction::Forward);
    }

    /// Normalized inverse transform (divides by `n`), in place.
    pub fn backward(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        self.process(data, scratch, Direction::Backward);
        let inv = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }

    fn process(&self, data: &mut [Complex64], scratch: &mut [Complex64], dir: Direction) {
        assert_eq!(data.len(), self.n, "data length != plan length");
        if self.n == 1 {
            return;
        }
        if let Some(st) = &self.stockham {
            st.run(data, 1, scratch, dir == Direction::Backward);
            return;
        }
        if let Some(b) = &self.bluestein {
            b.process(data, scratch, dir, self.n);
            return;
        }
        let (copy, _) = scratch.split_at_mut(self.n);
        copy.copy_from_slice(data);
        self.recurse(copy, 1, data, self.n, 1, 0, dir);
    }

    /// Required scratch length for a `batch`-wide
    /// [`Fft1d::transform_batch`] call.
    #[must_use]
    pub fn scratch_len_batch(&self, batch: usize) -> usize {
        self.n * batch + self.scratch_len()
    }

    /// Transform `batch ≤ MAX_BATCH` interleaved lines at once, in place.
    ///
    /// `data` holds the lines **batch-major**: element `j` of line `b`
    /// lives at `data[j·batch + b]`, which keeps the innermost butterfly
    /// loop contiguous for the SIMD kernels. `inverse` applies the
    /// **unnormalized** inverse (via conjugation) — any `1/n` rescale is
    /// the caller's business, mirroring the serial pass convention.
    /// `scratch` needs [`Fft1d::scratch_len_batch`] elements.
    pub fn transform_batch(
        &self,
        data: &mut [Complex64],
        batch: usize,
        scratch: &mut [Complex64],
        inverse: bool,
    ) {
        assert!(
            (1..=Self::MAX_BATCH).contains(&batch),
            "batch out of range"
        );
        assert_eq!(data.len(), self.n * batch, "data length != n·batch");
        if self.n == 1 {
            return;
        }
        if let Some(st) = &self.stockham {
            st.run(data, batch, scratch, inverse);
            return;
        }
        // Generic lengths (large primes / Bluestein): de-interleave one
        // line at a time through the recursive path. Correct for any
        // length and trivially dispatch-level-independent.
        let (lines, rest) = scratch.split_at_mut(self.n * batch);
        let line = &mut lines[..self.n];
        for bi in 0..batch {
            for (j, v) in line.iter_mut().enumerate() {
                *v = data[j * batch + bi];
            }
            if inverse {
                for v in line.iter_mut() {
                    *v = v.conj();
                }
                self.forward(line, rest);
                for v in line.iter_mut() {
                    *v = v.conj();
                }
            } else {
                self.forward(line, rest);
            }
            for (j, &v) in line.iter().enumerate() {
                data[j * batch + bi] = v;
            }
        }
    }

    /// Recursive mixed-radix step: transform `x` (viewed with `stride`)
    /// into `out[0..n]`. `tw_mul = N/n` maps local twiddle exponents onto
    /// the root table; `depth` indexes into the factor list.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        x: &[Complex64],
        stride: usize,
        out: &mut [Complex64],
        n: usize,
        tw_mul: usize,
        depth: usize,
        dir: Direction,
    ) {
        if n == 1 {
            out[0] = x[0];
            return;
        }
        let r = self.factors[depth];
        let m = n / r;
        // r sub-transforms of length m over the decimated sequences.
        for p in 0..r {
            self.recurse(
                &x[p * stride..],
                stride * r,
                &mut out[p * m..(p + 1) * m],
                m,
                tw_mul * r,
                depth + 1,
                dir,
            );
        }
        // Combine: X[k1 + q·m] = Σ_p w_n^{p(k1+qm)} F_p[k1].
        // The outputs land exactly on the slots holding F_p[k1], so gather
        // into a small stack buffer first (r ≤ 31 by construction).
        let mut f = [Complex64::ZERO; 32];
        let nn = self.n;
        for k1 in 0..m {
            for p in 0..r {
                f[p] = out[p * m + k1];
            }
            for q in 0..r {
                let k = k1 + q * m;
                let mut acc = f[0];
                for (p, &fp) in f.iter().enumerate().take(r).skip(1) {
                    // exponent p·k mod n, mapped through tw_mul to root table
                    let e = (p * k) % n;
                    let mut w = self.twiddles[(e * tw_mul) % nn];
                    if dir == Direction::Backward {
                        w = w.conj();
                    }
                    acc += w * fp;
                }
                out[k] = acc;
            }
        }
    }
}

impl Bluestein {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let inner = Fft1d::new(m);
        // Chirp with exponent j² mod 2n to avoid catastrophic angle growth.
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let e = (j * j) % (2 * n);
                Complex64::cis(-std::f64::consts::PI * e as f64 / n as f64)
            })
            .collect();
        let mut b = vec![Complex64::ZERO; m];
        b[0] = chirp[0].conj();
        for j in 1..n {
            b[j] = chirp[j].conj();
            b[m - j] = chirp[j].conj();
        }
        let mut scratch = inner.make_scratch();
        inner.forward(&mut b, &mut scratch);
        Bluestein {
            chirp,
            b_hat: b,
            inner,
        }
    }

    fn process(&self, data: &mut [Complex64], scratch: &mut [Complex64], dir: Direction, n: usize) {
        // Backward via conjugation: ifft(x) = conj(fft(conj(x))).
        if dir == Direction::Backward {
            for v in data.iter_mut() {
                *v = v.conj();
            }
            self.process(data, scratch, Direction::Forward, n);
            for v in data.iter_mut() {
                *v = v.conj();
            }
            return;
        }
        let m = self.inner.n;
        let (a, rest) = scratch.split_at_mut(m);
        let inner_scratch = &mut rest[..2 * m];
        a.fill(Complex64::ZERO);
        for j in 0..n {
            a[j] = data[j] * self.chirp[j];
        }
        self.inner.forward(a, inner_scratch);
        for (av, bv) in a.iter_mut().zip(self.b_hat.iter()) {
            *av *= *bv;
        }
        self.inner.backward(a, inner_scratch);
        for k in 0..n {
            data[k] = a[k] * self.chirp[k];
        }
    }
}

/// The transform length for a zero-padded axis of at least `min` points:
/// the smallest `2^a` or `3·2^a` that is `≥ min`. Their Stockham schedule
/// is radix-2/4 stages plus at most one radix-3 stage, every one of them
/// on the dispatched SIMD lowering, while an arbitrary `min` can carry a
/// factor such as 11 that drops the axis onto the recursive reference
/// path.
#[must_use]
pub fn fast_len(min: usize) -> usize {
    let pow2 = min.max(1).next_power_of_two();
    // 3·2^(a-2) is the only candidate between 2^(a-1) and 2^a.
    let three = pow2 / 4 * 3;
    if three >= min {
        three
    } else {
        pow2
    }
}

/// Prime factorization, smallest factors first, preferring radix-4 splits
/// (pairs of 2s) for fewer recursion levels.
fn factorize(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    while n.is_multiple_of(4) {
        out.push(4);
        n /= 4;
    }
    for f in [2usize, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31] {
        while n.is_multiple_of(f) {
            out.push(f);
            n /= f;
        }
    }
    // Any remainder is a product of primes > 31; keep it as one factor and
    // let Bluestein handle the whole length.
    if n > 1 {
        out.push(n);
    }
    if out.is_empty() {
        out.push(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference DFT.
    fn dft(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex64::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    acc += v * Complex64::cis(-2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex64> {
        // Tiny xorshift so this module needs no rand dependency.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        (0..n).map(|_| Complex64::new(next(), next())).collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_reference_dft_many_sizes() {
        for n in [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24, 25, 27, 30, 32, 48, 60, 64, 100] {
            let plan = Fft1d::new(n);
            let sig = rand_signal(n, n as u64);
            let mut data = sig.clone();
            let mut scratch = plan.make_scratch();
            plan.forward(&mut data, &mut scratch);
            let want = dft(&sig);
            assert!(max_err(&data, &want) < 1e-9 * n as f64, "n = {n}");
        }
    }

    #[test]
    fn bluestein_prime_sizes() {
        for n in [37, 41, 97, 101, 149] {
            let plan = Fft1d::new(n);
            assert!(plan.bluestein.is_some(), "n = {n} should use Bluestein");
            let sig = rand_signal(n, n as u64);
            let mut data = sig.clone();
            let mut scratch = plan.make_scratch();
            plan.forward(&mut data, &mut scratch);
            let want = dft(&sig);
            assert!(max_err(&data, &want) < 1e-8 * n as f64, "n = {n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in [2, 7, 16, 35, 37, 128, 160, 200, 243] {
            let plan = Fft1d::new(n);
            let sig = rand_signal(n, 3 * n as u64 + 1);
            let mut data = sig.clone();
            let mut scratch = plan.make_scratch();
            plan.forward(&mut data, &mut scratch);
            plan.backward(&mut data, &mut scratch);
            assert!(max_err(&data, &sig) < 1e-10 * (n as f64), "n = {n}");
        }
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 48;
        let plan = Fft1d::new(n);
        let mut data = vec![Complex64::ZERO; n];
        data[0] = Complex64::ONE;
        let mut scratch = plan.make_scratch();
        plan.forward(&mut data, &mut scratch);
        for v in &data {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_mode_lands_in_single_bin() {
        let n = 60;
        let plan = Fft1d::new(n);
        let kk = 7;
        let mut data: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (kk * j) as f64 / n as f64))
            .collect();
        let mut scratch = plan.make_scratch();
        plan.forward(&mut data, &mut scratch);
        for (k, v) in data.iter().enumerate() {
            let expect = if k == kk { n as f64 } else { 0.0 };
            assert!((v.re - expect).abs() < 1e-9 && v.im.abs() < 1e-9, "k = {k}");
        }
    }

    #[test]
    fn parseval_theorem() {
        let n = 90;
        let plan = Fft1d::new(n);
        let sig = rand_signal(n, 11);
        let mut data = sig.clone();
        let mut scratch = plan.make_scratch();
        plan.forward(&mut data, &mut scratch);
        let time: f64 = sig.iter().map(|v| v.norm_sqr()).sum();
        let freq: f64 = data.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time - freq).abs() < 1e-9 * time.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 36;
        let plan = Fft1d::new(n);
        let a = rand_signal(n, 5);
        let b = rand_signal(n, 9);
        let mut scratch = plan.make_scratch();
        let mut fa = a.clone();
        plan.forward(&mut fa, &mut scratch);
        let mut fb = b.clone();
        plan.forward(&mut fb, &mut scratch);
        let mut fab: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fab, &mut scratch);
        let sum: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fab, &sum) < 1e-10 * n as f64);
    }

    #[test]
    fn factorize_prefers_radix4() {
        assert_eq!(factorize(16), vec![4, 4]);
        assert_eq!(factorize(8), vec![4, 2]);
        assert_eq!(factorize(60), vec![4, 3, 5]);
        assert_eq!(factorize(1), vec![1]);
        assert_eq!(factorize(37), vec![37]);
    }

    #[test]
    fn fast_len_is_the_smallest_stockham_length_with_one_radix3_at_most() {
        let one_radix3_at_most = |n: usize| matches!(n >> n.trailing_zeros(), 1 | 3);
        for min in 1..=1024 {
            let n = fast_len(min);
            assert!(n >= min, "min {min}: {n} too short");
            assert!(one_radix3_at_most(n), "min {min}: {n} is not 2^a or 3·2^a");
            assert!(
                (min..n).all(|m| !one_radix3_at_most(m)),
                "min {min}: a shorter length than {n} qualifies"
            );
            if n == 1 {
                continue; // the identity plan: no stages at all
            }
            let plan = Fft1d::new(n);
            let st = plan
                .stockham
                .as_ref()
                .unwrap_or_else(|| panic!("length {n} misses the Stockham path"));
            let scalar: Vec<usize> = st.radices().filter(|&r| r != 2 && r != 4).collect();
            assert!(
                scalar.is_empty() || scalar == [3],
                "length {n} schedules scalar stages {scalar:?}"
            );
        }
    }
}
