//! Plan-based 1-D complex FFT.
//!
//! One algorithm per length. The paper's pencil FFT runs grid sides that
//! factor as 2^a·3^b·5^c (6400³ and 9216³ in Table I), and so does every
//! length this reproduction's engines and benchmarks transform: those
//! take the iterative SIMD Stockham schedule of [`crate::kernels`]. Every
//! other length `n > 1` takes Bluestein's chirp-z algorithm, whose inner
//! transform is a power of two and so runs on the same Stockham kernels;
//! any length stays O(N log N).

use crate::complex::Complex64;
use crate::kernels::{StockhamPlan, MAX_BATCH};

/// A reusable 1-D FFT plan for a fixed length.
///
/// Plans are immutable after construction and safe to share across threads;
/// callers supply per-thread scratch via [`Fft1d::make_scratch`].
#[derive(Debug, Clone)]
pub struct Fft1d {
    n: usize,
    /// Iterative SIMD stage schedule for `n = 2^a·3^b·5^c`.
    stockham: Option<StockhamPlan>,
    /// Bluestein machinery for every other `n > 1`.
    bluestein: Option<Box<Bluestein>>,
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
        let stockham = StockhamPlan::try_new(n);
        let bluestein = (stockham.is_none() && n > 1).then(|| Box::new(Bluestein::new(n)));
        Fft1d {
            n,
            stockham,
            bluestein,
        }
    }

    /// Maximum `batch` accepted by [`Fft1d::transform_batch`].
    pub const MAX_BATCH: usize = MAX_BATCH;

    /// Transform length.
    #[must_use] 
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: a plan has length ≥ 1 (the length-1 plan is the
    /// identity).
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
            .map(|b| 2 * b.inner.n)
            .unwrap_or(0);
        self.n.max(inner)
    }

    /// Unnormalized forward transform, in place.
    pub fn forward(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        self.process(data, scratch, false);
    }

    /// Normalized inverse transform (divides by `n`), in place.
    pub fn backward(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        self.process(data, scratch, true);
        let inv = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// Unnormalized transform of one line; the length-1 plan (neither
    /// path) is the identity.
    fn process(&self, data: &mut [Complex64], scratch: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.n, "data length != plan length");
        if let Some(st) = &self.stockham {
            st.run(data, 1, scratch, inverse);
        } else if let Some(b) = &self.bluestein {
            b.process(data, scratch, inverse);
        }
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
        if let Some(st) = &self.stockham {
            st.run(data, batch, scratch, inverse);
            return;
        }
        let Some(b) = &self.bluestein else {
            return; // the length-1 identity
        };
        // Bluestein lengths: de-interleave one line at a time.
        let (lines, rest) = scratch.split_at_mut(self.n * batch);
        let line = &mut lines[..self.n];
        for bi in 0..batch {
            for (j, v) in line.iter_mut().enumerate() {
                *v = data[j * batch + bi];
            }
            b.process(line, rest, inverse);
            for (j, &v) in line.iter().enumerate() {
                data[j * batch + bi] = v;
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

    /// Unnormalized transform of one line; the inverse goes through
    /// conjugation: `ifft(x) = conj(fft(conj(x)))`.
    fn process(&self, data: &mut [Complex64], scratch: &mut [Complex64], inverse: bool) {
        if inverse {
            for v in data.iter_mut() {
                *v = v.conj();
            }
        }
        let m = self.inner.n;
        // The padded line, then the inner Stockham run's `m` elements.
        let (a, inner_scratch) = scratch.split_at_mut(m);
        a.fill(Complex64::ZERO);
        for (aj, (&x, &c)) in a.iter_mut().zip(data.iter().zip(&self.chirp)) {
            *aj = x * c;
        }
        self.inner.forward(a, inner_scratch);
        for (av, bv) in a.iter_mut().zip(self.b_hat.iter()) {
            *av *= *bv;
        }
        self.inner.backward(a, inner_scratch);
        for (x, (&ak, &c)) in data.iter_mut().zip(a.iter().zip(&self.chirp)) {
            *x = ak * c;
        }
        if inverse {
            for v in data.iter_mut() {
                *v = v.conj();
            }
        }
    }
}

/// The transform length for a zero-padded axis of at least `min` points:
/// the smallest `2^a` or `3·2^a` that is `≥ min`. Their Stockham schedule
/// is radix-2/4 stages plus at most one radix-3 stage, every one of them
/// on the dispatched SIMD lowering, while an arbitrary `min` can carry a
/// factor such as 11 that sends the axis through Bluestein's algorithm,
/// several times the work of a Stockham length.
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
        for n in [
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 20, 22, 24, 25, 27, 30, 32, 33, 35,
            48, 60, 64, 100,
        ] {
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
        for n in [7, 11, 14, 37, 41, 49, 77, 88, 97, 101, 149, 210] {
            let plan = Fft1d::new(n);
            assert!(plan.bluestein.is_some(), "n = {n} should use Bluestein");
            let sig = rand_signal(n, n as u64);
            let mut data = sig.clone();
            let mut scratch = plan.make_scratch();
            plan.forward(&mut data, &mut scratch);
            let want = dft(&sig);
            assert!(max_err(&data, &want) < 1e-9 * n as f64, "n = {n}");
        }
    }

    /// Each length takes exactly one path — Stockham for 2^a·3^b·5^c,
    /// Bluestein otherwise, neither for the length-1 identity — and both
    /// directions match the reference DFT.
    #[test]
    fn every_length_takes_one_path() {
        for n in 1..=130usize {
            let plan = Fft1d::new(n);
            let smooth = [2, 3, 5].iter().fold(n, |mut r, &f| {
                while r.is_multiple_of(f) {
                    r /= f;
                }
                r
            }) == 1;
            assert_eq!(plan.stockham.is_some(), smooth && n > 1, "n = {n}");
            assert_eq!(plan.bluestein.is_some(), !smooth, "n = {n}");
            let sig = rand_signal(n, 5 * n as u64);
            let mut scratch = plan.make_scratch();
            let mut fwd = sig.clone();
            plan.forward(&mut fwd, &mut scratch);
            let err = max_err(&fwd, &dft(&sig));
            assert!(err < 1e-9 * n as f64, "forward n = {n}: {err}");
            // backward(x) = conj(dft(conj(x))) / n
            let mut back = sig.clone();
            plan.backward(&mut back, &mut scratch);
            let conj: Vec<Complex64> = sig.iter().map(|v| v.conj()).collect();
            let inv = 1.0 / n as f64;
            let want: Vec<Complex64> = dft(&conj).iter().map(|v| v.conj().scale(inv)).collect();
            assert!(max_err(&back, &want) < 1e-9, "backward n = {n}");
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
