//! Iterative Stockham FFT kernels with runtime SIMD dispatch.
//!
//! The recursive mixed-radix path in [`crate::plan`] is flexible but slow:
//! every output recomputes its twiddle index modulo `N` and the recursion
//! touches one strided line at a time. This module is the hot replacement
//! for the sizes the paper actually runs (`N = 2^a·3^b·5^c`, Table I): a
//! **Stockham autosort** transform — iterative, self-sorting (no
//! bit-reversal pass), ping-ponging between the data and one scratch
//! buffer — over per-plan twiddle tables precomputed per stage.
//!
//! Every stage body — radix 2, 3, 4 and 5 — is written **once**, generic
//! over a private complex-lane trait (`Lanes`), and lowered twice:
//!
//! * **AVX2+FMA** (`core::arch::x86_64`): `__m256d` registers holding two
//!   interleaved re/im complex lanes, with the complex multiply realized
//!   as `_mm256_fmaddsub_pd(t, w.re, t_swap·w.im)`; the whole stage runs
//!   inside one `#[target_feature(enable = "avx2,fma")]` function, an odd
//!   batch-stride tail included;
//! * **portable**: one complex value per lane, each operation written as
//!   the scalar IEEE operation the AVX2 instruction performs per
//!   component ([`f64::mul_add`] for the fused ones), so both lowerings
//!   round identically and produce **bitwise-identical** spectra (pinned
//!   by the cross-dispatch determinism tests; miri always runs this path).
//!
//! A `mul_add` on a dispatched hot path must live inside a
//! `#[target_feature]` body: the workspace builds without `-C
//! target-cpu`, so outside one it compiles to an indirect call into
//! compiler-builtins' `fma` per fused operation instead of one
//! instruction. The portable lowering pays that price only on hosts
//! without AVX2+FMA (or when a test forces it).
//!
//! Transforms are **batched**: `batch ≤ 4` independent lines are laid out
//! batch-major (`data[j·batch + b]` is element `j` of line `b`), which
//! makes the innermost `q` loop of every butterfly contiguous in memory.
//! The 3-D passes tile strided columns into exactly this layout, so the
//! kernels always stream contiguous cache lines.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::complex::Complex64;

/// Which FFT kernel path runtime detection selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftSimdLevel {
    /// `core::arch::x86_64` AVX2 + FMA butterflies.
    Avx2Fma,
    /// Scalar butterflies with [`f64::mul_add`] (bitwise-equal to AVX2).
    Portable,
}

/// Process-wide dispatch override: 0 = none, 1 = AVX2, 2 = portable.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force a dispatch level for testing (`None` restores detection).
///
/// Forcing [`FftSimdLevel::Avx2Fma`] panics when the CPU lacks AVX2+FMA —
/// honoring it would execute illegal instructions.
#[doc(hidden)]
pub fn set_dispatch_override(level: Option<FftSimdLevel>) {
    let v = match level {
        None => 0,
        Some(FftSimdLevel::Avx2Fma) => {
            assert!(
                hw_detect() == FftSimdLevel::Avx2Fma,
                "cannot force AVX2 dispatch on a CPU without avx2+fma"
            );
            1
        }
        Some(FftSimdLevel::Portable) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Detect the best available FFT kernel path (cached after the first
/// call; the test-only override takes precedence).
#[must_use]
pub fn detect() -> FftSimdLevel {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => FftSimdLevel::Avx2Fma,
        2 => FftSimdLevel::Portable,
        _ => hw_detect(),
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn hw_detect() -> FftSimdLevel {
    static CACHED: AtomicU8 = AtomicU8::new(0);
    match CACHED.load(Ordering::Relaxed) {
        1 => FftSimdLevel::Avx2Fma,
        2 => FftSimdLevel::Portable,
        _ => {
            let level = if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                FftSimdLevel::Avx2Fma
            } else {
                FftSimdLevel::Portable
            };
            CACHED.store(
                if level == FftSimdLevel::Avx2Fma { 1 } else { 2 },
                Ordering::Relaxed,
            );
            level
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
fn hw_detect() -> FftSimdLevel {
    FftSimdLevel::Portable
}

/// Maximum batch width of a single kernel call: 4 complex lanes = two
/// `__m256d` registers per butterfly leg.
pub const MAX_BATCH: usize = 4;

/// One Stockham stage: radix, sub-transform count `m = n_cur/radix`, and
/// the stage twiddles `w^{r·p}` for `r in 1..radix`, `p in 0..m`, laid
/// out `[p][r-1]` contiguous (`w = exp(-2πi/n_cur)`).
#[derive(Debug, Clone)]
struct Stage {
    radix: usize,
    m: usize,
    tw: Vec<Complex64>,
}

/// Iterative stage schedule for one transform length `n = 2^a·3^b·5^c`.
#[derive(Debug, Clone)]
pub(crate) struct StockhamPlan {
    n: usize,
    stages: Vec<Stage>,
}

impl StockhamPlan {
    /// Build the schedule, or `None` when `n` has a factor outside
    /// {2, 3, 5} (those lengths keep the generic recursive path).
    pub(crate) fn try_new(n: usize) -> Option<Self> {
        if n < 2 {
            return None;
        }
        let (mut rem, mut twos, mut threes, mut fives) = (n, 0usize, 0usize, 0usize);
        while rem.is_multiple_of(2) {
            twos += 1;
            rem /= 2;
        }
        while rem.is_multiple_of(3) {
            threes += 1;
            rem /= 3;
        }
        while rem.is_multiple_of(5) {
            fives += 1;
            rem /= 5;
        }
        if rem != 1 {
            return None;
        }
        // One radix-2 stage when the power of two is odd, then pure
        // radix-4 — fewer stages, fewer twiddle loads.
        let mut radices = Vec::new();
        if twos % 2 == 1 {
            radices.push(2);
        }
        radices.extend(std::iter::repeat_n(4, twos / 2));
        radices.extend(std::iter::repeat_n(3, threes));
        radices.extend(std::iter::repeat_n(5, fives));

        let mut stages = Vec::with_capacity(radices.len());
        let mut n_cur = n;
        for r in radices {
            let m = n_cur / r;
            let mut tw = Vec::with_capacity(m * (r - 1));
            for p in 0..m {
                for t in 1..r {
                    // Exponent reduced mod n_cur to keep the angle small.
                    let e = (t * p) % n_cur;
                    tw.push(Complex64::cis(
                        -2.0 * std::f64::consts::PI * e as f64 / n_cur as f64,
                    ));
                }
            }
            stages.push(Stage { radix: r, m, tw });
            n_cur = m;
        }
        debug_assert_eq!(n_cur, 1);
        Some(StockhamPlan { n, stages })
    }

    /// The stage radices in execution order.
    #[cfg(test)]
    pub(crate) fn radices(&self) -> impl Iterator<Item = usize> + '_ {
        self.stages.iter().map(|st| st.radix)
    }

    /// Transform `batch` interleaved lines (batch-major layout) in place.
    /// `inverse` computes the unnormalized inverse via conjugation.
    /// `scratch` needs at least `n·batch` elements.
    pub(crate) fn run(
        &self,
        data: &mut [Complex64],
        batch: usize,
        scratch: &mut [Complex64],
        inverse: bool,
    ) {
        self.run_with_level(detect(), data, batch, scratch, inverse);
    }

    /// [`StockhamPlan::run`] with an explicit dispatch level (the
    /// determinism tests compare levels through this entry point).
    pub(crate) fn run_with_level(
        &self,
        level: FftSimdLevel,
        data: &mut [Complex64],
        batch: usize,
        scratch: &mut [Complex64],
        inverse: bool,
    ) {
        let len = self.n * batch;
        assert!((1..=MAX_BATCH).contains(&batch), "batch out of range");
        assert_eq!(data.len(), len, "data length != n·batch");
        let scratch = &mut scratch[..len];
        if inverse {
            conj_slice(data);
        }
        {
            let mut src: &mut [Complex64] = data;
            let mut dst: &mut [Complex64] = scratch;
            let mut s = batch;
            for st in &self.stages {
                run_stage(level, st, src, dst, s);
                std::mem::swap(&mut src, &mut dst);
                s *= st.radix;
            }
        }
        if self.stages.len() % 2 == 1 {
            data.copy_from_slice(scratch);
        }
        if inverse {
            conj_slice(data);
        }
    }
}

fn conj_slice(data: &mut [Complex64]) {
    for v in data.iter_mut() {
        *v = v.conj();
    }
}

/// Execute one stage through the selected kernel path: the same generic
/// stage body, lowered to `__m256d` lanes behind AVX2+FMA or to one
/// complex value at a time.
fn run_stage(level: FftSimdLevel, st: &Stage, src: &[Complex64], dst: &mut [Complex64], s: usize) {
    let _ = level; // only consulted on x86_64 builds
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if level == FftSimdLevel::Avx2Fma {
        // SAFETY: `Avx2Fma` is only ever selected (by `detect` or the
        // checked override) after `is_x86_feature_detected!` confirmed
        // avx2+fma — the callee's enabled feature set.
        #[allow(unsafe_code)]
        unsafe { avx2::stage(st, src, dst, s) };
        return;
    }
    portable_stage(st, src, dst, s);
}

/// [`run_stage`] on the portable lowering. Out of line, like
/// `avx2::stage`, so the software `fma` calls this level makes stay in
/// its own body rather than in every caller of the dispatcher.
#[inline(never)]
fn portable_stage(st: &Stage, src: &[Complex64], dst: &mut [Complex64], s: usize) {
    stage_on::<Complex64>(st, src, dst, s);
}

/// [`run_stage`]'s radix match, over one lane type.
#[inline(always)]
fn stage_on<L: Lanes>(st: &Stage, src: &[Complex64], dst: &mut [Complex64], s: usize) {
    let (m, tw) = (st.m, &st.tw[..]);
    match st.radix {
        2 => stage::<2, L>(src, dst, m, s, tw),
        3 => stage::<3, L>(src, dst, m, s, tw),
        4 => stage::<4, L>(src, dst, m, s, tw),
        5 => stage::<5, L>(src, dst, m, s, tw),
        r => unreachable!("unsupported radix {r}"),
    }
}

/// One DIF Stockham stage of radix `R`: input `src[q + s·(p + t·m)]`,
/// output `dst[q + s·(R·p + r)]`, `q` contiguous over the batch-major
/// lanes. `L::W` values of `q` go through one butterfly; an odd
/// remainder of `s` runs one complex value at a time, in the same
/// (possibly `#[target_feature]`) body.
#[inline(always)]
fn stage<const R: usize, L: Lanes>(
    src: &[Complex64],
    dst: &mut [Complex64],
    m: usize,
    s: usize,
    tw: &[Complex64],
) where
    Dif: Butterfly<R>,
{
    assert_eq!(src.len(), R * m * s);
    assert_eq!(dst.len(), src.len());
    assert_eq!(tw.len(), (R - 1) * m);
    let sm = s * m;
    let blocks = tw.chunks_exact(R - 1).zip(dst.chunks_exact_mut(R * s));
    for (p, (w, mut out)) in blocks.enumerate() {
        // The `R` input legs and output rows of this `p`, `s` values each.
        let legs: [&[Complex64]; R] = std::array::from_fn(|t| &src[s * p + t * sm..][..s]);
        let mut rows: [&mut [Complex64]; R] = std::array::from_fn(|_| {
            let (row, rest) = std::mem::take(&mut out).split_at_mut(s);
            out = rest;
            row
        });
        let wv = twiddles::<L>(w);
        let mut q = 0;
        while q + L::W <= s {
            column(&legs, &mut rows, q, &wv);
            q += L::W;
        }
        let ws = twiddles::<Complex64>(w);
        while q < s {
            column(&legs, &mut rows, q, &ws);
            q += 1;
        }
    }
}

/// The butterfly of lanes `q .. q + L::W` of every leg, into the rows.
#[inline(always)]
fn column<const R: usize, L: Lanes>(
    legs: &[&[Complex64]; R],
    rows: &mut [&mut [Complex64]; R],
    q: usize,
    w: &[Twiddle<L>; 4],
) where
    Dif: Butterfly<R>,
{
    let x = std::array::from_fn(|t| L::load(&legs[t][q..]));
    for (row, y) in rows.iter_mut().zip(Dif::butterfly(x, w)) {
        y.store(&mut row[q..]);
    }
}

/// Complex-lane arithmetic — the one vocabulary every stage is written
/// in. A value holds [`Lanes::W`] complex numbers interleaved `[re, im,
/// re, im, …]`: one [`Complex64`] on the portable level, two in an
/// `__m256d` behind AVX2+FMA. Each operation is one IEEE operation per
/// component, so both lowerings round identically.
trait Lanes: Copy {
    /// Complex values per register.
    const W: usize;
    /// The first `W` values of `s`.
    fn load(s: &[Complex64]) -> Self;
    /// Write the `W` values to the front of `s`.
    fn store(self, s: &mut [Complex64]);
    /// `v` in every component.
    fn splat(v: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    /// Component-wise product.
    fn mul(self, o: Self) -> Self;
    /// `self·b + c`, fused, component-wise.
    fn fma(self, b: Self, c: Self) -> Self;
    /// `self·b − c` on real parts and `self·b + c` on imaginary parts,
    /// fused (`_mm256_fmaddsub_pd`).
    fn fmaddsub(self, b: Self, c: Self) -> Self;
    /// `self − o` on real parts and `self + o` on imaginary parts
    /// (`_mm256_addsub_pd`).
    fn addsub(self, o: Self) -> Self;
    /// Real and imaginary parts exchanged.
    fn swap(self) -> Self;
    /// Sign bits flipped (exact, including ±0).
    fn neg(self) -> Self;
}

impl Lanes for Complex64 {
    const W: usize = 1;
    #[inline(always)]
    fn load(s: &[Complex64]) -> Self {
        s[0]
    }
    #[inline(always)]
    fn store(self, s: &mut [Complex64]) {
        s[0] = self;
    }
    #[inline(always)]
    fn splat(v: f64) -> Self {
        Complex64::new(v, v)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Complex64::new(self.re * o.re, self.im * o.im)
    }
    #[inline(always)]
    fn fma(self, b: Self, c: Self) -> Self {
        Complex64::new(self.re.mul_add(b.re, c.re), self.im.mul_add(b.im, c.im))
    }
    #[inline(always)]
    fn fmaddsub(self, b: Self, c: Self) -> Self {
        Complex64::new(self.re.mul_add(b.re, -c.re), self.im.mul_add(b.im, c.im))
    }
    #[inline(always)]
    fn addsub(self, o: Self) -> Self {
        Complex64::new(self.re - o.re, self.im + o.im)
    }
    #[inline(always)]
    fn swap(self) -> Self {
        Complex64::new(self.im, self.re)
    }
    #[inline(always)]
    fn neg(self) -> Self {
        Complex64::new(-self.re, -self.im)
    }
}

// ---------------------------------------------------------------------
// Butterflies, written once over `Lanes`.
//
// The complex multiply uses one fixed fused ordering:
//     re = fma(t.re, w.re, -(t.im · w.im))
//     im = fma(t.im, w.re,   t.re · w.im )
// i.e. `fmaddsub(t, splat(w.re), swap(t) · splat(w.im))`, and `x ∓ i·y`
// is `addsub(x, ∓swap(y))`, so every lowering rounds identically.
// ---------------------------------------------------------------------

/// `sin(2π/3) = √3/2`.
const SIN_2PI_3: f64 = 0.866_025_403_784_438_646_763_723_170_752_936_2;
/// `cos(2π/5)`.
const C1_5: f64 = 0.309_016_994_374_947_424_102_293_417_182_82;
/// `sin(2π/5)`.
const S1_5: f64 = 0.951_056_516_295_153_572_116_439_333_379_38;
/// `cos(4π/5)`.
const C2_5: f64 = -0.809_016_994_374_947_4;
/// `sin(4π/5)`.
const S2_5: f64 = 0.587_785_252_292_473_129_168_705_954_639_07;

/// A twiddle broadcast to every lane: `(splat(re), splat(im))`.
type Twiddle<L> = (L, L);

/// One stage's twiddles for one `p` (`R − 1 ≤ 4` of them), broadcast.
#[inline(always)]
fn twiddles<L: Lanes>(w: &[Complex64]) -> [Twiddle<L>; 4] {
    std::array::from_fn(|r| {
        let w = w.get(r).copied().unwrap_or(Complex64::ZERO);
        (L::splat(w.re), L::splat(w.im))
    })
}

/// `t·w` for a broadcast twiddle.
#[inline(always)]
fn cmul<L: Lanes>(t: L, (wre, wim): Twiddle<L>) -> L {
    t.fmaddsub(wre, t.swap().mul(wim))
}

/// `(x − i·y, x + i·y)`.
#[inline(always)]
fn rot_pair<L: Lanes>(x: L, y: L) -> (L, L) {
    let sw = y.swap();
    (x.addsub(sw.neg()), x.addsub(sw))
}

/// The DIF butterflies, one per radix.
struct Dif;

/// A radix-`R` butterfly: legs `x[t]`, outputs `y[0]` and
/// `y[r] = w[r−1]·(Σ_t x[t]·e^{−2πi·r·t/R})`.
trait Butterfly<const R: usize> {
    fn butterfly<L: Lanes>(x: [L; R], w: &[Twiddle<L>; 4]) -> [L; R];
}

impl Butterfly<2> for Dif {
    #[inline(always)]
    fn butterfly<L: Lanes>([a, b]: [L; 2], w: &[Twiddle<L>; 4]) -> [L; 2] {
        [a.add(b), cmul(a.sub(b), w[0])]
    }
}

impl Butterfly<3> for Dif {
    #[inline(always)]
    fn butterfly<L: Lanes>([a, b, c]: [L; 3], w: &[Twiddle<L>; 4]) -> [L; 3] {
        let t1 = b.add(c);
        let t2 = t1.fma(L::splat(-0.5), a);
        let t3 = b.sub(c).mul(L::splat(SIN_2PI_3));
        let (u1, u2) = rot_pair(t2, t3);
        [a.add(t1), cmul(u1, w[0]), cmul(u2, w[1])]
    }
}

impl Butterfly<4> for Dif {
    #[inline(always)]
    fn butterfly<L: Lanes>([a, b, c, d]: [L; 4], w: &[Twiddle<L>; 4]) -> [L; 4] {
        let (apc, amc) = (a.add(c), a.sub(c));
        let (bpd, bmd) = (b.add(d), b.sub(d));
        let (tm, tp) = rot_pair(amc, bmd);
        [
            apc.add(bpd),
            cmul(tm, w[0]),
            cmul(apc.sub(bpd), w[1]),
            cmul(tp, w[2]),
        ]
    }
}

impl Butterfly<5> for Dif {
    #[inline(always)]
    #[allow(clippy::many_single_char_names)]
    fn butterfly<L: Lanes>([a, b, c, d, e]: [L; 5], w: &[Twiddle<L>; 4]) -> [L; 5] {
        let k = L::splat;
        let (t1, t2) = (b.add(e), c.add(d));
        let (t3, t4) = (b.sub(e), c.sub(d));
        let m1 = t2.fma(k(C2_5), t1.fma(k(C1_5), a));
        let m2 = t2.fma(k(C1_5), t1.fma(k(C2_5), a));
        let m3 = t4.fma(k(S2_5), t3.mul(k(S1_5)));
        let m4 = t4.fma(k(-S1_5), t3.mul(k(S2_5)));
        let (u1, u4) = rot_pair(m1, m3);
        let (u2, u3) = rot_pair(m2, m4);
        [
            a.add(t1).add(t2),
            cmul(u1, w[0]),
            cmul(u2, w[1]),
            cmul(u3, w[2]),
            cmul(u4, w[3]),
        ]
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod avx2 {
    //! The AVX2+FMA lowering: one `__m256d` holds two complex lanes
    //! interleaved `[re0, im0, re1, im1]`; the batch-major layout makes
    //! consecutive `q` indices contiguous, so every load/store is a
    //! plain unaligned 256-bit op.

    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_fmadd_pd, _mm256_fmaddsub_pd,
        _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_storeu_pd,
        _mm256_sub_pd, _mm256_xor_pd,
    };

    use super::{stage_on, Complex64, Lanes, Stage};

    /// `__m256d` as the stages' lane type.
    ///
    /// Invariant: values of this type are created and used only beneath
    /// [`stage`], whose `#[target_feature]` gate the dispatcher opens
    /// after [`super::detect`] confirmed AVX2+FMA. The methods are
    /// `#[inline(always)]`, so they become part of that function's body
    /// and the intrinsics run with the features statically enabled.
    #[derive(Clone, Copy)]
    struct Avx(__m256d);

    impl Lanes for Avx {
        const W: usize = 2;
        #[inline(always)]
        fn load(s: &[Complex64]) -> Self {
            let s = s.first_chunk::<2>().expect("two complex lanes");
            // SAFETY: (this and every block in this impl) AVX2+FMA are
            // available, per the type's invariant; the intrinsics have no
            // other precondition. Loads and stores go through a checked
            // `&[Complex64; 2]` (`#[repr(C)]`, 4 × f64), exactly the 32
            // bytes accessed.
            Avx(unsafe { _mm256_loadu_pd(s.as_ptr().cast()) })
        }
        #[inline(always)]
        fn store(self, s: &mut [Complex64]) {
            let s = s.first_chunk_mut::<2>().expect("two complex lanes");
            // SAFETY: see `load`.
            unsafe { _mm256_storeu_pd(s.as_mut_ptr().cast(), self.0) }
        }
        #[inline(always)]
        fn splat(v: f64) -> Self {
            // SAFETY: see `load`.
            Avx(unsafe { _mm256_set1_pd(v) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: see `load`.
            Avx(unsafe { _mm256_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: see `load`.
            Avx(unsafe { _mm256_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: see `load`.
            Avx(unsafe { _mm256_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn fma(self, b: Self, c: Self) -> Self {
            // SAFETY: see `load`.
            Avx(unsafe { _mm256_fmadd_pd(self.0, b.0, c.0) })
        }
        #[inline(always)]
        fn fmaddsub(self, b: Self, c: Self) -> Self {
            // SAFETY: see `load`.
            Avx(unsafe { _mm256_fmaddsub_pd(self.0, b.0, c.0) })
        }
        #[inline(always)]
        fn addsub(self, o: Self) -> Self {
            // SAFETY: see `load`.
            Avx(unsafe { _mm256_addsub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn swap(self) -> Self {
            // SAFETY: see `load`.
            Avx(unsafe { _mm256_permute_pd::<0b0101>(self.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: see `load`.
            Avx(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
    }

    /// [`super::run_stage`] lowered to AVX2+FMA (an odd `q` tail runs the
    /// scalar lanes inside this body, so it too gets hardware FMA).
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn stage(st: &Stage, src: &[Complex64], dst: &mut [Complex64], s: usize) {
        stage_on::<Avx>(st, src, dst, s);
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
                    acc += v
                        * Complex64::cis(
                            -2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64,
                        );
                }
                acc
            })
            .collect()
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        (0..n).map(|_| Complex64::new(next(), next())).collect()
    }

    fn interleave(lines: &[Vec<Complex64>]) -> Vec<Complex64> {
        let n = lines[0].len();
        let b = lines.len();
        let mut out = vec![Complex64::ZERO; n * b];
        for (bi, line) in lines.iter().enumerate() {
            for (j, &v) in line.iter().enumerate() {
                out[j * b + bi] = v;
            }
        }
        out
    }

    fn deinterleave(data: &[Complex64], b: usize) -> Vec<Vec<Complex64>> {
        let n = data.len() / b;
        (0..b)
            .map(|bi| (0..n).map(|j| data[j * b + bi]).collect())
            .collect()
    }

    const SIZES: &[usize] = &[
        2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24, 25, 27, 30, 32, 40, 48, 60, 64, 80, 81, 96,
        100, 120, 125, 128, 160, 200, 243, 250, 256,
    ];

    #[test]
    fn supported_sizes_factor_into_235() {
        for &n in SIZES {
            assert!(StockhamPlan::try_new(n).is_some(), "n = {n}");
        }
        for n in [1, 7, 11, 14, 21, 22, 33, 37, 49] {
            assert!(StockhamPlan::try_new(n).is_none(), "n = {n}");
        }
    }

    #[test]
    fn matches_reference_dft_all_batches() {
        for &n in SIZES {
            if n > 130 {
                continue; // keep the O(n²) reference cheap
            }
            let plan = StockhamPlan::try_new(n).unwrap();
            for b in 1..=MAX_BATCH {
                let lines: Vec<Vec<Complex64>> =
                    (0..b).map(|bi| rand_signal(n, (n * 7 + bi) as u64)).collect();
                let mut data = interleave(&lines);
                let mut scratch = vec![Complex64::ZERO; n * b];
                plan.run(&mut data, b, &mut scratch, false);
                for (bi, got) in deinterleave(&data, b).iter().enumerate() {
                    let want = dft(&lines[bi]);
                    let err = got
                        .iter()
                        .zip(&want)
                        .map(|(a, w)| (*a - *w).abs())
                        .fold(0.0, f64::max);
                    assert!(err < 1e-9 * n as f64, "n = {n}, batch {b}, lane {bi}: {err}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_identity_batched() {
        for &n in SIZES {
            let plan = StockhamPlan::try_new(n).unwrap();
            let b = MAX_BATCH;
            let lines: Vec<Vec<Complex64>> =
                (0..b).map(|bi| rand_signal(n, (n * 13 + bi) as u64)).collect();
            let orig = interleave(&lines);
            let mut data = orig.clone();
            let mut scratch = vec![Complex64::ZERO; n * b];
            plan.run(&mut data, b, &mut scratch, false);
            plan.run(&mut data, b, &mut scratch, true);
            let inv = 1.0 / n as f64;
            let err = data
                .iter()
                .zip(&orig)
                .map(|(a, w)| (a.scale(inv) - *w).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10 * n as f64, "n = {n}: {err}");
        }
    }

    #[test]
    fn portable_matches_detected_level_bitwise() {
        // On AVX2 hardware this pins the cross-dispatch determinism
        // claim at the kernel level for every radix, odd `q` tails
        // included (batches 1 and 3 at odd sizes); on other hosts both
        // runs take the portable path and the test is vacuous (the
        // integration suite still runs it there for coverage).
        for &n in &[
            3usize, 5, 6, 12, 15, 16, 25, 45, 48, 60, 64, 75, 96, 128, 160, 200, 240, 375,
        ] {
            let plan = StockhamPlan::try_new(n).unwrap();
            for b in 1..=MAX_BATCH {
                for inverse in [false, true] {
                    let lines: Vec<Vec<Complex64>> =
                        (0..b).map(|bi| rand_signal(n, (n * 31 + bi) as u64)).collect();
                    let mut auto = interleave(&lines);
                    let mut forced = auto.clone();
                    let mut scratch = vec![Complex64::ZERO; n * b];
                    plan.run_with_level(detect(), &mut auto, b, &mut scratch, inverse);
                    plan.run_with_level(
                        FftSimdLevel::Portable,
                        &mut forced,
                        b,
                        &mut scratch,
                        inverse,
                    );
                    for (x, y) in auto.iter().zip(&forced) {
                        let at = format!("n = {n}, batch {b}, inverse {inverse}");
                        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{at}");
                        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn detection_is_stable() {
        let level = detect();
        println!("fft::detect: {level:?}");
        assert_eq!(level, detect());
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 64;
        let plan = StockhamPlan::try_new(n).unwrap();
        let mut data = vec![Complex64::ZERO; n];
        data[0] = Complex64::ONE;
        let mut scratch = vec![Complex64::ZERO; n];
        plan.run(&mut data, 1, &mut scratch, false);
        for v in &data {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_mode_lands_in_single_bin_per_lane() {
        let n = 48;
        let plan = StockhamPlan::try_new(n).unwrap();
        let b = 3;
        // Lane bi carries mode kk = 2·bi + 1.
        let lines: Vec<Vec<Complex64>> = (0..b)
            .map(|bi| {
                let kk = 2 * bi + 1;
                (0..n)
                    .map(|j| {
                        Complex64::cis(2.0 * std::f64::consts::PI * (kk * j % n) as f64 / n as f64)
                    })
                    .collect()
            })
            .collect();
        let mut data = interleave(&lines);
        let mut scratch = vec![Complex64::ZERO; n * b];
        plan.run(&mut data, b, &mut scratch, false);
        for (bi, lane) in deinterleave(&data, b).iter().enumerate() {
            let kk = 2 * bi + 1;
            for (k, v) in lane.iter().enumerate() {
                let expect = if k == kk { n as f64 } else { 0.0 };
                assert!(
                    (v.re - expect).abs() < 1e-9 && v.im.abs() < 1e-9,
                    "lane {bi} bin {k}"
                );
            }
        }
    }
}
