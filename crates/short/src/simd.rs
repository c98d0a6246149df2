//! Explicit 8-lane SIMD force kernels with runtime dispatch.
//!
//! The paper's BG/Q kernel is hand-written QPX: 4-wide vectors, 2-fold
//! unrolled, with the cutoff and self-interaction tests folded into the
//! arithmetic as `fsel` selects so the inner loop is branch-free. This
//! module is the x86 analogue:
//!
//! * an AVX2+FMA lowering written against `core::arch::x86_64` — 8 lanes
//!   of `f32`, FMA Horner chain for the poly5, and the `fsel` idiom
//!   realized as a compare → lane-mask → bitwise-AND (zero the force
//!   factor outside `0 < s < r_cut²` without branching);
//! * a portable lowering on `[f32; 8]` in plain Rust.
//!
//! The path is chosen once per process by runtime feature detection
//! ([`detect`]); both produce results equal to the scalar
//! [`ForceKernel::force_on`] reference to f32 rounding.
//!
//! Two kernel shapes are exposed:
//!
//! * [`force_on_best`] — one-sided: force on a single target from a
//!   pre-gathered source list (the shared-interaction-list shape P³M
//!   uses);
//! * `leaf_pair` — symmetric: a listed leaf pair is evaluated chunk ×
//!   chunk ([`CHUNK`] = 8 particles). A vectorised box test discards
//!   chunk pairs farther apart than `r_cut`; each survivor is one 8 × 8
//!   *lane-rotation tile* that evaluates every pair **once**, `+f` on
//!   the target lane and the Newton-3 reaction `−f` on the source lane.
//!   The tile is one generic body over the private `Lanes` vocabulary,
//!   compiled once per lowering — there is no row kernel, no horizontal
//!   sum and no scalar tail on this path.

use crate::kernel::ForceKernel;

/// Which kernel implementation runtime detection selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// `core::arch::x86_64` AVX2 + FMA intrinsics.
    Avx2Fma,
    /// 8-lane blocked portable Rust (auto-vectorized).
    Portable,
}

/// Detect the best available kernel path (cached after the first call).
#[must_use]
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        static CACHED: AtomicU8 = AtomicU8::new(0);
        match CACHED.load(Ordering::Relaxed) {
            1 => SimdLevel::Avx2Fma,
            2 => SimdLevel::Portable,
            _ => {
                let level = if std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                {
                    SimdLevel::Avx2Fma
                } else {
                    SimdLevel::Portable
                };
                CACHED.store(
                    if level == SimdLevel::Avx2Fma { 1 } else { 2 },
                    Ordering::Relaxed,
                );
                level
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Portable
    }
}

/// One-sided force on a target from a gathered source list, via the
/// fastest available kernel. Drop-in for [`ForceKernel::force_on`].
#[inline]
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn force_on_best(
    k: &ForceKernel,
    tx: f32,
    ty: f32,
    tz: f32,
    nx: &[f32],
    ny: &[f32],
    nz: &[f32],
    nm: &[f32],
) -> [f32; 3] {
    debug_assert!(nx.len() == ny.len() && ny.len() == nz.len() && nz.len() == nm.len());
    #[cfg(target_arch = "x86_64")]
    if detect() == SimdLevel::Avx2Fma {
        // SAFETY: `detect()` confirmed AVX2 and FMA are available on this
        // CPU, which is exactly the target-feature set the callee enables.
        return unsafe { avx2::row_one_sided(k, tx, ty, tz, nx, ny, nz, nm) };
    }
    k.force_on_blocked(tx, ty, tz, nx, ny, nz, nm)
}

/// Particles per cluster chunk of the symmetric path — the SIMD width.
/// Tree-order storage is padded so every chunk is one full 8-lane load.
pub const CHUNK: usize = 8;

/// Tree-order particle storage as the symmetric kernel sees it: SoA
/// slots in whole chunks (chunk `c` = slots `8c..8c+8`) and one
/// bounding box per chunk, also SoA so eight partner boxes are tested
/// per compare.
///
/// Pad lanes carry mass 0 and a far, finite coordinate: every pair with
/// a pad fails the cutoff select and contributes exactly `d·0 = 0`, so
/// pads neither exert nor receive force and no store needs a mask.
#[derive(Clone, Copy)]
pub(crate) struct Chunks<'a> {
    /// Coordinates, `8 × chunks` slots each.
    pub pos: [&'a [f32]; 3],
    /// Masses, `8 × chunks` slots (0 in pad lanes).
    pub mass: &'a [f32],
    /// Box corners over each chunk's real lanes, `chunks + 7` entries
    /// each (the tail keeps the last 8-wide box load in bounds).
    pub lo: [&'a [f32]; 3],
    pub hi: [&'a [f32]; 3],
    /// Real (unpadded) particles per chunk.
    pub len: &'a [u8],
}

/// Symmetric evaluation of one listed leaf pair, chunk × chunk.
///
/// `a` and `b` are the two leaves' chunk ranges (`a` before `b` in tree
/// order, or `a == b` for a leaf's self pair). A box-distance test picks
/// the chunk pairs within `r_cut`; each survivor runs one 8 × 8
/// lane-rotation tile that adds `+f` to the target chunk's slots of
/// `force` and the Newton-3 reaction `−f` to the source chunk's.
/// Returns the kernel evaluations sent through the tiles, counted over
/// real particles only.
pub(crate) fn leaf_pair(
    k: &ForceKernel,
    c: &Chunks,
    a: std::ops::Range<usize>,
    b: std::ops::Range<usize>,
    force: &mut [Vec<f32>; 3],
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if detect() == SimdLevel::Avx2Fma {
        // SAFETY: `detect()` confirmed AVX2 and FMA are available on this
        // CPU, which is exactly the target-feature set the callee enables.
        return unsafe { avx2::leaf_pair(k, c, a, b, force) };
    }
    leaf_pair_on::<[f32; CHUNK]>(k, c, a, b, force)
}

/// Eight `f32` lanes — the one vocabulary the tile kernel and the chunk
/// cull are written in. Implemented by `__m256` behind AVX2+FMA and by
/// `[f32; 8]` everywhere else, so there is one kernel body compiled twice.
trait Lanes: Copy {
    fn splat(v: f32) -> Self;
    fn load(s: &[f32; CHUNK]) -> Self;
    fn store(self, s: &mut [f32; CHUNK]);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    fn max(self, o: Self) -> Self;
    fn sqrt(self) -> Self;
    /// `self·b + c`, fused.
    fn fma(self, b: Self, c: Self) -> Self;
    /// `c − self·b`, fused.
    fn fnma(self, b: Self, c: Self) -> Self;
    /// The `fsel` select: `self` in lanes where `lo < s < hi`, `+0.0`
    /// elsewhere (including unordered `s`).
    fn keep_where_inside(self, s: Self, lo: Self, hi: Self) -> Self;
    /// Bit `l` set where lane `l` of `self` is `≤` lane `l` of `o`.
    fn le_bits(self, o: Self) -> u32;
    /// Rotate by one lane: lane `l` takes lane `l + 1 (mod 8)`.
    fn rot1(self) -> Self;
}

impl Lanes for [f32; CHUNK] {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; CHUNK]
    }
    #[inline(always)]
    fn load(s: &[f32; CHUNK]) -> Self {
        *s
    }
    #[inline(always)]
    fn store(self, s: &mut [f32; CHUNK]) {
        *s = self;
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] + o[l])
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] - o[l])
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] * o[l])
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] / o[l])
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l].max(o[l]))
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        self.map(f32::sqrt)
    }
    #[inline(always)]
    fn fma(self, b: Self, c: Self) -> Self {
        std::array::from_fn(|l| self[l].mul_add(b[l], c[l]))
    }
    #[inline(always)]
    fn fnma(self, b: Self, c: Self) -> Self {
        std::array::from_fn(|l| (-self[l]).mul_add(b[l], c[l]))
    }
    #[inline(always)]
    fn keep_where_inside(self, s: Self, lo: Self, hi: Self) -> Self {
        std::array::from_fn(|l| if s[l] > lo[l] && s[l] < hi[l] { self[l] } else { 0.0 })
    }
    #[inline(always)]
    fn le_bits(self, o: Self) -> u32 {
        (0..CHUNK).fold(0, |bits, l| bits | (u32::from(self[l] <= o[l]) << l))
    }
    #[inline(always)]
    fn rot1(self) -> Self {
        std::array::from_fn(|l| self[(l + 1) % CHUNK])
    }
}

/// Eight consecutive entries of `s` starting at `i`, as a lane array.
#[inline(always)]
fn at8(s: &[f32], i: usize) -> &[f32; CHUNK] {
    s[i..i + CHUNK].try_into().expect("eight lanes")
}

/// `s[8·chunk..][..8] += v` — the one read-modify-write a chunk's
/// accumulator sees per tile (source) or per partner sweep (target).
#[inline(always)]
fn accumulate<V: Lanes>(s: &mut [f32], chunk: usize, v: V) {
    let slot: &mut [f32; CHUNK] = (&mut s[CHUNK * chunk..CHUNK * (chunk + 1)])
        .try_into()
        .expect("eight lanes");
    V::load(slot).add(v).store(slot);
}

/// The kernel's constants, splat once per leaf pair.
struct Consts<V> {
    eps: V,
    rcut2: V,
    zero: V,
    one: V,
    coeffs: [V; 6],
}

/// Pair displacement, `s = d·d` and the masked force factor
/// `f_SR(s)` for eight (target, source) pairs: `1/sqrt`, cube, FMA
/// Horner chain and the combined `0 < s < r_cut²` select — the same
/// arithmetic per lane as the scalar [`ForceKernel::factor`].
#[inline(always)]
fn pair_factor<V: Lanes>(k: &Consts<V>, t: &[V; 4], src: &[V; 4]) -> ([V; 3], V) {
    let d = [src[0].sub(t[0]), src[1].sub(t[1]), src[2].sub(t[2])];
    let s = d[2].fma(d[2], d[1].fma(d[1], d[0].mul(d[0])));
    let inv = k.one.div(s.add(k.eps).sqrt());
    let inv3 = inv.mul(inv).mul(inv);
    let mut p = k.coeffs[5];
    for c in k.coeffs[..5].iter().rev() {
        p = p.fma(s, *c);
    }
    (d, inv3.sub(p).keep_where_inside(s, k.zero, k.rcut2))
}

/// One 8 × 8 cross tile. Targets stay in their lanes; the source chunk
/// and its reaction accumulators rotate one lane per step, so after
/// eight steps every target lane has met every source lane (64 pairs)
/// and the reactions are back in source order. `+f` accumulates into
/// `acc` (kept in registers by the caller across partner chunks); the
/// returned `−f` is the source chunk's reaction.
#[inline(always)]
fn cross_tile<V: Lanes>(k: &Consts<V>, t: &[V; 4], mut src: [V; 4], acc: &mut [V; 3]) -> [V; 3] {
    let mut react = [k.zero; 3];
    for _ in 0..CHUNK {
        let (d, g) = pair_factor(k, t, &src);
        let wt = src[3].mul(g);
        let ws = t[3].mul(g);
        for c in 0..3 {
            acc[c] = d[c].fma(wt, acc[c]);
            react[c] = d[c].fnma(ws, react[c]).rot1();
        }
        src = src.map(V::rot1);
    }
    react
}

/// A chunk against itself: rotations 1..7 meet every ordered pair of
/// distinct lanes once, each accumulating on its target lane only (the
/// mirrored pair delivers the reaction), so no reaction traffic.
#[inline(always)]
fn self_tile<V: Lanes>(k: &Consts<V>, t: &[V; 4], acc: &mut [V; 3]) {
    let mut src = *t;
    for _ in 1..CHUNK {
        src = src.map(V::rot1);
        let (d, g) = pair_factor(k, t, &src);
        let wt = src[3].mul(g);
        for c in 0..3 {
            acc[c] = d[c].fma(wt, acc[c]);
        }
    }
}

/// The body of [`leaf_pair`], generic over the lane type.
#[inline(always)]
fn leaf_pair_on<V: Lanes>(
    k: &ForceKernel,
    c: &Chunks,
    a: std::ops::Range<usize>,
    b: std::ops::Range<usize>,
    force: &mut [Vec<f32>; 3],
) -> u64 {
    let consts = Consts {
        eps: V::splat(k.eps),
        rcut2: V::splat(k.rcut2),
        zero: V::splat(0.0),
        one: V::splat(1.0),
        coeffs: k.coeffs.map(V::splat),
    };
    let chunk = |i: usize| -> [V; 4] {
        [
            V::load(at8(c.pos[0], CHUNK * i)),
            V::load(at8(c.pos[1], CHUNK * i)),
            V::load(at8(c.pos[2], CHUNK * i)),
            V::load(at8(c.mass, CHUNK * i)),
        ]
    };
    let same_leaf = a.start == b.start;
    let mut evals = 0u64;
    for i in a {
        let t = chunk(i);
        let ni = u64::from(c.len[i]);
        let mut acc = [consts.zero; 3];
        let first = if same_leaf {
            // Upper triangle of the leaf's chunk pairs: the diagonal
            // tile here, partners `j > i` below.
            self_tile(&consts, &t, &mut acc);
            evals += ni * ni.saturating_sub(1) / 2;
            i + 1
        } else {
            b.start
        };
        let tlo = [0, 1, 2].map(|ax| V::splat(c.lo[ax][i]));
        let thi = [0, 1, 2].map(|ax| V::splat(c.hi[ax][i]));
        for j0 in (first..b.end).step_by(CHUNK) {
            // Box-to-box distance to eight partner chunks at once, in the
            // kernel's own `s` summation order so rounding can never put a
            // box farther than a pair inside it.
            let gap = [0, 1, 2].map(|ax| {
                let lo = V::load(at8(c.lo[ax], j0));
                let hi = V::load(at8(c.hi[ax], j0));
                lo.sub(thi[ax]).max(tlo[ax].sub(hi)).max(consts.zero)
            });
            let d2 = gap[2].fma(gap[2], gap[1].fma(gap[1], gap[0].mul(gap[0])));
            let live = (1u32 << (b.end - j0).min(CHUNK)) - 1;
            let mut near = d2.le_bits(consts.rcut2) & live;
            while near != 0 {
                let j = j0 + near.trailing_zeros() as usize;
                near &= near - 1;
                let react = cross_tile(&consts, &t, chunk(j), &mut acc);
                for (f, r) in force.iter_mut().zip(react) {
                    accumulate(f, j, r);
                }
                evals += ni * u64::from(c.len[j]);
            }
        }
        for (f, v) in force.iter_mut().zip(acc) {
            accumulate(f, i, v);
        }
    }
    evals
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA kernels. Every function here is `#[target_feature(enable
    //! = "avx2,fma")]`: intrinsic calls inside are safe (the feature is
    //! statically enabled for the function body), while *calling* these
    //! functions is unsafe unless the caller proves the CPU support —
    //! which [`super::detect`] does once per process.

    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_and_ps, _mm256_cmp_ps, _mm256_div_ps, _mm256_fmadd_ps,
        _mm256_fnmadd_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_movemask_ps, _mm256_mul_ps,
        _mm256_permutevar8x32_ps, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps,
        _mm256_sqrt_ps, _mm256_storeu_ps, _mm256_sub_ps, _CMP_GT_OQ, _CMP_LE_OQ, _CMP_LT_OQ,
    };

    use super::{leaf_pair_on, Chunks, Lanes};
    use crate::kernel::ForceKernel;

    const LANES: usize = 8;

    /// One-sided AVX2 row: force on one target from `n` sources.
    ///
    /// The cutoff/self-interaction select is the `fsel` idiom: two
    /// ordered compares produce lane masks, the AND of which zeroes the
    /// force factor lanes outside `0 < s < r_cut²` with no branch.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub fn row_one_sided(
        k: &ForceKernel,
        tx: f32,
        ty: f32,
        tz: f32,
        sx: &[f32],
        sy: &[f32],
        sz: &[f32],
        sm: &[f32],
    ) -> [f32; 3] {
        let n = sx.len();
        debug_assert!(sy.len() == n && sz.len() == n && sm.len() == n);
        let txv = _mm256_set1_ps(tx);
        let tyv = _mm256_set1_ps(ty);
        let tzv = _mm256_set1_ps(tz);
        let epsv = _mm256_set1_ps(k.eps);
        let rc2v = _mm256_set1_ps(k.rcut2);
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let c = k.coeffs;
        let (c0, c1, c2) = (_mm256_set1_ps(c[0]), _mm256_set1_ps(c[1]), _mm256_set1_ps(c[2]));
        let (c3, c4, c5) = (_mm256_set1_ps(c[3]), _mm256_set1_ps(c[4]), _mm256_set1_ps(c[5]));
        let mut accx = zero;
        let mut accy = zero;
        let mut accz = zero;
        let blocks = n / LANES;
        for b in 0..blocks {
            let j = b * LANES;
            // SAFETY: `j + 8 <= n` and all four slices have length `n`
            // (asserted above), so each unaligned 8-float load reads
            // in-bounds memory.
            let (sxv, syv, szv, smv) = unsafe {
                (
                    _mm256_loadu_ps(sx.as_ptr().add(j)),
                    _mm256_loadu_ps(sy.as_ptr().add(j)),
                    _mm256_loadu_ps(sz.as_ptr().add(j)),
                    _mm256_loadu_ps(sm.as_ptr().add(j)),
                )
            };
            let dx = _mm256_sub_ps(sxv, txv);
            let dy = _mm256_sub_ps(syv, tyv);
            let dz = _mm256_sub_ps(szv, tzv);
            let s = _mm256_fmadd_ps(dz, dz, _mm256_fmadd_ps(dy, dy, _mm256_mul_ps(dx, dx)));
            let inv = _mm256_div_ps(one, _mm256_sqrt_ps(_mm256_add_ps(s, epsv)));
            let inv3 = _mm256_mul_ps(_mm256_mul_ps(inv, inv), inv);
            let mut p = c5;
            p = _mm256_fmadd_ps(p, s, c4);
            p = _mm256_fmadd_ps(p, s, c3);
            p = _mm256_fmadd_ps(p, s, c2);
            p = _mm256_fmadd_ps(p, s, c1);
            p = _mm256_fmadd_ps(p, s, c0);
            let g = _mm256_sub_ps(inv3, p);
            // Branch-free `fsel`: mask lanes with s ∉ (0, rcut²) to zero.
            let mask = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GT_OQ>(s, zero),
                _mm256_cmp_ps::<_CMP_LT_OQ>(s, rc2v),
            );
            let g = _mm256_and_ps(g, mask);
            let wt = _mm256_mul_ps(smv, g);
            accx = _mm256_fmadd_ps(dx, wt, accx);
            accy = _mm256_fmadd_ps(dy, wt, accy);
            accz = _mm256_fmadd_ps(dz, wt, accz);
        }
        let mut out = [hsum(accx), hsum(accy), hsum(accz)];
        for j in blocks * LANES..n {
            let dx = sx[j] - tx;
            let dy = sy[j] - ty;
            let dz = sz[j] - tz;
            let s = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
            let w = sm[j] * k.factor(s);
            out[0] = dx.mul_add(w, out[0]);
            out[1] = dy.mul_add(w, out[1]);
            out[2] = dz.mul_add(w, out[2]);
        }
        out
    }

    /// `__m256` as the tile kernel's lane type.
    ///
    /// Invariant: values of this type are created and used only beneath
    /// [`leaf_pair`], whose `#[target_feature]` gate the dispatcher opens
    /// after [`super::detect`] confirmed AVX2+FMA. The methods are
    /// `#[inline(always)]`, so they become part of that function's body
    /// and the intrinsics run with the features statically enabled.
    #[derive(Clone, Copy)]
    struct Avx(__m256);

    impl Lanes for Avx {
        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: (this and every block in this impl) AVX2+FMA are
            // available, per the type's invariant; the intrinsics have no
            // other precondition. Loads and stores go through `&[f32; 8]`
            // references, which are exactly the 32 bytes accessed.
            Avx(unsafe { _mm256_set1_ps(v) })
        }
        #[inline(always)]
        fn load(s: &[f32; LANES]) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_loadu_ps(s.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, s: &mut [f32; LANES]) {
            // SAFETY: see `splat`.
            unsafe { _mm256_storeu_ps(s.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_add_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_sub_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_mul_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_div_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_max_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_sqrt_ps(self.0) })
        }
        #[inline(always)]
        fn fma(self, b: Self, c: Self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_fmadd_ps(self.0, b.0, c.0) })
        }
        #[inline(always)]
        fn fnma(self, b: Self, c: Self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_fnmadd_ps(self.0, b.0, c.0) })
        }
        #[inline(always)]
        fn keep_where_inside(self, s: Self, lo: Self, hi: Self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe {
                let mask = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_GT_OQ>(s.0, lo.0),
                    _mm256_cmp_ps::<_CMP_LT_OQ>(s.0, hi.0),
                );
                _mm256_and_ps(self.0, mask)
            })
        }
        #[inline(always)]
        fn le_bits(self, o: Self) -> u32 {
            // SAFETY: see `splat`.
            unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(self.0, o.0)) as u32 }
        }
        #[inline(always)]
        fn rot1(self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe {
                _mm256_permutevar8x32_ps(self.0, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0))
            })
        }
    }

    /// [`super::leaf_pair`] with the tile kernel lowered to AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub fn leaf_pair(
        k: &ForceKernel,
        c: &Chunks,
        a: std::ops::Range<usize>,
        b: std::ops::Range<usize>,
        force: &mut [Vec<f32>; 3],
    ) -> u64 {
        leaf_pair_on::<Avx>(k, c, a, b, force)
    }

    /// Horizontal sum of 8 lanes in a fixed (lane-index) order, so the
    /// result is deterministic and matches the portable path's block
    /// reduction structure.
    #[target_feature(enable = "avx2,fma")]
    fn hsum(v: __m256) -> f32 {
        let mut lanes = [0.0f32; LANES];
        // SAFETY: `lanes` is exactly 8 f32s, matching the 256-bit store.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) };
        lanes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> ForceKernel {
        ForceKernel::new([0.1, -0.02, 0.003, -0.0004, 0.00005, -0.000006], 3.0, 1e-5)
    }

    fn rand_sources(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 * 4.0 - 2.0
        };
        let xs: Vec<f32> = (0..n).map(|_| next()).collect();
        let ys: Vec<f32> = (0..n).map(|_| next()).collect();
        let zs: Vec<f32> = (0..n).map(|_| next()).collect();
        let ms: Vec<f32> = (0..n).map(|_| next().abs() + 0.5).collect();
        (xs, ys, zs, ms)
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(detect(), detect());
    }

    #[test]
    fn simd_matches_scalar_one_sided() {
        let k = kernel();
        for n in [0usize, 1, 7, 8, 9, 16, 100, 129] {
            let (xs, ys, zs, ms) = rand_sources(n, 40 + n as u64);
            let a = k.force_on(0.1, -0.2, 0.3, &xs, &ys, &zs, &ms);
            let b = force_on_best(&k, 0.1, -0.2, 0.3, &xs, &ys, &zs, &ms);
            for c in 0..3 {
                let tol = 2e-4 * (a[c].abs() + 1.0);
                assert!((a[c] - b[c]).abs() < tol, "n={n} c={c}: {} vs {}", a[c], b[c]);
            }
        }
    }

    /// Two leaves' worth of chunked storage for the tile tests: `na` and
    /// `nb` real particles, each padded to whole chunks the way the tree
    /// lays them out, with exact chunk boxes.
    struct Packed {
        pos: [Vec<f32>; 3],
        mass: Vec<f32>,
        lo: [Vec<f32>; 3],
        hi: [Vec<f32>; 3],
        len: Vec<u8>,
    }

    impl Packed {
        fn new(leaves: &[usize], seed: u64) -> Self {
            const FAR: f32 = 1.0e10;
            let mut p = Packed {
                pos: Default::default(),
                mass: Vec::new(),
                lo: Default::default(),
                hi: Default::default(),
                len: Vec::new(),
            };
            for (l, &n) in leaves.iter().enumerate() {
                let (xs, ys, zs, ms) = rand_sources(n, seed + l as u64);
                for start in (0..n).step_by(CHUNK) {
                    let real = (n - start).min(CHUNK);
                    p.len.push(real as u8);
                    for (ax, src) in [&xs, &ys, &zs].into_iter().enumerate() {
                        let lanes = &src[start..start + real];
                        p.pos[ax].extend_from_slice(lanes);
                        p.pos[ax].resize(p.pos[ax].len() + CHUNK - real, FAR);
                        p.lo[ax].push(lanes.iter().copied().fold(f32::INFINITY, f32::min));
                        p.hi[ax].push(lanes.iter().copied().fold(f32::NEG_INFINITY, f32::max));
                    }
                    p.mass.extend_from_slice(&ms[start..start + real]);
                    p.mass.resize(p.mass.len() + CHUNK - real, 0.0);
                }
            }
            for b in p.lo.iter_mut().chain(p.hi.iter_mut()) {
                b.resize(b.len() + CHUNK - 1, FAR);
            }
            p
        }

        fn view(&self) -> Chunks<'_> {
            Chunks {
                pos: [&self.pos[0], &self.pos[1], &self.pos[2]],
                mass: &self.mass,
                lo: [&self.lo[0], &self.lo[1], &self.lo[2]],
                hi: [&self.hi[0], &self.hi[1], &self.hi[2]],
                len: &self.len,
            }
        }

        fn zeros(&self) -> [Vec<f32>; 3] {
            std::array::from_fn(|_| vec![0.0; self.mass.len()])
        }
    }

    /// Cross pairs, self pairs and every pad count 0..7 against the
    /// scalar one-sided reference, on whichever lowering `detect` picks.
    #[test]
    fn leaf_pair_matches_scalar_reference() {
        let k = kernel();
        for (na, nb) in [(1usize, 1usize), (3, 17), (24, 24), (40, 9), (8, 15)] {
            let p = Packed::new(&[na, nb], 7 + na as u64);
            let (ca, cb) = (na.div_ceil(CHUNK), nb.div_ceil(CHUNK));
            let mut f = p.zeros();
            let cross = leaf_pair(&k, &p.view(), 0..ca, ca..ca + cb, &mut f);
            let own = leaf_pair(&k, &p.view(), 0..ca, 0..ca, &mut f)
                + leaf_pair(&k, &p.view(), ca..ca + cb, ca..ca + cb, &mut f);
            // rcut = 3 covers most of the [-2, 2]³ cloud, so the cull
            // passes (nearly) everything; it can only ever drop pairs.
            assert!(cross <= (na * nb) as u64);
            assert!(own <= (na * (na - 1) / 2 + nb * (nb - 1) / 2) as u64);
            for (slot, &m) in p.mass.iter().enumerate() {
                let got = [f[0][slot], f[1][slot], f[2][slot]];
                if m == 0.0 {
                    assert_eq!(got, [0.0; 3], "pad slot {slot} received force");
                    continue;
                }
                let want = k.force_on(
                    p.pos[0][slot], p.pos[1][slot], p.pos[2][slot],
                    &p.pos[0], &p.pos[1], &p.pos[2], &p.mass,
                );
                for c in 0..3 {
                    let tol = 3e-4 * (want[c].abs() + 1.0);
                    assert!((got[c] - want[c]).abs() < tol, "({na},{nb}) slot {slot} c={c}");
                }
            }
        }
    }

    /// The two lowerings of the one generic body agree to f32 rounding
    /// (bit for bit where the host's `mul_add` is a true FMA).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tile_matches_portable_tile() {
        if detect() != SimdLevel::Avx2Fma {
            return;
        }
        let k = kernel();
        let p = Packed::new(&[37, 52], 91);
        let (ca, cb) = (5, 7);
        let (mut fa, mut fp) = (p.zeros(), p.zeros());
        for (a, b) in [(0..ca, ca..ca + cb), (0..ca, 0..ca), (ca..ca + cb, ca..ca + cb)] {
            // SAFETY: AVX2+FMA confirmed by `detect()` just above.
            let ea = unsafe { avx2::leaf_pair(&k, &p.view(), a.clone(), b.clone(), &mut fa) };
            let ep = leaf_pair_on::<[f32; CHUNK]>(&k, &p.view(), a, b, &mut fp);
            assert_eq!(ea, ep, "both lowerings cull the same chunk pairs");
        }
        for (a, b) in fa.iter().flatten().zip(fp.iter().flatten()) {
            assert!((a - b).abs() <= 1e-5 * (a.abs() + 1.0), "{a} vs {b}");
        }
    }
}
