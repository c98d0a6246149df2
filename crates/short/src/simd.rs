//! Explicit SIMD force kernels with runtime dispatch.
//!
//! The paper's BG/Q kernel is hand-written QPX at the machine's full
//! vector width: 4-wide vectors, 2-fold unrolled, with the cutoff and
//! self-interaction tests folded into the arithmetic as `fsel` selects so
//! the inner loop is branch-free. This module is the x86 analogue, one
//! tile body in three lowerings:
//!
//! * AVX-512F: a 16-lane tile — one target chunk against *two* source
//!   chunks, `1/√x` as `rsqrt14` plus one Newton step, and the `fsel`
//!   idiom as a compare into a lane mask and a zero-masking move;
//! * AVX2+FMA, written against `core::arch::x86_64` — 8 lanes of `f32`,
//!   FMA Horner chain for the poly5, and the `fsel` idiom realized as a
//!   compare → lane-mask → bitwise-AND (zero the force factor outside
//!   `0 < s < r_cut²` without branching);
//! * a portable lowering on `[f32; 8]` in plain Rust.
//!
//! The path is chosen once per process by runtime feature detection
//! ([`detect`]); all produce results equal to the scalar
//! [`ForceKernel::force_on`] reference to f32 rounding.
//!
//! There is one kernel shape, `leaf_pair`, and both short-range solvers
//! (the bisection tree and the chaining-mesh tree of P³M) run it: a
//! listed leaf pair is evaluated chunk × chunk ([`CHUNK`] = 8
//! particles). A vectorised box test discards chunk pairs farther apart
//! than `r_cut`; the survivors run through a *lane-rotation tile* that
//! evaluates every pair **once**, `+f` on the target lane and the
//! Newton-3 reaction `−f` on the source lane — 8 × 8 per source chunk, or
//! 8 × 16 over two source chunks of one cull mask on AVX-512. The tile is
//! one generic body over the private `Lanes` vocabulary, compiled once
//! per lowering — there is no row kernel, no horizontal sum and no scalar
//! tail. A leaf pair's partials sum in an f32 block of its own chunks and
//! are flushed as integers into a fixed-point accumulator
//! (`FixedForce`), the first leaf's once per run of pairs that share it,
//! so the order in which runs are flushed cannot change a bit of the
//! result.

use crate::kernel::ForceKernel;

/// Which kernel implementation runtime detection selected, narrowest
/// first, so `level >= SimdLevel::Avx2Fma` reads "AVX2 or wider".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// 8-lane blocked portable Rust (auto-vectorized).
    Portable,
    /// `core::arch::x86_64` AVX2 + FMA intrinsics.
    Avx2Fma,
    /// AVX2 + FMA, with the symmetric tile at 16 lanes on AVX-512F.
    Avx512,
}

/// Detect the best available kernel path (cached after the first call).
#[must_use]
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        const LEVELS: [SimdLevel; 3] = [SimdLevel::Portable, SimdLevel::Avx2Fma, SimdLevel::Avx512];
        // 0 until the first probe, then 1 + the level's index.
        static CACHED: AtomicU8 = AtomicU8::new(0);
        match CACHED.load(Ordering::Relaxed) {
            0 => {
                let avx2 = std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma");
                let level = match (avx2, std::arch::is_x86_feature_detected!("avx512f")) {
                    (true, true) => SimdLevel::Avx512,
                    (true, false) => SimdLevel::Avx2Fma,
                    (false, _) => SimdLevel::Portable,
                };
                CACHED.store(level as u8 + 1, Ordering::Relaxed);
                level
            }
            cached => LEVELS[usize::from(cached - 1)],
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Portable
    }
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
/// order, or `a == b` for a leaf's self pair), and `shift` the image
/// offset added to every coordinate and chunk box of `b`. A box-distance
/// test picks the chunk pairs within `r_cut`; the survivors run through
/// the lane-rotation tile, which adds `+f` to the target chunk's partial
/// and the Newton-3 reaction `−f` to the source chunk's. An unshifted
/// self pair evaluates the upper triangle of its chunk pairs, a shifted
/// one (a leaf against its own image) the full square.
///
/// The partials sum in `force`'s f32 block. `b`'s chunks are flushed into
/// their fixed-point slots at the end of the call; `a`'s stay open across
/// the consecutive calls that share `a` — a *run* — and are flushed by
/// the one that passes `close`, so a run converts its first leaf once.
/// Every run must end with `close`. Returns the kernel evaluations sent
/// through the tiles, counted over real particles only.
pub(crate) fn leaf_pair(
    k: &ForceKernel,
    c: &Chunks,
    a: std::ops::Range<usize>,
    b: std::ops::Range<usize>,
    shift: [f32; 3],
    close: bool,
    force: &mut FixedForce,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    match detect() {
        SimdLevel::Avx512 => {
            // SAFETY: `detect()` confirmed AVX-512F, AVX2 and FMA on this
            // CPU, which is exactly the target-feature set the callee enables.
            return unsafe { avx512::leaf_pair(k, c, a, b, shift, close, force) };
        }
        SimdLevel::Avx2Fma => {
            // SAFETY: `detect()` confirmed AVX2 and FMA are available on this
            // CPU, which is exactly the target-feature set the callee enables.
            return unsafe { avx2::leaf_pair(k, c, a, b, shift, close, force) };
        }
        SimdLevel::Portable => {}
    }
    leaf_pair_on::<[f32; CHUNK], [f32; CHUNK]>(k, c, a, b, shift, close, force)
}

/// Bits of headroom the fixed-point scale leaves below `i64::MAX`: a
/// slot's largest possible sum is held to `2^(63 − SLOT_HEADROOM_BITS)`.
const SLOT_HEADROOM_BITS: i32 = 2;

/// The coarsest fixed-point unit a pass accepts, `2^−MIN_SCALE_BITS`:
/// finer than f32's round-off of any per-particle force of magnitude
/// ≥ 1 (the engines' unit masses in grid units).
const MIN_SCALE_BITS: i32 = 24;

/// Forces in slot order as i64 fixed point, one per pool worker, and
/// the f32 block the open run of leaf pairs sums into.
///
/// A slot holds `Σ round(v · 2^k)` over the flushes into it, `v` the
/// f32 partial of one leaf pair's second leaf or of one run's first
/// leaf. Integer adds are exact, so the sum — and the `i64 · 2^−k → f32`
/// conversion of it — is the same whatever order the runs are flushed in
/// and however they are shared among accumulators.
#[derive(Default)]
pub(crate) struct FixedForce {
    /// Per axis, one entry per storage slot.
    pub(crate) acc: [Vec<i64>; 3],
    /// `2^k` and `2^−k`.
    scale: f64,
    unit: f64,
    /// The open run's partials per local chunk — its first leaf's chunks,
    /// then the current pair's second leaf's unless it is the same leaf —
    /// as x, y and z lanes. All zero outside an open run.
    block: Vec<[[f32; CHUNK]; 3]>,
    /// Local chunks the open run has written. `block` and `touched` hold
    /// two of the tree's largest leaves, sized at pass start.
    touched: Vec<bool>,
    /// First chunk of the open run's `a` leaf, `None` between runs.
    open: Option<usize>,
}

impl FixedForce {
    /// Zero `slots` slots, set the flush scale to `2^k` and make the run
    /// block hold `local` chunks (two of the largest leaf's). Both grow
    /// with headroom, so a rebuild that shifts the padding or grows the
    /// largest leaf a little does not allocate.
    pub(crate) fn reset(&mut self, slots: usize, k: i32, local: usize) {
        for v in &mut self.acc {
            if v.capacity() < slots {
                *v = Vec::with_capacity(slots + slots / 8);
            }
            v.clear();
            v.resize(slots, 0);
        }
        if self.block.len() < local {
            let room = local + local / 2;
            self.block.resize(room, [[0.0; CHUNK]; 3]);
            self.touched.resize(room, false);
        }
        self.scale = 2f64.powi(k);
        self.unit = 2f64.powi(-k);
        debug_assert!(self.open.is_none(), "a run was left open");
    }

    /// Slot `slot`'s force along `axis`: `i64 · 2^−k`, rounded to f32.
    #[inline]
    pub(crate) fn value(&self, axis: usize, slot: usize) -> f32 {
        (self.acc[axis][slot] as f64 * self.unit) as f32
    }

    /// Add `other`'s slots into these (exact integer adds).
    pub(crate) fn absorb(&mut self, other: &FixedForce) {
        for (a, o) in self.acc.iter_mut().zip(&other.acc) {
            for (x, &y) in a.iter_mut().zip(o) {
                *x += y;
            }
        }
    }
}

/// The fixed-point exponent `k` of a pass whose slots each receive at
/// most `s_max` terms, with largest mass `m_max`: the largest integer
/// with `s_max · m_max · F · 2^k ≤ 2^(63 − SLOT_HEADROOM_BITS)`, where
/// `F` bounds one pair's `|d · f_SR|` (`pair_bound`). The tree passes
/// `S_max`, the most partner-leaf particles any leaf meets across the
/// listed pairs: a slot receives at most one term per listed partner
/// particle, each at most `m_max · F`, so no slot can overflow; the
/// headroom absorbs the f32 round-off of the partials and the flushes'
/// half-unit roundings. Capped at 127, past which a unit is finer than
/// any f32 force needs.
///
/// # Panics
/// If `k < MIN_SCALE_BITS`: masses, neighbour counts or softening whose
/// bound leaves no room for the minimum resolution are refused here,
/// never wrapped.
pub(crate) fn fixed_point_exponent(k: &ForceKernel, s_max: usize, m_max: f32) -> i32 {
    let f = pair_bound(k);
    let room = f64::from(63 - SLOT_HEADROOM_BITS) - (s_max as f64 * f64::from(m_max) * f).log2();
    assert!(
        room >= f64::from(MIN_SCALE_BITS),
        "short-range fixed point: S_max · m_max · max|d·f_SR| = {s_max} · {m_max:e} · {f:e} \
         leaves 2^{room:.1} for the scale, below the 2^{MIN_SCALE_BITS} minimum"
    );
    room.min(127.0) as i32
}

/// An upper bound on `|d · f_SR(s)| = √s · |(s + ε)^−3/2 − poly5(s)|`
/// over the kernel's live range `0 < s < r_cut²`: the softened inverse
/// square peaks at `s = ε/2` (or at `r_cut²` when that is nearer), and
/// `√s · |poly5(s)| ≤ r_cut · Σ |c_i| r_cut^(2i)`. Infinite for `ε = 0`.
fn pair_bound(k: &ForceKernel) -> f64 {
    let (eps, rc2) = (f64::from(k.eps), f64::from(k.rcut2));
    let s = (eps / 2.0).min(rc2);
    let newton = if eps > 0.0 { s.sqrt() * (s + eps).powf(-1.5) } else { f64::INFINITY };
    let poly: f64 = k.coeffs.iter().rev().fold(0.0, |p, &c| p * rc2 + f64::from(c).abs());
    newton + rc2.sqrt() * poly
}

/// `round(v · scale)` to the nearest integer (ties to even), exact for
/// `|v · scale| < 2^62` with `scale` a power of two. Two limbs of the
/// `1.5 · 2^52` trick: adding the magic puts an integer-valued f64 of
/// magnitude below `2^51` into the low mantissa bits, so the round and
/// the conversion are plain f64 adds and i64 subtracts that vectorise
/// in both lowerings (there is no packed f64 → i64 convert in AVX2).
#[inline(always)]
fn fix(v: f32, scale: f64) -> i64 {
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    const LIMB: f64 = 4_294_967_296.0; // 2^32
    let bits = |x: f64| (x + MAGIC).to_bits() as i64 - MAGIC.to_bits() as i64;
    // `y` is exact (an f32 times a power of two); `hi` is `y / 2^32`
    // rounded, and `lo = y − hi · 2^32` is exact with `|lo| ≤ 2^31`.
    let y = f64::from(v) * scale;
    let hi = (y * (1.0 / LIMB) + MAGIC) - MAGIC;
    let lo = y - hi * LIMB;
    (bits(hi) << 32) + bits(lo)
}

/// Lane arithmetic — the one vocabulary the tile kernel is written in,
/// at either width. A 16-lane value is two chunks of eight lanes side by
/// side: [`Lanes::rot1`] rotates each chunk on its own, every other
/// operation is lane by lane.
trait Lanes: Copy {
    fn splat(v: f32) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    /// `self·b + c`, fused.
    fn fma(self, b: Self, c: Self) -> Self;
    /// `c − self·b`, fused.
    fn fnma(self, b: Self, c: Self) -> Self;
    /// `1/√self`.
    fn rsqrt(self) -> Self;
    /// The `fsel` select: `self` in lanes where `lo < s < hi`, `+0.0`
    /// elsewhere (including unordered `s`).
    fn keep_where_inside(self, s: Self, lo: Self, hi: Self) -> Self;
    /// Rotate each chunk by one lane: lane `l` takes lane `l + 1 (mod 8)`
    /// of the same chunk.
    fn rot1(self) -> Self;
}

/// One chunk's eight lanes — what the chunk cull, the partial blocks, the
/// self tile and the 8-lane cross tile work in. Implemented by `__m256`
/// behind AVX2+FMA and by `[f32; 8]` everywhere else.
trait ChunkLanes: Lanes {
    fn load(s: &[f32; CHUNK]) -> Self;
    fn store(self, s: &mut [f32; CHUNK]);
    fn max(self, o: Self) -> Self;
    /// Bit `l` set where lane `l` of `self` is `≤` lane `l` of `o`.
    fn le_bits(self, o: Self) -> u32;
}

/// The cross tile's lane type: [`Tile::SOURCES`] chunks of eight lanes,
/// each holding one source chunk against the same target chunk. Every
/// [`ChunkLanes`] type is a one-source tile; `__m512` behind AVX-512F is
/// the two-source one.
trait Tile: Lanes {
    type Chunk: ChunkLanes;
    /// Source chunks per tile: 1 or 2.
    const SOURCES: usize;
    /// `c` in every chunk of lanes.
    fn widen(c: Self::Chunk) -> Self;
    /// `lo` in the first chunk of lanes and `hi` in the second; a
    /// one-source tile keeps `lo`.
    fn join(lo: Self::Chunk, hi: Self::Chunk) -> Self;
    /// The first and the second chunk of lanes (zero if there is none).
    fn split(self) -> [Self::Chunk; 2];
}

impl<V: ChunkLanes> Tile for V {
    type Chunk = V;
    const SOURCES: usize = 1;
    #[inline(always)]
    fn widen(c: V) -> V {
        c
    }
    #[inline(always)]
    fn join(lo: V, _: V) -> V {
        lo
    }
    #[inline(always)]
    fn split(self) -> [V; 2] {
        [self, V::splat(0.0)]
    }
}

impl Lanes for [f32; CHUNK] {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; CHUNK]
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
    fn fma(self, b: Self, c: Self) -> Self {
        std::array::from_fn(|l| self[l].mul_add(b[l], c[l]))
    }
    #[inline(always)]
    fn fnma(self, b: Self, c: Self) -> Self {
        std::array::from_fn(|l| (-self[l]).mul_add(b[l], c[l]))
    }
    #[inline(always)]
    fn rsqrt(self) -> Self {
        self.map(|x| 1.0 / x.sqrt())
    }
    #[inline(always)]
    fn keep_where_inside(self, s: Self, lo: Self, hi: Self) -> Self {
        std::array::from_fn(|l| if s[l] > lo[l] && s[l] < hi[l] { self[l] } else { 0.0 })
    }
    #[inline(always)]
    fn rot1(self) -> Self {
        std::array::from_fn(|l| self[(l + 1) % CHUNK])
    }
}

impl ChunkLanes for [f32; CHUNK] {
    #[inline(always)]
    fn load(s: &[f32; CHUNK]) -> Self {
        *s
    }
    #[inline(always)]
    fn store(self, s: &mut [f32; CHUNK]) {
        *s = self;
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l].max(o[l]))
    }
    #[inline(always)]
    fn le_bits(self, o: Self) -> u32 {
        (0..CHUNK).fold(0, |bits, l| bits | (u32::from(self[l] <= o[l]) << l))
    }
}

/// Eight consecutive entries of `s` starting at `i`, as a lane array.
#[inline(always)]
fn at8(s: &[f32], i: usize) -> &[f32; CHUNK] {
    s[i..i + CHUNK].try_into().expect("eight lanes")
}

/// `block[l] += v`, and local chunk `l` marked written — the one
/// read-modify-write a local chunk's partial sees per tile (source) or
/// per partner sweep (target).
#[inline(always)]
fn accumulate<V: ChunkLanes>(
    block: &mut [[[f32; CHUNK]; 3]],
    touched: &mut [bool],
    l: usize,
    v: [V; 3],
) {
    for (slot, v) in block[l].iter_mut().zip(v) {
        V::load(slot).add(v).store(slot);
    }
    touched[l] = true;
}

/// Per-axis tile lanes as their first and second chunk of lanes.
#[inline(always)]
fn halves<W: Tile>(v: [W; 3]) -> [[W::Chunk; 3]; 2] {
    let [x, y, z] = v.map(W::split);
    [[x[0], y[0], z[0]], [x[1], y[1], z[1]]]
}

/// Index of the lowest set bit of `bits`, which is cleared.
#[inline(always)]
fn pop_low(bits: &mut u32) -> usize {
    let l = bits.trailing_zeros() as usize;
    *bits &= *bits - 1;
    l
}

/// The kernel's constants, splat once per leaf pair.
struct Consts<V> {
    eps: V,
    rcut2: V,
    zero: V,
    coeffs: [V; 6],
}

impl<V: Lanes> Consts<V> {
    #[inline(always)]
    fn new(k: &ForceKernel) -> Self {
        Consts {
            eps: V::splat(k.eps),
            rcut2: V::splat(k.rcut2),
            zero: V::splat(0.0),
            coeffs: k.coeffs.map(V::splat),
        }
    }
}

/// Pair displacement, `s = d·d` and the masked force factor
/// `f_SR(s)` for one lane per (target, source) pair: `1/sqrt`, cube, FMA
/// Horner chain and the combined `0 < s < r_cut²` select — the same
/// arithmetic per lane as the scalar [`ForceKernel::factor`] (with
/// `rsqrt14` + Newton for `1/sqrt` on the 16-lane tile).
#[inline(always)]
fn pair_factor<V: Lanes>(k: &Consts<V>, t: &[V; 4], src: &[V; 4]) -> ([V; 3], V) {
    let d = [src[0].sub(t[0]), src[1].sub(t[1]), src[2].sub(t[2])];
    let s = d[2].fma(d[2], d[1].fma(d[1], d[0].mul(d[0])));
    let inv = s.add(k.eps).rsqrt();
    let inv3 = inv.mul(inv).mul(inv);
    let mut p = k.coeffs[5];
    for c in k.coeffs[..5].iter().rev() {
        p = p.fma(s, *c);
    }
    (d, inv3.sub(p).keep_where_inside(s, k.zero, k.rcut2))
}

/// One cross tile: 8 × 8 per source chunk in the lanes. Targets stay in
/// their lanes; each source chunk and its reaction accumulators rotate
/// one lane per step within their chunk of lanes, so after eight steps
/// every target lane has met every lane of every source chunk and the
/// reactions are back in source order. `+f` accumulates into `acc`
/// (kept in registers by the caller across partner chunks); the
/// returned `−f` is the source chunks' reaction.
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

/// The body of [`leaf_pair`], generic over the chunk lane type `V` and
/// the cross tile's lane type `W`: `W = V` runs every near partner chunk
/// through its own 8 × 8 tile; a two-source `W` takes the near partners
/// of one cull mask two at a time, and an odd leftover runs 8 × 8.
#[inline(always)]
fn leaf_pair_on<V: ChunkLanes, W: Tile<Chunk = V>>(
    k: &ForceKernel,
    c: &Chunks,
    a: std::ops::Range<usize>,
    b: std::ops::Range<usize>,
    shift: [f32; 3],
    close: bool,
    force: &mut FixedForce,
) -> u64 {
    let narrow = Consts::<V>::new(k);
    let wide = Consts::<W>::new(k);
    let chunk = |i: usize| -> [V; 4] {
        [
            V::load(at8(c.pos[0], CHUNK * i)),
            V::load(at8(c.pos[1], CHUNK * i)),
            V::load(at8(c.pos[2], CHUNK * i)),
            V::load(at8(c.mass, CHUNK * i)),
        ]
    };
    // Source coordinates and boxes take the image shift (`+0` leaves
    // them bit-unchanged); targets never do.
    let sv = shift.map(V::splat);
    let shifted = |mut src: [V; 4]| -> [V; 4] {
        for (p, s) in src.iter_mut().zip(sv) {
            *p = p.add(s);
        }
        src
    };
    let same_leaf = a.start == b.start && shift == [0.0; 3];
    // The block's local chunks: `a`'s, then `b`'s unless `b` is `a`
    // (a self pair, shifted or not, writes one leaf's slots).
    let b_off = if a.start == b.start { 0 } else { a.len() };
    let local = b_off + b.len();
    let FixedForce {
        acc,
        scale,
        block,
        touched,
        open,
        ..
    } = force;
    debug_assert!(open.is_none_or(|s| s == a.start), "a run was left open");
    debug_assert!(block.len() >= local, "the run block is sized at pass start");
    let mut evals = 0u64;
    for i in a.clone() {
        let t = chunk(i);
        let tw = t.map(W::widen);
        let ni = u64::from(c.len[i]);
        let mut acc_t = [narrow.zero; 3];
        let mut acc_w = [wide.zero; 3];
        let mut paired = false;
        let mut hit = same_leaf && ni > 1;
        let first = if same_leaf {
            // Upper triangle of the leaf's chunk pairs: the diagonal
            // tile here, partners `j > i` below.
            self_tile(&narrow, &t, &mut acc_t);
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
                let lo = V::load(at8(c.lo[ax], j0)).add(sv[ax]);
                let hi = V::load(at8(c.hi[ax], j0)).add(sv[ax]);
                lo.sub(thi[ax]).max(tlo[ax].sub(hi)).max(narrow.zero)
            });
            let d2 = gap[2].fma(gap[2], gap[1].fma(gap[1], gap[0].mul(gap[0])));
            let live = (1u32 << (b.end - j0).min(CHUNK)) - 1;
            let mut near = d2.le_bits(narrow.rcut2) & live;
            while near != 0 {
                let j = j0 + pop_low(&mut near);
                let l = b_off + j - b.start;
                if W::SOURCES == 2 && near != 0 {
                    let j2 = j0 + pop_low(&mut near);
                    let (s1, s2) = (shifted(chunk(j)), shifted(chunk(j2)));
                    let src = [0, 1, 2, 3].map(|q| W::join(s1[q], s2[q]));
                    let [r1, r2] = halves(cross_tile(&wide, &tw, src, &mut acc_w));
                    accumulate(block, touched, l, r1);
                    accumulate(block, touched, b_off + j2 - b.start, r2);
                    evals += ni * (u64::from(c.len[j]) + u64::from(c.len[j2]));
                    paired = true;
                } else {
                    let react = cross_tile(&narrow, &t, shifted(chunk(j)), &mut acc_t);
                    accumulate(block, touched, l, react);
                    evals += ni * u64::from(c.len[j]);
                }
                hit = true;
            }
        }
        if paired {
            // The target's sums over both halves of the 16-lane tiles, once.
            let [lo, hi] = halves(acc_w);
            acc_t = [0, 1, 2].map(|ax| acc_t[ax].add(lo[ax].add(hi[ax])));
        }
        if hit {
            accumulate(block, touched, i - a.start, acc_t);
        }
    }
    // Flush every written local chunk of `b` into its slots, and of `a`
    // when its run closes; the flushed chunks go back to zero.
    *open = (!close).then_some(a.start);
    let flush_from = if close { 0 } else { a.len() };
    for l in flush_from..local {
        if !std::mem::take(&mut touched[l]) {
            continue;
        }
        let g = if l < b_off { a.start + l } else { b.start + l - b_off };
        for (dst, part) in acc.iter_mut().zip(&mut block[l]) {
            // Convert all eight lanes before touching `dst`: in this form
            // every lowering vectorises the flush.
            let q = std::mem::take(part).map(|v| fix(v, *scale));
            let dst: &mut [i64; CHUNK] = (&mut dst[CHUNK * g..CHUNK * (g + 1)])
                .try_into()
                .expect("eight lanes");
            for (d, q) in dst.iter_mut().zip(q) {
                *d += q;
            }
        }
    }
    evals
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2+FMA tile. Every function here is `#[target_feature(enable
    //! = "avx2,fma")]`: intrinsic calls inside are safe (the feature is
    //! statically enabled for the function body), while *calling* these
    //! functions is unsafe unless the caller proves the CPU support —
    //! which [`super::detect`] does once per process.

    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_and_ps, _mm256_cmp_ps, _mm256_div_ps, _mm256_fmadd_ps,
        _mm256_fnmadd_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_movemask_ps, _mm256_mul_ps,
        _mm256_permutevar8x32_ps, _mm256_set1_ps, _mm256_setr_epi32, _mm256_sqrt_ps,
        _mm256_storeu_ps, _mm256_sub_ps, _CMP_GT_OQ, _CMP_LE_OQ, _CMP_LT_OQ,
    };

    use super::{leaf_pair_on, ChunkLanes, Chunks, FixedForce, Lanes};
    use crate::kernel::ForceKernel;

    const LANES: usize = 8;

    /// `__m256` as the tile kernel's chunk lane type.
    ///
    /// Invariant: values of this type are created and used only beneath
    /// [`leaf_pair`] and `avx512::leaf_pair`, whose `#[target_feature]`
    /// gates (AVX2+FMA, and AVX-512F on top) the dispatcher opens after
    /// [`super::detect`] confirmed them. The methods are
    /// `#[inline(always)]`, so they become part of those functions' bodies
    /// and the intrinsics run with the features statically enabled.
    #[derive(Clone, Copy)]
    pub(super) struct Avx(pub(super) __m256);

    impl Lanes for Avx {
        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: (this and every block in this impl and the
            // `ChunkLanes` one) AVX2+FMA are available, per the type's
            // invariant; the intrinsics have no other precondition. Loads
            // and stores go through `&[f32; 8]` references, which are
            // exactly the 32 bytes accessed.
            Avx(unsafe { _mm256_set1_ps(v) })
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
        fn rsqrt(self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe { _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_sqrt_ps(self.0)) })
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
        fn rot1(self) -> Self {
            // SAFETY: see `splat`.
            Avx(unsafe {
                _mm256_permutevar8x32_ps(self.0, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0))
            })
        }
    }

    impl ChunkLanes for Avx {
        #[inline(always)]
        fn load(s: &[f32; LANES]) -> Self {
            // SAFETY: see `Lanes::splat` above.
            Avx(unsafe { _mm256_loadu_ps(s.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, s: &mut [f32; LANES]) {
            // SAFETY: see `Lanes::splat` above.
            unsafe { _mm256_storeu_ps(s.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: see `Lanes::splat` above.
            Avx(unsafe { _mm256_max_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn le_bits(self, o: Self) -> u32 {
            // SAFETY: see `Lanes::splat` above.
            unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(self.0, o.0)) as u32 }
        }
    }

    /// [`super::leaf_pair`] with the tile kernel lowered to AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub fn leaf_pair(
        k: &ForceKernel,
        c: &Chunks,
        a: std::ops::Range<usize>,
        b: std::ops::Range<usize>,
        shift: [f32; 3],
        close: bool,
        force: &mut FixedForce,
    ) -> u64 {
        leaf_pair_on::<Avx, Avx>(k, c, a, b, shift, close, force)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The 16-lane tile. Its entry point is `#[target_feature(enable =
    //! "avx512f,avx2,fma")]`: calling it is unsafe unless the caller
    //! proves the CPU support, which [`super::detect`] does once per
    //! process. The chunk lane type stays `avx2::Avx`: the cull, the
    //! blocks, the self tile and an odd leftover partner run 8 lanes wide.

    use core::arch::x86_64::{
        __m512, _mm256_castpd_ps, _mm256_castps_pd, _mm512_add_ps, _mm512_castpd256_pd512,
        _mm512_castpd_ps, _mm512_castps256_ps512, _mm512_castps512_ps256, _mm512_castps_pd,
        _mm512_cmp_ps_mask, _mm512_extractf64x4_pd, _mm512_fmadd_ps, _mm512_fnmadd_ps,
        _mm512_insertf64x4, _mm512_maskz_mov_ps, _mm512_mul_ps, _mm512_permutexvar_ps,
        _mm512_rsqrt14_ps, _mm512_set1_ps, _mm512_setr_epi32, _mm512_shuffle_f32x4, _mm512_sub_ps,
        _CMP_GT_OQ, _CMP_LT_OQ,
    };

    use super::avx2::Avx;
    use super::{leaf_pair_on, Chunks, FixedForce, Lanes, Tile};
    use crate::kernel::ForceKernel;

    /// `__m512` as the two-source cross tile's lane type: lanes 0..8 hold
    /// one source chunk, lanes 8..16 another, both against one target
    /// chunk broadcast to both halves.
    ///
    /// Invariant: values of this type are created and used only beneath
    /// [`leaf_pair`], whose `#[target_feature]` gate the dispatcher opens
    /// after [`super::detect`] confirmed AVX-512F, AVX2 and FMA. The
    /// methods are `#[inline(always)]`, so they become part of that
    /// function's body and the intrinsics run with the features
    /// statically enabled.
    #[derive(Clone, Copy)]
    struct Wide(__m512);

    impl Lanes for Wide {
        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: (this and every block in this impl and the `Tile`
            // one) AVX-512F is available, per the type's invariant; the
            // intrinsics have no other precondition and touch no memory.
            Wide(unsafe { _mm512_set1_ps(v) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: see `splat`.
            Wide(unsafe { _mm512_add_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: see `splat`.
            Wide(unsafe { _mm512_sub_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: see `splat`.
            Wide(unsafe { _mm512_mul_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn fma(self, b: Self, c: Self) -> Self {
            // SAFETY: see `splat`.
            Wide(unsafe { _mm512_fmadd_ps(self.0, b.0, c.0) })
        }
        #[inline(always)]
        fn fnma(self, b: Self, c: Self) -> Self {
            // SAFETY: see `splat`.
            Wide(unsafe { _mm512_fnmadd_ps(self.0, b.0, c.0) })
        }
        /// The 14-bit estimate and one Newton step, `y · (1.5 − x/2 · y²)`:
        /// the 512-bit divider and square root would set the tile's pace.
        #[inline(always)]
        fn rsqrt(self) -> Self {
            // SAFETY: see `splat`.
            Wide(unsafe {
                let y = _mm512_rsqrt14_ps(self.0);
                let half_x = _mm512_mul_ps(self.0, _mm512_set1_ps(0.5));
                let t = _mm512_fnmadd_ps(_mm512_mul_ps(half_x, y), y, _mm512_set1_ps(1.5));
                _mm512_mul_ps(y, t)
            })
        }
        #[inline(always)]
        fn keep_where_inside(self, s: Self, lo: Self, hi: Self) -> Self {
            // SAFETY: see `splat`.
            Wide(unsafe {
                let inside = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(s.0, lo.0)
                    & _mm512_cmp_ps_mask::<_CMP_LT_OQ>(s.0, hi.0);
                _mm512_maskz_mov_ps(inside, self.0)
            })
        }
        #[inline(always)]
        fn rot1(self) -> Self {
            // SAFETY: see `splat`.
            Wide(unsafe {
                let idx = _mm512_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0, 9, 10, 11, 12, 13, 14, 15, 8);
                _mm512_permutexvar_ps(idx, self.0)
            })
        }
    }

    impl Tile for Wide {
        type Chunk = Avx;
        const SOURCES: usize = 2;
        #[inline(always)]
        fn widen(c: Avx) -> Self {
            // SAFETY: see `Lanes::splat` above. The cast leaves the upper
            // half undefined; the shuffle reads only the lower one.
            Wide(unsafe {
                let z = _mm512_castps256_ps512(c.0);
                _mm512_shuffle_f32x4::<0x44>(z, z)
            })
        }
        #[inline(always)]
        fn join(lo: Avx, hi: Avx) -> Self {
            // SAFETY: see `widen`; the insert overwrites the upper half.
            Wide(unsafe {
                let lo = _mm512_castpd256_pd512(_mm256_castps_pd(lo.0));
                _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(hi.0)))
            })
        }
        #[inline(always)]
        fn split(self) -> [Avx; 2] {
            // SAFETY: see `Lanes::splat` above.
            unsafe {
                let lo = _mm512_castps512_ps256(self.0);
                let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(self.0));
                [Avx(lo), Avx(_mm256_castpd_ps(hi))]
            }
        }
    }

    /// [`super::leaf_pair`] with near partner chunks taken two at a time
    /// through the 16-lane tile.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn leaf_pair(
        k: &ForceKernel,
        c: &Chunks,
        a: std::ops::Range<usize>,
        b: std::ops::Range<usize>,
        shift: [f32; 3],
        close: bool,
        force: &mut FixedForce,
    ) -> u64 {
        leaf_pair_on::<Avx, Wide>(k, c, a, b, shift, close, force)
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
        let level = detect();
        println!("simd::detect: {level:?}");
        assert_eq!(level, detect());
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

        /// Move chunk `ch`'s real lanes and box by `dx` along x.
        fn move_chunk(&mut self, ch: usize, dx: f32) {
            for x in &mut self.pos[0][CHUNK * ch..CHUNK * ch + usize::from(self.len[ch])] {
                *x += dx;
            }
            self.lo[0][ch] += dx;
            self.hi[0][ch] += dx;
        }

        /// A zeroed accumulator over these slots, scaled for `k`.
        fn zeros(&self, k: &ForceKernel) -> FixedForce {
            let m_max = self.mass.iter().copied().fold(0.0, f32::max);
            let mut f = FixedForce::default();
            let n = self.mass.len();
            f.reset(n, fixed_point_exponent(k, n, m_max), n / CHUNK);
            f
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
            let mut f = p.zeros(&k);
            let none = [0.0; 3];
            let cross = leaf_pair(&k, &p.view(), 0..ca, ca..ca + cb, none, false, &mut f);
            let own = leaf_pair(&k, &p.view(), 0..ca, 0..ca, none, true, &mut f)
                + leaf_pair(&k, &p.view(), ca..ca + cb, ca..ca + cb, none, true, &mut f);
            // rcut = 3 covers most of the [-2, 2]³ cloud, so the cull
            // passes (nearly) everything; it can only ever drop pairs.
            assert!(cross <= (na * nb) as u64);
            assert!(own <= (na * (na - 1) / 2 + nb * (nb - 1) / 2) as u64);
            for (slot, &m) in p.mass.iter().enumerate() {
                let got = [0, 1, 2].map(|ax| f.value(ax, slot));
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

    /// A lowering of the one generic body against the portable one: equal
    /// evaluations, forces equal to f32 rounding. Returns the evaluations.
    fn assert_matches_portable(
        k: &ForceKernel,
        p: &Packed,
        cases: &[Case],
        lowering: impl Fn(&ForceKernel, &Chunks, Range, Range, [f32; 3], bool, &mut FixedForce) -> u64,
    ) -> u64 {
        let (mut fl, mut fp) = (p.zeros(k), p.zeros(k));
        let mut evals = 0;
        for (a, b, shift, close) in cases.iter().cloned() {
            let el = lowering(k, &p.view(), a.clone(), b.clone(), shift, close, &mut fl);
            let ep = leaf_pair_on::<[f32; CHUNK], [f32; CHUNK]>(
                k,
                &p.view(),
                a,
                b,
                shift,
                close,
                &mut fp,
            );
            assert_eq!(el, ep, "both lowerings cull the same chunk pairs");
            evals += ep;
        }
        for slot in 0..p.mass.len() {
            for ax in 0..3 {
                let (l, q) = (fl.value(ax, slot), fp.value(ax, slot));
                assert!((l - q).abs() <= 1e-5 * (l.abs() + 1.0), "{l} vs {q}");
            }
        }
        evals
    }

    type Range = std::ops::Range<usize>;

    /// One `leaf_pair` call: chunk ranges `a` and `b`, `b`'s shift, and
    /// whether it closes `a`'s run.
    type Case = (Range, Range, [f32; 3], bool);

    /// Two leaves of 5 and 7 chunks, nearly all in range: one run of
    /// leaf `a` (cross pair, self pair, shifted self pair), then `b`'s
    /// self pair.
    fn run_cases() -> [Case; 4] {
        let (ca, cb) = (5, 7);
        [
            (0..ca, ca..ca + cb, [0.0; 3], false),
            (0..ca, 0..ca, [0.0; 3], false),
            (0..ca, 0..ca, [2.5, 0.0, -2.5], true),
            (ca..ca + cb, ca..ca + cb, [0.0; 3], true),
        ]
    }

    /// The AVX2 and portable lowerings of the one generic body agree to
    /// f32 rounding (bit for bit where the host's `mul_add` is a true
    /// FMA). Calls the 8-lane lowering directly, so AVX-512 hosts run it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tile_matches_portable_tile() {
        if detect() < SimdLevel::Avx2Fma {
            println!("skipped: no AVX2+FMA on this host");
            return;
        }
        let avx2 = |k: &ForceKernel, c: &Chunks, a, b, shift, close, f: &mut FixedForce| {
            // SAFETY: AVX2+FMA confirmed by `detect()` above.
            unsafe { avx2::leaf_pair(k, c, a, b, shift, close, f) }
        };
        assert_matches_portable(&kernel(), &Packed::new(&[37, 52], 91), &run_cases(), avx2);
    }

    /// The 16-lane lowering against the portable one: a cross pair with
    /// 0, 1, 2 and 3 near partner chunks (no tile, an 8-lane leftover, one
    /// 16-lane tile, one of each), then [`run_cases`], whose partners run
    /// two at a time with odd leftovers and whose self pairs, shifted or
    /// not, run the 8-lane self tile.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_tile_matches_portable_tile() {
        if detect() < SimdLevel::Avx512 {
            println!("skipped: no AVX-512F on this host");
            return;
        }
        let avx512 = |k: &ForceKernel, c: &Chunks, a, b, shift, close, f: &mut FixedForce| {
            // SAFETY: AVX-512F, AVX2 and FMA confirmed by `detect()` above.
            unsafe { avx512::leaf_pair(k, c, a, b, shift, close, f) }
        };
        let k = kernel();
        for near in 0..=3 {
            // One target chunk, three partner chunks; the last `3 − near`
            // moved far out of range.
            let mut p = Packed::new(&[8, 24], 17 + near as u64);
            for ch in 1 + near..4 {
                p.move_chunk(ch, 100.0);
            }
            let evals = assert_matches_portable(&k, &p, &[(0..1, 1..4, [0.0; 3], true)], avx512);
            assert_eq!(evals, 64 * near as u64, "{near} near partners");
        }
        assert_matches_portable(&k, &Packed::new(&[37, 52], 91), &run_cases(), avx512);
    }
}
