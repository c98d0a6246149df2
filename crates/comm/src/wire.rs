//! Typed wire codec: stable little-endian encoding for message payloads
//! plus the length-prefixed CRC frame used by byte-oriented transports.
//!
//! The in-process backend moves payloads as `Box<dyn Any>` and never
//! serializes; the socket backend flattens every `Vec<T>` through
//! [`WireMsg`] before it touches a stream. Both paths share the same
//! CRC-32 and the same "corruption is loud, never silent" rule: a frame
//! that fails any structural check is rejected whole, never resynced.
//!
//! Everything in this module is pure (no sockets, no sync primitives —
//! the one I/O-shaped function, [`write_frame`], is generic over
//! [`std::io::Write`]), so it compiles unchanged under `cfg(loom)` and
//! is directly property-testable.
//!
//! The frame has **one codec**: [`encode_header`] + the streaming
//! [`Crc32`] are the pieces, [`write_frame`] sends them with the payload
//! borrowed (one vectored write, no frame buffer), [`check_crc`]
//! verifies a payload the receiver read straight into its final buffer,
//! and [`encode_frame`] / [`decode_frame`] are the whole-buffer forms
//! of the same two functions.

/// Fixed-size little-endian encoding for a payload element.
///
/// Every type that crosses a byte-oriented transport implements this.
/// The contract: `put` appends exactly [`WIRE_SIZE`](Self::WIRE_SIZE)
/// bytes, and `get` inverts it from a slice of exactly that length.
/// Encodings are explicit per-field little-endian — never a `repr(C)`
/// memcpy — so a frame produced on one peer decodes identically on any
/// other, independent of padding or host endianness.
pub trait WireMsg: Send + Sized + 'static {
    /// Encoded size of one element in bytes.
    const WIRE_SIZE: usize;
    /// Append exactly `WIRE_SIZE` bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode from a slice of exactly `WIRE_SIZE` bytes.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! wire_prim {
    ($($t:ty),* $(,)?) => {$(
        impl WireMsg for $t {
            const WIRE_SIZE: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes.try_into().expect("wire: slice length mismatch"))
            }
        }
    )*};
}

wire_prim!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// `usize` travels as `u64` so 32- and 64-bit peers agree on framing.
impl WireMsg for usize {
    const WIRE_SIZE: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn get(bytes: &[u8]) -> Self {
        let v = u64::from_le_bytes(bytes.try_into().expect("wire: slice length mismatch"));
        usize::try_from(v).expect("wire: usize overflow on this platform")
    }
}

impl WireMsg for bool {
    const WIRE_SIZE: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

impl<T: WireMsg, const N: usize> WireMsg for [T; N] {
    const WIRE_SIZE: usize = T::WIRE_SIZE * N;
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }
    fn get(bytes: &[u8]) -> Self {
        std::array::from_fn(|i| T::get(&bytes[i * T::WIRE_SIZE..(i + 1) * T::WIRE_SIZE]))
    }
}

impl<A: WireMsg, B: WireMsg> WireMsg for (A, B) {
    const WIRE_SIZE: usize = A::WIRE_SIZE + B::WIRE_SIZE;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(bytes: &[u8]) -> Self {
        (A::get(&bytes[..A::WIRE_SIZE]), B::get(&bytes[A::WIRE_SIZE..]))
    }
}

impl<A: WireMsg, B: WireMsg, C: WireMsg> WireMsg for (A, B, C) {
    const WIRE_SIZE: usize = A::WIRE_SIZE + B::WIRE_SIZE + C::WIRE_SIZE;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(bytes: &[u8]) -> Self {
        (
            A::get(&bytes[..A::WIRE_SIZE]),
            B::get(&bytes[A::WIRE_SIZE..A::WIRE_SIZE + B::WIRE_SIZE]),
            C::get(&bytes[A::WIRE_SIZE + B::WIRE_SIZE..]),
        )
    }
}

/// Implement [`WireMsg`] for a struct by listing its fields in wire
/// order. Downstream crates use this for their payload records, e.g.
///
/// ```ignore
/// hacc_comm::impl_wire_msg!(Complex64 { re: f64, im: f64 });
/// ```
#[macro_export]
macro_rules! impl_wire_msg {
    ($ty:ty { $($field:ident: $ft:ty),+ $(,)? }) => {
        impl $crate::WireMsg for $ty {
            const WIRE_SIZE: usize = 0 $(+ <$ft as $crate::WireMsg>::WIRE_SIZE)+;
            fn put(&self, out: &mut Vec<u8>) {
                $( <$ft as $crate::WireMsg>::put(&self.$field, out); )+
            }
            fn get(bytes: &[u8]) -> Self {
                let mut off = 0usize;
                $(
                    let $field =
                        <$ft as $crate::WireMsg>::get(&bytes[off..off + <$ft as $crate::WireMsg>::WIRE_SIZE]);
                    off += <$ft as $crate::WireMsg>::WIRE_SIZE;
                )+
                let _ = off;
                Self { $($field),+ }
            }
        }
    };
}

/// Encode a slice of elements into a contiguous payload.
#[must_use]
pub fn encode_vec<T: WireMsg>(data: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * T::WIRE_SIZE);
    for v in data {
        v.put(&mut out);
    }
    out
}

/// Decode a payload previously produced by [`encode_vec`].
///
/// Panics on a length that is not a whole number of elements: the frame
/// CRC has already vouched for the bytes by the time this runs, so a
/// ragged length is a type-confusion bug, not line noise.
#[must_use]
pub fn decode_vec<T: WireMsg>(bytes: &[u8]) -> Vec<T> {
    assert!(
        T::WIRE_SIZE > 0 && bytes.len().is_multiple_of(T::WIRE_SIZE),
        "wire: payload length {} is not a multiple of element size {}",
        bytes.len(),
        T::WIRE_SIZE
    );
    bytes.chunks_exact(T::WIRE_SIZE).map(T::get).collect()
}

/// Per-binary identity of a payload element type.
///
/// Hashes the `TypeId`, so it is stable only *within one binary* — both
/// endpoints of a socket run are spawned from the same executable, which
/// is exactly the guarantee the in-process downcast relied on. A
/// mismatch therefore means mismatched send/recv types on a tag, and the
/// receive path panics with the same message the typed backend uses.
#[must_use]
pub fn type_hash<T: 'static>() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::any::TypeId::of::<T>().hash(&mut h);
    h.finish()
}

/// Slicing-by-8 tables for the reflected IEEE polynomial `0xEDB88320`,
/// built at compile time: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight table reads retire eight input bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Slicing-by-8 over `bytes` from the raw (pre-inversion) register
/// `crc`: eight table reads per 8-byte word, one per byte of the tail.
fn update_slicing(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// Shortest input [`Crc32::update`] hands to the carry-less path: below
/// two fold blocks the setup and the 128 → 32-bit reduction cost more
/// than slicing-by-8 saves.
const CLMUL_MIN: usize = 128;

/// Carry-less-multiply (PCLMULQDQ) folding for the *same* reflected
/// polynomial `0xEDB88320` — Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in
/// its bit-reflected form. Four 128-bit lanes each fold 64 bytes ahead
/// per step (`x^(4·128±32) mod P`), the lanes and any whole 16-byte
/// blocks left fold into one (`x^(128±32) mod P`), 128 bits reduce to 64
/// (`x^64 mod P`) and a Barrett reduction by `P` leaves the 32-bit
/// register; the sub-16-byte tail goes through [`update_slicing`]. The
/// value is bit-for-bit the slicing and bit-serial CRC's.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Fold constants for P(x) = 0x1_04C1_1DB7, bit-reflected (′) and
    // shifted left by one as the reflected product needs.
    /// `[x^(4·128+32) mod P]′ ≪ 1`.
    const K1: i64 = 0x1_5444_2bd4;
    /// `[x^(4·128−32) mod P]′ ≪ 1`.
    const K2: i64 = 0x1_c6e4_1596;
    /// `[x^(128+32) mod P]′ ≪ 1`.
    const K3: i64 = 0x1_7519_97d0;
    /// `[x^(128−32) mod P]′ ≪ 1`.
    const K4: i64 = 0xccaa_009e;
    /// `[x^64 mod P]′ ≪ 1`.
    const K5: i64 = 0x1_63cd_6124;
    /// `P′` (33 bits).
    const P_X: i64 = 0x1_db71_0641;
    /// Barrett constant `μ′ = [x^64 / P]′`.
    const MU: i64 = 0x1_f701_1641;

    /// One unaligned 16-byte block.
    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `_mm_loadu_si128`
        // has no alignment requirement (SSE2 is baseline on x86-64).
        unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
    }

    /// Carry `acc` 128 (or, with `K1`/`K2`, 512) bits forward onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Absorb `bytes` (at least 64) into the raw register `crc`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);
        let mut lanes = [first[0], first[1], first[2], first[3]].map(|b| load(&b));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc.cast_signed()));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        for block in singles {
            x = fold(x, load(block), k3k4);
        }

        // 128 → 64 bits, then 64 → 32 by Barrett; the reflected result
        // is the second 32-bit lane.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let reg = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))).cast_unsigned();
        super::update_slicing(reg, tail)
    }
}

/// Streaming CRC-32 (IEEE 802.3, reflected): feed any partition of the
/// input through [`update`](Self::update) and [`finish`](Self::finish)
/// yields the one-shot [`crc32`] of the concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// State before any input.
    #[must_use]
    pub const fn new() -> Self {
        Crc32(!0)
    }

    /// Absorb `bytes` (any length, any alignment): carry-less folding
    /// for inputs of at least 128 bytes on an x86-64 CPU with PCLMULQDQ,
    /// slicing-by-8 everywhere else — the same value either way.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= CLMUL_MIN && std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: PCLMULQDQ was detected on this CPU just above — the
            // one feature the callee enables beyond the x86-64 baseline.
            self.0 = unsafe { clmul::update(self.0, bytes) };
            return;
        }
        self.0 = update_slicing(self.0, bytes);
    }

    /// The CRC of everything absorbed so far.
    #[must_use]
    pub const fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE, reflected polynomial) over a byte slice: the one-shot
/// form of [`Crc32`].
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// First 4 bytes of every frame. "HACW" little-endian.
pub const FRAME_MAGIC: u32 = 0x5743_4148;
/// Fixed frame header size in bytes (magic through length).
pub const FRAME_HEADER: usize = 48;
/// Trailing CRC size in bytes.
pub const FRAME_TRAILER: usize = 4;
/// Upper bound on a single frame's payload; larger lengths are treated
/// as torn frames rather than honored as allocations.
pub const MAX_PAYLOAD: u64 = 1 << 30;

/// Decoded frame header: the addressing and integrity metadata carried
/// ahead of every payload on a byte-oriented transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Global rank of the sender.
    pub src: u32,
    /// Communicator context the message belongs to.
    pub context: u64,
    /// Message tag within the context.
    pub tag: u64,
    /// Per-link sequence number (resets to 0 on every fresh connection);
    /// a gap means the stream is torn.
    pub seq: u64,
    /// [`type_hash`] of the payload element type.
    pub type_hash: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// Why a frame was rejected. Every variant is loud: the link that
/// produced it is condemned, never resynchronized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header + declared payload + CRC require.
    Truncated {
        /// Bytes the frame claims to need.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Leading magic did not match [`FRAME_MAGIC`].
    BadMagic(u32),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u64),
    /// CRC over header-after-magic plus payload did not match.
    CrcMismatch {
        /// CRC carried by the frame trailer.
        expected: u32,
        /// CRC recomputed from the received bytes.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "torn frame: need {need} bytes, have {have}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::Oversize(len) => write!(f, "frame payload length {len} exceeds limit"),
            FrameError::CrcMismatch { expected, got } => {
                write!(f, "frame failed CRC: expected {expected:#010x}, got {got:#010x}")
            }
        }
    }
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("wire: header slice"))
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("wire: header slice"))
}

/// The 48 header bytes of a frame, magic first (inverse of
/// [`parse_header`]).
#[must_use]
pub fn encode_header(h: &FrameHeader) -> [u8; FRAME_HEADER] {
    let mut out = [0u8; FRAME_HEADER];
    out[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    out[4..8].copy_from_slice(&h.src.to_le_bytes());
    out[8..16].copy_from_slice(&h.context.to_le_bytes());
    out[16..24].copy_from_slice(&h.tag.to_le_bytes());
    out[24..32].copy_from_slice(&h.seq.to_le_bytes());
    out[32..40].copy_from_slice(&h.type_hash.to_le_bytes());
    out[40..48].copy_from_slice(&h.len.to_le_bytes());
    out
}

/// The frame trailer's value: CRC-32 over everything after the magic
/// (header fields, then payload), streamed so the two never have to be
/// contiguous.
#[must_use]
pub fn frame_crc(head: &[u8; FRAME_HEADER], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&head[4..]);
    crc.update(payload);
    crc.finish()
}

/// Compare a received trailer against the CRC of the header and payload
/// it arrived with.
pub fn check_crc(
    head: &[u8; FRAME_HEADER],
    payload: &[u8],
    trailer: [u8; FRAME_TRAILER],
) -> Result<(), FrameError> {
    let expected = u32::from_le_bytes(trailer);
    let got = frame_crc(head, payload);
    if got == expected {
        Ok(())
    } else {
        Err(FrameError::CrcMismatch { expected, got })
    }
}

/// Write one complete frame — 48-byte header, the *borrowed* payload,
/// trailing CRC-32 — with vectored writes, so a stream sender never
/// copies the payload into a frame buffer. Returns the frame's length.
pub fn write_frame<W: std::io::Write>(
    w: &mut W,
    h: &FrameHeader,
    payload: &[u8],
) -> std::io::Result<usize> {
    assert!(payload.len() as u64 == h.len, "wire: header/payload length mismatch");
    let head = encode_header(h);
    let trailer = frame_crc(&head, payload).to_le_bytes();
    let parts: [&[u8]; 3] = [&head, payload, &trailer];
    let total = FRAME_HEADER + payload.len() + FRAME_TRAILER;
    let mut written = 0;
    while written < total {
        // Re-slice past what earlier (partial) writes already took.
        let mut skip = written;
        let bufs = parts.map(|p| {
            let s = skip.min(p.len());
            skip -= s;
            std::io::IoSlice::new(&p[s..])
        });
        match w.write_vectored(&bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// Encode a complete frame into one buffer: [`write_frame`] into a
/// `Vec`.
#[must_use]
pub fn encode_frame(h: &FrameHeader, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len() + FRAME_TRAILER);
    write_frame(&mut out, h, payload).expect("wire: writing to a Vec cannot fail");
    out
}

/// Parse and validate the fixed header prefix (no payload or CRC check).
///
/// Used by stream readers to learn how many more bytes to pull before
/// the payload and trailer can be handed to [`check_crc`].
pub fn parse_header(bytes: &[u8]) -> Result<FrameHeader, FrameError> {
    if bytes.len() < FRAME_HEADER {
        return Err(FrameError::Truncated { need: FRAME_HEADER, have: bytes.len() });
    }
    let magic = read_u32(bytes, 0);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let h = FrameHeader {
        src: read_u32(bytes, 4),
        context: read_u64(bytes, 8),
        tag: read_u64(bytes, 16),
        seq: read_u64(bytes, 24),
        type_hash: read_u64(bytes, 32),
        len: read_u64(bytes, 40),
    };
    if h.len > MAX_PAYLOAD {
        return Err(FrameError::Oversize(h.len));
    }
    Ok(h)
}

/// Validate and decode a complete frame from a buffer.
///
/// Checks, in order: header structure ([`parse_header`]), total length,
/// and the trailing CRC over header-after-magic + payload
/// ([`check_crc`]). Returns the header and a view of the payload bytes.
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameHeader, &[u8]), FrameError> {
    let h = parse_header(bytes)?;
    let need = FRAME_HEADER
        + usize::try_from(h.len).expect("wire: payload length fits usize")
        + FRAME_TRAILER;
    if bytes.len() < need {
        return Err(FrameError::Truncated { need, have: bytes.len() });
    }
    let body_end = need - FRAME_TRAILER;
    let head = bytes[..FRAME_HEADER].try_into().expect("wire: header slice");
    let payload = &bytes[FRAME_HEADER..body_end];
    let trailer = bytes[body_end..need].try_into().expect("wire: trailer slice");
    check_crc(head, payload, trailer)?;
    Ok((h, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let xs = [0.0f64, -1.5, 3.25e17, f64::MIN_POSITIVE];
        let bytes = encode_vec(&xs);
        assert_eq!(bytes.len(), 32);
        assert_eq!(decode_vec::<f64>(&bytes), xs);
        let us = [0usize, 1, usize::MAX];
        assert_eq!(decode_vec::<usize>(&encode_vec(&us)), us);
    }

    #[test]
    fn tuples_and_arrays_round_trip() {
        let t = [(7u64, [1.0f32, 2.0, 3.0])];
        let bytes = encode_vec(&t);
        assert_eq!(bytes.len(), 20);
        assert_eq!(decode_vec::<(u64, [f32; 3])>(&bytes), t);
        let s = [(1u64, 2u64, 3usize), (4, 5, 6)];
        assert_eq!(decode_vec::<(u64, u64, usize)>(&encode_vec(&s)), s);
    }

    #[test]
    fn frame_round_trip_empty_payload() {
        let h = FrameHeader { src: 3, context: 9, tag: 42, seq: 0, type_hash: 0xdead, len: 0 };
        let frame = encode_frame(&h, &[]);
        assert_eq!(frame.len(), FRAME_HEADER + FRAME_TRAILER);
        let (got, payload) = decode_frame(&frame).expect("valid frame");
        assert_eq!(got, h);
        assert!(payload.is_empty());
    }

    #[test]
    fn frame_rejects_bit_flip_anywhere() {
        let payload = encode_vec(&[1.0f64, 2.0, 3.0]);
        let h = FrameHeader {
            src: 1,
            context: 5,
            tag: 7,
            seq: 11,
            type_hash: type_hash::<f64>(),
            len: payload.len() as u64,
        };
        let frame = encode_frame(&h, &payload);
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_frame(&bad).is_err(), "bit {bit} accepted silently");
        }
    }

    #[test]
    fn frame_rejects_truncation() {
        let payload = encode_vec(&[9u32; 10]);
        let h = FrameHeader {
            src: 0,
            context: 0,
            tag: 1,
            seq: 0,
            type_hash: type_hash::<u32>(),
            len: payload.len() as u64,
        };
        let frame = encode_frame(&h, &payload);
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    /// Both lowerings of [`Crc32::update`] — slicing-by-8 and, where the
    /// CPU has PCLMULQDQ, carry-less folding — on the same inputs against
    /// the bit-serial definition, from one fold block up past the
    /// four-lane loop with every 16-byte tail length.
    #[test]
    fn slicing_and_clmul_lowerings_match_bitwise() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc: u32 = !0;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let max_len = if cfg!(miri) { 200 } else { 600 };
        let data: Vec<u8> = (0..max_len + 3)
            .map(|i: usize| (i * 131 + (i >> 3)) as u8)
            .collect();
        for align in 0..3 {
            for len in 64..=max_len {
                let s = &data[align..align + len];
                let want = bitwise(s);
                let got = !update_slicing(!0, s);
                assert_eq!(got, want, "slicing align {align} len {len}");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("pclmulqdq") {
                    // SAFETY: PCLMULQDQ detected just above.
                    let got = !unsafe { clmul::update(!0, s) };
                    assert_eq!(got, want, "clmul align {align} len {len}");
                }
            }
        }
    }

    #[test]
    fn type_hash_distinguishes_types() {
        assert_ne!(type_hash::<f64>(), type_hash::<u64>());
        assert_ne!(type_hash::<u8>(), type_hash::<i8>());
    }
}
