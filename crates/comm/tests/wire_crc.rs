//! Pins the streaming CRC (carry-less folding from 128 bytes on where
//! the CPU has PCLMULQDQ, slicing-by-8 below that and elsewhere) and the
//! borrowed-payload frame writer to the codec they replaced: the fast
//! [`crc32`] must equal the bit-serial routine it superseded (kept here
//! as the oracle), any partition of the input must stream to the
//! one-shot value, and the frame a stream sender emits piecewise must be
//! `encode_frame`'s bytes exactly — the wire format did not change.

use hacc_comm::wire::{
    crc32, decode_frame, encode_frame, encode_header, frame_crc, write_frame, Crc32, FrameHeader,
    FRAME_HEADER,
};
use proptest::prelude::*;
use std::io::{IoSlice, Write};

/// The table-less bit-serial CRC-32 (IEEE, reflected) `wire::crc32`
/// used to be: eight shift-and-mask rounds per byte.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Deterministic filler (splitmix-style) so a case is its parameters.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z >> 56) as u8
        })
        .collect()
}

fn header(len: usize) -> FrameHeader {
    FrameHeader {
        src: 1,
        context: 0xfeed_f00d,
        tag: 9,
        seq: 77,
        type_hash: 0x1234_5678_9abc_def0,
        len: len as u64,
    }
}

/// A sink that takes at most `chunk` bytes per call, so `write_frame`
/// has to resume mid-header, mid-payload and mid-trailer.
struct Dribble {
    chunk: usize,
    out: Vec<u8>,
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let mut left = self.chunk;
        for b in bufs {
            let n = b.len().min(left);
            self.out.extend_from_slice(&b[..n]);
            left -= n;
        }
        Ok(self.chunk - left)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn known_answer() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

/// Longest exhaustively checked slice (shrunk under Miri, still past the
/// carry-less entry at 128 bytes and one turn of its 64-byte loop).
const EXHAUSTIVE_LEN: usize = if cfg!(miri) { 200 } else { 1024 };
/// Longest proptest-drawn input.
const MAX_LEN: usize = if cfg!(miri) { 1024 } else { 64 << 10 };
/// Cases per property.
const CASES: u32 = if cfg!(miri) { 4 } else { 256 };

/// Every length 0..=1024 at every 16-byte start alignment,
/// exhaustively: the slicing word loop and its byte tail below 128
/// bytes, the carry-less entry at 128, its 64-byte four-lane loop, the
/// 16-byte single-block folds after it and every sub-16-byte tail.
#[test]
fn fast_crc_matches_oracle_on_every_slice_to_1024() {
    let data = noise(7, 16 + EXHAUSTIVE_LEN);
    let align_step = if cfg!(miri) { 5 } else { 1 };
    for align in (0..16).step_by(align_step) {
        for len in 0..=EXHAUSTIVE_LEN {
            let s = &data[align..align + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "align {align} len {len}");
        }
    }
}

/// A single-bit flip anywhere in a frame past the carry-less threshold
/// — header, payload or trailer — is rejected.
#[test]
fn frame_past_the_fold_threshold_rejects_every_bit_flip() {
    let len = if cfg!(miri) { 140 } else { 300 };
    let payload = noise(11, len);
    let frame = encode_frame(&header(len), &payload);
    assert!(decode_frame(&frame).is_ok());
    for bit in 0..frame.len() * 8 {
        let mut bad = frame.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        assert!(decode_frame(&bad).is_err(), "bit {bit} accepted silently");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Fast CRC ≡ bit-serial oracle for lengths up to 64 KiB at all 16
    /// start alignments.
    #[test]
    fn fast_crc_matches_oracle(len in 0usize..MAX_LEN + 1, align in 0usize..16, seed in any::<u64>()) {
        let data = noise(seed, align + len);
        let s = &data[align..];
        prop_assert_eq!(crc32(s), crc32_bitwise(s));
    }

    /// Streaming cuts that land inside fold blocks: each piece is long
    /// enough for the carry-less path and starts mid-block, so the
    /// register crosses from one call's reduction into the next call's
    /// first lane.
    #[test]
    fn streaming_cuts_inside_fold_blocks(
        pieces in prop::collection::vec((128usize..700, 1usize..64), 1..5),
        seed in any::<u64>(),
    ) {
        let lens: Vec<usize> = pieces.iter().map(|&(n, skew)| n + skew).collect();
        let data = noise(seed, lens.iter().sum());
        let mut crc = Crc32::new();
        let mut from = 0;
        for n in lens {
            crc.update(&data[from..from + n]);
            from += n;
        }
        prop_assert_eq!(crc.finish(), crc32_bitwise(&data));
    }

    /// Split-invariance: any partition of the input streams to the
    /// one-shot value.
    #[test]
    fn streaming_is_split_invariant(
        len in 0usize..2048,
        cuts in prop::collection::vec(any::<u16>(), 0..6),
        seed in any::<u64>(),
    ) {
        let data = noise(seed, len);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (len + 1)).collect();
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        let mut from = 0;
        for cut in cuts {
            crc.update(&data[from..cut]);
            from = cut;
        }
        crc.update(&data[from..]);
        prop_assert_eq!(crc.finish(), crc32(&data));
    }

    /// `encode_frame(h, p)` ≡ header ‖ p ‖ trailer from the pieces the
    /// stream sender uses, and the vectored writer emits the same bytes
    /// however its writes are torn.
    #[test]
    fn frame_is_header_payload_trailer(len in 0usize..600, chunk in 1usize..97, seed in any::<u64>()) {
        let payload = noise(seed, len);
        let h = header(len);
        let frame = encode_frame(&h, &payload);

        let head = encode_header(&h);
        let mut pieces = head.to_vec();
        pieces.extend_from_slice(&payload);
        pieces.extend_from_slice(&frame_crc(&head, &payload).to_le_bytes());
        prop_assert_eq!(&frame, &pieces);
        // The trailer is the plain CRC of everything after the magic.
        prop_assert_eq!(
            frame_crc(&head, &payload),
            crc32_bitwise(&frame[4..FRAME_HEADER + len])
        );

        let mut sink = Dribble { chunk, out: Vec::new() };
        let n = write_frame(&mut sink, &h, &payload).expect("dribble never fails");
        prop_assert_eq!(n, frame.len());
        prop_assert_eq!(&sink.out, &frame);
    }
}
