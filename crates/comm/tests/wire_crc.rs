//! Pins the slicing-by-8 streaming CRC and the borrowed-payload frame
//! writer to the codec they replaced: the fast [`crc32`] must equal the
//! bit-serial routine it superseded (kept here as the oracle), any
//! partition of the input must stream to the one-shot value, and the
//! frame a stream sender emits piecewise must be `encode_frame`'s
//! bytes exactly — the wire format did not change.

use hacc_comm::wire::{
    crc32, encode_frame, encode_header, frame_crc, write_frame, Crc32, FrameHeader, FRAME_HEADER,
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

/// Every short length at every start alignment, exhaustively: the word
/// loop's entry, its exit and the byte tail all sit below 64 bytes.
#[test]
fn fast_crc_matches_oracle_on_every_short_slice() {
    let data = noise(7, 8 + 64);
    for align in 0..8 {
        for len in 0..=64 {
            let s = &data[align..align + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "align {align} len {len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fast CRC ≡ bit-serial oracle for lengths 0..=4103 (one past a
    /// page plus a ragged tail) at all 8 start alignments.
    #[test]
    fn fast_crc_matches_oracle(len in 0usize..4104, align in 0usize..8, seed in any::<u64>()) {
        let data = noise(seed, align + len);
        let s = &data[align..];
        prop_assert_eq!(crc32(s), crc32_bitwise(s));
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
