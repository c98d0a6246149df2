//! Self-describing, checksummed particle snapshot I/O.
//!
//! HACC ships its own I/O library (GenericIO): self-describing blocks of
//! named SoA fields with per-block checksums, designed for writing
//! trillions of particles and sub-sampled science outputs ("we stored …
//! a subset of the particles and the mass fluctuation power spectrum at
//! 10 intermediate snapshots", Section V). This crate reproduces the
//! format's essentials at file scale:
//!
//! * a fixed little-endian header (magic, version, particle count, box
//!   size, scale factor);
//! * a CRC-protected metadata section of named `u64`/`f64` scalars
//!   (format v2) — checkpoint/restart stores the step index, rank
//!   geometry, and config fingerprint here;
//! * any number of named field blocks (`f32` or `u64` SoA columns), each
//!   protected by a CRC-32 so corruption is detected at read time;
//! * writer-side sub-sampling (every k-th particle) for cheap science
//!   snapshots.
//!
//! Readers accept both v1 (no metadata section) and v2 files. Parsing
//! never panics on malformed input: every length is bounds- and
//! overflow-checked and every failure is a [`GenioError`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
/// CRC-32 (IEEE 802.3, reflected) of every block and the metadata
/// section: the transport's frame CRC, so file and wire checksums are one
/// implementation with one value.
pub use hacc_comm::wire::crc32;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"HGIO";
/// Current write version. v1 files (no metadata section) remain readable.
const VERSION: u32 = 2;

/// A particle snapshot: metadata plus named SoA columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Periodic box side.
    pub box_len: f64,
    /// Scale factor of the snapshot.
    pub a: f64,
    /// Named `f32` columns (positions, velocities, …); all must share one
    /// length.
    pub f32_fields: BTreeMap<String, Vec<f32>>,
    /// Named `u64` columns (ids, …).
    pub u64_fields: BTreeMap<String, Vec<u64>>,
    /// Named scalar metadata, integer-valued (step index, rank, …).
    /// Serialized in the v2 CRC-protected metadata section.
    pub meta_u64: BTreeMap<String, u64>,
    /// Named scalar metadata, real-valued.
    pub meta_f64: BTreeMap<String, f64>,
}

/// Errors arising while reading a snapshot.
#[derive(Debug)]
pub enum GenioError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Magic/version mismatch or malformed structure.
    Format(String),
    /// A block's checksum did not match its contents.
    Corrupt { field: String },
}

impl std::fmt::Display for GenioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenioError::Io(e) => write!(f, "i/o error: {e}"),
            GenioError::Format(m) => write!(f, "format error: {m}"),
            GenioError::Corrupt { field } => write!(f, "checksum mismatch in field '{field}'"),
        }
    }
}

impl std::error::Error for GenioError {}

impl From<std::io::Error> for GenioError {
    fn from(e: std::io::Error) -> Self {
        GenioError::Io(e)
    }
}

impl Snapshot {
    /// Build a snapshot from the canonical particle columns.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn from_particles(
        box_len: f64,
        a: f64,
        x: &[f32],
        y: &[f32],
        z: &[f32],
        vx: &[f32],
        vy: &[f32],
        vz: &[f32],
        id: Option<&[u64]>,
    ) -> Self {
        let mut s = Snapshot {
            box_len,
            a,
            ..Default::default()
        };
        for (name, col) in [
            ("x", x),
            ("y", y),
            ("z", z),
            ("vx", vx),
            ("vy", vy),
            ("vz", vz),
        ] {
            s.f32_fields.insert(name.to_string(), col.to_vec());
        }
        if let Some(id) = id {
            s.u64_fields.insert("id".to_string(), id.to_vec());
        }
        s
    }

    /// Number of particles (length of the columns).
    pub fn len(&self) -> usize {
        self.f32_fields
            .values()
            .next()
            .map(Vec::len)
            .or_else(|| self.u64_fields.values().next().map(Vec::len))
            .unwrap_or(0)
    }

    /// True when the snapshot holds no particles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keep only every `stride`-th particle — the cheap science-output
    /// sub-sampling HACC used when "only a small file system was
    /// available".
    #[must_use]
    pub fn subsample(&self, stride: usize) -> Snapshot {
        assert!(stride >= 1);
        let pick = |n: usize| (0..n).step_by(stride);
        let mut out = Snapshot {
            box_len: self.box_len,
            a: self.a,
            ..Default::default()
        };
        for (k, v) in &self.f32_fields {
            out.f32_fields
                .insert(k.clone(), pick(v.len()).map(|i| v[i]).collect());
        }
        for (k, v) in &self.u64_fields {
            out.u64_fields
                .insert(k.clone(), pick(v.len()).map(|i| v[i]).collect());
        }
        out
    }

    /// Serialize to bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Bytes {
        let n = self.len();
        let mut buf = BytesMut::with_capacity(64 + n * (self.f32_fields.len() * 4 + 8));
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(n as u64);
        buf.put_f64_le(self.box_len);
        buf.put_f64_le(self.a);
        buf.put_u32_le((self.f32_fields.len() + self.u64_fields.len()) as u32);
        // v2 metadata section, CRC-protected as a unit.
        let meta_start = buf.len();
        buf.put_u32_le(self.meta_u64.len() as u32);
        for (name, &v) in &self.meta_u64 {
            buf.put_u16_le(name.len() as u16);
            buf.put_slice(name.as_bytes());
            buf.put_u64_le(v);
        }
        buf.put_u32_le(self.meta_f64.len() as u32);
        for (name, &v) in &self.meta_f64 {
            buf.put_u16_le(name.len() as u16);
            buf.put_slice(name.as_bytes());
            buf.put_f64_le(v);
        }
        let meta_crc = crc32(&buf[meta_start..]);
        buf.put_u32_le(meta_crc);
        for (name, col) in &self.f32_fields {
            put_block(&mut buf, name, 0, col.len(), |b| {
                for &v in col {
                    b.put_f32_le(v);
                }
            });
        }
        for (name, col) in &self.u64_fields {
            put_block(&mut buf, name, 1, col.len(), |b| {
                for &v in col {
                    b.put_u64_le(v);
                }
            });
        }
        buf.freeze()
    }

    /// Parse from bytes, verifying every block checksum. Never panics on
    /// malformed input: truncation, length overflow, and corruption all
    /// come back as [`GenioError`].
    pub fn from_bytes(mut data: &[u8]) -> Result<Snapshot, GenioError> {
        if data.len() < 4 || &data[..4] != MAGIC {
            return Err(GenioError::Format("bad magic".into()));
        }
        if data.len() < 36 {
            return Err(GenioError::Format("truncated header".into()));
        }
        data.advance(4);
        let version = data.get_u32_le();
        if version != 1 && version != VERSION {
            return Err(GenioError::Format(format!("unsupported version {version}")));
        }
        let n64 = data.get_u64_le();
        let n: usize = n64
            .try_into()
            .map_err(|_| GenioError::Format(format!("particle count {n64} overflows")))?;
        let box_len = data.get_f64_le();
        let a = data.get_f64_le();
        let nfields = data.get_u32_le();
        let mut out = Snapshot {
            box_len,
            a,
            ..Default::default()
        };
        if version >= 2 {
            read_metadata(&mut data, &mut out)?;
        }
        let expect_f32 = n.checked_mul(4);
        let expect_u64 = n.checked_mul(8);
        for _ in 0..nfields {
            let (name, dtype, payload) = get_block(&mut data)?;
            match dtype {
                0 => {
                    if Some(payload.len()) != expect_f32 {
                        return Err(GenioError::Format(format!(
                            "field '{name}': expected {n} f32 elements, got {} bytes",
                            payload.len()
                        )));
                    }
                    let mut col = Vec::with_capacity(n);
                    let mut p = payload;
                    while p.has_remaining() {
                        col.push(p.get_f32_le());
                    }
                    out.f32_fields.insert(name, col);
                }
                1 => {
                    if Some(payload.len()) != expect_u64 {
                        return Err(GenioError::Format(format!("field '{name}': bad length")));
                    }
                    let mut col = Vec::with_capacity(n);
                    let mut p = payload;
                    while p.has_remaining() {
                        col.push(p.get_u64_le());
                    }
                    out.u64_fields.insert(name, col);
                }
                t => return Err(GenioError::Format(format!("unknown dtype {t}"))),
            }
        }
        Ok(out)
    }

    /// Write to a file.
    pub fn write_file(&self, path: &Path) -> Result<(), GenioError> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Read from a file with full validation.
    pub fn read_file(path: &Path) -> Result<Snapshot, GenioError> {
        let mut data = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut data)?;
        Snapshot::from_bytes(&data)
    }
}

fn put_block(
    buf: &mut BytesMut,
    name: &str,
    dtype: u8,
    count: usize,
    fill: impl FnOnce(&mut BytesMut),
) {
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name.as_bytes());
    buf.put_u8(dtype);
    let elem = if dtype == 0 { 4 } else { 8 };
    buf.put_u64_le((count * elem) as u64);
    let start = buf.len();
    fill(buf);
    let crc = crc32(&buf[start..]);
    buf.put_u32_le(crc);
}

/// Read a length-prefixed name (u16 length + bytes), bounds-checked.
fn get_name(data: &mut &[u8]) -> Result<String, GenioError> {
    if data.remaining() < 2 {
        return Err(GenioError::Format("truncated name length".into()));
    }
    let name_len = data.get_u16_le() as usize;
    if data.remaining() < name_len {
        return Err(GenioError::Format("truncated name".into()));
    }
    let name = String::from_utf8(data[..name_len].to_vec())
        .map_err(|_| GenioError::Format("name not utf-8".into()))?;
    data.advance(name_len);
    Ok(name)
}

/// Parse the v2 metadata section into `out`, verifying its CRC.
fn read_metadata(data: &mut &[u8], out: &mut Snapshot) -> Result<(), GenioError> {
    let section = *data;
    if data.remaining() < 4 {
        return Err(GenioError::Format("truncated metadata".into()));
    }
    let n_u64 = data.get_u32_le();
    for _ in 0..n_u64 {
        let name = get_name(data)?;
        if data.remaining() < 8 {
            return Err(GenioError::Format("truncated metadata value".into()));
        }
        out.meta_u64.insert(name, data.get_u64_le());
    }
    if data.remaining() < 4 {
        return Err(GenioError::Format("truncated metadata".into()));
    }
    let n_f64 = data.get_u32_le();
    for _ in 0..n_f64 {
        let name = get_name(data)?;
        if data.remaining() < 8 {
            return Err(GenioError::Format("truncated metadata value".into()));
        }
        out.meta_f64.insert(name, data.get_f64_le());
    }
    let consumed = section.len() - data.len();
    if data.remaining() < 4 {
        return Err(GenioError::Format("truncated metadata crc".into()));
    }
    let crc_stored = data.get_u32_le();
    if crc32(&section[..consumed]) != crc_stored {
        return Err(GenioError::Corrupt {
            field: "<metadata>".into(),
        });
    }
    Ok(())
}

fn get_block<'a>(data: &mut &'a [u8]) -> Result<(String, u8, &'a [u8]), GenioError> {
    let name = get_name(data)?;
    if data.remaining() < 9 {
        return Err(GenioError::Format("truncated block header".into()));
    }
    let dtype = data.get_u8();
    let len64 = data.get_u64_le();
    let len: usize = len64
        .try_into()
        .map_err(|_| GenioError::Format(format!("block length {len64} overflows")))?;
    // `len + 4` (payload + CRC) must fit in what's left — checked so a
    // corrupted length can neither overflow nor over-read.
    let need = len
        .checked_add(4)
        .ok_or_else(|| GenioError::Format(format!("block length {len} overflows")))?;
    if data.remaining() < need {
        return Err(GenioError::Format("truncated payload".into()));
    }
    let payload = &data[..len];
    data.advance(len);
    let crc_stored = data.get_u32_le();
    if crc32(payload) != crc_stored {
        return Err(GenioError::Corrupt { field: name });
    }
    Ok((name, dtype, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Snapshot {
        let f: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let ids: Vec<u64> = (0..n as u64).collect();
        Snapshot::from_particles(64.0, 0.5, &f, &f, &f, &f, &f, &f, Some(&ids))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample(1000);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("parse");
        assert_eq!(back, snap);
        assert_eq!(back.len(), 1000);
        assert_eq!(back.box_len, 64.0);
        assert_eq!(back.a, 0.5);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = sample(0);
        let back = Snapshot::from_bytes(&snap.to_bytes()).expect("parse");
        assert_eq!(back.len(), 0);
        assert!(back.is_empty());
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corruption_detected() {
        let snap = sample(100);
        let mut bytes = snap.to_bytes().to_vec();
        // Flip a byte inside the first field payload.
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0xFF;
        match Snapshot::from_bytes(&bytes) {
            Err(GenioError::Corrupt { .. }) | Err(GenioError::Format(_)) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let snap = sample(10);
        let mut bytes = snap.to_bytes().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(GenioError::Format(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let snap = sample(50);
        let bytes = snap.to_bytes();
        for cut in [10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncated at {cut} accepted"
            );
        }
    }

    #[test]
    fn subsample_strides() {
        let snap = sample(100);
        let sub = snap.subsample(10);
        assert_eq!(sub.len(), 10);
        assert_eq!(
            sub.u64_fields["id"],
            (0..100).step_by(10).collect::<Vec<u64>>()
        );
        assert_eq!(sub.box_len, snap.box_len);
        // Stride 1 is the identity.
        assert_eq!(snap.subsample(1), snap);
    }

    #[test]
    fn metadata_roundtrips() {
        let mut snap = sample(20);
        snap.meta_u64.insert("step".into(), 17);
        snap.meta_u64.insert("rank".into(), 3);
        snap.meta_f64.insert("a_next".into(), 0.625);
        let back = Snapshot::from_bytes(&snap.to_bytes()).expect("parse");
        assert_eq!(back, snap);
        assert_eq!(back.meta_u64["step"], 17);
        assert_eq!(back.meta_f64["a_next"], 0.625);
    }

    #[test]
    fn v1_files_still_parse() {
        // Hand-build a v1 file: header + blocks, no metadata section.
        let snap = sample(8);
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(1); // v1
        buf.put_u64_le(8);
        buf.put_f64_le(snap.box_len);
        buf.put_f64_le(snap.a);
        buf.put_u32_le((snap.f32_fields.len() + snap.u64_fields.len()) as u32);
        for (name, col) in &snap.f32_fields {
            put_block(&mut buf, name, 0, col.len(), |b| {
                for &v in col {
                    b.put_f32_le(v);
                }
            });
        }
        for (name, col) in &snap.u64_fields {
            put_block(&mut buf, name, 1, col.len(), |b| {
                for &v in col {
                    b.put_u64_le(v);
                }
            });
        }
        let back = Snapshot::from_bytes(&buf).expect("v1 parse");
        assert_eq!(back, snap);
        assert!(back.meta_u64.is_empty());
    }

    #[test]
    fn metadata_corruption_detected() {
        let mut snap = sample(4);
        snap.meta_u64.insert("step".into(), 9);
        let mut bytes = snap.to_bytes().to_vec();
        // The metadata section starts right after the 36-byte header;
        // flip a byte of the stored step value.
        bytes[44] ^= 0x01;
        match Snapshot::from_bytes(&bytes) {
            Err(GenioError::Corrupt { field }) => assert_eq!(field, "<metadata>"),
            other => panic!("metadata corruption not detected: {other:?}"),
        }
    }

    #[test]
    fn absurd_lengths_rejected_not_panicking() {
        // Header claiming u64::MAX particles must error, not overflow.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(1);
        buf.put_u64_le(u64::MAX);
        buf.put_f64_le(1.0);
        buf.put_f64_le(0.5);
        buf.put_u32_le(1);
        // Block with an absurd length prefix.
        buf.put_u16_le(1);
        buf.put_slice(b"x");
        buf.put_u8(0);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_u32_le(0);
        assert!(Snapshot::from_bytes(&buf).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let snap = sample(256);
        let path = std::env::temp_dir().join("hacc_genio_test.gio");
        snap.write_file(&path).expect("write");
        let back = Snapshot::read_file(&path).expect("read");
        assert_eq!(back, snap);
        let _ = std::fs::remove_file(&path);
    }
}
