//! Checkpoint/restart on top of the GenericIO-style snapshot format.
//!
//! The BG/Q runs behind the paper lasted many hours on up to 96 racks; at
//! that scale the machinery that matters as much as the solver is the one
//! that lets a run survive losing a node. HACC's answer is periodic
//! checkpointing through its own I/O library. This module reproduces that
//! layer: every rank serializes its state — positions, momenta, particle
//! ids, scale factor, step index, and a fingerprint of the driver
//! configuration — through the CRC-validated [`Snapshot`] byte format
//! ([`hacc_genio`]), one file per rank per checkpoint.
//!
//! Restart validates everything it can before trusting a file: the magic
//! and per-block CRCs (in `hacc-genio`), the config fingerprint, the rank
//! geometry, and the step index. Discovery walks checkpoint sets from
//! newest to oldest and collectively agrees on the newest set that every
//! rank can read — a half-written or corrupted set from the failed run is
//! skipped, not trusted.
//!
//! The headline guarantee (exercised in `tests/resilience.rs` at the
//! workspace root): a run killed mid-stream and resumed from its last
//! checkpoint reaches a **bit-exact** final state relative to an
//! uninterrupted run, on one rank ([`crate::Simulation::resume`]) as on
//! many ([`DistSimulation::resume_from`]). One property makes that
//! possible: the engine's held long-range acceleration, on either mesh,
//! is a pure function of the active-particle prefix the closing solve
//! deposited, and a restored view without it solves cold on that
//! prefix, then kicks and refreshes — and the refresh, too, reads only
//! the prefix — so restoring the prefix, order and bits, restores the
//! trajectory (`DistSimulation::from_checkpoint_state`).

use std::fmt;
use std::path::{Path, PathBuf};

use hacc_comm::{one_rank, Comm};
use hacc_domain::Particles;
use hacc_genio::{crc32, GenioError, Snapshot};

use crate::config::SimConfig;
use crate::dist::DistSimulation;

/// Metadata key: number of completed long-range steps.
pub const META_STEP: &str = "step";
/// Metadata key: CRC-32 fingerprint of the driver configuration.
pub const META_CFG: &str = "cfg_crc";
/// Metadata key: writing rank.
pub const META_RANK: &str = "rank";
/// Metadata key: number of ranks in the writing run.
pub const META_NRANKS: &str = "nranks";

/// Errors arising while writing or restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying snapshot I/O or format failure.
    Genio(GenioError),
    /// The checkpoint was written under a different configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration the caller supplied.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// Rank count or rank index in the file disagrees with the caller.
    Geometry(String),
    /// A required column or metadata entry is absent.
    Missing(String),
    /// No complete, valid checkpoint set exists in the directory.
    NoCheckpoint,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Genio(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint written under a different config \
                 (fingerprint {found:#x}, expected {expected:#x})"
            ),
            CheckpointError::Geometry(m) => write!(f, "checkpoint geometry mismatch: {m}"),
            CheckpointError::Missing(m) => write!(f, "checkpoint missing {m}"),
            CheckpointError::NoCheckpoint => write!(f, "no valid checkpoint set found"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<GenioError> for CheckpointError {
    fn from(e: GenioError) -> Self {
        CheckpointError::Genio(e)
    }
}

/// CRC-32 fingerprint of a driver configuration. Two runs with the same
/// fingerprint step through identical physics, so a checkpoint from one
/// may seed the other.
#[must_use] 
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    u64::from(crc32(format!("{cfg:?}").as_bytes()))
}

/// Path of rank `rank`'s file in the `step`-step checkpoint set.
#[must_use] 
pub fn checkpoint_path(dir: &Path, step: u64, rank: usize, nranks: usize) -> PathBuf {
    dir.join(format!("ckpt_step{step:06}_r{rank}of{nranks}.gio"))
}

/// Parse a file name produced by [`checkpoint_path`] back into
/// `(step, rank, nranks)`.
fn parse_name(name: &str) -> Option<(u64, usize, usize)> {
    let rest = name.strip_prefix("ckpt_step")?.strip_suffix(".gio")?;
    let (step, ranks) = rest.split_once("_r")?;
    let (rank, nranks) = ranks.split_once("of")?;
    Some((step.parse().ok()?, rank.parse().ok()?, nranks.parse().ok()?))
}

/// Step indices (ascending) for which `dir` holds a complete set: one
/// file per rank, all written for `nranks` ranks. Presence only — CRC
/// and config validation happen at read time.
pub fn complete_sets(dir: &Path, nranks: usize) -> Vec<u64> {
    let mut per_step: std::collections::BTreeMap<u64, Vec<bool>> = Default::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some((step, rank, p)) = name.to_str().and_then(parse_name) else {
            continue;
        };
        if p != nranks || rank >= nranks {
            continue;
        }
        per_step.entry(step).or_insert_with(|| vec![false; nranks])[rank] = true;
    }
    per_step
        .into_iter()
        .filter(|(_, seen)| seen.iter().all(|&s| s))
        .map(|(step, _)| step)
        .collect()
}

/// Delete every *complete* checkpoint set in `dir` except the newest
/// `keep`, returning the number of files removed. Incomplete sets (a
/// run may still be writing the newest one) and foreign files are left
/// alone, as are `.tmp` leftovers from interrupted atomic writes —
/// [`complete_sets`] never counts either, so they are inert. Call from
/// one rank only (the driver uses rank 0) after a set finishes; old
/// sets are dead weight, not write targets, so there is no race with
/// concurrent checkpoint writers.
#[must_use = "the removal count distinguishes a trimmed directory from a no-op"]
pub fn gc_checkpoints(dir: &Path, nranks: usize, keep: usize) -> usize {
    let sets = complete_sets(dir, nranks);
    let cut = sets.len().saturating_sub(keep);
    let mut removed = 0;
    for &step in &sets[..cut] {
        for rank in 0..nranks {
            if std::fs::remove_file(checkpoint_path(dir, step, rank, nranks)).is_ok() {
                removed += 1;
            }
        }
    }
    removed
}

/// Validate a loaded snapshot against the caller's configuration and
/// rank geometry, returning the recorded step index.
fn validate(
    snap: &Snapshot,
    cfg: &SimConfig,
    rank: usize,
    nranks: usize,
) -> Result<u64, CheckpointError> {
    let expected = config_fingerprint(cfg);
    let found = *snap
        .meta_u64
        .get(META_CFG)
        .ok_or_else(|| CheckpointError::Missing(format!("metadata '{META_CFG}'")))?;
    if found != expected {
        return Err(CheckpointError::ConfigMismatch { expected, found });
    }
    let file_rank = snap.meta_u64.get(META_RANK).copied();
    let file_nranks = snap.meta_u64.get(META_NRANKS).copied();
    if file_rank != Some(rank as u64) || file_nranks != Some(nranks as u64) {
        return Err(CheckpointError::Geometry(format!(
            "file is rank {file_rank:?} of {file_nranks:?}, \
             reader is rank {rank} of {nranks}"
        )));
    }
    if (snap.box_len - cfg.box_len).abs() > 1e-9 {
        return Err(CheckpointError::Geometry(format!(
            "box {} vs config {}",
            snap.box_len, cfg.box_len
        )));
    }
    snap.meta_u64
        .get(META_STEP)
        .copied()
        .ok_or_else(|| CheckpointError::Missing(format!("metadata '{META_STEP}'")))
}

/// Pull a named `f32` column out of a snapshot.
fn column(snap: &Snapshot, name: &str) -> Result<Vec<f32>, CheckpointError> {
    snap.f32_fields
        .get(name)
        .cloned()
        .ok_or_else(|| CheckpointError::Missing(format!("column '{name}'")))
}

fn stamp(snap: &mut Snapshot, cfg: &SimConfig, step: u64, rank: usize, nranks: usize) {
    snap.meta_u64.insert(META_STEP.into(), step);
    snap.meta_u64
        .insert(META_CFG.into(), config_fingerprint(cfg));
    snap.meta_u64.insert(META_RANK.into(), rank as u64);
    snap.meta_u64.insert(META_NRANKS.into(), nranks as u64);
}

/// The active particles a snapshot records, order and bits.
fn particles(snap: &Snapshot) -> Result<Particles, CheckpointError> {
    Ok(Particles {
        x: column(snap, "x")?,
        y: column(snap, "y")?,
        z: column(snap, "z")?,
        vx: column(snap, "vx")?,
        vy: column(snap, "vy")?,
        vz: column(snap, "vz")?,
        id: snap
            .u64_fields
            .get("id")
            .cloned()
            .ok_or_else(|| CheckpointError::Missing("column 'id'".into()))?,
        n_active: snap.len(),
    })
}

impl DistSimulation<'static> {
    /// Rebuild a one-rank simulation from its checkpoint record,
    /// returning it with the number of steps already completed.
    /// Validates the config fingerprint and geometry; the per-block CRCs
    /// were already checked when `snap` was parsed.
    pub fn resume(cfg: SimConfig, snap: &Snapshot) -> Result<(Self, u64), CheckpointError> {
        let step = validate(snap, &cfg, 0, 1)?;
        let sim = DistSimulation::from_checkpoint_state(one_rank(), cfg, snap.a, particles(snap)?);
        Ok((sim, step))
    }
}

impl<'a> DistSimulation<'a> {
    /// This rank's restart record after `step_index` completed steps:
    /// the active-particle prefix (positions, momenta, ids) exactly as
    /// held, plus the step/config/geometry metadata.
    #[must_use] 
    pub fn checkpoint(&self, step_index: u64) -> Snapshot {
        let parts = self.particles();
        let n = parts.n_active;
        let mut snap = Snapshot::from_particles(
            self.config().box_len,
            self.a,
            &parts.x[..n],
            &parts.y[..n],
            &parts.z[..n],
            &parts.vx[..n],
            &parts.vy[..n],
            &parts.vz[..n],
            Some(&parts.id[..n]),
        );
        stamp(
            &mut snap,
            self.config(),
            step_index,
            self.comm().rank(),
            self.comm().size(),
        );
        snap
    }

    /// Write this rank's file of the `step_index` checkpoint set into
    /// `dir` (created if absent). Every rank calls this; the set is
    /// complete once all files exist.
    ///
    /// The file is written to a `.tmp` sibling and renamed into place,
    /// so a crash mid-write leaves either the previous version or no
    /// file — never a torn one that [`complete_sets`] would count and
    /// restart would then have to CRC-reject.
    pub fn checkpoint_to(&self, dir: &Path, step_index: u64) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(GenioError::Io)?;
        let path = checkpoint_path(dir, step_index, self.comm().rank(), self.comm().size());
        let tmp = path.with_extension("gio.tmp");
        self.checkpoint(step_index).write_file(&tmp)?;
        std::fs::rename(&tmp, &path).map_err(GenioError::Io)?;
        Ok(path)
    }

    /// Restore from the newest complete, valid checkpoint set in `dir`
    /// (collective). Rank 0 enumerates candidate sets and broadcasts the
    /// list; the ranks then walk it newest-first, each validating its own
    /// file (CRC, config fingerprint, geometry), and agree by allreduce
    /// on the first set every rank can read. Corrupted or half-written
    /// sets are skipped; a config mismatch aborts on every rank.
    ///
    /// Returns the rebuilt simulation and the number of completed steps,
    /// or [`CheckpointError::NoCheckpoint`] if nothing usable exists.
    /// The rebuilt view holds no long-range field: its first `step()`
    /// solves on the restored actives, kicks, then refreshes, which
    /// reproduces the uninterrupted run bit for bit.
    pub fn resume_from(
        comm: &'a Comm,
        cfg: SimConfig,
        dir: &Path,
    ) -> Result<(Self, u64), CheckpointError> {
        let p = comm.size();
        let mine = (comm.rank() == 0).then(|| complete_sets(dir, p));
        let candidates = comm.broadcast(0, mine);
        for &step in candidates.iter().rev() {
            let path = checkpoint_path(dir, step, comm.rank(), p);
            let attempt = Snapshot::read_file(&path)
                .map_err(CheckpointError::from)
                .and_then(|snap| validate(&snap, &cfg, comm.rank(), p).map(|s| (snap, s)));
            // Collective verdict: 0 = readable, 1 = unreadable/corrupt
            // (fall back to an older set), 2 = config mismatch (abort).
            let verdict = match &attempt {
                Ok(_) => 0.0,
                Err(CheckpointError::ConfigMismatch { .. }) => 2.0,
                Err(_) => 1.0,
            };
            match comm.allreduce_max(verdict) as u32 {
                0 => {
                    let (snap, file_step) = attempt.expect("verdict 0 implies readable");
                    debug_assert_eq!(file_step, step);
                    let sim = DistSimulation::from_checkpoint_state(comm, cfg, snap.a, particles(&snap)?);
                    return Ok((sim, file_step));
                }
                1 => continue,
                _ => {
                    return Err(match attempt {
                        Err(e @ CheckpointError::ConfigMismatch { .. }) => e,
                        // Another rank saw the mismatch; this rank's file
                        // may even be readable.
                        _ => CheckpointError::ConfigMismatch {
                            expected: config_fingerprint(&cfg),
                            found: 0,
                        },
                    });
                }
            }
        }
        Err(CheckpointError::NoCheckpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use hacc_cosmo::{Cosmology, LinearPower, Transfer};

    fn cfg() -> SimConfig {
        SimConfig {
            ng: 16,
            box_len: 64.0,
            a_init: 0.25,
            steps: 4,
            subcycles: 2,
            solver: crate::config::SolverKind::TreePm,
            ..SimConfig::small_lcdm()
        }
    }

    fn ics() -> hacc_ics::IcsRealization {
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        hacc_ics::zeldovich(8, 64.0, &power, 0.25, 4242)
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = cfg();
        let mut b = cfg();
        b.subcycles += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&cfg()));
    }

    #[test]
    fn path_names_roundtrip() {
        let p = checkpoint_path(Path::new("/tmp/x"), 17, 3, 8);
        let name = p.file_name().unwrap().to_str().unwrap();
        assert_eq!(parse_name(name), Some((17, 3, 8)));
        assert_eq!(parse_name("ckpt_step1_r0of2.txt"), None);
        assert_eq!(parse_name("snapshot.gio"), None);
    }

    #[test]
    fn serial_checkpoint_roundtrips_through_bytes() {
        let mut sim = Simulation::from_ics(cfg(), &ics());
        let edges = sim.config().step_edges();
        sim.step(edges[1]);
        let snap = sim.checkpoint(1);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("parse");
        let (resumed, step) = Simulation::resume(cfg(), &back).expect("resume");
        assert_eq!(step, 1);
        assert_eq!(resumed.positions(), sim.positions());
        assert_eq!(resumed.momenta(), sim.momenta());
        assert_eq!(resumed.a, sim.a);
    }

    #[test]
    fn serial_resume_is_bit_exact() {
        let edges = cfg().step_edges();
        // Uninterrupted run.
        let mut whole = Simulation::from_ics(cfg(), &ics());
        for &a1 in &edges[1..] {
            whole.step(a1);
        }
        // Checkpoint after step 2, resume in a fresh object, finish.
        let mut first = Simulation::from_ics(cfg(), &ics());
        first.step(edges[1]);
        first.step(edges[2]);
        let snap = first.checkpoint(2);
        drop(first);
        let (mut resumed, step) = Simulation::resume(cfg(), &snap).expect("resume");
        for &a1 in &edges[step as usize + 1..] {
            resumed.step(a1);
        }
        assert_eq!(resumed.positions(), whole.positions(), "positions diverged");
        assert_eq!(resumed.momenta(), whole.momenta(), "momenta diverged");
        assert_eq!(resumed.a.to_bits(), whole.a.to_bits());
    }

    /// Resume at every step boundary of a schedule whose sub-cycles
    /// reuse the Verlet tree (4 sub-cycles, 2% steps in `a` from 0.25):
    /// a resumed run starts with a fresh tree, so the uninterrupted run
    /// must not carry its tree across a step either — another topology
    /// sums the same pairs in another order.
    #[test]
    fn serial_resume_is_bit_exact_with_tree_reuse() {
        let cfg = SimConfig {
            ng: 12,
            box_len: 32.0,
            subcycles: 4,
            ..cfg()
        };
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let ics = hacc_ics::zeldovich(12, 32.0, &power, 0.25, 4242);
        let edges: Vec<f64> = (0..=6).map(|k| 0.25 * 1.02f64.powi(k)).collect();
        let bits = |sim: &Simulation| {
            let (x, y, z) = sim.positions();
            let (vx, vy, vz) = sim.momenta();
            [x, y, z, vx, vy, vz].map(|c| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let mut whole = Simulation::from_ics(cfg, &ics);
        for &a1 in &edges[1..] {
            whole.step(a1);
        }
        for at in 1..=4 {
            let mut first = Simulation::from_ics(cfg, &ics);
            for &a1 in &edges[1..=at] {
                first.step(a1);
            }
            let snap = first.checkpoint(at as u64);
            let (mut resumed, step) = Simulation::resume(cfg, &snap).expect("resume");
            for &a1 in &edges[step as usize + 1..] {
                resumed.step(a1);
            }
            assert!(bits(&resumed) == bits(&whole), "resumed after step {at}: trajectory diverged");
        }
    }

    #[test]
    fn resume_rejects_wrong_config() {
        let sim = Simulation::from_ics(cfg(), &ics());
        let snap = sim.checkpoint(0);
        let mut other = cfg();
        other.rcut_cells = 2.0;
        match Simulation::resume(other, &snap) {
            Err(CheckpointError::ConfigMismatch { .. }) => {}
            Err(e) => panic!("expected config mismatch, got {e:?}"),
            Ok(_) => panic!("expected config mismatch, got Ok"),
        }
    }

    #[test]
    fn resume_rejects_missing_metadata() {
        let sim = Simulation::from_ics(cfg(), &ics());
        let mut snap = sim.checkpoint(0);
        snap.meta_u64.remove(META_STEP);
        assert!(matches!(
            Simulation::resume(cfg(), &snap),
            Err(CheckpointError::Missing(_))
        ));
    }

    #[test]
    fn complete_sets_requires_every_rank() {
        let dir = std::env::temp_dir().join(format!("hacc_ckpt_sets_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let touch = |step: u64, rank: usize| {
            std::fs::write(checkpoint_path(&dir, step, rank, 2), b"x").unwrap();
        };
        touch(2, 0);
        touch(2, 1);
        touch(4, 0); // rank 1's file missing: incomplete
        std::fs::write(dir.join("unrelated.dat"), b"x").unwrap();
        assert_eq!(complete_sets(&dir, 2), vec![2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_write_leaves_no_countable_file() {
        // A `.tmp` leftover must be invisible to set discovery.
        let p = checkpoint_path(Path::new("/tmp/x"), 3, 1, 4);
        let tmp = p.with_extension("gio.tmp");
        let name = tmp.file_name().unwrap().to_str().unwrap();
        assert_eq!(parse_name(name), None, "tmp file parsed as a checkpoint");
    }

    #[test]
    fn gc_retains_newest_sets_and_spares_strays() {
        let dir = std::env::temp_dir().join(format!("hacc_ckpt_gc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let touch = |step: u64, rank: usize| {
            std::fs::write(checkpoint_path(&dir, step, rank, 2), b"x").unwrap();
        };
        for step in [2, 4, 6] {
            touch(step, 0);
            touch(step, 1);
        }
        touch(8, 0); // incomplete newest set: a run may still be writing it
        std::fs::write(dir.join("unrelated.dat"), b"x").unwrap();
        assert_eq!(gc_checkpoints(&dir, 2, 2), 2, "only set 2's files removed");
        assert_eq!(complete_sets(&dir, 2), vec![4, 6]);
        assert!(checkpoint_path(&dir, 8, 0, 2).exists(), "incomplete set touched");
        assert!(dir.join("unrelated.dat").exists(), "foreign file touched");
        // Already within budget: nothing further to remove.
        assert_eq!(gc_checkpoints(&dir, 2, 2), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every run now leaves the world write-ahead record next to its
    /// checkpoint sets; set discovery and the trim must not see it (nor
    /// the temp file its atomic rewrite passes through).
    #[test]
    fn world_meta_record_is_not_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("hacc_ckpt_meta_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = crate::elastic::WorldMeta {
            active: 2,
            generation: 0,
            step: 0,
            resizing: None,
        };
        meta.write(&dir).unwrap();
        let path = crate::elastic::WorldMeta::path(&dir);
        for name in ["world_meta.json", "world_meta.json.tmp"] {
            assert_eq!(parse_name(name), None, "{name} parsed as a checkpoint");
        }
        for rank in 0..2 {
            std::fs::write(checkpoint_path(&dir, 2, rank, 2), b"x").unwrap();
        }
        assert_eq!(complete_sets(&dir, 2), vec![2]);
        assert_eq!(gc_checkpoints(&dir, 2, 0), 2, "only the set's own files are removed");
        assert_eq!(crate::elastic::WorldMeta::read(&dir), Some(meta));
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
