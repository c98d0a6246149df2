//! End-to-end fault-tolerance guarantees: checkpoint/restart is
//! bit-exact, injected failures are survived by the recovery driver, and
//! lost messages surface as diagnostics instead of hangs.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hacc::analysis::PowerSpectrum;
use hacc::comm::{CommError, FaultPlan, Machine};
use hacc::core::checkpoint::{checkpoint_path, complete_sets};
use hacc::core::{
    run_resilient, write_timeline_json, DistSimulation, InvariantConfig, RecoveryEvent,
    ResilienceConfig, ResilienceError, SimConfig, SolverKind, TimelineHeader,
};
use hacc::cosmo::{Cosmology, LinearPower, Transfer};
use hacc::genio::Snapshot;

const RANKS: usize = 2;

fn cfg() -> SimConfig {
    SimConfig {
        ng: 16,
        box_len: 64.0,
        a_init: 0.2,
        a_final: 0.26,
        steps: 4,
        subcycles: 2,
        solver: SolverKind::TreePm,
        ..SimConfig::small_lcdm()
    }
}

fn ics() -> hacc::ics::IcsRealization {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    hacc::ics::zeldovich(8, 64.0, &power, 0.2, 31)
}

/// Fresh scratch directory under the system tmpdir.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hacc_resilience_{label}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Run the full schedule on a clean machine, checkpointing every step
/// into `dir`; returns rank 0's gathered `(id, position)` list.
fn uninterrupted(dir: &Path) -> Vec<(u64, [f32; 3])> {
    let realization = ics();
    let (mut res, _) = Machine::new(RANKS).run(|comm| {
        let config = cfg();
        let mut sim = DistSimulation::new(&comm, config, &realization);
        let edges = config.step_edges();
        for k in 0..config.steps {
            sim.step(edges[k + 1]);
            sim.checkpoint_to(dir, (k + 1) as u64).expect("checkpoint");
        }
        sim.gather_positions()
    });
    res.iter_mut().find_map(Option::take).expect("rank 0")
}

/// Interrupt a run after 2 of 4 steps, restart from disk in a brand-new
/// machine, and finish: final positions and the final checkpoint files
/// must be bit-identical to the uninterrupted run's.
#[test]
fn distributed_resume_is_bit_exact() {
    let dir_a = scratch("whole");
    let dir_b = scratch("split");
    let want = uninterrupted(&dir_a);

    let realization = ics();
    // First two steps, then the "job is killed" (closure just returns).
    Machine::new(RANKS).run(|comm| {
        let config = cfg();
        let mut sim = DistSimulation::new(&comm, config, &realization);
        let edges = config.step_edges();
        for k in 0..2 {
            sim.step(edges[k + 1]);
            sim.checkpoint_to(&dir_b, (k + 1) as u64).expect("checkpoint");
        }
    });
    // A different machine, a different process-lifetime: everything the
    // restart needs must come from the files.
    let (mut res, _) = Machine::new(RANKS).run(|comm| {
        let config = cfg();
        let (mut sim, done) =
            DistSimulation::resume_from(&comm, config, &dir_b).expect("resume from disk");
        assert_eq!(done, 2);
        let edges = config.step_edges();
        for k in done as usize..config.steps {
            sim.step(edges[k + 1]);
            sim.checkpoint_to(&dir_b, (k + 1) as u64).expect("checkpoint");
        }
        sim.gather_positions()
    });
    let got = res.iter_mut().find_map(Option::take).expect("rank 0");

    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.0, w.0, "particle ids diverged");
        for c in 0..3 {
            assert_eq!(
                g.1[c].to_bits(),
                w.1[c].to_bits(),
                "position bits diverged for id {}",
                g.0
            );
        }
    }
    // Stronger still: the final checkpoint records (positions, momenta,
    // ids, metadata) agree file-for-file.
    for rank in 0..RANKS {
        let a = Snapshot::read_file(&checkpoint_path(&dir_a, 4, rank, RANKS)).unwrap();
        let b = Snapshot::read_file(&checkpoint_path(&dir_b, 4, rank, RANKS)).unwrap();
        assert_eq!(a, b, "final checkpoint differs on rank {rank}");
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Steps `from..to` of `config` on a fresh machine, checkpointing every
/// step into `dir`: from the initial conditions when `from == 0`, else
/// resumed from the step-`from` set in `dir`. Returns rank 0's gathered
/// `(id, position)` list.
fn run_span(
    config: SimConfig,
    realization: &hacc::ics::IcsRealization,
    dir: &Path,
    (from, to): (usize, usize),
) -> Vec<(u64, [f32; 3])> {
    let (mut res, _) = Machine::new(RANKS).run(|comm| {
        let mut sim = if from == 0 {
            DistSimulation::new(&comm, config, realization)
        } else {
            let (sim, done) =
                DistSimulation::resume_from(&comm, config, dir).expect("resume from disk");
            assert_eq!(done, from as u64);
            sim
        };
        let edges = config.step_edges();
        for k in from..to {
            sim.step(edges[k + 1]);
            sim.checkpoint_to(dir, (k + 1) as u64).expect("checkpoint");
        }
        sim.gather_positions()
    });
    res.iter_mut().find_map(Option::take).expect("rank 0")
}

/// Resume across a migration: on `cfg32` particles change rank between
/// the step-2 set and step 3, so the refresh reorders and re-wraps the
/// actives. A resumed view must take its first long-range solve on the
/// actives exactly as checkpointed — before that refresh, as the
/// uninterrupted run's closing solve did — or the deposit order, and
/// with it every later bit, differs. Positions and the final checkpoint
/// files (positions, momenta, ids) must match bit for bit.
#[test]
fn resume_across_migration_is_bit_exact() {
    let dir_a = scratch("whole32");
    let dir_b = scratch("split32");
    let (config, realization) = (cfg32(), ics32());
    let want = run_span(config, &realization, &dir_a, (0, config.steps));
    run_span(config, &realization, &dir_b, (0, 2));
    let got = run_span(config, &realization, &dir_b, (2, config.steps));

    // The test only sees the solve's ordering if some particle migrates
    // at step 3's refresh.
    let ids = |step, rank| {
        let snap = Snapshot::read_file(&checkpoint_path(&dir_a, step, rank, RANKS)).unwrap();
        let mut ids = snap.u64_fields["id"].clone();
        ids.sort_unstable();
        ids
    };
    assert_ne!(ids(2, 0), ids(3, 0), "no particle migrated at step 3");

    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.0, w.0, "particle ids diverged");
        for c in 0..3 {
            assert_eq!(
                g.1[c].to_bits(),
                w.1[c].to_bits(),
                "position bits diverged for id {}",
                g.0
            );
        }
    }
    for rank in 0..RANKS {
        let a = Snapshot::read_file(&checkpoint_path(&dir_a, 4, rank, RANKS)).unwrap();
        let b = Snapshot::read_file(&checkpoint_path(&dir_b, 4, rank, RANKS)).unwrap();
        for col in ["vx", "vy", "vz"] {
            let bits = |s: &Snapshot| {
                s.f32_fields[col]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                bits(&a),
                bits(&b),
                "momentum column {col} differs on rank {rank}"
            );
        }
        assert_eq!(a, b, "final checkpoint differs on rank {rank}");
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The relaunch guarantee: what the in-run tiers cannot recover fails
/// the attempt, and the driver's relaunch still finishes with a final
/// state bit-identical to a failure-free run. At 2 ranks the 16-cell
/// slab of `cfg32` outruns the 4.5-cell overload shell, so a kill
/// before the first checkpoint set exists is Tier-0 incomplete with
/// nothing to roll back to: a Tier-2 abort, and attempt 2 cold-starts.
#[test]
fn killed_run_recovers_to_bit_exact_state() {
    let dir_clean = scratch("clean");
    let dir_faulty = scratch("faulty");
    let realization = ics32();

    let clean = run_resilient(
        cfg32(),
        &realization,
        &ResilienceConfig::new(RANKS, &dir_clean),
        &FaultPlan::none(),
    )
    .expect("clean run");
    assert_eq!(clean.attempts, 1);

    // Kill rank 1 the first time it begins step 2 (the first checkpoint
    // set is only written after step 2 completes).
    let faulty = run_resilient(
        cfg32(),
        &realization,
        &ResilienceConfig::new(RANKS, &dir_faulty),
        &FaultPlan::seeded(9).kill_rank_at_step(1, 2),
    )
    .expect("recovered run");
    assert_eq!(faulty.attempts, 2, "exactly one relaunch expected");
    assert!(
        faulty.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::Tier2Abort { attempt: 1, reason }
                if reason.contains("step 2") && reason.contains("no checkpoint set")
        )),
        "timeline must record why attempt 1 gave up: {:?}",
        faulty.timeline
    );
    assert!(
        faulty.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::AttemptStarted {
                attempt: 2,
                resume_step: None,
            }
        )),
        "second attempt must cold-start: {:?}",
        faulty.timeline
    );

    assert_eq!(clean.positions.len(), faulty.positions.len());
    for (c, f) in clean.positions.iter().zip(&faulty.positions) {
        assert_eq!(c.0, f.0);
        for k in 0..3 {
            assert_eq!(
                c.1[k].to_bits(),
                f.1[k].to_bits(),
                "recovered run diverged at id {}",
                c.0
            );
        }
    }
    for rank in 0..RANKS {
        let a = Snapshot::read_file(&checkpoint_path(&dir_clean, 4, rank, RANKS)).unwrap();
        let b = Snapshot::read_file(&checkpoint_path(&dir_faulty, 4, rank, RANKS)).unwrap();
        assert_eq!(a, b, "final checkpoint differs on rank {rank}");
    }
    let _ = std::fs::remove_dir_all(&dir_clean);
    let _ = std::fs::remove_dir_all(&dir_faulty);
}

/// The relaunch-from-checkpoint route end to end through `run_elastic`:
/// attempt 1 writes the step-2 set, then kills at steps 3 and 4 on 2
/// ranks (where every tier-0 rebuild falls short, see `cfg32`) spend
/// the one-rollback budget of `max_retries = 1`, and the second
/// escalation is a tier-2 abort. Attempt 2 resumes from that set — not a cold start — and
/// finishes bit-identical to an uninterrupted run.
#[test]
fn tier2_abort_relaunches_from_checkpoint_bit_exact() {
    let dir_clean = scratch("relaunch_clean");
    let dir_faulty = scratch("relaunch_faulty");
    let realization = ics32();
    let mut rc = ResilienceConfig::new(RANKS, &dir_clean);
    rc.max_retries = 1;
    rc.backoff = Duration::from_millis(1);
    let clean = run_elastic(
        cfg32(),
        &realization,
        &rc,
        RANKS,
        &ScaleSchedule::default(),
        &FaultPlan::none(),
    )
    .expect("clean run");

    rc.dir = dir_faulty.clone();
    let plan = FaultPlan::seeded(5)
        .kill_rank_at_step(1, 3)
        .kill_rank_at_step(0, 4);
    let run = run_elastic(
        cfg32(),
        &realization,
        &rc,
        RANKS,
        &ScaleSchedule::default(),
        &plan,
    )
    .expect("relaunched run");
    assert_eq!(run.attempts, 2, "{:?}", run.timeline);
    // A failed attempt's in-run events die with it; the abort reason
    // carries the rollback count.
    assert!(
        run.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::Tier2Abort { attempt: 1, reason }
                if reason.starts_with("2 checkpoint rollbacks") && reason.contains("step 4")
        )),
        "attempt 1 must end in a tier-2 abort after its rollback budget: {:?}",
        run.timeline
    );
    assert!(
        run.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::AttemptStarted {
                attempt: 2,
                resume_step: Some(2)
            }
        )),
        "attempt 2 must resume from the step-2 set: {:?}",
        run.timeline
    );
    assert_eq!(clean.positions.len(), run.positions.len());
    for (c, f) in clean.positions.iter().zip(&run.positions) {
        assert_eq!(c.0, f.0);
        for k in 0..3 {
            assert_eq!(
                c.1[k].to_bits(),
                f.1[k].to_bits(),
                "relaunch diverged at id {}",
                c.0
            );
        }
    }
    for rank in 0..RANKS {
        let a = Snapshot::read_file(&checkpoint_path(&dir_clean, 4, rank, RANKS)).unwrap();
        let b = Snapshot::read_file(&checkpoint_path(&dir_faulty, 4, rank, RANKS)).unwrap();
        assert_eq!(a, b, "final checkpoint differs on rank {rank}");
    }
    let _ = std::fs::remove_dir_all(&dir_clean);
    let _ = std::fs::remove_dir_all(&dir_faulty);
}

/// A corrupted file in the newest checkpoint set must not be trusted:
/// restart falls back to the previous complete, valid set.
#[test]
fn corrupt_newest_set_falls_back_to_older() {
    let dir = scratch("corrupt");
    uninterrupted(&dir);
    assert_eq!(complete_sets(&dir, RANKS), vec![1, 2, 3, 4]);
    // Truncate rank 1's file of the newest set, and scribble over the
    // middle of rank 0's file in the step-3 set.
    let p4 = checkpoint_path(&dir, 4, 1, RANKS);
    let bytes = std::fs::read(&p4).unwrap();
    std::fs::write(&p4, &bytes[..bytes.len() / 2]).unwrap();
    let p3 = checkpoint_path(&dir, 3, 0, RANKS);
    let mut bytes = std::fs::read(&p3).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&p3, &bytes).unwrap();

    let (res, _) = Machine::new(RANKS).run(|comm| {
        let (sim, done) =
            DistSimulation::resume_from(&comm, cfg(), &dir).expect("fallback resume");
        (done, sim.particles().n_active)
    });
    for (done, n_active) in res {
        assert_eq!(done, 2, "should fall back past both damaged sets");
        assert!(n_active > 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lost message under a recv deadline is a diagnostic error naming the
/// missing (context, src, tag) — never a hang.
#[test]
fn lost_message_is_diagnosed_not_hung() {
    let machine = Machine::new(2).with_faults(FaultPlan::seeded(5).drop_prob(1.0));
    let (res, _) = machine.run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, vec![1.0f64]);
            String::new()
        } else {
            match comm.recv_timeout::<f64>(0, 7, Duration::from_millis(50)) {
                Err(e @ CommError::Timeout { .. }) => {
                    if let CommError::Timeout { context, src, tag, .. } = &e {
                        assert_eq!((*context, *src, *tag), (0, 0, 7));
                    }
                    format!("{e}")
                }
                Err(e) => panic!("expected timeout, got {e:?}"),
                Ok(v) => panic!("expected timeout, got data {v:?}"),
            }
        }
    });
    assert!(res[1].contains("src=0") && res[1].contains("tag=7"), "{}", res[1]);
}

/// When the retry budget is exhausted the driver reports the full
/// timeline instead of looping forever.
#[test]
fn retries_exhausted_reports_timeline() {
    let dir = scratch("exhausted");
    let mut rc = ResilienceConfig::new(RANKS, &dir);
    rc.max_retries = 0;
    rc.backoff = Duration::from_millis(1);
    // Unrecoverable in-run (see `killed_run_recovers_to_bit_exact_state`).
    let err = run_resilient(
        cfg32(),
        &ics32(),
        &rc,
        &FaultPlan::seeded(1).kill_rank_at_step(0, 1),
    )
    .expect_err("no retries allowed");
    let ResilienceError::RetriesExhausted {
        attempts,
        last,
        timeline,
    } = err;
    assert_eq!(attempts, 1);
    assert!(last.contains("tier-2 abort: escalation at step 1"), "{last}");
    assert!(timeline
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Tier2Abort { attempt: 1, .. })));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A machine-wide receive watchdog rides along with detection and
/// recovery: the failed attempt is retried to completion.
#[test]
fn watchdog_plus_recovery_survives_transient_loss() {
    let dir = scratch("watchdog");
    let mut rc = ResilienceConfig::new(RANKS, &dir);
    rc.watchdog = Some(Duration::from_secs(30));
    let run = run_resilient(
        cfg32(),
        &ics32(),
        &rc,
        &FaultPlan::seeded(3).kill_rank_at_step(0, 1),
    )
    .expect("recovers");
    assert_eq!(run.attempts, 2);
    assert_eq!(run.final_step, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Online (heartbeat-detected, tiered) recovery
// ---------------------------------------------------------------------

/// Geometry for the online-recovery tests: a 32³ mesh so the slab width
/// per rank is controlled by the rank count. At 4 ranks each slab is 8
/// cells against a 4.5-cell overload shell — the two face shells cover
/// the whole slab, so Tier-0 reconstruction can account for every
/// particle. At 2 ranks the slab is 16 cells and the interior band is
/// beyond both shells, forcing the Tier-1 escalation path.
fn cfg32() -> SimConfig {
    SimConfig {
        ng: 32,
        box_len: 64.0,
        a_init: 0.2,
        a_final: 0.26,
        steps: 4,
        subcycles: 2,
        solver: SolverKind::TreePm,
        ..SimConfig::small_lcdm()
    }
}

fn ics32() -> hacc::ics::IcsRealization {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    hacc::ics::zeldovich(16, 64.0, &power, 0.2, 31)
}

/// Seed for the fault plan; CI's fault-matrix job sweeps it.
fn fault_seed() -> u64 {
    std::env::var("HACC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9)
}

fn online_rc(ranks: usize, dir: &Path) -> ResilienceConfig {
    let mut rc = ResilienceConfig::new(ranks, dir);
    rc.invariants = Some(InvariantConfig::default());
    rc.retain = Some(2);
    rc
}

/// Global momentum and kinetic energy from a checkpoint set's velocity
/// columns (unit particle mass).
fn momentum_and_ke(dir: &Path, step: u64, ranks: usize) -> ([f64; 3], f64) {
    let mut p = [0.0f64; 3];
    let mut ke = 0.0f64;
    for rank in 0..ranks {
        let snap = Snapshot::read_file(&checkpoint_path(dir, step, rank, ranks)).unwrap();
        let v: Vec<&Vec<f32>> = ["vx", "vy", "vz"]
            .iter()
            .map(|c| snap.f32_fields.get(*c).expect("velocity column"))
            .collect();
        for ((&x, &y), &z) in v[0].iter().zip(v[1]).zip(v[2]) {
            let (vx, vy, vz) = (f64::from(x), f64::from(y), f64::from(z));
            p[0] += vx;
            p[1] += vy;
            p[2] += vz;
            ke += 0.5 * (vx * vx + vy * vy + vz * vz);
        }
    }
    (p, ke)
}

fn measure_pk(positions: &[(u64, [f32; 3])]) -> PowerSpectrum {
    let xs: Vec<f32> = positions.iter().map(|&(_, p)| p[0]).collect();
    let ys: Vec<f32> = positions.iter().map(|&(_, p)| p[1]).collect();
    let zs: Vec<f32> = positions.iter().map(|&(_, p)| p[2]).collect();
    PowerSpectrum::measure(&xs, &ys, &zs, 64.0, 32, 8)
}

/// Acceptance test 1: a seeded kill is *detected* by the heartbeat (not
/// relaunched), recovered at Tier 0 from the overload shells with no
/// rollback, and the post-recovery run matches the fault-free one:
/// exact global particle count, momentum and power spectrum within
/// tolerance.
#[test]
fn heartbeat_kill_recovers_online_without_rollback() {
    const R4: usize = 4;
    let seed = fault_seed();
    let dir_clean = scratch("tier0_clean");
    let dir_faulty = scratch("tier0_faulty");
    let realization = ics32();
    let expected = realization.len();

    let clean = run_resilient(
        cfg32(),
        &realization,
        &online_rc(R4, &dir_clean),
        &FaultPlan::none(),
    )
    .expect("clean online run");
    assert_eq!(clean.attempts, 1);

    let victim = (seed as usize) % R4;
    let kill_step = 3 + (seed % 2); // after the step-2 checkpoint set exists
    let run = run_resilient(
        cfg32(),
        &realization,
        &online_rc(R4, &dir_faulty),
        &FaultPlan::seeded(seed).kill_rank_at_step(victim, kill_step),
    )
    .expect("online tier-0 recovery");
    write_timeline_json(
        Path::new(&format!("out/resilience/tier0_seed{seed}.json")),
        Some(&TimelineHeader::for_config(&online_rc(R4, &dir_faulty), Some(seed))),
        &run.timeline,
    )
    .expect("timeline artifact");

    // Detected and survived online: one attempt, no rollback, no panic.
    assert_eq!(run.attempts, 1, "tier-0 must not relaunch: {:?}", run.timeline);
    assert!(
        run.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::RankFailureDetected { step, rank, epoch }
                if *step == kill_step && *rank == victim && *epoch == kill_step - 1
        )),
        "heartbeat detection missing from timeline: {:?}",
        run.timeline
    );
    assert!(
        run.timeline
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Tier0Reconstructed { count, .. } if *count == expected)),
        "tier-0 reconstruction missing: {:?}",
        run.timeline
    );
    assert!(
        run.timeline
            .iter()
            .any(|e| matches!(e, RecoveryEvent::ProactiveCheckpoint { .. })),
        "recovered state was not locked in: {:?}",
        run.timeline
    );
    assert!(
        !run.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::Tier1Rollback { .. }
                | RecoveryEvent::Failure { .. }
                | RecoveryEvent::InvariantBreach { .. }
        )),
        "tier-0 path must not roll back or breach: {:?}",
        run.timeline
    );

    // Every particle accounted for, by id.
    assert_eq!(run.positions.len(), expected);
    for (i, &(id, _)) in run.positions.iter().enumerate() {
        assert_eq!(id, i as u64, "particle ids must be gapless after recovery");
    }

    // Momentum within tolerance of the fault-free run (replicas track
    // their lost originals to force-noise, not bit-exactly).
    let (p_clean, ke_clean) = momentum_and_ke(&dir_clean, 4, R4);
    let (p_faulty, _) = momentum_and_ke(&dir_faulty, 4, R4);
    let scale = (2.0 * ke_clean * expected as f64).sqrt();
    for a in 0..3 {
        assert!(
            (p_faulty[a] - p_clean[a]).abs() < 0.02 * scale,
            "momentum[{a}] drifted: {} vs {} (scale {scale})",
            p_faulty[a],
            p_clean[a]
        );
    }

    // Power spectrum within tolerance, bin by bin.
    let pk_clean = measure_pk(&clean.positions);
    let pk_faulty = measure_pk(&run.positions);
    for i in 0..pk_clean.p.len() {
        if pk_clean.count[i] > 0 && pk_clean.p[i] > 0.0 {
            let rel = (pk_faulty.p[i] - pk_clean.p[i]).abs() / pk_clean.p[i];
            assert!(
                rel < 0.02,
                "P(k) bin {i} off by {rel}: {} vs {}",
                pk_faulty.p[i],
                pk_clean.p[i]
            );
        }
    }

    // retain=2 kept the checkpoint directory trimmed.
    assert!(complete_sets(&dir_faulty, R4).len() <= 2);
    let _ = std::fs::remove_dir_all(&dir_clean);
    let _ = std::fs::remove_dir_all(&dir_faulty);
}

/// Tier-0 recovery with the two-level mesh on. The respawned rank builds
/// its blank view alone while the survivor keeps its own, so building a
/// view must not communicate: the collectively built coarse transform is
/// dropped by reconstruction on every rank and rebuilt together on the
/// next solve. Geometry: a 9.5-cell overload shell (r_cut 8) from each
/// face covers an 18-plane slab, which in turn hosts the 7 + 11 ghost
/// planes of a loose force split.
#[test]
fn two_level_kill_recovers_online_without_rollback() {
    let cfg = SimConfig {
        ng: 36,
        solver: SolverKind::PmOnly,
        rcut_cells: 8.0,
        two_level: Some(hacc::pm::PmLevelConfig {
            coarsening: 2,
            matching_tol: 0.3,
        }),
        ..cfg32()
    };
    let dir = scratch("tier0_two_level");
    let realization = ics32();
    let expected = realization.len();
    let run = run_resilient(
        cfg,
        &realization,
        &online_rc(RANKS, &dir),
        &FaultPlan::seeded(fault_seed()).kill_rank_at_step(1, 3),
    )
    .expect("online tier-0 recovery");
    assert_eq!(run.attempts, 1, "tier-0 must not relaunch: {:?}", run.timeline);
    assert!(
        run.timeline
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Tier0Reconstructed { count, .. } if *count == expected)),
        "tier-0 reconstruction missing: {:?}",
        run.timeline
    );
    assert!(
        !run.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::Tier1Rollback { .. } | RecoveryEvent::Failure { .. }
        )),
        "tier-0 path must not roll back: {:?}",
        run.timeline
    );
    let ids: Vec<u64> = run.positions.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, (0..expected as u64).collect::<Vec<_>>(), "gapless ids");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance test 2: at 2 ranks the 16-cell slab dwarfs the 4.5-cell
/// overload shell, so a dead rank's interior particles are beyond any
/// survivor's replicas — Tier 0 must report incomplete coverage and the
/// run must escalate cleanly to a Tier-1 checkpoint rollback, with both
/// tiers visible on the timeline. The rollback replays deterministically,
/// so the final state is bit-exact w.r.t. the fault-free run.
#[test]
fn overload_shortfall_escalates_to_tier1_rollback() {
    const R2: usize = 2;
    let seed = fault_seed();
    let dir_clean = scratch("tier1_clean");
    let dir_faulty = scratch("tier1_faulty");
    let realization = ics32();
    let expected = realization.len();

    let clean = run_resilient(
        cfg32(),
        &realization,
        &online_rc(R2, &dir_clean),
        &FaultPlan::none(),
    )
    .expect("clean online run");

    let victim = (seed as usize) % R2;
    let kill_step = 3 + (seed % 2);
    let run = run_resilient(
        cfg32(),
        &realization,
        &online_rc(R2, &dir_faulty),
        &FaultPlan::seeded(seed).kill_rank_at_step(victim, kill_step),
    )
    .expect("tier-1 recovery");
    write_timeline_json(
        Path::new(&format!("out/resilience/tier1_seed{seed}.json")),
        Some(&TimelineHeader::for_config(&online_rc(R2, &dir_faulty), Some(seed))),
        &run.timeline,
    )
    .expect("timeline artifact");

    assert_eq!(run.attempts, 1, "tier-1 recovers in-run: {:?}", run.timeline);
    assert!(
        run.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::Tier0Incomplete { step, expected: want, got }
                if *step == kill_step && *want == expected && *got < expected
        )),
        "tier-0 shortfall missing from timeline: {:?}",
        run.timeline
    );
    assert!(
        run.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::Tier1Rollback { step, resume_step: 2 } if *step == kill_step
        )),
        "tier-1 rollback missing from timeline: {:?}",
        run.timeline
    );

    // Replay from the checkpoint is deterministic: bit-exact final state.
    assert_eq!(run.positions.len(), expected);
    for (c, f) in clean.positions.iter().zip(&run.positions) {
        assert_eq!(c.0, f.0);
        for k in 0..3 {
            assert_eq!(
                c.1[k].to_bits(),
                f.1[k].to_bits(),
                "tier-1 replay diverged at id {}",
                c.0
            );
        }
    }
    for rank in 0..R2 {
        let a = Snapshot::read_file(&checkpoint_path(&dir_clean, 4, rank, R2)).unwrap();
        let b = Snapshot::read_file(&checkpoint_path(&dir_faulty, 4, rank, R2)).unwrap();
        assert_eq!(a, b, "final checkpoint differs on rank {rank}");
    }
    let _ = std::fs::remove_dir_all(&dir_clean);
    let _ = std::fs::remove_dir_all(&dir_faulty);
}

/// The timeline of a dropped-and-recovered machine is printable (the
/// example relies on this).
#[test]
fn timeline_renders() {
    let dir = scratch("render");
    let run = run_resilient(
        cfg32(),
        &ics32(),
        &ResilienceConfig::new(RANKS, &dir),
        &FaultPlan::seeded(11).kill_rank_at_step(1, 2),
    )
    .expect("recovers");
    let rendered: Vec<String> = run.timeline.iter().map(|e| format!("{e}")).collect();
    assert!(rendered.iter().any(|l| l.contains("cold start")));
    assert!(rendered.iter().any(|l| l.contains("tier-2 abort")));
    assert!(rendered.iter().any(|l| l.contains("completed step 4")));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Elastic rank scaling (grow/shrink on the recovery path)
// ---------------------------------------------------------------------

use hacc::core::checkpoint::gc_checkpoints;
use hacc::core::{run_elastic, ScaleSchedule, WorldMeta};

/// Geometry for the elastic tests: a 36³ mesh divides evenly by every
/// world size the 4→6→3 schedule visits, and at 6 ranks the 6-cell slab
/// is still wider than the 5.5-cell tree halo. At 6 ranks the two
/// 4.5-cell overload shells cover the whole slab, so a mid-era kill
/// recovers at Tier 0.
fn cfg36() -> SimConfig {
    SimConfig {
        ng: 36,
        box_len: 64.0,
        a_init: 0.2,
        a_final: 0.32,
        steps: 10,
        subcycles: 2,
        solver: SolverKind::TreePm,
        ..SimConfig::small_lcdm()
    }
}

fn ics36() -> hacc::ics::IcsRealization {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    hacc::ics::zeldovich(18, 64.0, &power, 0.2, 31)
}

/// Elastic runs keep every checkpoint set: the assertions below read
/// old-size and new-size sets back after the run.
fn elastic_rc(capacity: usize, dir: &Path) -> ResilienceConfig {
    let mut rc = ResilienceConfig::new(capacity, dir);
    rc.invariants = Some(InvariantConfig::default());
    rc.retain = None;
    rc
}

fn count_events(timeline: &[RecoveryEvent], pred: impl Fn(&RecoveryEvent) -> bool) -> usize {
    timeline.iter().filter(|e| pred(e)).count()
}

/// The elastic acceptance test: a 4-rank world grows to 6 and shrinks
/// to 3 mid-run (fault-free, then again while sustaining a seeded
/// SIGKILL mid-era), and both runs end with every particle id
/// accounted for and momentum + P(k) within tolerance of a fault-free
/// fixed-world reference. Scaling itself must cause no rollbacks.
#[test]
fn elastic_grow_shrink_survives_chaos() {
    const CAPACITY: usize = 6;
    let seed = fault_seed();
    let dir_ref = scratch("elastic_ref");
    let dir_clean = scratch("elastic_clean");
    let dir_chaos = scratch("elastic_chaos");
    let realization = ics36();
    let expected = realization.len();
    let schedule = ScaleSchedule::parse("6@3,3@7");

    // Fault-free fixed-world reference at the starting size.
    let reference = run_resilient(
        cfg36(),
        &realization,
        &online_rc(4, &dir_ref),
        &FaultPlan::none(),
    )
    .expect("fixed-world reference");
    let (p_ref, ke_ref) = momentum_and_ke(&dir_ref, 10, 4);
    let pk_ref = measure_pk(&reference.positions);
    let scale = (2.0 * ke_ref * expected as f64).sqrt();

    let check = |run: &hacc::core::ResilientRun, dir: &Path, label: &str| {
        assert_eq!(run.attempts, 1, "{label}: must finish in one attempt");
        assert_eq!(run.final_step, 10);
        // Both resizes committed, at the right steps and generations.
        for (step, from, to, generation) in [(3, 4, 6, 1), (7, 6, 3, 2)] {
            assert!(
                run.timeline.iter().any(|e| matches!(
                    e,
                    RecoveryEvent::ScaleCommitted { step: s, from: f, to: t, count, generation: g }
                        if *s == step && *f == from && *t == to
                            && *count == expected && *g == generation
                )),
                "{label}: missing commit {from}->{to} at step {step}: {:?}",
                run.timeline
            );
        }
        assert_eq!(
            count_events(&run.timeline, |e| matches!(e, RecoveryEvent::ScalePlanned { .. })),
            2,
            "{label}: exactly the two scheduled resizes are planned"
        );
        // Scaling itself causes no aborts and no rollbacks.
        assert_eq!(
            count_events(&run.timeline, |e| matches!(e, RecoveryEvent::ScaleAborted { .. })),
            0,
            "{label}: no resize may abort: {:?}",
            run.timeline
        );
        assert_eq!(
            count_events(&run.timeline, |e| matches!(e, RecoveryEvent::Tier1Rollback { .. })),
            0,
            "{label}: no rollback attributable to scaling: {:?}",
            run.timeline
        );
        // Gapless ids: every particle certified into the final world.
        assert_eq!(run.positions.len(), expected, "{label}: particle count");
        for (i, &(id, _)) in run.positions.iter().enumerate() {
            assert_eq!(id, i as u64, "{label}: particle ids must be gapless");
        }
        // The final world committed at 3 ranks, durably.
        let meta = WorldMeta::read(dir).expect("world meta");
        assert_eq!((meta.active, meta.generation, meta.resizing), (3, 2, None), "{label}");
        assert!(
            complete_sets(dir, 3).contains(&10),
            "{label}: final checkpoint set must be at the 3-rank size"
        );
        // Physics within tolerance of the fixed-world reference.
        let (p, _) = momentum_and_ke(dir, 10, 3);
        for a in 0..3 {
            assert!(
                (p[a] - p_ref[a]).abs() < 0.02 * scale,
                "{label}: momentum[{a}] drifted: {} vs {} (scale {scale})",
                p[a],
                p_ref[a]
            );
        }
        let pk = measure_pk(&run.positions);
        for i in 0..pk_ref.p.len() {
            if pk_ref.count[i] > 0 && pk_ref.p[i] > 0.0 {
                let rel = (pk.p[i] - pk_ref.p[i]).abs() / pk_ref.p[i];
                assert!(
                    rel < 0.02,
                    "{label}: P(k) bin {i} off by {rel}: {} vs {}",
                    pk.p[i],
                    pk_ref.p[i]
                );
            }
        }
    };

    // Fault-free elastic run.
    let clean = run_elastic(
        cfg36(),
        &realization,
        &elastic_rc(CAPACITY, &dir_clean),
        4,
        &schedule,
        &FaultPlan::none(),
    )
    .expect("fault-free elastic run");
    check(&clean, &dir_clean, "clean");

    // Chaos: a seeded kill at step 5, inside the 6-rank era. The 6-cell
    // slab is fully covered by overload shells, so recovery is Tier 0 —
    // in-run, no rollback — and both resizes still commit.
    let victim = (seed as usize) % CAPACITY;
    let chaos = run_elastic(
        cfg36(),
        &realization,
        &elastic_rc(CAPACITY, &dir_chaos),
        4,
        &schedule,
        &FaultPlan::seeded(seed).kill_rank_at_step(victim, 5),
    )
    .expect("chaos elastic run");
    write_timeline_json(
        Path::new(&format!("out/resilience/elastic_chaos_seed{seed}.json")),
        Some(&TimelineHeader::for_config(&elastic_rc(CAPACITY, &dir_chaos), Some(seed))),
        &chaos.timeline,
    )
    .expect("timeline artifact");
    check(&chaos, &dir_chaos, "chaos");
    assert!(
        chaos.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::RankFailureDetected { step: 5, rank, .. } if *rank == victim
        )),
        "chaos: the kill must be detected at step 5: {:?}",
        chaos.timeline
    );
    assert!(
        chaos.timeline.iter().any(|e| matches!(
            e,
            RecoveryEvent::Tier0Reconstructed { count, .. } if *count == expected
        )),
        "chaos: tier-0 must rebuild the victim in-run: {:?}",
        chaos.timeline
    );

    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_clean);
    let _ = std::fs::remove_dir_all(&dir_chaos);
}

/// A kill landing exactly on the resize fence must abort the grow —
/// cleanly, through the existing tiers: the old world rolls back to the
/// pre-resize checkpoint, the doomed resize is not retried, and the run
/// completes at the old size.
#[test]
fn kill_at_resize_fence_aborts_grow_cleanly() {
    const CAPACITY: usize = 6;
    let dir = scratch("elastic_abort");
    let realization = ics36();
    let expected = realization.len();

    // The grow after step 3 fences by admitting step 4; kill an old-world
    // member on that very beat.
    let run = run_elastic(
        cfg36(),
        &realization,
        &elastic_rc(CAPACITY, &dir),
        4,
        &ScaleSchedule::parse("6@3"),
        &FaultPlan::seeded(fault_seed()).kill_rank_at_step(1, 4),
    )
    .expect("fence-kill run completes");

    assert_eq!(run.attempts, 1, "abort resolves in-run: {:?}", run.timeline);
    assert!(
        run.timeline
            .iter()
            .any(|e| matches!(e, RecoveryEvent::ScalePlanned { step: 3, from: 4, to: 6, .. })),
        "the grow must be planned before it can abort: {:?}",
        run.timeline
    );
    assert!(
        run.timeline
            .iter()
            .any(|e| matches!(e, RecoveryEvent::ScaleAborted { step: 3, from: 4, to: 6, .. })),
        "fence kill must abort the grow: {:?}",
        run.timeline
    );
    assert_eq!(
        count_events(&run.timeline, |e| matches!(e, RecoveryEvent::ScaleCommitted { .. })),
        0,
        "nothing may commit: {:?}",
        run.timeline
    );
    // Rolled back through the ordinary tier-1 path, exactly once, to the
    // pre-resize checkpoint at step 3.
    assert_eq!(
        count_events(&run.timeline, |e| matches!(
            e,
            RecoveryEvent::Tier1Rollback { step: 4, resume_step: 3 }
        )),
        1,
        "exactly one rollback, to the pre-fence set: {:?}",
        run.timeline
    );
    // Not retried: one plan, one abort.
    assert_eq!(
        count_events(&run.timeline, |e| matches!(e, RecoveryEvent::ScalePlanned { .. })),
        1,
        "an aborted resize must not be retried: {:?}",
        run.timeline
    );
    // The run finished on the old 4-rank world with every particle.
    assert_eq!(run.positions.len(), expected);
    for (i, &(id, _)) in run.positions.iter().enumerate() {
        assert_eq!(id, i as u64, "particle ids must be gapless after the abort");
    }
    let meta = WorldMeta::read(&dir).expect("world meta");
    assert_eq!((meta.active, meta.resizing), (4, None));
    assert!(complete_sets(&dir, 4).contains(&10));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention must never count an in-flight checkpoint set: a failure
/// between a rank's write-temp and its rename leaves the newest set
/// incomplete, and the trim has to spare the last *complete* set (it is
/// still the only valid restart point) and leave the partial files
/// alone for the rename to finish.
#[test]
fn gc_spares_last_complete_set_when_newest_is_mid_rename() {
    let dir = scratch("gc_race");
    uninterrupted(&dir); // complete sets at steps 1..=4, RANKS ranks
    assert_eq!(complete_sets(&dir, RANKS), vec![1, 2, 3, 4]);

    // Simulate rank 1 dying between write-temp and rename: its step-4
    // file is still a temp, so the step-4 set is incomplete.
    let final_path = checkpoint_path(&dir, 4, 1, RANKS);
    let tmp_path = final_path.with_extension("gio.tmp");
    std::fs::rename(&final_path, &tmp_path).unwrap();
    assert_eq!(complete_sets(&dir, RANKS), vec![1, 2, 3]);

    // The fenced trim with keep=1 must retain step 3 (the last complete
    // set) and must not touch the partial step-4 files.
    let removed = gc_checkpoints(&dir, RANKS, 1);
    assert_eq!(removed, 2 * RANKS, "steps 1 and 2 are trimmed, per-rank");
    assert_eq!(complete_sets(&dir, RANKS), vec![3]);
    assert!(
        checkpoint_path(&dir, 4, 0, RANKS).exists(),
        "partial set's finished files must survive the trim"
    );
    assert!(tmp_path.exists(), "in-flight temp file must survive the trim");

    // The rename completes (rank recovered / replayed): step 4 becomes
    // complete, and only now may the trim retire step 3.
    std::fs::rename(&tmp_path, &final_path).unwrap();
    assert_eq!(complete_sets(&dir, RANKS), vec![3, 4]);
    assert_eq!(gc_checkpoints(&dir, RANKS, 1), RANKS);
    assert_eq!(complete_sets(&dir, RANKS), vec![4]);

    // And the spared set is genuinely restartable.
    let (res, _) = Machine::new(RANKS).run(|comm| {
        let (_, done) = DistSimulation::resume_from(&comm, cfg(), &dir).expect("resume");
        done
    });
    assert!(res.iter().all(|&d| d == 4));
    let _ = std::fs::remove_dir_all(&dir);
}
