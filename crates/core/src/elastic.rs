//! The recovery driver, and elastic rank scaling on the recovery path.
//!
//! One per-rank attempt function ([`run_attempt_elastic`]) and one
//! relaunch loop ([`run_elastic`]) drive every resilient run; a
//! fixed-size run is the elastic run with an empty [`ScaleSchedule`]
//! (that is all [`crate::resilient::run_resilient`] is). Planned world
//! resizing is built from the *same* primitives failures use, so
//! scaling inherits their correctness argument instead of growing a
//! parallel one:
//!
//! * the world runs at a fixed **capacity**; ranks beyond the active
//!   prefix are parked in the failure detector and cost nothing;
//! * a resize is decided by a [`ScalePlan`] priced from measured
//!   per-rank step cost through the [`ResizeModel`] of `hacc-machine`;
//! * the handover is fenced by the epoch-sync admission barrier
//!   (`admit_step`), so a rank dying mid-resize surfaces as a detector
//!   verdict — never a hang — and the resize **aborts** back to a
//!   checkpoint written immediately before the fence;
//! * particles migrate by ownership routing (`try_reshard`) over the
//!   union of the old and new worlds, and the result is **certified**
//!   by a global count before the old decomposition retires;
//! * the committed world size is journaled in a tiny write-ahead record
//!   (`world_meta.json`) so respawned processes and relaunched attempts
//!   orient themselves without a survivor's help.
//!
//! The run is a sequence of **eras**: a fixed-size stretch of steps
//! between resizes. Within an era the driver is the online recovery
//! loop (tier-0 overload reconstruction, tier-1 rollback, invariant
//! vetting — the tiers of [`crate::resilient`]); at a scheduled
//! boundary the era ends in a resize rendezvous that either commits a
//! new era at the new size, retires this rank to the reserve pool, or
//! aborts back into the old era.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use hacc_comm::{
    Comm, CommError, EpochReport, FaultPlan, Machine, MachineError, StepAdmission,
};
use hacc_domain::{try_reshard, Particles};
use hacc_machine::ResizeModel;

use crate::checkpoint::{complete_sets, gc_checkpoints, CheckpointError};
use crate::config::SimConfig;
use crate::dist::DistSimulation;
use crate::invariant::{InvariantMonitor, InvariantVerdict};
use crate::resilient::{
    AttemptOutput, RecoveryEvent, ResilienceConfig, ResilienceError, ResilientRun,
};

/// Wire size of one migrated particle (`Packed`: six f32 + one u64 id),
/// used to price the reshard in the [`ResizeModel`].
const PACKED_WIRE_BYTES: f64 = 32.0;
/// Nominal reshard bandwidth for the cost model, bytes/s. The model
/// only has to rank alternatives consistently; scheduled resizes are
/// mandated regardless, with the break-even recorded for the timeline.
const RESHARD_BANDWIDTH: f64 = 1.0e9;
/// Nominal cost of the rendezvous fence + certification collectives.
const FENCE_TIME: f64 = 0.01;
/// Tag for the fence-exit acknowledgement frames exchanged over the
/// union communicator after a fence breaks. The union context is never
/// reused (it is derived from `(generation, step)`), so a stray ack
/// left in a mailbox is harmless.
const FENCE_ACK_TAG: u64 = 0xE1A5_71C0_0ACC_0001;

// ---------------------------------------------------------------------------
// Scale schedule
// ---------------------------------------------------------------------------

/// When to resize, as `(after completed step, target active ranks)`.
///
/// Parsed from specs like `"6@3,3@7"`: grow to 6 ranks after step 3,
/// shrink to 3 after step 7.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScaleSchedule {
    entries: Vec<(u64, usize)>,
}

impl ScaleSchedule {
    /// Parse a `TARGET@STEP[,TARGET@STEP...]` spec. Panics on malformed
    /// input or duplicate steps (a config error, not a runtime state).
    #[must_use]
    pub fn parse(spec: &str) -> Self {
        let mut entries: Vec<(u64, usize)> = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (target, step) = part
                .split_once('@')
                .unwrap_or_else(|| panic!("scale spec `{part}` must be TARGET@STEP"));
            let target: usize = target
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("scale spec `{part}`: bad target"));
            let step: u64 = step
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("scale spec `{part}`: bad step"));
            assert!(target >= 1, "scale spec `{part}`: target must be >= 1");
            entries.push((step, target));
        }
        entries.sort_unstable();
        for w in entries.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "scale spec: duplicate resize at step {}",
                w[0].0
            );
        }
        ScaleSchedule { entries }
    }

    /// The target world size scheduled right after completing `step`,
    /// if any.
    #[must_use]
    pub fn target_after(&self, step: u64) -> Option<usize> {
        self.entries
            .iter()
            .find(|&&(s, _)| s == step)
            .map(|&(_, t)| t)
    }

    /// No resizes scheduled?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest target in the schedule (capacity floor), if any.
    #[must_use]
    pub fn max_target(&self) -> Option<usize> {
        self.entries.iter().map(|&(_, t)| t).max()
    }
}

// ---------------------------------------------------------------------------
// Scale plan
// ---------------------------------------------------------------------------

/// A priced resize decision: what the rendezvous is about to do and why.
#[derive(Debug, Clone)]
pub struct ScalePlan {
    /// Completed step the resize lands after.
    pub step: u64,
    /// Current active world size.
    pub from: usize,
    /// Target active world size.
    pub to: usize,
    /// Steps until the resize pays for itself, `None` if it never does
    /// (recorded for the timeline; scheduled resizes run regardless).
    pub break_even: Option<u64>,
    /// Human-readable justification naming the hottest rank.
    pub rationale: String,
    /// The cost model the decision was priced with.
    pub model: ResizeModel,
}

impl ScalePlan {
    /// Price a resize from the measured per-rank step cost (seconds,
    /// one slot per active rank — each rank's own last
    /// `StepBreakdown::total`, combined by elementwise max allreduce).
    ///
    /// The projected new-world step time assumes the slab solve scales
    /// with the inverse world size from the hottest measured rank — the
    /// load-balance ideal, which is what a *planned* resize buys.
    #[must_use]
    pub fn decide(
        step: u64,
        from: usize,
        to: usize,
        per_rank_cost: &[f64],
        n_particles: usize,
    ) -> Self {
        assert!(from >= 1 && to >= 1 && from != to, "resize {from}->{to}");
        let (hot, hot_cost) = per_rank_cost
            .iter()
            .copied()
            .enumerate()
            .fold((0, 0.0_f64), |acc, (i, c)| if c > acc.1 { (i, c) } else { acc });
        let model = ResizeModel {
            reshard_bytes: n_particles as f64 * PACKED_WIRE_BYTES,
            reshard_bandwidth: RESHARD_BANDWIDTH,
            barrier_time: FENCE_TIME,
            step_time_old: hot_cost,
            step_time_new: hot_cost * from as f64 / to as f64,
        };
        let break_even = model.break_even_steps();
        let rationale = if to > from {
            format!(
                "grow {from}->{to}: hottest rank {hot} at {hot_cost:.3e} s/step, \
                 projected {:.3e} s/step",
                model.step_time_new
            )
        } else {
            format!(
                "shrink {from}->{to}: releasing {} rank(s), hottest rank {hot} \
                 at {hot_cost:.3e} s/step",
                from - to
            )
        };
        ScalePlan {
            step,
            from,
            to,
            break_even,
            rationale,
            model,
        }
    }
}

// ---------------------------------------------------------------------------
// World metadata write-ahead record
// ---------------------------------------------------------------------------

/// The durable record of where the world is: committed size and
/// generation, the step the record was taken at, and — while a resize
/// is in flight — the target it intends to reach.
///
/// Written atomically (temp + rename) by rank 0 only, at exactly three
/// moments: pinning the initial world before the first step, declaring
/// resize *intent* before admitting reserve ranks, and recording the
/// *outcome* (commit bumps `active`/`generation`, abort clears
/// `resizing`). Everyone else only reads it, and only when they have no
/// live peer to ask: at process entry and on waking from the reserve
/// pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldMeta {
    /// Committed active world size.
    pub active: usize,
    /// Committed decomposition generation (bumped by every commit).
    pub generation: u64,
    /// Step the record was written at.
    pub step: u64,
    /// In-flight resize target, `None` when no resize is under way.
    pub resizing: Option<usize>,
}

impl WorldMeta {
    /// Location of the record inside a checkpoint directory.
    #[must_use]
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("world_meta.json")
    }

    /// Serialize (stable single-line JSON).
    #[must_use]
    pub fn to_json(&self) -> String {
        let resizing = self
            .resizing
            .map_or_else(|| "null".to_string(), |t| t.to_string());
        format!(
            "{{\"active\":{},\"generation\":{},\"step\":{},\"resizing\":{}}}\n",
            self.active, self.generation, self.step, resizing
        )
    }

    /// Parse the serialized form; `None` on anything malformed.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(WorldMeta {
            active: usize::try_from(json_u64_field(s, "active")?).ok()?,
            generation: json_u64_field(s, "generation")?,
            step: json_u64_field(s, "step")?,
            resizing: json_u64_field(s, "resizing").map(|t| t as usize),
        })
    }

    /// Read the record from `dir`, `None` if absent or unreadable.
    #[must_use]
    pub fn read(dir: &Path) -> Option<Self> {
        let s = std::fs::read_to_string(Self::path(dir)).ok()?;
        Self::parse(&s)
    }

    /// Durably (re)write the record: temp file + atomic rename, so a
    /// reader never observes a torn record.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path(dir);
        let tmp = dir.join("world_meta.json.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(tmp, path)
    }
}

/// Extract an unsigned integer field from a flat JSON object; `None`
/// for a missing key or a `null` value.
fn json_u64_field(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = s.find(&pat)? + pat.len();
    let rest = s[at..].trim_start();
    if rest.starts_with("null") {
        return None;
    }
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Collective tag for the transient union world a resize rendezvous
/// runs over. Must collide with no committed era's tag (bit 63) and be
/// unique per (generation, fence step) so a stale member of an aborted
/// rendezvous can never alias a live one.
fn union_tag(generation: u64, step: u64) -> u64 {
    (1 << 63) | (generation << 32) | step
}

// ---------------------------------------------------------------------------
// The per-rank attempt driver
// ---------------------------------------------------------------------------

/// What an era — or the resize rendezvous that closes it — ended as,
/// seen from one rank.
enum EraOutcome {
    /// The schedule finished; rank 0 carries the gathered positions.
    Completed(Option<Vec<(u64, [f32; 3])>>),
    /// A resize committed; this rank is a member of the `to`-rank world
    /// and carries its post-reshard state `(a, particles, step)`.
    Committed {
        to: usize,
        state: (f64, Particles, usize),
    },
    /// A shrink committed without this rank; it must re-park.
    Retired { to: usize },
}

/// How the fence + certification round resolved.
enum FenceVerdict {
    Certified,
    Uncertified { reason: String },
    /// Ranks declared dead at the fence, `(rank, last epoch)`.
    FenceBroken(Vec<(usize, u64)>),
    /// This rank itself was killed at the fence (in-process transports:
    /// the same thread continues as its own replacement).
    IDied,
}

/// What every layer of one rank's attempt shares: the fixed inputs and
/// the recovery state that outlives an era.
struct Attempt<'w> {
    /// The **capacity** communicator (all ranks, parked included).
    world: &'w Comm,
    cfg: SimConfig,
    rc: &'w ResilienceConfig,
    schedule: &'w ScaleSchedule,
    /// Particles the run must contain.
    expected: usize,
    edges: Vec<f64>,
    events: Vec<RecoveryEvent>,
    /// Fence steps whose resize aborted once: deterministic replay must
    /// not retry a doomed rendezvous.
    aborted: BTreeSet<u64>,
    /// Tier-1 rollbacks so far (the tier-2 budget).
    rollbacks: u32,
}

/// One rank's run of the full schedule: the one recovery driver, for a
/// fixed world (empty `schedule`, `initial_active = world.size()`) and
/// an elastic one alike.
///
/// `world` is the **capacity** communicator (all ranks, parked
/// included). Transport-generic: the in-process driver [`run_elastic`]
/// calls it from `Machine::try_run` threads, and the multi-process
/// launcher (`hacc-mprun`) calls it from each OS process over the socket
/// transport — same protocol, same code. A respawned process passes
/// `start_as_replacement = true` and orients itself from the
/// write-ahead record alone: a dead reserve rank re-parks, a rank that
/// died at a resize fence joins the collective abort, and an ordinary
/// mid-era death enters through [`Comm::rejoin_as_replacement`] and is
/// rebuilt by the tier-0 collective, exactly like the respawned thread
/// of an in-process machine.
#[must_use]
pub fn run_attempt_elastic(
    world: &Comm,
    cfg: SimConfig,
    ics: &hacc_ics::IcsRealization,
    rc: &ResilienceConfig,
    schedule: &ScaleSchedule,
    initial_active: usize,
    start_as_replacement: bool,
) -> AttemptOutput {
    let me = world.rank();
    let capacity = world.size();
    assert!(
        initial_active >= 1 && initial_active <= capacity,
        "initial active world {initial_active} outside [1, {capacity}]"
    );
    if let Some(max) = schedule.max_target() {
        assert!(
            max <= capacity,
            "schedule grows to {max} ranks but capacity is {capacity}"
        );
    }
    let mut run = Attempt {
        world,
        cfg,
        rc,
        schedule,
        expected: ics.len(),
        edges: cfg.step_edges(),
        events: Vec::new(),
        aborted: BTreeSet::new(),
        rollbacks: 0,
    };

    // Orient: the write-ahead record is the single source of truth once
    // it exists; before it does (cold start) the launcher's initial
    // size applies.
    let meta = WorldMeta::read(&rc.dir);
    let (mut active, mut generation) =
        meta.map_or((initial_active, 0), |m| (m.active, m.generation));
    let mut carry: Option<(f64, Particles, usize)> = None;
    let mut inherited_admission = false;
    let mut pending_replacement = start_as_replacement;

    if let Some(m) = meta {
        if let Some(target) = m.resizing {
            if pending_replacement && me < m.active {
                // This rank died at the resize fence (socket transport:
                // a respawned process re-deriving its role from the
                // intent record). Acknowledge the death, hold in
                // `Rebuilding` until every union survivor has exited
                // the fence sync, then join the survivors' collective
                // abort: the era entered below opens with the same
                // `resume_from` collective their tier-1 rollback runs.
                rejoin_through_fence(world, Some(m));
                world.mark_recovered(m.step + 1);
                run.events.push(RecoveryEvent::ScaleAborted {
                    step: m.step,
                    from: m.active,
                    to: target,
                    reason: format!("rank {me} died at the resize fence"),
                });
                run.aborted.insert(m.step);
                // Survivors count this rollback too; keep the tier-2
                // budget collectively consistent.
                run.rollbacks = 1;
                inherited_admission = true;
                pending_replacement = false;
            } else if !pending_replacement {
                // A fresh relaunch found a dangling resize intent: the
                // whole previous attempt died mid-rendezvous. The
                // pre-fence checkpoint at the old size is the newest
                // valid set, so recovery is ordinary relaunch recovery —
                // just remember not to retry the doomed resize.
                run.events.push(RecoveryEvent::ScaleAborted {
                    step: m.step,
                    from: m.active,
                    to: target,
                    reason: "relaunch found resize in flight; rolled back".into(),
                });
                run.aborted.insert(m.step);
                if me == 0 {
                    WorldMeta {
                        resizing: None,
                        ..m
                    }
                    .write(&rc.dir)
                    .expect("world meta: clear dangling resize intent");
                }
            }
        }
    }

    loop {
        if me >= active {
            if pending_replacement {
                // A dead reserve (or retired) rank respawned: announce
                // the rebirth so survivors waiting on it unblock. If it
                // died as a newcomer at a resize fence (intent record
                // still live), hold in `Rebuilding` through the
                // fence-exit handshake first. Either way the seat goes
                // straight back to the pool from `Rebuilding` — no
                // `mark_recovered`, which would open a
                // Healthy-but-unparked window era syncs could trip on.
                rejoin_through_fence(world, WorldMeta::read(&rc.dir));
                world.retire();
                pending_replacement = false;
            }
            // Reserve pool: block until admitted to a world (or released
            // for good by the end-of-run sentinel).
            let epoch = world.await_activation();
            if epoch == u64::MAX {
                return (None, run.events);
            }
            let m = WorldMeta::read(&rc.dir)
                .expect("activated with no world meta record");
            if let Some(target) = m.resizing {
                if let Some((a, parts)) = run.join_resize_as_newcomer(&m, target) {
                    active = target;
                    generation = m.generation + 1;
                    carry = Some((a, parts, m.step as usize));
                    inherited_admission = true;
                }
            } else {
                // Woken outside a rendezvous: a relaunch catching this
                // rank up with a world that already committed to a size
                // that includes it. Join as a regular member.
                active = m.active;
                generation = m.generation;
                carry = None;
                inherited_admission = false;
            }
            continue;
        }

        // Cold start: pin the initial world durably before the first
        // step, so the earliest possible replacement can orient.
        if me == 0 && WorldMeta::read(&rc.dir).is_none() {
            WorldMeta {
                active,
                generation,
                step: 0,
                resizing: None,
            }
            .write(&rc.dir)
            .expect("world meta: pin initial world");
        }

        let acomm = world.active_world(active, generation);
        match run.run_era(
            &acomm,
            ics,
            active,
            generation,
            std::mem::take(&mut carry),
            std::mem::take(&mut inherited_admission),
            std::mem::take(&mut pending_replacement),
        ) {
            EraOutcome::Completed(positions) => {
                if me == 0 {
                    // Release the reserve pool: every parked rank wakes
                    // from `await_activation` with the sentinel and
                    // exits. A no-op for ranks that are not parked.
                    for r in 1..capacity {
                        world.activate_rank(r, u64::MAX);
                    }
                }
                return (positions, run.events);
            }
            EraOutcome::Committed { to, state } => {
                active = to;
                generation += 1;
                carry = Some(state);
                inherited_admission = true;
            }
            EraOutcome::Retired { to } => {
                // `me >= to`, so the top of the loop parks this rank.
                active = to;
                generation += 1;
            }
        }
    }
}

/// `Some(why)` when a physics invariant watchdog trips on `sim`'s state.
fn breach(monitor: &mut Option<InvariantMonitor>, sim: &DistSimulation<'_>) -> Option<String> {
    match monitor.as_mut()?.assess(&sim.invariant_sample()) {
        InvariantVerdict::Breach(why) => Some(why),
        InvariantVerdict::Pass => None,
    }
}

impl Attempt<'_> {
    /// One era: the online recovery loop over a fixed-size world, ending
    /// at schedule completion or the first committed/retiring resize.
    /// Every step is admitted through the heartbeat epoch barrier, a
    /// detected death triggers in-run tiered recovery, and (optionally)
    /// invariant watchdogs vet every new state.
    #[allow(clippy::too_many_arguments)]
    fn run_era(
        &mut self,
        acomm: &Comm,
        ics: &hacc_ics::IcsRealization,
        active: usize,
        generation: u64,
        carry: Option<(f64, Particles, usize)>,
        mut inherited_admission: bool,
        mut pending_replacement: bool,
    ) -> EraOutcome {
        let (cfg, rc) = (self.cfg, self.rc);
        let (mut sim, done) = if pending_replacement {
            // Placeholder until the rejoin learns the real epoch; the
            // tier-0 path rebuilds it at the right schedule slot.
            (DistSimulation::blank_replacement(acomm, cfg, self.edges[0]), 0)
        } else if let Some((a, parts, k)) = carry {
            // Post-resize handover: the certified resharded state.
            (
                DistSimulation::from_checkpoint_state(acomm, cfg, a, parts),
                k as u64,
            )
        } else {
            match DistSimulation::resume_from(acomm, cfg, &rc.dir) {
                Ok(resumed) => resumed,
                Err(CheckpointError::NoCheckpoint) => (DistSimulation::new(acomm, cfg, ics), 0),
                Err(e) => panic!("checkpoint restore failed: {e}"),
            }
        };
        // Fresh per-era monitor: every member baselines on the same
        // state, so newcomers and veterans stay collectively consistent.
        let mut monitor = rc.invariants.map(InvariantMonitor::new);
        let mut k = done as usize;
        while k < cfg.steps {
            let admission = if std::mem::take(&mut pending_replacement) {
                // A respawned OS process never admits its first step: it
                // enters exactly like a rank that just found itself
                // fenced.
                StepAdmission::Dead
            } else if std::mem::take(&mut inherited_admission) {
                // The resize fence (or the rendezvous abort that
                // consumed it) already admitted this step on every
                // member; re-admitting would deadlock the epoch barrier.
                StepAdmission::Proceed(EpochReport {
                    epoch: (k + 1) as u64,
                    failed: Vec::new(),
                })
            } else {
                acomm.admit_step((k + 1) as u64)
            };
            let (failed_now, replacement) = match admission {
                StepAdmission::Proceed(report) if report.failed.is_empty() => (Vec::new(), false),
                StepAdmission::Proceed(report) => (acomm.agree_failed(&report), false),
                StepAdmission::Dead => {
                    // This rank was killed silently; the thread (or the
                    // respawned process) now plays the replacement. Its
                    // pre-death state is gone as far as the protocol is
                    // concerned. The epoch it learns is the last step it
                    // completed, which every survivor also stands at
                    // (they cannot pass the epoch barrier ahead of the
                    // death declaration).
                    k = acomm.rejoin_as_replacement() as usize;
                    (acomm.dead_set(), true)
                }
            };
            let step = (k + 1) as u64;
            // Tier 0 on a death, then the step itself, each vetted; a
            // state that cannot be certified escalates to tier 1.
            let mut certified = failed_now.is_empty()
                || self.tier0_recover(acomm, &mut sim, &failed_now, replacement, k, &mut monitor);
            if certified {
                // Survivors admitted `step` above, and a replacement
                // inherits that admission (re-admitting here would
                // deadlock the barrier).
                sim.step(self.edges[k + 1]);
                // Vet the new state before it can reach a checkpoint file.
                if let Some(why) = breach(&mut monitor, &sim) {
                    self.events.push(RecoveryEvent::InvariantBreach { step, detail: why });
                    certified = false;
                }
            }
            if !certified {
                (sim, k) = self.tier1_rollback(acomm, step, &mut monitor);
                continue;
            }
            k += 1;
            if step.is_multiple_of(rc.checkpoint_every) || step == cfg.steps as u64 {
                if let Err(e) = sim.checkpoint_to(&rc.dir, step) {
                    panic!("checkpoint write failed at step {step}: {e}");
                }
                self.maybe_gc(acomm);
            }
            // Elastic fence: a scheduled resize lands after the step
            // just completed — unless that exact resize already aborted.
            let target = self.schedule.target_after(k as u64).filter(|&target| {
                target != active && k < cfg.steps && !self.aborted.contains(&(k as u64))
            });
            if let Some(target) = target {
                match self.resize_rendezvous(acomm, sim, active, generation, target, k, &mut monitor)
                {
                    Ok(era_over) => return era_over,
                    // Aborted: the old era goes on from the rollback,
                    // its next step already admitted by the fence.
                    Err(rolled_back) => {
                        (sim, k) = rolled_back;
                        inherited_admission = true;
                    }
                }
            }
        }
        EraOutcome::Completed(sim.gather_positions())
    }

    /// Tier 0: rebuild the domains of `failed_now` from overload shells
    /// and certify the result — full particle count, invariants within
    /// their gates — then lock it in with a proactive checkpoint.
    /// `false` sends the caller to tier 1. The count compares
    /// identically on every rank (allreduce), so the tier decision is
    /// collective-safe; a *second* failure striking mid-recovery
    /// surfaces as an error on every participant (the collective cannot
    /// complete for anyone), so escalating stays collective-safe too.
    fn tier0_recover<'a>(
        &mut self,
        acomm: &'a Comm,
        sim: &mut DistSimulation<'a>,
        failed_now: &[(usize, u64)],
        replacement: bool,
        k: usize,
        monitor: &mut Option<InvariantMonitor>,
    ) -> bool {
        let step = (k + 1) as u64;
        let events = &mut self.events;
        events.extend(failed_now.iter().map(|&(rank, epoch)| {
            RecoveryEvent::RankFailureDetected { step, rank, epoch }
        }));
        let ranks: Vec<usize> = failed_now.iter().map(|&(r, _)| r).collect();
        if replacement {
            *sim = DistSimulation::blank_replacement(acomm, self.cfg, self.edges[k]);
        } else {
            acomm.await_rebirth(&ranks);
        }
        let reconstructed = sim.try_reconstruct_ranks(&ranks);
        if replacement {
            acomm.mark_recovered(step);
        }
        let count = match reconstructed {
            Ok(count) => count,
            Err(e) => {
                events.push(RecoveryEvent::Tier0Disrupted {
                    step,
                    detail: e.to_string(),
                });
                return false;
            }
        };
        if count != self.expected {
            events.push(RecoveryEvent::Tier0Incomplete {
                step,
                expected: self.expected,
                got: count,
            });
            return false;
        }
        events.push(RecoveryEvent::Tier0Reconstructed { step, ranks, count });
        // Vet the reconstruction against the pre-failure baseline:
        // replicas track their lost originals only to force-noise, but
        // anything beyond the drift gate means the rebuild is not the
        // state that died.
        if let Some(why) = breach(monitor, sim) {
            events.push(RecoveryEvent::InvariantBreach { step, detail: why });
            return false;
        }
        // Lock the recovered state in before stepping on: a second
        // failure must not compound with this one.
        match sim.checkpoint_to(&self.rc.dir, k as u64) {
            Ok(_) => events.push(RecoveryEvent::ProactiveCheckpoint { step: k as u64 }),
            Err(e) => panic!("proactive checkpoint failed at step {k}: {e}"),
        }
        self.maybe_gc(acomm);
        true
    }

    /// Tier 1: collectively restore the newest checkpoint set every rank
    /// can validate; escalate to a tier-2 abort when that is impossible
    /// or rollbacks stop making progress. All ranks reach identical
    /// decisions (the triggers are allreduced quantities), so the
    /// `resume_from` collective and the abort are globally consistent.
    fn tier1_rollback<'a>(
        &mut self,
        acomm: &'a Comm,
        step: u64,
        monitor: &mut Option<InvariantMonitor>,
    ) -> (DistSimulation<'a>, usize) {
        self.rollbacks += 1;
        if self.rollbacks > self.rc.max_retries.max(1) {
            panic!(
                "tier-2 abort: {} checkpoint rollbacks without completing the schedule \
                 (deterministic replay keeps re-triggering escalation at step {step})",
                self.rollbacks
            );
        }
        match DistSimulation::resume_from(acomm, self.cfg, &self.rc.dir) {
            Ok((restored, resume_step)) => {
                self.events
                    .push(RecoveryEvent::Tier1Rollback { step, resume_step });
                // The restored trajectory is a different (earlier) state;
                // drifts must be measured against it, not the abandoned one.
                if let Some(mon) = monitor.as_mut() {
                    mon.rebaseline();
                }
                (restored, resume_step as usize)
            }
            Err(CheckpointError::NoCheckpoint) => panic!(
                "tier-2 abort: escalation at step {step} found no checkpoint set to roll back to \
                 (overload coverage was incomplete and no prior state survives)"
            ),
            Err(e) => panic!("tier-2 abort: rollback at step {step} failed: {e}"),
        }
    }

    /// Trim old checkpoint sets after a write (collective when enabled).
    /// The barrier makes every rank's just-written file visible before
    /// rank 0 collects, so the newest set always counts as complete and
    /// the trim is deterministic; without it, rank 0 could scan while
    /// peers are still writing and conservatively spare an extra old
    /// set. Old sets themselves are dead weight, not write targets, so
    /// rank 0 deletes them without further synchronization.
    fn maybe_gc(&self, acomm: &Comm) {
        let Some(keep) = self.rc.retain else {
            return;
        };
        acomm.barrier();
        if acomm.rank() == 0 {
            let _removed = gc_checkpoints(&self.rc.dir, acomm.size(), keep);
        }
    }

    /// The resize rendezvous: price, intend, fence, reshard, certify,
    /// commit — or abort: fence broken or certification failed, the old
    /// world rolled back to the checkpoint written on the way in, and
    /// `Err((restored, resume step))` hands it back to the old era.
    // The restored simulation is moved straight back into the era loop,
    // so boxing the `Err` would be pure overhead.
    #[allow(clippy::too_many_arguments, clippy::result_large_err)]
    fn resize_rendezvous<'a>(
        &mut self,
        acomm: &'a Comm,
        sim: DistSimulation<'a>,
        active: usize,
        generation: u64,
        target: usize,
        k: usize,
        monitor: &mut Option<InvariantMonitor>,
    ) -> Result<EraOutcome, (DistSimulation<'a>, usize)> {
        let (world, cfg, rc) = (self.world, self.cfg, self.rc);
        let step = k as u64;
        // Price the plan from measured cost: each rank contributes its
        // own last step's wall time; elementwise max assembles the full
        // vector identically everywhere, so the plan is collectively
        // consistent.
        let mut costs = vec![0.0_f64; active];
        costs[acomm.rank()] = sim
            .stats
            .steps
            .last()
            .map_or(0.0, |b| b.total().as_secs_f64());
        let costs = acomm.allreduce(costs, |a, b| a.max(*b));
        let plan = ScalePlan::decide(step, active, target, &costs, self.expected);
        self.events.push(RecoveryEvent::ScalePlanned {
            step,
            from: active,
            to: target,
            break_even: plan.break_even,
            rationale: plan.rationale,
        });

        // The abort target: a checkpoint of the old world taken right
        // here. Every member writes it before anything irreversible
        // happens, so a broken fence always has a complete old-size set
        // at `step`.
        if let Err(e) = sim.checkpoint_to(&rc.dir, step) {
            panic!("pre-resize checkpoint failed at step {step}: {e}");
        }
        self.events.push(RecoveryEvent::ProactiveCheckpoint { step });

        // Declare intent durably, *then* admit the reserve ranks (grow):
        // a newcomer waking from `await_activation` must always find the
        // intent record that explains why it was woken.
        let old_world = WorldMeta {
            active,
            generation,
            step,
            resizing: None,
        };
        if acomm.rank() == 0 {
            WorldMeta {
                resizing: Some(target),
                ..old_world
            }
            .write(&rc.dir)
            .expect("world meta: resize intent");
            for r in active..target {
                world.activate_rank(r, step);
            }
        }

        let (a, mut parts) = sim.into_state();
        let (reason, deaths) = match self.fence_and_certify(active, generation, target, k, &mut parts)
        {
            FenceVerdict::Certified => {
                self.events.push(RecoveryEvent::ScaleCommitted {
                    step,
                    from: active,
                    to: target,
                    count: self.expected,
                    generation: generation + 1,
                });
                if world.rank() >= target {
                    // Shrink: this rank's particles are certified
                    // elsewhere; hand the seat back to the reserve pool.
                    world.retire();
                    return Ok(EraOutcome::Retired { to: target });
                }
                let new_acomm = world.active_world(target, generation + 1);
                let sim2 = DistSimulation::from_checkpoint_state(&new_acomm, cfg, a, parts);
                // The new world writes its own checkpoint set at the
                // same step before the commit record: a crash between
                // the two relaunches into the *old* size, whose set also
                // exists.
                if let Err(e) = sim2.checkpoint_to(&rc.dir, step) {
                    panic!("post-resize checkpoint failed at step {step}: {e}");
                }
                new_acomm.barrier();
                if new_acomm.rank() == 0 {
                    WorldMeta {
                        active: target,
                        generation: generation + 1,
                        ..old_world
                    }
                    .write(&rc.dir)
                    .expect("world meta: resize commit");
                }
                // The commit record must be durable before any member
                // can reach a step where a death would route a respawn
                // through a stale record.
                new_acomm.barrier();
                let (a2, parts2) = sim2.into_state();
                return Ok(EraOutcome::Committed {
                    to: target,
                    state: (a2, parts2, k),
                });
            }
            FenceVerdict::Uncertified { reason } => (reason, Vec::new()),
            FenceVerdict::FenceBroken(failed) => {
                // The fence-exit ack (sent inside `fence_and_certify`
                // after `await_rebirth` on the union world) already
                // closed the respawn window for every death — old member
                // or newcomer. A respawned old rank joins the rollback
                // below (its entry path reads the intent record and
                // routes here); a respawned newcomer re-parks.
                let ranks: Vec<usize> = failed.iter().map(|&(r, _)| r).collect();
                (format!("fence broken by death of rank(s) {ranks:?}"), failed)
            }
            FenceVerdict::IDied => {
                // Killed at the fence (in-process transport): this
                // thread continues as its own replacement.
                // `fence_and_certify` already rejoined and drained the
                // fence-exit acks, so every survivor's fence sync has
                // provably returned — recovering here can no longer
                // split the verdict. The pre-fence checkpoint is on
                // disk, so tier 1 needs no tier-0 reconstruction.
                acomm.mark_recovered(step + 1);
                (
                    format!("rank {} died at the resize fence", world.rank()),
                    Vec::new(),
                )
            }
        };
        // Abort: roll the *old* world back together to the pre-fence
        // set, and never retry this resize.
        self.events.push(RecoveryEvent::ScaleAborted {
            step,
            from: active,
            to: target,
            reason,
        });
        self.events.extend(deaths.iter().map(|&(rank, epoch)| {
            RecoveryEvent::RankFailureDetected {
                step: step + 1,
                rank,
                epoch,
            }
        }));
        self.aborted.insert(step);
        let rolled_back = self.tier1_rollback(acomm, step + 1, monitor);
        if acomm.rank() == 0 {
            old_world.write(&rc.dir).expect("world meta: resize abort");
        }
        Err(rolled_back)
    }

    /// The shared middle of the rendezvous, identical for veterans and
    /// newcomers: reshard over the union world, fence through the epoch
    /// barrier, certify by global count.
    fn fence_and_certify(
        &self,
        old_active: usize,
        generation: u64,
        target: usize,
        k: usize,
        parts: &mut Particles,
    ) -> FenceVerdict {
        let step = k as u64;
        let union = old_active.max(target);
        let ucomm = self.world.active_world(union, union_tag(generation, step));
        let new_decomp = DistSimulation::decomposition(&self.cfg, target);
        // Ownership routing to the new decomposition. On error the local
        // set is untouched; the verdict travels through certification,
        // so the outcome stays collective.
        let reshard_ok = try_reshard(&ucomm, &new_decomp, parts).is_ok();
        // The fence: the same admission machinery failures use. A death
        // lands as a detector verdict on every survivor, never a hang.
        match ucomm.admit_step(step + 1) {
            StepAdmission::Dead => {
                // Killed at the fence (in-process transport: this thread
                // continues as its own replacement). Acknowledge the
                // death (`Failed -> Rebuilding`) but HOLD there until
                // every union survivor has exited the fence sync.
                // Recovering earlier would erase this failure from a
                // late waker's report and split the fence verdict: part
                // of the union certifies and part aborts, and the halves
                // wedge in collectives the other never enters. The
                // caller runs `mark_recovered` only after this returns.
                let _fence_epoch = ucomm.rejoin_as_replacement();
                fence_victim_sync(&ucomm);
                return FenceVerdict::IDied;
            }
            StepAdmission::Proceed(report) if report.failed.is_empty() => {}
            StepAdmission::Proceed(report) => {
                let agreed = ucomm.agree_failed(&report);
                let ranks: Vec<usize> = agreed.iter().map(|&(r, _)| r).collect();
                // Fence-exit acks: each dead rank stays `Rebuilding` —
                // still reported as failed by any in-flight sync — until
                // every survivor has captured this verdict and said so.
                // `await_rebirth` first, so over the socket transport
                // the ack reaches a registered replacement instead of
                // being dropped at a still-`Failed` peer.
                ucomm.await_rebirth(&ranks);
                for &r in &ranks {
                    ucomm.send(r, FENCE_ACK_TAG, vec![1u64]);
                }
                return FenceVerdict::FenceBroken(agreed);
            }
        }
        // Certification: one allreduce combines the global count with
        // every member's local verdict — a failed reshard or a
        // non-finite particle poisons the sum with NaN, which can never
        // equal `expected` — so all members take the same branch with no
        // extra round.
        let finite = (0..parts.n_active).all(|i| {
            let p = parts.pack(i);
            [p.x, p.y, p.z, p.vx, p.vy, p.vz].iter().all(|v| v.is_finite())
        });
        let contrib = if reshard_ok && finite {
            parts.n_active as f64
        } else {
            f64::NAN
        };
        let total = ucomm.allreduce_sum(contrib);
        if total == self.expected as f64 {
            FenceVerdict::Certified
        } else {
            FenceVerdict::Uncertified {
                reason: format!(
                    "certification failed: global count {total} != expected {}",
                    self.expected
                ),
            }
        }
    }

    /// A reserve rank woken into an in-flight grow: join the shared
    /// reshard/fence/certify with an empty particle set and adopt
    /// whatever ownership routing assigns. `Some((a, particles))` makes
    /// this rank a member of the committed world; `None` means the
    /// resize aborted (or this rank died at the fence) and it is back
    /// in the reserve pool.
    fn join_resize_as_newcomer(&mut self, m: &WorldMeta, target: usize) -> Option<(f64, Particles)> {
        let (world, rc) = (self.world, self.rc);
        let k = m.step as usize;
        let mut parts = Particles::default();
        match self.fence_and_certify(m.active, m.generation, target, k, &mut parts) {
            FenceVerdict::Certified => {
                self.events.push(RecoveryEvent::ScaleCommitted {
                    step: m.step,
                    from: m.active,
                    to: target,
                    count: self.expected,
                    generation: m.generation + 1,
                });
                let new_acomm = world.active_world(target, m.generation + 1);
                let sim =
                    DistSimulation::from_checkpoint_state(&new_acomm, self.cfg, self.edges[k], parts);
                if let Err(e) = sim.checkpoint_to(&rc.dir, m.step) {
                    panic!("post-resize checkpoint failed at step {}: {e}", m.step);
                }
                // Mirror the veterans' barrier pair around rank 0's
                // commit record write.
                new_acomm.barrier();
                new_acomm.barrier();
                Some(sim.into_state())
            }
            FenceVerdict::IDied => {
                // Killed at the very fence that admitted us (in-process
                // transport): `fence_and_certify` already rejoined and
                // drained the fence-exit acks. Park straight from
                // `Rebuilding` (`park` is unconditional) — passing
                // through `mark_recovered` would open a
                // Healthy-but-unparked window the old world's era syncs
                // could trip over.
                world.retire();
                None
            }
            FenceVerdict::FenceBroken(_) | FenceVerdict::Uncertified { .. } => {
                // The grow is rolled back by the old world; this rank
                // was never part of a certified decomposition, so it
                // simply hands its seat back. No rebirth wait: the next
                // thing it does is park, not talk to the dead.
                self.events.push(RecoveryEvent::ScaleAborted {
                    step: m.step,
                    from: m.active,
                    to: target,
                    reason: "grow aborted before certification; newcomer re-parked".into(),
                });
                world.retire();
                None
            }
        }
    }
}

/// A respawned process's re-entry: acknowledge the death, and — if the
/// write-ahead record shows a resize in flight whose union world
/// includes this rank — hold in `Rebuilding` through the fence-exit
/// handshake (the union communicator re-derives identically from the
/// record's fields).
fn rejoin_through_fence(world: &Comm, meta: Option<WorldMeta>) {
    let _last_epoch = world.rejoin_as_replacement();
    let Some((m, target)) = meta.and_then(|m| Some((m, m.resizing?))) else {
        return;
    };
    let union = m.active.max(target);
    if world.rank() < union {
        fence_victim_sync(&world.active_world(union, union_tag(m.generation, m.step)));
    }
}

/// The victim's half of the fence-exit handshake: after acknowledging
/// its own death (`rejoin_as_replacement`, status now `Rebuilding`),
/// a fence victim drains one ack frame from every union survivor
/// before its caller may `mark_recovered` or `retire`. The acks prove
/// every survivor's fence sync has returned, so recovering cannot
/// retroactively blank this failure out of a late waker's report.
///
/// Fellow victims at the same fence owe no ack — their replacements
/// run this same handshake on their own schedule — so the drain
/// tolerates `RankFailed` and skips ranks already in the dead set.
/// The victim also sends its own acks (after `await_rebirth`, so a
/// socket send reaches a registered replacement): survivors discard
/// the stray frame, fellow victims drain it. One residual window
/// remains over sockets when two processes die at the same fence and
/// one is not yet declared when the other's replacement sends — the
/// frame is dropped with the dead link. Single-victim fences (what
/// the chaos harness injects) have no such window.
fn fence_victim_sync(ucomm: &Comm) {
    let me = ucomm.rank();
    // Union worlds are prefix communicators: comm-local rank == global
    // rank, so the world-level dead set indexes `ucomm` directly.
    let dead: Vec<usize> = ucomm
        .dead_set()
        .iter()
        .map(|&(r, _)| r)
        .filter(|&r| r != me && r < ucomm.size())
        .collect();
    if !dead.is_empty() {
        ucomm.await_rebirth(&dead);
    }
    for s in 0..ucomm.size() {
        if s != me {
            ucomm.send(s, FENCE_ACK_TAG, vec![1u64]);
        }
    }
    for s in 0..ucomm.size() {
        if s == me || dead.contains(&s) {
            continue;
        }
        match ucomm.recv_result::<u64>(s, FENCE_ACK_TAG) {
            Ok(_) => {}
            // Died at the same fence after our dead-set snapshot; its
            // replacement acks on its own schedule and owes us nothing.
            Err(CommError::RankFailed { .. }) => {}
            Err(e) => panic!("fence ack from rank {s}: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The relaunch loop
// ---------------------------------------------------------------------------

/// Run `cfg`'s full schedule on an in-process machine of `rc.ranks`
/// capacity, starting `initial_active` ranks and resizing per
/// `schedule`, surviving injected failures by the tiered recovery
/// protocol.
///
/// A rank death is detected by the heartbeat monitor and recovered
/// *inside* the attempt (tier-0 overload reconstruction, escalating to
/// tier-1 rollback). What the tiers cannot recover — a tier-2 abort, or
/// any rank panic — fails the attempt, and the driver falls back to its
/// oldest trick, "every rank failed": relaunch the whole machine from
/// the newest complete checkpoint set of whatever world size last
/// committed (cold from `ics` when there is none), after an
/// exponentially growing pause. After `rc.max_retries` relaunches it
/// gives up and returns the timeline for diagnosis.
pub fn run_elastic(
    cfg: SimConfig,
    ics: &hacc_ics::IcsRealization,
    rc: &ResilienceConfig,
    initial_active: usize,
    schedule: &ScaleSchedule,
    plan: &FaultPlan,
) -> Result<ResilientRun, ResilienceError> {
    let rc = &rc.for_sim(&cfg);
    let mut timeline = Vec::new();
    let mut attempt = 1u32;
    loop {
        // A relaunch resumes whatever world size last committed.
        let active_now = WorldMeta::read(&rc.dir).map_or(initial_active, |m| m.active);
        timeline.push(RecoveryEvent::AttemptStarted {
            attempt,
            resume_step: complete_sets(&rc.dir, active_now).last().copied(),
        });
        let mut machine = Machine::new(rc.ranks)
            .with_faults(plan.clone())
            .with_heartbeat(rc.heartbeat)
            .with_active(active_now);
        if let Some(w) = rc.watchdog {
            machine = machine.with_watchdog(w);
        }
        let result = machine.try_run(|comm| -> AttemptOutput {
            run_attempt_elastic(&comm, cfg, ics, rc, schedule, active_now, false)
        });
        match result {
            Ok((per_rank, _stats)) => {
                let (positions, events) = per_rank
                    .into_iter()
                    .next()
                    .expect("machine returns at least rank 0");
                timeline.extend(events);
                timeline.push(RecoveryEvent::Completed {
                    attempt,
                    final_step: cfg.steps as u64,
                });
                return Ok(ResilientRun {
                    timeline,
                    attempts: attempt,
                    final_step: cfg.steps as u64,
                    positions: positions.expect("rank 0 gathered positions"),
                });
            }
            Err(MachineError::RankPanicked { rank, message }) => {
                if let Some(reason) = message.split("tier-2 abort: ").nth(1) {
                    timeline.push(RecoveryEvent::Tier2Abort {
                        attempt,
                        reason: reason.to_string(),
                    });
                } else {
                    timeline.push(RecoveryEvent::Failure {
                        attempt,
                        rank,
                        message: message.clone(),
                    });
                }
                if attempt > rc.max_retries {
                    return Err(ResilienceError::RetriesExhausted {
                        attempts: attempt,
                        last: message,
                        timeline,
                    });
                }
                attempt += 1;
                let pause = rc.pause_before_attempt(attempt);
                timeline.push(RecoveryEvent::BackedOff { attempt, pause });
                std::thread::sleep(pause);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_parses_and_sorts() {
        let s = ScaleSchedule::parse("3@7, 6@3");
        assert_eq!(s.target_after(3), Some(6));
        assert_eq!(s.target_after(7), Some(3));
        assert_eq!(s.target_after(5), None);
        assert_eq!(s.max_target(), Some(6));
        assert!(!s.is_empty());
        assert!(ScaleSchedule::parse("").is_empty());
        assert!(ScaleSchedule::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "TARGET@STEP")]
    fn schedule_rejects_malformed_entries() {
        let _ = ScaleSchedule::parse("6:3");
    }

    #[test]
    #[should_panic(expected = "duplicate resize")]
    fn schedule_rejects_duplicate_steps() {
        let _ = ScaleSchedule::parse("6@3,4@3");
    }

    #[test]
    fn plan_prices_grow_from_hottest_rank() {
        let costs = [0.1, 0.4, 0.2, 0.3];
        let plan = ScalePlan::decide(3, 4, 6, &costs, 10_000);
        assert_eq!((plan.from, plan.to, plan.step), (4, 6, 3));
        // Hottest rank is 1; projected time scales by 4/6.
        assert!(plan.rationale.contains("rank 1"));
        assert!((plan.model.step_time_old - 0.4).abs() < 1e-12);
        assert!((plan.model.step_time_new - 0.4 * 4.0 / 6.0).abs() < 1e-12);
        // A real saving exists, so the grow eventually pays for itself.
        assert!(plan.break_even.is_some());
        let shrink = ScalePlan::decide(7, 6, 3, &costs, 10_000);
        assert!(shrink.rationale.contains("releasing 3 rank(s)"));
        // Doubling per-rank load never pays back.
        assert!(shrink.break_even.is_none());
    }

    #[test]
    fn world_meta_round_trips() {
        let dir = std::env::temp_dir().join(format!("hacc_meta_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(WorldMeta::read(&dir), None);
        let m = WorldMeta {
            active: 4,
            generation: 2,
            step: 7,
            resizing: Some(6),
        };
        m.write(&dir).unwrap();
        assert_eq!(WorldMeta::read(&dir), Some(m));
        let committed = WorldMeta {
            active: 6,
            generation: 3,
            step: 7,
            resizing: None,
        };
        committed.write(&dir).unwrap();
        assert_eq!(WorldMeta::read(&dir), Some(committed));
        assert!(committed.to_json().contains("\"resizing\":null"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn world_meta_parse_rejects_garbage() {
        assert_eq!(WorldMeta::parse(""), None);
        assert_eq!(WorldMeta::parse("{\"active\":4}"), None);
        assert_eq!(
            WorldMeta::parse("{\"active\":x,\"generation\":0,\"step\":0,\"resizing\":null}"),
            None
        );
    }

    #[test]
    fn union_tags_never_alias_each_other_or_eras() {
        // Bit 63 separates rendezvous tags from era generations; within
        // rendezvous tags, (generation, step) pairs stay distinct.
        let t = union_tag(1, 3);
        assert_ne!(t & (1 << 63), 0);
        assert_ne!(union_tag(1, 3), union_tag(1, 7));
        assert_ne!(union_tag(1, 3), union_tag(2, 3));
    }
}
