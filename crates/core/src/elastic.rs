//! The recovery driver, and elastic rank scaling on the recovery path.
//!
//! One per-rank attempt function ([`run_attempt_elastic`]) and one
//! relaunch loop ([`run_elastic`]) drive every resilient run; a
//! fixed-size run is the elastic run with an empty [`ScaleSchedule`]
//! (that is all [`crate::resilient::run_resilient`] is).
//!
//! A rank failure and a planned resize are one **membership change**
//! (`Attempt::change`): fence → rehome particles → certify → lock in,
//! with every decision taken by the model-checked fence machine
//! `hacc_comm::protocol::fence_next`. A failure is the same-size change
//! in which the dead ranks rejoin as blank replacements and are rebuilt
//! from their neighbours' overload replicas (tier 0); a resize is the
//! change over the union of the old and new worlds:
//!
//! * the world runs at a fixed **capacity**; ranks beyond the active
//!   prefix are parked in the failure detector and cost nothing;
//! * a resize is decided by a [`ScalePlan`] priced from measured
//!   per-rank step cost through the [`ResizeModel`] of `hacc-machine`;
//! * the fence is the epoch-sync admission barrier (`admit_step`), so a
//!   rank dying at it surfaces as a detector verdict — never a hang —
//!   and a resize **aborts** back to a checkpoint written immediately
//!   before the fence;
//! * particles move by ownership routing (`try_rehome`), and the result
//!   is **certified** by one NaN-poisoned global count before it is
//!   locked in by a checkpoint;
//! * the committed world size is journaled in a tiny write-ahead record
//!   (`world_meta.json`) so respawned processes and relaunched attempts
//!   orient themselves without a survivor's help.
//!
//! The run is a sequence of **eras**: a fixed-size stretch of steps
//! between resizes, within which a failure the change cannot certify
//! escalates to the tier-1 rollback and tier-2 abort of
//! [`crate::resilient`].

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use hacc_comm::protocol::{
    self, ChangeKind, ControlEvent, FenceAction, FenceAdmission, FencePoint, FenceRole, Gate,
    Mutations,
};
use hacc_comm::{Comm, CommError, FaultPlan, Machine, MachineError};
use hacc_domain::{try_rehome, Particles};
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
    /// and carries its post-rehome state `(a, particles, step)`.
    Committed {
        to: usize,
        state: (f64, Particles, usize),
    },
    /// A shrink committed without this rank; it must re-park.
    Retired { to: usize },
}

/// One membership change, as one rank takes part in it. A rank failure
/// is the same-size change in which the dead ranks rejoin as blank
/// replacements; a resize is the change over the union of the old and
/// new worlds.
#[derive(Clone, Copy)]
struct Change {
    kind: ChangeKind,
    role: FenceRole,
    /// Completed steps at the fence, which admits step `step + 1`.
    step: u64,
    /// Active world size before and after the change.
    from: usize,
    to: usize,
    /// Generation of the world before the change.
    generation: u64,
}

impl Change {
    /// The resize a write-ahead intent record announces.
    fn resize(m: &WorldMeta, to: usize, role: FenceRole) -> Self {
        Change {
            kind: ChangeKind::Resize,
            role,
            step: m.step,
            from: m.active,
            to,
            generation: m.generation,
        }
    }

    /// The union world a resize runs over; every member — a respawned
    /// one from the intent record alone — derives the same context.
    fn union(&self, world: &Comm) -> Comm {
        world.active_world(self.from.max(self.to), union_tag(self.generation, self.step))
    }

    /// Generation of the world after the change.
    fn next_generation(&self) -> u64 {
        self.generation + u64::from(self.kind == ChangeKind::Resize)
    }

    /// The durable record of the world before the change.
    fn old_world(&self) -> WorldMeta {
        WorldMeta {
            active: self.from,
            generation: self.generation,
            step: self.step,
            resizing: None,
        }
    }
}

/// How a membership change ended for one rank.
enum Fenced {
    /// Certified and locked in: the rank runs on with `(a, particles)`.
    Runs(f64, Particles),
    /// The rank's seat went back to the reserve pool.
    Retired,
    /// The change backed out: roll back to the newest checkpoint set.
    Aborted,
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
/// write-ahead record alone: a rank that died at a resize fence enters
/// that change as its victim, and an ordinary mid-era death enters the
/// era's recovery as a blank replacement, exactly like the respawned
/// thread of an in-process machine.
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

    if let Some((m, target)) = meta.and_then(|m| Some((m, m.resizing?))) {
        if std::mem::take(&mut pending_replacement) {
            // This process died at the resize fence (socket transport):
            // it enters the same change as its victim. An old member
            // then joins the survivors' collective abort — the era
            // entered below opens with the same `resume_from` their
            // tier-1 rollback runs — and a newcomer goes back to the pool.
            let role = if me < m.active { FenceRole::Member } else { FenceRole::Newcomer };
            let c = Change::resize(&m, target, role);
            let state = (run.edges[0], Particles::default());
            let fenced = run.change(&c, &c.union(world), FenceAdmission::Dead, &[], state, &mut None);
            if let Fenced::Aborted = fenced {
                // Survivors count this rollback too; keep the tier-2
                // budget collectively consistent.
                run.rollbacks = 1;
                inherited_admission = true;
            }
        } else {
            // A fresh relaunch found a dangling resize intent: the
            // whole previous attempt died mid-rendezvous. The pre-fence
            // checkpoint at the old size is the newest valid set, so
            // recovery is ordinary relaunch recovery — just remember not
            // to retry the doomed resize.
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

    loop {
        if me >= active {
            if std::mem::take(&mut pending_replacement) {
                // A dead rank outside any fence: acknowledge the death
                // and hand the seat straight back, from `Rebuilding`.
                let step = world.rejoin_as_replacement();
                world.apply(ControlEvent::Parked { rank: me, step });
            }
            // Reserve pool: block until admitted to a world (or released
            // for good by the end-of-run sentinel).
            if world.wait(Gate::Activation).epoch == u64::MAX {
                return (None, run.events);
            }
            let m = WorldMeta::read(&rc.dir).expect("activated with no world meta record");
            if let Some(target) = m.resizing {
                // Woken into an in-flight grow: join its fence empty
                // and adopt whatever the rehome routes here.
                let c = Change::resize(&m, target, FenceRole::Newcomer);
                let ucomm = c.union(world);
                let (admission, deaths) = ucomm.admit_step(m.step + 1);
                let state = (run.edges[m.step as usize], Particles::default());
                if let Fenced::Runs(a, parts) =
                    run.change(&c, &ucomm, admission, &deaths, state, &mut None)
                {
                    active = target;
                    generation = c.next_generation();
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
                    // from its activation wait with the sentinel and
                    // exits. A no-op for ranks that are not parked.
                    for rank in 1..capacity {
                        world.apply(ControlEvent::Activated {
                            rank,
                            epoch: u64::MAX,
                        });
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
    /// detected death opens a recovery change, and (optionally)
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
            // recovery rebuilds it at the right schedule slot.
            let blank = Particles::default();
            (DistSimulation::from_checkpoint_state(acomm, cfg, self.edges[0], blank), 0)
        } else if let Some((a, parts, k)) = carry {
            // Post-resize handover: the certified rehomed state.
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
            let (admission, mut deaths) = if std::mem::take(&mut pending_replacement) {
                // A respawned OS process never admits its first step: it
                // enters exactly like a rank that just found itself
                // fenced.
                (FenceAdmission::Dead, Vec::new())
            } else if std::mem::take(&mut inherited_admission) {
                // The resize fence (or the rendezvous abort that
                // consumed it) already admitted this step on every
                // member; re-admitting would deadlock the epoch barrier.
                (FenceAdmission::Proceed, Vec::new())
            } else {
                acomm.admit_step((k + 1) as u64)
            };
            if admission != FenceAdmission::Proceed {
                // Tier 0: the same-size change. A dead rank drops its
                // state and rejoins blank; the epoch it learns is the
                // last step it completed, which every survivor also
                // stands at (they cannot pass the epoch barrier ahead of
                // the death declaration).
                let state = if admission == FenceAdmission::Dead {
                    k = acomm.rejoin_as_replacement() as usize;
                    deaths = protocol::dead_set(&acomm.view());
                    (self.edges[k], Particles::default())
                } else {
                    sim.into_state()
                };
                let c = Change {
                    kind: ChangeKind::Recovery,
                    role: FenceRole::Member,
                    step: k as u64,
                    from: active,
                    to: active,
                    generation,
                };
                match self.change(&c, acomm, admission, &deaths, state, &mut monitor) {
                    Fenced::Runs(a, parts) => {
                        sim = DistSimulation::from_checkpoint_state(acomm, cfg, a, parts);
                    }
                    Fenced::Aborted => {
                        (sim, k) = self.tier1_rollback(acomm, (k + 1) as u64, &mut monitor);
                        continue;
                    }
                    Fenced::Retired => unreachable!("a recovery keeps every seat"),
                }
            }
            let step = (k + 1) as u64;
            sim.step(self.edges[k + 1]);
            // Vet the new state before it can reach a checkpoint file.
            if let Some(why) = breach(&mut monitor, &sim) {
                self.events.push(RecoveryEvent::InvariantBreach { step, detail: why });
                (sim, k) = self.tier1_rollback(acomm, step, &mut monitor);
                continue;
            }
            k += 1;
            if step.is_multiple_of(rc.checkpoint_every) || step == cfg.steps as u64 {
                self.checkpoint(&sim, step, None);
            }
            // Elastic fence: a scheduled resize lands after the step
            // just completed — unless that exact resize already aborted.
            let target = self.schedule.target_after(k as u64).filter(|&target| {
                target != active && k < cfg.steps && !self.aborted.contains(&(k as u64))
            });
            let Some(target) = target else { continue };
            // The resize rendezvous. Price the plan from measured cost:
            // each rank contributes its own last step's wall time;
            // elementwise max assembles the full vector identically
            // everywhere, so the plan is collectively consistent.
            let mut costs = vec![0.0_f64; active];
            costs[acomm.rank()] = sim.stats.steps.last().map_or(0.0, |b| b.total().as_secs_f64());
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
            // here, before anything irreversible happens, so a broken
            // fence always has a complete old-size set at `step`.
            self.checkpoint(&sim, step, None);
            self.events.push(RecoveryEvent::ProactiveCheckpoint { step });
            // Declare intent durably, *then* admit the reserve ranks
            // (grow): a newcomer woken from its activation wait must
            // always find the intent record that explains why it was
            // woken.
            let intent = WorldMeta { active, generation, step, resizing: Some(target) };
            let c = Change::resize(&intent, target, FenceRole::Member);
            if acomm.rank() == 0 {
                intent.write(&rc.dir).expect("world meta: resize intent");
                for rank in active..target {
                    self.world.apply(ControlEvent::Activated { rank, epoch: step });
                }
            }
            let ucomm = c.union(self.world);
            let (admission, deaths) = ucomm.admit_step(step + 1);
            match self.change(&c, &ucomm, admission, &deaths, sim.into_state(), &mut None) {
                Fenced::Runs(a, parts) => {
                    return EraOutcome::Committed { to: target, state: (a, parts, k) };
                }
                Fenced::Retired => return EraOutcome::Retired { to: target },
                Fenced::Aborted => {
                    // Roll the *old* world back together to the pre-fence
                    // set (the change marked the resize never to be
                    // retried); the next step is already admitted by the
                    // fence.
                    (sim, k) = self.tier1_rollback(acomm, step + 1, &mut monitor);
                    if acomm.rank() == 0 {
                        c.old_world().write(&rc.dir).expect("world meta: resize abort");
                    }
                    inherited_admission = true;
                }
            }
        }
        EraOutcome::Completed(sim.gather_positions())
    }

    /// One membership change through the fence machine
    /// ([`protocol::fence_next`]): admitted fence → rehome → certify →
    /// lock in, or back out. Recoveries and resizes, survivors, fence
    /// victims and newcomers all take this one path. `comm` is the world
    /// the change runs over (a recovery's active world, a resize's union
    /// world), `deaths` the dead set this rank learned at the fence, and
    /// `state` its `(a, particles)` going in — blank for a replacement
    /// or a newcomer.
    ///
    /// Every branch is taken collectively: the inputs are the agreed
    /// dead set and one allreduced count, and a second failure striking
    /// mid-change surfaces as an error on every participant.
    fn change(
        &mut self,
        c: &Change,
        comm: &Comm,
        admission: FenceAdmission,
        deaths: &[(usize, u64)],
        (a, mut parts): (f64, Particles),
        monitor: &mut Option<InvariantMonitor>,
    ) -> Fenced {
        let (world, cfg, me, step) = (self.world, self.cfg, self.world.rank(), c.step);
        let next = |at| protocol::fence_next(c.kind, c.role, at, &Mutations::NONE);
        self.events.extend(deaths.iter().map(|&(rank, epoch)| {
            RecoveryEvent::RankFailureDetected { step: step + 1, rank, epoch }
        }));
        let dead: Vec<usize> = deaths.iter().map(|&(r, _)| r).collect();
        if admission == FenceAdmission::Deaths {
            // Wait out each death's acknowledgement, closing the window
            // in which a receive could misread the incoming replacement
            // as still dead. At a broken resize fence the survivor then
            // acks each victim's hold (now reaching a registered
            // replacement over sockets, not a still-`Failed` peer).
            let _ = comm.wait(Gate::Rebirth(&dead));
            if c.kind == ChangeKind::Resize {
                for &r in &dead {
                    comm.send(r, FENCE_ACK_TAG, vec![1u64]);
                }
            }
        }
        let home = (me < c.to).then(|| world.active_world(c.to, c.next_generation()));
        let mut sim = None;
        let mut total = f64::NAN;
        let action = match next(FencePoint::Admitted(admission)) {
            FenceAction::HoldForAcks => {
                hold_for_acks(comm);
                next(FencePoint::Held)
            }
            FenceAction::Rehome => {
                if c.kind == ChangeKind::Resize {
                    // Only the uniquely owned actives move.
                    parts.drop_passives();
                }
                let decomp = DistSimulation::decomposition(&cfg, c.to);
                let rehomed = try_rehome(comm, &decomp, &mut parts);
                // Certification: one allreduce combines the global count
                // with every member's local verdict — a failed rehome or
                // a non-finite particle poisons the sum with NaN, which
                // can never equal `expected`.
                let finite = (0..parts.n_active).all(|i| {
                    let p = parts.pack(i);
                    [p.x, p.y, p.z, p.vx, p.vy, p.vz].iter().all(|v| v.is_finite())
                });
                let mine = if rehomed.is_ok() && finite { parts.n_active as f64 } else { f64::NAN };
                total = comm.allreduce_sum(mine);
                let mut certified = total == self.expected as f64;
                let parts = std::mem::take(&mut parts);
                sim = home.as_ref().map(|h| DistSimulation::from_checkpoint_state(h, cfg, a, parts));
                if c.kind == ChangeKind::Recovery {
                    let step = step + 1;
                    self.events.push(match rehomed {
                        Err(e) => RecoveryEvent::Tier0Disrupted { step, detail: e.to_string() },
                        Ok(()) if !certified => RecoveryEvent::Tier0Incomplete {
                            step,
                            expected: self.expected,
                            got: total as usize,
                        },
                        Ok(()) => RecoveryEvent::Tier0Reconstructed {
                            step,
                            ranks: dead.clone(),
                            count: self.expected,
                        },
                    });
                    // Vet the rebuild against the pre-failure baseline:
                    // replicas track their lost originals only to
                    // force-noise, but anything beyond the drift gate
                    // means the rebuild is not the state that died.
                    let why = certified.then(|| breach(monitor, sim.as_ref()?)).flatten();
                    if let Some(detail) = why {
                        self.events.push(RecoveryEvent::InvariantBreach { step, detail });
                        certified = false;
                    }
                }
                next(FencePoint::Counted { certified })
            }
            action => action,
        };
        if admission == FenceAdmission::Dead && action != FenceAction::Retire {
            // The victim rejoins the healthy world only now: its rehome
            // collective, or its drained acks, prove every survivor's
            // fence sync has returned.
            world.apply(ControlEvent::Recovered { rank: me, epoch: step + 1 });
        }
        match action {
            FenceAction::Commit => {
                if c.kind == ChangeKind::Resize {
                    self.events.push(RecoveryEvent::ScaleCommitted {
                        step,
                        from: c.from,
                        to: c.to,
                        count: self.expected,
                        generation: c.next_generation(),
                    });
                }
                let Some(sim) = sim else {
                    // Shrink: this rank's particles are certified
                    // elsewhere; hand the seat back to the reserve pool.
                    world.apply(ControlEvent::Parked { rank: me, step });
                    return Fenced::Retired;
                };
                // Lock in: the changed world's checkpoint set at the
                // fence step, then — a resize — its commit record. A
                // crash between the two relaunches into the old size,
                // whose set also exists.
                let commit = (c.kind == ChangeKind::Resize).then(|| WorldMeta {
                    active: c.to,
                    generation: c.next_generation(),
                    ..c.old_world()
                });
                self.checkpoint(&sim, step, commit);
                if c.kind == ChangeKind::Recovery {
                    self.events.push(RecoveryEvent::ProactiveCheckpoint { step });
                }
                let (a, parts) = sim.into_state();
                Fenced::Runs(a, parts)
            }
            FenceAction::Abort | FenceAction::Retire => {
                if c.kind == ChangeKind::Resize {
                    let reason = if admission == FenceAdmission::Dead {
                        format!("rank {me} died at the resize fence")
                    } else if !dead.is_empty() {
                        format!("fence broken by death of rank(s) {dead:?}")
                    } else {
                        format!(
                            "certification failed: global count {total} != expected {}",
                            self.expected
                        )
                    };
                    self.events.push(RecoveryEvent::ScaleAborted {
                        step,
                        from: c.from,
                        to: c.to,
                        reason,
                    });
                    self.aborted.insert(step);
                }
                if action == FenceAction::Abort {
                    return Fenced::Aborted;
                }
                world.apply(ControlEvent::Parked { rank: me, step });
                Fenced::Retired
            }
            FenceAction::Rehome | FenceAction::HoldForAcks => {
                unreachable!("the fence machine moves past its first answer")
            }
        }
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

    /// Write this rank's file of the `step` checkpoint set; once every
    /// member's is in, rank 0 journals `commit` (a resize's new world)
    /// and trims old sets. The barrier makes every file visible before
    /// rank 0 scans, so the newest set always counts as complete and
    /// the trim is deterministic; old sets are dead weight, not write
    /// targets, so rank 0 deletes them without further synchronization.
    /// A commit record is durable before any member leaves, so no death
    /// can route a respawn through a stale record.
    fn checkpoint(&self, sim: &DistSimulation<'_>, step: u64, commit: Option<WorldMeta>) {
        if let Err(e) = sim.checkpoint_to(&self.rc.dir, step) {
            panic!("checkpoint write failed at step {step}: {e}");
        }
        let comm = sim.comm();
        comm.barrier();
        if comm.rank() == 0 {
            if let Some(meta) = commit {
                meta.write(&self.rc.dir).expect("world meta: resize commit");
            }
            if let Some(keep) = self.rc.retain {
                let _removed = gc_checkpoints(&self.rc.dir, comm.size(), keep);
            }
        }
        if commit.is_some() {
            comm.barrier();
        }
    }
}

/// The fence victim's hold: acknowledge its own death (`Failed →
/// Rebuilding`), then drain one ack frame from every union survivor
/// before the fence machine lets it recover or retire. The acks prove
/// every survivor's fence sync has returned, so recovering cannot
/// retroactively blank this failure out of a late waker's report and
/// split the fence verdict.
///
/// Fellow victims at the same fence owe no ack — their replacements
/// run this same hold on their own schedule — so the drain tolerates
/// `RankFailed` and skips ranks already in the dead set. The victim
/// also sends its own acks (after the rebirth wait, so a socket send
/// reaches a registered replacement): survivors discard the stray
/// frame, fellow victims drain it. One residual window remains over
/// sockets when two processes die at the same fence and one is not yet
/// declared when the other's replacement sends — the frame is dropped
/// with the dead link. Single-victim fences (what the chaos harness
/// injects) have no such window.
fn hold_for_acks(ucomm: &Comm) {
    let _last_epoch = ucomm.rejoin_as_replacement();
    let me = ucomm.rank();
    // Union worlds are prefix communicators: comm-local rank == global
    // rank, so the world-level dead set indexes `ucomm` directly.
    let dead: Vec<usize> = protocol::dead_set(&ucomm.view())
        .iter()
        .map(|&(r, _)| r)
        .filter(|&r| r != me && r < ucomm.size())
        .collect();
    if !dead.is_empty() {
        let _ = ucomm.wait(Gate::Rebirth(&dead));
    }
    for s in (0..ucomm.size()).filter(|&s| s != me) {
        ucomm.send(s, FENCE_ACK_TAG, vec![1u64]);
    }
    for s in (0..ucomm.size()).filter(|&s| s != me && !dead.contains(&s)) {
        match ucomm.recv_result::<u64>(s, FENCE_ACK_TAG) {
            // Died at the same fence after our dead-set snapshot; its
            // replacement acks on its own schedule and owes us nothing.
            Ok(_) | Err(CommError::RankFailed { .. }) => {}
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
