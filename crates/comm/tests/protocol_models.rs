//! Exhaustive protocol model checking for the socket transport.
//!
//! Every model here explores the *same* pure state machines the live
//! transport drives ([`hacc_comm::protocol`]) over adversarial event
//! schedules — deliver, drop, tear, reconnect, SIGKILL/incarnation
//! bump, hub declaration — using the vendored explicit-state checker
//! (`vendor/modelcheck`). A passing `proven()` report is a bounded
//! proof: the checker visited every reachable state within the model's
//! event budgets.
//!
//! Theorems proved (with the shipping [`Mutations::NONE`]):
//!
//! - **no-silent-skip**: across same-incarnation reconnects, a frame
//!   lost in a dead connection's buffers can never be skipped silently
//!   — delivery either stays gapless or the link condemns.
//! - **no-stale-frame-leak**: after an incarnation purge, no frame
//!   from the dead incarnation remains queued.
//! - **declared-outranks-corruption**: a hub death declaration always
//!   wins over link-level condemnation; queued data beats both.
//! - **no-deadlock / rank-discipline**: the transport's concurrent
//!   lock-acquisition scripts admit no deadlock and never acquire
//!   against the rank order.
//! - **survivors-agree**: every child mirror converges to the hub's
//!   dead set once the broadcast log drains.
//! - **frontier-never-suspected / declaration-is-final /
//!   parked-never-declared**: the detector's scan never suspects a rank
//!   its peers are waiting for, never repeats or undoes a declaration
//!   when a late beat arrives (fencing), and never touches parked
//!   capacity.
//! - **no-verdict-split / victim-holds-until-fence-syncs-return /
//!   aborted-change-writes-no-commit**: through the fence machine
//!   ([`protocol::fence_next`]) every member of a membership change —
//!   failure recovery or resize — takes the same branch, a resize-fence
//!   victim leaves `Rebuilding` only after every survivor's fence sync
//!   returned, and a resize that backs out never journals a commit.
//!
//! Each theorem is paired with a *mutation run*: the historical bug it
//! guards against is reintroduced via a [`Mutations`] flag and the
//! checker must produce a counterexample trace. The two bugs found in
//! the PR 6 review (declaration-vs-condemnation precedence; the
//! mailbox→link lock inversion) additionally have committed fixture
//! traces under `tests/fixtures/` that are replayed step-by-step — a
//! fixture that drifts from the model fails loudly in `replay`.
//!
//! Set `HACC_MODEL_STATS_DIR` to emit per-model JSON state counts and
//! counterexample traces (consumed by `cargo xtask verify`).

use hacc_comm::protocol::locks::{self, LockOp};
use hacc_comm::protocol::{
    self, ChangeKind, ControlEvent, FenceAction, FenceAdmission, FencePoint, FenceRole,
    FrameVerdict, Gate, LinkSession, Mutations, PeerView, RecvVerdict,
};
use hacc_comm::sync::LockRank;
use hacc_comm::RankStatus;
use modelcheck::{check, replay, Model, Options, Property, Report, DEADLOCK};

const BUG_PRECEDENCE: Mutations = Mutations {
    corrupt_outranks_declared: true,
    ..Mutations::NONE
};
const BUG_SILENT_SKIP: Mutations = Mutations {
    reset_seq_on_reconnect: true,
    ..Mutations::NONE
};
const BUG_LOCK_INVERSION: Mutations = Mutations {
    diagnose_under_mailbox: true,
    ..Mutations::NONE
};
const BUG_RETIRE_AS_DEATH: Mutations = Mutations {
    retire_marks_failed: true,
    ..Mutations::NONE
};
const BUG_SUSPECT_AT_FRONTIER: Mutations = Mutations {
    suspect_at_frontier: true,
    ..Mutations::NONE
};
const BUG_EARLY_RECOVERY: Mutations = Mutations {
    recover_before_fence_acks: true,
    ..Mutations::NONE
};

/// Emit the report's state counts (and, for mutation runs, the
/// counterexample trace) into `$HACC_MODEL_STATS_DIR` so `cargo xtask
/// verify` can aggregate them into `VERIFY.json`. No-op otherwise.
fn record<M: Model>(report: &Report<M>) {
    let Ok(dir) = std::env::var("HACC_MODEL_STATS_DIR") else {
        return;
    };
    std::fs::create_dir_all(&dir).ok();
    let json = format!(
        "{{\"model\":\"{}\",\"states\":{},\"transitions\":{},\"max_depth\":{},\
         \"complete\":{},\"violations\":{},\"unreached\":{}}}\n",
        report.model,
        report.states,
        report.transitions,
        report.max_depth_seen,
        report.complete,
        report.violations.len(),
        report.unreached.len(),
    );
    std::fs::write(format!("{dir}/{}.json", report.model), json).ok();
    for v in &report.violations {
        let path = format!("{dir}/{}.{}.trace", report.model, v.property);
        std::fs::write(path, v.trace.render()).ok();
    }
}

/// Assert a bounded proof, with the full counterexample in the panic
/// message on regression (so CI logs carry the trace verbatim).
fn assert_proven<M: Model>(report: &Report<M>) {
    if report.proven() {
        return;
    }
    let mut msg = format!("model not proven: {}\n", report.summary());
    for v in &report.violations {
        msg.push_str(&format!("violated {:?}:\n{}", v.property, v.trace.render()));
    }
    for name in &report.unreached {
        msg.push_str(&format!("coverage property {name:?} never reached\n"));
    }
    panic!("{msg}");
}

// =====================================================================
// Frame-stream model: sequence numbers across reconnects and kills
// =====================================================================

/// One directed link (peer rank 1 → us), both ends running the real
/// [`LinkSession`] machine, with an in-order wire, connection drops
/// that lose in-flight frames, same-incarnation reconnects, torn
/// frames, and a SIGKILL + replacement incarnation.
struct FrameStreamModel {
    name: &'static str,
    m: Mutations,
    max_sends: u8,
    max_reconnects: u8,
    max_kills: u8,
    max_tears: u8,
}

impl FrameStreamModel {
    fn shipping() -> Self {
        FrameStreamModel {
            name: "frame-stream",
            m: Mutations::NONE,
            max_sends: 3,
            max_reconnects: 2,
            max_kills: 1,
            max_tears: 1,
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct FrameState {
    /// The peer's send half (lives in the peer process).
    sender: LinkSession,
    /// Our receive half (survives reconnects, reset on replacement).
    receiver: LinkSession,
    /// Frames in flight, in order: (incarnation, seq, payload id, torn).
    wire: Vec<(u64, u64, u8, bool)>,
    /// Payloads committed by the current peer incarnation (ids 0..).
    sends: u8,
    /// Delivered into the mailbox: (incarnation, payload id).
    mailbox: Vec<(u64, u8)>,
    /// Payloads accepted from the current incarnation (next expected id).
    accepted: u8,
    condemned: bool,
    conn_up: bool,
    peer_inc: u64,
    reconnects: u8,
    kills: u8,
    tears: u8,
    /// A frame was accepted whose payload id skipped a lost one — the
    /// exact failure "no-silent-skip" forbids.
    silent_skip: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameAction {
    /// Peer frames and writes the next payload.
    Send,
    /// The in-order wire delivers its oldest frame to our reader.
    Deliver,
    /// Bit-flip the oldest in-flight frame (header src scribbled).
    Tear,
    /// Connection dies; every in-flight frame is lost.
    DropConn,
    /// Same peer process redials (or its replacement, after `Kill`).
    Reconnect,
    /// SIGKILL: a blank replacement with a bumped incarnation respawns.
    Kill,
}

impl Model for FrameStreamModel {
    type State = FrameState;
    type Action = FrameAction;

    fn init_states(&self) -> Vec<FrameState> {
        vec![FrameState {
            sender: LinkSession::default(),
            receiver: LinkSession::default(),
            wire: Vec::new(),
            sends: 0,
            mailbox: Vec::new(),
            accepted: 0,
            condemned: false,
            conn_up: true,
            peer_inc: 0,
            reconnects: 0,
            kills: 0,
            tears: 0,
            silent_skip: false,
        }]
    }

    fn actions(&self, s: &FrameState, out: &mut Vec<FrameAction>) {
        if s.conn_up && !s.condemned && s.sends < self.max_sends {
            out.push(FrameAction::Send);
        }
        if s.conn_up && !s.condemned && !s.wire.is_empty() {
            out.push(FrameAction::Deliver);
        }
        if s.tears < self.max_tears && !s.wire.is_empty() {
            out.push(FrameAction::Tear);
        }
        if s.conn_up {
            out.push(FrameAction::DropConn);
        }
        if !s.conn_up && s.reconnects < self.max_reconnects {
            out.push(FrameAction::Reconnect);
        }
        if !s.conn_up && s.kills < self.max_kills {
            out.push(FrameAction::Kill);
        }
    }

    fn next_state(&self, s: &FrameState, a: &FrameAction) -> Option<FrameState> {
        let mut n = s.clone();
        match a {
            FrameAction::Send => {
                let seq = n.sender.next_send_seq();
                n.sender.commit_send();
                n.wire.push((n.peer_inc, seq, n.sends, false));
                n.sends += 1;
            }
            FrameAction::Deliver => {
                let (inc, seq, pid, torn) = n.wire.remove(0);
                // A torn frame scribbles the header: the reader sees a
                // frame claiming the wrong source on this link.
                let claimed = if torn { 9 } else { 1 };
                match n.receiver.accept_frame(claimed, 1, seq) {
                    FrameVerdict::Accept => {
                        n.mailbox.push((inc, pid));
                        if pid == n.accepted {
                            n.accepted += 1;
                        } else {
                            n.silent_skip = true;
                        }
                    }
                    FrameVerdict::Condemn(_) => n.condemned = true,
                }
            }
            FrameAction::Tear => {
                n.wire[0].3 = true;
                n.tears += 1;
            }
            FrameAction::DropConn => {
                n.conn_up = false;
                n.wire.clear();
            }
            FrameAction::Reconnect => {
                // Both ends run the real registration machine, exactly
                // like `register_link` and the peer's dial path.
                let plan = n.receiver.register(n.peer_inc, &self.m);
                if plan.replacement {
                    n.mailbox.clear();
                }
                if plan.lift_condemnation {
                    n.condemned = false;
                }
                // The peer registers *our* incarnation, which never
                // changes in this model (we are the survivor).
                let _ = n.sender.register(0, &self.m);
                n.conn_up = true;
                n.reconnects += 1;
            }
            FrameAction::Kill => {
                n.peer_inc += 1;
                n.sender = LinkSession::default();
                n.sends = 0;
                n.accepted = 0;
                n.kills += 1;
            }
        }
        Some(n)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

fn frame_stream_properties() -> Vec<Property<FrameStreamModel>> {
    vec![
        Property::<FrameStreamModel>::always("no-silent-skip", |_, s| !s.silent_skip),
        Property::<FrameStreamModel>::always("no-stale-frame-leak", |_, s| {
            s.mailbox
                .iter()
                .all(|&(inc, _)| inc == s.receiver.peer_incarnation)
        }),
        // Anti-vacuity coverage: the schedules above must actually
        // reach the interesting corners.
        Property::<FrameStreamModel>::sometimes("a-gap-condemns", |_, s| s.condemned),
        Property::<FrameStreamModel>::sometimes("a-replacement-survives", |_, s| s.kills > 0 && s.conn_up),
        Property::<FrameStreamModel>::sometimes("payloads-flow", |_, s| s.mailbox.len() >= 2),
    ]
}

#[test]
fn frame_stream_is_proven_gapless() {
    let model = FrameStreamModel::shipping();
    let report = check(&model, &frame_stream_properties(), &Options::default());
    record(&report);
    assert_proven(&report);
}

/// Bug #2 regression: resetting sequence counters on a same-incarnation
/// reconnect lets a frame lost in the dead connection's buffers vanish
/// without a gap. The checker must find the schedule.
#[test]
fn mutated_seq_reset_is_caught_as_silent_skip() {
    let model = FrameStreamModel {
        name: "frame-stream-mut-skip",
        m: BUG_SILENT_SKIP,
        ..FrameStreamModel::shipping()
    };
    let report = check(&model, &frame_stream_properties(), &Options::default());
    record(&report);
    let v = report
        .violation("no-silent-skip")
        .expect("the checker must catch bug #2 (silent frame skip)");
    // The counterexample is a real schedule: replaying it reproduces
    // the skipped delivery deterministically.
    let actions: Vec<FrameAction> = v.trace.steps.iter().map(|(a, _)| *a).collect();
    let states = replay(&model, 0, &actions);
    assert!(states.last().unwrap().silent_skip, "{}", v.trace.render());
    // And the schedule must involve a mid-stream loss + reconnect —
    // the bug's signature.
    assert!(actions.contains(&FrameAction::DropConn));
    assert!(actions.contains(&FrameAction::Reconnect));
}

// =====================================================================
// Precedence model: queued data → poison → declaration → condemnation
// =====================================================================

/// One receiver probing peer rank 1 while the link condemns, the hub
/// declares/recovers, and payloads arrive — every `recv` verdict is
/// computed by the real [`protocol::recv_gate`] and every mirror
/// transition by the real [`protocol::apply_control`].
struct PrecedenceModel {
    name: &'static str,
    m: Mutations,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PrecState {
    view: [PeerView; 2],
    condemned: bool,
    queued: u8,
    poisoned: bool,
    enqueues: u8,
    condemns: u8,
    declares: u8,
    recovers: u8,
    poisons: u8,
    /// recv returned `Corrupt` while the hub had declared the peer dead
    /// — the precedence inversion "declared-outranks-corruption" forbids.
    corrupt_while_declared: bool,
    /// recv returned anything but `Deliver` while a payload was queued.
    starved: bool,
    saw_deliver: bool,
    saw_rank_failed: bool,
    saw_corrupt: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PrecAction {
    /// A valid frame from rank 1 lands in the mailbox.
    Enqueue,
    /// Rank 1's link delivers a structurally bad frame.
    CondemnLink,
    /// The hub's detector declares rank 1 dead.
    HubDeclare,
    /// Rank 1's replacement starts recovery.
    HubRebuild,
    /// Rank 1 rejoins.
    HubRecover,
    /// The hub connection dies.
    Poison,
    /// The app thread executes one receive and observes the verdict.
    Recv,
}

impl Model for PrecedenceModel {
    type State = PrecState;
    type Action = PrecAction;

    fn init_states(&self) -> Vec<PrecState> {
        vec![PrecState {
            view: [PeerView::INITIAL; 2],
            condemned: false,
            queued: 0,
            poisoned: false,
            enqueues: 0,
            condemns: 0,
            declares: 0,
            recovers: 0,
            poisons: 0,
            corrupt_while_declared: false,
            starved: false,
            saw_deliver: false,
            saw_rank_failed: false,
            saw_corrupt: false,
        }]
    }

    fn actions(&self, s: &PrecState, out: &mut Vec<PrecAction>) {
        if s.enqueues < 1 {
            out.push(PrecAction::Enqueue);
        }
        if s.condemns < 1 {
            out.push(PrecAction::CondemnLink);
        }
        if s.declares < 1 {
            out.push(PrecAction::HubDeclare);
        }
        if s.view[1].status == RankStatus::Failed {
            out.push(PrecAction::HubRebuild);
        }
        if s.recovers < 1 && s.view[1].status == RankStatus::Rebuilding {
            out.push(PrecAction::HubRecover);
        }
        if s.poisons < 1 {
            out.push(PrecAction::Poison);
        }
        out.push(PrecAction::Recv);
    }

    fn next_state(&self, s: &PrecState, a: &PrecAction) -> Option<PrecState> {
        let mut n = s.clone();
        match a {
            PrecAction::Enqueue => {
                n.queued += 1;
                n.enqueues += 1;
            }
            PrecAction::CondemnLink => {
                n.condemned = true;
                n.condemns += 1;
            }
            PrecAction::HubDeclare => {
                let fx = protocol::apply_control(
                    &mut n.view,
                    ControlEvent::Declared {
                        rank: 1,
                        failed_epoch: 3,
                    },
                    &self.m,
                );
                if fx == (protocol::MirrorEffect::LiftCondemnation { rank: 1 }) {
                    n.condemned = false;
                }
                n.declares += 1;
            }
            PrecAction::HubRebuild => {
                let _ = protocol::apply_control(
                    &mut n.view,
                    ControlEvent::Rebuilding { rank: 1 },
                    &self.m,
                );
            }
            PrecAction::HubRecover => {
                let _ = protocol::apply_control(
                    &mut n.view,
                    ControlEvent::Recovered { rank: 1, epoch: 4 },
                    &self.m,
                );
                n.recovers += 1;
            }
            PrecAction::Poison => {
                n.poisoned = true;
                n.poisons += 1;
            }
            PrecAction::Recv => {
                let verdict = protocol::recv_gate(
                    n.queued > 0,
                    n.poisoned,
                    false,
                    n.view[1].status,
                    n.view[1].failed_epoch,
                    n.condemned,
                    &self.m,
                );
                if n.queued > 0 && verdict != RecvVerdict::Deliver {
                    n.starved = true;
                }
                match verdict {
                    RecvVerdict::Deliver => {
                        n.queued -= 1;
                        n.saw_deliver = true;
                    }
                    RecvVerdict::RankFailed { .. } => n.saw_rank_failed = true,
                    RecvVerdict::Corrupt => {
                        n.saw_corrupt = true;
                        if n.view[1].status == RankStatus::Failed {
                            n.corrupt_while_declared = true;
                        }
                    }
                    RecvVerdict::Poisoned => {}
                    // A `Wait` verdict changes nothing observable; prune
                    // the self-loop.
                    RecvVerdict::Wait => return None,
                }
            }
        }
        Some(n)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

fn precedence_properties() -> Vec<Property<PrecedenceModel>> {
    vec![
        Property::<PrecedenceModel>::always("declared-outranks-corruption", |_, s| {
            !s.corrupt_while_declared
        }),
        Property::<PrecedenceModel>::always("queued-data-beats-every-error", |_, s| !s.starved),
        Property::<PrecedenceModel>::sometimes("delivers", |_, s| s.saw_deliver),
        Property::<PrecedenceModel>::sometimes("reports-rank-failed", |_, s| s.saw_rank_failed),
        Property::<PrecedenceModel>::sometimes("reports-corruption", |_, s| s.saw_corrupt),
        Property::<PrecedenceModel>::sometimes("full-recovery-cycle", |_, s| {
            s.recovers > 0 && s.view[1].status == RankStatus::Healthy
        }),
    ]
}

#[test]
fn precedence_order_is_proven() {
    let model = PrecedenceModel {
        name: "precedence",
        m: Mutations::NONE,
    };
    let report = check(&model, &precedence_properties(), &Options::default());
    record(&report);
    assert_proven(&report);
}

/// Bug #1 regression: with the historical precedence inversion, a
/// death that tore a frame masquerades as corruption forever. The
/// checker must find the schedule.
#[test]
fn mutated_precedence_is_caught() {
    let model = PrecedenceModel {
        name: "precedence-mut-bug1",
        m: BUG_PRECEDENCE,
    };
    let report = check(&model, &precedence_properties(), &Options::default());
    record(&report);
    let v = report
        .violation("declared-outranks-corruption")
        .expect("the checker must catch bug #1 (precedence inversion)");
    let actions: Vec<PrecAction> = v.trace.steps.iter().map(|(a, _)| *a).collect();
    let states = replay(&model, 0, &actions);
    assert!(
        states.last().unwrap().corrupt_while_declared,
        "{}",
        v.trace.render()
    );
}

// =====================================================================
// Lock-order model: interleaved acquisition scripts
// =====================================================================

/// Exhaustive interleaving of the transport's (or hub's) concurrent
/// lock-acquisition scripts from [`protocol::locks`] — the same shapes
/// the rank checker in `hacc_comm::sync` enforces at runtime. Proves
/// deadlock-freedom *and* that no interleaving acquires against the
/// rank order.
struct LockOrderModel {
    name: &'static str,
    threads: Vec<(&'static str, Vec<LockOp>)>,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct LockState {
    pc: Vec<u8>,
    /// Per-thread stack of held ranks.
    held: Vec<Vec<LockRank>>,
    /// Some thread acquired a rank ≤ one it already held.
    discipline_violated: bool,
}

/// One scheduler step: which thread advances (named for trace
/// readability; fixtures parse the index back out of the `Debug` form).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Step(usize, &'static str);

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Step({}, {:?})", self.0, self.1)
    }
}

impl Model for LockOrderModel {
    type State = LockState;
    type Action = Step;

    fn init_states(&self) -> Vec<LockState> {
        vec![LockState {
            pc: vec![0; self.threads.len()],
            held: vec![Vec::new(); self.threads.len()],
            discipline_violated: false,
        }]
    }

    fn actions(&self, s: &LockState, out: &mut Vec<Step>) {
        for (t, (name, script)) in self.threads.iter().enumerate() {
            let Some(op) = script.get(s.pc[t] as usize) else {
                continue; // thread done
            };
            let enabled = match op {
                LockOp::Acquire(r) => !s.held.iter().any(|h| h.contains(r)),
                LockOp::Release(_) => true,
            };
            if enabled {
                out.push(Step(t, name));
            }
        }
    }

    fn next_state(&self, s: &LockState, Step(t, _): &Step) -> Option<LockState> {
        let mut n = s.clone();
        let op = self.threads[*t].1[s.pc[*t] as usize];
        match op {
            LockOp::Acquire(r) => {
                if s.held.iter().any(|h| h.contains(&r)) {
                    return None; // blocked
                }
                if n.held[*t].iter().any(|&held| held >= r) {
                    n.discipline_violated = true;
                }
                n.held[*t].push(r);
            }
            LockOp::Release(r) => {
                n.held[*t].retain(|&h| h != r);
            }
        }
        n.pc[*t] += 1;
        Some(n)
    }

    fn is_terminal_ok(&self, s: &LockState) -> bool {
        s.pc
            .iter()
            .zip(&self.threads)
            .all(|(&pc, (_, script))| pc as usize == script.len())
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

fn lock_order_properties() -> Vec<Property<LockOrderModel>> {
    vec![
        Property::<LockOrderModel>::always("rank-discipline", |_, s| !s.discipline_violated),
        Property::<LockOrderModel>::sometimes("max-nesting-reached", |_, s| {
            s.held.iter().any(|h| h.len() >= 2)
        }),
    ]
}

#[test]
fn transport_lock_scripts_are_deadlock_free() {
    let model = LockOrderModel {
        name: "lock-order-transport",
        threads: locks::transport_threads(&Mutations::NONE),
    };
    let report = check(&model, &lock_order_properties(), &Options::default());
    record(&report);
    assert_proven(&report);
}

/// The send path after the `LinkWriter` split: a sender mid-frame, a
/// re-registration draining its backlog, the link's reader thread and a
/// receive-timeout diagnosis all contend for one link and never stick.
#[test]
fn link_lock_scripts_are_deadlock_free() {
    let model = LockOrderModel {
        name: "lock-order-link",
        threads: locks::link_threads(),
    };
    let report = check(&model, &lock_order_properties(), &Options::default());
    record(&report);
    assert_proven(&report);
}

#[test]
fn hub_lock_scripts_are_deadlock_free() {
    let model = LockOrderModel {
        name: "lock-order-hub",
        threads: vec![
            ("hub_rpc", locks::hub_rpc()),
            ("hub_welcome_block", locks::hub_welcome_block()),
            ("condemn", locks::condemn()),
        ],
    };
    let report = check(&model, &lock_order_properties(), &Options::default());
    record(&report);
    assert_proven(&report);
}

/// Bug #3 regression: diagnosing a receive timeout while still holding
/// the mailbox lock inverts `Link → Mail` and deadlocks against
/// `register_link`. The checker must find both the rank-discipline
/// breach and the deadlock schedule.
#[test]
fn mutated_lock_inversion_is_caught() {
    let model = LockOrderModel {
        name: "lock-order-mut-inversion",
        threads: locks::transport_threads(&BUG_LOCK_INVERSION),
    };
    let report = check(&model, &lock_order_properties(), &Options::default());
    record(&report);
    report
        .violation("rank-discipline")
        .expect("the checker must flag the Mail→Link rank breach");
    let v = report
        .violation(DEADLOCK)
        .expect("the checker must find the register_link deadlock");
    // The deadlocked state really is stuck: no enabled actions, with
    // both inverted threads mid-script.
    let end = v.trace.last_state();
    let mut enabled = Vec::new();
    model.actions(end, &mut enabled);
    assert!(enabled.is_empty(), "{}", v.trace.render());
    assert!(!model.is_terminal_ok(end));
}

// =====================================================================
// Dead-set model: survivor agreement on hub broadcasts
// =====================================================================

/// The hub appends detector events to an ordered broadcast log; each
/// child consumes the log at its own pace through the real
/// [`protocol::apply_control`]. Terminal states (log drained, event
/// budget spent) must show every child's [`protocol::dead_set`] equal
/// to the hub's. Rank 0 additionally exercises the elastic lifecycle
/// (deliberate retire → re-activation) and must *never* be confused
/// with a casualty.
struct DeadSetModel {
    name: &'static str,
    m: Mutations,
}

const DS_RANKS: usize = 3;
const DS_CHILDREN: usize = 2; // observers: ranks 0 and 2

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct DeadSetState {
    /// Hub-side lifecycle per rank: 0 healthy, 1 declared, 2 rebuilding,
    /// 3 recovered, 4 parked (deliberate retire), 5 re-activated.
    hub: [u8; DS_RANKS],
    log: Vec<ControlEvent>,
    consumed: [u8; DS_CHILDREN],
    views: [[PeerView; DS_RANKS]; DS_CHILDREN],
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeadSetAction {
    Declare(usize),
    Rebuild(usize),
    Recover(usize),
    /// Deliberate elastic retire: the hub parks the rank.
    Retire(usize),
    /// Elastic grow: the hub re-admits a parked rank.
    Activate(usize),
    /// Child `c`'s control loop applies the next broadcast.
    DeliverTo(usize),
}

impl DeadSetModel {
    fn hub_dead_set(s: &DeadSetState) -> Vec<(usize, u64)> {
        s.hub
            .iter()
            .enumerate()
            .filter(|&(_, &st)| st == 1 || st == 2)
            .map(|(r, _)| (r, r as u64))
            .collect()
    }
}

impl Model for DeadSetModel {
    type State = DeadSetState;
    type Action = DeadSetAction;

    fn init_states(&self) -> Vec<DeadSetState> {
        vec![DeadSetState {
            hub: [0; DS_RANKS],
            log: Vec::new(),
            consumed: [0; DS_CHILDREN],
            views: [[PeerView::INITIAL; DS_RANKS]; DS_CHILDREN],
        }]
    }

    fn actions(&self, s: &DeadSetState, out: &mut Vec<DeadSetAction>) {
        // The hub may declare ranks 1 and 2; only rank 1's replacement
        // completes the rebuild/recover cycle.
        for r in [1, 2] {
            if s.hub[r] == 0 {
                out.push(DeadSetAction::Declare(r));
            }
        }
        if s.hub[1] == 1 {
            out.push(DeadSetAction::Rebuild(1));
        }
        if s.hub[1] == 2 {
            out.push(DeadSetAction::Recover(1));
        }
        // Rank 0 is never declared: its only lifecycle is the elastic
        // retire → activate round trip.
        if s.hub[0] == 0 {
            out.push(DeadSetAction::Retire(0));
        }
        if s.hub[0] == 4 {
            out.push(DeadSetAction::Activate(0));
        }
        for c in 0..DS_CHILDREN {
            if (s.consumed[c] as usize) < s.log.len() {
                out.push(DeadSetAction::DeliverTo(c));
            }
        }
    }

    fn next_state(&self, s: &DeadSetState, a: &DeadSetAction) -> Option<DeadSetState> {
        let mut n = s.clone();
        match *a {
            DeadSetAction::Declare(r) => {
                n.hub[r] = 1;
                // failed_epoch = rank, so agreement is on (rank, epoch)
                // pairs, not just membership.
                n.log.push(ControlEvent::Declared {
                    rank: r,
                    failed_epoch: r as u64,
                });
            }
            DeadSetAction::Rebuild(r) => {
                n.hub[r] = 2;
                n.log.push(ControlEvent::Rebuilding { rank: r });
            }
            DeadSetAction::Recover(r) => {
                n.hub[r] = 3;
                n.log.push(ControlEvent::Recovered { rank: r, epoch: 5 });
            }
            DeadSetAction::Retire(r) => {
                n.hub[r] = 4;
                n.log.push(ControlEvent::Parked { rank: r, step: 6 });
            }
            DeadSetAction::Activate(r) => {
                n.hub[r] = 5;
                n.log.push(ControlEvent::Activated { rank: r, epoch: 7 });
            }
            DeadSetAction::DeliverTo(c) => {
                let ev = n.log[n.consumed[c] as usize];
                let _ = protocol::apply_control(&mut n.views[c], ev, &self.m);
                n.consumed[c] += 1;
            }
        }
        Some(n)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

fn dead_set_properties() -> Vec<Property<DeadSetModel>> {
    vec![
        // Terminal = log drained + hub lifecycle exhausted: every
        // child's mirror must equal the hub's authoritative view.
        Property::<DeadSetModel>::eventually("survivors-agree", |_, s| {
            let hub = DeadSetModel::hub_dead_set(s);
            s.views.iter().all(|v| protocol::dead_set(v) == hub)
        }),
        // Mid-flight, a child lags the hub but never invents a death
        // the hub did not broadcast.
        Property::<DeadSetModel>::always("no-invented-deaths", |_, s| {
            s.views.iter().all(|v| {
                protocol::dead_set(v).iter().all(|&(r, _)| {
                    s.log.iter().any(
                        |ev| matches!(ev, ControlEvent::Declared { rank, .. } if *rank == r),
                    )
                })
            })
        }),
        // The elastic theorem: a rank whose only lifecycle is the
        // deliberate retire/activate round trip (rank 0 here — the hub
        // never declares it) can never appear in any child's dead set,
        // no matter how the broadcast log interleaves.
        Property::<DeadSetModel>::always("retired-is-never-dead", |_, s| {
            s.views
                .iter()
                .all(|v| protocol::dead_set(v).iter().all(|&(r, _)| r != 0))
        }),
        Property::<DeadSetModel>::sometimes("children-disagree-in-flight", |_, s| {
            protocol::dead_set(&s.views[0]) != protocol::dead_set(&s.views[1])
        }),
        Property::<DeadSetModel>::sometimes("double-fault-reached", |_, s| s.hub[1] >= 1 && s.hub[2] >= 1),
        Property::<DeadSetModel>::sometimes("recovery-reached", |_, s| s.hub[1] == 3),
        // A retire and a failure coexist in the same schedule, and the
        // parked rank later rejoins — the exact grow-after-shrink shape
        // the chaos soak drives.
        Property::<DeadSetModel>::sometimes("retire-alongside-failure", |_, s| {
            s.hub[0] >= 4 && s.hub[1] >= 1
        }),
        Property::<DeadSetModel>::sometimes("regrow-reached", |_, s| s.hub[0] == 5),
    ]
}

#[test]
fn survivors_agree_on_the_dead_set() {
    let model = DeadSetModel {
        name: "dead-set",
        m: Mutations::NONE,
    };
    let report = check(&model, &dead_set_properties(), &Options::default());
    record(&report);
    assert_proven(&report);
}

/// Bug #4 regression: applying a deliberate retire to the mirror as a
/// failure declaration puts the retiree in the dead set — survivors
/// would launch recovery for a rank that was never lost. The checker
/// must find the schedule, and it must involve a `Retire` (never a
/// `Declare`) of the confused rank.
#[test]
fn mutated_retire_confused_with_failure_is_caught() {
    let model = DeadSetModel {
        name: "dead-set-mut-retire",
        m: BUG_RETIRE_AS_DEATH,
    };
    let report = check(&model, &dead_set_properties(), &Options::default());
    record(&report);
    let v = report
        .violation("retired-is-never-dead")
        .expect("the checker must catch bug #4 (retire confused with failure)");
    let actions: Vec<DeadSetAction> = v.trace.steps.iter().map(|(a, _)| *a).collect();
    let states = replay(&model, 0, &actions);
    let end = states.last().unwrap();
    assert!(
        end.views
            .iter()
            .any(|view| protocol::dead_set(view).iter().any(|&(r, _)| r == 0)),
        "{}",
        v.trace.render()
    );
    // The schedule's signature: rank 0 was retired, never declared.
    assert!(actions.contains(&DeadSetAction::Retire(0)));
    assert!(!actions.contains(&DeadSetAction::Declare(0)));
}

// =====================================================================
// Scan model: the detector's suspicion FSM under the step protocol
// =====================================================================

/// The authoritative detector (`HealthState`, in-process and in the
/// hub) as the pure functions it runs: [`protocol::beat_gate`] +
/// [`protocol::apply_control`] for a beat, [`protocol::scan_step`] for a
/// monitor pass, [`protocol::Gate::Epoch`] for the barrier that keeps a
/// rank from beating the next epoch before its peers caught up or were
/// declared. Ranks 0 and 1 step (either may fall silent for any
/// stretch, or beat arbitrarily late); rank 2 is parked reserve.
struct ScanModel {
    name: &'static str,
    m: Mutations,
}

const SCAN_RANKS: usize = 3;
const SCAN_PARKED: usize = 2;
const SCAN_MAX_EPOCH: u64 = 3;
const SCAN_CFG: hacc_comm::HeartbeatConfig = hacc_comm::HeartbeatConfig {
    scan_interval: std::time::Duration::from_millis(1),
    suspect_scans: 2,
    confirm_scans: 2,
    sync_timeout: std::time::Duration::from_millis(1),
};

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ScanState {
    view: [PeerView; SCAN_RANKS],
    stale: [u32; SCAN_RANKS],
    /// Heartbeat counter moved since the last scan.
    ticked: [bool; SCAN_RANKS],
    /// The scan declared this rank at some point.
    declared: [bool; SCAN_RANKS],
    /// The scan declared an already-declared rank again.
    redeclared: bool,
    /// A beat bounced off a declaration or a park.
    fenced_beat: bool,
    /// Traffic or a beat cleared a pending suspicion.
    suspicion_cleared: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScanAction {
    /// `admit_step`'s beat of the rank's next epoch.
    Beat(usize),
    /// Plain send traffic: a tick with no epoch progress.
    Tick(usize),
    /// One monitor pass over every rank.
    Scan,
}

fn frontier(view: &[PeerView]) -> u64 {
    view.iter().map(|p| p.epoch).max().unwrap_or(0)
}

impl Model for ScanModel {
    type State = ScanState;
    type Action = ScanAction;

    fn init_states(&self) -> Vec<ScanState> {
        let mut view = [PeerView::INITIAL; SCAN_RANKS];
        let _ = protocol::apply_control(
            &mut view,
            ControlEvent::Parked {
                rank: SCAN_PARKED,
                step: 0,
            },
            &self.m,
        );
        vec![ScanState {
            view,
            stale: [0; SCAN_RANKS],
            ticked: [false; SCAN_RANKS],
            declared: [false; SCAN_RANKS],
            redeclared: false,
            fenced_beat: false,
            suspicion_cleared: false,
        }]
    }

    fn actions(&self, s: &ScanState, out: &mut Vec<ScanAction>) {
        for r in 0..SCAN_RANKS {
            // The step protocol: a rank beats epoch e+1 only once the
            // barrier for e let it through.
            let passed = protocol::Gate::Epoch(s.view[r].epoch).poll(&s.view, r).is_ok();
            if passed && s.view[r].epoch < SCAN_MAX_EPOCH {
                out.push(ScanAction::Beat(r));
            }
            if !s.ticked[r] {
                out.push(ScanAction::Tick(r));
            }
        }
        out.push(ScanAction::Scan);
    }

    fn next_state(&self, s: &ScanState, a: &ScanAction) -> Option<ScanState> {
        let mut n = s.clone();
        match *a {
            ScanAction::Beat(r) => {
                n.ticked[r] = true;
                match protocol::beat_gate(&n.view[r], r, n.view[r].epoch + 1) {
                    (_, Some(ev)) => {
                        n.suspicion_cleared |= n.view[r].status == RankStatus::Suspected;
                        let _ = protocol::apply_control(&mut n.view, ev, &self.m);
                        n.stale[r] = 0;
                    }
                    (_, None) => n.fenced_beat = true,
                }
            }
            ScanAction::Tick(r) => n.ticked[r] = true,
            ScanAction::Scan => {
                let max_epoch = frontier(&n.view);
                for r in 0..SCAN_RANKS {
                    let progressed = std::mem::take(&mut n.ticked[r]);
                    let was = n.view[r].status;
                    let declare = protocol::scan_step(
                        &mut n.view[r],
                        &mut n.stale[r],
                        progressed,
                        max_epoch,
                        &SCAN_CFG,
                        &self.m,
                    );
                    n.suspicion_cleared |=
                        was == RankStatus::Suspected && n.view[r].status == RankStatus::Healthy;
                    if declare {
                        n.redeclared |= n.declared[r];
                        n.declared[r] = true;
                        let failed_epoch = n.view[r].epoch;
                        let _ = protocol::apply_control(
                            &mut n.view,
                            ControlEvent::Declared { rank: r, failed_epoch },
                            &self.m,
                        );
                        n.stale[r] = 0;
                    }
                }
            }
        }
        Some(n)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

fn scan_properties() -> Vec<Property<ScanModel>> {
    vec![
        // The epoch gate: suspicion only ever rests on a rank some peer
        // has already left behind.
        Property::<ScanModel>::always("frontier-never-suspected", |_, s| {
            let max_epoch = frontier(&s.view);
            s.view
                .iter()
                .all(|p| p.status != RankStatus::Suspected || p.epoch < max_epoch)
        }),
        // Fencing: no beat, however late, undoes a declaration or moves
        // the dead rank's epoch past the one it died at (which would
        // slip it through the survivors' barrier unreported), and the
        // scan never declares the same death twice.
        Property::<ScanModel>::always("declaration-is-final", |_, s| {
            !s.redeclared
                && (0..SCAN_RANKS).all(|r| {
                    let p = &s.view[r];
                    !s.declared[r]
                        || (p.status == RankStatus::Failed && p.epoch == p.failed_epoch)
                })
        }),
        Property::<ScanModel>::always("parked-never-declared", |_, s| {
            s.view[SCAN_PARKED].status == RankStatus::Parked
                && !s.declared[SCAN_PARKED]
                && protocol::dead_set(&s.view).iter().all(|&(r, _)| r != SCAN_PARKED)
        }),
        Property::<ScanModel>::sometimes("silent-laggard-declared", |_, s| s.declared[1]),
        Property::<ScanModel>::sometimes("late-beat-fenced", |_, s| {
            s.fenced_beat && s.declared.contains(&true)
        }),
        Property::<ScanModel>::sometimes("suspicion-cleared", |_, s| s.suspicion_cleared),
        // The declaration releases the survivor's barrier: it runs on
        // to the end of the schedule without the dead rank.
        Property::<ScanModel>::sometimes("survivor-runs-on", |_, s| {
            s.declared[1] && s.view[0].epoch == SCAN_MAX_EPOCH
        }),
    ]
}

#[test]
fn detector_scan_is_proven_sound() {
    let model = ScanModel {
        name: "detector-scan",
        m: Mutations::NONE,
    };
    let report = check(&model, &scan_properties(), &Options::default());
    record(&report);
    assert_proven(&report);
}

/// Bug #5 regression: without the epoch gate the scan counts silence
/// against a rank at the frontier — one deep in send-free compute while
/// every peer waits for it. The checker must find the schedule, and it
/// needs nothing but scans: no rank has to fall behind.
#[test]
fn mutated_frontier_suspicion_is_caught() {
    let model = ScanModel {
        name: "detector-scan-mut-frontier",
        m: BUG_SUSPECT_AT_FRONTIER,
    };
    let report = check(&model, &scan_properties(), &Options::default());
    record(&report);
    let v = report
        .violation("frontier-never-suspected")
        .expect("the checker must catch bug #5 (frontier rank suspected)");
    let actions: Vec<ScanAction> = v.trace.steps.iter().map(|(a, _)| *a).collect();
    let states = replay(&model, 0, &actions);
    let end = states.last().unwrap();
    let max_epoch = frontier(&end.view);
    assert!(
        end.view
            .iter()
            .any(|p| p.status == RankStatus::Suspected && p.epoch >= max_epoch),
        "{}",
        v.trace.render()
    );
    assert!(actions.contains(&ScanAction::Scan));
}

// =====================================================================
// Fence model: one membership change, its victim, acks and verdict
// =====================================================================

/// One membership change through the real [`protocol::fence_next`]:
/// a survivor (rank 0, the rank that journals the world record), an old
/// member that may be killed at the fence (rank 1) and, for a resize, a
/// newcomer (rank 2; a third member for a recovery). Every admission
/// runs the real detector pieces — [`protocol::beat_gate`],
/// [`protocol::apply_control`] and the [`protocol::Gate`] waits — over
/// every interleaving of the kill, the declaration, the victim's
/// rejoin, the survivors' fence syncs and fence-exit acks, and the
/// count; the certification total is chosen either way at the start.
struct FenceModel {
    name: &'static str,
    kind: ChangeKind,
    m: Mutations,
}

const FENCE_RANKS: usize = 3;
const FENCE_VICTIM: usize = 1;
/// The step the fence admits.
const FENCE_EPOCH: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum FencePhase {
    /// About to admit the fence step.
    AtFence,
    /// Beat accepted; blocked in the epoch barrier.
    Syncing,
    /// Killed at the fence: silent until its replacement rejoins.
    Dead,
    /// A live member of a broken fence waiting out the death's
    /// acknowledgement before it acks and decides.
    AwaitRebirth,
    /// The fence victim holding in `Rebuilding` for the acks.
    Holding,
    /// Inside the rehome + count collective.
    Rehoming,
    /// Left the fence with this action.
    Done(FenceAction),
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct FenceModelState {
    view: [PeerView; FENCE_RANKS],
    phase: [FencePhase; FENCE_RANKS],
    /// The count certifies (chosen at the start).
    certifies: bool,
    killed: bool,
    /// `acks[r]`: rank `r` acked the victim's hold.
    acks: [bool; FENCE_RANKS],
    /// First fence decision per member: true = the change goes on.
    branch: [Option<bool>; FENCE_RANKS],
    /// The victim left `Rebuilding` while a survivor's sync was pending.
    early_recovery: bool,
    commit_record: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FenceStep {
    /// The victim dies silently at its fence beat.
    Kill,
    /// Member `r` beats the fence step.
    Beat(usize),
    /// The detector declares the silent victim.
    Declare,
    /// Member `r` polls its epoch barrier.
    Sync(usize),
    /// Member `r` polls the death's acknowledgement.
    Rebirth(usize),
    /// The victim's replacement polls its own declaration and rejoins.
    Rejoin,
    /// The victim polls for every survivor's ack.
    Drain,
    /// The rehome + certification collective completes.
    Count,
}

impl FenceModel {
    fn role(&self, r: usize) -> FenceRole {
        if self.kind == ChangeKind::Resize && r == 2 {
            FenceRole::Newcomer
        } else {
            FenceRole::Member
        }
    }

    /// Member `r` consults the machine at `at` and moves on.
    fn decide(&self, n: &mut FenceModelState, r: usize, at: FencePoint) {
        let action = protocol::fence_next(self.kind, self.role(r), at, &self.m);
        if n.branch[r].is_none() {
            n.branch[r] = Some(matches!(action, FenceAction::Rehome | FenceAction::Commit));
        }
        n.phase[r] = match action {
            FenceAction::Rehome => FencePhase::Rehoming,
            FenceAction::HoldForAcks => FencePhase::Holding,
            done => FencePhase::Done(done),
        };
        if action == FenceAction::Commit && r == 0 && self.kind == ChangeKind::Resize {
            n.commit_record = true;
        }
        // The driver's rule: a victim rejoins the healthy world as it
        // leaves the fence any way but into retirement.
        if r == FENCE_VICTIM
            && n.killed
            && matches!(action, FenceAction::Commit | FenceAction::Abort)
        {
            n.early_recovery |= (0..FENCE_RANKS)
                .any(|s| matches!(n.phase[s], FencePhase::AtFence | FencePhase::Syncing));
            let ev = ControlEvent::Recovered { rank: r, epoch: FENCE_EPOCH };
            let _ = protocol::apply_control(&mut n.view, ev, &self.m);
        }
    }
}

impl Model for FenceModel {
    type State = FenceModelState;
    type Action = FenceStep;

    fn init_states(&self) -> Vec<FenceModelState> {
        [true, false]
            .into_iter()
            .map(|certifies| FenceModelState {
                view: [PeerView::INITIAL; FENCE_RANKS],
                phase: [FencePhase::AtFence; FENCE_RANKS],
                certifies,
                killed: false,
                acks: [false; FENCE_RANKS],
                branch: [None; FENCE_RANKS],
                early_recovery: false,
                commit_record: false,
            })
            .collect()
    }

    fn actions(&self, s: &FenceModelState, out: &mut Vec<FenceStep>) {
        if s.phase[FENCE_VICTIM] == FencePhase::AtFence {
            out.push(FenceStep::Kill);
        }
        for r in 0..FENCE_RANKS {
            match s.phase[r] {
                FencePhase::AtFence => out.push(FenceStep::Beat(r)),
                FencePhase::Syncing => out.push(FenceStep::Sync(r)),
                FencePhase::AwaitRebirth => out.push(FenceStep::Rebirth(r)),
                _ => {}
            }
        }
        if s.phase[FENCE_VICTIM] == FencePhase::Dead {
            if s.view[FENCE_VICTIM].status == RankStatus::Healthy {
                out.push(FenceStep::Declare);
            } else {
                out.push(FenceStep::Rejoin);
            }
        }
        if s.phase[FENCE_VICTIM] == FencePhase::Holding {
            out.push(FenceStep::Drain);
        }
        if s.phase.iter().all(|&p| p == FencePhase::Rehoming) {
            out.push(FenceStep::Count);
        }
    }

    fn next_state(&self, s: &FenceModelState, a: &FenceStep) -> Option<FenceModelState> {
        let mut n = s.clone();
        let live = |r: usize| r != FENCE_VICTIM || !s.killed;
        match *a {
            FenceStep::Kill => {
                n.killed = true;
                n.phase[FENCE_VICTIM] = FencePhase::Dead;
            }
            FenceStep::Beat(r) => {
                let (_, ev) = protocol::beat_gate(&n.view[r], r, FENCE_EPOCH);
                let _ = protocol::apply_control(&mut n.view, ev?, &self.m);
                n.phase[r] = FencePhase::Syncing;
            }
            FenceStep::Declare => {
                let ev = ControlEvent::Declared { rank: FENCE_VICTIM, failed_epoch: 0 };
                let _ = protocol::apply_control(&mut n.view, ev, &self.m);
            }
            FenceStep::Sync(r) => {
                let report = Gate::Epoch(FENCE_EPOCH).poll(&n.view, r).ok()?;
                if report.failed.is_empty() {
                    self.decide(&mut n, r, FencePoint::Admitted(FenceAdmission::Proceed));
                } else {
                    n.phase[r] = FencePhase::AwaitRebirth;
                }
            }
            FenceStep::Rebirth(r) => {
                Gate::Rebirth(&[FENCE_VICTIM]).poll(&n.view, r).ok()?;
                if self.kind == ChangeKind::Resize {
                    n.acks[r] = true;
                }
                self.decide(&mut n, r, FencePoint::Admitted(FenceAdmission::Deaths));
            }
            FenceStep::Rejoin => {
                Gate::OwnDeath.poll(&n.view, FENCE_VICTIM).ok()?;
                let ev = ControlEvent::Rebuilding { rank: FENCE_VICTIM };
                let _ = protocol::apply_control(&mut n.view, ev, &self.m);
                self.decide(&mut n, FENCE_VICTIM, FencePoint::Admitted(FenceAdmission::Dead));
            }
            FenceStep::Drain => {
                if !(0..FENCE_RANKS).filter(|&r| live(r)).all(|r| n.acks[r]) {
                    return None;
                }
                self.decide(&mut n, FENCE_VICTIM, FencePoint::Held);
            }
            FenceStep::Count => {
                for r in 0..FENCE_RANKS {
                    self.decide(&mut n, r, FencePoint::Counted { certified: s.certifies });
                }
            }
        }
        Some(n)
    }

    fn is_terminal_ok(&self, s: &FenceModelState) -> bool {
        s.phase.iter().all(|p| matches!(p, FencePhase::Done(_)))
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

fn fence_properties() -> Vec<Property<FenceModel>> {
    vec![
        // Every member that decides takes the same branch: the change
        // goes on everywhere or backs out everywhere.
        Property::<FenceModel>::always("no-verdict-split", |_, s| {
            let decided: Vec<bool> = s.branch.iter().flatten().copied().collect();
            decided.windows(2).all(|w| w[0] == w[1])
        }),
        Property::<FenceModel>::always("victim-holds-until-fence-syncs-return", |_, s| {
            !s.early_recovery
        }),
        Property::<FenceModel>::always("aborted-change-writes-no-commit", |_, s| {
            !s.commit_record
                || !s.phase.iter().any(|p| {
                    matches!(p, FencePhase::Done(FenceAction::Abort | FenceAction::Retire))
                })
        }),
        Property::<FenceModel>::sometimes("fence-kill-backs-out", |_, s| {
            s.killed && s.phase[0] == FencePhase::Done(FenceAction::Abort)
        }),
        Property::<FenceModel>::sometimes("victim-recovers", |_, s| {
            s.killed && s.view[FENCE_VICTIM].status == RankStatus::Healthy
        }),
        Property::<FenceModel>::sometimes("change-commits", |_, s| {
            s.phase[0] == FencePhase::Done(FenceAction::Commit)
        }),
        Property::<FenceModel>::sometimes("count-backs-out", |_, s| {
            !s.killed && s.phase[0] == FencePhase::Done(FenceAction::Abort)
        }),
    ]
}

#[test]
fn resize_fence_is_proven_split_free() {
    let model = FenceModel {
        name: "fence-resize",
        kind: ChangeKind::Resize,
        m: Mutations::NONE,
    };
    let report = check(&model, &fence_properties(), &Options::default());
    record(&report);
    assert_proven(&report);
}

/// A failure is the same-size change: the victim rebuilds as a blank
/// replacement instead of holding, and the same theorems hold.
#[test]
fn recovery_fence_is_proven_split_free() {
    let model = FenceModel {
        name: "fence-recovery",
        kind: ChangeKind::Recovery,
        m: Mutations::NONE,
    };
    // A recovery's victim rebuilds rather than backing out, so the
    // resize-only coverage point is not expected here.
    let props: Vec<_> = fence_properties()
        .into_iter()
        .filter(|p| p.name != "fence-kill-backs-out")
        .collect();
    let report = check(&model, &props, &Options::default());
    record(&report);
    assert_proven(&report);
}

/// Bug #6 regression (the historical verdict-split race): a resize-fence
/// victim that recovers as soon as it has acknowledged its death lets a
/// survivor whose fence sync evaluates late see no death at all — it
/// goes on with the change while the others back out. The checker must
/// find the schedule.
#[test]
fn mutated_recover_before_fence_acks_is_caught() {
    let model = FenceModel {
        name: "fence-resize-mut-early-recovery",
        kind: ChangeKind::Resize,
        m: BUG_EARLY_RECOVERY,
    };
    let report = check(&model, &fence_properties(), &Options::default());
    record(&report);
    let v = report
        .violation("no-verdict-split")
        .expect("the checker must catch bug #6 (fence verdict split)");
    let actions: Vec<FenceStep> = v.trace.steps.iter().map(|(a, _)| *a).collect();
    let init = model.init_states().iter().position(|s| *s == v.trace.init).unwrap();
    let end = replay(&model, init, &actions).pop().unwrap();
    assert!(end.early_recovery, "{}", v.trace.render());
    // The signature: the victim was killed and rejoined before a
    // survivor's fence sync returned.
    assert!(actions.contains(&FenceStep::Kill) && actions.contains(&FenceStep::Rejoin));
}

// =====================================================================
// Committed counterexample fixtures for the two PR 6 review bugs
// =====================================================================

fn fixture(name: &str) -> Vec<String> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {path}: {e}"));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// The recorded counterexample for the precedence bug replays through
/// the mutated model to the exact bad state — and the same schedule is
/// healthy under the shipping configuration.
#[test]
fn pr6_precedence_fixture_replays() {
    let actions: Vec<PrecAction> = fixture("pr6_precedence.trace")
        .iter()
        .map(|l| match l.as_str() {
            "Enqueue" => PrecAction::Enqueue,
            "CondemnLink" => PrecAction::CondemnLink,
            "HubDeclare" => PrecAction::HubDeclare,
            "HubRebuild" => PrecAction::HubRebuild,
            "HubRecover" => PrecAction::HubRecover,
            "Poison" => PrecAction::Poison,
            "Recv" => PrecAction::Recv,
            other => panic!("unknown action {other:?} in fixture"),
        })
        .collect();
    let buggy = PrecedenceModel {
        name: "precedence-mut-bug1",
        m: BUG_PRECEDENCE,
    };
    let states = replay(&buggy, 0, &actions);
    assert!(
        states.last().unwrap().corrupt_while_declared,
        "fixture no longer reproduces bug #1"
    );
    // The shipping machine survives the identical schedule: the recv
    // sees RankFailed, never Corrupt.
    let fixed = PrecedenceModel {
        name: "precedence",
        m: Mutations::NONE,
    };
    let states = replay(&fixed, 0, &actions);
    let end = states.last().unwrap();
    assert!(!end.corrupt_while_declared);
    assert!(end.saw_rank_failed);
}

/// The recorded lock-inversion schedule deadlocks the mutated scripts
/// — and runs to completion under the shipping ones.
#[test]
fn pr6_lock_inversion_fixture_replays() {
    let steps: Vec<(usize, String)> = fixture("pr6_lock_inversion.trace")
        .iter()
        .map(|l| {
            let body = l
                .strip_prefix("Step(")
                .and_then(|s| s.strip_suffix(')'))
                .unwrap_or_else(|| panic!("malformed fixture line {l:?}"));
            let (idx, name) = body.split_once(',').expect("Step(<idx>, <name>)");
            (
                idx.trim().parse().expect("thread index"),
                name.trim().trim_matches('"').to_string(),
            )
        })
        .collect();
    let buggy = LockOrderModel {
        name: "lock-order-mut-inversion",
        threads: locks::transport_threads(&BUG_LOCK_INVERSION),
    };
    let actions: Vec<Step> = steps
        .iter()
        .map(|(t, name)| {
            assert_eq!(
                buggy.threads[*t].0, name,
                "fixture thread name drifted from protocol::locks"
            );
            Step(*t, buggy.threads[*t].0)
        })
        .collect();
    let states = replay(&buggy, 0, &actions);
    let end = states.last().unwrap();
    let mut enabled = Vec::new();
    buggy.actions(end, &mut enabled);
    assert!(
        enabled.is_empty() && !buggy.is_terminal_ok(end),
        "fixture schedule no longer deadlocks the mutated scripts"
    );
    // The shipping scripts run the same schedule without sticking, and
    // every thread can still finish from wherever it ends up.
    let fixed = LockOrderModel {
        name: "lock-order-transport",
        threads: locks::transport_threads(&Mutations::NONE),
    };
    let actions: Vec<Step> = steps
        .iter()
        .map(|(t, _)| Step(*t, fixed.threads[*t].0))
        .collect();
    let states = replay(&fixed, 0, &actions);
    let mut enabled = Vec::new();
    fixed.actions(states.last().unwrap(), &mut enabled);
    assert!(
        !enabled.is_empty() || fixed.is_terminal_ok(states.last().unwrap()),
        "shipping scripts must not deadlock on the fixture schedule"
    );
}
