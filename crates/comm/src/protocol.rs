//! Pure, I/O-free protocol state machines for the multi-process
//! transport ([`crate::socket`]) and its launcher ([`crate::hub`]).
//!
//! Every *decision* the socket backend makes — whether a frame is
//! accepted or condemns its link, what a reconnect purges, whether a
//! blocked receive fails with `RankFailed` or `CorruptDetected`, how a
//! hub broadcast mutates the local failure-detector mirror, which
//! control line the hub emits for a beat — lives here as a pure
//! function or small state machine over plain data. `socket.rs` and
//! `hub.rs` are rewritten to *drive* these machines: they own the
//! sockets, threads, and locks, but never re-implement the logic. The
//! model-checking suite (`tests/protocol_models.rs`, built on
//! `vendor/modelcheck`) explores exactly the same machines over
//! adversarial event schedules, so the checked model and the shipping
//! implementation cannot drift apart.
//!
//! The [`Mutations`] struct reintroduces the two bugs a human review
//! caught in the original socket transport (lock-order inversion in the
//! timeout diagnosis; condemnation outranking a hub death declaration)
//! behind test-only flags. The live transport always passes
//! [`Mutations::NONE`]; the model suite flips each flag and asserts the
//! checker produces a counterexample — regression proof that the
//! verification layer actually detects the bug class it was built for.
//!
//! Machine ↔ implementation map:
//!
//! | here | drives |
//! |---|---|
//! | [`LinkSession`] | `socket::LinkState` seq/incarnation handling (`register_link`, `write_frame`, `reader_loop`) |
//! | [`recv_gate`] | the verdict loop of `SocketTransport::recv` and of the in-process `Shared::recv` (which has no link to condemn and passes `condemned = false`) |
//! | [`send_route`] | the self-send / dead-drop / link split in `SocketTransport::send` |
//! | [`PeerView`] + [`apply_control`] | the one membership record: `health.rs`'s authoritative detector (in-process machine *and* hub) and `SocketTransport::control_loop`'s mirror of it |
//! | [`scan_step`] | the suspicion FSM of `HealthState::scan` |
//! | [`Gate`], [`dead_set`] | `Transport::wait` and the dead set of `Transport::view`, on both backends |
//! | [`fence_next`] | every membership change of `hacc-core`'s recovery driver (`elastic.rs`): tier-0 recovery and the resize rendezvous |
//! | [`ControlLine`], [`ClientLine`] | both wire directions of the control-line protocol (hub renders, child parses, and vice versa) |
//! | [`beat_gate`] | fencing in `HealthState::beat`; the ack and `EPOCH` broadcast `hub::serve_client` emits for a beat |
//! | [`locks`] | the lock-acquisition scripts checked by the lock-order model |

use crate::{EpochReport, HeartbeatConfig, RankStatus};

/// Test-only mutation hooks: each flag reintroduces one historical bug
/// so the model checker can demonstrate it finds that bug class. The
/// live transport always uses [`Mutations::NONE`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Mutations {
    /// Bug #1 (precedence): a condemned link reports
    /// `CorruptDetected` even after the hub declared the peer dead,
    /// and a `DECLARED` broadcast no longer lifts the condemnation —
    /// survivors probing a corpse whose death tore a frame see
    /// corruption instead of `RankFailed`.
    pub corrupt_outranks_declared: bool,
    /// Bug #2 (silent skip): sequence counters reset on *every*
    /// reconnect instead of only for a replacement incarnation, so
    /// frames lost in a dead connection's buffers vanish without a
    /// sequence gap.
    pub reset_seq_on_reconnect: bool,
    /// Bug #3 (lock order): the receive-timeout diagnosis takes the
    /// link lock while still holding the mailbox lock, inverting the
    /// `Link → Mail` order `register_link` relies on.
    pub diagnose_under_mailbox: bool,
    /// Bug #4 (elasticity): a deliberate retire (`PARKED`) is applied
    /// to the mirror as if it were a failure declaration — the retired
    /// rank enters the dead set, survivors treat an administrative
    /// shrink as a casualty, and recovery machinery fires for a rank
    /// that was never lost.
    pub retire_marks_failed: bool,
    /// Bug #5 (epoch gate): the scan counts silence against a rank at
    /// the epoch frontier, so a rank deep in send-free compute — whose
    /// peers are all waiting *for it* — is suspected and then declared.
    pub suspect_at_frontier: bool,
    /// Bug #6 (verdict split): a resize-fence victim rejoins the healthy
    /// world as soon as it has acknowledged its death, without holding
    /// for the survivors' fence-exit acks — a survivor whose fence sync
    /// evaluates late then sees no death and certifies while the others
    /// abort.
    pub recover_before_fence_acks: bool,
}

impl Mutations {
    /// The shipping configuration: no bugs.
    pub const NONE: Mutations = Mutations {
        corrupt_outranks_declared: false,
        reset_seq_on_reconnect: false,
        diagnose_under_mailbox: false,
        retire_marks_failed: false,
        suspect_at_frontier: false,
        recover_before_fence_acks: false,
    };
}

// ---------------------------------------------------------------------
// Link session: sequence numbers across reconnects and incarnations
// ---------------------------------------------------------------------

/// Per-peer sequence/incarnation state machine — the pure core of
/// `socket::LinkState`. One lives on each side of a link; both sides
/// advance it the same way, which is exactly what the frame-stream
/// model exploits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct LinkSession {
    /// Incarnation of the peer process this session is speaking to.
    pub peer_incarnation: u64,
    /// Next sequence number to stamp on an outbound frame. Monotonic
    /// across reconnects of the same peer incarnation; reset only for
    /// a replacement.
    pub send_seq: u64,
    /// Next sequence number expected inbound (same reset rule), so a
    /// reconnect cannot silently swallow frames the dead connection
    /// accepted but never delivered.
    pub recv_seq: u64,
}

/// What a (re)registration must do besides installing the new stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegisterPlan {
    /// A different incarnation took over: purge the dead incarnation's
    /// outbound backlog and every inbound frame already queued from
    /// this peer — none of it may leak into the replacement.
    pub replacement: bool,
    /// Clear the per-source condemnation flag. Always true: if frames
    /// were really lost across the disconnect, the sequence check
    /// re-condemns on the very next frame, so this can only heal a
    /// link whose stream state is actually intact.
    pub lift_condemnation: bool,
}

/// Verdict on one inbound frame.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FrameVerdict {
    /// In-order frame from the right peer: deliver it.
    Accept,
    /// Structural failure: condemn the link, trust nothing after it.
    Condemn(CondemnReason),
}

/// Why a frame condemned its link.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CondemnReason {
    /// The frame's self-declared source does not match the link it
    /// arrived on.
    BadSource { claimed: u32, link: usize },
    /// Sequence gap: frames were lost (or reordered) in between.
    SeqGap { expected: u64, got: u64 },
}

impl std::fmt::Display for CondemnReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CondemnReason::BadSource { claimed, link } => {
                write!(f, "frame claims src {claimed} on the link from {link}")
            }
            CondemnReason::SeqGap { expected, got } => {
                write!(f, "torn frame stream: expected seq #{expected}, got #{got}")
            }
        }
    }
}

impl LinkSession {
    /// A (re)connection for peer incarnation `incoming` is being
    /// installed. Updates the sequence state and says what to purge.
    pub fn register(&mut self, incoming: u64, m: &Mutations) -> RegisterPlan {
        let replacement = incoming != self.peer_incarnation;
        if replacement || m.reset_seq_on_reconnect {
            // Mutated: resetting on a same-incarnation reconnect is
            // bug #2 — any frame the dead connection lost is skipped
            // without a gap, silently.
            self.send_seq = 0;
            self.recv_seq = 0;
        }
        self.peer_incarnation = incoming;
        RegisterPlan {
            replacement,
            lift_condemnation: true,
        }
    }

    /// Sequence number the next outbound frame must carry.
    #[must_use]
    pub fn next_send_seq(&self) -> u64 {
        self.send_seq
    }

    /// The frame stamped [`next_send_seq`](Self::next_send_seq) made it
    /// onto the wire (a failed write requeues without consuming a
    /// number, so the retry after reconnect reuses it).
    pub fn commit_send(&mut self) {
        self.send_seq += 1;
    }

    /// Judge one inbound frame: source identity, then the sequence
    /// check against the persistent counter.
    pub fn accept_frame(&mut self, claimed_src: u32, link_src: usize, seq: u64) -> FrameVerdict {
        if claimed_src as usize != link_src {
            return FrameVerdict::Condemn(CondemnReason::BadSource {
                claimed: claimed_src,
                link: link_src,
            });
        }
        if seq != self.recv_seq {
            return FrameVerdict::Condemn(CondemnReason::SeqGap {
                expected: self.recv_seq,
                got: seq,
            });
        }
        self.recv_seq += 1;
        FrameVerdict::Accept
    }
}

// ---------------------------------------------------------------------
// Receive gate: the precedence order of everything recv can return
// ---------------------------------------------------------------------

/// What a blocked receive should do, in decided precedence order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecvVerdict {
    /// A matching payload is queued: deliver it (beats every error —
    /// data that arrived intact before a failure is still good data).
    Deliver,
    /// The machine is poisoned (hub lost): fail everything.
    Poisoned,
    /// The hub declared the source dead. Outranks link-level
    /// condemnation: a death that tore a frame still reads as a death.
    RankFailed {
        /// Last epoch the dead incarnation completed.
        epoch: u64,
    },
    /// The source's link delivered a structurally bad frame and no
    /// declaration explains it: fail loudly, never resync silently.
    Corrupt,
    /// Nothing decides yet: block (or time out).
    Wait,
}

/// The single decision point of `SocketTransport::recv`: given what is
/// known about the source, what does this receive do *right now*?
///
/// Precedence (the documented contract, checked by the precedence
/// model): queued payload → poison → hub declaration → condemnation →
/// wait. A self-probe (`probing_self`) skips the failure checks — a
/// rank is never dead to itself.
#[must_use]
pub fn recv_gate(
    queued: bool,
    poisoned: bool,
    probing_self: bool,
    peer_status: RankStatus,
    peer_failed_epoch: u64,
    condemned: bool,
    m: &Mutations,
) -> RecvVerdict {
    if queued {
        return RecvVerdict::Deliver;
    }
    if poisoned {
        return RecvVerdict::Poisoned;
    }
    if !probing_self {
        if m.corrupt_outranks_declared {
            // Mutated: bug #1 — checking the condemnation before the
            // mirror lets a death that tore a frame masquerade as
            // corruption forever.
            if condemned {
                return RecvVerdict::Corrupt;
            }
        }
        if peer_status == RankStatus::Failed {
            return RecvVerdict::RankFailed {
                epoch: peer_failed_epoch,
            };
        }
        if condemned {
            return RecvVerdict::Corrupt;
        }
    }
    RecvVerdict::Wait
}

/// Where an outbound message goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SendRoute {
    /// Self-send: straight into the local mailbox, no wire.
    SelfDeliver,
    /// The detector declared the destination dead: drop, so the
    /// backlog cannot leak into a replacement. `Rebuilding` is NOT
    /// dead — recovery collectives must reach the replacement.
    DropDead,
    /// Normal path: the peer link (write now or queue while down).
    Link,
}

/// The routing decision at the top of `SocketTransport::send`.
#[must_use]
pub fn send_route(src: usize, dst: usize, dst_status: RankStatus) -> SendRoute {
    if dst == src {
        SendRoute::SelfDeliver
    } else if dst_status == RankStatus::Failed {
        SendRoute::DropDead
    } else {
        SendRoute::Link
    }
}

// ---------------------------------------------------------------------
// Membership record: one per rank, in the detector and in its mirrors
// ---------------------------------------------------------------------

/// One rank's membership record. The authoritative copy lives in
/// `HealthState` (the in-process machine's detector, and the hub's);
/// every socket child mirrors it from the hub's broadcasts. Both are
/// mutated only through [`apply_control`] (plus [`scan_step`]'s local
/// suspicion) and read only through the gates below.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PeerView {
    pub status: RankStatus,
    /// Highest epoch this rank is known to have completed.
    pub epoch: u64,
    /// Last epoch completed before its (latest) declared death.
    pub failed_epoch: u64,
}

impl PeerView {
    /// A healthy rank that has completed nothing yet.
    pub const INITIAL: PeerView = PeerView {
        status: RankStatus::Healthy,
        epoch: 0,
        failed_epoch: 0,
    };
}

/// One membership change: what the authoritative detector applies to
/// its own record and what the hub broadcasts for every mirror to apply
/// (the record-mutating subset of [`ControlLine`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ControlEvent {
    /// `EPOCH r e`: rank `r` completed epoch `e` (healthy beat).
    Epoch { rank: usize, epoch: u64 },
    /// `DECLARED r e`: the detector declared `r` dead; `e` is the last
    /// epoch its dead incarnation completed.
    Declared { rank: usize, failed_epoch: u64 },
    /// `REBUILDING r`: `r`'s replacement started recovery.
    Rebuilding { rank: usize },
    /// `RECOVERED r e`: `r` rejoined at epoch `e`.
    Recovered { rank: usize, epoch: u64 },
    /// `PARKED r`: `r` was deliberately retired from the active world
    /// (elastic shrink, or held-in-reserve capacity). NOT a failure.
    Parked { rank: usize },
    /// `ACTIVATED r e`: parked rank `r` was admitted to the active
    /// world at epoch `e` (elastic grow).
    Activated { rank: usize, epoch: u64 },
}

impl ControlEvent {
    /// Wire form: keyword, the rank whose record the event changes, and
    /// the epoch argument of the events that carry one.
    fn wire(&self) -> (&'static str, usize, Option<u64>) {
        match *self {
            ControlEvent::Epoch { rank, epoch } => ("EPOCH", rank, Some(epoch)),
            ControlEvent::Declared { rank, failed_epoch } => ("DECLARED", rank, Some(failed_epoch)),
            ControlEvent::Rebuilding { rank } => ("REBUILDING", rank, None),
            ControlEvent::Recovered { rank, epoch } => ("RECOVERED", rank, Some(epoch)),
            ControlEvent::Parked { rank } => ("PARKED", rank, None),
            ControlEvent::Activated { rank, epoch } => ("ACTIVATED", rank, Some(epoch)),
        }
    }

    /// The rank whose record this event changes.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.wire().1
    }
}

/// Side effect a mirror update demands outside the mirror itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MirrorEffect {
    None,
    /// The hub's declaration outranks any condemnation the death's
    /// torn streams caused: clear the per-source corrupt flag so
    /// survivors probing the corpse get `RankFailed`, and the
    /// replacement does not inherit the flag.
    LiftCondemnation { rank: usize },
}

/// Apply one membership change to a record set — the detector's own or
/// a mirror of it. Pure: the caller owns the locking and performs the
/// returned [`MirrorEffect`].
pub fn apply_control(view: &mut [PeerView], ev: ControlEvent, m: &Mutations) -> MirrorEffect {
    match ev {
        ControlEvent::Epoch { rank, epoch } => {
            if let Some(p) = view.get_mut(rank) {
                // A beat is proof of life: it clears a pending
                // suspicion. Whether a beat may be applied at all (it
                // may not once the rank is declared or parked) is
                // [`beat_gate`]'s decision, taken by the detector only.
                if p.status == RankStatus::Suspected {
                    p.status = RankStatus::Healthy;
                }
                if epoch > p.epoch {
                    p.epoch = epoch;
                }
            }
            MirrorEffect::None
        }
        ControlEvent::Declared { rank, failed_epoch } => {
            let Some(p) = view.get_mut(rank) else {
                return MirrorEffect::None;
            };
            p.status = RankStatus::Failed;
            p.failed_epoch = failed_epoch;
            if m.corrupt_outranks_declared {
                // Mutated: bug #1's second half — the declaration no
                // longer heals the condemnation.
                MirrorEffect::None
            } else {
                MirrorEffect::LiftCondemnation { rank }
            }
        }
        ControlEvent::Rebuilding { rank } => {
            if let Some(p) = view.get_mut(rank) {
                if p.status == RankStatus::Failed {
                    p.status = RankStatus::Rebuilding;
                }
            }
            MirrorEffect::None
        }
        ControlEvent::Recovered { rank, epoch } => {
            if let Some(p) = view.get_mut(rank) {
                p.status = RankStatus::Healthy;
                if epoch > p.epoch {
                    p.epoch = epoch;
                }
            }
            MirrorEffect::None
        }
        ControlEvent::Parked { rank } => {
            if let Some(p) = view.get_mut(rank) {
                if m.retire_marks_failed {
                    // Mutated: bug #4 — a deliberate retire lands in
                    // the mirror as a death. The retired rank joins the
                    // dead set and survivors launch recovery for a rank
                    // that was never lost.
                    p.status = RankStatus::Failed;
                    p.failed_epoch = p.epoch;
                } else {
                    p.status = RankStatus::Parked;
                }
            }
            MirrorEffect::None
        }
        ControlEvent::Activated { rank, epoch } => {
            if let Some(p) = view.get_mut(rank) {
                // Activation only admits parked capacity; it must not
                // resurrect a failed rank (that is `RECOVERED`'s job,
                // after certified reconstruction).
                if p.status == RankStatus::Parked {
                    if epoch == u64::MAX {
                        // Run-over release sentinel: wake the parked
                        // waiter but keep the rank parked (it exits
                        // instead of joining a world).
                        p.epoch = u64::MAX;
                    } else {
                        p.status = RankStatus::Healthy;
                        if epoch > p.epoch {
                            p.epoch = epoch;
                        }
                    }
                }
            }
            MirrorEffect::None
        }
    }
}

/// The detector's judgement of a `BEAT e` from `rank`: the status to
/// acknowledge, and the [`ControlEvent::Epoch`] to apply and announce —
/// `None` once the rank stands declared (fencing: a late heartbeat
/// cannot resurrect it, it must rejoin as a replacement) or parked
/// (only an explicit activation admits it to the world).
#[must_use]
pub fn beat_gate(p: &PeerView, rank: usize, epoch: u64) -> (RankStatus, Option<ControlEvent>) {
    match p.status {
        RankStatus::Failed | RankStatus::Rebuilding | RankStatus::Parked => (p.status, None),
        RankStatus::Healthy | RankStatus::Suspected => {
            (RankStatus::Healthy, Some(ControlEvent::Epoch { rank, epoch }))
        }
    }
}

/// One monitor scan of one rank: the suspicion FSM `healthy →
/// suspected → failed`. `progressed` says whether the rank's heartbeat
/// counter moved since the previous scan, `stale_scans` counts its
/// consecutive silent scans, `max_epoch` is the epoch frontier.
///
/// Suspicion is local to the detector (never broadcast), so the
/// `Healthy ↔ Suspected` moves happen on `p` in place. Returns `true`
/// when continued silence hardens into a death: the caller applies —
/// and the hub broadcasts — [`ControlEvent::Declared`] with
/// `failed_epoch = p.epoch`.
///
/// Epoch gate: a rank *at* the frontier is never suspected, however
/// silent — its peers are blocked waiting for it and cannot advance the
/// frontier, so silence there is compute, not death. Declared and
/// parked ranks are inert.
pub fn scan_step(
    p: &mut PeerView,
    stale_scans: &mut u32,
    progressed: bool,
    max_epoch: u64,
    cfg: &HeartbeatConfig,
    m: &Mutations,
) -> bool {
    match p.status {
        RankStatus::Healthy => {
            let at_frontier = p.epoch >= max_epoch && !m.suspect_at_frontier;
            if progressed || at_frontier {
                *stale_scans = 0;
            } else {
                *stale_scans += 1;
                if *stale_scans >= cfg.suspect_scans {
                    p.status = RankStatus::Suspected;
                    *stale_scans = 0;
                }
            }
            false
        }
        RankStatus::Suspected => {
            if progressed {
                p.status = RankStatus::Healthy;
                *stale_scans = 0;
                return false;
            }
            *stale_scans += 1;
            *stale_scans >= cfg.confirm_scans
        }
        RankStatus::Failed | RankStatus::Rebuilding | RankStatus::Parked => false,
    }
}

/// The dead set a transport reports: every rank currently `Failed` or
/// `Rebuilding`, with the last epoch its dead incarnation completed.
#[must_use]
pub fn dead_set(view: &[PeerView]) -> Vec<(usize, u64)> {
    view.iter()
        .enumerate()
        .filter(|(_, p)| matches!(p.status, RankStatus::Failed | RankStatus::Rebuilding))
        .map(|(r, p)| (r, p.failed_epoch))
        .collect()
}

/// A membership wait: what `Transport::wait` blocks on. Rank lists are
/// global ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate<'a> {
    /// Every rank has reached this epoch or been declared dead.
    Epoch(u64),
    /// The waiter's own death is declared (a dead rank's re-entry; the
    /// waiter then acknowledges it, `Failed → Rebuilding`).
    OwnDeath,
    /// Every listed rank has acknowledged its death (left `Failed`).
    Rebirth(&'a [usize]),
    /// The waiter, parked, was admitted to the active world — or
    /// released at end of run, with the `u64::MAX` sentinel epoch.
    Activation,
}

impl Gate<'_> {
    /// Judge one poll of a record set (the detector's or a mirror's) for
    /// waiter `me`, in the shape `health::wait_until` loops on: `Ok` once
    /// the wait is over — with the epoch it resolved at (the barrier
    /// epoch, the waiter's last completed epoch, its activation epoch; 0
    /// for a rebirth) and, at an epoch barrier, the casualties — or
    /// `Err(rank)` naming the rank still waited on.
    ///
    /// An epoch barrier passes once every rank has either reached the
    /// epoch or been declared; parked ranks are outside the world, never
    /// waited on and never reported failed. The waiter's own healthy
    /// entry passes even if its `EPOCH` echo is still in flight — its
    /// beat-ack already proved it.
    pub fn poll(&self, view: &[PeerView], me: usize) -> Result<EpochReport, usize> {
        let report = |epoch| EpochReport { epoch, failed: Vec::new() };
        match *self {
            Gate::Epoch(epoch) => {
                let mut failed = Vec::new();
                for (rank, p) in view.iter().enumerate() {
                    if p.epoch >= epoch || rank == me && p.status == RankStatus::Healthy {
                        continue;
                    }
                    match p.status {
                        RankStatus::Failed | RankStatus::Rebuilding => failed.push((rank, p.failed_epoch)),
                        RankStatus::Parked => {}
                        RankStatus::Healthy | RankStatus::Suspected => return Err(rank),
                    }
                }
                Ok(EpochReport { epoch, failed })
            }
            Gate::OwnDeath => match view.get(me) {
                Some(p) if p.status == RankStatus::Failed => Ok(report(p.failed_epoch)),
                _ => Err(me),
            },
            Gate::Rebirth(failed) => {
                let unacknowledged = |&r: &usize| view.get(r).is_some_and(|p| p.status == RankStatus::Failed);
                failed.iter().copied().find(unacknowledged).map_or(Ok(report(0)), Err)
            }
            Gate::Activation => match view.get(me) {
                Some(p) if p.status != RankStatus::Parked || p.epoch == u64::MAX => Ok(report(p.epoch)),
                _ => Err(me),
            },
        }
    }

    /// Timeout diagnosis of this wait, blaming `rank`.
    #[must_use]
    pub fn stalled(&self, rank: usize) -> String {
        match self {
            Gate::Epoch(epoch) => format!(
                "epoch sync stalled: rank {rank} has neither beaten epoch {epoch} nor been declared failed"
            ),
            Gate::OwnDeath => format!(
                "rank {rank} awaiting its own failure declaration that never came \
                 (is the heartbeat monitor enabled?)"
            ),
            Gate::Rebirth(_) => format!("failed rank {rank} never acknowledged its death"),
            Gate::Activation => format!("parked rank {rank} was never activated"),
        }
    }
}

// ---------------------------------------------------------------------
// The fence: one membership change, failure or resize
// ---------------------------------------------------------------------

/// Which membership change a fence opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChangeKind {
    /// Same-size change after a rank failure: the dead ranks rejoin as
    /// blank replacements and are rebuilt from overload replicas.
    Recovery,
    /// Planned resize over the union of the old and new worlds.
    Resize,
}

/// Where a member stood before the change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FenceRole {
    /// A member of the world being changed.
    Member,
    /// A parked rank a grow admitted for this change.
    Newcomer,
}

/// What admitting the fence step told one member.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FenceAdmission {
    /// Everyone reached the step.
    Proceed,
    /// Survivors agreed on a non-empty dead set.
    Deaths,
    /// This rank is itself dead at the fence: the fence victim.
    Dead,
}

/// The points at which a member consults [`fence_next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FencePoint {
    /// The fence step's admission returned.
    Admitted(FenceAdmission),
    /// A fence victim drained every survivor's fence-exit ack.
    Held,
    /// Particles rehomed; did the poisoned count allreduce (plus, for a
    /// recovery, the invariant gates) certify the result?
    Counted { certified: bool },
}

/// A member's next move through the fence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FenceAction {
    /// Route every copy it holds to its owner in the changed world.
    Rehome,
    /// Stay `Rebuilding` until every survivor acked the fence.
    HoldForAcks,
    /// Lock the changed world in (checkpoint; a resize journals it).
    Commit,
    /// Hand the seat back to the reserve pool.
    Retire,
    /// Roll back to the newest checkpoint — the pre-fence set of a resize.
    Abort,
}

/// The fence's decision, one answer per [`FencePoint`]. Every live member
/// of a change reaches the same branch from collectively agreed inputs
/// (the agreed dead set, the allreduced count); a fence victim of a
/// resize holds in `Rebuilding` until the survivors' acks prove their
/// fence syncs returned, so recovering cannot blank its death out of a
/// late survivor's report. A recovery victim needs no hold: the rehome
/// collective it joins as a blank replacement already proves that.
#[must_use]
pub fn fence_next(kind: ChangeKind, role: FenceRole, at: FencePoint, m: &Mutations) -> FenceAction {
    let back_out = match role {
        FenceRole::Member => FenceAction::Abort,
        FenceRole::Newcomer => FenceAction::Retire,
    };
    match (kind, at) {
        (ChangeKind::Resize, FencePoint::Admitted(FenceAdmission::Dead)) => {
            if m.recover_before_fence_acks {
                // Mutated: bug #6 — straight out of the fence, no hold.
                back_out
            } else {
                FenceAction::HoldForAcks
            }
        }
        (ChangeKind::Resize, FencePoint::Admitted(FenceAdmission::Deaths)) => back_out,
        (_, FencePoint::Admitted(_)) => FenceAction::Rehome,
        (_, FencePoint::Counted { certified: true }) => FenceAction::Commit,
        (_, FencePoint::Held | FencePoint::Counted { certified: false }) => back_out,
    }
}

// ---------------------------------------------------------------------
// Wire control lines: one renderer/parser pair per direction
// ---------------------------------------------------------------------

/// Human-readable status token used on the control wire.
#[must_use]
pub fn status_name(s: RankStatus) -> &'static str {
    match s {
        RankStatus::Healthy => "healthy",
        RankStatus::Suspected => "suspected",
        RankStatus::Failed => "failed",
        RankStatus::Rebuilding => "rebuilding",
        RankStatus::Parked => "parked",
    }
}

/// Inverse of [`status_name`]; unknown tokens read as healthy (the
/// conservative default for a line the hub never sends).
#[must_use]
pub fn parse_status(s: &str) -> RankStatus {
    match s {
        "suspected" => RankStatus::Suspected,
        "failed" => RankStatus::Failed,
        "rebuilding" => RankStatus::Rebuilding,
        "parked" => RankStatus::Parked,
        _ => RankStatus::Healthy,
    }
}

fn parse_arg(v: Option<&str>) -> Option<u64> {
    v.and_then(|s| s.parse().ok())
}

/// Hub → child control line. The hub renders these; the child's
/// control loop parses them — one definition, zero format drift.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlLine {
    /// Reply to `BEAT`: the beating rank's own status.
    BeatAck(RankStatus),
    /// Reply to `AWAITFAILED`: last epoch the dead incarnation finished.
    FailedEpoch(u64),
    /// A broadcast state change every child mirrors.
    Event(ControlEvent),
    /// The world is over; fail every blocked wait.
    Poison,
}

impl ControlLine {
    /// Render the wire form (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            ControlLine::BeatAck(status) => format!("BEATACK {}", status_name(*status)),
            ControlLine::FailedEpoch(epoch) => format!("FAILEDEPOCH {epoch}"),
            ControlLine::Event(ev) => match ev.wire() {
                (keyword, rank, Some(epoch)) => format!("{keyword} {rank} {epoch}"),
                (keyword, rank, None) => format!("{keyword} {rank}"),
            },
            ControlLine::Poison => "POISON".to_string(),
        }
    }

    /// Parse one line off the control stream; `None` for anything
    /// unrecognized (ignored, per the line protocol's forward-compat
    /// rule).
    #[must_use]
    pub fn parse(line: &str) -> Option<ControlLine> {
        let mut it = line.split_whitespace();
        let keyword = it.next()?;
        let mut arg = || parse_arg(it.next());
        let event = match keyword {
            "BEATACK" => return Some(ControlLine::BeatAck(parse_status(it.next().unwrap_or("")))),
            "FAILEDEPOCH" => return Some(ControlLine::FailedEpoch(arg().unwrap_or(0))),
            "POISON" => return Some(ControlLine::Poison),
            "EPOCH" => ControlEvent::Epoch { rank: arg()? as usize, epoch: arg()? },
            "DECLARED" => ControlEvent::Declared { rank: arg()? as usize, failed_epoch: arg()? },
            "REBUILDING" => ControlEvent::Rebuilding { rank: arg()? as usize },
            "RECOVERED" => ControlEvent::Recovered { rank: arg()? as usize, epoch: arg()? },
            "PARKED" => ControlEvent::Parked { rank: arg()? as usize },
            "ACTIVATED" => ControlEvent::Activated { rank: arg()? as usize, epoch: arg()? },
            _ => return None,
        };
        Some(ControlLine::Event(event))
    }
}

/// Child → hub control line (everything after the `HELLO` handshake).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientLine {
    /// `BEAT e`: about to enter epoch `e` (the detector heartbeat).
    Beat { epoch: u64 },
    /// Idle keep-alive proving the process is scheduled.
    Tick,
    /// A replacement asks for its predecessor's last epoch.
    AwaitFailed,
    /// Recovery collectives finished; rejoin at `epoch`.
    Recovered { epoch: u64 },
    /// The child panicked; poison the world.
    Poisoned,
    /// Clean shutdown.
    Goodbye,
    /// `RETIRE`: this rank is deliberately leaving the active world
    /// (elastic shrink). The hub must *park* it — never declare it
    /// failed — and keep its process alive for a later grow.
    Retire,
    /// `ACTIVATE r e`: admit parked rank `r` to the active world at
    /// epoch `e` (sent by the rank driving an elastic grow).
    Activate { rank: usize, epoch: u64 },
}

impl ClientLine {
    /// Render the wire form (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            ClientLine::Beat { epoch } => format!("BEAT {epoch}"),
            ClientLine::Tick => "TICK".to_string(),
            ClientLine::AwaitFailed => "AWAITFAILED".to_string(),
            ClientLine::Recovered { epoch } => format!("RECOVERED {epoch}"),
            ClientLine::Poisoned => "POISONED".to_string(),
            ClientLine::Goodbye => "GOODBYE".to_string(),
            ClientLine::Retire => "RETIRE".to_string(),
            ClientLine::Activate { rank, epoch } => format!("ACTIVATE {rank} {epoch}"),
        }
    }

    /// Parse one line off a child's control stream.
    #[must_use]
    pub fn parse(line: &str) -> Option<ClientLine> {
        let mut it = line.split_whitespace();
        match it.next()? {
            "BEAT" => Some(ClientLine::Beat {
                epoch: parse_arg(it.next()).unwrap_or(0),
            }),
            "TICK" => Some(ClientLine::Tick),
            "AWAITFAILED" => Some(ClientLine::AwaitFailed),
            "RECOVERED" => Some(ClientLine::Recovered {
                epoch: parse_arg(it.next()).unwrap_or(0),
            }),
            "POISONED" => Some(ClientLine::Poisoned),
            "GOODBYE" => Some(ClientLine::Goodbye),
            "RETIRE" => Some(ClientLine::Retire),
            "ACTIVATE" => {
                let (rank, epoch) = (parse_arg(it.next())?, parse_arg(it.next())?);
                Some(ClientLine::Activate {
                    rank: rank as usize,
                    epoch,
                })
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Lock-acquisition scripts: the shapes the lock-order model checks
// ---------------------------------------------------------------------

/// The nested lock-acquisition sequences the transport's threads
/// actually perform, as data. The lock-order model in
/// `tests/protocol_models.rs` interleaves these scripts exhaustively
/// and proves the rank discipline admits no deadlock — and that the
/// [`Mutations::diagnose_under_mailbox`] inversion reintroduces one.
///
/// Keep these in sync with the implementations they describe (each
/// function names its subject); the runtime rank checker in
/// [`crate::sync`] enforces the same order on the real code paths, so
/// a drift here fails the model while the real path still panics.
pub mod locks {
    use super::Mutations;
    use crate::sync::LockRank;

    /// One step of a lock script.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum LockOp {
        Acquire(LockRank),
        Release(LockRank),
    }

    use LockOp::{Acquire, Release};

    /// `SocketTransport::register_link`, inner part: purges the mailbox
    /// while holding the link lock, then installs the link's reader
    /// beside the mirror (`Link → Mail → Mirror`). The whole function is
    /// [`register_link_drain`].
    #[must_use]
    pub fn register_link() -> Vec<LockOp> {
        vec![
            Acquire(LockRank::Link),
            Acquire(LockRank::Mail),
            Acquire(LockRank::Mirror),
            Release(LockRank::Mirror),
            Release(LockRank::Mail),
            Release(LockRank::Link),
        ]
    }

    /// `SocketTransport::recv` hitting its deadline: snapshot under
    /// the mailbox, release it, *then* diagnose under the link lock.
    /// The mutation performs the diagnosis while still holding the
    /// mailbox — the historical inversion.
    #[must_use]
    pub fn recv_timeout_diagnosis(m: &Mutations) -> Vec<LockOp> {
        if m.diagnose_under_mailbox {
            vec![
                Acquire(LockRank::Mail),
                Acquire(LockRank::Link),
                Release(LockRank::Link),
                Release(LockRank::Mail),
            ]
        } else {
            vec![
                Acquire(LockRank::Mail),
                Release(LockRank::Mail),
                Acquire(LockRank::Link),
                Release(LockRank::Link),
            ]
        }
    }

    /// `SocketTransport::recv`'s precedence check: consults the mirror
    /// while holding the mailbox (`Mail → Mirror`).
    #[must_use]
    pub fn recv_precedence() -> Vec<LockOp> {
        vec![
            Acquire(LockRank::Mail),
            Acquire(LockRank::Mirror),
            Release(LockRank::Mirror),
            Release(LockRank::Mail),
        ]
    }

    /// `SocketTransport::apply_control_event` on a `DECLARED`: mirror
    /// update and the dead link's read-half shutdown, then (sequentially
    /// — never nested) the condemnation lift under the mailbox lock. A
    /// link reader's exit (clear its mirror slot, then wake receivers
    /// under the mailbox lock) has the same shape.
    #[must_use]
    pub fn control_declared() -> Vec<LockOp> {
        vec![
            Acquire(LockRank::Mirror),
            Release(LockRank::Mirror),
            Acquire(LockRank::Mail),
            Release(LockRank::Mail),
        ]
    }

    /// `SocketTransport::condemn`: link down, then the mailbox flag —
    /// sequential, in rank order anyway.
    #[must_use]
    pub fn condemn() -> Vec<LockOp> {
        vec![
            Acquire(LockRank::Link),
            Release(LockRank::Link),
            Acquire(LockRank::Mail),
            Release(LockRank::Mail),
        ]
    }

    /// `SocketTransport::hub_rpc`: sends on the control writer while
    /// holding the RPC slot (`ControlRpc → ControlWriter`).
    #[must_use]
    pub fn hub_rpc() -> Vec<LockOp> {
        vec![
            Acquire(LockRank::ControlRpc),
            Acquire(LockRank::ControlWriter),
            Release(LockRank::ControlWriter),
            Release(LockRank::ControlRpc),
        ]
    }

    /// `hub::HubState::welcome_block`: one rank's `PEER` and `STATE`
    /// lines under `HubClients → Health`.
    #[must_use]
    pub fn hub_welcome_block() -> Vec<LockOp> {
        vec![
            Acquire(LockRank::HubClients),
            Acquire(LockRank::Health),
            Release(LockRank::Health),
            Release(LockRank::HubClients),
        ]
    }

    /// `Transport::send` over a live link (`write_frame`): the writer
    /// lock spans the stream write; `Link` is taken under it twice —
    /// to stamp the sequence number, then to commit or requeue — and is
    /// *not* held in between, where the blocking `write` happens.
    #[must_use]
    pub fn send_frame() -> Vec<LockOp> {
        vec![
            Acquire(LockRank::LinkWriter),
            Acquire(LockRank::Link),
            Release(LockRank::Link),
            Acquire(LockRank::Link),
            Release(LockRank::Link),
            Release(LockRank::LinkWriter),
        ]
    }

    /// `SocketTransport::register_link` in full: the writer lock spans
    /// the `Link → Mail` purge ([`register_link`]) and the drain of one
    /// backlog frame (the tail of [`send_frame`]).
    #[must_use]
    pub fn register_link_drain() -> Vec<LockOp> {
        let mut ops = vec![Acquire(LockRank::LinkWriter)];
        ops.extend(register_link());
        ops.extend(&send_frame()[1..]);
        ops
    }

    /// Every script that contends for one peer link. The reader thread's
    /// accepted frame (`Link`, then `Mail`, sequential) has the shape of
    /// [`condemn`]; it never appears holding `LinkWriter`.
    #[must_use]
    pub fn link_threads() -> Vec<(&'static str, Vec<LockOp>)> {
        vec![
            ("send_frame", send_frame()),
            ("register_link_drain", register_link_drain()),
            ("reader_frame", condemn()),
            ("recv_timeout", recv_timeout_diagnosis(&Mutations::NONE)),
        ]
    }

    /// The concurrent transport-side scripts the lock-order model
    /// interleaves (named for counterexample readability).
    #[must_use]
    pub fn transport_threads(m: &Mutations) -> Vec<(&'static str, Vec<LockOp>)> {
        vec![
            ("register_link", register_link()),
            ("recv_timeout", recv_timeout_diagnosis(m)),
            ("recv_precedence", recv_precedence()),
            ("control_declared", control_declared()),
        ]
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn reconnect_keeps_seqs_replacement_resets() {
        let mut s = LinkSession::default();
        s.commit_send();
        s.commit_send();
        assert_eq!(
            s.accept_frame(3, 3, 0),
            FrameVerdict::Accept,
            "first inbound frame"
        );
        let plan = s.register(0, &Mutations::NONE); // same incarnation
        assert!(!plan.replacement);
        assert_eq!((s.send_seq, s.recv_seq), (2, 1), "seqs survive reconnect");
        let plan = s.register(1, &Mutations::NONE); // replacement
        assert!(plan.replacement);
        assert_eq!((s.send_seq, s.recv_seq), (0, 0), "replacement resets");
    }

    #[test]
    fn mutated_register_resets_on_reconnect() {
        let mut s = LinkSession::default();
        s.commit_send();
        let m = Mutations {
            reset_seq_on_reconnect: true,
            ..Mutations::NONE
        };
        let plan = s.register(0, &m);
        assert!(!plan.replacement);
        assert_eq!(s.send_seq, 0, "bug #2: reconnect wiped the counter");
    }

    #[test]
    fn seq_gap_condemns_with_stable_message() {
        let mut s = LinkSession::default();
        assert_eq!(s.accept_frame(2, 2, 0), FrameVerdict::Accept);
        let v = s.accept_frame(2, 2, 2);
        let FrameVerdict::Condemn(reason) = v else {
            panic!("gap must condemn")
        };
        assert_eq!(
            reason.to_string(),
            "torn frame stream: expected seq #1, got #2"
        );
    }

    #[test]
    fn declared_outranks_condemnation() {
        let v = recv_gate(
            false,
            false,
            false,
            RankStatus::Failed,
            7,
            true,
            &Mutations::NONE,
        );
        assert_eq!(v, RecvVerdict::RankFailed { epoch: 7 });
        let m = Mutations {
            corrupt_outranks_declared: true,
            ..Mutations::NONE
        };
        assert_eq!(
            recv_gate(false, false, false, RankStatus::Failed, 7, true, &m),
            RecvVerdict::Corrupt,
            "bug #1 reverses the precedence"
        );
    }

    #[test]
    fn queued_data_beats_every_error() {
        for status in [RankStatus::Failed, RankStatus::Healthy] {
            let v = recv_gate(true, true, false, status, 0, true, &Mutations::NONE);
            assert_eq!(v, RecvVerdict::Deliver);
        }
    }

    #[test]
    fn declaration_lifts_condemnation() {
        let mut view = [PeerView::INITIAL; 3];
        let fx = apply_control(
            &mut view,
            ControlEvent::Declared {
                rank: 1,
                failed_epoch: 4,
            },
            &Mutations::NONE,
        );
        assert_eq!(fx, MirrorEffect::LiftCondemnation { rank: 1 });
        assert_eq!(view[1].status, RankStatus::Failed);
        assert_eq!(dead_set(&view), vec![(1, 4)]);
    }

    #[test]
    fn control_lines_round_trip() {
        let lines = [
            ControlLine::BeatAck(RankStatus::Suspected),
            ControlLine::FailedEpoch(9),
            ControlLine::Event(ControlEvent::Epoch { rank: 2, epoch: 5 }),
            ControlLine::Event(ControlEvent::Declared {
                rank: 1,
                failed_epoch: 3,
            }),
            ControlLine::Event(ControlEvent::Rebuilding { rank: 1 }),
            ControlLine::Event(ControlEvent::Recovered { rank: 1, epoch: 6 }),
            ControlLine::Event(ControlEvent::Parked { rank: 4 }),
            ControlLine::Event(ControlEvent::Activated { rank: 4, epoch: 8 }),
            ControlLine::BeatAck(RankStatus::Parked),
            ControlLine::Poison,
        ];
        for line in lines {
            assert_eq!(ControlLine::parse(&line.render()), Some(line));
        }
    }

    #[test]
    fn client_lines_round_trip() {
        let lines = [
            ClientLine::Beat { epoch: 11 },
            ClientLine::Tick,
            ClientLine::AwaitFailed,
            ClientLine::Recovered { epoch: 12 },
            ClientLine::Poisoned,
            ClientLine::Goodbye,
            ClientLine::Retire,
            ClientLine::Activate { rank: 5, epoch: 3 },
        ];
        for line in lines {
            assert_eq!(ClientLine::parse(&line.render()), Some(line));
        }
    }

    #[test]
    fn retire_is_never_confused_with_failure() {
        let mut view = [PeerView::INITIAL; 3];
        view[2].epoch = 6;
        apply_control(&mut view, ControlEvent::Parked { rank: 2 }, &Mutations::NONE);
        assert_eq!(view[2].status, RankStatus::Parked);
        assert!(dead_set(&view).is_empty(), "retired is not dead");
        // Nobody waits on a parked rank at an epoch barrier, and it is
        // not reported as a casualty either.
        let mut active = [PeerView::INITIAL; 3];
        active[0].epoch = 9;
        active[1].epoch = 9;
        apply_control(&mut active, ControlEvent::Parked { rank: 2 }, &Mutations::NONE);
        assert_eq!(Gate::Epoch(9).poll(&active, 0).map(|r| r.failed), Ok(vec![]));
        // The mutated protocol (bug #4) turns the retire into a death:
        // the model run's counterexample.
        let m = Mutations {
            retire_marks_failed: true,
            ..Mutations::NONE
        };
        let mut bad = [PeerView::INITIAL; 3];
        bad[2].epoch = 6;
        apply_control(&mut bad, ControlEvent::Parked { rank: 2 }, &m);
        assert_eq!(bad[2].status, RankStatus::Failed);
        assert_eq!(dead_set(&bad), vec![(2, 6)], "bug #4: retiree in the dead set");
    }

    #[test]
    fn activation_admits_only_parked_ranks() {
        let mut view = [PeerView::INITIAL; 2];
        apply_control(&mut view, ControlEvent::Parked { rank: 1 }, &Mutations::NONE);
        assert_eq!(Gate::Activation.poll(&view, 1).map(|r| r.epoch), Err(1), "parked: keep waiting");
        apply_control(
            &mut view,
            ControlEvent::Activated { rank: 1, epoch: 4 },
            &Mutations::NONE,
        );
        assert_eq!(view[1].status, RankStatus::Healthy);
        assert_eq!(Gate::Activation.poll(&view, 1).map(|r| r.epoch), Ok(4));
        // Activation must not resurrect a failed rank.
        apply_control(
            &mut view,
            ControlEvent::Declared {
                rank: 1,
                failed_epoch: 4,
            },
            &Mutations::NONE,
        );
        apply_control(
            &mut view,
            ControlEvent::Activated { rank: 1, epoch: 9 },
            &Mutations::NONE,
        );
        assert_eq!(view[1].status, RankStatus::Failed, "ACTIVATED cannot heal a death");
    }

    #[test]
    fn beat_gate_fences_declared_and_parked() {
        let mut p = PeerView::INITIAL;
        let epoch = Some(ControlEvent::Epoch { rank: 1, epoch: 5 });
        assert_eq!(beat_gate(&p, 1, 5), (RankStatus::Healthy, epoch));
        p.status = RankStatus::Suspected;
        assert_eq!(beat_gate(&p, 1, 5), (RankStatus::Healthy, epoch), "a beat clears suspicion");
        for fenced in [RankStatus::Failed, RankStatus::Rebuilding, RankStatus::Parked] {
            p.status = fenced;
            assert_eq!(beat_gate(&p, 1, 5), (fenced, None), "{fenced:?} beat must not advance the world");
        }
    }

    #[test]
    fn scan_step_walks_healthy_suspected_failed() {
        let cfg = HeartbeatConfig {
            suspect_scans: 2,
            confirm_scans: 2,
            ..HeartbeatConfig::default()
        };
        let mut p = PeerView::INITIAL;
        let mut stale = 0;
        // At the frontier: silence is not suspicious.
        assert!(!scan_step(&mut p, &mut stale, false, 0, &cfg, &Mutations::NONE));
        assert_eq!((p.status, stale), (RankStatus::Healthy, 0));
        // Behind it: two silent scans suspect, two more declare.
        assert!(!scan_step(&mut p, &mut stale, false, 1, &cfg, &Mutations::NONE));
        assert!(!scan_step(&mut p, &mut stale, false, 1, &cfg, &Mutations::NONE));
        assert_eq!(p.status, RankStatus::Suspected);
        assert!(!scan_step(&mut p, &mut stale, false, 1, &cfg, &Mutations::NONE));
        assert!(scan_step(&mut p, &mut stale, false, 1, &cfg, &Mutations::NONE));
        // Any traffic clears the suspicion instead.
        assert!(!scan_step(&mut p, &mut stale, true, 1, &cfg, &Mutations::NONE));
        assert_eq!((p.status, stale), (RankStatus::Healthy, 0));
    }

    #[test]
    fn epoch_gate_mirrors_sync_loop() {
        let mut view = vec![PeerView::INITIAL; 3];
        view[0].epoch = 2;
        assert_eq!(Gate::Epoch(2).poll(&view, 0).map(|r| r.failed), Err(1));
        view[1].status = RankStatus::Failed;
        view[1].failed_epoch = 1;
        view[2].epoch = 2;
        assert_eq!(Gate::Epoch(2).poll(&view, 0).map(|r| r.failed), Ok(vec![(1, 1)]));
    }
}
