//! Threads-as-ranks mini-MPI.
//!
//! The paper runs HACC with up to 1,572,864 MPI ranks on the BG/Q. No such
//! machine (nor mature Rust MPI bindings) is available here, so this crate
//! provides the substrate the rest of the reproduction runs on: a set of
//! *simulated ranks*, one OS thread each, exchanging typed messages through
//! shared in-process mailboxes.
//!
//! The API deliberately mirrors the small subset of MPI that HACC needs —
//! point-to-point send/recv, barrier, broadcast, (all)reduce, (all)gather,
//! `alltoallv`, and communicator `split` (used by the pencil FFT for its row
//! and column transposes). Every byte sent is accounted per rank so the
//! machine model (crates/machine) can translate measured traffic into
//! paper-scale network estimates.
//!
//! # Reliable transport and fault injection
//!
//! Every point-to-point message carries a per-`(context, src, tag)` sequence
//! number. The receiving mailbox delivers payloads strictly in sequence
//! order, buffering early arrivals and discarding retransmissions, so the
//! user-visible semantics are exactly the buffered-ordered channel the rest
//! of the code assumes — even when a [`FaultPlan`] injects duplicated or
//! delayed messages underneath. A *dropped* message leaves a permanent gap
//! in the sequence space; a receiver blocked on it fails with a diagnostic
//! [`CommError::Timeout`] naming the expected `(context, src, tag)` (via
//! [`Comm::recv_timeout`] or the machine-wide watchdog) instead of hanging.
//!
//! Messages are buffered: `send` never blocks, `recv` blocks until a
//! matching `(context, source, tag)` message arrives. Matching is exact
//! (no wildcards), which keeps the semantics deterministic.

pub mod fault;
pub mod health;
#[cfg(not(loom))]
pub mod hub;
pub mod protocol;
#[cfg(not(loom))]
pub mod socket;
pub mod stats;
pub mod sync;
pub mod topology;
pub mod transport;
pub mod wire;

pub use fault::{FaultAction, FaultPlan, FaultStats, SlowRank};
pub use health::{EpochReport, HealthState, HeartbeatConfig, RankStatus};
pub use stats::{ClassVolume, TagClassVolumes, TrafficStats, WireStats};
pub use topology::dims_create;
pub use transport::{Transport, WirePayload};
pub use wire::WireMsg;

use crate::protocol::{ControlEvent, FenceAdmission, Gate, PeerView};
use crate::sync::{Arc, AtomicBool, AtomicU64, Condvar, Instant, LockRank, Mutex, Ordering};
use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

/// Mailbox key: (communicator context, global source rank, user tag).
type Key = (u64, usize, u64);

/// A payload in flight. `None` marks an injected retransmission ghost:
/// it carries the duplicate's sequence number (so the receiver's dedup
/// path is exercised) without requiring `T: Clone`.
type Payload = Option<Box<dyn Any + Send>>;

/// Errors surfaced by the communication layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived in time. Names the exact mailbox slot
    /// being waited on so a lost message is diagnosable, not a hang.
    Timeout {
        /// Communicator context id.
        context: u64,
        /// Source rank (communicator-local).
        src: usize,
        /// User tag.
        tag: u64,
        /// How long the receiver waited.
        waited: Duration,
        /// Transport-level detail (sequence gap, buffered count).
        detail: String,
    },
    /// Another rank panicked while this one was blocked.
    Poisoned,
    /// The awaited source rank was declared dead by the heartbeat
    /// monitor: its traffic will never arrive. Unlike [`Self::Poisoned`]
    /// this is survivable — the caller can run the recovery protocol.
    RankFailed {
        /// Global rank declared failed.
        rank: usize,
        /// Last epoch it completed before dying.
        epoch: u64,
    },
    /// The link carrying traffic from `rank` delivered a frame that
    /// failed its structural or CRC checks. The link is condemned —
    /// nothing after the torn frame can be trusted — so the receiver
    /// learns loudly instead of consuming garbage. Only byte-oriented
    /// backends produce this; the in-process backend degrades detected
    /// corruption to a sequence gap ([`Self::Timeout`]) instead.
    CorruptDetected {
        /// Global rank whose link produced the bad frame.
        rank: usize,
        /// What exactly failed (magic, CRC, sequence, length).
        detail: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout {
                context,
                src,
                tag,
                waited,
                detail,
            } => write!(
                f,
                "comm timeout after {waited:?}: no message for \
                 (context={context}, src={src}, tag={tag}); {detail}"
            ),
            CommError::Poisoned => write!(f, "machine poisoned: another rank panicked"),
            CommError::RankFailed { rank, epoch } => write!(
                f,
                "rank {rank} declared failed (last completed epoch {epoch}); \
                 its traffic will never arrive"
            ),
            CommError::CorruptDetected { rank, detail } => write!(
                f,
                "link from rank {rank} condemned after a corrupt frame: {detail}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Error from a whole-machine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A rank's closure panicked (including injected kills and watchdog
    /// timeouts); the machine was shut down.
    RankPanicked {
        /// Global rank that failed first.
        rank: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} failed: {message}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// The simulated on-the-wire image of one message: the frame header
/// words `(context, src, tag, seq, payload bytes)` protected by a
/// CRC-32. Payloads are typed in-process values (never byte-viewed —
/// that would be UB for padded generic `T`), so the CRC covers the
/// header frame; [`FaultPlan::corrupt_prob`] flips a bit of this image
/// in flight and the receiving transport must detect and discard it.
#[derive(Debug, Clone, Copy)]
struct Wire {
    words: [u64; 5],
    crc: u32,
}

impl Wire {
    fn new(context: u64, src: u64, tag: u64, seq: u64, bytes: u64) -> Self {
        let words = [context, src, tag, seq, bytes];
        Wire {
            words,
            crc: crc32_words(&words),
        }
    }

    /// Does the frame checksum?
    fn valid(&self) -> bool {
        crc32_words(&self.words) == self.crc
    }

    /// Flip one bit of the 352-bit transmitted image (header words then
    /// CRC), as a cosmic ray / link error would.
    fn flip_bit(mut self, bit: u64) -> Self {
        let b = (bit % 352) as usize;
        if b < 320 {
            self.words[b / 64] ^= 1u64 << (b % 64);
        } else {
            self.crc ^= 1u32 << (b - 320);
        }
        self
    }
}

/// [`wire::crc32`] over the 40 little-endian bytes of the header words.
fn crc32_words(words: &[u64; 5]) -> u32 {
    let mut bytes = [0u8; 40];
    for (chunk, w) in bytes.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    wire::crc32(&bytes)
}

/// Transport-level state of one rank's incoming mailbox.
#[derive(Default)]
struct MailState {
    /// In-order payloads, ready for `recv`.
    ready: HashMap<Key, VecDeque<Box<dyn Any + Send>>>,
    /// Early arrivals parked until the sequence gap closes.
    reorder: HashMap<Key, BTreeMap<u64, Payload>>,
    /// Next sequence number a sender will stamp on this key (senders
    /// update it while holding this mailbox's lock).
    send_seq: HashMap<Key, u64>,
    /// Next sequence number the receiver will release for this key.
    recv_seq: HashMap<Key, u64>,
    /// Frames rejected by the CRC check, per key (for diagnosis).
    crc_rejected: HashMap<Key, u64>,
}

impl MailState {
    /// Transport delivery: validate the wire frame, then release
    /// in-sequence payloads, buffer early ones, discard retransmissions.
    /// Returns whether anything became ready.
    fn deliver(
        &mut self,
        ctrs: &FaultCounters,
        key: Key,
        seq: u64,
        wire: &Wire,
        payload: Payload,
    ) -> bool {
        if !wire.valid() {
            // CRC mismatch: the frame is discarded at the receiver. Its
            // sequence number was consumed by the sender, so the stream
            // has a diagnosable gap — detected corruption degrades to
            // exactly the injected-drop failure mode, never torn data.
            ctrs.corrupt_detected.fetch_add(1, Ordering::Relaxed);
            *self.crc_rejected.entry(key).or_insert(0) += 1;
            return false;
        }
        let expected = *self.recv_seq.entry(key).or_insert(0);
        if seq < expected {
            ctrs.dup_discarded.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if seq > expected {
            ctrs.reordered.fetch_add(1, Ordering::Relaxed);
            // First arrival wins: a ghost must never displace a buffered
            // real payload with the same sequence number.
            self.reorder
                .entry(key)
                .or_default()
                .entry(seq)
                .or_insert(payload);
            return false;
        }
        let mut next = expected + 1;
        let mut any_ready = false;
        if let Some(p) = payload {
            self.ready.entry(key).or_default().push_back(p);
            any_ready = true;
        }
        if let Some(parked) = self.reorder.get_mut(&key) {
            while let Some(slot) = parked.remove(&next) {
                if let Some(p) = slot {
                    self.ready.entry(key).or_default().push_back(p);
                    any_ready = true;
                }
                next += 1;
            }
        }
        self.recv_seq.insert(key, next);
        any_ready
    }

    /// Human-readable transport diagnosis for a timed-out key.
    fn diagnose(&self, key: &Key) -> String {
        let expected = self.recv_seq.get(key).copied().unwrap_or(0);
        let parked = self.reorder.get(key).map(BTreeMap::len).unwrap_or(0);
        let rejected = self.crc_rejected.get(key).copied().unwrap_or(0);
        let mut msg = if parked > 0 {
            format!(
                "transport gap: waiting for seq #{expected}, {parked} later \
                 message(s) buffered behind it (a message was lost)"
            )
        } else {
            format!("no traffic pending (waiting for seq #{expected})")
        };
        if rejected > 0 {
            msg.push_str(&format!(
                "; {rejected} frame(s) on this slot failed CRC and were discarded \
                 (payload corrupted in flight)"
            ));
        }
        msg
    }
}

/// One rank's incoming mailbox.
struct Mailbox {
    state: Mutex<MailState>,
    signal: Condvar,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox {
            state: Mutex::new(LockRank::ChannelMail, MailState::default()),
            signal: Condvar::new(),
        }
    }
}

/// Fault-event counters (machine-wide).
///
/// Ordering audit (see DESIGN.md §"Concurrency model & unsafety
/// inventory"): every counter is an independent monotonic event tally —
/// no other data is published under it — so the increments use
/// `Relaxed`, which guarantees atomicity (no lost counts) but no
/// cross-thread ordering. Authoritative reads happen in
/// [`Machine::try_run`] *after* `std::thread::scope` joins every rank,
/// and thread join establishes the happens-before edge that makes the
/// totals exact. Mid-run reads ([`Comm::traffic_stats`]) are documented
/// as approximate for the same reason.
#[derive(Default)]
struct FaultCounters {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    dup_discarded: AtomicU64,
    reordered: AtomicU64,
    corrupted: AtomicU64,
    corrupt_detected: AtomicU64,
}

impl FaultCounters {
    fn snapshot(&self) -> FaultStats {
        // Relaxed: see the struct-level ordering audit. Exact after
        // join; approximate (never torn, possibly stale) mid-run.
        FaultStats {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            dup_discarded: self.dup_discarded.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            corrupt_detected: self.corrupt_detected.load(Ordering::Relaxed),
        }
    }
}

/// A message held back by delay injection, waiting to be flushed after
/// later traffic.
struct Held {
    dst: usize,
    key: Key,
    seq: u64,
    wire: Wire,
    payload: Box<dyn Any + Send>,
}

/// State shared by every rank of a [`Machine`].
struct Shared {
    boxes: Vec<Mailbox>,
    bytes_sent: Vec<AtomicU64>,
    msgs_sent: Vec<AtomicU64>,
    /// Machine-wide per-tag-class volume tallies.
    class: ClassCounters,
    /// Set when any rank panics so ranks blocked in `recv` abort instead
    /// of waiting forever on messages that will never come.
    poisoned: AtomicBool,
    /// Fault-injection plan (inactive by default).
    plan: FaultPlan,
    /// Machine-wide recv watchdog: plain `recv` fails diagnostically
    /// after this long instead of blocking forever.
    watchdog: Option<Duration>,
    counters: FaultCounters,
    /// Per-global-rank delayed messages awaiting out-of-order delivery.
    holdback: Vec<Mutex<Vec<Held>>>,
    /// Failure detector (inert unless [`Machine::with_heartbeat`]).
    health: HealthState,
    /// Counter rank 0 draws fresh split/duplicate context bases from.
    next_context: AtomicU64,
}

impl Shared {
    /// Deliver every message the injector held back for `rank`. Called
    /// after newer traffic was enqueued (creating the reordering the
    /// injection wants), before the rank blocks, and when it finishes.
    fn flush_holdback(&self, rank: usize) {
        let held = std::mem::take(&mut *self.holdback[rank].lock(LockRank::Holdback));
        for m in held {
            let mbox = &self.boxes[m.dst];
            let mut st = mbox.state.lock(LockRank::ChannelMail);
            st.deliver(&self.counters, m.key, m.seq, &m.wire, Some(m.payload));
            drop(st);
            mbox.signal.notify_all();
        }
    }

    /// Wake every blocked receiver (taking each mailbox lock first so
    /// the wakeup cannot be lost) without poisoning. The heartbeat
    /// monitor uses this after declaring a rank failed so receivers
    /// blocked on the dead source re-check and fail with
    /// [`CommError::RankFailed`] instead of hanging.
    fn wake_all(&self) {
        for mbox in self.boxes.iter() {
            let _guard = mbox.state.lock(LockRank::ChannelMail);
            mbox.signal.notify_all();
        }
    }

    /// Poison the machine and wake every blocked receiver so it aborts
    /// with [`CommError::Poisoned`] instead of waiting forever.
    ///
    /// Ordering audit: the store is `SeqCst` and receivers re-check the
    /// flag with a `SeqCst` load *while holding their mailbox lock*
    /// before every wait; because this path also takes each mailbox
    /// lock before notifying, a receiver either sees the flag on its
    /// pre-wait check or is woken by the notify — there is no window
    /// for a lost wakeup. The loom model
    /// `poison_always_wakes_blocked_recv` proves this exhaustively.
    /// Detector waiters ([`Transport::wait`]) use the same
    /// flag-under-lock pattern against the health condvar.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.wake_all();
        self.health.wake();
    }
}

/// The in-process backend: typed mailboxes, injectable faults, the
/// loom-verified reference implementation of the transport contract.
impl Transport for Shared {
    fn is_wire(&self) -> bool {
        false
    }

    fn watchdog(&self) -> Option<Duration> {
        self.watchdog
    }

    fn send(
        &self,
        src: usize,
        dst: usize,
        context: u64,
        tag: u64,
        payload: WirePayload,
        bytes: u64,
    ) {
        let data: Box<dyn Any + Send> = match payload {
            WirePayload::Boxed(b) => b,
            WirePayload::Bytes { .. } => unreachable!("in-process transport is typed"),
        };
        // Relaxed: monotonic accounting counters, no data published
        // under them; read exactly after join (FaultCounters audit).
        self.bytes_sent[src].fetch_add(bytes, Ordering::Relaxed);
        self.msgs_sent[src].fetch_add(1, Ordering::Relaxed);
        self.class.count(tag, bytes);
        // Every send doubles as a heartbeat (no-op without a monitor).
        self.health.tick(src);
        let plan = &self.plan;
        if let Some(slow) = plan.slow() {
            if slow.rank == src {
                std::thread::sleep(slow.per_send);
            }
        }
        let key = (context, src, tag);
        let mbox = &self.boxes[dst];
        let mut st = mbox.state.lock(LockRank::ChannelMail);
        let seq = {
            let s = st.send_seq.entry(key).or_insert(0);
            let seq = *s;
            *s += 1;
            seq
        };
        let action = if plan.is_active() {
            plan.action(context, src, dst, tag, seq)
        } else {
            FaultAction::None
        };
        let wire = Wire::new(context, src as u64, tag, seq, bytes);
        let ctrs = &self.counters;
        match action {
            FaultAction::None => {
                st.deliver(ctrs, key, seq, &wire, Some(data));
                drop(st);
                mbox.signal.notify_all();
            }
            FaultAction::Drop => {
                // The sequence number is consumed: the receiver sees a
                // permanent gap and its watchdog names this message.
                ctrs.dropped.fetch_add(1, Ordering::Relaxed);
                // Release before the holdback flush below — this arm
                // otherwise keeps the guard lexically alive across it,
                // nesting ChannelMail → Holdback against the rank order.
                drop(st);
            }
            FaultAction::Duplicate => {
                ctrs.duplicated.fetch_add(1, Ordering::Relaxed);
                // Retransmission re-sends the payload bytes.
                self.bytes_sent[src].fetch_add(bytes, Ordering::Relaxed);
                self.msgs_sent[src].fetch_add(1, Ordering::Relaxed);
                self.class.count(tag, bytes);
                st.deliver(ctrs, key, seq, &wire, Some(data));
                // The ghost carries only the duplicate sequence number;
                // the receiver's dedup discards it by seq alone.
                st.deliver(ctrs, key, seq, &wire, None);
                drop(st);
                mbox.signal.notify_all();
            }
            FaultAction::Delay => {
                ctrs.delayed.fetch_add(1, Ordering::Relaxed);
                drop(st);
                self.holdback[src].lock(LockRank::Holdback).push(Held {
                    dst,
                    key,
                    seq,
                    wire,
                    payload: data,
                });
                return; // flushed after later traffic
            }
            FaultAction::Corrupt => {
                ctrs.corrupted.fetch_add(1, Ordering::Relaxed);
                // Flip one bit of the transmitted image; the receiving
                // transport's CRC check rejects the frame (counted as
                // `corrupt_detected` in `deliver`).
                let bit = plan.corrupt_bit(context, src, dst, tag, seq);
                let torn = wire.flip_bit(bit);
                st.deliver(ctrs, key, seq, &torn, Some(data));
                drop(st);
                mbox.signal.notify_all();
            }
        }
        // Any message held back earlier is now "later" than the traffic
        // just enqueued — deliver it out of order.
        self.flush_holdback(src);
    }

    fn recv(
        &self,
        me: usize,
        src: usize,
        context: u64,
        tag: u64,
        timeout: Option<Duration>,
    ) -> Result<WirePayload, CommError> {
        let mbox = &self.boxes[me];
        let key = (context, src, tag);
        let start = Instant::now();
        let deadline = timeout.map(|t| start + t);
        let mut st = mbox.state.lock(LockRank::ChannelMail);
        loop {
            // The verdict order (queued → poisoned → source declared
            // failed → wait) is `protocol::recv_gate`'s, shared with the
            // socket backend; there is no link here to condemn.
            let queued = st.ready.get_mut(&key).filter(|q| !q.is_empty());
            // With a heartbeat monitor attached, a wait on a source that
            // stands declared `Failed` can never be satisfied. (The
            // monitor wakes every mailbox after a declaration, so a
            // blocked receiver reaches this check. Health state is a
            // leaf lock — safe to take under the mailbox lock, and not
            // taken at all when a payload is queued or no monitor runs.)
            let source = if queued.is_some() || src == me {
                protocol::PeerView::INITIAL
            } else {
                self.health.view(src)
            };
            let verdict = protocol::recv_gate(
                queued.is_some(),
                // SeqCst, checked while holding the mailbox lock: pairs
                // with `Shared::poison`, which stores SeqCst and then
                // takes this lock before notifying — so either this
                // check sees the flag or the upcoming wait is woken by
                // the notify (no lost-wakeup window; model-checked in
                // tests/loom.rs).
                self.poisoned.load(Ordering::SeqCst),
                src == me,
                source.status,
                source.failed_epoch,
                false,
                &protocol::Mutations::NONE,
            );
            match verdict {
                protocol::RecvVerdict::Deliver => {
                    let boxed = queued
                        .and_then(VecDeque::pop_front)
                        .expect("gate saw a queued payload");
                    return Ok(WirePayload::Boxed(boxed));
                }
                protocol::RecvVerdict::Poisoned => return Err(CommError::Poisoned),
                protocol::RecvVerdict::RankFailed { epoch } => {
                    return Err(CommError::RankFailed { rank: src, epoch });
                }
                protocol::RecvVerdict::Corrupt => {
                    unreachable!("the in-process backend never condemns a source")
                }
                protocol::RecvVerdict::Wait => match deadline {
                    None => mbox.signal.wait(&mut st),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            let detail = st.diagnose(&key);
                            return Err(CommError::Timeout {
                                context,
                                src,
                                tag,
                                waited: now - start,
                                detail,
                            });
                        }
                        let _ = mbox.signal.wait_for(&mut st, d - now);
                    }
                },
            }
        }
    }

    fn flush_holdback(&self, me: usize) {
        Shared::flush_holdback(self, me);
    }

    fn shutdown(&self, me: usize) {
        // Nothing to close in-process; just release anything the fault
        // injector held back so peers are not starved.
        Shared::flush_holdback(self, me);
    }

    fn alloc_context_base(&self) -> u64 {
        // Relaxed: only uniqueness matters (the RMW is atomic); the
        // value is distributed to the other ranks by a broadcast above
        // this seam, whose mailbox locks provide the ordering.
        self.next_context.fetch_add(1, Ordering::Relaxed)
    }

    fn poison(&self) {
        Shared::poison(self);
    }

    fn traffic_stats(&self) -> TrafficStats {
        TrafficStats {
            bytes_sent: self
                .bytes_sent
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            msgs_sent: self
                .msgs_sent
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            by_class: self.class.snapshot(),
            faults: self.counters.snapshot(),
            wire: WireStats::default(),
        }
    }

    fn beat(&self, me: usize, epoch: u64) -> RankStatus {
        if self.plan.should_kill(me, epoch) {
            // Silent death: no beat, no panic — detection is the
            // monitor's job, exactly as with a real dead node.
            return RankStatus::Failed;
        }
        self.health.beat(me, epoch).0
    }

    fn wait(&self, me: usize, gate: Gate<'_>) -> Result<EpochReport, CommError> {
        self.health.wait(me, gate, &self.poisoned)
    }

    fn apply(&self, _me: usize, ev: ControlEvent) {
        self.health.apply(ev);
    }

    fn view(&self) -> Vec<PeerView> {
        self.health.views()
    }
}

/// A virtual parallel machine: `n` ranks running as threads in this process.
pub struct Machine {
    ranks: usize,
    plan: FaultPlan,
    watchdog: Option<Duration>,
    heartbeat: Option<HeartbeatConfig>,
    active: Option<usize>,
}

impl Machine {
    /// Create a machine with `ranks` simulated ranks.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        Machine {
            ranks,
            plan: FaultPlan::none(),
            watchdog: None,
            heartbeat: None,
            active: None,
        }
    }

    /// Allocate the machine at full capacity but admit only the first
    /// `active` ranks to the initial world: the rest start `Parked`
    /// (elastic reserve, blocked in a [`Gate::Activation`] wait) until a
    /// grow activates them. Pre-parking happens before any rank thread
    /// runs, so a reserve rank can never be suspected by the monitor
    /// between startup and its own `retire` call. Requires
    /// [`Machine::with_heartbeat`].
    #[must_use]
    pub fn with_active(mut self, active: usize) -> Self {
        assert!(
            active >= 1 && active <= self.ranks,
            "active world must be within [1, {}]",
            self.ranks
        );
        self.active = Some(active);
        self
    }

    /// Inject faults according to `plan` (see [`FaultPlan`]).
    #[must_use] 
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Fail any `recv` that waits longer than `timeout` with a diagnostic
    /// [`CommError::Timeout`] panic (which poisons the machine) instead of
    /// blocking forever. Essential when drops are injected.
    #[must_use]
    pub fn with_watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = Some(timeout);
        self
    }

    /// Attach a heartbeat failure detector: [`Machine::try_run`] spawns
    /// a monitor thread that scans every `cfg.scan_interval` and
    /// declares silent, epoch-behind ranks `Failed` (see
    /// [`health`]). Step-structured drivers then use
    /// [`Comm::admit_step`] / [`Comm::rejoin_as_replacement`] to turn a
    /// killed rank into an online recovery instead of a poisoned run.
    #[must_use]
    pub fn with_heartbeat(mut self, cfg: HeartbeatConfig) -> Self {
        self.heartbeat = Some(cfg);
        self
    }

    /// Run `f` on every rank concurrently; returns the per-rank results in
    /// rank order together with the traffic statistics of the run.
    ///
    /// Panics if any rank panics (with the `rank thread panicked:` prefix);
    /// use [`Machine::try_run`] to handle failures as values.
    pub fn run<T, F>(&self, f: F) -> (Vec<T>, TrafficStats)
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        match self.try_run(f) {
            Ok(out) => out,
            Err(MachineError::RankPanicked { message, .. }) => {
                panic!("rank thread panicked: {message}")
            }
        }
    }

    /// Run `f` on every rank concurrently, reporting a rank failure as an
    /// error instead of panicking — the entry point recovery drivers use.
    pub fn try_run<T, F>(&self, f: F) -> Result<(Vec<T>, TrafficStats), MachineError>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        let shared = self.make_shared();
        let first_failure: Mutex<Option<(usize, String)>> =
            Mutex::new(LockRank::FirstFailure, None);
        // Rank threads count themselves out so the heartbeat monitor
        // (which must not keep `thread::scope` alive forever) knows when
        // to exit. SeqCst: gates the monitor's shutdown control flow.
        let finished = Arc::new(AtomicU64::new(0));
        let mut results: Vec<Option<T>> = (0..self.ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            if self.heartbeat.is_some() {
                let shared = Arc::clone(&shared);
                let finished = Arc::clone(&finished);
                let ranks = self.ranks as u64;
                scope.spawn(move || {
                    let interval = shared.health.scan_interval();
                    while finished.load(Ordering::SeqCst) < ranks {
                        std::thread::sleep(interval);
                        if !shared.health.scan().is_empty() {
                            // A rank was just declared failed: wake every
                            // blocked receiver so waits on the dead source
                            // re-check and surface `RankFailed`.
                            shared.wake_all();
                        }
                    }
                });
            }
            for (rank, slot) in results.iter_mut().enumerate() {
                let shared = Arc::clone(&shared);
                let f = &f;
                let first_failure = &first_failure;
                let finished = Arc::clone(&finished);
                let ranks = self.ranks;
                scope.spawn(move || {
                    let shared_outer = Arc::clone(&shared);
                    let comm = Comm {
                        backend: Backend::InProc(shared),
                        context: 0,
                        rank,
                        group: (0..ranks).collect::<Vec<_>>().into(),
                    };
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
                    match result {
                        Ok(v) => {
                            // Drain any delay-injected messages this rank
                            // still holds so peers are not starved.
                            shared_outer.flush_holdback(rank);
                            *slot = Some(v);
                        }
                        Err(payload) => {
                            // `&*payload`: deref past the Box so downcasts
                            // see the payload, not the Box (which is itself
                            // `Any` and would shadow it via unsize coercion).
                            first_failure
                                .lock(LockRank::FirstFailure)
                                .get_or_insert_with(|| (rank, panic_message(&*payload)));
                            // Wake every blocked receiver so the machine
                            // shuts down instead of deadlocking.
                            shared_outer.poison();
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        if let Some((rank, message)) = first_failure.into_inner() {
            return Err(MachineError::RankPanicked { rank, message });
        }
        // Relaxed loads are exact here: `thread::scope` joined every
        // rank above, and join is a happens-before edge covering all of
        // their Relaxed increments (see the FaultCounters audit note).
        let stats = Transport::traffic_stats(&*shared);
        Ok((
            results
                .into_iter()
                .map(|r| r.expect("rank produced result"))
                .collect(),
            stats,
        ))
    }

    /// Number of ranks.
    #[must_use] 
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    fn make_shared(&self) -> Arc<Shared> {
        if self.active.is_some() {
            assert!(
                self.heartbeat.is_some(),
                "Machine::with_active requires with_heartbeat (parking lives in the detector)"
            );
        }
        let shared = Arc::new(Shared {
            boxes: (0..self.ranks).map(|_| Mailbox::default()).collect(),
            bytes_sent: (0..self.ranks).map(|_| AtomicU64::new(0)).collect(),
            msgs_sent: (0..self.ranks).map(|_| AtomicU64::new(0)).collect(),
            class: ClassCounters::default(),
            poisoned: AtomicBool::new(false),
            plan: self.plan.clone(),
            watchdog: self.watchdog,
            counters: FaultCounters::default(),
            holdback: (0..self.ranks)
                .map(|_| Mutex::new(LockRank::Holdback, Vec::new()))
                .collect(),
            health: HealthState::new(self.ranks, self.heartbeat),
            next_context: AtomicU64::new(1),
        });
        if let Some(active) = self.active {
            for rank in active..self.ranks {
                shared.health.apply(ControlEvent::Parked { rank, step: 0 });
            }
        }
        shared
    }

    /// Build the machine's shared state and one communicator handle per
    /// rank **without** spawning rank threads.
    ///
    /// This is the seam external drivers use to schedule ranks
    /// themselves — most importantly the loom model suite
    /// (`tests/loom.rs`), which hands each [`Comm`] to a model-checked
    /// thread and exhaustively explores the interleavings of the
    /// mailbox and collective protocols. Unlike [`Machine::run`], no
    /// watchdog thread, panic capture, or poisoning is installed; the
    /// caller owns rank lifecycles.
    #[must_use]
    pub fn handles(&self) -> Vec<Comm> {
        let shared = self.make_shared();
        (0..self.ranks)
            .map(|rank| Comm {
                backend: Backend::InProc(Arc::clone(&shared)),
                context: 0,
                rank,
                group: (0..self.ranks).collect::<Vec<_>>().into(),
            })
            .collect()
    }
}

/// The process-wide one-rank world: the serial engine and the serial
/// spectral solvers run on it. Its collectives and its pencil
/// transforms (both transposes elided) send no message, so any number
/// of users on any threads can share it without their traffic crossing.
#[cfg(not(loom))]
pub fn one_rank() -> &'static Comm {
    static WORLD: std::sync::OnceLock<Comm> = std::sync::OnceLock::new();
    WORLD.get_or_init(|| Machine::new(1).handles().pop().expect("one rank, one handle"))
}

/// Stringify a panic payload for diagnostics.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .or_else(|| {
            payload
                .downcast_ref::<CommError>()
                .map(|e| e.to_string())
        })
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// The transport behind a [`Comm`]. A closed enum rather than a bare
/// `Arc<dyn Transport>` so cloning communicators stays loom-compatible
/// (the loom `Arc` shim and unsized trait objects do not mix) and the
/// in-process fast path keeps static dispatch available.
enum Backend {
    /// Threads-as-ranks typed mailboxes (the default; loom-verified).
    InProc(Arc<Shared>),
    /// One OS process per rank over CRC-framed loopback TCP.
    #[cfg(not(loom))]
    Socket(std::sync::Arc<socket::SocketTransport>),
}

impl Backend {
    fn t(&self) -> &dyn Transport {
        match self {
            Backend::InProc(s) => &**s,
            #[cfg(not(loom))]
            Backend::Socket(s) => &**s,
        }
    }
}

impl Clone for Backend {
    fn clone(&self) -> Self {
        match self {
            Backend::InProc(s) => Backend::InProc(Arc::clone(s)),
            #[cfg(not(loom))]
            Backend::Socket(s) => Backend::Socket(std::sync::Arc::clone(s)),
        }
    }
}

/// A communicator handle owned by one rank.
///
/// Each rank's collectives must be called by all ranks of the communicator
/// in the same order (as with MPI).
pub struct Comm {
    backend: Backend,
    /// Communicator context id — isolates traffic of split communicators.
    context: u64,
    /// This rank's index *within this communicator*.
    rank: usize,
    /// Map from communicator rank to global rank.
    group: Arc<[usize]>,
}

impl Comm {
    /// The transport this communicator runs over.
    fn t(&self) -> &dyn Transport {
        self.backend.t()
    }

    /// World communicator over a connected socket transport: the
    /// multi-process counterpart of the `Comm` each rank thread gets
    /// from [`Machine::run`]. Context 0, identity rank mapping.
    #[cfg(not(loom))]
    #[must_use]
    pub fn over_socket(transport: std::sync::Arc<socket::SocketTransport>) -> Comm {
        let rank = transport.self_rank();
        let n = transport.ranks();
        Comm {
            backend: Backend::Socket(transport),
            context: 0,
            rank,
            group: (0..n).collect::<Vec<_>>().into(),
        }
    }

    /// This rank's index in the communicator.
    #[must_use] 
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[must_use] 
    pub fn size(&self) -> usize {
        self.group.len()
    }

    fn global(&self, rank: usize) -> usize {
        self.group[rank]
    }

    /// Step admission — the fence of the step protocol — for drivers on
    /// machines with a heartbeat monitor. Call collectively (on the
    /// world communicator, or a prefix of it) at the top of step `step`:
    ///
    /// - A rank the fault plan kills here does **not** beat the epoch —
    ///   it goes silent and reads [`FenceAdmission::Dead`] (the monitor
    ///   will detect the silence and declare it). A rank whose late
    ///   heartbeat finds itself already declared `Failed` is fenced and
    ///   reads `Dead` too. Either way the rank must drop its state and
    ///   call [`Comm::rejoin_as_replacement`].
    /// - Every other rank beats epoch `step`, then blocks until all
    ///   ranks have either reached the epoch or been declared dead:
    ///   [`FenceAdmission::Proceed`], or [`FenceAdmission::Deaths`] with
    ///   the dead set every survivor agreed on.
    #[must_use]
    pub fn admit_step(&self, step: u64) -> (FenceAdmission, Vec<(usize, u64)>) {
        let me = self.global(self.rank);
        match self.t().beat(me, step) {
            RankStatus::Failed | RankStatus::Rebuilding => (FenceAdmission::Dead, Vec::new()),
            // A parked rank admitting a step is a driver bug: parked
            // ranks wait for activation until a grow readmits them, and
            // a shrink only parks a rank *after* its last fenced step.
            // Fail loudly rather than wedge the epoch.
            RankStatus::Parked => panic!("parked rank {me} must wait for activation, not admit_step"),
            RankStatus::Healthy | RankStatus::Suspected => {
                let report = self.wait(Gate::Epoch(step));
                if report.failed.is_empty() {
                    return (FenceAdmission::Proceed, Vec::new());
                }
                // Agreement over the survivors: every one contributes its
                // failed-set view and asserts all views are identical, on
                // a shrunken communicator whose context every member
                // derives *deterministically* from `(parent context,
                // epoch, failed set)` — no collective with the dead ranks
                // is needed to construct it (cf. ULFM's `MPI_Comm_shrink`
                // + `MPI_Comm_agree`).
                let mut h = fault::mix64(self.context ^ 0x5ec0_17ab_1e5d_a157);
                for &(r, e) in &report.failed {
                    h = fault::mix64(fault::mix64(h ^ r as u64) ^ e);
                }
                h = fault::mix64(h ^ report.epoch);
                let survivors: Vec<usize> = (0..self.size())
                    .filter(|r| !report.failed.iter().any(|&(fr, _)| fr == *r))
                    .collect();
                let sub = self.subset(&survivors, h);
                let mine: Vec<u64> = std::iter::once(report.epoch)
                    .chain(report.failed.iter().flat_map(|&(r, e)| [r as u64, e]))
                    .collect();
                for (peer, view) in sub.allgather(mine.clone()).iter().enumerate() {
                    assert_eq!(
                        view, &mine,
                        "failure-agreement divergence between survivor {peer} and rank {}",
                        sub.rank()
                    );
                }
                (FenceAdmission::Deaths, report.failed)
            }
        }
    }

    /// A dead rank's re-entry point: block until the monitor declares
    /// this rank's death, acknowledge it (`Failed → Rebuilding`) and
    /// return the last epoch it completed. The caller then takes part in
    /// the recovery collectives as a blank replacement and rejoins the
    /// healthy population with a `Recovered` event.
    #[must_use]
    pub fn rejoin_as_replacement(&self) -> u64 {
        self.wait(Gate::OwnDeath).epoch
    }

    /// Block until `gate` passes for this rank (ranks inside the gate
    /// are global). Failures panic, as a plain `recv` does — except the
    /// detector's sync timeout on [`Gate::Activation`]: a parked rank may
    /// legitimately wait out a whole run, so only poison breaks it.
    #[must_use]
    pub fn wait(&self, gate: Gate<'_>) -> EpochReport {
        let me = self.global(self.rank);
        loop {
            match self.t().wait(me, gate) {
                Ok(report) => return report,
                Err(CommError::Timeout { .. }) if gate == Gate::Activation => {}
                Err(e) => panic!("{e}"),
            }
        }
    }

    /// Request one membership change (ranks inside `ev` are global): this
    /// rank's own `Recovered` once rebuilt, its `Parked` when it retires
    /// from the active world (elastic shrink — an administrative act,
    /// never a failure declaration; `protocol.rs` bug #4 proves the two
    /// cannot be confused), or the `Activated` of a parked rank (elastic
    /// grow; a no-op on a rank that is not parked, so it cannot resurrect
    /// a failed one).
    pub fn apply(&self, ev: ControlEvent) {
        self.t().apply(self.global(self.rank), ev);
    }

    /// Every rank's membership record, indexed by global rank
    /// ([`PeerView::INITIAL`] on machines without a monitor).
    #[must_use]
    pub fn view(&self) -> Vec<PeerView> {
        self.t().view()
    }

    /// Sub-communicator over the active prefix `[0, active)` of this
    /// communicator, with a context every member derives
    /// *deterministically* from `(parent context, active, generation)` —
    /// no collective involving parked ranks is needed to construct it
    /// (the same trick as `admit_step`'s survivor agreement).
    /// `generation` is the scale-generation counter, bumped on every
    /// committed resize, so traffic from a rolled-back world can never
    /// alias the one that replaced it. The caller must have rank
    /// `< active`.
    #[must_use]
    pub fn active_world(&self, active: usize, generation: u64) -> Comm {
        assert!(
            active <= self.size(),
            "active_world: {active} exceeds capacity {}",
            self.size()
        );
        assert!(
            self.rank < active,
            "active_world: caller rank {} is outside the active prefix {active}",
            self.rank
        );
        let mut h = fault::mix64(self.context ^ 0xe1a5_71c0_5ca1_e000);
        h = fault::mix64(h ^ active as u64);
        h = fault::mix64(h ^ generation);
        let members: Vec<usize> = (0..active).collect();
        self.subset(&members, h)
    }

    /// A sub-communicator over `members` (communicator-local ranks, in
    /// order) with an explicitly chosen context. The caller must be a
    /// member and every member must derive the same `context`.
    fn subset(&self, members: &[usize], context: u64) -> Comm {
        let group: Vec<usize> = members.iter().map(|&r| self.global(r)).collect();
        let me = self.global(self.rank);
        let new_rank = group
            .iter()
            .position(|&g| g == me)
            .expect("subset: caller must be a member");
        Comm {
            backend: self.backend.clone(),
            context,
            rank: new_rank,
            group: group.into(),
        }
    }

    /// Send `data` to communicator rank `dst` with `tag`. Buffered —
    /// returns immediately.
    pub fn send<T: WireMsg>(&self, dst: usize, tag: u64, data: Vec<T>) {
        let me = self.global(self.rank);
        let dst_global = self.global(dst);
        let bytes = (T::WIRE_SIZE * data.len()) as u64;
        let t = self.t();
        let payload = if t.is_wire() {
            WirePayload::Bytes {
                type_hash: wire::type_hash::<T>(),
                data: wire::encode_vec(&data),
            }
        } else {
            WirePayload::Boxed(Box::new(data))
        };
        t.send(me, dst_global, self.context, tag, payload, bytes);
    }

    /// Receive a message previously sent by communicator rank `src` with
    /// `tag`. Blocks until available — or, when the machine has a
    /// watchdog, panics with a diagnostic [`CommError::Timeout`] after the
    /// watchdog duration. Panics if the payload type differs from what was
    /// sent (a programming error, as in MPI).
    #[must_use]
    pub fn recv<T: WireMsg>(&self, src: usize, tag: u64) -> Vec<T> {
        self.recv_result(src, tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Comm::recv`] with failures as values: blocks until a matching
    /// message arrives, returning [`CommError::Poisoned`] if the
    /// machine is poisoned while blocked (or [`CommError::Timeout`]
    /// when the machine has a watchdog). External drivers and the loom
    /// model suite use this to assert on shutdown behavior without
    /// routing through panics.
    pub fn recv_result<T: WireMsg>(&self, src: usize, tag: u64) -> Result<Vec<T>, CommError> {
        self.recv_impl(src, tag, self.t().watchdog())
    }

    /// Receive with an explicit deadline: a lost or missing message
    /// surfaces as [`CommError::Timeout`] naming the awaited
    /// `(context, src, tag)` instead of blocking forever.
    pub fn recv_timeout<T: WireMsg>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        self.recv_impl(src, tag, Some(timeout))
    }

    fn recv_impl<T: WireMsg>(
        &self,
        src: usize,
        tag: u64,
        timeout: Option<Duration>,
    ) -> Result<Vec<T>, CommError> {
        let me = self.global(self.rank);
        let t = self.t();
        // A message this rank delayed may be the very one a peer needs
        // before it can send us anything — flush before blocking.
        t.flush_holdback(me);
        let src_global = self.global(src);
        match t.recv(me, src_global, self.context, tag, timeout) {
            Ok(WirePayload::Boxed(boxed)) => Ok(*boxed
                .downcast::<Vec<T>>()
                .expect("recv: payload type mismatch")),
            Ok(WirePayload::Bytes { type_hash, data }) => {
                assert_eq!(
                    type_hash,
                    wire::type_hash::<T>(),
                    "recv: payload type mismatch"
                );
                Ok(wire::decode_vec(&data))
            }
            // The backend reports the global source rank; the public API
            // names ranks communicator-locally.
            Err(CommError::Timeout {
                context,
                tag,
                waited,
                detail,
                ..
            }) => Err(CommError::Timeout {
                context,
                src,
                tag,
                waited,
                detail,
            }),
            Err(e) => Err(e),
        }
    }

    /// Exchange with a partner: send then receive (safe because sends are
    /// buffered).
    #[must_use]
    pub fn sendrecv<T: WireMsg>(&self, peer: usize, tag: u64, data: Vec<T>) -> Vec<T> {
        self.send(peer, tag, data);
        self.recv(peer, tag)
    }

    /// Dissemination barrier (log₂ P rounds of token exchange).
    pub fn barrier(&self) {
        let p = self.size();
        let mut step = 1usize;
        let mut round = 0u64;
        while step < p {
            let dst = (self.rank + step) % p;
            let src = (self.rank + p - step) % p;
            self.send::<u8>(dst, TAG_BARRIER + round, Vec::new());
            let _ = self.recv::<u8>(src, TAG_BARRIER + round);
            step <<= 1;
            round += 1;
        }
    }

    /// Broadcast from `root` to every rank via a binomial tree; returns the
    /// data on all ranks. Non-root ranks pass `None`.
    #[must_use] 
    pub fn broadcast<T: WireMsg + Clone>(
        &self,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        let p = self.size();
        let rel = (self.rank + p - root) % p;
        let buf = if rel == 0 {
            data.expect("broadcast: root must supply data")
        } else {
            // The sender is rel with its highest set bit cleared.
            let hsb = usize::BITS - 1 - rel.leading_zeros();
            let src_rel = rel & !(1usize << hsb);
            let src = (src_rel + root) % p;
            self.recv::<T>(src, TAG_BCAST)
        };
        // Forward to children: rel + bit for bits above rel's highest bit.
        let start_bit = if rel == 0 {
            0
        } else {
            (usize::BITS - rel.leading_zeros()) as usize
        };
        let mut bit = 1usize << start_bit;
        while rel + bit < p {
            let dst = (rel + bit + root) % p;
            self.send(dst, TAG_BCAST, buf.clone());
            bit <<= 1;
        }
        buf
    }

    /// Reduce element-wise with `op` to `root`; non-roots get `None`.
    pub fn reduce<T, F>(&self, root: usize, mut data: Vec<T>, op: F) -> Option<Vec<T>>
    where
        T: WireMsg + Clone,
        F: Fn(&T, &T) -> T,
    {
        let p = self.size();
        let rel = (self.rank + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let dst_rel = rel & !mask;
                let dst = (dst_rel + root) % p;
                self.send(dst, TAG_REDUCE, data);
                return None;
            }
            let src_rel = rel | mask;
            if src_rel < p {
                let src = (src_rel + root) % p;
                let other = self.recv::<T>(src, TAG_REDUCE);
                assert_eq!(other.len(), data.len(), "reduce: length mismatch");
                for (a, b) in data.iter_mut().zip(other.iter()) {
                    *a = op(a, b);
                }
            }
            mask <<= 1;
        }
        Some(data)
    }

    /// Allreduce: reduce to rank 0 then broadcast.
    pub fn allreduce<T, F>(&self, data: Vec<T>, op: F) -> Vec<T>
    where
        T: WireMsg + Clone,
        F: Fn(&T, &T) -> T,
    {
        let reduced = self.reduce(0, data, op);
        self.broadcast(0, reduced)
    }

    /// Allreduce a single f64 sum. On one rank it is `x`, with no
    /// message and no allocation.
    #[must_use] 
    pub fn allreduce_sum(&self, x: f64) -> f64 {
        if self.size() == 1 {
            return x;
        }
        self.allreduce(vec![x], |a, b| a + b)[0]
    }

    /// Allreduce a single f64 max. On one rank it is `x`, with no
    /// message and no allocation.
    #[must_use] 
    pub fn allreduce_max(&self, x: f64) -> f64 {
        if self.size() == 1 {
            return x;
        }
        self.allreduce(vec![x], |a, b| a.max(*b))[0]
    }

    /// Gather variable-length contributions to `root` (rank order);
    /// non-roots get `None`.
    #[must_use] 
    pub fn gather<T: WireMsg + Clone>(
        &self,
        root: usize,
        data: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        if self.rank != root {
            self.send(root, TAG_GATHER, data);
            return None;
        }
        let mut out = Vec::with_capacity(self.size());
        for r in 0..self.size() {
            if r == root {
                out.push(data.clone());
            } else {
                out.push(self.recv::<T>(r, TAG_GATHER));
            }
        }
        Some(out)
    }

    /// Allgather: every rank receives every rank's contribution (rank order).
    #[must_use] 
    pub fn allgather<T: WireMsg + Clone>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        // Ring allgather: p-1 shifts.
        let p = self.size();
        let mut out: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        out[self.rank] = Some(data.clone());
        let mut cur = data;
        for step in 0..p.saturating_sub(1) {
            let dst = (self.rank + 1) % p;
            let src = (self.rank + p - 1) % p;
            self.send(dst, TAG_AGATHER + step as u64, cur);
            cur = self.recv::<T>(src, TAG_AGATHER + step as u64);
            let origin = (self.rank + p - 1 - step) % p;
            out[origin] = Some(cur.clone());
        }
        out.into_iter().map(|v| v.expect("allgather slot")).collect()
    }

    /// Personalized all-to-all: `sends[r]` goes to rank `r`; returns the
    /// vector received from each rank (in rank order).
    #[must_use]
    pub fn alltoallv<T: WireMsg>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.try_alltoallv(sends).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Comm::alltoallv`] with failures as values: an exchange whose
    /// peer dies mid-collective returns [`CommError::RankFailed`] (or a
    /// timeout / corruption error) instead of unwinding, so the
    /// recovery driver can abandon the step and run reconstruction.
    pub fn try_alltoallv<T: WireMsg>(&self, mut sends: Vec<Vec<T>>) -> Result<Vec<Vec<T>>, CommError> {
        let p = self.size();
        assert_eq!(sends.len(), p, "alltoallv: need one send buffer per rank");
        let mut recvs: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        recvs[self.rank] = Some(std::mem::take(&mut sends[self.rank]));
        // Rotated pairwise schedule — each step pairs disjoint rank pairs,
        // which avoids the communication hot spots the paper warns about in
        // the pencil-FFT transposes.
        for step in 1..p {
            let dst = (self.rank + step) % p;
            let src = (self.rank + p - step) % p;
            self.send(dst, TAG_A2A + step as u64, std::mem::take(&mut sends[dst]));
            recvs[src] = Some(self.recv_result::<T>(src, TAG_A2A + step as u64)?);
        }
        Ok(recvs
            .into_iter()
            .map(|r| r.expect("alltoallv slot"))
            .collect())
    }

    /// Split into sub-communicators by `color`; ranks with equal color form
    /// one communicator, ordered by `key` (ties broken by parent rank).
    /// Must be called collectively.
    #[must_use] 
    pub fn split(&self, color: u64, key: u64) -> Comm {
        let info = self.allgather(vec![(color, key, self.rank)]);
        let mut mine: Vec<(u64, usize)> = info
            .iter()
            .map(|v| v[0])
            .filter(|&(c, _, _)| c == color)
            .map(|(_, k, r)| (k, r))
            .collect();
        mine.sort_unstable();
        let group: Vec<usize> = mine.iter().map(|&(_, r)| self.global(r)).collect();
        let new_rank = group
            .iter()
            .position(|&g| g == self.global(self.rank))
            .expect("split: own rank in group");
        let base = self.bump_context_base();
        Comm {
            backend: self.backend.clone(),
            context: base.wrapping_mul(1_000_003).wrapping_add(color + 1),
            rank: new_rank,
            group: group.into(),
        }
    }

    /// All ranks of this communicator agree on a fresh context base.
    fn bump_context_base(&self) -> u64 {
        // Only rank 0's allocation is used; the broadcast distributes it
        // (and provides the ordering) to every other member.
        let base = if self.rank == 0 {
            Some(vec![self.t().alloc_context_base()])
        } else {
            None
        };
        self.broadcast(0, base)[0]
    }

    /// Poison the whole machine: every rank blocked in a receive wakes
    /// with [`CommError::Poisoned`] instead of waiting forever. This is
    /// the same path [`Machine::try_run`] takes when a rank panics,
    /// exposed for external drivers (and the loom model suite) that
    /// manage rank lifecycles themselves via [`Machine::handles`].
    pub fn poison(&self) {
        self.t().poison();
    }

    /// Gracefully shut this rank's transport down: drain in-flight
    /// sends and close links so peers observe clean EOFs. Call after
    /// the last collective (typically behind a final barrier). No-op
    /// beyond holdback flushing for the in-process backend.
    pub fn shutdown(&self) {
        let me = self.global(self.rank);
        self.t().shutdown(me);
    }

    /// Snapshot of the machine-wide traffic and fault counters.
    ///
    /// Exact once every rank has finished (or been joined); *while
    /// ranks are still sending* the counts may lag in-flight increments
    /// (they are Relaxed monotonic counters — never torn, possibly
    /// stale; see the `FaultCounters` ordering audit).
    #[must_use]
    pub fn traffic_stats(&self) -> TrafficStats {
        self.t().traffic_stats()
    }

    /// Duplicate this communicator with a fresh context (no cross-talk with
    /// the original).
    #[must_use]
    pub fn duplicate(&self) -> Comm {
        let base = self.bump_context_base();
        Comm {
            backend: self.backend.clone(),
            context: base.wrapping_mul(999_983).wrapping_add(7),
            rank: self.rank,
            group: Arc::clone(&self.group),
        }
    }
}

const TAG_BARRIER: u64 = u64::MAX - 1_000_000;
const TAG_BCAST: u64 = u64::MAX - 2_000_000;
const TAG_REDUCE: u64 = u64::MAX - 3_000_000;
const TAG_GATHER: u64 = u64::MAX - 4_000_000;
const TAG_AGATHER: u64 = u64::MAX - 5_000_000;
const TAG_A2A: u64 = u64::MAX - 6_000_000;

/// Coarse class of a message tag, for communication-volume accounting.
///
/// The reserved tag bands above carve the tag space into three regimes:
/// everything below `TAG_A2A` is a user-issued point-to-point tag,
/// the `[TAG_A2A, TAG_AGATHER)` window carries alltoallv payloads, and
/// the remaining reserved bands are control-plane collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagClass {
    /// User point-to-point traffic (halo exchanges, particle refresh).
    P2p = 0,
    /// Alltoallv payload traffic (the FFT transposes live here).
    A2a = 1,
    /// Control collectives: barrier, bcast, reduce, gather, allgather.
    Control = 2,
}

/// Classify a wire tag into its [`TagClass`] band.
#[must_use]
pub fn tag_class(tag: u64) -> TagClass {
    if tag < TAG_A2A {
        TagClass::P2p
    } else if tag < TAG_AGATHER {
        TagClass::A2a
    } else {
        TagClass::Control
    }
}

/// Atomic per-class byte/message tallies, shared by both transport
/// backends. Indexed by `TagClass as usize`.
#[derive(Default)]
pub(crate) struct ClassCounters {
    bytes: [AtomicU64; 3],
    msgs: [AtomicU64; 3],
}

impl ClassCounters {
    /// Charge one sent message to its tag's class.
    // Relaxed: monotonic accounting counters, read exactly after join
    // (same audit as the per-rank byte counters).
    pub(crate) fn count(&self, tag: u64, bytes: u64) {
        let i = tag_class(tag) as usize;
        self.bytes[i].fetch_add(bytes, Ordering::Relaxed);
        self.msgs[i].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> TagClassVolumes {
        let v = |i: usize| ClassVolume {
            bytes: self.bytes[i].load(Ordering::Relaxed),
            msgs: self.msgs[i].load(Ordering::Relaxed),
        };
        TagClassVolumes {
            p2p: v(TagClass::P2p as usize),
            a2a: v(TagClass::A2a as usize),
            control: v(TagClass::Control as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_machine_runs() {
        let (res, _) = Machine::new(1).run(|c| {
            c.barrier();
            c.rank()
        });
        assert_eq!(res, vec![0]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let (res, stats) = Machine::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                0.0
            } else {
                c.recv::<f64>(0, 7).iter().sum()
            }
        });
        assert_eq!(res[1], 6.0);
        assert_eq!(stats.bytes_sent[0], 24);
    }

    #[test]
    fn traffic_is_classified_by_tag() {
        let (_, stats) = Machine::new(2).run(|c| {
            // One p2p message of 24 payload bytes rank 0 → 1.
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0f64, 2.0, 3.0]);
            } else {
                let _ = c.recv::<f64>(0, 7);
            }
            // One alltoallv (16 bytes per off-diagonal send), then a
            // pure control-plane collective.
            let parts: Vec<Vec<f64>> = (0..2).map(|r| vec![f64::from(r), 1.0]).collect();
            let _ = c.alltoallv(parts);
            let _ = c.allreduce_sum(1.0f64);
            c.barrier();
        });
        let by = stats.by_class;
        assert_eq!(by.p2p.bytes, 24);
        assert_eq!(by.p2p.msgs, 1);
        // Each rank ships one 2-element f64 chunk to the other.
        assert_eq!(by.a2a.bytes, 32);
        assert_eq!(by.a2a.msgs, 2);
        assert!(by.control.msgs > 0);
        // The class split partitions the totals exactly.
        assert_eq!(
            by.p2p.bytes + by.a2a.bytes + by.control.bytes,
            stats.total_bytes()
        );
        assert_eq!(
            by.p2p.msgs + by.a2a.msgs + by.control.msgs,
            stats.total_msgs()
        );
        assert_eq!(tag_class(0), TagClass::P2p);
        assert_eq!(tag_class(TAG_A2A - 1), TagClass::P2p);
        assert_eq!(tag_class(TAG_A2A), TagClass::A2a);
        assert_eq!(tag_class(TAG_AGATHER), TagClass::Control);
        assert_eq!(tag_class(TAG_BARRIER), TagClass::Control);
    }

    #[test]
    fn messages_with_same_tag_preserve_order() {
        let (res, _) = Machine::new(2).run(|c| {
            if c.rank() == 0 {
                for i in 0..10 {
                    c.send(1, 3, vec![i64::from(i)]);
                }
                vec![]
            } else {
                (0..10).map(|_| c.recv::<i64>(0, 3)[0]).collect()
            }
        });
        assert_eq!(res[1], (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn barrier_many_ranks() {
        for p in [2, 3, 5, 8] {
            let (res, _) = Machine::new(p).run(|c| {
                for _ in 0..5 {
                    c.barrier();
                }
                c.rank()
            });
            assert_eq!(res.len(), p);
        }
    }

    #[test]
    fn broadcast_all_roots_all_sizes() {
        for p in [1, 2, 3, 4, 7, 8] {
            for root in 0..p {
                let (res, _) = Machine::new(p).run(|c| {
                    let data = if c.rank() == root {
                        Some(vec![42u32, root as u32])
                    } else {
                        None
                    };
                    c.broadcast(root, data)
                });
                for r in res {
                    assert_eq!(r, vec![42, root as u32]);
                }
            }
        }
    }

    #[test]
    fn reduce_sum_various_sizes() {
        for p in [1, 2, 3, 6, 8] {
            let (res, _) =
                Machine::new(p).run(|c| c.reduce(0, vec![c.rank() as u64, 1], |a, b| a + b));
            let expect: u64 = (0..p as u64).sum();
            assert_eq!(res[0], Some(vec![expect, p as u64]));
            for r in &res[1..] {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn reduce_nonzero_root() {
        let (res, _) = Machine::new(5).run(|c| c.reduce(3, vec![1.0f64], |a, b| a + b));
        assert_eq!(res[3], Some(vec![5.0]));
        assert!(res[0].is_none());
    }

    #[test]
    fn allreduce_max_and_sum() {
        let (res, _) = Machine::new(5).run(|c| {
            let s = c.allreduce_sum(c.rank() as f64);
            let m = c.allreduce_max(c.rank() as f64);
            (s, m)
        });
        for (s, m) in res {
            assert_eq!(s, 10.0);
            assert_eq!(m, 4.0);
        }
    }

    #[test]
    fn gather_and_allgather() {
        let (res, _) = Machine::new(4).run(|c| {
            let g = c.allgather(vec![c.rank() as u8; c.rank() + 1]);
            g.iter().map(|v| v.len()).collect::<Vec<_>>()
        });
        for r in res {
            assert_eq!(r, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn alltoallv_power_of_two_and_odd() {
        for p in [2, 4, 3, 5] {
            let (res, _) = Machine::new(p).run(move |c| {
                let sends: Vec<Vec<u64>> = (0..p)
                    .map(|dst| vec![(c.rank() * 100 + dst) as u64])
                    .collect();
                let recvs = c.alltoallv(sends);
                recvs
                    .iter()
                    .enumerate()
                    .all(|(src, v)| v == &vec![(src * 100 + c.rank()) as u64])
            });
            assert!(res.iter().all(|&ok| ok), "p = {p}");
        }
    }

    #[test]
    fn alltoallv_variable_lengths_conserve_elements() {
        let p = 4;
        let (res, _) = Machine::new(p).run(move |c| {
            let sends: Vec<Vec<u32>> = (0..p)
                .map(|dst| vec![c.rank() as u32; (c.rank() + dst) % 3])
                .collect();
            let sent: usize = sends.iter().map(Vec::len).sum();
            let recvs = c.alltoallv(sends);
            let got: usize = recvs.iter().map(Vec::len).sum();
            (sent, got)
        });
        let total_sent: usize = res.iter().map(|&(s, _)| s).sum();
        let total_got: usize = res.iter().map(|&(_, g)| g).sum();
        assert_eq!(total_sent, total_got);
    }

    #[test]
    fn split_rows_and_columns() {
        let (res, _) = Machine::new(6).run(|c| {
            let row = c.rank() / 3;
            let col = c.rank() % 3;
            let row_comm = c.split(row as u64, col as u64);
            let col_comm = c.split(col as u64, row as u64);
            let s = row_comm.allreduce_sum(col as f64);
            let t = col_comm.allreduce_sum(row as f64);
            (row_comm.size(), col_comm.size(), s, t)
        });
        for (rs, cs, s, t) in res {
            assert_eq!((rs, cs), (3, 2));
            assert_eq!(s, 3.0);
            assert_eq!(t, 1.0);
        }
    }

    #[test]
    fn split_then_collectives_do_not_cross_talk() {
        let (res, _) = Machine::new(4).run(|c| {
            let half = c.split((c.rank() / 2) as u64, c.rank() as u64);
            let a = c.allreduce_sum(1.0);
            let b = half.allreduce_sum(1.0);
            (a, b)
        });
        for (a, b) in res {
            assert_eq!((a, b), (4.0, 2.0));
        }
    }

    #[test]
    fn duplicate_isolated() {
        let (res, _) = Machine::new(3).run(|c| {
            let d = c.duplicate();
            d.send((c.rank() + 1) % 3, 5, vec![c.rank() as u32]);
            let got = d.recv::<u32>((c.rank() + 2) % 3, 5);
            got[0] as usize
        });
        assert_eq!(res, vec![2, 0, 1]);
    }

    #[test]
    fn traffic_stats_accumulate() {
        let (_, stats) = Machine::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0u8; 100]);
                c.send(1, 2, vec![0u64; 10]);
            } else {
                let _ = c.recv::<u8>(0, 1);
                let _ = c.recv::<u64>(0, 2);
            }
        });
        assert_eq!(stats.bytes_sent[0], 180);
        assert_eq!(stats.msgs_sent[0], 2);
        assert_eq!(stats.total_bytes(), 180);
        assert_eq!(stats.faults, FaultStats::default());
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn recv_wrong_type_panics() {
        let _ = Machine::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1.0f32]);
            } else {
                let _ = c.recv::<f64>(0, 0);
            }
        });
    }

    // ---- fault-tolerance layer ----------------------------------------

    #[test]
    fn try_run_reports_first_panic_as_error() {
        let err = Machine::new(3)
            .try_run(|c| {
                if c.rank() == 1 {
                    panic!("boom on rank 1");
                }
                c.barrier();
            })
            .unwrap_err();
        let MachineError::RankPanicked { rank, message } = err;
        assert_eq!(rank, 1);
        assert!(message.contains("boom on rank 1"), "got: {message}");
    }

    /// Ranks blocked inside a collective must wake and abort when another
    /// rank panics — the machine shuts down instead of hanging.
    #[test]
    fn poisoned_shutdown_wakes_blocked_collectives() {
        for p in [2, 4, 5] {
            let err = Machine::new(p)
                .try_run(|c| {
                    if c.rank() == 0 {
                        // Give peers time to block inside the barrier.
                        std::thread::sleep(Duration::from_millis(20));
                        panic!("injected failure");
                    }
                    // These ranks block forever without rank 0.
                    c.barrier();
                    c.allreduce_sum(1.0)
                })
                .unwrap_err();
            let MachineError::RankPanicked { rank, message } = err;
            assert_eq!(rank, 0, "p = {p}");
            assert!(message.contains("injected failure"), "p = {p}: {message}");
        }
    }

    #[test]
    fn delayed_messages_are_reordered_transparently() {
        let plan = FaultPlan::seeded(11).delay_prob(1.0);
        let (res, stats) = Machine::new(2).with_faults(plan).run(|c| {
            if c.rank() == 0 {
                for i in 0..20 {
                    c.send(1, 4, vec![i as u32]);
                }
                vec![]
            } else {
                (0..20).map(|_| c.recv::<u32>(0, 4)[0]).collect()
            }
        });
        assert_eq!(res[1], (0..20).collect::<Vec<u32>>());
        assert!(stats.faults.delayed > 0);
    }

    #[test]
    fn duplicated_messages_are_discarded_transparently() {
        let plan = FaultPlan::seeded(5).dup_prob(1.0);
        let (res, stats) = Machine::new(2).with_faults(plan).run(|c| {
            if c.rank() == 0 {
                for i in 0..10 {
                    c.send(1, 9, vec![i as u64]);
                }
                vec![]
            } else {
                (0..10).map(|_| c.recv::<u64>(0, 9)[0]).collect()
            }
        });
        assert_eq!(res[1], (0..10).collect::<Vec<u64>>());
        assert_eq!(stats.faults.duplicated, 10);
        assert_eq!(stats.faults.dup_discarded, 10);
    }

    /// Satellite: alltoallv under injected delay + duplication must give
    /// results identical to a fault-free run.
    #[test]
    fn alltoallv_identical_under_delay_and_duplication() {
        let run = |plan: FaultPlan| {
            let p = 5;
            let (res, _) = Machine::new(p).with_faults(plan).run(move |c| {
                let mut out = Vec::new();
                for round in 0..3u64 {
                    let sends: Vec<Vec<u64>> = (0..p)
                        .map(|dst| {
                            (0..(c.rank() + dst) % 4)
                                .map(|i| round * 1000 + (c.rank() * 10 + dst) as u64 + i as u64)
                                .collect()
                        })
                        .collect();
                    out.push(c.alltoallv(sends));
                }
                out
            });
            res
        };
        let clean = run(FaultPlan::none());
        let faulty = run(FaultPlan::seeded(77).delay_prob(0.4).dup_prob(0.4));
        assert_eq!(clean, faulty);
    }

    /// Satellite: split + sub-communicator collectives under injected
    /// delay + duplication must give results identical to a fault-free run.
    #[test]
    fn split_identical_under_delay_and_duplication() {
        let run = |plan: FaultPlan| {
            let (res, _) = Machine::new(6).with_faults(plan).run(|c| {
                let row = c.rank() / 3;
                let col = c.rank() % 3;
                let row_comm = c.split(row as u64, col as u64);
                let col_comm = c.split(col as u64, row as u64);
                let s = row_comm.allreduce_sum((col + 1) as f64);
                let t = col_comm.allreduce_sum((row + 1) as f64);
                let g = row_comm.allgather(vec![c.rank() as u32]);
                (s, t, g)
            });
            res
        };
        let clean = run(FaultPlan::none());
        let faulty = run(FaultPlan::seeded(123).delay_prob(0.5).dup_prob(0.3));
        assert_eq!(clean, faulty);
    }

    /// A dropped message surfaces as a diagnostic timeout naming the
    /// awaited (context, src, tag) — not a hang.
    #[test]
    fn dropped_message_yields_diagnostic_timeout() {
        let plan = FaultPlan::seeded(3).drop_prob(1.0);
        let (res, stats) = Machine::new(2).with_faults(plan).run(|c| {
            if c.rank() == 0 {
                c.send(1, 42, vec![7u8]);
                Ok(vec![])
            } else {
                c.recv_timeout::<u8>(0, 42, Duration::from_millis(50))
            }
        });
        assert!(stats.faults.dropped >= 1);
        let err = res[1].clone().unwrap_err();
        match &err {
            CommError::Timeout {
                context, src, tag, ..
            } => {
                assert_eq!((*context, *src, *tag), (0, 0, 42));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("context=0") && msg.contains("src=0") && msg.contains("tag=42"));
    }

    /// With a machine watchdog, a drop inside a collective aborts the whole
    /// run with a diagnostic error instead of deadlocking.
    #[test]
    fn watchdog_turns_lost_collective_message_into_error() {
        let plan = FaultPlan::seeded(8).drop_prob(1.0);
        let err = Machine::new(4)
            .with_faults(plan)
            .with_watchdog(Duration::from_millis(100))
            .try_run(|c| c.allreduce_sum(c.rank() as f64))
            .unwrap_err();
        let MachineError::RankPanicked { message, .. } = err;
        assert!(message.contains("comm timeout"), "got: {message}");
        assert!(message.contains("context="), "got: {message}");
    }

    #[test]
    fn kill_at_step_fires_once() {
        // A driver checks the plan at the top of each step; the one-shot
        // latch is spent by the first run, so the retry runs clean.
        let plan = FaultPlan::seeded(0).kill_rank_at_step(1, 3);
        let machine = Machine::new(2);
        let run = || {
            machine.try_run(|c| {
                for step in 0..5u64 {
                    assert!(!plan.should_kill(c.rank(), step), "rank {} killed at step {step}", c.rank());
                    c.barrier();
                }
                c.rank()
            })
        };
        let MachineError::RankPanicked { rank, message } = run().unwrap_err();
        assert_eq!(rank, 1);
        assert!(message.contains("killed at step 3"), "got: {message}");
        assert_eq!(run().expect("retry succeeds").0, vec![0, 1]);
    }

    #[test]
    fn slow_rank_does_not_change_results() {
        let clean = Machine::new(3).run(|c| c.allreduce_sum(c.rank() as f64)).0;
        let slowed = Machine::new(3)
            .with_faults(FaultPlan::seeded(1).slow_rank(1, Duration::from_micros(200)))
            .run(|c| c.allreduce_sum(c.rank() as f64))
            .0;
        assert_eq!(clean, slowed);
    }

    /// An injected bit-flip is caught by the receiver's CRC and surfaces
    /// exactly like a drop: a diagnosable sequence gap that names the
    /// corruption, never silently torn data.
    #[test]
    fn corrupted_frame_is_detected_and_discarded() {
        let plan = FaultPlan::seeded(11).corrupt_prob(1.0);
        let (res, stats) = Machine::new(2).with_faults(plan).run(|c| {
            if c.rank() == 0 {
                c.send(1, 9, vec![1.5f64, 2.5]);
                Ok(vec![])
            } else {
                c.recv_timeout::<f64>(0, 9, Duration::from_millis(50))
            }
        });
        assert_eq!(stats.faults.corrupted, 1);
        assert_eq!(stats.faults.corrupt_detected, 1);
        let err = res[1].clone().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("failed CRC"), "diagnosis must name the corruption: {msg}");
    }

    /// Sub-unity corruption probability under a collective workload:
    /// every injected corruption is detected (counters agree), and with
    /// a watchdog the run errors out diagnosably rather than hanging.
    #[test]
    fn every_injected_corruption_is_detected() {
        let plan = FaultPlan::seeded(5).corrupt_prob(0.3);
        let result = Machine::new(4)
            .with_faults(plan)
            .with_watchdog(Duration::from_millis(100))
            .try_run(|c| {
                for _ in 0..4 {
                    let _ = c.allreduce_sum(c.rank() as f64);
                }
            });
        match result {
            // Corruption discards frames, so collectives stall on the gap.
            Err(MachineError::RankPanicked { message, .. }) => {
                assert!(
                    message.contains("comm timeout") || message.contains("poisoned"),
                    "got: {message}"
                );
            }
            Ok((_, stats)) => assert_eq!(stats.faults.corrupted, 0, "clean only if none injected"),
        }
    }

    /// End-to-end heartbeat detection: a rank goes silent at its kill
    /// step, the monitor declares it, survivors get the agreed failed set
    /// from `admit_step`, the replacement rejoins, and the
    /// machine finishes with **no** poisoning.
    #[test]
    fn silent_kill_is_detected_and_survived() {
        let hb = HeartbeatConfig {
            scan_interval: Duration::from_millis(10),
            suspect_scans: 3,
            confirm_scans: 3,
            sync_timeout: Duration::from_secs(10),
        };
        let plan = FaultPlan::seeded(2).kill_rank_at_step(1, 3);
        let (res, _) = Machine::new(3)
            .with_faults(plan)
            .with_heartbeat(hb)
            .try_run(|c| {
                let mut detected = Vec::new();
                for step in 1..=5u64 {
                    match c.admit_step(step) {
                        (FenceAdmission::Dead, _) => {
                            let epoch = c.rejoin_as_replacement();
                            assert_eq!(epoch, step - 1, "died after completing step-1");
                            detected.push((c.rank(), epoch));
                            // Rejoin the recovery collective the survivors run.
                            let _ = c.allreduce_sum(0.0);
                            c.apply(ControlEvent::Recovered { rank: c.rank(), epoch: step });
                        }
                        (FenceAdmission::Deaths, agreed) => {
                            detected.extend(agreed.iter().copied());
                            let _ = c.wait(Gate::Rebirth(&[agreed[0].0]));
                            let _ = c.allreduce_sum(1.0);
                        }
                        (FenceAdmission::Proceed, _) => {}
                    }
                    // Normal step traffic.
                    let _ = c.allreduce_sum(c.rank() as f64);
                }
                detected
            })
            .expect("machine survives the silent kill without poisoning");
        // Every rank observed exactly the one failure, with the epoch it
        // last completed (killed entering step 3 ⇒ completed epoch 2).
        for view in &res {
            assert_eq!(view, &vec![(1usize, 2u64)]);
        }
    }

    /// A recv blocked on a source that dies silently fails over to
    /// `RankFailed` once the monitor declares the death — not a hang,
    /// not a poison.
    #[test]
    fn recv_on_dead_source_reports_rank_failed() {
        let hb = HeartbeatConfig {
            scan_interval: Duration::from_millis(10),
            suspect_scans: 3,
            confirm_scans: 3,
            sync_timeout: Duration::from_secs(10),
        };
        let plan = FaultPlan::seeded(4).kill_rank_at_step(0, 1);
        let (res, _) = Machine::new(2)
            .with_faults(plan)
            .with_heartbeat(hb)
            .try_run(|c| {
                if let (FenceAdmission::Dead, _) = c.admit_step(1) {
                    // Stay dead (no rejoin): models a node that never
                    // comes back, so its status remains `Failed`.
                    return Err(CommError::Poisoned); // placeholder; never asserted
                }
                // Rank 1 blocks on traffic the dead rank 0 will never send.
                c.recv_result::<u8>(0, 77)
            })
            .expect("no poisoning");
        match &res[1] {
            Err(CommError::RankFailed { rank, epoch }) => {
                assert_eq!((*rank, *epoch), (0, 0));
            }
            other => panic!("expected RankFailed, got {other:?}"),
        }
    }
}
