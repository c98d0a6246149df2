//! Multi-process socket transport: one OS process per rank, CRC-framed
//! messages over loopback TCP, wired up through a hub rendezvous.
//!
//! # Topology
//!
//! A [hub](crate::hub) (the launcher process) binds a control
//! listener and spawns one child process per rank. Each child:
//!
//! 1. binds its own **data listener** on `127.0.0.1:0`,
//! 2. dials the hub, sends `HELLO <rank> <incarnation> <data_addr>`,
//!    and blocks until the hub's `WELCOME … READY` reply (the hub
//!    answers the initial generation only once all ranks have arrived —
//!    the rank-zero rendezvous),
//! 3. dials every lower-ranked peer's data address (a **replacement**
//!    process dials *every* peer) and accepts the rest, so each
//!    unordered pair shares exactly one TCP stream,
//! 4. spawns one reader thread per link plus a control reader and a
//!    tick thread, then hands an `Arc<SocketTransport>` to
//!    [`crate::Comm::over_socket`].
//!
//! # Hardening
//!
//! - Dials retry with exponential backoff plus deterministic jitter.
//! - Every frame is length-prefixed and CRC-protected ([`crate::wire`]);
//!   a torn, truncated, or bit-flipped frame **condemns the link** —
//!   receives from that peer fail with [`CommError::CorruptDetected`],
//!   never silently resync.
//! - Per-link sequence numbers are monotonic across same-incarnation
//!   reconnects (reset only when a replacement incarnation takes over),
//!   so frame loss across a disconnect — including frames the kernel
//!   accepted but the dead connection never delivered — surfaces as a
//!   sequence gap and condemns the link, never a silent skip.
//! - Readers poll with short OS read timeouts so shutdown never blocks
//!   on a dead peer; the *receive* deadline feeding
//!   [`crate::Comm::recv_timeout`] is enforced at the byte mailbox.
//! - A broken pipe marks the link down and queues outbound frames; they
//!   are drained if the same peer incarnation reconnects (the sequence
//!   check above re-validates the stream — any in-flight loss condemns
//!   it loudly) and dropped if a replacement (new incarnation) takes
//!   over.
//! - Peer death is **never** inferred from a socket error — only the
//!   hub's failure detector declares ranks dead (broadcast to every
//!   child and mirrored here), so transient disconnects cannot
//!   masquerade as rank failure. The hub's declaration also *outranks*
//!   link-level condemnation: a probe of a declared-dead rank yields
//!   [`CommError::RankFailed`], even if its death tore a frame first —
//!   but only after the dead link's reader has queued every frame the
//!   kernel already held, so nothing written before the death is lost
//!   to the race between the control and data sockets.
//!
//! # Lock order (machine-enforced invariant)
//!
//! Every mutex in this transport carries a [`LockRank`]; a thread may
//! acquire a mutex only while everything it already holds has a
//! strictly smaller rank (checked at runtime in debug/test builds by
//! [`crate::sync`], and statically by `cargo xtask lockorder`, which
//! rejects any `.lock(` site without a rank annotation). Sequential,
//! non-overlapping acquisitions in any order are always fine — the
//! discipline constrains *nested* holds only.
//!
//! | mutex | rank | role |
//! |---|---|---|
//! | `links[peer].writer` | `LinkWriter` (28) | one peer link's stream write half; serializes senders |
//! | `links[peer].state` | `Link` (30) | one peer link's up flag, sequence state and backlog |
//! | `mail.state` | `Mail` (32) | the byte mailbox (delivery, condemnation flags) |
//! | `mirror.state` | `Mirror` (34) | local replica of the hub's failure detector, and the link readers its declarations drain |
//! | `control.rpc` | `ControlRpc` (36) | the one-slot hub RPC (`BEAT`, `AWAITFAILED`) |
//! | `control.writer` | `ControlWriter` (38) | control-stream write half |
//!
//! Functions that hold more than one at once — the complete list:
//!
//! - `SocketTransport::register_link`: `LinkWriter → Link → Mail →
//!   Mirror` (purges the mailbox of a dead incarnation's frames while
//!   the link lock pins the registration, and installs the new reader
//!   against the detector status it was registered under; the writer
//!   lock spans the whole registration so no sender interleaves with
//!   the backlog drain).
//! - [`Transport::send`] / `write_frame`: `LinkWriter → Link` (the
//!   writer lock is held across the stream write; `Link` is taken
//!   under it only to stamp the sequence number and, after the write,
//!   to commit it or requeue the message).
//! - [`SocketTransport::recv`]: `Mail → Mirror` (the precedence check
//!   consults the detector mirror while the mailbox lock pins the
//!   verdict to a consistent queue snapshot).
//! - `SocketTransport::hub_rpc`: `ControlRpc → ControlWriter` (the
//!   request line goes out while the RPC slot is held so a reply can
//!   never race the reset).
//!
//! **No blocking syscall under `Link`.** A link's reader thread takes
//! `Link` for every frame it accepts, so a sender that sat in `write`
//! while holding it would stop this rank draining the very peer whose
//! reader it is waiting on: two ranks that each queue more than one
//! loopback connection holds in flight (4–8 MiB until the receive
//! buffer autotunes, tens of MiB after) before either receives would
//! never return. Stream writes therefore happen under
//! `LinkWriter` alone, which no reader thread ever takes, and a reader's
//! liveness check reads the link's atomic `generation`, not a lock. The
//! lock-order model checks this shape as `locks::send_frame`.
//!
//! Everything else takes one lock at a time. Two historical corollaries
//! are now theorems of the rank order: the receive-timeout diagnosis
//! must release `Mail` *before* taking `Link` (30 < 32 — the inverted
//! nesting panics in any debug build, and the lock-order model in
//! `tests/protocol_models.rs` shows the schedule that deadlocks against
//! `register_link`); and `apply_control_event` must drop `Mirror`
//! before touching `Mail` (its two acquisitions are sequential, never
//! nested).
//!
//! The protocol *decisions* made under these locks — frame acceptance,
//! purge rules, receive precedence, mirror transitions — live in
//! [`crate::protocol`] as pure state machines; this module only wires
//! them to sockets, threads, and the locks above.

use crate::protocol::{
    self, ClientLine, ControlEvent, ControlLine, FrameVerdict, Gate, MirrorEffect, Mutations,
    PeerView, RecvVerdict, SendRoute,
};
use crate::stats::WireStats;
use crate::sync::{Condvar, LockRank, Mutex};
use crate::transport::{Transport, WirePayload};
use crate::wire::{self, FrameHeader, FRAME_HEADER, FRAME_TRAILER};
use crate::{
    fault, health, ClassCounters, CommError, EpochReport, FaultStats, RankStatus, TrafficStats,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mailbox key: (communicator context, global source rank, user tag).
type Key = (u64, usize, u64);

/// How a child process finds and identifies itself to the world.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Hub control address, e.g. `127.0.0.1:45123`.
    pub hub_addr: String,
    /// This process's global rank.
    pub rank: usize,
    /// World size.
    pub ranks: usize,
    /// 0 for an original process; hub-incremented for each respawn of
    /// this rank. Peers use it to tell a reconnect from a replacement.
    pub incarnation: u64,
}

impl SocketConfig {
    /// Read the configuration the launcher passed via environment
    /// (`HACC_HUB`, `HACC_RANK`, `HACC_RANKS`, `HACC_INCARNATION`).
    pub fn from_env() -> Result<Self, String> {
        let get = |k: &str| std::env::var(k).map_err(|_| format!("missing env {k}"));
        Ok(SocketConfig {
            hub_addr: get("HACC_HUB")?,
            rank: get("HACC_RANK")?.parse().map_err(|e| format!("HACC_RANK: {e}"))?,
            ranks: get("HACC_RANKS")?.parse().map_err(|e| format!("HACC_RANKS: {e}"))?,
            incarnation: std::env::var("HACC_INCARNATION")
                .ok()
                .map_or(Ok(0), |v| v.parse().map_err(|e| format!("HACC_INCARNATION: {e}")))?,
        })
    }

    /// Is this process a respawned blank replacement?
    #[must_use]
    pub fn is_replacement(&self) -> bool {
        self.incarnation > 0
    }
}

/// Timing parameters the hub hands every child in its `WELCOME` line.
#[derive(Debug, Clone, Copy)]
struct WireTiming {
    /// Default receive deadline (the transport watchdog).
    recv_deadline: Duration,
    /// Hub scan interval; ticks are sent at a fraction of this.
    scan_interval: Duration,
    /// Deadline for detector-level waits (epoch sync, rebirth).
    sync_timeout: Duration,
}

/// An outbound message not yet on the wire (link down): framed lazily
/// so sequence numbers are assigned at write time, after any reset.
struct PendingMsg {
    context: u64,
    tag: u64,
    type_hash: u64,
    payload: Vec<u8>,
    /// Peer incarnation the message was addressed to; a replacement
    /// (different incarnation) must not receive a dead rank's backlog.
    incarnation: u64,
}

/// Send-side bookkeeping of one peer link.
struct LinkState {
    up: bool,
    ever_up: bool,
    /// The pure sequence/incarnation machine (see [`crate::protocol`]):
    /// monotonic seqs across same-incarnation reconnects, reset only
    /// for a replacement, shared by the link's successive reader
    /// threads so a reconnect cannot silently swallow frames.
    session: protocol::LinkSession,
    pending: VecDeque<PendingMsg>,
}

struct Link {
    /// Write half of the live stream. Held across the stream write, so
    /// it also orders concurrent senders; never taken by a reader
    /// thread (see "No blocking syscall under `Link`" above).
    writer: Mutex<Option<TcpStream>>,
    state: Mutex<LinkState>,
    /// Bumped (under `state`) on every (re)registration; readers for
    /// older generations exit instead of marking the fresh link down.
    generation: AtomicU64,
    signal: Condvar,
}

impl Default for Link {
    fn default() -> Self {
        Link {
            writer: Mutex::new(LockRank::LinkWriter, None),
            state: Mutex::new(
                LockRank::Link,
                LinkState {
                    up: false,
                    ever_up: false,
                    session: protocol::LinkSession::default(),
                    pending: VecDeque::new(),
                },
            ),
            generation: AtomicU64::new(0),
            signal: Condvar::new(),
        }
    }
}

/// Receive side: every inbound payload lands here, keyed like the
/// in-process mailboxes.
struct MailInner {
    ready: HashMap<Key, VecDeque<(u64, Vec<u8>)>>,
    /// Per-source condemnation: set once a link delivers a bad frame.
    corrupt: Vec<Option<String>>,
    /// Per-source count of rejected frames (diagnostics).
    rejected: Vec<u64>,
}

struct ByteMail {
    state: Mutex<MailInner>,
    signal: Condvar,
}

/// Child-side replica of the hub's authoritative failure detector,
/// updated by control-stream broadcasts (`EPOCH`, `DECLARED`,
/// `REBUILDING`, `RECOVERED`) through [`protocol::apply_control`].
struct Mirror {
    state: Mutex<MirrorState>,
    signal: Condvar,
}

struct MirrorState {
    view: Vec<PeerView>,
    /// Per source, the data reader of its current link. It sits beside
    /// the view so a declaration and the drain it starts are one step.
    readers: Vec<Option<Reader>>,
}

/// A link's running data reader, as a declaration of its peer sees it.
///
/// The control and data streams are two sockets with no order between
/// them, so frames a rank wrote before it died can still sit unread in
/// the kernel when its `DECLARED` line is applied. The declaration shuts
/// the read half of the dead link — the reader takes exactly what the
/// kernel held, then sees EOF and exits — and a receive from that peer
/// yields `RankFailed` only once it has.
struct Reader {
    /// Link generation the reader serves.
    generation: u64,
    /// A handle on the link's stream, for the read-half shutdown.
    stream: TcpStream,
    drain: Drain,
}

/// What the next declaration of a link's peer does to its reader.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Drain {
    /// Shut the read half and start draining.
    OnDeclare,
    /// This link is a replacement that registered before this process
    /// applied the declaration of the incarnation it replaced: that
    /// declaration is about the old link and only arms this one.
    SkipNext,
    /// Declared and shut: receives hold `RankFailed` back until the
    /// reader exits.
    Draining,
}

impl Reader {
    /// Apply a declaration of this reader's peer.
    fn declared(&mut self) {
        self.drain = match self.drain {
            Drain::SkipNext => Drain::OnDeclare,
            Drain::OnDeclare | Drain::Draining => {
                let _ = self.stream.shutdown(Shutdown::Read);
                Drain::Draining
            }
        };
    }
}

struct ControlChannel {
    writer: Mutex<TcpStream>,
    /// One-slot synchronous RPC to the hub (`BEAT` → `BEATACK`,
    /// `AWAITFAILED` → `FAILEDEPOCH`): the reply line. A rank runs one
    /// app thread, so one outstanding request suffices.
    rpc: Mutex<Option<ControlLine>>,
    rpc_signal: Condvar,
}

/// Wire-health counters (Relaxed monotonic tallies, same audit as the
/// in-process `FaultCounters`).
#[derive(Default)]
struct WireCounters {
    connect_attempts: AtomicU64,
    reconnects: AtomicU64,
    frames_sent: AtomicU64,
    frames_retried: AtomicU64,
    frames_dropped_dead: AtomicU64,
    bytes_on_wire: AtomicU64,
    crc_rejects: AtomicU64,
}

impl WireCounters {
    fn snapshot(&self) -> WireStats {
        WireStats {
            connect_attempts: self.connect_attempts.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_retried: self.frames_retried.load(Ordering::Relaxed),
            frames_dropped_dead: self.frames_dropped_dead.load(Ordering::Relaxed),
            bytes_on_wire: self.bytes_on_wire.load(Ordering::Relaxed),
            crc_rejects: self.crc_rejects.load(Ordering::Relaxed),
        }
    }
}

/// The inter-process backend behind [`crate::Comm::over_socket`].
pub struct SocketTransport {
    cfg: SocketConfig,
    timing: WireTiming,
    mail: ByteMail,
    links: Vec<Link>,
    mirror: Mirror,
    control: ControlChannel,
    poisoned: AtomicBool,
    closing: AtomicBool,
    counters: WireCounters,
    payload_bytes: AtomicU64,
    msgs_sent: AtomicU64,
    class: ClassCounters,
    next_context: AtomicU64,
}

/// OS-read poll granularity: how often a blocked reader re-checks the
/// shutdown/generation flags. The *user-visible* deadline is enforced
/// at the mailbox, not here.
const READ_POLL: Duration = Duration::from_millis(200);
/// Base delay of the dial backoff schedule.
const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Dial attempts before giving up (~20 s worst case with backoff).
const DIAL_ATTEMPTS: u32 = 11;
/// Magic preamble word opening every data stream ("HACD").
const DATA_PREAMBLE_MAGIC: u32 = 0x4443_4148;
/// The protocol machines' shipping configuration: every test-only
/// mutation hook off. The live transport passes this everywhere; only
/// the model suite ever constructs anything else.
const LIVE: &Mutations = &Mutations::NONE;

/// Exponential backoff with deterministic jitter for dial attempt
/// `attempt` (0-based) from rank `rank`.
fn dial_delay(rank: usize, incarnation: u64, attempt: u32) -> Duration {
    let base = DIAL_BACKOFF_BASE.as_millis() as u64;
    let expo = base << attempt.min(7);
    let jitter = fault::mix64(
        (rank as u64) ^ (incarnation << 16) ^ (u64::from(attempt) << 32) ^ 0x6a09_e667_f3bc_c908,
    ) % base.max(1);
    Duration::from_millis(expo + jitter)
}

fn io_err<E: std::fmt::Display>(what: &str, e: E) -> std::io::Error {
    std::io::Error::other(format!("{what}: {e}"))
}

/// Fill `buf` from a stream whose read timeout is [`READ_POLL`],
/// retrying timeouts while `alive()` holds. `Ok(false)` means clean EOF
/// before the first byte.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    alive: &dyn Fn() -> bool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if !alive() {
            return Err(io_err("read aborted", "transport closing"));
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io_err("read", "EOF mid-frame"));
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Read deadline tick: re-check liveness, keep polling.
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

impl SocketTransport {
    /// Connect this process to the world: hub handshake, data mesh,
    /// reader/control/tick threads. Blocks until every peer link is up.
    pub fn connect(cfg: SocketConfig) -> std::io::Result<Arc<SocketTransport>> {
        assert!(cfg.rank < cfg.ranks, "rank out of range");
        // 1. Own data listener first, so the HELLO can carry its address.
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let data_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        // 2. Hub handshake (with dial retry — the hub may still be
        //    binding when early children start).
        let counters = WireCounters::default();
        let mut control_stream =
            dial_retry(&cfg.hub_addr, cfg.rank, cfg.incarnation, &counters)?;
        control_stream.set_nodelay(true).ok();
        writeln!(
            control_stream,
            "HELLO {} {} {}",
            cfg.rank, cfg.incarnation, data_addr
        )?;
        let mut control_reader = BufReader::new(control_stream.try_clone()?);
        let (timing, peers, mirror_seed) = read_welcome(&mut control_reader, cfg.ranks)?;

        let transport = Arc::new(SocketTransport {
            links: (0..cfg.ranks).map(|_| Link::default()).collect(),
            mail: ByteMail {
                state: Mutex::new(
                    LockRank::Mail,
                    MailInner {
                        ready: HashMap::new(),
                        corrupt: vec![None; cfg.ranks],
                        rejected: vec![0; cfg.ranks],
                    },
                ),
                signal: Condvar::new(),
            },
            mirror: Mirror {
                state: Mutex::new(
                    LockRank::Mirror,
                    MirrorState {
                        view: mirror_seed,
                        readers: (0..cfg.ranks).map(|_| None).collect(),
                    },
                ),
                signal: Condvar::new(),
            },
            control: ControlChannel {
                writer: Mutex::new(LockRank::ControlWriter, control_stream),
                rpc: Mutex::new(LockRank::ControlRpc, None),
                rpc_signal: Condvar::new(),
            },
            poisoned: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            counters,
            payload_bytes: AtomicU64::new(0),
            msgs_sent: AtomicU64::new(0),
            class: ClassCounters::default(),
            // Unlike the in-process backend (one shared counter), every
            // process allocates context bases locally — and any rank can
            // be the allocating root of a sub-communicator after split().
            // Incarnation in the high bits keeps a respawned rank's
            // bases disjoint from its predecessor's; the global rank in
            // the middle bits keeps roots of sibling sub-communicators
            // disjoint from each other (2^28 allocations per rank, 4096
            // ranks before the fields overlap).
            next_context: AtomicU64::new(
                (cfg.incarnation.wrapping_add(1) << 40)
                    | ((cfg.rank as u64 & 0xFFF) << 28)
                    | 1,
            ),
            timing,
            cfg,
        });

        // 3. Accept thread for inbound dials.
        {
            let t = Arc::clone(&transport);
            std::thread::spawn(move || t.accept_loop(&listener));
        }
        // 4. Outbound dials: lower ranks for the initial generation,
        //    everyone for a replacement (survivors only accept).
        for (peer, info) in peers.iter().enumerate() {
            if peer == transport.cfg.rank {
                continue;
            }
            if !transport.cfg.is_replacement() && peer > transport.cfg.rank {
                continue;
            }
            let addr = info
                .as_ref()
                .ok_or_else(|| io_err("peer address", format!("rank {peer} unknown")))?;
            let stream = dial_retry(
                &addr.1,
                transport.cfg.rank,
                transport.cfg.incarnation,
                &transport.counters,
            )?;
            transport.send_data_preamble(&stream)?;
            transport.register_link(peer, stream, addr.0)?;
        }
        // 5. Control reader + tick threads.
        {
            let t = Arc::clone(&transport);
            std::thread::spawn(move || t.control_loop(control_reader));
        }
        {
            let t = Arc::clone(&transport);
            std::thread::spawn(move || t.tick_loop());
        }
        // 6. Rendezvous complete only when the mesh is fully up.
        transport.wait_links_up()?;
        Ok(transport)
    }

    /// This process's global rank.
    #[must_use]
    pub fn self_rank(&self) -> usize {
        self.cfg.rank
    }

    /// World size.
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.cfg.ranks
    }

    /// Status of `rank` in this process's mirror of the hub's detector.
    #[must_use]
    pub fn rank_status(&self, rank: usize) -> RankStatus {
        self.mirror.state.lock(LockRank::Mirror).view[rank].status
    }

    fn send_data_preamble(&self, mut stream: &TcpStream) -> std::io::Result<()> {
        let mut pre = Vec::with_capacity(16);
        pre.extend_from_slice(&DATA_PREAMBLE_MAGIC.to_le_bytes());
        pre.extend_from_slice(&(self.cfg.rank as u32).to_le_bytes());
        pre.extend_from_slice(&self.cfg.incarnation.to_le_bytes());
        stream.write_all(&pre)
    }

    /// Install `stream` as the live link to `peer` (either direction),
    /// drain any same-incarnation backlog, and spawn its reader.
    fn register_link(
        self: &Arc<Self>,
        peer: usize,
        stream: TcpStream,
        peer_incarnation: u64,
    ) -> std::io::Result<()> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_POLL))?;
        let reader_stream = stream.try_clone()?;
        let drain_stream = stream.try_clone()?;
        let link = &self.links[peer];
        // Lock order: LinkWriter → Link → Mail → Mirror (see module docs).
        let mut writer = link.writer.lock(LockRank::LinkWriter);
        let generation;
        let backlog: Vec<PendingMsg>;
        {
            let mut st = link.state.lock(LockRank::Link);
            generation = link.generation.fetch_add(1, Ordering::SeqCst) + 1;
            if st.ever_up {
                self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            let plan = st.session.register(peer_incarnation, LIVE);
            let mut mail = self.mail.state.lock(LockRank::Mail);
            if plan.replacement {
                // A replacement process: the dead incarnation's backlog
                // and stale inbound frames must not leak into it (the
                // session machine already reset the sequence state).
                st.pending.retain(|m| m.incarnation == peer_incarnation);
                mail.ready.retain(|k, _| k.1 != peer);
            }
            if plan.lift_condemnation {
                // If frames were really lost across the disconnect, the
                // receiver's sequence check re-condemns on the very next
                // frame, so this can only heal a link whose stream state
                // is actually intact.
                mail.corrupt[peer] = None;
            }
            let mut mirror = self.mirror.state.lock(LockRank::Mirror);
            let declared = matches!(
                mirror.view[peer].status,
                RankStatus::Failed | RankStatus::Rebuilding
            );
            // The hub declares a rank before it spawns the replacement,
            // so a replacement seen here ahead of that declaration has
            // it still in flight on the control stream.
            let early = plan.replacement && st.ever_up && !declared;
            mirror.readers[peer] = Some(Reader {
                generation,
                stream: drain_stream,
                drain: if early {
                    Drain::SkipNext
                } else {
                    Drain::OnDeclare
                },
            });
            drop(mirror);
            drop(mail);
            st.up = true;
            st.ever_up = true;
            backlog = st.pending.drain(..).collect();
        }
        *writer = Some(stream);
        link.signal.notify_all();
        // The reader starts before the backlog drains: a peer draining
        // its own backlog at us needs this side reading to make progress.
        let t = Arc::clone(self);
        std::thread::spawn(move || t.reader_loop(reader_stream, peer, generation));
        for msg in backlog {
            if self.write_frame(peer, &mut writer, msg) {
                self.counters.frames_retried.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Frame and write one message to `peer`: header on the stack,
    /// payload borrowed, one vectored write ([`wire::write_frame`]).
    /// `writer` is the content of the held `LinkWriter` guard; `Link` is
    /// taken only to stamp the sequence number and to record the
    /// outcome, never across the write. Returns whether the frame went
    /// out; on failure the link is marked down and the message requeued.
    fn write_frame(&self, peer: usize, writer: &mut Option<TcpStream>, msg: PendingMsg) -> bool {
        let link = &self.links[peer];
        let header = FrameHeader {
            src: self.cfg.rank as u32,
            context: msg.context,
            tag: msg.tag,
            seq: link.state.lock(LockRank::Link).session.next_send_seq(),
            type_hash: msg.type_hash,
            len: msg.payload.len() as u64,
        };
        let sent = match writer.as_mut() {
            Some(w) => wire::write_frame(w, &header, &msg.payload),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        let mut st = link.state.lock(LockRank::Link);
        match sent {
            Ok(frame_len) => {
                st.session.commit_send();
                self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_on_wire
                    .fetch_add(frame_len as u64, Ordering::Relaxed);
                true
            }
            Err(_) => {
                // Broken pipe / reset: down the link, keep the message
                // for a same-incarnation reconnect. Failure semantics
                // stay with the hub's detector — a socket error is
                // never itself a death certificate.
                *writer = None;
                st.up = false;
                st.pending.push_back(msg);
                false
            }
        }
    }

    fn accept_loop(self: &Arc<Self>, listener: &TcpListener) {
        while !self.closing.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    if let Err(e) = stream.set_read_timeout(Some(READ_POLL)) {
                        drop(e);
                        continue;
                    }
                    let mut pre = [0u8; 16];
                    let alive = || !self.closing.load(Ordering::SeqCst);
                    match read_full(&mut stream, &mut pre, &alive) {
                        Ok(true) => {}
                        _ => continue,
                    }
                    let magic = u32::from_le_bytes(pre[0..4].try_into().expect("preamble"));
                    if magic != DATA_PREAMBLE_MAGIC {
                        continue;
                    }
                    let peer =
                        u32::from_le_bytes(pre[4..8].try_into().expect("preamble")) as usize;
                    let inc = u64::from_le_bytes(pre[8..16].try_into().expect("preamble"));
                    if peer >= self.cfg.ranks || peer == self.cfg.rank {
                        continue;
                    }
                    let _ = self.register_link(peer, stream, inc);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Per-link reader thread: run the inbound pump, then close the
    /// socket. Senders never see the reader's verdict through the
    /// `LinkWriter` slot (the reader must not take that lock), so the
    /// shutdown is what fails a write still in flight and tells the
    /// peer this end is gone.
    fn reader_loop(self: &Arc<Self>, mut stream: TcpStream, src: usize, generation: u64) {
        self.pump_frames(&mut stream, src, generation);
        let _ = stream.shutdown(Shutdown::Both);
        // Everything this reader will queue is queued: a declaration of
        // `src` may now take effect.
        {
            let mut mirror = self.mirror.state.lock(LockRank::Mirror);
            if mirror.readers[src]
                .as_ref()
                .is_some_and(|r| r.generation == generation)
            {
                mirror.readers[src] = None;
            }
        }
        let _guard = self.mail.state.lock(LockRank::Mail);
        self.mail.signal.notify_all();
    }

    /// Validate every inbound frame, deliver it to the byte mailbox,
    /// condemn the link on the first structural failure. The header
    /// lands on the stack and the payload is read straight into the
    /// `Vec` the mailbox will own; the CRC streams over both.
    fn pump_frames(&self, stream: &mut TcpStream, src: usize, generation: u64) {
        let link = &self.links[src];
        let alive = || {
            !self.closing.load(Ordering::SeqCst)
                && link.generation.load(Ordering::SeqCst) == generation
        };
        loop {
            let mut head = [0u8; FRAME_HEADER];
            match read_full(stream, &mut head, &alive) {
                Ok(true) => {}
                Ok(false) => {
                    // Clean EOF between frames: the peer closed (exit or
                    // death). Down the link; the detector decides what
                    // it means.
                    self.link_down(src, generation);
                    return;
                }
                Err(_) => {
                    if self.closing.load(Ordering::SeqCst) {
                        return;
                    }
                    self.link_down(src, generation);
                    return;
                }
            }
            let header = match wire::parse_header(&head) {
                Ok(h) => h,
                Err(e) => {
                    self.condemn(src, generation, &format!("{e}"));
                    return;
                }
            };
            let mut payload =
                vec![0u8; usize::try_from(header.len).expect("frame length fits usize")];
            let mut trailer = [0u8; FRAME_TRAILER];
            if !matches!(read_full(stream, &mut payload, &alive), Ok(true))
                || !matches!(read_full(stream, &mut trailer, &alive), Ok(true))
            {
                self.condemn(src, generation, "torn frame: stream ended mid-payload");
                return;
            }
            if let Err(e) = wire::check_crc(&head, &payload, trailer) {
                self.condemn(src, generation, &format!("{e}"));
                return;
            }
            {
                // Source + sequence check against the link's persistent
                // session machine: it survives same-incarnation
                // reconnects, so frames lost in a dead connection's
                // buffers surface as a gap here instead of being
                // silently skipped.
                let mut st = link.state.lock(LockRank::Link);
                if link.generation.load(Ordering::SeqCst) != generation {
                    return; // superseded mid-frame by a fresh registration
                }
                match st.session.accept_frame(header.src, src, header.seq) {
                    FrameVerdict::Accept => {}
                    FrameVerdict::Condemn(reason) => {
                        drop(st);
                        self.condemn(src, generation, &reason.to_string());
                        return;
                    }
                }
            }
            let key = (header.context, src, header.tag);
            let mut mail = self.mail.state.lock(LockRank::Mail);
            mail.ready
                .entry(key)
                .or_default()
                .push_back((header.type_hash, payload));
            drop(mail);
            self.mail.signal.notify_all();
        }
    }

    /// Mark the link down (transient: no error surfaced to receivers).
    fn link_down(&self, src: usize, generation: u64) {
        {
            let mut st = self.links[src].state.lock(LockRank::Link);
            if self.links[src].generation.load(Ordering::SeqCst) != generation {
                return; // superseded by a fresh registration
            }
            st.up = false;
        }
        self.links[src].signal.notify_all();
        // Receivers re-evaluate (the detector may have declared the peer).
        let _guard = self.mail.state.lock(LockRank::Mail);
        self.mail.signal.notify_all();
    }

    /// Condemn the link: everything after a bad frame is untrusted, so
    /// receives from `src` fail loudly from now on (until a replacement
    /// incarnation re-registers the link).
    fn condemn(&self, src: usize, generation: u64, detail: &str) {
        self.counters.crc_rejects.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self.links[src].state.lock(LockRank::Link);
            if self.links[src].generation.load(Ordering::SeqCst) == generation {
                st.up = false;
            }
        }
        {
            let mut mail = self.mail.state.lock(LockRank::Mail);
            mail.rejected[src] += 1;
            if mail.corrupt[src].is_none() {
                mail.corrupt[src] = Some(detail.to_string());
            }
        }
        self.mail.signal.notify_all();
        self.links[src].signal.notify_all();
    }

    /// Block until every peer link is up (initial rendezvous).
    fn wait_links_up(&self) -> std::io::Result<()> {
        let deadline = Instant::now() + self.timing.sync_timeout;
        for peer in (0..self.cfg.ranks).filter(|&p| p != self.cfg.rank) {
            self.wait_link_up(peer, deadline, |p| format!("link to rank {p} never came up"))
                .map_err(|e| io_err("rendezvous", e))?;
        }
        Ok(())
    }

    // ---- control plane ------------------------------------------------

    fn control_send(&self, line: &str) -> bool {
        let mut w = self.control.writer.lock(LockRank::ControlWriter);
        writeln!(w, "{line}").is_ok()
    }

    fn tick_loop(&self) {
        let interval = self.timing.scan_interval.as_secs_f64() / 3.0;
        let interval = Duration::from_secs_f64(interval.max(0.005));
        while !self.closing.load(Ordering::SeqCst) && !self.poisoned.load(Ordering::SeqCst) {
            std::thread::sleep(interval);
            if self.closing.load(Ordering::SeqCst) {
                return;
            }
            if !self.control_send(&ClientLine::Tick.render()) {
                return; // control reader handles the poisoning
            }
        }
    }

    /// Apply hub broadcasts to the local mirror and answer RPC waits.
    fn control_loop(self: &Arc<Self>, reader: BufReader<TcpStream>) {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            match ControlLine::parse(&line) {
                Some(reply @ (ControlLine::BeatAck(_) | ControlLine::FailedEpoch(_))) => {
                    // The hub's answer: fill the RPC slot, wake the caller.
                    *self.control.rpc.lock(LockRank::ControlRpc) = Some(reply);
                    self.control.rpc_signal.notify_all();
                }
                Some(ControlLine::Event(ev)) => self.apply_control_event(ev),
                Some(ControlLine::Poison) => self.poison_self(),
                None => {}
            }
        }
        // Hub gone. If we are not deliberately shutting down, the world
        // is over: fail every blocked wait instead of hanging.
        if !self.closing.load(Ordering::SeqCst) {
            self.poison_self();
        }
    }

    /// Drive one detector broadcast through the pure mirror machine
    /// ([`protocol::apply_control`]) and perform its side effect. The
    /// `Mirror` and `Mail` acquisitions are sequential, never nested.
    fn apply_control_event(&self, ev: ControlEvent) {
        let effect;
        {
            let mut st = self.mirror.state.lock(LockRank::Mirror);
            effect = protocol::apply_control(&mut st.view, ev, LIVE);
            if let ControlEvent::Declared { rank, .. } = ev {
                if let Some(Some(reader)) = st.readers.get_mut(rank) {
                    reader.declared();
                }
            }
        }
        self.mirror.signal.notify_all();
        if let MirrorEffect::LiftCondemnation { rank } = effect {
            // The declaration outranks any condemnation the death's
            // torn streams caused: survivors probing the corpse must
            // get `RankFailed`, and the replacement must not inherit
            // the flag.
            let mut mail = self.mail.state.lock(LockRank::Mail);
            if let Some(slot) = mail.corrupt.get_mut(rank) {
                *slot = None;
            }
        }
        // Receives blocked on a now-dead source must re-evaluate.
        let _guard = self.mail.state.lock(LockRank::Mail);
        self.mail.signal.notify_all();
    }

    fn poison_self(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        {
            let _guard = self.mail.state.lock(LockRank::Mail);
            self.mail.signal.notify_all();
        }
        self.mirror.signal.notify_all();
        self.control.rpc_signal.notify_all();
        for link in &self.links {
            link.signal.notify_all();
        }
    }

    /// Send an RPC line and wait for `extract` to yield the reply.
    /// Panics on hub loss — the machine cannot continue without its
    /// detector, exactly like a poisoned in-process run.
    fn hub_rpc<R>(&self, line: &str, extract: impl Fn(&ControlLine) -> Option<R>) -> R {
        // Lock order: ControlRpc → ControlWriter (control_send nests
        // inside the held slot; see module docs).
        let mut slot = self.control.rpc.lock(LockRank::ControlRpc);
        *slot = None;
        if !self.control_send(line) {
            self.poison_self();
            panic!("hub connection lost during {line}");
        }
        let deadline = Instant::now() + self.timing.sync_timeout;
        loop {
            if let Some(r) = slot.as_ref().and_then(&extract) {
                return r;
            }
            if self.poisoned.load(Ordering::SeqCst) {
                panic!("machine poisoned: hub connection lost");
            }
            let now = Instant::now();
            assert!(now < deadline, "hub did not answer {line} in time");
            let _ = self.control.rpc_signal.wait_for(&mut slot, deadline - now);
        }
    }

    /// Block until the link to `peer` is up, or `deadline` passes.
    fn wait_link_up(
        &self,
        peer: usize,
        deadline: Instant,
        what_timed_out: impl FnOnce(usize) -> String,
    ) -> Result<(), CommError> {
        let link = &self.links[peer];
        health::wait_until(
            link.state.lock(LockRank::Link),
            &link.signal,
            &self.poisoned,
            deadline.saturating_duration_since(Instant::now()),
            |st| if st.up { Ok(()) } else { Err(peer) },
            what_timed_out,
        )
    }

    /// Build the timeout diagnosis for `src`. Takes the link lock, so
    /// the caller must **not** hold the mailbox lock (`Link` ranks
    /// *below* `Mail` — the rank checker panics on the inversion);
    /// `rejected` is the mailbox's CRC-reject count for `src`,
    /// snapshotted before that lock was released. The lock-order model
    /// checks this exact shape as `recv_timeout_diagnosis`.
    fn mail_diagnose(&self, src: usize, rejected: u64) -> String {
        let up = self.links[src].state.lock(LockRank::Link).up;
        let mut msg = format!(
            "no traffic pending from rank {src} (link {})",
            if up { "up" } else { "down" }
        );
        if rejected > 0 {
            msg.push_str(&format!(
                "; {rejected} frame(s) on this link failed CRC and were discarded \
                 (payload corrupted in flight)"
            ));
        }
        msg
    }
}

fn parse_arg(v: Option<&str>) -> Option<u64> {
    v.and_then(|s| s.parse().ok())
}

/// Dial with exponential backoff + jitter, counting every attempt.
fn dial_retry(
    addr: &str,
    rank: usize,
    incarnation: u64,
    counters: &WireCounters,
) -> std::io::Result<TcpStream> {
    let mut last = None;
    for attempt in 0..DIAL_ATTEMPTS {
        counters.connect_attempts.fetch_add(1, Ordering::Relaxed);
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        std::thread::sleep(dial_delay(rank, incarnation, attempt));
    }
    Err(last.unwrap_or_else(|| io_err("dial", "no attempts made")))
}

/// Parse the hub's `WELCOME … READY` block: timing, peer addresses,
/// and the detector snapshot seeding the mirror.
#[allow(clippy::type_complexity)]
fn read_welcome(
    reader: &mut BufReader<TcpStream>,
    ranks: usize,
) -> std::io::Result<(WireTiming, Vec<Option<(u64, String)>>, Vec<PeerView>)> {
    let mut timing = None;
    let mut peers: Vec<Option<(u64, String)>> = vec![None; ranks];
    let mut mirror = vec![PeerView::INITIAL; ranks];
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io_err("hub handshake", "EOF before READY"));
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("WELCOME") => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| io_err("WELCOME", "missing ranks"))?;
                if n != ranks {
                    return Err(io_err("WELCOME", format!("world size {n}, expected {ranks}")));
                }
                let ms = |v: Option<&str>, what: &str| -> std::io::Result<Duration> {
                    v.and_then(|s| s.parse::<u64>().ok())
                        .map(Duration::from_millis)
                        .ok_or_else(|| io_err("WELCOME", format!("missing {what}")))
                };
                timing = Some(WireTiming {
                    recv_deadline: ms(it.next(), "watchdog")?,
                    scan_interval: ms(it.next(), "scan interval")?,
                    sync_timeout: ms(it.next(), "sync timeout")?,
                });
            }
            Some("PEER") => {
                let r = parse_arg(it.next())
                    .ok_or_else(|| io_err("PEER", "missing rank"))? as usize;
                let inc = parse_arg(it.next()).ok_or_else(|| io_err("PEER", "missing inc"))?;
                let addr = it
                    .next()
                    .ok_or_else(|| io_err("PEER", "missing addr"))?
                    .to_string();
                if r < ranks {
                    peers[r] = Some((inc, addr));
                }
            }
            Some("STATE") => {
                let r = parse_arg(it.next())
                    .ok_or_else(|| io_err("STATE", "missing rank"))? as usize;
                let status = protocol::parse_status(it.next().unwrap_or(""));
                let epoch = parse_arg(it.next()).unwrap_or(0);
                let failed_epoch = parse_arg(it.next()).unwrap_or(0);
                if r < ranks {
                    mirror[r] = PeerView {
                        status,
                        epoch,
                        failed_epoch,
                    };
                }
            }
            Some("READY") => break,
            _ => {}
        }
    }
    let timing = timing.ok_or_else(|| io_err("hub handshake", "no WELCOME before READY"))?;
    Ok((timing, peers, mirror))
}

impl Transport for SocketTransport {
    fn is_wire(&self) -> bool {
        true
    }

    fn watchdog(&self) -> Option<Duration> {
        Some(self.timing.recv_deadline)
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
        debug_assert_eq!(src, self.cfg.rank, "socket transport sends only as itself");
        let (type_hash, data) = match payload {
            WirePayload::Bytes { type_hash, data } => (type_hash, data),
            WirePayload::Boxed(_) => unreachable!("socket transport is byte-oriented"),
        };
        self.payload_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.class.count(tag, bytes);
        let dst_status = { self.mirror.state.lock(LockRank::Mirror).view[dst].status };
        match protocol::send_route(src, dst, dst_status) {
            SendRoute::SelfDeliver => {
                // Self-sends skip the wire entirely (as MPI does).
                let mut mail = self.mail.state.lock(LockRank::Mail);
                mail.ready
                    .entry((context, src, tag))
                    .or_default()
                    .push_back((type_hash, data));
                drop(mail);
                self.mail.signal.notify_all();
            }
            SendRoute::DropDead => {
                // A peer the detector declared dead gets no traffic: its
                // backlog would only leak into the replacement.
                // `Rebuilding` is NOT dead — the replacement is already
                // registered and the recovery collectives must reach it
                // (it is marked recovered only after they complete, so
                // holding traffic until then would deadlock the very
                // collective that rebuilds it).
                self.counters
                    .frames_dropped_dead
                    .fetch_add(1, Ordering::Relaxed);
            }
            SendRoute::Link => {
                let link = &self.links[dst];
                // Lock order: LinkWriter → Link (see module docs).
                let mut writer = link.writer.lock(LockRank::LinkWriter);
                let mut st = link.state.lock(LockRank::Link);
                let msg = PendingMsg {
                    context,
                    tag,
                    type_hash,
                    payload: data,
                    incarnation: st.session.peer_incarnation,
                };
                if st.up {
                    drop(st);
                    let _ = self.write_frame(dst, &mut writer, msg);
                } else {
                    // Link down: buffer until reconnect (drained or
                    // dropped by `register_link` depending on the
                    // peer's incarnation).
                    st.pending.push_back(msg);
                }
            }
        }
    }

    fn recv(
        &self,
        me: usize,
        src: usize,
        context: u64,
        tag: u64,
        timeout: Option<Duration>,
    ) -> Result<WirePayload, CommError> {
        debug_assert_eq!(me, self.cfg.rank, "socket transport receives only as itself");
        let key = (context, src, tag);
        let start = Instant::now();
        let deadline = timeout.map(|t| start + t);
        let mut mail = self.mail.state.lock(LockRank::Mail);
        loop {
            // One consistent snapshot of everything the verdict needs,
            // then the single decision point: protocol::recv_gate owns
            // the precedence order (queued → poison → declaration →
            // condemnation → wait); this loop only executes it.
            let queued = mail.ready.get(&key).is_some_and(|q| !q.is_empty());
            let (status, failed_epoch, draining) = if src == me {
                (RankStatus::Healthy, 0, false)
            } else {
                // Lock order: Mail → Mirror (see module docs). Only the
                // hub's declaration — never a socket error — turns a
                // silent peer into `RankFailed`.
                let mirror = self.mirror.state.lock(LockRank::Mirror);
                let draining = mirror.readers[src]
                    .as_ref()
                    .is_some_and(|r| r.drain == Drain::Draining);
                (
                    mirror.view[src].status,
                    mirror.view[src].failed_epoch,
                    draining,
                )
            };
            let verdict = match protocol::recv_gate(
                queued,
                self.poisoned.load(Ordering::SeqCst),
                src == me,
                status,
                failed_epoch,
                mail.corrupt[src].is_some(),
                LIVE,
            ) {
                // The declaration waits until the dead link's reader has
                // queued what the kernel held (see `Reader`).
                RecvVerdict::RankFailed { .. } if draining => RecvVerdict::Wait,
                verdict => verdict,
            };
            match verdict {
                RecvVerdict::Deliver => {
                    let (type_hash, data) = mail
                        .ready
                        .get_mut(&key)
                        .and_then(VecDeque::pop_front)
                        .expect("gate saw a queued payload");
                    return Ok(WirePayload::Bytes { type_hash, data });
                }
                RecvVerdict::Poisoned => return Err(CommError::Poisoned),
                RecvVerdict::RankFailed { epoch } => {
                    return Err(CommError::RankFailed { rank: src, epoch });
                }
                RecvVerdict::Corrupt => {
                    let detail = mail.corrupt[src].clone().unwrap_or_default();
                    return Err(CommError::CorruptDetected { rank: src, detail });
                }
                RecvVerdict::Wait => match deadline {
                    None => self.mail.signal.wait(&mut mail),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            // Lock order: the diagnosis takes the link
                            // lock, which ranks *below* the mailbox lock
                            // (`register_link` nests them the other way)
                            // — release the mailbox first.
                            let rejected = mail.rejected[src];
                            drop(mail);
                            let detail = self.mail_diagnose(src, rejected);
                            return Err(CommError::Timeout {
                                context,
                                src,
                                tag,
                                waited: now - start,
                                detail,
                            });
                        }
                        let _ = self.mail.signal.wait_for(&mut mail, d - now);
                    }
                },
            }
        }
    }

    fn flush_holdback(&self, _me: usize) {
        // No fault injector on this backend; nothing is ever held back.
    }

    fn shutdown(&self, _me: usize) {
        self.closing.store(true, Ordering::SeqCst);
        // Frame writes are synchronous, so every accepted send is
        // already in the kernel buffer; half-close each link so peers
        // read a clean EOF after draining it.
        for link in &self.links {
            let mut writer = link.writer.lock(LockRank::LinkWriter);
            if let Some(w) = writer.take() {
                let _ = w.shutdown(Shutdown::Write);
            }
            link.state.lock(LockRank::Link).up = false;
        }
        let _ = self.control_send(&ClientLine::Goodbye.render());
        let w = self.control.writer.lock(LockRank::ControlWriter);
        let _ = w.shutdown(Shutdown::Write);
    }

    fn alloc_context_base(&self) -> u64 {
        self.next_context.fetch_add(1, Ordering::Relaxed)
    }

    fn poison(&self) {
        let _ = self.control_send(&ClientLine::Poisoned.render());
        self.poison_self();
    }

    fn traffic_stats(&self) -> TrafficStats {
        let mut bytes_sent = vec![0u64; self.cfg.ranks];
        let mut msgs_sent = vec![0u64; self.cfg.ranks];
        bytes_sent[self.cfg.rank] = self.payload_bytes.load(Ordering::Relaxed);
        msgs_sent[self.cfg.rank] = self.msgs_sent.load(Ordering::Relaxed);
        TrafficStats {
            bytes_sent,
            msgs_sent,
            by_class: self.class.snapshot(),
            faults: FaultStats::default(),
            wire: self.counters.snapshot(),
        }
    }

    fn beat(&self, me: usize, epoch: u64) -> RankStatus {
        debug_assert_eq!(me, self.cfg.rank);
        // Synchronous: a rank scheduled to die at this step is SIGKILLed
        // by the hub *instead of* an ack, so it can never proceed into
        // the step — its recorded epoch stays one behind, exactly like
        // the in-process silent kill.
        self.hub_rpc(&ClientLine::Beat { epoch }.render(), |reply| match reply {
            ControlLine::BeatAck(status) => Some(*status),
            _ => None,
        })
    }

    fn wait(&self, me: usize, gate: Gate<'_>) -> Result<EpochReport, CommError> {
        debug_assert_eq!(me, self.cfg.rank);
        if gate == Gate::OwnDeath {
            // The hub acknowledges the death (`Failed → Rebuilding`),
            // broadcasts REBUILDING to the survivors, and returns the
            // last epoch the dead incarnation completed.
            let epoch = self.hub_rpc(&ClientLine::AwaitFailed.render(), |reply| match reply {
                ControlLine::FailedEpoch(epoch) => Some(*epoch),
                _ => None,
            });
            return Ok(EpochReport { epoch, failed: Vec::new() });
        }
        let deadline = Instant::now() + self.timing.sync_timeout;
        let report = health::wait_until(
            self.mirror.state.lock(LockRank::Mirror),
            &self.mirror.signal,
            &self.poisoned,
            self.timing.sync_timeout,
            |st: &MirrorState| gate.poll(&st.view, me),
            |rank| gate.stalled(rank),
        )?;
        if let Gate::Rebirth(failed) = gate {
            // Belt and braces: the replacement dials the mesh *before*
            // its AWAITFAILED, so by the time REBUILDING reached us its
            // link is normally already up — but wait for it explicitly
            // anyway, on what is left of the one deadline.
            for &r in failed.iter().filter(|&&r| r != self.cfg.rank) {
                self.wait_link_up(r, deadline, |r| {
                    format!("replacement for rank {r} never connected")
                })?;
            }
        }
        Ok(report)
    }

    fn apply(&self, me: usize, ev: ControlEvent) {
        let line = match ev {
            // Optimistic local apply of the rank's own change; the hub's
            // broadcast confirms it on everyone (idempotent on us).
            ControlEvent::Recovered { rank, epoch } => {
                debug_assert_eq!(rank, me);
                self.apply_control_event(ev);
                ClientLine::Recovered { epoch }
            }
            ControlEvent::Parked { rank, step } => {
                debug_assert_eq!(rank, me);
                self.apply_control_event(ev);
                ClientLine::Retire { step }
            }
            // No optimistic apply: the admission frontier must come from
            // the hub's detector, so wait for the ACTIVATED broadcast.
            ControlEvent::Activated { rank, epoch } => ClientLine::Activate { rank, epoch },
            other => unreachable!("{other:?} is the detector's verdict, not a rank's request"),
        };
        let _ = self.control_send(&line.render());
    }

    fn view(&self) -> Vec<PeerView> {
        self.mirror.state.lock(LockRank::Mirror).view.clone()
    }
}
