//! The launcher-side rendezvous and failure authority for a
//! multi-process ([`crate::socket`]) world.
//!
//! The hub is **not a rank**. It is the parent process that:
//!
//! - spawns one OS child per rank and barriers their `HELLO`s (rank-zero
//!   rendezvous: no child proceeds until every data address is known),
//! - owns the *authoritative* [`HealthState`] — children tick it over
//!   their control streams and mirror its verdicts from broadcasts, so
//!   every survivor observes the same failure declarations in the same
//!   order,
//! - enforces the [`FaultPlan`]: a rank scheduled to die at step `s` is
//!   `SIGKILL`ed the moment its `BEAT s` arrives, *instead of* the ack —
//!   a real process death at exactly the same lifecycle point as the
//!   in-process backend's silent kill (the victim's recorded epoch stays
//!   `s - 1`),
//! - optionally respawns a declared-dead rank as a blank **replacement**
//!   process with a bumped incarnation number, which rejoins through the
//!   same `OwnDeath` wait → rehome → `Recovered` protocol the in-process
//!   recovery stack uses.

use crate::fault::FaultPlan;
use crate::health::{HealthState, HeartbeatConfig, RankStatus};
use crate::protocol::{status_name, ClientLine, ControlEvent, ControlLine, Gate};
use crate::sync::{LockRank, Mutex};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Launcher configuration for one multi-process world.
pub struct HubOptions {
    /// Number of ranks (= child processes).
    pub ranks: usize,
    /// Detector tuning shared with every child.
    pub heartbeat: HeartbeatConfig,
    /// Fault schedule; only the kill target is meaningful here (message
    /// faults are physical on a real wire, not injected).
    pub plan: FaultPlan,
    /// Respawn a declared-dead rank as a blank replacement?
    pub respawn: bool,
    /// Receive deadline handed to every child (its transport watchdog).
    pub watchdog: Duration,
    /// Initially active world size (elastic runs): ranks `active..ranks`
    /// are pre-parked in the detector *before* rendezvous, so a reserve
    /// child's mirror is seeded `parked` by its WELCOME and it can never
    /// be suspected while waiting for a grow. `None` = all active.
    pub active: Option<usize>,
}

impl HubOptions {
    /// Defaults for `ranks` ranks: default heartbeat tuning, no faults,
    /// respawn on, 10 s watchdog, whole world active.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        HubOptions {
            ranks,
            heartbeat: HeartbeatConfig::default(),
            plan: FaultPlan::none(),
            respawn: true,
            watchdog: Duration::from_secs(10),
            active: None,
        }
    }
}

/// One timestamped lifecycle event, in hub order. Soak artifacts use
/// these to reconstruct what the world did; `tests/multiprocess.rs`
/// asserts a detection-latency bound from the `killed → declared` gap.
#[derive(Debug, Clone)]
pub struct HubEvent {
    /// `"killed"`, `"declared"`, `"respawned"`, `"parked"`, or
    /// `"activated"`.
    pub kind: &'static str,
    /// The rank the event happened to.
    pub rank: usize,
    /// Step/epoch the event is tied to: the last completed epoch for
    /// `declared`, the retiring rank's step for `parked`, the admission
    /// epoch for `activated` (only a parked rank turning active; the
    /// end-of-run release is not an event); 0 where not applicable.
    pub step: u64,
    /// Wall-clock milliseconds since the hub started.
    pub wall_ms: u64,
}

/// What happened to the world, as the hub saw it.
#[derive(Debug, Default, Clone)]
pub struct HubReport {
    /// `(rank, exit code)` for children that exited nonzero *without*
    /// having been killed by the hub.
    pub exit_failures: Vec<(usize, i32)>,
    /// Timestamped lifecycle timeline (kills, declarations, respawns,
    /// parks, activations) in the order the hub saw them.
    pub timeline: Vec<HubEvent>,
}

impl HubReport {
    /// `(rank, step)` of every timeline event of `kind`, in hub order:
    /// `"killed"` gives each scheduled SIGKILL's step, `"declared"` each
    /// declaration's last completed epoch, `"respawned"` each
    /// replacement process.
    #[must_use]
    pub fn events(&self, kind: &str) -> Vec<(usize, u64)> {
        self.timeline
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.rank, e.step))
            .collect()
    }

    /// Did every surviving child exit cleanly?
    #[must_use]
    pub fn clean(&self) -> bool {
        self.exit_failures.is_empty()
    }
}

/// One child's control connection (line protocol both ways).
struct ClientConn {
    stream: TcpStream,
    incarnation: u64,
    data_addr: String,
}

struct ChildSlot {
    child: Option<Child>,
    incarnation: u64,
    /// `Some(code)` once reaped; signal deaths report code `-1`.
    exit: Option<i32>,
    /// The hub SIGKILLed this incarnation (so its exit is expected).
    hub_killed: bool,
}

/// Lock order (see [`crate::sync`]): `HubChildren` → `HubClients` →
/// `HubReport` → `HubSpawn`, with the shared-leaf `Health` lock last.
/// The deepest real nestings are `welcome_block` (`HubClients →
/// Health`) and the reaper (`HubChildren → HubReport`).
struct HubState {
    opts: HubOptions,
    health: HealthState,
    clients: Vec<Mutex<Option<ClientConn>>>,
    children: Mutex<Vec<ChildSlot>>,
    report: Mutex<HubReport>,
    shutdown: AtomicBool,
    started: Instant,
}

impl HubState {
    /// Stamp one lifecycle event onto the report timeline.
    fn stamp(&self, kind: &'static str, rank: usize, step: u64) {
        let wall_ms = self.started.elapsed().as_millis() as u64;
        self.report.lock(LockRank::HubReport).timeline.push(HubEvent {
            kind,
            rank,
            step,
            wall_ms,
        });
    }
    /// Write one line to rank `dst`'s control stream (best effort — a
    /// dead child's stream just errors and is dropped).
    fn send_to(&self, dst: usize, line: &str) {
        let mut slot = self.clients[dst].lock(LockRank::HubClients);
        if let Some(conn) = slot.as_mut() {
            if writeln!(&mut conn.stream, "{line}").is_err() {
                *slot = None;
            }
        }
    }

    /// Broadcast one detector event to every child, via the shared
    /// renderer the children's parser round-trips with.
    fn broadcast_event(&self, ev: ControlEvent) {
        self.broadcast(&ControlLine::Event(ev).render());
    }

    /// A child-requested membership change: apply it to the
    /// authoritative detector, then let every mirror follow.
    fn commit(&self, ev: ControlEvent) {
        self.health.apply(ev);
        self.broadcast_event(ev);
    }

    fn broadcast(&self, line: &str) {
        for dst in 0..self.opts.ranks {
            self.send_to(dst, line);
        }
    }

    /// The `WELCOME … READY` block: world timing, every peer's data
    /// address, and a detector snapshot to seed the child's mirror.
    fn welcome_block(&self) -> String {
        let hb = &self.opts.heartbeat;
        let mut out = format!(
            "WELCOME {} {} {} {}\n",
            self.opts.ranks,
            self.opts.watchdog.as_millis(),
            hb.scan_interval.as_millis(),
            hb.sync_timeout.as_millis(),
        );
        for rank in 0..self.opts.ranks {
            // Lock order: HubClients → Health (see crate::sync).
            let client = self.clients[rank].lock(LockRank::HubClients);
            if let Some(conn) = client.as_ref() {
                out.push_str(&format!(
                    "PEER {rank} {} {}\n",
                    conn.incarnation, conn.data_addr
                ));
            }
            let state = self.health.view(rank);
            out.push_str(&format!(
                "STATE {rank} {} {} {}\n",
                status_name(state.status),
                state.epoch,
                state.failed_epoch
            ));
        }
        out.push_str("READY\n");
        out
    }

    /// SIGKILL rank `rank`'s current child (the fault plan fired).
    fn kill_child(&self, rank: usize, step: u64) {
        let mut children = self.children.lock(LockRank::HubChildren);
        let slot = &mut children[rank];
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
            slot.exit = Some(-1);
            slot.hub_killed = true;
            slot.child = None;
        }
        drop(children);
        self.stamp("killed", rank, step);
    }

    /// Serve one child's control stream until EOF. `incarnation` is the
    /// incarnation that opened this stream — a later replacement's
    /// stream supersedes it.
    fn serve_client(&self, rank: usize, incarnation: u64, reader: BufReader<TcpStream>) {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            // Any control traffic is proof of life.
            self.health.tick(rank);
            match ClientLine::parse(&line) {
                Some(ClientLine::Beat { epoch }) => {
                    if self.opts.plan.should_kill(rank, epoch) {
                        // The scheduled death: a real SIGKILL in place
                        // of the ack. The victim never proceeds into
                        // this epoch, so its record stays at `epoch-1` —
                        // byte-for-byte the in-process kill semantics.
                        self.kill_child(rank, epoch);
                        return;
                    }
                    // Only an accepted beat advances the world: a fenced
                    // or parked rank gets its status back and no `EPOCH`.
                    let (status, accepted) = self.health.beat(rank, epoch);
                    self.send_to(rank, &ControlLine::BeatAck(status).render());
                    if let Some(ev) = accepted {
                        self.broadcast_event(ev);
                    }
                }
                Some(ClientLine::Tick) => {}
                Some(ClientLine::AwaitFailed) => {
                    match self.health.wait(rank, Gate::OwnDeath, &self.shutdown) {
                        Ok(report) => {
                            self.broadcast_event(ControlEvent::Rebuilding { rank });
                            self.send_to(rank, &ControlLine::FailedEpoch(report.epoch).render());
                        }
                        Err(_) => {
                            // Shutdown or a detector that never declared
                            // this rank: the replacement cannot proceed.
                            self.broadcast(&ControlLine::Poison.render());
                            return;
                        }
                    }
                }
                Some(ClientLine::Recovered { epoch }) => {
                    self.commit(ControlEvent::Recovered { rank, epoch });
                }
                Some(ClientLine::Poisoned) => {
                    // A child panicked: poison the world like the
                    // in-process machine does.
                    self.broadcast(&ControlLine::Poison.render());
                }
                Some(ClientLine::Retire { step }) => {
                    // Deliberate shrink: park, never declare — parking
                    // is not a failure (protocol bug #4).
                    self.stamp("parked", rank, step);
                    self.commit(ControlEvent::Parked { rank, step });
                }
                Some(ClientLine::Activate { rank: target, epoch }) => {
                    // Grow: readmit a parked rank at the current epoch
                    // frontier. `ACTIVATED` is a no-op on a non-parked
                    // record, so a failed rank cannot be resurrected, and
                    // the end-of-run release (`u64::MAX`) wakes a parked
                    // rank without admitting it: only a parked record
                    // turning active is stamped.
                    if epoch != u64::MAX && self.health.view(target).status == RankStatus::Parked {
                        self.stamp("activated", target, epoch);
                    }
                    self.commit(ControlEvent::Activated { rank: target, epoch });
                }
                Some(ClientLine::Goodbye) => return,
                None => {}
            }
            // A replacement stream supersedes this reader.
            let current = self.clients[rank]
                .lock(LockRank::HubClients)
                .as_ref()
                .map(|c| c.incarnation);
            if current != Some(incarnation) {
                return;
            }
        }
    }
}

/// A parsed `HELLO`: `(rank, incarnation, data_addr)` plus the control
/// stream it arrived on and its buffered read half.
type Hello = (usize, u64, String, TcpStream, BufReader<TcpStream>);

/// How long a freshly accepted connection gets to complete its `HELLO`
/// line before the hub drops it. Accepted sockets do not inherit the
/// listener's nonblocking flag, so without this bound a client that
/// connects and then dies (or a stray dial) would wedge the rendezvous
/// or the late-joiner accept thread forever.
const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// Accept one control connection and parse its `HELLO`.
fn accept_hello(
    listener: &TcpListener,
    deadline: Instant,
    shutdown: &AtomicBool,
) -> std::io::Result<Option<Hello>> {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                if stream.set_read_timeout(Some(HELLO_TIMEOUT)).is_err() {
                    continue;
                }
                let mut reader = BufReader::new(stream.try_clone()?);
                let mut line = String::new();
                if reader.read_line(&mut line).is_err() {
                    continue; // handshake never completed; drop it
                }
                // After the handshake this stream serves the child with
                // blocking reads; the clone shares the socket, so lift
                // the timeout again before handing it on.
                if stream.set_read_timeout(None).is_err() {
                    continue;
                }
                let mut it = line.split_whitespace();
                if it.next() != Some("HELLO") {
                    continue; // stray connection; drop it
                }
                let Some(rank) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    continue;
                };
                let Some(inc) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    continue;
                };
                let Some(addr) = it.next().map(str::to_string) else {
                    continue;
                };
                return Ok(Some((rank, inc, addr, stream, reader)));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::other(
                        "hub rendezvous: children never connected",
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run one multi-process world to completion.
///
/// `spawn(rank, incarnation, hub_addr)` must start the child process for
/// `rank` (the launcher typically re-execs itself with `HACC_HUB`,
/// `HACC_RANK`, `HACC_RANKS`, `HACC_INCARNATION` in the environment).
/// Blocks until every child process — including respawned replacements —
/// has exited, then reports what happened.
pub fn run(
    opts: HubOptions,
    mut spawn: impl FnMut(usize, u64, &str) -> std::io::Result<Child> + Send,
) -> std::io::Result<HubReport> {
    let ranks = opts.ranks;
    assert!(ranks > 0, "hub needs at least one rank");
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let hub_addr = listener.local_addr()?.to_string();

    let state = HubState {
        health: HealthState::new(ranks, Some(opts.heartbeat)),
        clients: (0..ranks)
            .map(|_| Mutex::new(LockRank::HubClients, None))
            .collect(),
        children: Mutex::new(LockRank::HubChildren, Vec::new()),
        report: Mutex::new(LockRank::HubReport, HubReport::default()),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        opts,
    };

    // Elastic worlds: park the reserve before any child connects, so
    // the WELCOME snapshot seeds every mirror with the parked set and
    // the monitor can never suspect a rank that was never admitted.
    if let Some(active) = state.opts.active {
        assert!(
            active >= 1 && active <= ranks,
            "active world must be within [1, {ranks}]"
        );
        for rank in active..ranks {
            state.health.apply(ControlEvent::Parked { rank, step: 0 });
        }
    }

    {
        let mut children = state.children.lock(LockRank::HubChildren);
        for rank in 0..ranks {
            children.push(ChildSlot {
                child: Some(spawn(rank, 0, &hub_addr)?),
                incarnation: 0,
                exit: None,
                hub_killed: false,
            });
        }
    }
    let spawn = Mutex::new(LockRank::HubSpawn, spawn);

    std::thread::scope(|scope| -> std::io::Result<()> {
        // Rendezvous barrier: collect every rank's HELLO before a single
        // WELCOME goes out, so all data addresses are known to everyone.
        let deadline = Instant::now() + state.opts.heartbeat.sync_timeout;
        let mut pending = Vec::new();
        let mut joined = 0usize;
        while joined < ranks {
            let Some((rank, inc, addr, stream, reader)) =
                accept_hello(&listener, deadline, &state.shutdown)?
            else {
                return Ok(());
            };
            if rank >= ranks || inc != 0 {
                continue;
            }
            let fresh = state.clients[rank]
                .lock(LockRank::HubClients)
                .replace(ClientConn {
                    stream,
                    incarnation: inc,
                    data_addr: addr,
                })
                .is_none();
            if fresh {
                joined += 1;
            }
            pending.push((rank, inc, reader));
        }
        let block = state.welcome_block();
        for rank in 0..ranks {
            state.send_to(rank, block.trim_end());
        }
        for (rank, inc, reader) in pending {
            let st = &state;
            scope.spawn(move || st.serve_client(rank, inc, reader));
        }

        // Late joiners: replacement processes spawned by the monitor.
        let accept_state = &state;
        let accept_listener = &listener;
        scope.spawn(move || {
            while !accept_state.shutdown.load(Ordering::SeqCst) {
                let deadline = Instant::now() + Duration::from_millis(200);
                match accept_hello(accept_listener, deadline, &accept_state.shutdown) {
                    Ok(Some((rank, inc, addr, stream, reader))) => {
                        if rank >= accept_state.opts.ranks {
                            continue;
                        }
                        *accept_state.clients[rank].lock(LockRank::HubClients) =
                            Some(ClientConn {
                                stream,
                                incarnation: inc,
                                data_addr: addr.clone(),
                            });
                        // The replacement gets the current world picture;
                        // survivors learn its fresh data address.
                        let block = accept_state.welcome_block();
                        accept_state.send_to(rank, block.trim_end());
                        for peer in 0..accept_state.opts.ranks {
                            if peer != rank {
                                accept_state
                                    .send_to(peer, &format!("PEER {rank} {inc} {addr}"));
                            }
                        }
                        scope.spawn(move || accept_state.serve_client(rank, inc, reader));
                    }
                    Ok(None) => return,
                    Err(_) => {} // deadline tick; loop re-checks shutdown
                }
            }
        });

        // The failure monitor: scan, declare, respawn.
        let monitor_state = &state;
        let spawn_cell = &spawn;
        let hub_addr = hub_addr.clone();
        scope.spawn(move || {
            let interval = monitor_state.health.scan_interval();
            while !monitor_state.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(interval);
                for (rank, failed_epoch) in monitor_state.health.scan() {
                    monitor_state.stamp("declared", rank, failed_epoch);
                    monitor_state.broadcast_event(ControlEvent::Declared { rank, failed_epoch });
                    if !monitor_state.opts.respawn {
                        continue;
                    }
                    let incarnation = {
                        let mut children =
                            monitor_state.children.lock(LockRank::HubChildren);
                        let slot = &mut children[rank];
                        // Reap a crash the hub didn't cause before the
                        // slot is reused.
                        if let Some(mut old) = slot.child.take() {
                            let _ = old.kill();
                            let _ = old.wait();
                            slot.exit = Some(-1);
                        }
                        slot.incarnation + 1
                    };
                    let child = spawn_cell.lock(LockRank::HubSpawn)(
                        rank,
                        incarnation,
                        &hub_addr,
                    );
                    match child {
                        Ok(child) => {
                            let mut children =
                                monitor_state.children.lock(LockRank::HubChildren);
                            children[rank] = ChildSlot {
                                child: Some(child),
                                incarnation,
                                exit: None,
                                hub_killed: false,
                            };
                            monitor_state.stamp("respawned", rank, failed_epoch);
                        }
                        Err(_) => monitor_state.broadcast(&ControlLine::Poison.render()),
                    }
                }
            }
        });

        // Reap children until the whole world (including replacements)
        // has exited.
        loop {
            let mut all_done = true;
            {
                // Lock order: HubChildren → HubReport (10 → 16).
                let mut children = state.children.lock(LockRank::HubChildren);
                for (rank, slot) in children.iter_mut().enumerate() {
                    if let Some(child) = slot.child.as_mut() {
                        match child.try_wait() {
                            Ok(Some(status)) => {
                                let code = status.code().unwrap_or(-1);
                                slot.exit = Some(code);
                                slot.child = None;
                                if code != 0 && !slot.hub_killed {
                                    state
                                        .report
                                        .lock(LockRank::HubReport)
                                        .exit_failures
                                        .push((rank, code));
                                }
                            }
                            Ok(None) => all_done = false,
                            Err(_) => {
                                slot.exit = Some(-1);
                                slot.child = None;
                            }
                        }
                    }
                }
            }
            if all_done {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        state.shutdown.store(true, Ordering::SeqCst);
        state.health.wake();
        Ok(())
    })?;

    Ok(state.report.into_inner())
}
