//! Rank-failure detection: heartbeats, the lifecycle state machine, and
//! the epoch barrier that turns a silent death into a reported event.
//!
//! The paper-scale machine (96 BG/Q racks) treats component failure as
//! an operational certainty; PR 1's answer was the bluntest possible —
//! a killed rank poisons the machine and the whole run rolls back to a
//! checkpoint. This module adds the detection layer that makes
//! *localized* recovery possible: every rank heartbeats as a side
//! effect of its normal sends plus an explicit per-step epoch beat, a
//! monitor thread scans for silence, and survivors observe a detected
//! failure as a [`crate::CommError::RankFailed`] value (from a blocked
//! receive) or as the `failed` list of an epoch report — never as a
//! hang.
//!
//! Lifecycle per rank: `Healthy → Suspected → Failed → Rebuilding →
//! Healthy`. Two rules keep detection sound:
//!
//! - **Epoch gating.** A rank is only suspectable while its epoch is
//!   *behind* the frontier (`epoch[r] < max_epoch`): some peer has
//!   already beaten a later epoch, so `r` ought to have been heard
//!   from. A rank that is merely deep in send-free compute sits *at*
//!   the frontier (its peers block in an epoch barrier ([`Gate::Epoch`])
//!   waiting for it and cannot advance `max_epoch`), so it is never
//!   falsely suspected, no matter how slow.
//! - **Fencing.** Once the monitor declares a rank `Failed`, a late
//!   heartbeat does not resurrect it — [`HealthState::beat`] returns
//!   the `Failed` status and the rank must discard its state and rejoin
//!   as a replacement ("if you are declared dead, you are dead", as in
//!   ULFM). A heartbeat that lands *before* the declaration clears the
//!   suspicion instead; the loom model in `tests/loom.rs` proves both
//!   orderings of that race behave.
//!
//! Everything here uses only the [`crate::sync`] shim (no wall clock in
//! the detector core — staleness is counted in monitor *scans*), so the
//! state machine is loom-modelable and deterministic under the checker.

use std::time::Duration;

use crate::protocol::{self, ControlEvent, Gate, Mutations, PeerView};
use crate::sync::{
    AtomicBool, AtomicU64, Condvar, Instant, LockRank, Mutex, MutexGuard, Ordering,
};
use crate::CommError;

/// Tuning for the failure detector.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatConfig {
    /// Monitor scan period. Detection latency is roughly
    /// `(suspect_scans + confirm_scans) · scan_interval`.
    pub scan_interval: Duration,
    /// Consecutive stale scans (no heartbeat while epoch-behind) before
    /// a `Healthy` rank becomes `Suspected`.
    pub suspect_scans: u32,
    /// Further consecutive stale scans before a `Suspected` rank is
    /// declared `Failed`.
    pub confirm_scans: u32,
    /// Deadline for the blocking waits ([`HealthState::wait`]); expiry
    /// surfaces as a diagnostic [`CommError::Timeout`] instead of a hang.
    pub sync_timeout: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        // Generous staleness budget (8 scans ≈ 200 ms) so an OS-level
        // scheduling hiccup on a loaded CI box does not fence a live
        // rank; a false fence is *safe* (the rank rejoins and is
        // rebuilt) but costs a recovery.
        HeartbeatConfig {
            scan_interval: Duration::from_millis(25),
            suspect_scans: 4,
            confirm_scans: 4,
            sync_timeout: Duration::from_secs(30),
        }
    }
}

/// Where a rank is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankStatus {
    /// Alive as far as the detector knows.
    Healthy,
    /// Epoch-behind and silent for `suspect_scans` scans; cleared by
    /// any heartbeat, hardened to `Failed` by continued silence.
    Suspected,
    /// Declared dead by the monitor. Fenced: its own late heartbeat
    /// cannot undo this.
    Failed,
    /// Its (respawned) thread has acknowledged the death and is being
    /// reconstructed; cleared to `Healthy` by
    /// a `Recovered` event.
    Rebuilding,
    /// Deliberately outside the active world (elastic capacity held in
    /// reserve, or retired by a shrink). Exempt from suspicion, skipped
    /// by epoch barriers, and *never* part of the dead set — parking is
    /// an administrative act, not a failure. Cleared to `Healthy` by
    /// an `Activated` event.
    Parked,
}

/// Failures visible at an epoch boundary: the ranks every survivor must
/// recover before stepping past `epoch`.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The epoch all live ranks have now reached.
    pub epoch: u64,
    /// `(rank, last epoch it completed)` for every rank currently dead
    /// (`Failed` or `Rebuilding`) and behind this epoch.
    pub failed: Vec<(usize, u64)>,
}

/// What the scan remembers about one rank between passes. The rank's
/// membership record itself is a [`PeerView`].
#[derive(Debug, Clone, Copy, Default)]
struct RankHealth {
    /// Heartbeat counter value at the last monitor scan.
    observed_tick: u64,
    /// Consecutive scans with no heartbeat while epoch-behind.
    stale_scans: u32,
}

/// Everything behind the detector lock: the membership records and the
/// scan's bookkeeping, index-aligned by rank.
struct Detector {
    view: Vec<PeerView>,
    book: Vec<RankHealth>,
}

impl Detector {
    /// The one mutation path of the records. A change of record starts
    /// the rank's staleness count afresh, so scans that elapsed in its
    /// previous state never count against the new one.
    fn apply(&mut self, ev: ControlEvent) {
        let rank = ev.rank();
        let before = self.view[rank];
        protocol::apply_control(&mut self.view, ev, &Mutations::NONE);
        if self.view[rank] != before {
            self.book[rank].stale_scans = 0;
        }
    }
}

/// Block on `signal` until `gate` passes over the state `st` guards
/// (the caller takes the lock, so every lock site names its rank). The
/// one wait loop of the membership protocol, shared by the detector
/// here and its mirror in [`crate::socket`]: poison check → gate →
/// deadline → wait. `gate` returns `Err(rank)` naming the rank it is
/// still waiting on; expiry of `timeout` surfaces as a
/// [`CommError::Timeout`] blaming that rank with `what_timed_out(rank)`.
pub(crate) fn wait_until<S, T>(
    mut st: MutexGuard<'_, S>,
    signal: &Condvar,
    poisoned: &AtomicBool,
    timeout: Duration,
    mut gate: impl FnMut(&S) -> Result<T, usize>,
    what_timed_out: impl FnOnce(usize) -> String,
) -> Result<T, CommError> {
    let start = Instant::now();
    let deadline = start + timeout;
    loop {
        // SeqCst pairs with `Shared::poison`, which stores the flag and
        // then takes the detector lock before notifying — either this
        // check sees the flag or the upcoming wait is woken (no
        // lost-wakeup window).
        if poisoned.load(Ordering::SeqCst) {
            return Err(CommError::Poisoned);
        }
        let waiting_on = match gate(&st) {
            Ok(passed) => return Ok(passed),
            Err(waiting_on) => waiting_on,
        };
        let now = Instant::now();
        if now >= deadline {
            return Err(CommError::Timeout {
                context: 0,
                src: waiting_on,
                tag: 0,
                waited: now - start,
                detail: what_timed_out(waiting_on),
            });
        }
        let _ = signal.wait_for(&mut st, deadline - now);
    }
}

/// Shared failure-detector state for one [`crate::Machine`] — or for
/// the hub of a socket world, whose children mirror it.
///
/// Every mutation of the per-rank records is a [`ControlEvent`] through
/// [`protocol::apply_control`] and every wait is a [`protocol`] gate,
/// so the model suite checks the detector the machine actually runs.
///
/// Lock ordering: methods here take only the internal state lock, never
/// a mailbox lock, so callers may hold a mailbox lock while querying
/// (as `recv` does) without deadlock risk.
pub struct HealthState {
    /// Per-rank heartbeat counters, bumped lock-free on every send.
    ticks: Vec<AtomicU64>,
    state: Mutex<Detector>,
    signal: Condvar,
    cfg: HeartbeatConfig,
    enabled: bool,
}

impl HealthState {
    /// Detector for `ranks` ranks; `None` builds a disabled stub (every
    /// operation is a no-op) for machines without a heartbeat monitor.
    #[must_use]
    pub fn new(ranks: usize, cfg: Option<HeartbeatConfig>) -> Self {
        let enabled = cfg.is_some();
        HealthState {
            ticks: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            state: Mutex::new(
                LockRank::Health,
                Detector {
                    view: vec![PeerView::INITIAL; ranks],
                    book: vec![RankHealth::default(); ranks],
                },
            ),
            signal: Condvar::new(),
            cfg: cfg.unwrap_or_default(),
            enabled,
        }
    }

    /// Whether a heartbeat monitor is attached to this machine.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn scan_interval(&self) -> Duration {
        self.cfg.scan_interval
    }

    /// Lock-free heartbeat, piggybacked on every send.
    pub fn tick(&self, rank: usize) {
        if self.enabled {
            // Relaxed: the counter is a freshness token, not a
            // synchronization edge — the monitor only compares it with
            // the value it saw one scan-interval ago.
            self.ticks[rank].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Apply one membership change and wake every detector waiter.
    pub fn apply(&self, ev: ControlEvent) {
        if !self.enabled {
            return;
        }
        self.state.lock(LockRank::Health).apply(ev);
        self.signal.notify_all();
    }

    /// Explicit per-step heartbeat: `rank` announces it has reached
    /// `epoch`. Clears a pending suspicion — unless the monitor already
    /// declared the rank dead, in which case the declaration stands
    /// (fencing) and the returned status tells the rank to rejoin as a
    /// replacement. Also returns the `EPOCH` event an accepted beat
    /// applied — what the hub broadcasts to the mirrors.
    pub fn beat(&self, rank: usize, epoch: u64) -> (RankStatus, Option<ControlEvent>) {
        if !self.enabled {
            return (RankStatus::Healthy, None);
        }
        self.ticks[rank].fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock(LockRank::Health);
        let outcome = protocol::beat_gate(&st.view[rank], rank, epoch);
        if let (_, Some(ev)) = outcome {
            st.apply(ev);
            drop(st);
            self.signal.notify_all();
        }
        outcome
    }

    /// One monitor pass over all ranks; returns the ranks *newly*
    /// declared `Failed` this scan as `(rank, last completed epoch)`.
    pub fn scan(&self) -> Vec<(usize, u64)> {
        let mut st = self.state.lock(LockRank::Health);
        let max_epoch = st.view.iter().map(|p| p.epoch).max().unwrap_or(0);
        let mut newly = Vec::new();
        for (rank, tick) in self.ticks.iter().enumerate() {
            // Relaxed: see `tick` — freshness comparison only.
            let t = tick.load(Ordering::Relaxed);
            let Detector { view, book } = &mut *st;
            let progressed = t != book[rank].observed_tick;
            book[rank].observed_tick = t;
            let declare = protocol::scan_step(
                &mut view[rank],
                &mut book[rank].stale_scans,
                progressed,
                max_epoch,
                &self.cfg,
                &Mutations::NONE,
            );
            if declare {
                let failed_epoch = view[rank].epoch;
                st.apply(ControlEvent::Declared { rank, failed_epoch });
                newly.push((rank, failed_epoch));
            }
        }
        if !newly.is_empty() {
            drop(st);
            // Wake the membership waiters; the monitor also
            // wakes every mailbox so blocked receives re-check for the
            // dead source (see `Machine::try_run`).
            self.signal.notify_all();
        }
        newly
    }

    /// `rank`'s membership record ([`PeerView::INITIAL`] without a
    /// monitor, and then without taking the lock).
    #[must_use]
    pub fn view(&self, rank: usize) -> PeerView {
        if !self.enabled {
            return PeerView::INITIAL;
        }
        self.state.lock(LockRank::Health).view[rank]
    }

    /// Every rank's membership record, in rank order.
    #[must_use]
    pub fn views(&self) -> Vec<PeerView> {
        (0..self.ticks.len()).map(|r| self.view(r)).collect()
    }

    /// Block at rank `me` until `gate` passes (see [`Gate`]). Waiting on
    /// [`Gate::OwnDeath`] also acknowledges the death (`Failed →
    /// Rebuilding`): a killed rank's respawned thread calls it before it
    /// rejoins as a replacement. An epoch barrier is the agreement point
    /// of the step protocol: all survivors return the same casualties
    /// for a given epoch because declarations are monotonic and a rank
    /// behind the epoch must be one or the other before anyone proceeds.
    pub fn wait(
        &self,
        me: usize,
        gate: Gate<'_>,
        poisoned: &AtomicBool,
    ) -> Result<EpochReport, CommError> {
        assert!(self.enabled, "membership waits require Machine::with_heartbeat");
        let report = wait_until(
            self.state.lock(LockRank::Health),
            &self.signal,
            poisoned,
            self.cfg.sync_timeout,
            |d: &Detector| gate.poll(&d.view, me),
            |rank| gate.stalled(rank),
        )?;
        if gate == Gate::OwnDeath {
            // Only this rank ever moves itself out of `Failed`, so the
            // record cannot have changed since the gate passed.
            self.apply(ControlEvent::Rebuilding { rank: me });
        }
        Ok(report)
    }

    /// Wake all detector waiters (poison path).
    pub(crate) fn wake(&self) {
        let _guard = self.state.lock(LockRank::Health);
        self.signal.notify_all();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::sync::AtomicBool;

    fn cfg(suspect: u32, confirm: u32) -> HeartbeatConfig {
        HeartbeatConfig {
            scan_interval: Duration::from_millis(1),
            suspect_scans: suspect,
            confirm_scans: confirm,
            sync_timeout: Duration::from_millis(200),
        }
    }

    #[test]
    fn silent_epoch_behind_rank_is_declared_failed() {
        let h = HealthState::new(2, Some(cfg(2, 2)));
        assert_eq!(h.beat(0, 1).0, RankStatus::Healthy);
        // Rank 1 never beats epoch 1: behind the frontier and silent.
        for _ in 0..3 {
            assert!(h.scan().is_empty());
        }
        assert_eq!(h.scan(), vec![(1, 0)]);
        assert_eq!(h.view(1).status, RankStatus::Failed);
        // Declarations are not repeated.
        assert!(h.scan().is_empty());
    }

    #[test]
    fn frontier_rank_is_never_suspected_while_silent() {
        let h = HealthState::new(2, Some(cfg(1, 1)));
        h.beat(0, 3);
        h.beat(1, 3);
        // Both at the frontier; arbitrary silence must not suspect.
        for _ in 0..64 {
            assert!(h.scan().is_empty());
        }
        assert_eq!(h.view(0).status, RankStatus::Healthy);
        assert_eq!(h.view(1).status, RankStatus::Healthy);
    }

    #[test]
    fn heartbeat_clears_suspicion() {
        let h = HealthState::new(2, Some(cfg(1, 4)));
        h.beat(0, 1);
        assert!(h.scan().is_empty());
        assert!(h.scan().is_empty());
        assert_eq!(h.view(1).status, RankStatus::Suspected);
        h.tick(1); // plain send traffic, no epoch progress
        assert!(h.scan().is_empty());
        assert_eq!(h.view(1).status, RankStatus::Healthy);
    }

    #[test]
    fn late_beat_after_declaration_is_fenced() {
        let h = HealthState::new(2, Some(cfg(1, 1)));
        h.beat(0, 1);
        h.scan();
        h.scan();
        assert_eq!(h.view(1).status, RankStatus::Failed);
        assert_eq!(h.beat(1, 1).0, RankStatus::Failed, "declared dead stays dead");
        assert_eq!(h.view(1).status, RankStatus::Failed);
    }

    #[test]
    fn failed_rank_rejoins_through_rebuilding() {
        let h = HealthState::new(2, Some(cfg(1, 1)));
        let poisoned = AtomicBool::new(false);
        h.beat(0, 2);
        h.scan();
        h.scan();
        let epoch = h.wait(1, Gate::OwnDeath, &poisoned).expect("declared").epoch;
        assert_eq!(epoch, 0);
        assert_eq!(h.view(1).status, RankStatus::Rebuilding);
        h.wait(0, Gate::Rebirth(&[1]), &poisoned).expect("acknowledged");
        h.apply(ControlEvent::Recovered { rank: 1, epoch: 2 });
        assert_eq!(h.view(1).status, RankStatus::Healthy);
        // Recovered rank is back at the frontier: not suspectable.
        for _ in 0..8 {
            assert!(h.scan().is_empty());
        }
    }

    #[test]
    fn epoch_sync_reports_dead_ranks() {
        let h = HealthState::new(3, Some(cfg(1, 1)));
        let poisoned = AtomicBool::new(false);
        h.beat(0, 1);
        h.beat(2, 1);
        h.scan();
        h.scan();
        assert_eq!(h.view(1).status, RankStatus::Failed);
        let report = h.wait(0, Gate::Epoch(1), &poisoned).expect("no live laggard");
        assert_eq!(report.epoch, 1);
        assert_eq!(report.failed, vec![(1, 0)]);
    }

    #[test]
    fn epoch_sync_times_out_diagnosably_on_live_laggard() {
        let h = HealthState::new(2, Some(cfg(100, 100)));
        let poisoned = AtomicBool::new(false);
        h.beat(0, 1);
        // Rank 1 is behind but never declared (suspect threshold out of
        // reach): the sync must expire with a named culprit, not hang.
        match h.wait(0, Gate::Epoch(1), &poisoned) {
            Err(CommError::Timeout { src, detail, .. }) => {
                assert_eq!(src, 1);
                assert!(detail.contains("epoch sync stalled"), "{detail}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn parked_rank_is_never_suspected_and_never_in_dead_set() {
        let h = HealthState::new(3, Some(cfg(1, 1)));
        let poisoned = AtomicBool::new(false);
        h.apply(ControlEvent::Parked { rank: 2, step: 0 });
        h.beat(0, 5);
        h.beat(1, 5);
        // Parked rank is arbitrarily far behind the frontier and silent:
        // must not be suspected, declared, or waited on.
        for _ in 0..16 {
            assert!(h.scan().is_empty());
        }
        assert_eq!(h.view(2).status, RankStatus::Parked);
        assert!(protocol::dead_set(&h.views()).is_empty());
        let report = h.wait(0, Gate::Epoch(5), &poisoned).expect("parked rank skipped");
        assert!(report.failed.is_empty());
        // Beats while parked do not self-activate.
        assert_eq!(h.beat(2, 5).0, RankStatus::Parked);
        assert_eq!(h.view(2).status, RankStatus::Parked);
    }

    #[test]
    fn activation_readmits_parked_rank_at_frontier() {
        let h = HealthState::new(2, Some(cfg(1, 1)));
        let poisoned = AtomicBool::new(false);
        h.apply(ControlEvent::Parked { rank: 1, step: 0 });
        h.beat(0, 7);
        h.apply(ControlEvent::Activated { rank: 1, epoch: 7 });
        assert_eq!(h.view(1).status, RankStatus::Healthy);
        let epoch = h.wait(1, Gate::Activation, &poisoned).expect("activated").epoch;
        assert_eq!(epoch, 7);
        // At the frontier: silence after activation is not suspicious.
        for _ in 0..8 {
            assert!(h.scan().is_empty());
        }
        // Activate on a non-parked rank is a no-op (it cannot resurrect
        // a failed rank).
        h.scan();
        h.beat(0, 8);
        h.apply(ControlEvent::Parked { rank: 1, step: 0 });
        h.apply(ControlEvent::Activated { rank: 0, epoch: 8 }); // healthy: no-op
        assert_eq!(h.view(0).status, RankStatus::Healthy);
    }

    #[test]
    fn release_sentinel_wakes_parked_rank_without_unparking() {
        let h = HealthState::new(2, Some(cfg(1, 1)));
        let poisoned = AtomicBool::new(false);
        h.apply(ControlEvent::Parked { rank: 1, step: 0 });
        // End of run: the driver releases reserve capacity with the
        // `u64::MAX` sentinel. The waiter wakes with the sentinel, but
        // the rank stays parked — still invisible to the scan and the
        // dead set, so a racing monitor pass cannot declare it.
        h.apply(ControlEvent::Activated { rank: 1, epoch: u64::MAX });
        assert_eq!(h.view(1).status, RankStatus::Parked);
        let epoch = h.wait(1, Gate::Activation, &poisoned).expect("released").epoch;
        assert_eq!(epoch, u64::MAX);
        h.beat(0, 1);
        for _ in 0..8 {
            h.tick(0);
            assert!(h.scan().is_empty());
        }
        assert!(protocol::dead_set(&h.views()).is_empty());
    }

    #[test]
    fn disabled_detector_is_inert() {
        let h = HealthState::new(2, None);
        assert!(!h.enabled());
        h.tick(0);
        assert_eq!(h.beat(0, 5).0, RankStatus::Healthy);
        assert!(h.scan().is_empty());
        assert_eq!(h.view(1), PeerView::INITIAL);
    }
}
