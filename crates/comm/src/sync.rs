//! Synchronization shim: every primitive the comm runtime uses, behind
//! one seam that swaps in the `loom` model checker under `cfg(loom)` —
//! now with **rank-annotated mutexes** enforcing the crate's lock-order
//! discipline mechanically.
//!
//! The rest of this crate imports *only* from this module (never from
//! `parking_lot` / `std::sync` / `std::time::Instant` directly), so
//! `RUSTFLAGS="--cfg loom" cargo test -p hacc-comm --release` rebuilds
//! the identical protocol code on top of model-checked primitives and
//! the loom suite in `tests/loom.rs` explores every interleaving of the
//! mailbox and collective paths. See DESIGN.md §9 for which orderings
//! protect what, and §14 for the lock-rank discipline.
//!
//! # Lock ranks
//!
//! Every [`Mutex`] is constructed with a [`LockRank`] and every call
//! site re-states that rank: `m.lock(LockRank::Mail)`. Two machine
//! checks hang off the annotation:
//!
//! - **Runtime** (tests and any `debug_assertions` build): a
//!   thread-local stack records the ranks this thread currently holds;
//!   acquiring a mutex whose rank is not *strictly greater* than every
//!   held rank panics with both ranks named. Since a total order admits
//!   no cycle, a clean run of the wall-clock socket suite is a proof
//!   that no execution it exercised could deadlock on these mutexes.
//!   The checks compile to nothing in release builds (the socket hot
//!   path pays zero cost) and under `cfg(loom)`, where the loom
//!   scheduler's own deadlock detection covers the same ground.
//! - **Static** (`cargo xtask lockorder`): a source pass over this
//!   crate verifies every `.lock(` call names a `LockRank::` — an
//!   unannotated acquisition cannot merge.
//!
//! The rank values define the **only** permitted nesting order. They
//! come in per-process families (a hub never holds a child-transport
//! lock and vice versa); [`HealthState`](crate::health) is the shared
//! leaf — every family may take it last. Sequential (non-overlapping)
//! acquisitions in any order are always fine; the stack only constrains
//! *nested* holds. Same-rank nesting is forbidden too (the strict `<`),
//! which is what rules out holding two different per-peer link locks at
//! once.
//!
//! Two rules keep the loom swap sound:
//!
//! - **No raw `Instant::now()`** — deadlines must use [`Instant`] from
//!   here, which under loom reads the modeled clock (advanced only by
//!   timeout branches), keeping timed-out waits explorable and
//!   deterministic.
//! - **No direct `std::sync` types** in runtime state — `Mutex`,
//!   `Condvar`, atomics, and `Arc` all come from here.

#[cfg(loom)]
pub use loom::{
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        Arc,
    },
    time::Instant,
};

#[cfg(loom)]
use loom::sync::{
    Condvar as RawCondvar, Mutex as RawMutex, MutexGuard as RawMutexGuard, WaitTimeoutResult,
};

#[cfg(not(loom))]
pub use std::{
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        Arc,
    },
    time::Instant,
};

#[cfg(not(loom))]
use parking_lot::{
    Condvar as RawCondvar, Mutex as RawMutex, MutexGuard as RawMutexGuard, WaitTimeoutResult,
};

use std::time::Duration;

/// Acquisition rank of every mutex in this crate, one variant per
/// mutex role. A thread may acquire a mutex only while every lock it
/// already holds has a **strictly smaller** rank. The discriminant
/// gaps leave room to slot a new lock into a family without renumbering.
///
/// | family | ranks (in required acquisition order) |
/// |---|---|
/// | hub (launcher process) | `HubChildren` → `HubClients` → `HubReport` → `HubSpawn` |
/// | socket child (transport) | `LinkWriter` → `Link` → `Mail` → `Mirror` → `ControlRpc` → `ControlWriter` |
/// | in-process channel backend | `Holdback` → `ChannelMail` → `FirstFailure` |
/// | shared leaf | `Health` (any family may take it last) |
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum LockRank {
    // -- hub (launcher process) family --------------------------------
    /// `HubState.children`: child process handles and exit codes.
    HubChildren = 10,
    /// `HubState.clients[r]`: one child's control stream.
    HubClients = 14,
    /// `HubState.report`: what happened to the world (kills, declarations).
    HubReport = 16,
    /// The respawn closure cell in `hub::run`.
    HubSpawn = 18,
    // -- socket child (transport) family ------------------------------
    /// `SocketTransport.links[peer].writer`: one peer link's stream
    /// write half. The only transport lock held across a blocking
    /// syscall, and never taken by a reader thread.
    LinkWriter = 28,
    /// `SocketTransport.links[peer].state`: one peer link's up flag,
    /// sequence state and backlog. Nested inside `LinkWriter` by `send`
    /// and `register_link`.
    Link = 30,
    /// `SocketTransport.mail.state`: the byte mailbox. Nested inside
    /// `Link` by `register_link`'s purge.
    Mail = 32,
    /// `SocketTransport.mirror.state`: the local failure-detector
    /// mirror. Nested inside `Mail` by `recv`'s precedence check.
    Mirror = 34,
    /// `ControlChannel.rpc`: the one-slot hub RPC.
    ControlRpc = 36,
    /// `ControlChannel.writer`: the control-stream write half. Nested
    /// inside `ControlRpc` by `hub_rpc`'s send.
    ControlWriter = 38,
    // -- in-process channel backend family ----------------------------
    /// `Shared.holdback[r]`: delay-injected messages awaiting reorder.
    Holdback = 50,
    /// `Mailbox.state`: one rank's typed in-process mailbox.
    ChannelMail = 52,
    /// `Machine::run`'s first-panic slot.
    FirstFailure = 54,
    // -- shared leaf ---------------------------------------------------
    /// `HealthState.state`: the failure detector. Leaf lock: taken under
    /// `ChannelMail` (recv's failed-source check) and `HubClients`
    /// (`welcome_block`'s status snapshot); must never take another
    /// crate lock while held.
    Health = 250,
}

/// Runtime lock-order enforcement is compiled in only for debug /
/// test builds of the real (non-loom) runtime.
#[cfg(all(not(loom), debug_assertions))]
mod held {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static STACK: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    pub fn acquire(rank: LockRank) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(&worst) = stack.iter().max() {
                assert!(
                    worst < rank,
                    "lock-order violation: acquiring {rank:?} while holding {worst:?} \
                     (held: {stack:?}); the permitted nesting order is strictly \
                     increasing LockRank — see crate::sync docs"
                );
            }
            stack.push(rank);
        });
    }

    pub fn release(rank: LockRank) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let pos = stack
                .iter()
                .rposition(|&r| r == rank)
                .expect("releasing a lock rank this thread does not hold");
            stack.remove(pos);
        });
    }
}

/// Rank-annotated mutex. The annotation is re-stated at every `lock`
/// call so the xtask source pass can verify coverage textually, and
/// cross-checked against the construction rank at runtime (debug).
pub struct Mutex<T> {
    rank: LockRank,
    inner: RawMutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(rank: LockRank, value: T) -> Self {
        Mutex {
            rank,
            inner: RawMutex::new(value),
        }
    }

    /// Acquire, asserting (debug builds) that `rank` matches the
    /// construction rank and exceeds every rank this thread holds.
    pub fn lock(&self, rank: LockRank) -> MutexGuard<'_, T> {
        debug_assert_eq!(
            rank, self.rank,
            "lock site annotates {rank:?} but the mutex was built as {:?}",
            self.rank
        );
        #[cfg(all(not(loom), debug_assertions))]
        held::acquire(rank);
        #[cfg(any(loom, not(debug_assertions)))]
        let _ = rank;
        MutexGuard {
            inner: Some(self.inner.lock()),
            rank: self.rank,
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// Guard for [`Mutex`]; pops the rank from the thread's held stack on
/// release.
pub struct MutexGuard<'a, T> {
    /// `Some` until drop; `Option` so `Drop` can release the raw guard
    /// *before* popping the rank (never a moment where the rank is
    /// popped while the lock is still held).
    inner: Option<RawMutexGuard<'a, T>>,
    rank: LockRank,
}

impl<'a, T> MutexGuard<'a, T> {
    fn raw(&mut self) -> &mut RawMutexGuard<'a, T> {
        self.inner.as_mut().expect("guard accessed after drop")
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after drop")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        #[cfg(all(not(loom), debug_assertions))]
        held::release(self.rank);
        #[cfg(any(loom, not(debug_assertions)))]
        let _ = self.rank;
    }
}

/// Condition variable over [`Mutex`] (parking_lot-style `&mut guard`
/// API, forwarded to the active backend). Waiting releases the mutex
/// but deliberately keeps its rank on the held stack: the blocked
/// thread cannot acquire anything else anyway, and keeping the rank
/// means the re-acquisition on wake needs no re-check.
pub struct Condvar(RawCondvar);

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    #[must_use]
    pub fn new() -> Self {
        Condvar(RawCondvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.0.wait(guard.raw());
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.0.wait_for(guard.raw(), timeout)
    }

    pub fn notify_all(&self) -> usize {
        self.0.notify_all()
    }

    pub fn notify_one(&self) -> bool {
        self.0.notify_one()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::{Condvar, LockRank, Mutex};

    #[test]
    fn in_order_nesting_is_fine() {
        let link = Mutex::new(LockRank::Link, 1u32);
        let mail = Mutex::new(LockRank::Mail, 2u32);
        let mirror = Mutex::new(LockRank::Mirror, 3u32);
        let a = link.lock(LockRank::Link);
        let b = mail.lock(LockRank::Mail);
        let c = mirror.lock(LockRank::Mirror);
        assert_eq!(*a + *b + *c, 6);
    }

    #[test]
    fn sequential_reacquire_any_order() {
        let link = Mutex::new(LockRank::Link, ());
        let mail = Mutex::new(LockRank::Mail, ());
        drop(mail.lock(LockRank::Mail));
        drop(link.lock(LockRank::Link)); // lower rank, but nothing held
        drop(mail.lock(LockRank::Mail));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank checking is debug-only")]
    fn out_of_order_nesting_panics() {
        let link = Mutex::new(LockRank::Link, ());
        let mail = Mutex::new(LockRank::Mail, ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _m = mail.lock(LockRank::Mail);
            let _l = link.lock(LockRank::Link); // Mail → Link: inversion
        }));
        let msg = *result
            .expect_err("inverted acquisition must panic")
            .downcast::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("lock-order violation"), "got: {msg}");
        // The unwound guards must have cleaned the held stack.
        drop(link.lock(LockRank::Link));
        drop(mail.lock(LockRank::Mail));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank checking is debug-only")]
    fn same_rank_nesting_panics() {
        let a = Mutex::new(LockRank::Link, ());
        let b = Mutex::new(LockRank::Link, ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = a.lock(LockRank::Link);
            let _b = b.lock(LockRank::Link);
        }));
        assert!(result.is_err(), "two links at once must panic");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank checking is debug-only")]
    fn wrong_annotation_panics() {
        let mail = Mutex::new(LockRank::Mail, ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = mail.lock(LockRank::Link);
        }));
        assert!(result.is_err(), "mis-annotated site must panic");
    }

    #[test]
    fn condvar_wait_keeps_rank() {
        let mail = Mutex::new(LockRank::Mail, false);
        let cv = Condvar::new();
        let mut guard = mail.lock(LockRank::Mail);
        let _ = cv.wait_for(&mut guard, std::time::Duration::from_millis(1));
        // Still held after the timed-out wait; release is clean.
        *guard = true;
        drop(guard);
        assert!(*mail.lock(LockRank::Mail));
    }
}
