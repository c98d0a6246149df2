//! The pluggable transport seam under [`crate::Comm`].
//!
//! Every typed operation on a communicator — point-to-point send/recv,
//! the collectives built on them, and the health-layer beat/epoch
//! protocol — bottoms out in this object-safe trait. Two backends
//! implement it:
//!
//! - the **in-process** backend (`Shared` in `lib.rs`): threads as
//!   ranks, typed `Box<dyn Any>` mailboxes, injectable faults. This is
//!   the default and the only backend the loom model suite verifies —
//!   all of its blocking paths are built from `crate::sync` primitives.
//! - the **socket** backend ([`crate::socket`], `cfg(not(loom))`):
//!   one OS process per rank, length-prefixed CRC-framed messages over
//!   loopback TCP, a hub process ([`crate::hub`]) holding the
//!   authoritative failure detector.
//!
//! The contract both must honor (DESIGN.md §12):
//!
//! - **Ordering**: messages on one `(context, src, tag)` slot are
//!   delivered in send order; distinct slots are independent.
//! - **Buffered sends**: `send` never blocks on the receiver.
//! - **Failure semantics**: a receive that can never be satisfied must
//!   end in an error — [`CommError::Timeout`] (deadline),
//!   [`CommError::RankFailed`] (peer declared dead by the detector),
//!   [`CommError::CorruptDetected`] (link condemned after a torn or
//!   corrupt frame), or [`CommError::Poisoned`] — never a hang and
//!   never silently wrong data.

use crate::protocol::{ControlEvent, Gate, PeerView};
use crate::{CommError, EpochReport, RankStatus, TrafficStats};
use std::any::Any;
use std::time::Duration;

/// A payload crossing the transport, in whichever representation the
/// backend moves natively: in-process mailboxes pass the typed value
/// itself, byte-oriented backends pass its wire encoding tagged with
/// the element [`crate::wire::type_hash`].
pub enum WirePayload {
    /// Typed in-process payload (a `Vec<T>` behind `dyn Any`).
    Boxed(Box<dyn Any + Send>),
    /// Serialized payload with the element type's hash for the
    /// receive-side type check.
    Bytes {
        /// [`crate::wire::type_hash`] of the element type.
        type_hash: u64,
        /// Little-endian encoding of the `Vec<T>` (see [`crate::wire`]).
        data: Vec<u8>,
    },
}

/// Object-safe transport backend. All rank arguments are **global**
/// ranks; communicator-local numbering (and the collectives) live above
/// this seam in [`crate::Comm`].
pub trait Transport: Send + Sync {
    /// Does this backend move bytes (so senders must encode via
    /// [`crate::wire`]) rather than typed boxes?
    fn is_wire(&self) -> bool;

    /// Default receive deadline for plain `recv` (`None` blocks
    /// forever). Byte transports always report one so a broken peer
    /// surfaces as a diagnostic timeout instead of a hang.
    fn watchdog(&self) -> Option<Duration>;

    /// Send `payload` from global rank `src` to global rank `dst` on
    /// `(context, tag)`. `bytes` is the payload-byte accounting charge.
    /// Buffered: must not block on the receiver.
    fn send(&self, src: usize, dst: usize, context: u64, tag: u64, payload: WirePayload, bytes: u64);

    /// Receive the next message for `(context, src, tag)` at rank `me`,
    /// blocking up to `timeout` (forever if `None`). Errors per the
    /// module-level failure contract.
    fn recv(
        &self,
        me: usize,
        src: usize,
        context: u64,
        tag: u64,
        timeout: Option<Duration>,
    ) -> Result<WirePayload, CommError>;

    /// Release any delay-injected messages rank `me` still holds (no-op
    /// for backends without fault injection).
    fn flush_holdback(&self, me: usize);

    /// Graceful shutdown for rank `me`: drain in-flight sends and close
    /// links cleanly so peers read EOF, not a torn frame.
    fn shutdown(&self, me: usize);

    /// Allocate a fresh base for deriving split/duplicate contexts.
    /// Only rank 0's allocation is used (it is broadcast), so backends
    /// must keep it unique per allocation *within one rank's lifetime*
    /// and across that rank's respawns.
    fn alloc_context_base(&self) -> u64;

    /// Poison the world: every blocked receive wakes with
    /// [`CommError::Poisoned`].
    fn poison(&self);

    /// Snapshot of traffic, fault, and wire counters. Socket backends
    /// can only account their own rank's sends; other slots read zero.
    fn traffic_stats(&self) -> TrafficStats;

    // ---- membership seam ------------------------------------------------
    //
    // Everything a membership change needs from a backend: a beat, one
    // wait over the `protocol` gates, one requested change, and one view
    // of the record. The in-process backend answers from its own
    // detector, the socket backend from the hub (an RPC or a control
    // line) and its mirror of the hub's detector.

    /// Rank `me` enters epoch `epoch`: its heartbeat, answered with the
    /// detector's verdict (a fenced rank sees `Failed`/`Rebuilding` and
    /// must not proceed). A rank the fault plan kills here never beats:
    /// it reads `Failed` in-process, and the socket hub SIGKILLs it
    /// instead of answering.
    fn beat(&self, me: usize, epoch: u64) -> RankStatus;

    /// Block at rank `me` until `gate` passes (errors per the module
    /// contract). Waiting on [`Gate::OwnDeath`] also acknowledges the
    /// death (`Failed → Rebuilding`); a passed [`Gate::Rebirth`]
    /// guarantees the replacements are reachable.
    fn wait(&self, me: usize, gate: Gate<'_>) -> Result<EpochReport, CommError>;

    /// Request one membership change from rank `me`: its own `Recovered`
    /// (replacement rebuilt) or `Parked` (deliberate retire — never a
    /// failure), or the `Activated` of a parked rank (elastic grow).
    fn apply(&self, me: usize, ev: ControlEvent);

    /// Every rank's membership record, in rank order.
    fn view(&self) -> Vec<PeerView>;
}
