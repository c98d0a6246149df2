//! Model-checked verification of the mini-MPI runtime.
//!
//! Built only under `RUSTFLAGS="--cfg loom"`; in a normal build this
//! file compiles to nothing (so `cargo test` stays fast). Run with
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p hacc-comm --release --test loom
//! ```
//!
//! Every test constructs the machine through [`Machine::handles`] — the
//! no-thread seam — and hands each rank's [`Comm`] to a loom thread, so
//! the model checker owns scheduling. The small protocols (one
//! send/recv, poison, timeout race) are explored *exhaustively*; the
//! longer ones (a barrier round, fault-injected streams, a context
//! duplication collective) use a CHESS-style preemption bound, which is
//! exhaustive over every schedule with at most N preemptions (see
//! `vendor/loom`'s crate docs for exactly what that guarantees).

#![cfg(loom)]

use hacc_comm::{CommError, FaultPlan, HealthState, HeartbeatConfig, Machine, RankStatus};
use std::collections::BTreeSet;
use std::sync::{Arc as StdArc, Mutex as StdMutex};
use std::time::Duration;

/// A bounded model run: exhaustive over all schedules with at most
/// `bound` preemptions.
fn bounded(bound: usize) -> loom::model::Builder {
    loom::model::Builder {
        preemption_bound: Some(bound),
        ..loom::model::Builder::new()
    }
}

/// The basic mailbox contract under *every* interleaving: a send and a
/// blocking receive on another thread always rendezvous — whether the
/// receiver checks the mailbox before the send (and must be woken by
/// the notify) or after (and finds the payload ready).
#[test]
fn send_recv_rendezvous_under_all_schedules() {
    loom::model(|| {
        let mut h = Machine::new(2).handles().into_iter();
        let (c0, c1) = (h.next().unwrap(), h.next().unwrap());
        let t = loom::thread::spawn(move || {
            c0.send(1, 7, vec![41u32, 1]);
        });
        let got = c1.recv_result::<u32>(0, 7).expect("clean machine");
        assert_eq!(got, vec![41, 1]);
        t.join().unwrap();
    });
}

/// `recv_timeout` racing a concurrent send: both outcomes must be
/// reachable, the timeout diagnostic must name the awaited mailbox
/// slot, and an expired wait must not corrupt the mailbox — a blocking
/// re-receive still gets the message.
#[test]
fn recv_timeout_races_concurrent_send() {
    let outcomes = StdArc::new(StdMutex::new(BTreeSet::new()));
    let seen = StdArc::clone(&outcomes);
    loom::model(move || {
        let mut h = Machine::new(2).handles().into_iter();
        let (c0, c1) = (h.next().unwrap(), h.next().unwrap());
        let t = loom::thread::spawn(move || {
            c0.send(1, 9, vec![7u32]);
        });
        match c1.recv_timeout::<u32>(0, 9, Duration::from_millis(5)) {
            Ok(v) => {
                assert_eq!(v, vec![7]);
                seen.lock().unwrap().insert("delivered");
            }
            Err(CommError::Timeout {
                context, src, tag, ..
            }) => {
                // The diagnostic names the exact slot being waited on.
                assert_eq!((context, src, tag), (0, 0, 9));
                // Expiry must leave the transport intact: the send is
                // still in flight and a blocking receive recovers it.
                let v = c1.recv_result::<u32>(0, 9).expect("clean machine");
                assert_eq!(v, vec![7]);
                seen.lock().unwrap().insert("timed_out");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
        t.join().unwrap();
    });
    let outcomes = outcomes.lock().unwrap();
    assert!(
        outcomes.contains("delivered") && outcomes.contains("timed_out"),
        "search did not reach both outcomes: {outcomes:?}"
    );
}

/// First-failure poisoning: however the poison interleaves with a
/// blocked receive, the receiver always wakes with
/// [`CommError::Poisoned`] — never deadlocks. This is the lost-wakeup
/// proof for the flag-check/wait window in `recv_impl` (the bug class
/// where the flag is stored after the check but the notify fires
/// before the wait).
#[test]
fn poison_always_wakes_a_blocked_recv() {
    loom::model(|| {
        let mut h = Machine::new(2).handles().into_iter();
        let (c0, c1) = (h.next().unwrap(), h.next().unwrap());
        let t = loom::thread::spawn(move || {
            c0.poison();
        });
        let err = c1
            .recv_result::<u8>(0, 1)
            .expect_err("nothing was ever sent");
        assert_eq!(err, CommError::Poisoned);
        t.join().unwrap();
    });
}

/// Poison arriving *after* a payload must not eat the payload: the
/// ready queue is drained before the flag is honored, so a receiver
/// whose message already arrived gets data, and only a receiver with an
/// empty slot gets `Poisoned`.
#[test]
fn poison_does_not_preempt_a_delivered_payload() {
    loom::model(|| {
        let mut h = Machine::new(2).handles().into_iter();
        let (c0, c1) = (h.next().unwrap(), h.next().unwrap());
        let t = loom::thread::spawn(move || {
            c0.send(1, 3, vec![5u8]);
            c0.poison();
        });
        // The send happens-before the poison on rank 0, but both race
        // with this receive. Whichever interleaving runs, the payload
        // was enqueued before the flag was raised, so Ok is the only
        // legal outcome once the message is in the box — and if the
        // receiver runs first it blocks, then drains the payload on
        // wake. Either way: data, not Poisoned.
        let got = c1.recv_result::<u8>(0, 3).expect("payload precedes poison");
        assert_eq!(got, vec![5]);
        t.join().unwrap();
    });
}

/// Duplicate injection under every (bounded) schedule: the receiver's
/// transport discards each retransmission exactly once, the payload
/// stream is unchanged, and the `dup_discarded` counter is exact after
/// join.
#[test]
fn duplicate_injection_discarded_under_all_schedules() {
    bounded(3).check(|| {
        let plan = FaultPlan::seeded(5).dup_prob(1.0);
        let mut h = Machine::new(2).with_faults(plan).handles().into_iter();
        let (c0, c1) = (h.next().unwrap(), h.next().unwrap());
        let t = loom::thread::spawn(move || {
            c0.send(1, 2, vec![10u32]);
            c0.send(1, 2, vec![11u32]);
        });
        assert_eq!(c1.recv_result::<u32>(0, 2).unwrap(), vec![10]);
        assert_eq!(c1.recv_result::<u32>(0, 2).unwrap(), vec![11]);
        t.join().unwrap();
        let faults = c1.traffic_stats().faults;
        assert_eq!(faults.duplicated, 2);
        assert_eq!(faults.dup_discarded, 2, "each ghost discarded exactly once");
    });
}

/// Delay injection: seed 0 with p=0.5 holds back message #0 and lets
/// message #1 through (verified constants — the decision is a pure
/// function of the plan coordinates), so the flush path delivers #0 out
/// of order. Under every bounded schedule the receiver still sees the
/// original order and counts one reordering.
#[test]
fn delayed_message_reordered_and_recovered() {
    bounded(3).check(|| {
        let plan = FaultPlan::seeded(0).delay_prob(0.5);
        let mut h = Machine::new(2).with_faults(plan).handles().into_iter();
        let (c0, c1) = (h.next().unwrap(), h.next().unwrap());
        let t = loom::thread::spawn(move || {
            c0.send(1, 4, vec![20u32]); // held back
            c0.send(1, 4, vec![21u32]); // delivered, then flushes #0
        });
        assert_eq!(c1.recv_result::<u32>(0, 4).unwrap(), vec![20]);
        assert_eq!(c1.recv_result::<u32>(0, 4).unwrap(), vec![21]);
        t.join().unwrap();
        let faults = c1.traffic_stats().faults;
        assert_eq!(faults.delayed, 1);
        assert!(faults.reordered >= 1, "out-of-order arrival was buffered");
    });
}

/// A full two-rank dissemination-barrier round never deadlocks and
/// never crosses rounds, under every schedule with at most two
/// preemptions.
#[test]
fn barrier_round_has_no_deadlock() {
    bounded(3).check(|| {
        let mut h = Machine::new(2).handles().into_iter();
        let (c0, c1) = (h.next().unwrap(), h.next().unwrap());
        let t = loom::thread::spawn(move || {
            c0.barrier();
        });
        c1.barrier();
        t.join().unwrap();
    });
}

/// The failure detector's suspected-vs-late-heartbeat race, explored
/// exhaustively. Rank 1 is epoch-behind and silent; a monitor thread
/// runs the two scans that would harden `Healthy → Suspected → Failed`
/// (thresholds of 1 scan each) while rank 1's belated epoch beat lands
/// at an arbitrary point in between. The detector contract under every
/// interleaving:
///
/// - beat returned `Healthy` ⇒ the suspicion was cleared in time, no
///   failure is ever declared, and the rank ends `Healthy` (its beat
///   put it at the epoch frontier, so further silence is not
///   suspectable);
/// - beat returned `Failed` ⇒ the declaration came first and *stands*
///   (fencing): exactly one `(rank, epoch)` failure report was emitted
///   and the late beat did not resurrect the rank.
///
/// Both outcomes must actually be reached by the search, proving the
/// race window is real and both sides of it are handled.
#[test]
fn late_heartbeat_races_failure_declaration() {
    let outcomes = StdArc::new(StdMutex::new(BTreeSet::new()));
    let seen = StdArc::clone(&outcomes);
    loom::model(move || {
        let cfg = HeartbeatConfig {
            scan_interval: Duration::from_millis(1),
            suspect_scans: 1,
            confirm_scans: 1,
            sync_timeout: Duration::from_millis(200),
        };
        let h = StdArc::new(HealthState::new(2, Some(cfg)));
        // Rank 0 establishes epoch 1, leaving rank 1 behind the
        // frontier and therefore suspectable.
        h.beat(0, 1);
        let monitor = {
            let h = StdArc::clone(&h);
            loom::thread::spawn(move || {
                let mut declared = h.scan();
                declared.extend(h.scan());
                declared
            })
        };
        let verdict = h.beat(1, 1).0;
        let declared = monitor.join().unwrap();
        match verdict {
            RankStatus::Healthy => {
                assert!(
                    declared.is_empty(),
                    "beat cleared the suspicion, yet a failure was declared: {declared:?}"
                );
                assert_eq!(h.view(1).status, RankStatus::Healthy);
                seen.lock().unwrap().insert("beat_won");
            }
            RankStatus::Failed => {
                assert_eq!(declared, vec![(1, 0)], "exactly one declaration");
                assert_eq!(h.view(1).status, RankStatus::Failed, "declared dead stays dead");
                seen.lock().unwrap().insert("declaration_won");
            }
            other => panic!("beat returned {other:?}"),
        }
    });
    let outcomes = outcomes.lock().unwrap();
    assert!(
        outcomes.contains("beat_won") && outcomes.contains("declaration_won"),
        "search did not reach both sides of the race: {outcomes:?}"
    );
}

/// Collective context sequencing: both ranks `duplicate()` concurrently
/// (itself a collective — rank 0 allocates the context id and
/// broadcasts it), then exchange on the duplicated communicator.
/// Traffic sent on the *parent* context with the same tag must not
/// cross into the duplicate.
#[test]
fn duplicated_context_isolates_traffic() {
    bounded(2).check(|| {
        let mut h = Machine::new(2).handles().into_iter();
        let (c0, c1) = (h.next().unwrap(), h.next().unwrap());
        let t = loom::thread::spawn(move || {
            // Parent-context message with the same tag the duplicate
            // will use: must stay invisible to the duplicate.
            c0.send(1, 6, vec![99u32]);
            let d0 = c0.duplicate();
            d0.send(1, 6, vec![1u32]);
        });
        let d1 = c1.duplicate();
        let on_dup = d1.recv_result::<u32>(0, 6).unwrap();
        assert_eq!(on_dup, vec![1], "duplicate context leaked parent traffic");
        let on_parent = c1.recv_result::<u32>(0, 6).unwrap();
        assert_eq!(on_parent, vec![99]);
        t.join().unwrap();
    });
}
