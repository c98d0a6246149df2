//! Wall-clock fault-path tests that complement the loom model suite
//! (`tests/loom.rs`): the model checker proves every interleaving of
//! the small protocols; these tests exercise the same paths end-to-end
//! on real OS threads with real time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hacc_comm::{CommError, FaultPlan, Machine, MachineError};

/// A `recv_timeout` expiring while the matching send is concurrently in
/// flight: whichever side of the deadline the send lands on, the
/// receiver either gets the payload or gets a diagnostic timeout naming
/// the awaited slot — and after a timeout the transport is intact, so a
/// blocking receive still recovers the message. The sender's delay is
/// swept across the deadline so both outcomes are exercised in
/// practice; the loom model (`recv_timeout_races_concurrent_send`)
/// proves both branches over *all* schedules.
#[test]
fn recv_timeout_expiry_races_concurrent_send() {
    for sender_delay_us in [0u64, 50, 150, 400, 1000] {
        let (got, _) = Machine::new(2).run(move |c| {
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_micros(sender_delay_us));
                c.send(1, 5, vec![7u32]);
                return 7u32;
            }
            match c.recv_timeout::<u32>(0, 5, Duration::from_micros(200)) {
                Ok(v) => v[0],
                Err(CommError::Timeout {
                    context, src, tag, ..
                }) => {
                    // The diagnostic names the exact slot waited on.
                    assert_eq!((context, src, tag), (0, 0, 5));
                    // Expiry must not corrupt the mailbox: the in-flight
                    // message is still deliverable.
                    c.recv::<u32>(0, 5)[0]
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        });
        assert_eq!(got, vec![7, 7], "sender delay {sender_delay_us}us");
    }
}

/// One rank killed (deterministically, via the seeded fault plan)
/// immediately before a barrier: the survivor must not hang — it is
/// poisoned out of the collective — and the machine-level error must
/// name the rank that actually failed, not the poisoned bystander.
#[test]
fn killed_mid_barrier_survivor_error_names_failed_rank() {
    let plan = FaultPlan::seeded(4).kill_rank_at_step(0, 1);
    let survivor_saw: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let saw = Arc::clone(&survivor_saw);
    let err = Machine::new(2)
        .try_run(move |c| {
            // Rank 0 dies here, the way a step-structured driver checks
            // the plan at the top of a step.
            if plan.should_kill(c.rank(), 1) {
                panic!("fault injected: rank {} killed at step 1", c.rank());
            }
            // Only rank 1 reaches the barrier; capture its diagnostic
            // before letting the panic propagate to the machine.
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| c.barrier())) {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_default();
                *saw.lock().unwrap() = Some(msg);
                std::panic::resume_unwind(p);
            }
        })
        .unwrap_err();

    // The machine reports the *first* failure: the injected kill.
    let MachineError::RankPanicked { rank, message } = err;
    assert_eq!(rank, 0, "error must name the killed rank, got: {message}");
    assert!(
        message.contains("rank 0 killed at step 1"),
        "got: {message}"
    );
    // The survivor was woken out of the barrier by poisoning (no hang)
    // with the poisoned-machine diagnostic.
    let seen = survivor_saw.lock().unwrap().take();
    let seen = seen.expect("survivor recorded its barrier failure");
    assert!(seen.contains("machine poisoned"), "got: {seen}");
}
