//! Golden strings for the recovery timeline: every `RecoveryEvent`
//! variant's human line (`Display`) and its JSON object (`to_json`),
//! byte for byte. CI greps the JSON (`"event":"tier0_reconstructed"`),
//! and the `hacc-mprun` timelines are kept as artifacts, so a change to
//! either rendering is a format change, not a refactor.

use std::time::Duration;

use hacc_core::RecoveryEvent;

fn golden() -> Vec<(RecoveryEvent, &'static str, &'static str)> {
    vec![
        (
            RecoveryEvent::AttemptStarted {
                attempt: 1,
                resume_step: None,
            },
            "attempt 1: cold start",
            r#"{"event":"attempt_started","attempt":1,"resume_step":null}"#,
        ),
        (
            RecoveryEvent::AttemptStarted {
                attempt: 2,
                resume_step: Some(4),
            },
            "attempt 2: restored from checkpoint at step 4",
            r#"{"event":"attempt_started","attempt":2,"resume_step":4}"#,
        ),
        (
            RecoveryEvent::Failure {
                attempt: 1,
                rank: 3,
                message: "boom \"x\"\n\\\u{1}".into(),
            },
            "attempt 1: rank 3 failed: boom \"x\"\n\\\u{1}",
            r#"{"event":"attempt_failed","attempt":1,"rank":3,"message":"boom \"x\"\n\\\u0001"}"#,
        ),
        (
            RecoveryEvent::BackedOff {
                attempt: 2,
                pause: Duration::from_micros(1500),
            },
            "backing off 1.5ms before attempt 2",
            r#"{"event":"backed_off","attempt":2,"pause_ms":1}"#,
        ),
        (
            RecoveryEvent::Completed {
                attempt: 1,
                final_step: 4,
            },
            "attempt 1: completed step 4",
            r#"{"event":"completed","attempt":1,"final_step":4}"#,
        ),
        (
            RecoveryEvent::RankFailureDetected {
                step: 3,
                rank: 1,
                epoch: 2,
            },
            "step 3: rank 1 declared dead (last completed epoch 2)",
            r#"{"event":"rank_failure_detected","step":3,"rank":1,"epoch":2}"#,
        ),
        (
            RecoveryEvent::Tier0Reconstructed {
                step: 3,
                ranks: vec![1, 2],
                count: 4096,
            },
            "step 3: tier-0 rebuilt rank(s) [1, 2] from overload shells (4096 particles accounted for)",
            r#"{"event":"tier0_reconstructed","step":3,"ranks":[1,2],"count":4096}"#,
        ),
        (
            RecoveryEvent::Tier0Incomplete {
                step: 3,
                expected: 4096,
                got: 4000,
            },
            "step 3: tier-0 incomplete (4000 of 4096 particles recovered)",
            r#"{"event":"tier0_incomplete","step":3,"expected":4096,"got":4000}"#,
        ),
        (
            RecoveryEvent::Tier0Disrupted {
                step: 3,
                detail: "rank 2 declared failed".into(),
            },
            "step 3: tier-0 recovery disrupted mid-collective: rank 2 declared failed",
            r#"{"event":"tier0_disrupted","step":3,"detail":"rank 2 declared failed"}"#,
        ),
        (
            RecoveryEvent::Tier1Rollback {
                step: 4,
                resume_step: 2,
            },
            "step 4: tier-1 rollback to checkpoint at step 2",
            r#"{"event":"tier1_rollback","step":4,"resume_step":2}"#,
        ),
        (
            RecoveryEvent::Tier2Abort {
                attempt: 1,
                reason: "no checkpoint\tset".into(),
            },
            "attempt 1: tier-2 abort: no checkpoint\tset",
            r#"{"event":"tier2_abort","attempt":1,"reason":"no checkpoint\tset"}"#,
        ),
        (
            RecoveryEvent::InvariantBreach {
                step: 5,
                detail: "momentum drift 3e-2".into(),
            },
            "step 5: momentum drift 3e-2",
            r#"{"event":"invariant_breach","step":5,"detail":"momentum drift 3e-2"}"#,
        ),
        (
            RecoveryEvent::ProactiveCheckpoint { step: 3 },
            "proactive checkpoint at step 3",
            r#"{"event":"proactive_checkpoint","step":3}"#,
        ),
        (
            RecoveryEvent::ScalePlanned {
                step: 3,
                from: 4,
                to: 6,
                break_even: Some(12),
                rationale: "grow".into(),
            },
            "step 3: planned resize 4→6 ranks (breaks even after 12 steps): grow",
            r#"{"event":"scale_planned","step":3,"from":4,"to":6,"break_even":12,"rationale":"grow"}"#,
        ),
        (
            RecoveryEvent::ScalePlanned {
                step: 7,
                from: 6,
                to: 3,
                break_even: None,
                rationale: "shrink".into(),
            },
            "step 7: planned resize 6→3 ranks (mandated): shrink",
            r#"{"event":"scale_planned","step":7,"from":6,"to":3,"break_even":null,"rationale":"shrink"}"#,
        ),
        (
            RecoveryEvent::ScaleCommitted {
                step: 3,
                from: 4,
                to: 6,
                count: 5832,
                generation: 1,
            },
            "step 3: resize 4→6 ranks committed (5832 particles certified, generation 1)",
            r#"{"event":"scale_committed","step":3,"from":4,"to":6,"count":5832,"generation":1}"#,
        ),
        (
            RecoveryEvent::ScaleAborted {
                step: 3,
                from: 4,
                to: 6,
                reason: "fence broken by death of rank(s) [1]".into(),
            },
            "step 3: resize 4→6 ranks aborted, rolled back to 4-rank world: \
             fence broken by death of rank(s) [1]",
            r#"{"event":"scale_aborted","step":3,"from":4,"to":6,"reason":"fence broken by death of rank(s) [1]"}"#,
        ),
    ]
}

#[test]
fn every_event_renders_and_serializes_byte_for_byte() {
    for (event, human, json) in golden() {
        assert_eq!(event.to_string(), human, "Display of {event:?}");
        assert_eq!(event.to_json(), json, "to_json of {event:?}");
    }
}
