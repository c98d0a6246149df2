//! Fault-tolerant recovery: policy, tiers and the timeline of a run
//! that goes to completion through failures. The driver itself lives in
//! [`crate::elastic`].
//!
//! Ties the fault-tolerance layers together the way a production HACC
//! campaign does, in escalating tiers (DESIGN.md §11):
//!
//! * **Tier 0 — online reconstruction.** A heartbeat monitor
//!   ([`ResilienceConfig::heartbeat`]) is always attached, so a silently
//!   killed rank is *detected* at the next epoch boundary instead of
//!   hanging the machine. Survivors rebuild the lost domain from their
//!   particle overload shells while the fenced rank rejoins as a blank
//!   replacement — the same-size membership change of [`crate::elastic`],
//!   certified by count and locked in by a checkpoint — and computation
//!   continues from the very step that observed the death, without a
//!   rollback.
//! * **Tier 1 — checkpoint rollback.** When Tier 0 cannot certify the
//!   recovered state — the global count shows particles sat deeper than
//!   the overload shell (or drifted out of it), or a physics invariant
//!   watchdog trips ([`crate::invariant`]) — every rank collectively
//!   restores the newest checkpoint set it can validate and replays.
//! * **Tier 2 — abort with diagnosis.** Escalation with no usable
//!   checkpoint, or repeated rollbacks without progress, abort the
//!   attempt with a `tier-2 abort:` marker; the outer driver records
//!   the diagnosis and falls back to its oldest trick — relaunching
//!   the whole attempt (cold if need be) until retries run out.
//!
//! Tier decisions are collective-safe without extra communication:
//! counts and invariant samples come from `allreduce`, which reduces to
//! rank 0 and broadcasts, so every rank compares bitwise-identical
//! numbers and takes the same branch.
//!
//! The relaunch restores from the newest checkpoint set and replays
//! deterministically, so it is still bit-exact w.r.t. an uninterrupted
//! run (see [`crate::checkpoint`]). Either way the driver records a
//! [`RecoveryEvent`] timeline so a run can report what it survived;
//! [`write_timeline_json`] serializes it for CI artifacts.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hacc_comm::{FaultPlan, HeartbeatConfig};

use crate::config::SimConfig;
use crate::elastic::{run_elastic, ScaleSchedule};
use crate::invariant::InvariantConfig;

/// Multiplier applied to the relaunch pause after every failure.
const BACKOFF_FACTOR: f64 = 2.0;

/// Policy knobs for [`run_resilient`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Ranks of the simulated machine.
    pub ranks: usize,
    /// Write a checkpoint set every this many completed steps (the final
    /// step is always checkpointed).
    pub checkpoint_every: u64,
    /// Relaunch attempts after the first, before giving up. Also bounds
    /// Tier-1 rollbacks within one attempt.
    pub max_retries: u32,
    /// Pause before the first relaunch; every later failure doubles it.
    pub backoff: Duration,
    /// Per-receive watchdog for the relaunched machines; a lost message
    /// then surfaces as a diagnostic timeout instead of a hang.
    pub watchdog: Option<Duration>,
    /// Tuning of the heartbeat failure detector that turns a rank death
    /// into an in-run (Tier 0/1) recovery.
    pub heartbeat: HeartbeatConfig,
    /// Physics invariant watchdogs (NaN scan, momentum drift, kinetic
    /// blowup) assessed after every step; a breach escalates to Tier 1.
    pub invariants: Option<InvariantConfig>,
    /// Keep only the newest this-many complete checkpoint sets,
    /// garbage-collecting older ones after each write (`None` = keep
    /// all).
    pub retain: Option<usize>,
    /// Directory holding the checkpoint sets.
    pub dir: PathBuf,
}

impl ResilienceConfig {
    /// Sensible defaults: checkpoint every 2 steps, 3 retries, 10 ms
    /// initial backoff doubling per failure, no watchdog, default
    /// heartbeat tuning, no invariant monitors, keep every checkpoint.
    pub fn new(ranks: usize, dir: impl Into<PathBuf>) -> Self {
        ResilienceConfig {
            ranks,
            checkpoint_every: 2,
            max_retries: 3,
            backoff: Duration::from_millis(10),
            watchdog: None,
            heartbeat: HeartbeatConfig::default(),
            invariants: None,
            retain: None,
            dir: dir.into(),
        }
    }

    pub(crate) fn pause_before_attempt(&self, attempt: u32) -> Duration {
        // attempt 2 waits `backoff`, attempt 3 waits `backoff·factor`, …
        let exp = attempt.saturating_sub(2);
        self.backoff.mul_f64(BACKOFF_FACTOR.powi(exp as i32))
    }
}

/// One entry of the recovery timeline.
#[derive(Debug, Clone)]
pub enum RecoveryEvent {
    /// An attempt launched, cold (`resume_step: None`) or restored from
    /// a checkpoint taken after `resume_step` completed steps.
    AttemptStarted {
        /// 1-based attempt number.
        attempt: u32,
        /// Steps already completed in the newest complete checkpoint set.
        resume_step: Option<u64>,
    },
    /// An attempt died: `rank` failed with `message`.
    Failure {
        /// Attempt that failed.
        attempt: u32,
        /// First rank reported failed.
        rank: usize,
        /// Its panic message (injected kill, comm timeout, …).
        message: String,
    },
    /// The driver slept before relaunching.
    BackedOff {
        /// Attempt about to launch after the pause.
        attempt: u32,
        /// Pause length (exponential in the failure count).
        pause: Duration,
    },
    /// An attempt ran to the end of the schedule.
    Completed {
        /// The successful attempt.
        attempt: u32,
        /// Total completed steps.
        final_step: u64,
    },
    /// The heartbeat monitor declared a rank dead; recovery begins.
    RankFailureDetected {
        /// Step whose admission surfaced the death.
        step: u64,
        /// The dead rank.
        rank: usize,
        /// Last epoch the rank completed before dying.
        epoch: u64,
    },
    /// Tier 0: the lost domains were rebuilt online from overload
    /// shells, with the full particle population accounted for.
    Tier0Reconstructed {
        /// Step whose admission surfaced the death.
        step: u64,
        /// The ranks rebuilt.
        ranks: Vec<usize>,
        /// Post-recovery global active count (equals the expected total).
        count: usize,
    },
    /// Tier 0 could not account for every particle: some sat deeper
    /// than the overload shell (or drifted out of it) and died with the
    /// rank.
    Tier0Incomplete {
        /// Step whose admission surfaced the death.
        step: u64,
        /// Particles the run must contain.
        expected: usize,
        /// Particles actually recovered.
        got: usize,
    },
    /// Tier 0 was disrupted in flight: a further failure (or a timeout /
    /// corrupt link) broke the recovery collective itself, so the run
    /// escalated to rollback without a particle count.
    Tier0Disrupted {
        /// Step whose admission surfaced the original death.
        step: u64,
        /// The communication error that broke the collective.
        detail: String,
    },
    /// Tier 1: every rank restored the newest checkpoint set validating
    /// on all ranks and replays from `resume_step`.
    Tier1Rollback {
        /// Step at which escalation was decided.
        step: u64,
        /// Completed steps in the restored checkpoint.
        resume_step: u64,
    },
    /// Tier 2: recovery could not proceed (no checkpoint, or rollbacks
    /// without progress); the attempt aborted with this diagnosis.
    Tier2Abort {
        /// Attempt that aborted.
        attempt: u32,
        /// The diagnosis carried by the abort.
        reason: String,
    },
    /// A physics invariant watchdog tripped on the global state.
    InvariantBreach {
        /// Step whose post-state breached.
        step: u64,
        /// Which monitor fired, with the numbers.
        detail: String,
    },
    /// A checkpoint written outside the periodic schedule to lock in a
    /// freshly recovered state.
    ProactiveCheckpoint {
        /// Completed steps captured by the checkpoint.
        step: u64,
    },
    /// An elastic resize was decided: the world will grow or shrink at
    /// the next fence, priced by the `hacc-machine` resize model.
    ScalePlanned {
        /// Step after which the resize fences in.
        step: u64,
        /// Active ranks before.
        from: usize,
        /// Active ranks after.
        to: usize,
        /// Steps until the resize pays for itself (`None`: never — the
        /// resize is mandated, e.g. releasing ranks to another job).
        break_even: Option<u64>,
        /// Why the plan was taken.
        rationale: String,
    },
    /// An elastic resize committed: the new world is certified, its
    /// checkpoint set is durable, and the old decomposition retired.
    ScaleCommitted {
        /// Step the resize fenced at.
        step: u64,
        /// Active ranks before.
        from: usize,
        /// Active ranks after.
        to: usize,
        /// Certified global particle count on the new world.
        count: usize,
        /// World generation after the commit.
        generation: u64,
    },
    /// An elastic resize aborted: certification failed or a fault broke
    /// the fence, and the run rolled back to the pre-resize world.
    ScaleAborted {
        /// Step the resize fenced at.
        step: u64,
        /// Active ranks before (the world the run rolls back to).
        from: usize,
        /// Active ranks the aborted resize was targeting.
        to: usize,
        /// Why the resize could not be certified.
        reason: String,
    },
}

/// One JSON field value of a [`RecoveryEvent`].
enum Val<'a> {
    Num(u64),
    Null,
    Ranks(&'a [usize]),
    Text(&'a str),
}

impl RecoveryEvent {
    /// The one table behind both renderings: per variant, the JSON
    /// event name, the human line, and the JSON fields in order.
    fn row(&self) -> (&'static str, String, Vec<(&'static str, Val<'_>)>) {
        use RecoveryEvent as E;
        use Val::{Num, Ranks, Text};
        let n = |v: usize| Num(v as u64);
        let opt = |v: &Option<u64>| v.map_or(Val::Null, Num);
        match self {
            E::AttemptStarted { attempt, resume_step } => (
                "attempt_started",
                match resume_step {
                    None => format!("attempt {attempt}: cold start"),
                    Some(s) => format!("attempt {attempt}: restored from checkpoint at step {s}"),
                },
                vec![("attempt", Num((*attempt).into())), ("resume_step", opt(resume_step))],
            ),
            E::Failure { attempt, rank, message } => (
                "attempt_failed",
                format!("attempt {attempt}: rank {rank} failed: {message}"),
                vec![("attempt", Num((*attempt).into())), ("rank", n(*rank)), ("message", Text(message))],
            ),
            E::BackedOff { attempt, pause } => (
                "backed_off",
                format!("backing off {pause:?} before attempt {attempt}"),
                vec![("attempt", Num((*attempt).into())), ("pause_ms", Num(pause.as_millis() as u64))],
            ),
            E::Completed { attempt, final_step } => (
                "completed",
                format!("attempt {attempt}: completed step {final_step}"),
                vec![("attempt", Num((*attempt).into())), ("final_step", Num(*final_step))],
            ),
            E::RankFailureDetected { step, rank, epoch } => (
                "rank_failure_detected",
                format!("step {step}: rank {rank} declared dead (last completed epoch {epoch})"),
                vec![("step", Num(*step)), ("rank", n(*rank)), ("epoch", Num(*epoch))],
            ),
            E::Tier0Reconstructed { step, ranks, count } => (
                "tier0_reconstructed",
                format!(
                    "step {step}: tier-0 rebuilt rank(s) {ranks:?} from overload shells \
                     ({count} particles accounted for)"
                ),
                vec![("step", Num(*step)), ("ranks", Ranks(ranks)), ("count", n(*count))],
            ),
            E::Tier0Incomplete { step, expected, got } => (
                "tier0_incomplete",
                format!("step {step}: tier-0 incomplete ({got} of {expected} particles recovered)"),
                vec![("step", Num(*step)), ("expected", n(*expected)), ("got", n(*got))],
            ),
            E::Tier0Disrupted { step, detail } => (
                "tier0_disrupted",
                format!("step {step}: tier-0 recovery disrupted mid-collective: {detail}"),
                vec![("step", Num(*step)), ("detail", Text(detail))],
            ),
            E::Tier1Rollback { step, resume_step } => (
                "tier1_rollback",
                format!("step {step}: tier-1 rollback to checkpoint at step {resume_step}"),
                vec![("step", Num(*step)), ("resume_step", Num(*resume_step))],
            ),
            E::Tier2Abort { attempt, reason } => (
                "tier2_abort",
                format!("attempt {attempt}: tier-2 abort: {reason}"),
                vec![("attempt", Num((*attempt).into())), ("reason", Text(reason))],
            ),
            E::InvariantBreach { step, detail } => (
                "invariant_breach",
                format!("step {step}: {detail}"),
                vec![("step", Num(*step)), ("detail", Text(detail))],
            ),
            E::ProactiveCheckpoint { step } => (
                "proactive_checkpoint",
                format!("proactive checkpoint at step {step}"),
                vec![("step", Num(*step))],
            ),
            E::ScalePlanned { step, from, to, break_even, rationale } => (
                "scale_planned",
                match break_even {
                    Some(b) => format!(
                        "step {step}: planned resize {from}→{to} ranks \
                         (breaks even after {b} steps): {rationale}"
                    ),
                    None => format!("step {step}: planned resize {from}→{to} ranks (mandated): {rationale}"),
                },
                vec![
                    ("step", Num(*step)),
                    ("from", n(*from)),
                    ("to", n(*to)),
                    ("break_even", opt(break_even)),
                    ("rationale", Text(rationale)),
                ],
            ),
            E::ScaleCommitted { step, from, to, count, generation } => (
                "scale_committed",
                format!(
                    "step {step}: resize {from}→{to} ranks committed \
                     ({count} particles certified, generation {generation})"
                ),
                vec![
                    ("step", Num(*step)),
                    ("from", n(*from)),
                    ("to", n(*to)),
                    ("count", n(*count)),
                    ("generation", Num(*generation)),
                ],
            ),
            E::ScaleAborted { step, from, to, reason } => (
                "scale_aborted",
                format!(
                    "step {step}: resize {from}→{to} ranks aborted, \
                     rolled back to {from}-rank world: {reason}"
                ),
                vec![("step", Num(*step)), ("from", n(*from)), ("to", n(*to)), ("reason", Text(reason))],
            ),
        }
    }

    /// One JSON object describing this event (manual serialization, as
    /// elsewhere in the workspace — no serde dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let (name, _, fields) = self.row();
        let mut out = format!(r#"{{"event":"{name}""#);
        for (key, val) in fields {
            let val = match val {
                Val::Num(v) => v.to_string(),
                Val::Null => "null".into(),
                Val::Ranks(r) => format!("[{}]", r.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")),
                Val::Text(s) => format!("\"{}\"", json_escape(s)),
            };
            out.push_str(&format!(r#","{key}":{val}"#));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.row().1)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The recovery policy that produced a timeline, recorded in the
/// artifact itself so a post-mortem never has to guess which retry
/// budget or backoff was in force. Serialized as the *first* element of
/// the timeline array (`{"header":{...}}`), keeping the array format
/// that existing readers parse.
#[derive(Debug, Clone)]
pub struct TimelineHeader {
    /// Ranks of the machine (capacity, for elastic runs).
    pub ranks: usize,
    /// Retry budget ([`ResilienceConfig::max_retries`]).
    pub max_retries: u32,
    /// Backoff base ([`ResilienceConfig::backoff`]), milliseconds.
    pub backoff_base_ms: u64,
    /// Checkpoint cadence in steps.
    pub checkpoint_every: u64,
    /// Fault-injection seed, when the run was driven by one.
    pub fault_seed: Option<u64>,
}

impl TimelineHeader {
    /// Capture the policy of `rc`.
    #[must_use]
    pub fn for_config(rc: &ResilienceConfig, fault_seed: Option<u64>) -> Self {
        TimelineHeader {
            ranks: rc.ranks,
            max_retries: rc.max_retries,
            backoff_base_ms: rc.backoff.as_millis() as u64,
            checkpoint_every: rc.checkpoint_every,
            fault_seed,
        }
    }

    /// The header's JSON object (manual serialization, no serde); it
    /// records the fixed backoff multiplier as `backoff_factor`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let seed = self.fault_seed.map_or("null".into(), |s| s.to_string());
        format!(
            r#"{{"header":{{"ranks":{},"max_retries":{},"backoff_base_ms":{},"backoff_factor":{},"checkpoint_every":{},"fault_seed":{}}}}}"#,
            self.ranks,
            self.max_retries,
            self.backoff_base_ms,
            BACKOFF_FACTOR,
            self.checkpoint_every,
            seed
        )
    }
}

/// Write a recovery timeline as a JSON array (one event object per
/// line), creating parent directories as needed. When `header` is given
/// it becomes the first array element, recording the recovery policy
/// alongside the events. CI's fault-matrix job uploads these as
/// artifacts.
pub fn write_timeline_json(
    path: &Path,
    header: Option<&TimelineHeader>,
    timeline: &[RecoveryEvent],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut body: Vec<String> = Vec::with_capacity(timeline.len() + 1);
    if let Some(h) = header {
        body.push(format!("  {}", h.to_json()));
    }
    body.extend(timeline.iter().map(|e| format!("  {}", e.to_json())));
    std::fs::write(path, format!("[\n{}\n]\n", body.join(",\n")))
}

/// The outcome of a successful resilient run.
#[derive(Debug)]
pub struct ResilientRun {
    /// Everything that happened, in order.
    pub timeline: Vec<RecoveryEvent>,
    /// Attempts launched (1 = no failures, or every failure recovered
    /// online).
    pub attempts: u32,
    /// Completed long-range steps.
    pub final_step: u64,
    /// Final `(id, position)` of every particle, gathered to rank 0 and
    /// sorted by id.
    pub positions: Vec<(u64, [f32; 3])>,
}

/// Terminal failure of [`run_resilient`] / [`run_elastic`].
#[derive(Debug)]
pub enum ResilienceError {
    /// Every attempt failed; carries the timeline for post-mortems.
    RetriesExhausted {
        /// Attempts launched.
        attempts: u32,
        /// Last failure message.
        last: String,
        /// Full event history.
        timeline: Vec<RecoveryEvent>,
    },
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::RetriesExhausted { attempts, last, .. } => {
                write!(f, "all {attempts} attempts failed; last failure: {last}")
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

/// What one rank hands back from an attempt: rank 0's gathered
/// positions plus its view of the in-run recovery events.
pub type AttemptOutput = (Option<Vec<(u64, [f32; 3])>>, Vec<RecoveryEvent>);

/// Run `cfg`'s full schedule on a simulated machine of `rc.ranks` ranks
/// under `plan`, surviving injected failures by the tiered recovery
/// protocol: [`run_elastic`] on a world that never resizes.
pub fn run_resilient(
    cfg: SimConfig,
    ics: &hacc_ics::IcsRealization,
    rc: &ResilienceConfig,
    plan: &FaultPlan,
) -> Result<ResilientRun, ResilienceError> {
    run_elastic(cfg, ics, rc, rc.ranks, &ScaleSchedule::default(), plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let mut rc = ResilienceConfig::new(2, "/tmp/unused");
        rc.backoff = Duration::from_millis(8);
        assert_eq!(rc.pause_before_attempt(2), Duration::from_millis(8));
        assert_eq!(rc.pause_before_attempt(3), Duration::from_millis(16));
        assert_eq!(rc.pause_before_attempt(4), Duration::from_millis(32));
    }

    #[test]
    fn timeline_serializes_to_json() {
        let timeline = vec![
            RecoveryEvent::AttemptStarted {
                attempt: 1,
                resume_step: None,
            },
            RecoveryEvent::RankFailureDetected {
                step: 3,
                rank: 1,
                epoch: 2,
            },
            RecoveryEvent::Tier0Incomplete {
                step: 3,
                expected: 4096,
                got: 4000,
            },
            RecoveryEvent::Tier2Abort {
                attempt: 1,
                reason: "a \"quoted\"\ndiagnosis".into(),
            },
        ];
        let dir = std::env::temp_dir().join(format!("hacc_timeline_{}", std::process::id()));
        let path = dir.join("nested").join("timeline.json");
        write_timeline_json(&path, None, &timeline).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.starts_with("[\n"));
        assert!(body.contains(r#""event":"rank_failure_detected","step":3,"rank":1"#));
        assert!(body.contains(r#"\"quoted\"\n"#), "escaping failed: {body}");
        // Parses as far as our own reader needs: balanced brackets, one
        // object per entry.
        assert_eq!(body.matches("{\"event\"").count(), timeline.len());

        // With a header: still an array, header first, same event count.
        let rc = ResilienceConfig::new(4, &dir);
        let header = TimelineHeader::for_config(&rc, Some(9));
        write_timeline_json(&path, Some(&header), &timeline).expect("write with header");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.starts_with("[\n"));
        assert!(
            body.contains(r#"{"header":{"ranks":4,"max_retries":3,"backoff_base_ms":10"#),
            "header missing: {body}"
        );
        assert!(body.contains(r#""fault_seed":9"#));
        assert_eq!(body.matches("{\"event\"").count(), timeline.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
