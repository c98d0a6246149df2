//! Deterministic fault injection for the simulated machine.
//!
//! The BG/Q runs the paper describes last for many hours across 96 racks;
//! at that scale component failure is an operational certainty and HACC's
//! answer is its checkpoint/restart machinery. To exercise the equivalent
//! machinery in this reproduction, a [`FaultPlan`] threads through
//! [`crate::Machine`] into every send: each point-to-point message gets a
//! seeded, per-message fault decision — drop it, duplicate it, or delay
//! it (deliver out of order) — and a chosen rank can be slowed down or
//! killed outright (an injected panic) when the simulation reaches a
//! configured step.
//!
//! All decisions are pure functions of `(seed, context, src, dst, tag,
//! seq)`, so a failing run replays bit-identically from the same plan —
//! the property the recovery tests rely on.

use crate::sync::{Arc, AtomicBool, Ordering};
use std::time::Duration;

/// What to do with one in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    None,
    /// Lose the message (the sequence number is still consumed, so the
    /// receiver sees a gap and its watchdog can name the missing message).
    Drop,
    /// Deliver the message twice (the receiver's transport layer must
    /// discard the retransmission).
    Duplicate,
    /// Hold the message back so it arrives after later traffic (the
    /// receiver's transport layer must restore order).
    Delay,
    /// Flip one bit of the transmitted frame (the receiver's per-message
    /// CRC must detect the corruption and discard the frame).
    Corrupt,
}

/// A rank artificially slowed on every send, emulating the "one slow
/// node drags the bulk-synchronous step" failure mode.
#[derive(Debug, Clone, Copy)]
pub struct SlowRank {
    /// Global rank to slow down.
    pub rank: usize,
    /// Extra latency added to each of its sends.
    pub per_send: Duration,
}

/// Kill one rank (injected panic) when it begins a given step.
#[derive(Debug, Clone)]
struct KillSpec {
    rank: usize,
    step: u64,
    /// One-shot latch shared across clones of the plan: a re-run after
    /// recovery that passes the same step again is not killed again.
    fired: Arc<AtomicBool>,
}

/// Deterministic, seeded fault-injection plan for one [`crate::Machine`].
///
/// Cloning shares the one-shot kill latch, so a recovery driver can hand
/// the same plan to every retry attempt and the injected kill fires only
/// once.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    dup_prob: f64,
    delay_prob: f64,
    corrupt_prob: f64,
    slow: Option<SlowRank>,
    kills: Vec<KillSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    #[must_use] 
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Start building a plan with a deterministic seed.
    #[must_use] 
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Probability that a message is dropped.
    #[must_use] 
    pub fn drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.drop_prob = p;
        self
    }

    /// Probability that a message is duplicated.
    #[must_use] 
    pub fn dup_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.dup_prob = p;
        self
    }

    /// Probability that a message is delayed (delivered out of order).
    #[must_use] 
    pub fn delay_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.delay_prob = p;
        self
    }

    /// Probability that one bit of a message's wire frame is flipped in
    /// flight. The receiver's CRC detects the damage and discards the
    /// frame, so an injected corruption surfaces exactly like a drop —
    /// a diagnosable sequence gap — never as silently torn data.
    #[must_use]
    pub fn corrupt_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.corrupt_prob = p;
        self
    }

    /// Add `per_send` latency to every send from `rank`.
    #[must_use] 
    pub fn slow_rank(mut self, rank: usize, per_send: Duration) -> Self {
        self.slow = Some(SlowRank { rank, per_send });
        self
    }

    /// Kill `rank` (panic) the first time it begins `step`. One-shot:
    /// clones share the latch, so recovery retries are not re-killed.
    /// Calls accumulate: each adds one more kill.
    #[must_use] 
    pub fn kill_rank_at_step(mut self, rank: usize, step: u64) -> Self {
        self.kills.push(KillSpec {
            rank,
            step,
            fired: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// True if any fault can fire (lets the transport skip the seeded
    /// decision entirely for clean runs).
    #[must_use] 
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.delay_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.slow.is_some()
            || !self.kills.is_empty()
    }

    /// The configured slow rank, if any.
    #[must_use] 
    pub fn slow(&self) -> Option<SlowRank> {
        self.slow
    }

    /// Decide the fate of message `seq` on `(context, src, dst, tag)`.
    /// Pure function of the plan seed and the message coordinates.
    #[must_use] 
    pub fn action(&self, context: u64, src: usize, dst: usize, tag: u64, seq: u64) -> FaultAction {
        if self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.delay_prob == 0.0
            && self.corrupt_prob == 0.0
        {
            return FaultAction::None;
        }
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for word in [context, src as u64, dst as u64, tag, seq] {
            h = mix64(h ^ word);
        }
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < self.drop_prob {
            FaultAction::Drop
        } else if u < self.drop_prob + self.dup_prob {
            FaultAction::Duplicate
        } else if u < self.drop_prob + self.dup_prob + self.delay_prob {
            FaultAction::Delay
        } else if u < self.drop_prob + self.dup_prob + self.delay_prob + self.corrupt_prob {
            FaultAction::Corrupt
        } else {
            FaultAction::None
        }
    }

    /// Which bit of the wire frame to flip for a message chosen for
    /// [`FaultAction::Corrupt`]. Seeded independently of [`Self::action`]
    /// so the flipped bit position is uniform, not correlated with the
    /// band that selected the corruption.
    #[must_use]
    pub fn corrupt_bit(&self, context: u64, src: usize, dst: usize, tag: u64, seq: u64) -> u64 {
        let mut h = self.seed ^ 0x0bad_b175_c0de_f11f;
        for word in [context, src as u64, dst as u64, tag, seq] {
            h = mix64(h ^ word);
        }
        h
    }

    /// Should `rank` die entering `step`? Latches: each kill returns
    /// `true` exactly once per plan (including clones).
    #[must_use] 
    pub fn should_kill(&self, rank: usize, step: u64) -> bool {
        // SeqCst swap: the latch gates control flow (exactly one kill
        // across plan clones, possibly on different machines / retry
        // attempts with no other synchronization between them), so the
        // strongest ordering keeps the one-shot guarantee independent of
        // surrounding code.
        self.kills
            .iter()
            .any(|k| k.rank == rank && k.step == step && !k.fired.swap(true, Ordering::SeqCst))
    }
}

/// SplitMix64 finalizer — a strong 64-bit mixer.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-machine fault counters, surfaced through
/// [`crate::TrafficStats::faults`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages lost by injection.
    pub dropped: u64,
    /// Messages delivered twice by injection.
    pub duplicated: u64,
    /// Messages delivered out of order by injection.
    pub delayed: u64,
    /// Retransmissions discarded by the receiver's transport layer.
    pub dup_discarded: u64,
    /// Messages that arrived ahead of a gap and were buffered for
    /// reordering.
    pub reordered: u64,
    /// Messages whose wire frame had a bit flipped by injection.
    pub corrupted: u64,
    /// Frames the receiver's CRC rejected and discarded.
    pub corrupt_detected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::seeded(42).drop_prob(0.2).dup_prob(0.2);
        let b = FaultPlan::seeded(42).drop_prob(0.2).dup_prob(0.2);
        for seq in 0..200 {
            assert_eq!(a.action(1, 0, 1, 7, seq), b.action(1, 0, 1, 7, seq));
        }
    }

    #[test]
    fn seed_changes_decisions() {
        let a = FaultPlan::seeded(1).drop_prob(0.5);
        let b = FaultPlan::seeded(2).drop_prob(0.5);
        let differs = (0..64).any(|seq| a.action(0, 0, 1, 0, seq) != b.action(0, 0, 1, 0, seq));
        assert!(differs);
    }

    #[test]
    fn probabilities_roughly_respected() {
        let plan = FaultPlan::seeded(7).drop_prob(0.25);
        let n = 10_000u64;
        let drops = (0..n)
            .filter(|&seq| plan.action(3, 1, 2, 9, seq) == FaultAction::Drop)
            .count() as f64;
        let frac = drops / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "drop fraction {frac}");
    }

    #[test]
    fn kill_fires_once_even_across_clones() {
        let plan = FaultPlan::seeded(0).kill_rank_at_step(2, 5);
        let clone = plan.clone();
        assert!(!plan.should_kill(1, 5));
        assert!(!plan.should_kill(2, 4));
        assert!(plan.should_kill(2, 5));
        assert!(!clone.should_kill(2, 5), "latch shared across clones");
    }

    #[test]
    fn kills_accumulate_each_one_shot() {
        let plan = FaultPlan::seeded(0)
            .kill_rank_at_step(1, 3)
            .kill_rank_at_step(0, 4);
        assert!(plan.should_kill(1, 3));
        assert!(!plan.should_kill(1, 3));
        assert!(plan.should_kill(0, 4));
        assert!(!plan.clone().should_kill(0, 4));
    }

    #[test]
    fn inactive_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for seq in 0..100 {
            assert_eq!(plan.action(0, 0, 1, 0, seq), FaultAction::None);
        }
    }
}
