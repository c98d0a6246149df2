//! The time integrator of paper Eq. 6, written once for both engines.
//!
//! One long step is `M_lr(t/2) (M_sr(t/nc))^nc M_lr(t/2)`: a long-range
//! half kick, `nc` short-range stream–kick–stream sub-cycles with the
//! long-range force frozen, and a closing long-range half kick. The
//! engines differ only beneath it, in the [`ForceField`] they hand in:
//! how a step opens and refreshes, how each force lands in the engine's
//! one held acceleration buffer, and how particles drift.

use std::time::Instant;

use crate::config::{SimConfig, SolverKind};
use crate::stats::StepBreakdown;

/// What an engine supplies to the integrator. Every force call leaves
/// its acceleration in the engine's one held buffer, which the next
/// [`Self::kick_operands`] lends out: the long-range and short-range
/// accelerations are never live together.
pub(crate) trait ForceField {
    /// Work before the opening kick (the distributed engine's global
    /// count; nothing for the serial engine).
    fn open(&mut self, brk: &mut StepBreakdown);

    /// Work between the opening kick and the first drift (the
    /// distributed engine's refresh of domains and overload shells;
    /// nothing for the serial engine).
    fn refresh(&mut self, brk: &mut StepBreakdown);

    /// Long-range acceleration of every particle into the held buffer.
    /// With `solve` false the engine may reuse the acceleration its last
    /// closing solve left there: no particle has moved or changed since.
    fn long_range(&mut self, solve: bool, brk: &mut StepBreakdown);

    /// Short-range acceleration of every particle into the held buffer.
    fn short_range(&mut self, brk: &mut StepBreakdown);

    /// The momenta a kick updates and the held acceleration it applies,
    /// as disjoint borrows, one entry per particle in both.
    fn kick_operands(&mut self) -> ([&mut [f32]; 3], [&[f32]; 3]);

    /// Stream every particle by `x += factor · p`.
    fn drift(&mut self, factor: f64);
}

/// Advance `field` one long step `a0 → a1` by paper Eq. 6 under `cfg`'s
/// cosmology, sub-cycle count and solver. Kicks and drifts are booked
/// into [`StepBreakdown::other`]; the force calls book their own layers.
pub(crate) fn step<F: ForceField>(
    field: &mut F,
    cfg: &SimConfig,
    a0: f64,
    a1: f64,
) -> StepBreakdown {
    let mut brk = StepBreakdown::default();
    let cosmo = cfg.cosmology;
    let am = (a0 * a1).sqrt();
    let kick = |field: &mut F, factor: f64, brk: &mut StepBreakdown| {
        let t = Instant::now();
        let (p, a) = field.kick_operands();
        apply_kick(p, a, (1.5 * cosmo.omega_m * factor) as f32);
        brk.other += t.elapsed();
    };
    let drift = |field: &mut F, factor: f64, brk: &mut StepBreakdown| {
        let t = Instant::now();
        field.drift(factor);
        brk.other += t.elapsed();
    };

    field.open(&mut brk);
    field.long_range(false, &mut brk);
    kick(field, cosmo.kick_factor(a0, am), &mut brk);
    field.refresh(&mut brk);
    for (b0, bm, b1) in subcycle_edges(a0, a1, cfg.subcycles) {
        drift(field, cosmo.drift_factor(b0, bm), &mut brk);
        if cfg.solver != SolverKind::PmOnly {
            field.short_range(&mut brk);
            kick(field, cosmo.kick_factor(b0, b1), &mut brk);
        }
        drift(field, cosmo.drift_factor(bm, b1), &mut brk);
    }
    field.long_range(true, &mut brk);
    kick(field, cosmo.kick_factor(am, a1), &mut brk);
    brk
}

/// The short-range sub-cycle schedule of one long step `a0 → a1`:
/// `subcycles` (at least one) equal steps in `ln a`, each as
/// `(b0, bm, b1)` — its edges and their geometric midpoint, where the
/// two drifts meet around the short-range kick.
fn subcycle_edges(a0: f64, a1: f64, subcycles: usize) -> impl Iterator<Item = (f64, f64, f64)> {
    let nc = subcycles.max(1);
    let (l0, l1) = (a0.ln(), a1.ln());
    (0..nc).map(move |s| {
        let b0 = (l0 + (l1 - l0) * s as f64 / nc as f64).exp();
        let b1 = (l0 + (l1 - l0) * (s + 1) as f64 / nc as f64).exp();
        (b0, (b0 * b1).sqrt(), b1)
    })
}

/// `p += k·a` over the three SoA components.
fn apply_kick(p: [&mut [f32]; 3], a: [&[f32]; 3], k: f32) {
    for (p, a) in p.into_iter().zip(a) {
        assert_eq!(p.len(), a.len(), "one acceleration per momentum");
        for (p, a) in p.iter_mut().zip(a) {
            *p += k * a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Call {
        Open,
        Refresh,
        LongRange { solve: bool },
        ShortRange,
        Kick,
        Drift,
    }

    static UNIT: [f32; 1] = [1.0];

    /// A force field that records what the integrator asks of it. Each
    /// kick gets a fresh one-particle momentum slot at zero against a
    /// unit acceleration, so the slot ends holding the kick's coefficient.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Call>,
        drifts: Vec<f64>,
        kicks: [Vec<f32>; 3],
    }

    impl ForceField for Recorder {
        fn open(&mut self, _: &mut StepBreakdown) {
            self.calls.push(Call::Open);
        }

        fn refresh(&mut self, _: &mut StepBreakdown) {
            self.calls.push(Call::Refresh);
        }

        fn long_range(&mut self, solve: bool, _: &mut StepBreakdown) {
            self.calls.push(Call::LongRange { solve });
        }

        fn short_range(&mut self, _: &mut StepBreakdown) {
            self.calls.push(Call::ShortRange);
        }

        fn kick_operands(&mut self) -> ([&mut [f32]; 3], [&[f32]; 3]) {
            self.calls.push(Call::Kick);
            let [x, y, z] = &mut self.kicks;
            for c in [&mut *x, &mut *y, &mut *z] {
                c.push(0.0);
            }
            let last = x.len() - 1;
            (
                [&mut x[last..], &mut y[last..], &mut z[last..]],
                [&UNIT[..]; 3],
            )
        }

        fn drift(&mut self, factor: f64) {
            self.calls.push(Call::Drift);
            self.drifts.push(factor);
        }
    }

    /// Eq. 6 through the seam: the call order open → long-range (held)
    /// → kick → refresh → [drift, short-range, kick, drift] × nc →
    /// long-range (solve) → kick, each kick's coefficient that of its
    /// interval, the long-range and the short-range kick factors each
    /// summing to the step's, the drift factors summing to the step's,
    /// and no short-range call on a PM-only run.
    #[test]
    fn eq6_runs_once_through_the_seam() {
        let (a0, a1, nc) = (0.25, 0.3, 3);
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.abs().max(1.0);
        for solver in [SolverKind::TreePm, SolverKind::PmOnly] {
            let cfg = SimConfig {
                subcycles: nc,
                solver,
                ..SimConfig::small_lcdm()
            };
            let short = solver != SolverKind::PmOnly;
            let mut rec = Recorder::default();
            step(&mut rec, &cfg, a0, a1);

            let mut want = vec![
                Call::Open,
                Call::LongRange { solve: false },
                Call::Kick,
                Call::Refresh,
            ];
            for _ in 0..nc {
                want.push(Call::Drift);
                if short {
                    want.extend([Call::ShortRange, Call::Kick]);
                }
                want.push(Call::Drift);
            }
            want.extend([Call::LongRange { solve: true }, Call::Kick]);
            assert_eq!(rec.calls, want, "{solver:?}");

            let cosmo = cfg.cosmology;
            let (kick, drift) = (cosmo.kick_factor(a0, a1), cosmo.drift_factor(a0, a1));
            let am = (a0 * a1).sqrt();
            let long = [cosmo.kick_factor(a0, am), cosmo.kick_factor(am, a1)];
            assert!(
                close(long.iter().sum(), kick),
                "long-range kicks {long:?} vs {kick}"
            );
            let sub: Vec<f64> = subcycle_edges(a0, a1, nc)
                .map(|(b0, _, b1)| cosmo.kick_factor(b0, b1))
                .collect();
            assert!(
                close(sub.iter().sum(), kick),
                "short-range kicks {sub:?} vs {kick}"
            );
            let factors: Vec<f64> = if short {
                [long[0]].into_iter().chain(sub).chain([long[1]]).collect()
            } else {
                long.to_vec()
            };
            for (c, got) in rec.kicks.iter().enumerate() {
                let got: Vec<u32> = got.iter().map(|k| k.to_bits()).collect();
                let want: Vec<u32> = factors
                    .iter()
                    .map(|f| ((1.5 * cosmo.omega_m * f) as f32).to_bits())
                    .collect();
                assert_eq!(got, want, "{solver:?} kick coefficients, component {c}");
            }
            let drifted: f64 = rec.drifts.iter().sum();
            assert!(
                close(drifted, drift),
                "{solver:?} drifts {:?} vs {drift}",
                rec.drifts
            );
        }
    }
}
