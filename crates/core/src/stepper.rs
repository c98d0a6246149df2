//! The time integrator of paper Eq. 6.
//!
//! One long step is `M_lr(t/2) (M_sr(t/nc))^nc M_lr(t/2)`: a long-range
//! half kick, `nc` short-range stream–kick–stream sub-cycles with the
//! long-range force frozen, and a closing long-range half kick. Kicks
//! and drifts are applied here, on the phase space the engine lends out
//! through the [`ForceField`] seam: how a step opens and refreshes, and
//! how each force lands in the engine's one held acceleration buffer.
//!
//! One drift convention: positions stream unwrapped, so they stay
//! continuous within a step, and the refresh wraps them once, with the
//! domain's wrap. A position may therefore lie up to one step's drift
//! outside the box.

use std::time::Instant;

use crate::config::{SimConfig, SolverKind};
use crate::stats::StepBreakdown;

/// An engine's particles as the integrator updates them, as disjoint
/// borrows, one entry per local particle in every column: positions
/// (box units), momenta, and the held acceleration the next kick
/// applies.
pub(crate) struct PhaseSpace<'a> {
    pub(crate) x: [&'a mut [f32]; 3],
    pub(crate) p: [&'a mut [f32]; 3],
    pub(crate) a: [&'a [f32]; 3],
}

/// What an engine supplies to the integrator. Every force call leaves
/// its acceleration in the engine's one held buffer, which the next
/// [`Self::phase_space`] lends out: the long-range and short-range
/// accelerations are never live together.
pub(crate) trait ForceField {
    /// Work before the opening kick (the global count).
    fn open(&mut self, brk: &mut StepBreakdown);

    /// Work between the opening kick and the first drift: every
    /// position wrapped into the box by the domain's wrap (and, across
    /// ranks, domains and overload shells rebuilt), the short-range
    /// layer invalidated.
    fn refresh(&mut self, brk: &mut StepBreakdown);

    /// Long-range acceleration of every particle into the held buffer.
    /// With `solve` false the engine may reuse the acceleration its last
    /// closing solve left there: no particle has moved or changed since.
    fn long_range(&mut self, solve: bool, brk: &mut StepBreakdown);

    /// Short-range acceleration of every particle into the held buffer.
    fn short_range(&mut self, brk: &mut StepBreakdown);

    /// Positions, momenta and the held acceleration.
    fn phase_space(&mut self) -> PhaseSpace<'_>;
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
        let ps = field.phase_space();
        axpy(ps.p, ps.a, (1.5 * cosmo.omega_m * factor) as f32);
        brk.other += t.elapsed();
    };
    let drift = |field: &mut F, factor: f64, brk: &mut StepBreakdown| {
        let t = Instant::now();
        let ps = field.phase_space();
        axpy(ps.x, ps.p.map(|p| &*p), factor as f32);
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

/// `y += k·x` over the three SoA components: a kick (`p += k·a`) or
/// an unwrapped drift (`x += f·p`).
fn axpy(y: [&mut [f32]; 3], x: [&[f32]; 3], k: f32) {
    for (y, x) in y.into_iter().zip(x) {
        assert_eq!(y.len(), x.len(), "one entry per particle in every column");
        for (y, x) in y.iter_mut().zip(x) {
            *y += k * x;
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

    /// Each lent slot's acceleration: a unit one on its first particle.
    static SLOT_ACCEL: [f32; 2] = [1.0, 0.0];

    /// A force field that records what the integrator asks of it. Each
    /// `phase_space` call lends a fresh two-particle slot: positions at
    /// zero, momenta `[0, 1]`, acceleration `[1, 0]`. A kick leaves its
    /// coefficient in the first momentum and the positions at zero; a
    /// drift leaves its factor in the second position and the momenta
    /// as they were.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Option<Call>>,
        x: [Vec<f32>; 3],
        p: [Vec<f32>; 3],
    }

    impl Recorder {
        /// The calls in order, each lent slot classified as a kick or a
        /// drift, with every kick's coefficient and every drift's factor
        /// per component, as bits.
        fn replay(&self) -> (Vec<Call>, [Vec<u32>; 3], [Vec<u32>; 3]) {
            let (mut kicks, mut drifts) = <([Vec<u32>; 3], [Vec<u32>; 3])>::default();
            let mut slot = 0;
            let calls = self
                .calls
                .iter()
                .map(|call| {
                    call.unwrap_or_else(|| {
                        let j = 2 * slot;
                        slot += 1;
                        let kicked = (0..3).all(|c| self.p[c][j] != 0.0 && self.x[c][j + 1] == 0.0);
                        let drifted = (0..3).all(|c| self.x[c][j + 1] != 0.0 && self.p[c][j] == 0.0);
                        for c in 0..3 {
                            assert_eq!(self.x[c][j], 0.0, "no position moves without momentum");
                            assert_eq!(self.p[c][j + 1], 1.0, "no momentum moves without acceleration");
                            kicks[c].extend(kicked.then(|| self.p[c][j].to_bits()));
                            drifts[c].extend(drifted.then(|| self.x[c][j + 1].to_bits()));
                        }
                        assert!(kicked != drifted, "slot {slot}: one kick or one drift");
                        if kicked {
                            Call::Kick
                        } else {
                            Call::Drift
                        }
                    })
                })
                .collect();
            (calls, kicks, drifts)
        }
    }

    impl ForceField for Recorder {
        fn open(&mut self, _: &mut StepBreakdown) {
            self.calls.push(Some(Call::Open));
        }

        fn refresh(&mut self, _: &mut StepBreakdown) {
            self.calls.push(Some(Call::Refresh));
        }

        fn long_range(&mut self, solve: bool, _: &mut StepBreakdown) {
            self.calls.push(Some(Call::LongRange { solve }));
        }

        fn short_range(&mut self, _: &mut StepBreakdown) {
            self.calls.push(Some(Call::ShortRange));
        }

        fn phase_space(&mut self) -> PhaseSpace<'_> {
            self.calls.push(None);
            for (x, p) in self.x.iter_mut().zip(&mut self.p) {
                x.extend([0.0, 0.0]);
                p.extend([0.0, 1.0]);
            }
            let last = self.x[0].len() - 2;
            let [x0, x1, x2] = &mut self.x;
            let [p0, p1, p2] = &mut self.p;
            PhaseSpace {
                x: [&mut x0[last..], &mut x1[last..], &mut x2[last..]],
                p: [&mut p0[last..], &mut p1[last..], &mut p2[last..]],
                a: [&SLOT_ACCEL[..]; 3],
            }
        }
    }

    /// Eq. 6 through the seam: the call order open → long-range (held)
    /// → kick → refresh → [drift, short-range, kick, drift] × nc →
    /// long-range (solve) → kick, each kick's coefficient and each
    /// drift's factor that of its interval, the long-range and the
    /// short-range kick factors each summing to the step's, the drift
    /// factors summing to the step's, and no short-range call on a
    /// PM-only run.
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
            let (calls, kicks, drifts) = rec.replay();

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
            assert_eq!(calls, want, "{solver:?}");

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
            let streams: Vec<f64> = subcycle_edges(a0, a1, nc)
                .flat_map(|(b0, bm, b1)| [cosmo.drift_factor(b0, bm), cosmo.drift_factor(bm, b1)])
                .collect();
            assert!(
                close(streams.iter().sum(), drift),
                "drifts {streams:?} vs {drift}"
            );
            for c in 0..3 {
                let want: Vec<u32> = factors
                    .iter()
                    .map(|f| ((1.5 * cosmo.omega_m * f) as f32).to_bits())
                    .collect();
                assert_eq!(kicks[c], want, "{solver:?} kick coefficients, component {c}");
                let want: Vec<u32> = streams.iter().map(|&f| (f as f32).to_bits()).collect();
                assert_eq!(drifts[c], want, "{solver:?} drift factors, component {c}");
            }
        }
    }
}
