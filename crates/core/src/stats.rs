//! Per-step and cumulative performance accounting.
//!
//! Section III reports the full-code time split at the 16 ranks × 4
//! threads operating point — 80% force kernel, 10% tree walk, 5% FFT, 5%
//! everything else — and the tables report flops from counted kernel
//! interactions. This module collects the same quantities.

use std::time::Duration;

/// Timing breakdown of one long-range step (all sub-cycles included).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepBreakdown {
    /// Force kernel time (interaction loops).
    pub kernel: Duration,
    /// Tree walk (interaction-list gathering) time.
    pub walk: Duration,
    /// Tree build (partitioning) time.
    pub build: Duration,
    /// Spectral solver time (FFTs + k-space kernels). With the
    /// two-level mesh this is the *fine* (rank-local) complement solve.
    pub fft: Duration,
    /// Coarse-level spectral solve of the two-level mesh (the globally
    /// communicated `(ng/c)³` transform). Zero on single-level runs.
    pub coarse_fft: Duration,
    /// CIC deposit + interpolation time.
    pub cic: Duration,
    /// Kicks and drifts (both engines), and on the distributed engine
    /// the step's global particle count and domain refresh.
    pub other: Duration,
    /// Effective *directed* particle–particle interactions: the number of
    /// (target, source) force contributions applied. A symmetric pair
    /// evaluation applies two of these at once, so this is the quantity
    /// comparable with the paper's Fig. 5 counts and earlier BENCH files.
    pub interactions: u64,
    /// Kernel evaluations actually executed. On the one-sided solvers
    /// this equals `interactions`; on the symmetric dual-tree walk each
    /// cross-leaf evaluation covers two directed interactions, so this is
    /// roughly half.
    pub pair_interactions: u64,
}

impl StepBreakdown {
    /// Total wall-clock of the step.
    #[must_use] 
    pub fn total(&self) -> Duration {
        self.kernel + self.walk + self.build + self.fft + self.coarse_fft + self.cic + self.other
    }

    /// Fraction of time in the force kernel.
    #[must_use] 
    pub fn kernel_fraction(&self) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.kernel.as_secs_f64() / t
        }
    }

    /// Kernel flops following the paper's 42-flops-per-interaction
    /// accounting, charged per *directed* interaction so fraction-of-peak
    /// numbers stay comparable across solver generations.
    #[must_use]
    pub fn flops(&self) -> f64 {
        self.interactions as f64 * hacc_short::FLOPS_PER_INTERACTION as f64
    }

    /// Directed interactions delivered per kernel evaluation — 1.0 for
    /// the one-sided solvers, approaching 2.0 when the symmetric walk
    /// covers most pairs via Newton's third law.
    #[must_use]
    pub fn symmetry_factor(&self) -> f64 {
        if self.pair_interactions == 0 {
            1.0
        } else {
            self.interactions as f64 / self.pair_interactions as f64
        }
    }

    /// Accumulate another breakdown.
    pub fn add(&mut self, o: &StepBreakdown) {
        self.kernel += o.kernel;
        self.walk += o.walk;
        self.build += o.build;
        self.fft += o.fft;
        self.coarse_fft += o.coarse_fft;
        self.cic += o.cic;
        self.other += o.other;
        self.interactions += o.interactions;
        self.pair_interactions += o.pair_interactions;
    }
}

/// Cumulative statistics over a run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Per-step breakdowns in execution order.
    pub steps: Vec<StepBreakdown>,
}

impl RunStats {
    /// Sum over all steps.
    #[must_use] 
    pub fn total(&self) -> StepBreakdown {
        let mut acc = StepBreakdown::default();
        for s in &self.steps {
            acc.add(s);
        }
        acc
    }

    /// Seconds per sub-step per particle — the paper's headline metric
    /// (Fig. 7 red curve), given the particle count and sub-cycles.
    #[must_use] 
    pub fn time_per_substep_per_particle(&self, particles: usize, subcycles: usize) -> f64 {
        let t = self.total().total().as_secs_f64();
        let substeps = self.steps.len() * subcycles;
        if substeps == 0 || particles == 0 {
            0.0
        } else {
            t / substeps as f64 / particles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_fractions() {
        let b = StepBreakdown {
            kernel: Duration::from_millis(80),
            walk: Duration::from_millis(10),
            build: Duration::from_millis(2),
            fft: Duration::from_millis(4),
            coarse_fft: Duration::from_millis(1),
            cic: Duration::from_millis(2),
            other: Duration::from_millis(1),
            interactions: 1000,
            pair_interactions: 600,
        };
        assert_eq!(b.total(), Duration::from_millis(100));
        assert!((b.kernel_fraction() - 0.8).abs() < 1e-9);
        assert_eq!(b.flops(), 42_000.0);
        assert!((b.symmetry_factor() - 1000.0 / 600.0).abs() < 1e-12);
        assert_eq!(StepBreakdown::default().symmetry_factor(), 1.0);
    }

    #[test]
    fn run_stats_accumulate() {
        let mut r = RunStats::default();
        for _ in 0..4 {
            r.steps.push(StepBreakdown {
                kernel: Duration::from_millis(10),
                interactions: 5,
                ..Default::default()
            });
        }
        assert_eq!(r.total().interactions, 20);
        let tpp = r.time_per_substep_per_particle(10, 2);
        assert!((tpp - 0.04 / 8.0 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_safe() {
        let r = RunStats::default();
        assert_eq!(r.time_per_substep_per_particle(0, 0), 0.0);
        assert_eq!(StepBreakdown::default().kernel_fraction(), 0.0);
    }
}
