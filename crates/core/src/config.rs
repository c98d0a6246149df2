//! Simulation configuration.

use hacc_cosmo::Cosmology;
use hacc_pm::{PmLevelConfig, SpectralParams};
use hacc_short::TreeParams;

/// Which short-range solver backs the force evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Long/medium-range only (pure particle-mesh).
    PmOnly,
    /// Direct particle–particle short range (chaining mesh) — the
    /// Roadrunner / accelerated-cluster configuration: the tree cut at
    /// chaining-mesh planes, one non-empty cell per leaf, at any rank
    /// count.
    P3m,
    /// RCB-tree short range — the BG/Q "PPTreePM" configuration.
    TreePm,
}

/// Full driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Background cosmology.
    pub cosmology: Cosmology,
    /// Periodic box side, Mpc/h.
    pub box_len: f64,
    /// PM grid points per side.
    pub ng: usize,
    /// Starting scale factor.
    pub a_init: f64,
    /// Final scale factor.
    pub a_final: f64,
    /// Number of long-range steps (uniform in ln a).
    pub steps: usize,
    /// Short-range sub-cycles per long-range step (paper: 5–10).
    pub subcycles: usize,
    /// Short-range solver choice.
    pub solver: SolverKind,
    /// Spectral solver parameters.
    pub spectral: SpectralParams,
    /// Two-level PM mesh: `Some` splits the Poisson solve into a coarse
    /// global FFT (grid side `ng/coarsening`) plus rank-local fine
    /// complements, cutting the globally transposed volume by
    /// `coarsening³`. `None` keeps the single-level global solve.
    pub two_level: Option<PmLevelConfig>,
    /// Tree tuning (TreePm only).
    pub tree: TreeParams,
    /// Short/long force matching radius in grid cells (paper: 3).
    pub rcut_cells: f64,
    /// Verlet-style skin radius in grid cells for cross-subcycle tree
    /// reuse (TreePm and P³M). The tree's leaf-pair list is built with
    /// `r_cut` inflated by this margin and reused — positions refreshed
    /// in place — until some particle has moved more than half the skin
    /// from its build position, and rebuilt at the first sub-cycle of
    /// every step. `0` disables reuse (rebuild every sub-cycle).
    pub skin_cells: f64,
}

impl SimConfig {
    /// A small but physically sensible default: ΛCDM in a 64 Mpc/h box.
    #[must_use] 
    pub fn small_lcdm() -> Self {
        SimConfig {
            cosmology: Cosmology::lcdm(),
            box_len: 64.0,
            ng: 32,
            a_init: 1.0 / 26.0,
            a_final: 1.0,
            steps: 30,
            subcycles: 5,
            solver: SolverKind::TreePm,
            spectral: SpectralParams::default(),
            two_level: None,
            tree: TreeParams::default(),
            rcut_cells: 3.0,
            skin_cells: 0.25,
        }
    }

    /// Scale-factor boundaries of the long-range steps (uniform in ln a).
    #[must_use] 
    pub fn step_edges(&self) -> Vec<f64> {
        let l0 = self.a_init.ln();
        let l1 = self.a_final.ln();
        (0..=self.steps)
            .map(|i| (l0 + (l1 - l0) * i as f64 / self.steps as f64).exp())
            .collect()
    }

    /// Particle mass in M_sun/h for `np` total particles.
    #[must_use] 
    pub fn particle_mass(&self, np: usize) -> f64 {
        hacc_cosmo::RHO_CRIT_H2_MSUN_MPC3 * self.cosmology.omega_m * self.box_len.powi(3)
            / np as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_edges_cover_range() {
        let cfg = SimConfig::small_lcdm();
        let e = cfg.step_edges();
        assert_eq!(e.len(), 31);
        assert!((e[0] - cfg.a_init).abs() < 1e-12);
        assert!((e[30] - cfg.a_final).abs() < 1e-12);
        for w in e.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Uniform in ln a.
        let r0 = e[1] / e[0];
        let r29 = e[30] / e[29];
        assert!((r0 - r29).abs() < 1e-10);
    }

    #[test]
    fn particle_mass_sensible() {
        // 128³ particles in 64 Mpc/h at Ωm=0.265: ~9e9 M_sun/h.
        let cfg = SimConfig::small_lcdm();
        let m = cfg.particle_mass(128 * 128 * 128);
        assert!(m > 1e9 && m < 5e10, "mass {m}");
    }
}
