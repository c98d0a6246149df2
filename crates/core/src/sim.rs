//! The serial engine: the distributed engine on one rank.
//!
//! [`Simulation`] is a [`DistSimulation`] on the process-wide one-rank
//! world ([`hacc_comm::one_rank`]), so one integrator, one long-range pipeline and one
//! short-range layer serve every rank count. A one-rank view spans
//! every axis whole, and its step sends no message and, once warm,
//! allocates nothing: the refresh wraps in place, the count is the
//! rank's own, the CIC wraps x, the pencil FFT elides both transposes
//! and the two-level complement solves on the periodic fine grid.
//! That is also why any number of simulations, on any threads, can
//! share the one world: none of them ever puts a message on it.

use hacc_comm::one_rank;

use crate::config::SimConfig;
use crate::dist::DistSimulation;

/// A running N-body simulation in one process: the one-rank
/// [`DistSimulation`].
pub type Simulation = DistSimulation<'static>;

impl DistSimulation<'static> {
    /// Build a one-rank simulation from initial conditions.
    ///
    /// The grid-force response is measured and fitted at construction
    /// (paper Eq. 7); this is a one-time cost per spectral configuration.
    /// Positions are wrapped into the box by the constructing refresh.
    #[must_use]
    pub fn from_ics(cfg: SimConfig, ics: &hacc_ics::IcsRealization) -> Self {
        assert!((ics.box_len - cfg.box_len).abs() < 1e-9, "box mismatch");
        DistSimulation::new(one_rank(), cfg, ics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverKind;
    use crate::stats::StepBreakdown;
    use crate::stepper::{self, ForceField, PhaseSpace};
    use hacc_cosmo::{Cosmology, LinearPower, Transfer};

    fn small_cfg(solver: SolverKind) -> SimConfig {
        SimConfig {
            ng: 16,
            box_len: 64.0,
            steps: 4,
            subcycles: 2,
            solver,
            ..SimConfig::small_lcdm()
        }
    }

    fn make_sim(solver: SolverKind, a0: f64) -> Simulation {
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let ics = hacc_ics::zeldovich(16, 64.0, &power, a0, 7);
        let cfg = SimConfig {
            a_init: a0,
            ..small_cfg(solver)
        };
        Simulation::from_ics(cfg, &ics)
    }

    #[test]
    fn momentum_conserved_over_step() {
        let mut sim = make_sim(SolverKind::TreePm, 0.1);
        let p0: f64 = sim.momenta().0.iter().map(|&v| f64::from(v)).sum();
        sim.step(0.11);
        let vx = sim.momenta().0;
        let p1: f64 = vx.iter().map(|&v| f64::from(v)).sum();
        let scale: f64 = vx.iter().map(|&v| f64::from(v.abs())).sum();
        assert!(
            (p1 - p0).abs() < 1e-3 * scale.max(1.0),
            "Δp = {}",
            p1 - p0
        );
    }

    /// `total_accel` runs the step's force paths into the held buffer and
    /// `energies` solves beside it: called between two steps, neither may
    /// move the trajectory by a bit.
    #[test]
    fn probes_between_steps_leave_the_trajectory_alone() {
        for solver in [SolverKind::TreePm, SolverKind::PmOnly] {
            let run = |probe: bool| {
                let mut sim = make_sim(solver, 0.2);
                sim.step(0.22);
                if probe {
                    let _ = sim.total_accel();
                    let _ = sim.energies();
                }
                sim.step(0.24);
                let ((x, y, z), (vx, vy, vz)) = (sim.positions(), sim.momenta());
                [x, y, z, vx, vy, vz].map(|c| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert!(
                run(false) == run(true),
                "{solver:?}: probing moved the trajectory"
            );
        }
    }

    /// The one-rank engine's force field, checked after every short-range
    /// evaluation: the held acceleration must be the f64 minimum-image
    /// brute-force sum over all particles at their current positions.
    struct Checked<'s> {
        sim: &'s mut Simulation,
        /// Indices of two clusters whose pairs the check also counts.
        a: std::ops::Range<usize>,
        b: std::ops::Range<usize>,
        /// Per evaluation: the largest error relative to the largest
        /// force component, the smallest a–b minimum-image distance
        /// (cells) and the a–b pairs inside the cutoff.
        evals: Vec<(f64, f64, usize)>,
    }

    impl Checked<'_> {
        fn check(&mut self) {
            let (cfg, fit) = (*self.sim.config(), self.sim.grid_fit().clone());
            let (ng, np) = (cfg.ng as f64, self.sim.len());
            let to_grid = ng / cfg.box_len;
            let nbar = np as f64 / (ng * ng * ng);
            let scale = cfg.box_len / ng / nbar * fit.norm;
            let k = hacc_short::ForceKernel::new(
                fit.coeffs_f32(),
                cfg.rcut_cells as f32,
                fit.epsilon as f32,
            );
            let PhaseSpace { x, a: accel, .. } = self.sim.phase_space();
            let g: [Vec<f64>; 3] = x.map(|c| c.iter().map(|&v| f64::from(v) * to_grid).collect());
            let sep = |i: usize, j: usize| -> [f64; 3] {
                std::array::from_fn(|c| {
                    let d = g[c][j] - g[c][i];
                    d - ng * (d / ng).round()
                })
            };
            let want: Vec<[f64; 3]> = (0..np)
                .map(|i| {
                    let mut f = [0.0f64; 3];
                    for j in 0..np {
                        let d = sep(i, j);
                        let s = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                        if s <= 0.0 || s >= f64::from(k.rcut2) {
                            continue;
                        }
                        let poly = k.coeffs.iter().rev().fold(0.0, |p, &c| p * s + f64::from(c));
                        let g = (s + f64::from(k.eps)).powf(-1.5) - poly;
                        for (f, d) in f.iter_mut().zip(d) {
                            *f += scale * d * g;
                        }
                    }
                    f
                })
                .collect();
            let big = want.iter().flatten().fold(1e-30, |m: f64, v| m.max(v.abs()));
            let err = want
                .iter()
                .enumerate()
                .flat_map(|(i, f)| (0..3).map(move |c| (f[c] - f64::from(accel[c][i])).abs()))
                .fold(0.0, f64::max);
            let (mut closest, mut cross) = (f64::INFINITY, 0);
            for i in self.a.clone() {
                for j in self.b.clone() {
                    let d = sep(i, j);
                    let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                    closest = closest.min(r);
                    cross += usize::from(r * r < f64::from(k.rcut2));
                }
            }
            self.evals.push((err / big, closest, cross));
        }
    }

    impl ForceField for Checked<'_> {
        fn open(&mut self, brk: &mut StepBreakdown) {
            self.sim.open(brk);
        }
        fn refresh(&mut self, brk: &mut StepBreakdown) {
            self.sim.refresh(brk);
        }
        fn long_range(&mut self, solve: bool, brk: &mut StepBreakdown) {
            self.sim.long_range(solve, brk);
        }
        fn short_range(&mut self, brk: &mut StepBreakdown) {
            self.sim.short_range(brk);
            self.check();
        }
        fn phase_space(&mut self) -> PhaseSpace<'_> {
            self.sim.phase_space()
        }
    }

    /// The Verlet-skin rebuild criterion, after every sub-cycle. Two
    /// 8-particle clusters (one leaf each) close in on each other across
    /// the periodic x face, each moving 0.8 skin per sub-cycle: at the
    /// build their gap is 1.3 skins beyond `r_cut` — outside the pair
    /// list — and one sub-cycle later they are 0.3 skins inside it. Only
    /// a rebuild catches that, and only the two-particle bound (twice
    /// the largest displacement against the skin) asks for one; a lone
    /// fast particle never outruns the list, so it takes two.
    #[test]
    fn subcycle_forces_match_brute_force_with_fast_clusters() {
        let (ng, cell, skin, rcut) = (12usize, 4.0f64, 0.5f64, 3.0f64);
        let (a0, a1) = (0.5f64, 0.5 * 1.004);
        let cfg = SimConfig {
            ng,
            box_len: ng as f64 * cell,
            a_init: a0,
            subcycles: 4,
            skin_cells: skin,
            rcut_cells: rcut,
            tree: hacc_short::TreeParams { leaf_size: 8 },
            ..small_cfg(SolverKind::TreePm)
        };
        // Sub-cycle edges, equal in ln a: the first evaluation follows a
        // half sub-cycle drift, the next one a whole sub-cycle.
        let b = |s: f64| a0 * (a1 / a0).powf(s / 4.0);
        let c = cfg.cosmology;
        let half = c.drift_factor(b(0.0), (b(0.0) * b(1.0)).sqrt());
        let whole = c.drift_factor((b(0.0) * b(1.0)).sqrt(), (b(1.0) * b(2.0)).sqrt());
        let v = 0.8 * skin * cell / whole;
        let gap0 = rcut + 1.3 * skin + 2.0 * v * half / cell;
        let (p, w) = (ng as f64, 0.2);
        let mut ics = hacc_ics::uniform_grid(2, cfg.box_len);
        let (mut x, mut y, mut z, mut vx) = (vec![], vec![], vec![], vec![]);
        for (edge, side, vel) in [(p - 0.5 * gap0, -1.0, v), (0.5 * gap0, 1.0, -v)] {
            for l in 0..8 {
                let o = [l & 1, (l >> 1) & 1, l >> 2].map(|b| f64::from(b) * w);
                x.push(((edge + side * o[0]) * cell) as f32);
                y.push(((6.0 + o[1]) * cell) as f32);
                z.push(((6.0 + o[2]) * cell) as f32);
                vx.push(vel as f32);
            }
        }
        (ics.x, ics.y, ics.z) = (x, y, z);
        ics.vx = vx;
        (ics.vy, ics.vz) = (vec![0.0; 16], vec![0.0; 16]);
        ics.a_init = a0;
        let mut sim = Simulation::from_ics(cfg, &ics);
        let mut run = Checked {
            sim: &mut sim,
            a: 0..8,
            b: 8..16,
            evals: Vec::new(),
        };
        stepper::step(&mut run, &cfg, a0, a1);
        let evals = run.evals;
        assert_eq!(evals.len(), 4);
        let (_, built, _) = evals[0];
        assert!(
            built > rcut + skin,
            "at the build the clusters must lie beyond the list: {built:.3}"
        );
        assert!(evals.iter().any(|e| e.2 > 0), "the clusters must come into range: {evals:?}");
        for (sub, &(err, closest, cross)) in evals.iter().enumerate() {
            assert!(
                err < 1e-5,
                "sub-cycle {sub}: short-range force off by {err:.2e} of the largest \
                 (closest cluster pair {closest:.3} cells, {cross} pairs in range)"
            );
        }
    }

    /// The one-rank engine's force field, its positions checked after
    /// every refresh.
    struct Refreshed<'s> {
        sim: &'s mut Simulation,
        refreshes: usize,
    }

    impl ForceField for Refreshed<'_> {
        fn open(&mut self, brk: &mut StepBreakdown) {
            self.sim.open(brk);
        }
        fn refresh(&mut self, brk: &mut StepBreakdown) {
            self.sim.refresh(brk);
            self.refreshes += 1;
            let l = self.sim.config().box_len as f32;
            let (x, y, z) = self.sim.positions();
            for v in x.iter().chain(y).chain(z) {
                assert!(*v >= 0.0 && *v < l, "position {v} after refresh {}", self.refreshes);
            }
        }
        fn long_range(&mut self, solve: bool, brk: &mut StepBreakdown) {
            self.sim.long_range(solve, brk);
        }
        fn short_range(&mut self, brk: &mut StepBreakdown) {
            self.sim.short_range(brk);
        }
        fn phase_space(&mut self) -> PhaseSpace<'_> {
            self.sim.phase_space()
        }
    }

    /// Positions stream unwrapped within a step; every refresh wraps
    /// them all into `[0, L)`. Steps large enough that some particle
    /// leaves the box within each.
    #[test]
    fn refresh_wraps_every_position_into_the_box() {
        for solver in [SolverKind::P3m, SolverKind::TreePm] {
            let mut sim = make_sim(solver, 0.2);
            let cfg = *sim.config();
            let mut field = Refreshed {
                sim: &mut sim,
                refreshes: 0,
            };
            let mut outside = 0;
            for (a0, a1) in [(0.2, 0.25), (0.25, 0.3)] {
                stepper::step(&mut field, &cfg, a0, a1);
                let l = cfg.box_len as f32;
                let (x, y, z) = field.sim.positions();
                outside += x.iter().chain(y).chain(z).filter(|&&v| !(0.0..l).contains(&v)).count();
            }
            assert_eq!(field.refreshes, 2, "{solver:?}");
            assert!(outside > 0, "{solver:?}: no particle left the box within a step");
        }
    }

    /// P³M's chaining-mesh tree takes the minimum image on every whole
    /// axis: at positions up to a step's drift outside the box, the
    /// forces are those at the wrapped positions, to rounding.
    #[test]
    fn p3m_forces_do_not_depend_on_the_wrap() {
        let mut sim = make_sim(SolverKind::P3m, 0.2);
        sim.step(0.25);
        let l = sim.config().box_len as f32;
        let (x, y, z) = sim.positions();
        let outside = x.iter().chain(y).chain(z).filter(|v| !(0.0..l).contains(*v));
        assert!(outside.count() > 0, "no particle outside the box");
        let unwrapped = sim.total_accel();
        sim.refresh(&mut StepBreakdown::default());
        let wrapped = sim.total_accel();
        let big = wrapped.iter().flatten().fold(0.0f32, |m, v| m.max(v.abs()));
        let (u, w) = (unwrapped.iter().flatten(), wrapped.iter().flatten());
        let worst = u.zip(w).fold(0.0f32, |m, (u, w)| m.max((u - w).abs()));
        assert!(worst <= 1e-4 * big, "forces differ by {worst:.3e} of the largest {big:.3e}");
    }

    #[test]
    fn linear_growth_reproduced_pm_only() {
        // Evolve a Zel'dovich start through the linear regime; the
        // *low-k* power (well below the force-resolution scale, where the
        // PM force is exact) must grow as D²(a). The total momentum rms
        // would lag because CIC+filter suppress the near-Nyquist modes —
        // that is by design (the short-range solver owns those scales).
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let a0 = 0.05;
        let a1 = 0.1;
        let box_len = 200.0;
        let ics = hacc_ics::zeldovich(24, box_len, &power, a0, 3);
        let cfg = SimConfig {
            a_init: a0,
            a_final: a1,
            steps: 10,
            box_len,
            ng: 48,
            solver: SolverKind::PmOnly,
            ..small_cfg(SolverKind::PmOnly)
        };
        let mut sim = Simulation::from_ics(cfg, &ics);
        let spectrum = |s: &Simulation| {
            let (x, y, z) = s.positions();
            hacc_analysis::PowerSpectrum::measure(x, y, z, box_len, 24, 12)
        };
        let ps0 = spectrum(&sim);
        sim.run(|_, _| {});
        let ps1 = spectrum(&sim);
        let g = power.growth();
        let want = (g.d_of_a(a1) / g.d_of_a(a0)).powi(2);
        // Average the growth over the lowest few k bins.
        let mut ratio = 0.0;
        let mut n = 0;
        for i in 0..ps0.k.len().min(4) {
            ratio += ps1.p[i] / ps0.p[i];
            n += 1;
        }
        let got = ratio / f64::from(n);
        assert!(
            (got / want - 1.0).abs() < 0.12,
            "low-k power growth {got}, linear theory D² = {want}"
        );
    }

    #[test]
    fn treepm_and_p3m_forces_agree() {
        let mut sim_tree = make_sim(SolverKind::TreePm, 0.3);
        let mut sim_p3m = make_sim(SolverKind::P3m, 0.3);
        let ft = sim_tree.total_accel();
        let fp = sim_p3m.total_accel();
        // Identical particle states ⇒ near-identical forces (both exact
        // within the cutoff; differences only from f32 ordering).
        let mut max_rel: f64 = 0.0;
        let scale = ft[0]
            .iter()
            .map(|&v| f64::from(v.abs()))
            .fold(0.0, f64::max)
            .max(1e-12);
        for c in 0..3 {
            for (a, b) in ft[c].iter().zip(&fp[c]) {
                max_rel = max_rel.max(f64::from((a - b).abs()) / scale);
            }
        }
        assert!(max_rel < 1e-3, "max relative force diff {max_rel}");
    }

    #[test]
    fn two_level_pm_matches_single_level_forces() {
        // The two-level Poisson solve must reproduce the single-level PM
        // acceleration below the P³M force-noise floor on an evolved
        // (clustered) particle state.
        let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
        let ics = hacc_ics::zeldovich(16, 64.0, &power, 0.3, 11);
        let cfg1 = SimConfig {
            a_init: 0.3,
            ng: 32,
            solver: SolverKind::PmOnly,
            ..small_cfg(SolverKind::PmOnly)
        };
        let cfg2 = SimConfig {
            two_level: Some(hacc_pm::PmLevelConfig::default()),
            ..cfg1
        };
        let mut s2 = Simulation::from_ics(cfg2, &ics);
        // Evolve the two-level run a little so the step loop itself (both
        // half kicks, cache reuse) exercises the new path, then compare
        // forces at identical positions.
        s2.step(0.32);
        let parts = s2.particles().clone();
        let mut s1 = DistSimulation::from_checkpoint_state(one_rank(), cfg1, s2.a, parts);
        let f1 = s1.total_accel();
        let f2 = s2.total_accel();
        let mut err2 = 0.0f64;
        let mut ref2 = 0.0f64;
        for c in 0..3 {
            for (a, b) in f1[c].iter().zip(&f2[c]) {
                err2 += f64::from(a - b).powi(2);
                ref2 += f64::from(*a).powi(2);
            }
        }
        let rel = (err2 / ref2.max(1e-30)).sqrt();
        assert!(rel < 0.05, "two-level vs single-level rms force diff {rel:.4}");
        // The coarse solve must have been timed into its own slot.
        let total = s2.stats.total();
        assert!(total.coarse_fft.as_nanos() > 0);
        assert!(total.fft.as_nanos() > 0);
    }

    #[test]
    fn stats_populated() {
        let mut sim = make_sim(SolverKind::TreePm, 0.2);
        sim.step(0.22);
        let total = sim.stats.total();
        assert!(total.interactions > 0);
        assert!(total.kernel.as_nanos() > 0);
        assert!(total.fft.as_nanos() > 0);
        assert!(sim.stats.time_per_substep_per_particle(sim.len(), 2) > 0.0);
    }

    #[test]
    fn pair_force_matches_newtonian_in_matching_region() {
        // Two isolated particles: |total accel| ≈ (Δ/n̄)·norm/r² with the
        // fitted normalization, for r inside the matching region.
        // Use the same grid size as the fit's reference (32³) so the PM
        // response matches the fitted poly; average many random
        // orientations/offsets, because at r < r_cut the residual CIC
        // anisotropy of the *grid* force (±10-20% pointwise even after
        // filtering) only cancels in the spherical mean — which is exactly
        // what the isotropic short-range kernel is fitted against.
        let cfg = SimConfig {
            a_init: 0.5,
            ng: 32,
            ..small_cfg(SolverKind::TreePm)
        };
        let ng = cfg.ng as f64;
        let delta = cfg.box_len / ng; // 2 Mpc/h per cell
        let r_cells = 1.5;
        let nbar = 2.0 / (ng * ng * ng);
        let mut rng = 0xDEADBEEFu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng as f64 / u64::MAX as f64
        };
        let mut ratios = Vec::new();
        for _ in 0..16 {
            let u = 2.0 * next() - 1.0;
            let phi = 2.0 * std::f64::consts::PI * next();
            let q = (1.0 - u * u).sqrt();
            let (ux, uy, uz) = (q * phi.cos(), q * phi.sin(), u);
            let bx = 24.0 + 16.0 * next();
            let by = 24.0 + 16.0 * next();
            let bz = 24.0 + 16.0 * next();
            let mut ics = hacc_ics::uniform_grid(2, cfg.box_len);
            ics.x = vec![bx as f32, (bx + r_cells * delta * ux) as f32];
            ics.y = vec![by as f32, (by + r_cells * delta * uy) as f32];
            ics.z = vec![bz as f32, (bz + r_cells * delta * uz) as f32];
            ics.vx = vec![0.0; 2];
            ics.vy = vec![0.0; 2];
            ics.vz = vec![0.0; 2];
            ics.a_init = 0.5;
            let mut sim = Simulation::from_ics(cfg, &ics);
            let f = sim.total_accel();
            // Radial component of the force on particle 0 toward 1.
            let fr = f64::from(f[0][0]) * ux + f64::from(f[1][0]) * uy + f64::from(f[2][0]) * uz;
            let want = delta / nbar * sim.grid_fit().norm / (r_cells * r_cells);
            assert!(fr > 0.0, "attraction expected, got {fr}");
            ratios.push(fr / want);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            (mean - 1.0).abs() < 0.08,
            "mean pair accel / Newtonian = {mean} (samples {ratios:?})"
        );
    }
}
