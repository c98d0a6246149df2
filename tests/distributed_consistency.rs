//! Cross-crate integration tests for the distributed substrates: the
//! threads-as-ranks machine, distributed FFT/Poisson stack, and the
//! overloaded domain driver must reproduce the serial results.

use hacc::comm::Machine;
use hacc::core::{DistSimulation, SimConfig, Simulation, SolverKind};
use hacc::cosmo::{Cosmology, LinearPower, Transfer};
use hacc::fft::{Complex64, DistFft3, Fft3, PencilFft, SlabFft};

fn rand_field(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) - 0.5
    };
    (0..len).map(|_| next()).collect()
}

/// Slab and pencil FFTs agree with the serial transform on the same data
/// — the core guarantee behind Fig. 6 / Table I.
#[test]
fn distributed_ffts_match_serial() {
    let n = 12;
    let field = rand_field(n * n * n, 77);
    let mut want: Vec<Complex64> = field.iter().map(|&v| Complex64::new(v, 0.0)).collect();
    Fft3::new_cubic(n).forward(&mut want);

    for (ranks, pencil) in [(3usize, false), (4, true), (6, true)] {
        let f = field.clone();
        let (res, _) = Machine::new(ranks).run(move |comm| {
            let check = |fft: &dyn DistFft3| -> (hacc::fft::Layout3, Vec<Complex64>) {
                let rl = fft.real_layout();
                let mut local = vec![Complex64::ZERO; rl.len()];
                for (i, v) in local.iter_mut().enumerate() {
                    let g = rl.global_coords(i);
                    *v = Complex64::new(f[(g[0] * n + g[1]) * n + g[2]], 0.0);
                }
                (fft.k_layout(), fft.forward(local))
            };
            if pencil {
                check(&PencilFft::new(&comm, n))
            } else {
                check(&SlabFft::new(&comm, n))
            }
        });
        for (kl, data) in &res {
            for (i, v) in data.iter().enumerate() {
                let g = kl.global_coords(i);
                let w = want[(g[0] * n + g[1]) * n + g[2]];
                assert!(
                    (*v - w).abs() < 1e-8,
                    "ranks={ranks} pencil={pencil} {g:?}"
                );
            }
        }
    }
}

/// The distributed overloaded driver reproduces the serial driver's
/// trajectory (the Table II/III workhorse) on every axis the force
/// layers have: PM-only, TreePM and P³M, single-level and two-level
/// mesh, and 1, 2 and 4 ranks. `Simulation` is the engine on the process-wide
/// one-rank world, so the 1-rank row pins a view on a fresh world to
/// it; the two-level mesh's ties to an oracle outside the engine are
/// `one_rank_two_level_mesh_is_the_serial_two_level_solver` and
/// `padded_two_level_mesh_tracks_the_periodic_one`.
#[test]
fn distributed_driver_tracks_serial() {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let ics = hacc::ics::zeldovich(16, 64.0, &power, 0.25, 2024);
    // ng = 80 gives each of 4 slabs the 20 planes the default two-level
    // split needs (14 kernel + 6 interpolation ghost planes).
    let meshes = [(32, None), (80, Some(hacc::pm::PmLevelConfig::default()))];
    for solver in [SolverKind::PmOnly, SolverKind::TreePm, SolverKind::P3m] {
        for (ng, two_level) in meshes {
            let cfg = SimConfig {
                cosmology: Cosmology::lcdm(),
                box_len: 64.0,
                ng,
                a_init: 0.25,
                a_final: 0.3,
                steps: 2,
                subcycles: 2,
                solver,
                two_level,
                ..SimConfig::small_lcdm()
            };
            let mut serial = Simulation::from_ics(cfg, &ics);
            serial.run(|_, _| {});
            let (sx, sy, sz) = serial.positions();

            for ranks in [1usize, 2, 4] {
                let ics2 = ics.clone();
                let (res, _) = Machine::new(ranks).run(move |comm| {
                    let mut sim = DistSimulation::new(&comm, cfg, &ics2);
                    for &a in &cfg.step_edges()[1..] {
                        sim.step(a);
                    }
                    (sim.gather_positions(), sim.stats.total().coarse_fft.as_nanos())
                });
                let case = format!("{solver:?} ng={ng} two_level={} ranks={ranks}", two_level.is_some());
                let (gathered, coarse_ns) = &res[0];
                assert_eq!(*coarse_ns > 0, two_level.is_some(), "{case}: coarse solve timing");
                let gathered = gathered.as_ref().expect("rank 0 gathers");
                assert_eq!(gathered.len(), ics.len(), "{case}: particles lost");
                let l = 64.0f32;
                for &(id, p) in gathered {
                    let i = id as usize;
                    for (got, want) in [(p[0], sx[i]), (p[1], sy[i]), (p[2], sz[i])] {
                        let mut d = (got - want).abs();
                        d = d.min(l - d);
                        assert!(d < 0.05, "{case} id {id}: {got} vs {want}");
                    }
                }
            }
        }
    }
}

/// Overload bookkeeping invariants across repeated refreshes during a run.
#[test]
fn distributed_particle_conservation() {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let cfg = SimConfig {
        cosmology: Cosmology::lcdm(),
        box_len: 64.0,
        ng: 32,
        a_init: 0.3,
        a_final: 0.36,
        steps: 3,
        subcycles: 2,
        solver: SolverKind::PmOnly,
        ..SimConfig::small_lcdm()
    };
    let ics = hacc::ics::zeldovich(16, 64.0, &power, cfg.a_init, 5);
    let total = ics.len();
    let (res, _) = Machine::new(2).run(move |comm| {
        let mut sim = DistSimulation::new(&comm, cfg, &ics);
        let mut counts = Vec::new();
        for &a in &cfg.step_edges()[1..] {
            sim.step(a);
            counts.push(sim.global_count());
        }
        counts
    });
    for counts in res {
        for c in counts {
            assert_eq!(c, total);
        }
    }
}

/// One long-range solve per warm step on both meshes, read off the
/// per-tag-class transport counters. A step's alltoallv traffic is its
/// refresh's plus its solves' transposes; the refresh's share varies
/// with the replica count, so it is measured by replaying the same
/// refresh on a copy of the particles and subtracted. Two consecutive
/// warm steps then move equal solve bytes and messages, and the first
/// step of a fresh view, which also solves cold, exactly one solve's
/// more. A solve's messages are its pencil transposes, as many on the
/// two-level coarse `(ng/c)³` grid as on the single-level `ng³` one, so
/// a warm step — one solve plus one refresh — sends as many alltoallv
/// messages on either mesh.
#[test]
fn one_solve_per_warm_step() {
    use hacc::domain::{refresh, Decomposition};

    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let ranks = 2;
    let ics = hacc::ics::zeldovich(16, 64.0, &power, 0.3, 5);
    let coarse = hacc::pm::PmLevelConfig {
        coarsening: 2,
        ..hacc::pm::PmLevelConfig::default()
    };
    let mut warm_msgs = Vec::new();
    for (mesh, two_level) in [("single-level", None), ("two-level", Some(coarse))] {
        // ng = 48 gives each of 2 slabs the 20 planes the default
        // two-level split needs.
        let cfg = SimConfig {
            cosmology: Cosmology::lcdm(),
            box_len: 64.0,
            ng: 48,
            a_init: 0.3,
            a_final: 0.36,
            steps: 3,
            subcycles: 2,
            solver: SolverKind::PmOnly,
            two_level,
            ..SimConfig::small_lcdm()
        };
        let ics = ics.clone();
        let (res, _) = Machine::new(ranks).run(move |comm| {
            let mut sim = DistSimulation::new(&comm, cfg, &ics);
            let shell = sim.overload_depth_cells() * (cfg.box_len / cfg.ng as f64);
            let decomp = Decomposition::new([ranks, 1, 1], cfg.box_len, shell);
            // Machine-wide alltoallv [bytes, messages], exact between
            // two barriers.
            let a2a = || {
                comm.barrier();
                let c = comm.traffic_stats().by_class.a2a;
                comm.barrier();
                [c.bytes, c.msgs]
            };
            // Per step: the step's [bytes, messages] and its solves'.
            let mut steps = Vec::new();
            for &a in &cfg.step_edges()[1..] {
                let t0 = a2a();
                refresh(&comm, &decomp, &mut sim.particles().clone());
                let t1 = a2a();
                sim.step(a);
                let t2 = a2a();
                let step = [0, 1].map(|k| t2[k] - t1[k]);
                steps.push((step, [0, 1].map(|k| step[k] - (t1[k] - t0[k]))));
            }
            steps
        });
        let [(_, cold), (warm_step, warm), (_, warm_again)] = res[0][..] else {
            panic!("{mesh}: three steps: {:?}", res[0])
        };
        for (k, unit) in ["bytes", "messages"].into_iter().enumerate() {
            assert!(warm[k] > 0, "{mesh}: a warm step must solve once");
            assert_eq!(
                warm_again[k], warm[k],
                "{mesh}: two warm steps' solve {unit} differ"
            );
            assert_eq!(
                cold[k],
                2 * warm[k],
                "{mesh}: the cold step must add exactly one solve's {unit}"
            );
        }
        warm_msgs.push(warm_step[1]);
    }
    assert_eq!(
        warm_msgs[0], warm_msgs[1],
        "alltoallv messages of a warm step, single-level vs two-level"
    );
}

/// One overload model at one rank: a 1-rank view on a fresh machine
/// spans every axis whole, so it holds no passive replica — the tree
/// sees the periodic box through image shifts — and its short-range
/// layer does exactly `Simulation`'s work on the shared one-rank world:
/// the same directed interactions and pair evaluations on the same
/// problem.
#[test]
fn one_rank_engine_does_the_serial_work() {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let cfg = SimConfig {
        cosmology: Cosmology::lcdm(),
        box_len: 64.0,
        ng: 16,
        a_init: 0.25,
        a_final: 0.3,
        steps: 2,
        subcycles: 2,
        solver: SolverKind::TreePm,
        ..SimConfig::small_lcdm()
    };
    let ics = hacc::ics::zeldovich(16, 64.0, &power, cfg.a_init, 2024);
    let mut serial = Simulation::from_ics(cfg, &ics);
    serial.run(|_, _| {});
    let total = serial.stats.total();
    let want = [total.interactions, total.pair_interactions];
    let (res, _) = Machine::new(1).run(move |comm| {
        let mut sim = DistSimulation::new(&comm, cfg, &ics);
        let mut fractions = vec![sim.particles().overload_fraction()];
        for &a in &cfg.step_edges()[1..] {
            sim.step(a);
            fractions.push(sim.particles().overload_fraction());
        }
        let total = sim.stats.total();
        (fractions, [total.interactions, total.pair_interactions])
    });
    let (fractions, got) = &res[0];
    assert!(fractions.iter().all(|&f| f == 0.0), "1-rank passives: {fractions:?}");
    assert!(want[0] > 0 && want[1] > 0);
    assert_eq!(
        *got, want,
        "1-rank distributed vs serial [directed interactions, pair evaluations]"
    );
}

/// `Simulation` is the 1-rank distributed engine, bit for bit: its run
/// on the process-wide one-rank world (one drift convention, one CIC
/// that wraps every whole axis, one short-range layer, the one-block
/// refresh in place) matches a view on a fresh 1-rank machine. After
/// every step of a run whose particles cross the box faces, ids,
/// positions and momenta agree bitwise, on PmOnly, TreePm and P3m over
/// a single-level mesh.
#[test]
fn one_rank_engine_is_the_serial_engine() {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let a0 = 0.25;
    let ics = hacc::ics::zeldovich(24, 96.0, &power, a0, 2024);
    let n = ics.len();
    for solver in [SolverKind::PmOnly, SolverKind::TreePm, SolverKind::P3m] {
        let cfg = SimConfig {
            cosmology: Cosmology::lcdm(),
            box_len: 96.0,
            ng: 48,
            a_init: a0,
            subcycles: 2,
            solver,
            ..SimConfig::small_lcdm()
        };
        let edges: Vec<f64> = (1..=3).map(|k| a0 * 1.03f64.powi(k)).collect();
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut serial = Simulation::from_ics(cfg, &ics);
        let mut want = Vec::new();
        for &a in &edges {
            serial.step(a);
            let (x, y, z) = serial.positions();
            let (vx, vy, vz) = serial.momenta();
            want.push([x, y, z, vx, vy, vz].map(bits));
        }
        let ics = ics.clone();
        let (res, _) = Machine::new(1).run(move |comm| {
            let mut sim = DistSimulation::new(&comm, cfg, &ics);
            let mut got = Vec::new();
            for &a in &edges {
                sim.step(a);
                let p = sim.particles();
                let m = p.n_active;
                got.push((p.id[..m].to_vec(), [&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz].map(|c| bits(&c[..m]))));
            }
            got
        });
        let ids: Vec<u64> = (0..n as u64).collect();
        let crossed = res[0]
            .iter()
            .flat_map(|(_, cols)| &cols[..3])
            .flatten()
            .filter(|&&b| !(0.0..96.0).contains(&f32::from_bits(b)))
            .count();
        assert!(crossed > 0, "{solver:?}: no particle crossed a face within a step");
        for (step, ((got_ids, got), want)) in res[0].iter().zip(&want).enumerate() {
            assert!(*got_ids == ids, "{solver:?} step {step}: ids or their order differ");
            for (c, name) in ["x", "y", "z", "px", "py", "pz"].into_iter().enumerate() {
                let diff = got[c].iter().zip(&want[c]).filter(|(g, w)| g != w).count();
                assert_eq!(diff, 0, "{solver:?} step {step}: {diff} {name} values differ");
            }
        }
    }
}

/// One engine, no messages: `Simulation` is the one-rank engine on a
/// process-wide world, and a one-rank step — refresh, global count,
/// deposits, transforms, gathers, short range — puts nothing on it, on
/// PmOnly, TreePm and P³M over the single-level mesh and on the
/// two-level mesh. Every `Simulation` in the process shares the world's
/// counters, so any message any of them sent would show.
#[test]
fn one_rank_steps_send_no_message() {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let a0 = 0.25;
    let ics = hacc::ics::zeldovich(16, 64.0, &power, a0, 7);
    let two_level = Some(hacc::pm::PmLevelConfig::default());
    let cases = [
        (SolverKind::PmOnly, None),
        (SolverKind::TreePm, None),
        (SolverKind::P3m, None),
        (SolverKind::PmOnly, two_level),
    ];
    for (solver, two_level) in cases {
        let cfg = SimConfig {
            box_len: 64.0,
            ng: 32,
            a_init: a0,
            subcycles: 2,
            solver,
            two_level,
            ..SimConfig::small_lcdm()
        };
        let mut sim = Simulation::from_ics(cfg, &ics);
        for k in 1..=3 {
            sim.step(a0 * 1.02f64.powi(k));
        }
        assert_eq!(sim.comm().size(), 1);
        let t = sim.comm().traffic_stats();
        let msgs: u64 = t.msgs_sent.iter().sum();
        assert_eq!(
            (msgs, t.total_bytes()),
            (0, 0),
            "{solver:?} two_level={}: the one-rank world carried traffic",
            two_level.is_some()
        );
    }
}

/// Simulations on several threads share the one-rank world: two runs,
/// one TreePm over the single-level mesh and one PmOnly over the
/// two-level mesh, built and stepped in lockstep on two threads (a
/// barrier before each step), each end bitwise where it ends alone.
#[test]
fn simulations_on_two_threads_match_their_sequential_runs() {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let a0 = 0.25;
    let ics = hacc::ics::zeldovich(16, 64.0, &power, a0, 11);
    let base = SimConfig {
        box_len: 64.0,
        ng: 32,
        a_init: a0,
        subcycles: 2,
        ..SimConfig::small_lcdm()
    };
    let configs = [
        SimConfig {
            solver: SolverKind::TreePm,
            ..base
        },
        SimConfig {
            solver: SolverKind::PmOnly,
            two_level: Some(hacc::pm::PmLevelConfig::default()),
            ..base
        },
    ];
    let run = |cfg: SimConfig, lockstep: Option<&std::sync::Barrier>| {
        let wait = || lockstep.map(std::sync::Barrier::wait);
        wait();
        let mut sim = Simulation::from_ics(cfg, &ics);
        for k in 1..=4 {
            wait();
            sim.step(a0 * 1.02f64.powi(k));
        }
        let ((x, y, z), (vx, vy, vz)) = (sim.positions(), sim.momenta());
        [x, y, z, vx, vy, vz].map(|c| c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
    };
    let alone = configs.map(|cfg| run(cfg, None));
    let (run, barrier) = (&run, &std::sync::Barrier::new(2));
    let together = std::thread::scope(|s| {
        configs
            .map(|cfg| s.spawn(move || run(cfg, Some(barrier))))
            .map(|h| h.join().expect("simulation thread"))
    });
    for (k, (alone, together)) in alone.iter().zip(&together).enumerate() {
        assert!(alone == together, "run {k}: stepping beside another simulation moved it");
    }
}

/// Largest component difference of `got` from `want`, relative to the
/// largest component of `want`.
fn rel_max_diff(got: &[Vec<f32>; 3], want: &[Vec<f32>; 3]) -> f64 {
    let big = want.iter().flatten().fold(0.0f64, |m, &v| m.max(f64::from(v).abs()));
    let diff = got
        .iter()
        .zip(want)
        .flat_map(|(g, w)| g.iter().zip(w))
        .fold(0.0f64, |m, (&g, &w)| m.max(f64::from(g - w).abs()));
    diff / big
}

/// A PmOnly configuration over the two-level mesh, and the state of its
/// run a step into the evolution as initial conditions: positions
/// wrapped into the box, so every engine built from it starts from the
/// same bits.
fn evolved_two_level(ng: usize, box_len: f64) -> (SimConfig, hacc::ics::IcsRealization) {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let a0 = 0.3;
    let mut ics = hacc::ics::zeldovich(16, box_len, &power, a0, 31);
    let cfg = SimConfig {
        box_len,
        ng,
        a_init: a0,
        subcycles: 1,
        solver: SolverKind::PmOnly,
        two_level: Some(hacc::pm::PmLevelConfig::default()),
        ..SimConfig::small_lcdm()
    };
    let mut sim = Simulation::from_ics(cfg, &ics);
    sim.step(0.33);
    let l = box_len as f32;
    let wrap = |c: &[f32]| c.iter().map(|&v| v.rem_euclid(l) % l).collect::<Vec<f32>>();
    let ((x, y, z), (vx, vy, vz)) = (sim.positions(), sim.momenta());
    (ics.x, ics.y, ics.z) = (wrap(x), wrap(y), wrap(z));
    (ics.vx, ics.vy, ics.vz) = (vx.to_vec(), vy.to_vec(), vz.to_vec());
    ics.a_init = sim.a;
    (SimConfig { a_init: sim.a, ..cfg }, ics)
}

/// The one-rank two-level mesh against an oracle outside the engine:
/// the whole-slab complement on the periodic `ng` lattice plus the
/// coarse level, gathered at every particle, equals `TwoLevelPmSolver`'s
/// global complement and coarse solve with the reference CIC deposit and
/// interpolation on the same state, bit for bit. The box is `ng` long,
/// so box units are grid units and both deposits see the same
/// coordinates.
#[test]
fn one_rank_two_level_mesh_is_the_serial_two_level_solver() {
    use hacc::pm::{cic, TwoLevelPmSolver};

    let ng = 32;
    let (cfg, state) = evolved_two_level(ng, ng as f64);
    let mut sim = Simulation::from_ics(cfg, &state);
    let got = sim.total_accel();

    let solver = TwoLevelPmSolver::new(ng, cfg.box_len, cfg.spectral, cfg.two_level.expect("two-level"));
    let nc = solver.nc();
    let (x, y, z) = sim.positions();
    let coarse_pos = [x, y, z].map(|c| c.iter().map(|&v| v * (nc as f32 / ng as f32)).collect::<Vec<f32>>());
    let cp = [&coarse_pos[0][..], &coarse_pos[1][..], &coarse_pos[2][..]];
    let density = |n: usize, pos: [&[f32]; 3]| {
        let mut grid = vec![0.0; n * n * n];
        cic::deposit_cic(&mut grid, n, pos[0], pos[1], pos[2], 1.0);
        let nbar = x.len() as f64 / (n * n * n) as f64;
        grid.iter_mut().for_each(|v| *v = *v / nbar - 1.0);
        grid
    };
    let (mut fine, mut coarse) = <([Vec<f64>; 3], [Vec<f64>; 3])>::default();
    solver.solve_forces_into(&density(ng, [x, y, z]), &density(nc, cp), &mut fine, &mut coarse);
    let want: [Vec<f32>; 3] = std::array::from_fn(|c| {
        let f = cic::interpolate_cic(&fine[c], ng, x, y, z);
        let k = cic::interpolate_cic(&coarse[c], nc, cp[0], cp[1], cp[2]);
        f.iter().zip(&k).map(|(f, k)| f + k).collect()
    });
    for c in 0..3 {
        let diff = got[c].iter().zip(&want[c]).filter(|(g, w)| g.to_bits() != w.to_bits()).count();
        assert_eq!(diff, 0, "component {c}: {diff} accelerations differ from TwoLevelPmSolver's");
    }
}

/// The ghost-padded two-level path against the periodic one: on two
/// ranks each slab solves the complement on its own lattice, padded by
/// the kernel's support plus the force halo and truncated beyond it;
/// on one rank the lattice is the periodic fine grid. Their
/// accelerations at every particle agree within the split's matching
/// tolerance (measured: 1.1e-5 of the largest component).
#[test]
fn padded_two_level_mesh_tracks_the_periodic_one() {
    let (cfg, state) = evolved_two_level(48, 64.0);
    let want = Simulation::from_ics(cfg, &state).total_accel();
    let (per_rank, _) = Machine::new(2).run(|comm| {
        let mut sim = DistSimulation::new(&comm, cfg, &state);
        let accel = sim.total_accel();
        (sim.particles().id[..sim.len()].to_vec(), accel)
    });
    let mut got: [Vec<f32>; 3] = std::array::from_fn(|_| vec![f32::NAN; state.len()]);
    for (ids, accel) in &per_rank {
        for (j, &id) in ids.iter().enumerate() {
            for c in 0..3 {
                got[c][id as usize] = accel[c][j];
            }
        }
    }
    assert!(got.iter().flatten().all(|v| v.is_finite()), "a particle has no 2-rank acceleration");
    let err = rel_max_diff(&got, &want);
    let tol = cfg.two_level.expect("two-level").matching_tol;
    assert!(err < tol, "2-rank padded vs 1-rank periodic two-level mesh: {err:.3e} of the largest");
}
