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
/// trajectory (the Table II/III workhorse) on every axis the long-range
/// layer has: PM-only and TreePM, single-level and two-level mesh, and 1,
/// 2 and 4 ranks — the 1-rank case pins "serial is the 1-rank case" for
/// the one distributed pipeline both mesh levels run.
#[test]
fn distributed_driver_tracks_serial() {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let ics = hacc::ics::zeldovich(16, 64.0, &power, 0.25, 2024);
    // ng = 80 gives each of 4 slabs the 20 planes the default two-level
    // split needs (14 kernel + 6 interpolation ghost planes).
    let meshes = [(32, None), (80, Some(hacc::pm::PmLevelConfig::default()))];
    for solver in [SolverKind::PmOnly, SolverKind::TreePm] {
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

/// One overload model for both engines: a 1-rank distributed run spans
/// every axis whole, so it holds no passive replica — the tree sees the
/// periodic box through image shifts, as the serial engine's does — and
/// its short-range layer does exactly the serial engine's work: the same
/// directed interactions and pair evaluations as `Simulation`'s on the
/// same problem.
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

/// The serial engine is the 1-rank distributed engine, bit for bit: one
/// drift convention (unwrapped within a step, wrapped by the domain's
/// wrap at the refresh), one CIC that wraps every whole axis, one
/// short-range layer. After every step of a run whose particles cross
/// the box faces, ids, positions and momenta agree bitwise, on PmOnly,
/// TreePm and P3m over a single-level mesh.
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
