//! Section III timing split: "the code spends 80% of the time in the
//! highly optimized force kernel, 10% in the tree walk, and 5% in the
//! FFT, all other operations (tree build, CIC deposit) adding up to
//! another 5%" at the 16-ranks × 4-threads operating point.
//!
//! We run the full TreePM code on a clustered state and print the same
//! breakdown. Exact percentages depend on particle loading and clustering
//! (our per-cell loading is far below the paper's 2M particles/core), so
//! the check is that the kernel dominates and the spectral solver is a
//! small fraction.

use hacc_bench::{print_table, reference_power};
use hacc_core::{SimConfig, Simulation, SolverKind};
use hacc_cosmo::Cosmology;

fn main() {
    let mut json_path: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => {
                json_path = Some(argv.get(i + 1).expect("missing value after --json").clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    println!("Full-code timing breakdown (paper: 80% kernel / 10% walk / 5% FFT / 5% rest)");
    let np = 24usize;
    let box_len = 64.0; // dense loading → long neighbor lists, kernel-bound
    let power = reference_power();
    let cfg = SimConfig {
        cosmology: Cosmology::lcdm(),
        box_len,
        ng: np, // 1 particle per cell · small box ⇒ strong clustering
        a_init: 0.15,
        a_final: 0.5,
        steps: 8,
        subcycles: 4,
        solver: SolverKind::TreePm,
        spectral: hacc_pm::SpectralParams::default(),
        two_level: None,
        tree: hacc_short::TreeParams::default(),
        rcut_cells: 3.0,
        skin_cells: 0.25,
    };
    let ics = hacc_ics::zeldovich(np, box_len, &power, cfg.a_init, 303);
    let mut sim = Simulation::from_ics(cfg, &ics);
    sim.run(|_, _| {});

    let tot = sim.stats.total();
    let t = tot.total().as_secs_f64();
    let pct = |d: std::time::Duration| format!("{:.1}", 100.0 * d.as_secs_f64() / t);
    let rows = vec![
        vec!["force kernel".into(), pct(tot.kernel), "80".into()],
        vec!["tree walk".into(), pct(tot.walk), "10".into()],
        vec!["FFT / spectral".into(), pct(tot.fft), "5".into()],
        vec!["tree build".into(), pct(tot.build), "~2".into()],
        vec!["CIC".into(), pct(tot.cic), "~3".into()],
        vec!["stream/kick/other".into(), pct(tot.other), "-".into()],
    ];
    print_table(
        &format!("Breakdown over {} steps ({:.2}s total)", sim.stats.steps.len(), t),
        &["phase", "% of time", "paper %"],
        &rows,
    );
    let tsp = sim
        .stats
        .time_per_substep_per_particle(sim.len(), sim.config().subcycles);
    println!(
        "\ninteractions: {:.3e} directed ({:.3e} kernel evals, N3 symmetry {:.2}×), \
         kernel flops: {:.3e}, time/substep/particle: {:.2e} s",
        tot.interactions as f64,
        tot.pair_interactions as f64,
        tot.symmetry_factor(),
        tot.flops(),
        tsp
    );
    // Communication accounting: the same workload across a 2-rank
    // in-process machine, with payload volume split by tag class so
    // the FFT's alltoallv share is a measured number.
    let dist_ics = hacc_ics::zeldovich(np, box_len, &power, cfg.a_init, 303);
    let (_, traffic) = hacc_comm::Machine::new(2).run(move |comm| {
        let mut sim = hacc_core::DistSimulation::new(&comm, cfg, &dist_ics);
        sim.step(0.2);
    });
    let by = traffic.by_class;
    println!(
        "\ncomm volume by tag class (2 ranks, 1 step): \
         p2p {} B / {} msgs, a2a {} B / {} msgs, control {} B / {} msgs",
        by.p2p.bytes, by.p2p.msgs, by.a2a.bytes, by.a2a.msgs, by.control.bytes, by.control.msgs
    );
    if let Some(path) = &json_path {
        let p = |d: std::time::Duration| 100.0 * d.as_secs_f64() / t;
        let json = format!(
            "{{\n  \"bench\": \"timing_breakdown\",\n  \"steps\": {},\n  \
             \"total_s\": {t:.3},\n  \"kernel_pct\": {:.2},\n  \"walk_pct\": {:.2},\n  \
             \"fft_pct\": {:.2},\n  \"build_pct\": {:.2},\n  \"cic_pct\": {:.2},\n  \
             \"other_pct\": {:.2},\n  \"interactions\": {},\n  \
             \"pair_interactions\": {},\n  \"symmetry_factor\": {:.3},\n  \
             \"time_per_substep_per_particle_s\": {tsp:.6e},\n  \
             \"traffic\": {}\n}}",
            sim.stats.steps.len(),
            p(tot.kernel),
            p(tot.walk),
            p(tot.fft),
            p(tot.build),
            p(tot.cic),
            p(tot.other),
            tot.interactions,
            tot.pair_interactions,
            tot.symmetry_factor(),
            traffic.to_json(),
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create json dir");
        }
        std::fs::write(path, format!("{json}\n")).expect("write json");
        println!("wrote {path}");
    }
}
