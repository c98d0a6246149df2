//! Table II / Fig. 7 reproduction: full-code weak scaling.
//!
//! The paper holds ~2M particles per core fixed and scales from 2,048 to
//! 1,572,864 cores, reporting total PFlops, % of peak, time per substep
//! per particle, `cores × time/substep` (flat = ideal weak scaling), and
//! memory per rank. We run the full distributed driver (slab domains +
//! overloading + distributed spectral solve + rank-local RCB trees) at
//! fixed particles per simulated rank, then print the calibrated machine
//! model at every core count of the paper's table.

use hacc_bench::{print_table, reference_power};
use hacc_core::{DistSimulation, SimConfig, SolverKind};
use hacc_cosmo::Cosmology;
use hacc_machine::{BgqPartition, FullCodeModel};
use hacc_short::FLOPS_PER_INTERACTION;

fn main() {
    println!("Table II / Fig. 7: full-code weak scaling (~constant particles/rank)");
    let power = reference_power();

    // Measured block: ~constant particles per rank (problem volume grows
    // with rank count, 2 cells per particle spacing throughout).
    let mut rows = Vec::new();
    let mut measured_flops_pp = 0.0f64;
    for (ranks, np_side, ng) in [(1usize, 16usize, 32usize), (2, 20, 40), (4, 25, 48), (8, 32, 64)]
    {
        let box_len = 4.0 * ng as f64; // 4 Mpc/h per cell
        let cfg = SimConfig {
            cosmology: Cosmology::lcdm(),
            box_len,
            ng,
            a_init: 0.25,
            a_final: 0.3,
            steps: 1,
            subcycles: 3,
            solver: SolverKind::TreePm,
            spectral: hacc_pm::SpectralParams::default(),
            two_level: None,
            tree: hacc_short::TreeParams::default(),
            rcut_cells: 3.0,
            skin_cells: 0.25,
        };
        let ics = hacc_ics::zeldovich(np_side, box_len, &power, cfg.a_init, 7 + ranks as u64);
        let np_total = ics.len();
        let (stats, _) = hacc_comm::Machine::new(ranks).run(move |comm| {
            let mut sim = DistSimulation::new(&comm, cfg, &ics);
            sim.step(0.3);
            let tot = sim.stats.total();
            (tot.total().as_secs_f64(), tot.interactions)
        });
        let wall = stats.iter().map(|&(t, _)| t).fold(0.0, f64::max);
        let inter: u64 = stats.iter().map(|&(_, i)| i).sum();
        let flops = inter as f64 * FLOPS_PER_INTERACTION as f64;
        measured_flops_pp = flops / np_total as f64 / cfg.subcycles as f64;
        let tpp = wall / cfg.subcycles as f64 / np_total as f64;
        rows.push(vec![
            ranks.to_string(),
            np_total.to_string(),
            format!("{:.1}", np_total as f64 / ranks as f64 / 1e3),
            format!("{:.3e}", tpp),
            format!("{:.3e}", tpp * ranks as f64),
            format!("{:.2e}", flops / wall),
        ]);
    }
    print_table(
        "Measured (simulated ranks; flat ranks×time/substep/particle = ideal)",
        &[
            "ranks",
            "Np",
            "kpart/rank",
            "t/substep/part [s]",
            "ranks*t/sub/part",
            "flops/s",
        ],
        &rows,
    );
    println!(
        "\nmeasured short-range flops per particle per substep: {measured_flops_pp:.0}"
    );

    // Paper-scale model block: every row of Table II.
    let model = FullCodeModel::paper_reference();
    let paper_rows: [(usize, usize, f64, f64); 12] = [
        (2_048, 1600, 0.018, 4.12e-8),
        (4_096, 2048, 0.036, 1.92e-8),
        (8_192, 2560, 0.072, 1.00e-8),
        (16_384, 3200, 0.144, 5.19e-9),
        (32_768, 4096, 0.269, 2.88e-9),
        (65_536, 5120, 0.576, 1.46e-9),
        (131_072, 6656, 1.16, 7.41e-10),
        (262_144, 8192, 2.27, 3.04e-10),
        (393_216, 9216, 3.39, 2.03e-10),
        (524_288, 10240, 4.53, 1.59e-10),
        (786_432, 12288, 7.02, 1.2e-10),
        (1_572_864, 15360, 13.94, 5.96e-11),
    ];
    let mut rows = Vec::new();
    for &(cores, np_side, paper_pf, paper_tpp) in &paper_rows {
        let part = BgqPartition::with_cores(cores);
        let np = (np_side as f64).powi(3);
        let r = model.substep(&part, np);
        let mem_mb = model.memory_per_rank(np / part.ranks() as f64) / 1e6;
        rows.push(vec![
            cores.to_string(),
            format!("{np_side}^3"),
            format!("{:.3}", r.flops_rate / 1e15),
            format!("{paper_pf:.3}"),
            format!("{:.1}", 100.0 * r.peak_fraction),
            format!("{:.2e}", r.time_per_particle()),
            format!("{paper_tpp:.2e}"),
            format!("{mem_mb:.0}"),
        ]);
    }
    print_table(
        "BG/Q model vs paper Table II",
        &[
            "cores",
            "Np",
            "model PF",
            "paper PF",
            "model %peak",
            "model t/sub/part",
            "paper t/sub/part",
            "model MB/rank",
        ],
        &rows,
    );
    println!(
        "\nshape check: PFlops grows linearly with cores at ~constant %peak (~65-70%),\n\
         time/substep/particle falls as 1/cores — the paper's 'essentially perfect'\n\
         weak scaling to 96 racks (13.94 PFlops, 69.2% peak, 0.0596 ns)."
    );
}
