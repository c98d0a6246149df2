//! Table III / Fig. 8 reproduction: full-code strong scaling.
//!
//! The paper fixes a 1024³-particle problem and scales one rack from 512
//! to 16,384 cores, dropping per-node memory utilization from ~62% to
//! 4.5%; scaling stays near-ideal until the overloaded-region work grows
//! at the thinnest slabs. We fix a laptop-scale problem, scale simulated
//! ranks, and report the same columns, then print the model rows with
//! the overload penalty at the paper's core counts.

use hacc_bench::{print_table, reference_power};
use hacc_core::{DistSimulation, SimConfig, SolverKind};
use hacc_cosmo::Cosmology;
use hacc_machine::{BgqPartition, FullCodeModel};
use hacc_short::FLOPS_PER_INTERACTION;

fn main() {
    println!("Table III / Fig. 8: full-code strong scaling (fixed problem size)");
    let power = reference_power();

    // Fixed problem: 32³ particles on a 64³ grid; ranks 1..8 (slab widths
    // 64 → 8 cells; the 8-cell slab is already 'overload abuse' territory:
    // 4.5-cell shells on both sides exceed the slab width).
    let np_side = 32usize;
    let ng = 64usize;
    let box_len = 4.0 * ng as f64;
    let cfg_base = SimConfig {
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
    let ics = hacc_ics::zeldovich(np_side, box_len, &power, cfg_base.a_init, 11);
    let np_total = ics.len();

    let mut rows = Vec::new();
    for ranks in [1usize, 2, 4, 8] {
        let cfg = cfg_base;
        let ics_copy = ics.clone();
        let (stats, _) = hacc_comm::Machine::new(ranks).run(move |comm| {
            let mut sim = DistSimulation::new(&comm, cfg, &ics_copy);
            sim.step(0.3);
            let tot = sim.stats.total();
            (
                tot.total().as_secs_f64(),
                tot.interactions,
                sim.particles().overload_fraction(),
                sim.load_imbalance(),
            )
        });
        let wall = stats.iter().map(|&(t, _, _, _)| t).fold(0.0, f64::max);
        let inter: u64 = stats.iter().map(|&(_, i, _, _)| i).sum();
        let overload = stats.iter().map(|&(_, _, o, _)| o).fold(0.0, f64::max);
        let imbalance = stats[0].3;
        let flops = inter as f64 * FLOPS_PER_INTERACTION as f64;
        rows.push(vec![
            ranks.to_string(),
            (np_total / ranks).to_string(),
            format!("{:.3}", wall),
            format!("{:.3e}", wall / cfg_base.subcycles as f64 / np_total as f64),
            format!("{:.2e}", flops / wall),
            format!("{:.2}", overload),
            format!("{imbalance:.2}"),
        ]);
    }
    print_table(
        "Measured (simulated ranks); overload column = passive/active fraction",
        &[
            "ranks",
            "parts/rank",
            "t/step [s]",
            "t/substep/part [s]",
            "flops/s",
            "overload",
            "imbalance",
        ],
        &rows,
    );

    // Paper-scale model with the strong-scaling overload penalty.
    let model_base = FullCodeModel::paper_reference();
    let paper_rows: [(usize, f64, f64, f64); 6] = [
        (512, 4.42, 67.44, 145.94),
        (1024, 8.77, 66.89, 98.01),
        (2048, 17.99, 68.67, 49.16),
        (4096, 33.06, 63.05, 21.97),
        (8192, 67.72, 64.59, 15.90),
        (16384, 131.27, 62.59, 10.01),
    ];
    let np = 1024f64.powi(3);
    let mut rows = Vec::new();
    for &(cores, paper_tf, paper_peak, paper_t) in &paper_rows {
        let part = BgqPartition::with_cores(cores);
        // Per-rank box edge in grid cells for a 1024³ grid over `ranks`
        // 3-D blocks; overload shell ~4 cells.
        let edge = 1024.0 / (part.ranks() as f64).cbrt();
        let model = FullCodeModel {
            overload_factor: FullCodeModel::overload_penalty(edge, 4.0),
            ..model_base
        };
        let r = model.substep(&part, np);
        rows.push(vec![
            cores.to_string(),
            format!("{:.2}", r.flops_rate / 1e12),
            format!("{paper_tf:.2}"),
            format!("{:.1}", 100.0 * r.peak_fraction),
            format!("{paper_peak:.1}"),
            format!("{:.1}", r.time),
            format!("{paper_t:.1}"),
        ]);
    }
    print_table(
        "BG/Q model vs paper Table III (1024³ particles)",
        &[
            "cores",
            "model TF",
            "paper TF",
            "model %peak",
            "paper %peak",
            "model t/substep",
            "paper t/substep",
        ],
        &rows,
    );
    println!(
        "\nshape check: near-linear TFlops growth; time/substep keeps falling but\n\
         the overloaded-region work grows as slabs thin out (paper: slowdown at\n\
         16,384 cores, 65,536 particles/core)."
    );
}
