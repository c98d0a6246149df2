//! Survive a mid-run node failure: a small ΛCDM run on a simulated
//! 4-rank machine where fault injection silently kills a rank partway
//! through. The heartbeat monitor detects the death at the next step
//! boundary and the survivors rebuild the lost domain online from their
//! particle overload shells (tier 0) — no restart, no checkpoint read.
//! Prints the recovery timeline and verifies that every particle is
//! accounted for and the run stayed on the failure-free trajectory.
//!
//! ```text
//! cargo run --release --example resilient_run
//! ```

use hacc::comm::FaultPlan;
use hacc::core::{run_resilient, ResilienceConfig, SimConfig, SolverKind};
use hacc::cosmo::{Cosmology, LinearPower, Transfer};
use hacc::machine::{BgqPartition, CheckpointModel};

fn main() {
    let ranks = 4;
    // ng/ranks must leave slabs wider than the overload shell (rcut+2.5).
    let cfg = SimConfig {
        ng: 24,
        box_len: 64.0,
        a_init: 0.2,
        a_final: 0.3,
        steps: 6,
        subcycles: 2,
        solver: SolverKind::TreePm,
        ..SimConfig::small_lcdm()
    };
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let ics = hacc::ics::zeldovich(8, cfg.box_len, &power, cfg.a_init, 2012);

    let scratch = std::env::temp_dir().join("hacc_resilient_example");
    let _ = std::fs::remove_dir_all(&scratch);

    // Reference: the same schedule with no faults.
    let clean_dir = scratch.join("clean");
    let clean = run_resilient(
        cfg,
        &ics,
        &ResilienceConfig::new(ranks, &clean_dir),
        &FaultPlan::none(),
    )
    .expect("clean run");

    // The real thing: rank 2 dies the first time it begins step 4.
    println!(
        "running {} steps on {ranks} ranks; rank 2 will be killed at step 4...\n",
        cfg.steps
    );
    let faulty_dir = scratch.join("faulty");
    let run = run_resilient(
        cfg,
        &ics,
        &ResilienceConfig::new(ranks, &faulty_dir),
        &FaultPlan::seeded(42).kill_rank_at_step(2, 4),
    )
    .expect("recovered run");

    println!("recovery timeline:");
    for event in &run.timeline {
        println!("  {event}");
    }
    println!(
        "\nfinished step {} after {} attempt(s), {} particles",
        run.final_step,
        run.attempts,
        run.positions.len()
    );

    // Tier 0 resurrects the lost particles from their overload replicas,
    // which track the originals to force-noise rather than bit for bit:
    // the population must be exact, the positions merely very close.
    // (Only a relaunch from a checkpoint replays bit-exactly.)
    assert_eq!(run.attempts, 1, "a detected death is recovered in-run");
    let same_ids = clean.positions.len() == run.positions.len()
        && clean.positions.iter().zip(&run.positions).all(|(c, f)| c.0 == f.0);
    assert!(same_ids, "particles lost or duplicated across the recovery");
    let wrap = |d: f32| d.abs().min(cfg.box_len as f32 - d.abs());
    let max_shift = clean
        .positions
        .iter()
        .zip(&run.positions)
        .flat_map(|(c, f)| (0..3).map(move |k| wrap(c.1[k] - f.1[k])))
        .fold(0.0f32, f32::max);
    let cell = (cfg.box_len / cfg.ng as f64) as f32;
    println!(
        "final state vs uninterrupted run: same {} particle ids, \
         largest position shift {max_shift:.2e} Mpc/h ({:.2e} grid cells)",
        run.positions.len(),
        max_shift / cell
    );
    assert!(max_shift < 0.05 * cell, "recovered run left the trajectory");

    // What this machinery costs at paper scale (Young/Daly model).
    let part = BgqPartition::racks(96);
    let node_mtbf_years = 20.0;
    let model = CheckpointModel::for_partition(
        &part,
        node_mtbf_years * 365.25 * 86_400.0,
        60.0,
        180.0,
    );
    println!(
        "\nat 96 racks ({} nodes, {node_mtbf_years}-year node MTBF): \
         system MTBF {:.1} h,",
        part.nodes,
        model.system_mtbf / 3600.0
    );
    println!(
        "optimal checkpoint interval {:.0} s (Young) / {:.0} s (Daly), \
         ~{:.0}% overhead",
        model.young_interval(),
        model.daly_interval(),
        100.0 * model.optimal_overhead()
    );

    let _ = std::fs::remove_dir_all(&scratch);
}
