//! Fig. 2 reproduction: spatial dynamic range of a simulation.
//!
//! The paper's Fig. 2 zooms from the full (9.14 Gpc)³ box down to a
//! (7 Mpc)³ halo, a factor ~10⁶ in scale when the force resolution is
//! included. We run the laptop-scale science box, find the densest
//! region, and print the nested-zoom contrast series plus the formal
//! dynamic range of the configuration (box size / force resolution).

use hacc_analysis::zoom_series;
use hacc_bench::{print_table, run_science_sim};
use hacc_core::SolverKind;

fn main() {
    println!("Fig. 2: zoom-in dynamic range");
    let np = 24;
    let box_len = 96.0;
    let sim = run_science_sim(np, box_len, 18, SolverKind::TreePm, &[], |_, _| {});
    let (x, y, z) = sim.positions();

    let series = zoom_series(x, y, z, box_len, 4, 128);
    let rows: Vec<Vec<String>> = series
        .iter()
        .enumerate()
        .map(|(i, (ext, contrast))| {
            vec![
                i.to_string(),
                format!("{ext:.1}"),
                format!("{:.0}", box_len / ext),
                format!("{contrast:.1}"),
            ]
        })
        .collect();
    print_table(
        "Nested zooms centered on the densest projected region",
        &[
            "level",
            "window [Mpc/h]",
            "zoom factor",
            "max/mean contrast",
        ],
        &rows,
    );

    // Formal dynamic range: box / (grid cell / ~50 for the short-range
    // force softening scale in the matching units the paper quotes).
    let cfg = sim.config();
    let cell = cfg.box_len / cfg.ng as f64;
    println!(
        "\nbox = {:.0} Mpc/h, PM cell = {cell:.2} Mpc/h, short-range matching at \
         {:.1} cells;",
        cfg.box_len, cfg.rcut_cells
    );
    println!(
        "formal dynamic range (box/cell) = {:.0}; the paper's production config reaches\n\
         ~10^6 (9.14 Gpc box at 0.007 Mpc force resolution) by scaling the same code\n\
         to a 10240³ grid — dynamic range here is bounded only by the mesh we can\n\
         afford, not by the algorithm.",
        cfg.ng as f64
    );
}
