//! Ablation of the RCB tree "fat leaf" size on the path the engines run
//! (`rebuild` + `forces_symmetric_into`) — the walk-minimization trade of
//! Section III: "the time spent in the force kernel goes up but the walk
//! time decreases faster. Obviously, at some point this breaks down, but
//! on many systems, tens or hundreds of particles can be in each leaf
//! node before the crossover is reached."
//!
//! Here the kernel works on 8-particle chunks *inside* the leaf, so the
//! leaf only sets the walk length, the number of chunk pairs the box
//! test has to look at, and the share of pad lanes. The sweep runs at
//! the benchmark's density (one particle per PM cell, `r_cut` = 3
//! cells, mildly evolved Zel'dovich state) and prints, per leaf size,
//! kernel evaluations per particle, list efficiency (pairs inside the
//! cutoff ÷ evaluations), build / walk / kernel time and ns per
//! evaluation. `TreeParams::default().leaf_size` is set from this table
//! (EXPERIMENTS.md).

use std::time::Instant;

use hacc_bench::{fmt_time, print_table, reference_power};
use hacc_short::{ForceKernel, RcbTree, TreeParams, TreeScratch};

/// Pairs closer than `rcut` (open box, no periodic images): one pass
/// over a cell list with `rcut`-sized cells.
fn pairs_in_range(xs: &[f32], ys: &[f32], zs: &[f32], side: f32, rcut: f32) -> u64 {
    let nc = (side / rcut).floor().max(1.0) as usize;
    let cell = |v: f32| ((v / side * nc as f32) as usize).min(nc - 1);
    let mut cells = vec![Vec::new(); nc * nc * nc];
    for i in 0..xs.len() {
        cells[(cell(xs[i]) * nc + cell(ys[i])) * nc + cell(zs[i])].push(i);
    }
    let rc2 = rcut * rcut;
    let mut count = 0u64;
    for i in 0..xs.len() {
        let (cx, cy, cz) = (cell(xs[i]), cell(ys[i]), cell(zs[i]));
        for x in cx.saturating_sub(1)..(cx + 2).min(nc) {
            for y in cy.saturating_sub(1)..(cy + 2).min(nc) {
                for z in cz.saturating_sub(1)..(cz + 2).min(nc) {
                    for &j in &cells[(x * nc + y) * nc + z] {
                        let d = [xs[j] - xs[i], ys[j] - ys[i], zs[j] - zs[i]];
                        count += u64::from(j > i && d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < rc2);
                    }
                }
            }
        }
    }
    count
}

fn main() {
    println!("RCB tree leaf-size ablation on the symmetric chunk path (Section III)");
    let power = reference_power();
    let np = 48usize;
    let box_len = 128.0;
    let ics = hacc_ics::zeldovich(np, box_len, &power, 0.27, 13);
    let to_grid = (np as f64 / box_len) as f32; // one particle per cell
    let xs: Vec<f32> = ics.x.iter().map(|&v| v * to_grid).collect();
    let ys: Vec<f32> = ics.y.iter().map(|&v| v * to_grid).collect();
    let zs: Vec<f32> = ics.z.iter().map(|&v| v * to_grid).collect();
    let m = vec![1.0f32; xs.len()];
    let rcut = 3.0f32;
    let kernel = ForceKernel::newtonian(rcut, 1e-5);
    let in_range = pairs_in_range(&xs, &ys, &zs, np as f32, rcut);
    println!(
        "{} particles, {in_range} pairs inside r_cut = {:.1} per particle",
        xs.len(),
        in_range as f64 / xs.len() as f64
    );

    let reps = 3;
    let mut rows = Vec::new();
    for &leaf in &[8usize, 16, 32, 64, 128, 256, 512, 1024] {
        let mut tree = RcbTree::new_empty(TreeParams { leaf_size: leaf });
        let mut scratch = TreeScratch::default();
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        // Best of `reps`, after one warm pass sizes the scratch.
        let (mut build, mut walk, mut kern, mut evals) = (f64::MAX, f64::MAX, f64::MAX, 0);
        for _ in 0..=reps {
            let t0 = Instant::now();
            tree.rebuild(&xs, &ys, &zs, &m, &mut scratch);
            build = build.min(t0.elapsed().as_secs_f64());
            let rep = tree.forces_symmetric_into(&kernel, 0.0, &mut scratch, &mut out);
            walk = walk.min(rep.walk.as_secs_f64());
            kern = kern.min(rep.kernel.as_secs_f64());
            evals = rep.evals;
        }
        rows.push(vec![
            leaf.to_string(),
            tree.leaf_count().to_string(),
            format!("{:.0}", evals as f64 / xs.len() as f64),
            format!("{:.3}", in_range as f64 / evals as f64),
            fmt_time(build),
            fmt_time(walk),
            fmt_time(kern),
            fmt_time(build + walk + kern),
            format!("{:.2}", kern * 1e9 / evals as f64),
        ]);
    }
    print_table(
        "Leaf-size sweep (best of 3; kernel = chunk cull + tiles)",
        &[
            "leaf",
            "leaves",
            "evals/particle",
            "list eff",
            "build",
            "walk",
            "kernel",
            "total",
            "ns/eval",
        ],
        &rows,
    );
    println!(
        "\nshape check: evaluations per particle are nearly flat in the leaf size —\n\
         the chunk test, not the leaf, decides what reaches the kernel — so the\n\
         leaf is chosen for the cheapest walk and the fewest pad lanes that the\n\
         chunk-pair candidates (which grow with the leaf) still allow."
    );
}
