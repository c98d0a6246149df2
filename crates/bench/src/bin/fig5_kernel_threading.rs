//! Fig. 5 reproduction: short-range force-pass performance vs
//! interaction-list length.
//!
//! The paper sweeps the shared-interaction-list length from 50 to 5000 for
//! eight ranks-per-node/threads configurations on a BG/Q node and reports
//! percent of node peak; the curves rise with list length and with
//! hardware threads per core, plateauing near 80% of peak at 4
//! threads/core.
//!
//! Here the timed code is the pass both engines run,
//! `RcbTree::forces_symmetric_into` on a periodic tree, whole: walk, chunk
//! cull, tiles, fixed-point flushes and the scatter into input order. The
//! list length — directed kernel evaluations per particle — is set by the
//! particle density inside the fixed cutoff and by the leaf size. The rate
//! is evaluations × `FLOPS_PER_INTERACTION_ACTUAL` over the pass's wall
//! time, against the one-thread FMA roof of `hacc-machine`, as
//! `crates/machine/tests/kernel_roof.rs` measures it. The sweep runs on
//! one thread: the workspace's rayon stand-in runs its pools serially, so
//! the paper's threads axis has no counterpart here.

use std::time::Instant;

use hacc_bench::{fmt_flops, print_table};
use hacc_machine::calibrate_peak_flops;
use hacc_short::{ForceKernel, RcbTree, TreeParams, TreeScratch, FLOPS_PER_INTERACTION_ACTUAL};

/// Particles in every cloud; the box side follows from the density.
const PARTICLES: usize = 16_384;
/// Short-range cutoff, in the cloud's length unit.
const RCUT: f32 = 3.0;

fn main() {
    let mut json_path: Option<String> = None;
    let mut quick = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => {
                json_path = Some(argv.get(i + 1).expect("missing value after --json").clone());
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    println!("Fig. 5: short-range force-pass performance vs interaction-list length");
    // The best of a few short probes, so a descheduled probe cannot lower
    // the roof under the pass.
    let roof = (0..3)
        .map(|_| calibrate_peak_flops(1, 100))
        .fold(0.0, f64::max);
    println!(
        "one thread, {PARTICLES} particles per periodic cloud, r_cut = {RCUT}; roof {}",
        fmt_flops(roof)
    );

    // --quick: a reduced sweep for CI / composite benchmark runs.
    let (densities, leaves, reps): (&[f32], &[usize], usize) = if quick {
        (&[0.5, 2.0, 8.0], &[128], 2)
    } else {
        (&[0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0], &[32, 128, 512], 5)
    };
    let kernel = ForceKernel::newtonian(RCUT, 1e-5);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &density in densities {
        let (xs, ys, zs, side) = cloud(density);
        let m = vec![1.0f32; PARTICLES];
        for &leaf in leaves {
            let mut tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: leaf });
            tree.set_periods([side; 3]);
            let mut scratch = TreeScratch::default();
            let mut out = [Vec::new(), Vec::new(), Vec::new()];
            // Best of `reps`, after one warm pass sizes the scratch.
            let (mut best, mut evals) = (f64::MAX, 0);
            for _ in 0..=reps {
                let t0 = Instant::now();
                let rep = tree.forces_symmetric_into(&kernel, 0.0, &mut scratch, &mut out);
                best = best.min(t0.elapsed().as_secs_f64());
                evals = rep.evals;
            }
            let list = 2.0 * evals as f64 / PARTICLES as f64;
            let rate = evals as f64 * FLOPS_PER_INTERACTION_ACTUAL as f64 / best;
            let pct = 100.0 * rate / roof;
            rows.push(vec![
                format!("{density}"),
                leaf.to_string(),
                format!("{list:.0}"),
                fmt_flops(rate),
                format!("{pct:.1}"),
            ]);
            records.push(format!(
                "    {{ \"density\": {density}, \"leaf\": {leaf}, \"list\": {list:.1}, \
                 \"flops\": {rate:.3e}, \"pct_of_roof\": {pct:.2} }}"
            ));
        }
    }
    print_table(
        "Force pass: % of the one-thread FMA roof vs list length (paper Fig. 5)",
        &[
            "particles/unit^3",
            "leaf",
            "list/particle",
            "rate",
            "% roof",
        ],
        &rows,
    );
    println!(
        "\nlist/particle = 2 x kernel evaluations / particles (each evaluation\n\
         serves both particles of a pair); rate = evaluations x {FLOPS_PER_INTERACTION_ACTUAL} flops\n\
         over the whole pass.\n\
         paper reference: ~80% of BG/Q node peak at 4 threads/core, rising with list size;\n\
         typical production list sizes are 500-2500."
    );

    if let Some(path) = &json_path {
        let json = format!(
            "{{\n  \"bench\": \"fig5_kernel_threading\",\n  \"particles\": {PARTICLES},\n  \
             \"roof_flops_1t\": {roof:.3e},\n  \"rows\": [\n{}\n  ]\n}}",
            records.join(",\n")
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create json dir");
        }
        std::fs::write(path, format!("{json}\n")).expect("write json");
        println!("wrote {path}");
    }
}

/// A deterministic uniform cloud of `PARTICLES` at `density` particles
/// per unit volume, and its periodic box side.
fn cloud(density: f32) -> (Vec<f32>, Vec<f32>, Vec<f32>, f32) {
    let side = (PARTICLES as f32 / density).cbrt();
    let mut s = 0x0005_DEEC_E66D_u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 40) as f32 / (1u64 << 24) as f32 * side) % side
    };
    let mut axes = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..PARTICLES {
        for axis in &mut axes {
            axis.push(next());
        }
    }
    let [xs, ys, zs] = axes;
    (xs, ys, zs, side)
}
