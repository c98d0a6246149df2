//! Kernel-dominated TreePM step benchmark — the gate for the symmetric
//! short-range solver (PR 4).
//!
//! Runs full `Simulation::step`s in the same operating point as
//! `timing_breakdown` (`ng = np = 24`, 4 sub-cycles, `r_cut` = 3 cells),
//! where the short-range force kernel consumes >99% of the step, and
//! reports the per-step wall-clock median. `scripts/bench.sh` records the
//! output fragment into `BENCH_pr4.json` next to the committed
//! pre-symmetric-walk baseline (`out/bench/tree_step_baseline.json`) and
//! asserts the required speedup.

use std::time::Instant;

use hacc_bench::{print_table, reference_power};
use hacc_core::{SimConfig, Simulation, SolverKind};
use hacc_cosmo::Cosmology;

struct Args {
    ng: usize,
    np: usize,
    warm: usize,
    steps: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        ng: 24,
        np: 24,
        warm: 1,
        steps: 4,
        json: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("missing value after {}", argv[i]))
                .clone()
        };
        match argv[i].as_str() {
            "--ng" => out.ng = need(i).parse().expect("--ng"),
            "--np" => out.np = need(i).parse().expect("--np"),
            "--warm" => out.warm = need(i).parse().expect("--warm"),
            "--steps" => out.steps = need(i).parse().expect("--steps"),
            "--json" => out.json = Some(need(i)),
            other => panic!("unknown argument {other}"),
        }
        i += 2;
    }
    out
}

fn main() {
    let args = parse_args();
    let (ng, np) = (args.ng, args.np);
    let box_len = 64.0 * ng as f64 / 24.0; // timing_breakdown density at any ng
    println!(
        "Tree step benchmark: {np}^3 particles, {ng}^3 grid, TreePM, 4 sub-cycles"
    );

    let cfg = SimConfig {
        cosmology: Cosmology::lcdm(),
        box_len,
        ng,
        a_init: 0.15,
        a_final: 0.5,
        steps: args.warm + args.steps,
        subcycles: 4,
        solver: SolverKind::TreePm,
        spectral: hacc_pm::SpectralParams::default(),
        two_level: None,
        tree: hacc_short::TreeParams::default(),
        rcut_cells: 3.0,
        skin_cells: 0.25,
        max_retries: None,
        backoff_base_ms: None,
    };
    let power = reference_power();
    let ics = hacc_ics::zeldovich(np, box_len, &power, cfg.a_init, 303);
    let mut sim = Simulation::from_ics(cfg, &ics);

    let mut a = cfg.a_init;
    let mut times_ms: Vec<f64> = Vec::new();
    for s in 0..args.warm + args.steps {
        a *= 1.06;
        let t0 = Instant::now();
        sim.step(a);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if s >= args.warm {
            times_ms.push(ms);
        }
        println!(
            "  step {s}: {ms:.1} ms{}",
            if s < args.warm { "  (warm-up)" } else { "" }
        );
    }
    let mut sorted = times_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let mean = times_ms.iter().sum::<f64>() / times_ms.len() as f64;

    let tot = sim.stats.total();
    let t = tot.total().as_secs_f64();
    let pct = |d: std::time::Duration| format!("{:.2}", 100.0 * d.as_secs_f64() / t);
    print_table(
        &format!("Tree step ({} measured steps)", times_ms.len()),
        &["phase", "% of time"],
        &[
            vec!["force kernel".into(), pct(tot.kernel)],
            vec!["tree walk".into(), pct(tot.walk)],
            vec!["tree build".into(), pct(tot.build)],
            vec!["FFT / spectral".into(), pct(tot.fft)],
            vec!["CIC".into(), pct(tot.cic)],
            vec!["stream/kick/other".into(), pct(tot.other)],
        ],
    );
    println!(
        "\nstep median: {median:.1} ms, mean: {mean:.1} ms, directed interactions: {:.3e}, \
         kernel evaluations: {:.3e}",
        tot.interactions as f64,
        tot.pair_interactions as f64,
    );
    // Kernel evaluations per particle per sub-cycle over every step run
    // (warm-up included — the counters are): the list-tightness figure CI
    // bounds.
    let substeps = (np * np * np * 4 * (args.warm + args.steps)) as f64;
    let evals_per_particle_substep = tot.pair_interactions as f64 / substeps;
    println!("kernel evaluations per particle per sub-cycle: {evals_per_particle_substep:.0}");
    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"bench\": \"tree_step\",\n  \"ng\": {ng},\n  \"np\": {np},\n  \
             \"subcycles\": 4,\n  \"steps\": {},\n  \"step_ms_median\": {median:.1},\n  \
             \"step_ms_mean\": {mean:.1},\n  \"kernel_pct\": {},\n  \
             \"interactions\": {},\n  \"pair_interactions\": {},\n  \
             \"pair_evals_per_particle_substep\": {evals_per_particle_substep:.1}\n}}",
            times_ms.len(),
            pct(tot.kernel),
            tot.interactions,
            tot.pair_interactions,
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create json dir");
        }
        std::fs::write(path, format!("{json}\n")).expect("write json");
        println!("wrote {path}");
    }
}
