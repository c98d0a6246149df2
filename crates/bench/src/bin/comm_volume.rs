//! Communication-volume A/B for the two-level mesh: the same distributed
//! PM run with the single-level global solve versus the two-level solver
//! (coarse global FFT + rank-local fine complements), with payload bytes
//! broken down by tag class. The point of the two-level design is that
//! the globally transposed transform shrinks from `ng³` to `(ng/c)³`, so
//! its alltoallv volume must drop by ~c³ — this bench measures that drop
//! directly from the transport counters instead of inferring it from
//! grid sizes.
//!
//! The two meshes do not solve equally often: the single-level step
//! keeps its closing solve's force slabs for the next opening kick (one
//! solve per warm step), while the two-level step solves twice, and a
//! fresh view's first single-level step also solves cold. So
//! `a2a_ratio`, over all `--steps` steps from a fresh view, is neither
//! the per-solve ratio nor the warm-step one; `a2a_ratio_warm_step`
//! (ungated) is the last step's alone.
//!
//! Run with `--json PATH` to write the result as JSON (the committed
//! record is `out/bench/comm_volume.json`); CI's gate asserts
//! `a2a_ratio >= 4` at c = 2.

use hacc_bench::reference_power;
use hacc_comm::{Machine, TagClassVolumes};
use hacc_core::{DistSimulation, SimConfig, SolverKind};
use hacc_cosmo::Cosmology;
use hacc_pm::PmLevelConfig;

struct Args {
    ng: usize,
    ranks: usize,
    steps: usize,
    coarsening: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        ng: 64,
        ranks: 2,
        steps: 2,
        coarsening: 2,
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
            "--ranks" => out.ranks = need(i).parse().expect("--ranks"),
            "--steps" => out.steps = need(i).parse().expect("--steps"),
            "--coarsening" => out.coarsening = need(i).parse().expect("--coarsening"),
            "--json" => out.json = Some(need(i)),
            other => panic!("unknown argument {other}"),
        }
        i += 2;
    }
    out
}

/// Per-class volume of `steps` distributed PM steps from a fresh view,
/// excluding construction (domain decomposition, table builds), and of
/// the last step alone — a warm step when `steps >= 2`. The in-process
/// machine keeps one machine-global counter set, so every rank
/// snapshots the same totals; rank 0's diffs are the answer.
fn measure(
    two_level: Option<PmLevelConfig>,
    ng: usize,
    ranks: usize,
    steps: usize,
) -> ([u64; 6], [u64; 6]) {
    let power = reference_power();
    let cfg = SimConfig {
        cosmology: Cosmology::lcdm(),
        box_len: 64.0,
        ng,
        a_init: 0.2,
        a_final: 1.0,
        steps: 1,
        subcycles: 1,
        solver: SolverKind::PmOnly,
        spectral: hacc_pm::SpectralParams::default(),
        two_level,
        tree: hacc_short::TreeParams::default(),
        rcut_cells: 3.0,
        skin_cells: 0.25,
        max_retries: None,
        backoff_base_ms: None,
    };
    let ics = hacc_ics::zeldovich(ng / 4, cfg.box_len, &power, cfg.a_init, 17);
    let (results, _) = Machine::new(ranks).run(move |comm| {
        let mut sim = DistSimulation::new(&comm, cfg, &ics);
        // No rank may start stepping (and sending) before every rank
        // has taken its snapshot.
        let snapshot = || {
            comm.barrier();
            let by = comm.traffic_stats().by_class;
            comm.barrier();
            by
        };
        let diff = |before: TagClassVolumes, after: TagClassVolumes| {
            [
                after.p2p.bytes - before.p2p.bytes,
                after.a2a.bytes - before.a2a.bytes,
                after.control.bytes - before.control.bytes,
                after.p2p.msgs - before.p2p.msgs,
                after.a2a.msgs - before.a2a.msgs,
                after.control.msgs - before.control.msgs,
            ]
        };
        let first = snapshot();
        let mut last = first;
        for s in 0..steps {
            if s + 1 == steps {
                last = snapshot();
            }
            sim.step(cfg.a_init + 0.01 * (s + 1) as f64);
        }
        let end = snapshot();
        (diff(first, end), diff(last, end))
    });
    results[0]
}

fn class_json(v: &[u64; 6]) -> String {
    format!(
        r#"{{"p2p":{{"bytes":{},"msgs":{}}},"a2a":{{"bytes":{},"msgs":{}}},"control":{{"bytes":{},"msgs":{}}}}}"#,
        v[0], v[3], v[1], v[4], v[2], v[5]
    )
}

fn main() {
    let args = parse_args();
    let (ng, ranks, steps, c) = (args.ng, args.ranks, args.steps, args.coarsening);
    println!("comm volume A/B: {ng}^3 PM over {ranks} ranks, {steps} steps, coarsening {c}");

    let (single, single_warm) = measure(None, ng, ranks, steps);
    let (two, two_warm) = measure(
        Some(PmLevelConfig {
            coarsening: c,
            ..PmLevelConfig::default()
        }),
        ng,
        ranks,
        steps,
    );
    assert!(two[1] > 0, "two-level run sent no alltoallv traffic");
    let a2a_ratio = single[1] as f64 / two[1] as f64;
    let a2a_ratio_warm_step = single_warm[1] as f64 / two_warm[1] as f64;
    let total_single: u64 = single[..3].iter().sum();
    let total_two: u64 = two[..3].iter().sum();
    let total_ratio = total_single as f64 / total_two as f64;

    println!(
        "  single-level: a2a {} B, p2p {} B, control {} B",
        single[1], single[0], single[2]
    );
    println!(
        "  two-level:    a2a {} B, p2p {} B, control {} B",
        two[1], two[0], two[2]
    );
    println!("  alltoallv bytes ratio (single / two-level): {a2a_ratio:.2}x (c^3 = {})", c * c * c);
    println!(
        "  last (warm) step alone: a2a {} B vs {} B, ratio {a2a_ratio_warm_step:.2}x",
        single_warm[1], two_warm[1]
    );
    println!("  total payload ratio: {total_ratio:.2}x");

    let json = format!(
        "{{\n  \"bench\": \"comm_volume\",\n  \"ng\": {ng},\n  \"ranks\": {ranks},\n  \
         \"steps\": {steps},\n  \"coarsening\": {c},\n  \
         \"single_level\": {},\n  \"two_level\": {},\n  \
         \"a2a_ratio\": {a2a_ratio:.3},\n  \"total_ratio\": {total_ratio:.3},\n  \
         \"a2a_ratio_warm_step\": {a2a_ratio_warm_step:.3}\n}}",
        class_json(&single),
        class_json(&two),
    );
    println!("\n{json}");
    if let Some(path) = &args.json {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create json dir");
        }
        std::fs::write(path, format!("{json}\n")).expect("write json");
        println!("wrote {path}");
    }
}
