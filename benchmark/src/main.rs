//! The repo benchmark: a distributed TreePM/PM step, end to end and
//! layer by layer. See `README.md` for the metrics and how to read them.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one pass, one result line
//! run.sh [--seed N] [--seconds S] [--workload W] [--out NAME] [--smoke]
//!                                                        every workload, both passes
//! run.sh --compare A.json B.json                         judge B against A
//! ```

mod compare;
mod json;
mod launch;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use probes::{measure_roofs, Roofs};
use run::{run_workload, WorkloadResult};
use spec::{Workload, WORKLOADS};

/// Timed seconds per workload when the whole suite runs.
const SUITE_SECONDS: f64 = 24.0;

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: String,
    compare: Option<(String, String)>,
    /// Timed steps of a world; only the launcher passes it.
    steps: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: "latest".into(),
        compare: None,
        steps: spec::TIMED_STEPS,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(Workload::find(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => o.smoke = true,
            "--steps" => o.steps = value()?.parse().map_err(|e| format!("--steps: {e}"))?,
            "--out" => {
                let name = value()?;
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                {
                    return Err("--out takes a file stem of letters, digits, '_', '.', '-'".into());
                }
                o.out = name.clone();
            }
            "--compare" => o.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// The benchmark's own directory; `run.sh` exports it.
fn bench_dir() -> PathBuf {
    std::env::var_os("HACC_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Ranks beyond the cores would time the scheduler, not the program.
fn fits_machine(wl: &Workload) -> Result<(), String> {
    if wl.ranks > nproc() {
        Err(format!(
            "{} needs {} ranks but this machine has {} cores",
            wl.name,
            wl.ranks,
            nproc()
        ))
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let world = args.first().is_some_and(|a| a == "world");
    let opts = match parse_args(&args[usize::from(world)..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hacc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if world {
        let workload = opts.workload.expect("a world is started with --workload");
        world::world_main(&world::WorldArgs {
            workload,
            seed: opts.seed,
            trace: opts.trace == Some(true),
            smoke: opts.smoke,
            steps: opts.steps,
        });
        Ok(true)
    } else if let Some((a, b)) = &opts.compare {
        compare_files(a, b)
    } else if let (Some(wl), Some(trace)) = (opts.workload, opts.trace) {
        single_pass(wl, &opts, trace)
    } else {
        suite(&opts)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hacc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let benchmark = read_json(&bench_dir().join("../BENCHMARK.json"))?;
    compare::compare(&benchmark, &read_json(a.as_ref())?, &read_json(b.as_ref())?)
}

fn write_trace(path: &std::path::Path, results: &[&WorkloadResult]) -> Result<(), String> {
    let mut text = String::new();
    for res in results {
        let id = res.trace_id();
        for span in &res.spans {
            text.push_str(&span.to_json(&id).compact());
            text.push('\n');
        }
    }
    std::fs::create_dir_all(path.parent().expect("results directory"))
        .map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver's protocol: one workload, one pass, and a result line last.
fn single_pass(wl: &'static Workload, opts: &Options, trace: bool) -> Result<bool, String> {
    fits_machine(wl)?;
    let roofs = trace.then(|| measure_roofs(opts.smoke));
    if let Some(r) = &roofs {
        print_roofs(r);
    }
    let seconds = opts.seconds.unwrap_or(SUITE_SECONDS);
    let res = run_workload(wl, opts.seed, seconds, trace, opts.smoke, roofs.as_ref())
        .map_err(|e| format!("{}: {e}", wl.name))?;
    if trace {
        write_trace(&bench_dir().join("results/trace.jsonl"), &[&res])?;
    } else {
        run::print_end_to_end(&res);
    }
    run::print_layers(&res);
    run::print_verdict(&res);
    println!("{}", run::result_line(&res, trace));
    Ok(res.correct())
}

fn print_roofs(r: &Roofs) {
    println!("machine peak_flops_1t {} flop/s", r.peak_flops_1t);
    println!(
        "machine stream_triad_gbs {} GB/s  (computed bytes; {} threads; arrays {} MiB each, last-level cache {} MiB{})",
        r.triad_gbs,
        r.triad_threads,
        r.array_bytes >> 20,
        r.llc_bytes >> 20,
        if r.cache_assisted { "; cache_assisted" } else { "" }
    );
}

fn first_line(path: &str) -> Option<String> {
    Some(
        std::fs::read_to_string(path)
            .ok()?
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// Where and on what the numbers were taken; part of every results file.
fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("cpu", Json::str(cpu.unwrap_or_else(|| "unknown".into()))),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(env("HACC_BENCH_RUSTC"))),
        ("commit", Json::str(env("HACC_BENCH_COMMIT"))),
        (
            "kernel_simd",
            Json::str(format!("{:?}", hacc::short::simd::detect())),
        ),
        (
            "fft_simd",
            Json::str(format!("{:?}", hacc::fft::kernels::detect())),
        ),
        (
            "loadavg_at_start",
            Json::str(first_line("/proc/loadavg").unwrap_or_else(|| "unknown".into())),
        ),
    ])
}

/// Every workload (or the one named), untraced then traced, with the
/// derived figures and a results file.
fn suite(opts: &Options) -> Result<bool, String> {
    let selected: Vec<&'static Workload> = match opts.workload {
        Some(wl) => vec![wl],
        None => WORKLOADS.iter().collect(),
    };
    for wl in &selected {
        fits_machine(wl)?;
    }
    let seconds = opts.seconds.unwrap_or(SUITE_SECONDS);
    let print = fingerprint();
    println!("fingerprint {}", print.compact());
    let roofs = measure_roofs(opts.smoke);
    print_roofs(&roofs);

    let mut entries = Vec::new();
    let mut passes = Vec::new();
    let mut all_correct = true;
    for wl in selected {
        let run = |trace| {
            run_workload(wl, opts.seed, seconds, trace, opts.smoke, Some(&roofs))
                .map_err(|e| format!("{}: {e}", wl.name))
        };
        let untraced = run(false)?;
        run::print_end_to_end(&untraced);
        run::print_layers(&untraced);
        run::print_verdict(&untraced);
        let traced = run(true)?;
        run::print_layers(&traced);
        run::print_verdict(&traced);
        all_correct &= untraced.correct() && traced.correct();
        entries.push((wl.name, run::results_entry(&untraced, &traced)));
        passes.push((untraced, traced));
    }

    // Derived figures: printed and stored, not gated.
    let untraced = |name: &str| {
        passes
            .iter()
            .map(|(u, _)| u)
            .find(|u| u.workload.name == name)
    };
    let step_s = |name: &str| untraced(name).map(|u| u.e2e("step_s"));
    let mut derived = Vec::new();
    if let (Some(serial), Some(two)) = (step_s("treepm.serial"), step_s("treepm.inproc2")) {
        derived.push(("scaling_eff", serial / (2.0 * two), "ratio"));
    }
    if let (Some(socket), Some(inproc)) = (step_s("pm.socket2"), step_s("pm.inproc2")) {
        derived.push(("transport_overhead_s", socket - inproc, "s"));
    }
    for (name, value, unit) in &derived {
        println!("derived {name} {value} {unit}");
    }

    // Same problem, same algorithm, two transports: the same bits.
    let digest = |name: &str| untraced(name).and_then(|u| u.digest);
    let mut checks = Vec::new();
    if let (Some(a), Some(b)) = (digest("pm.inproc2"), digest("pm.socket2")) {
        println!(
            "check pm.inproc2 and pm.socket2 digests {}",
            if a == b { "equal" } else { "DIFFER" }
        );
        checks.push(("pm_inproc2_socket2_digests_equal", Json::Bool(a == b)));
        all_correct &= a == b;
    }

    let results = Json::obj([
        ("run", Json::str(&opts.out)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("fingerprint", print),
        (
            "roofs",
            Json::obj([
                ("peak_flops_1t", Json::Num(roofs.peak_flops_1t)),
                ("stream_triad_gbs", Json::Num(roofs.triad_gbs)),
                ("triad_threads", Json::Num(roofs.triad_threads as f64)),
                ("triad_array_bytes", Json::Num(roofs.array_bytes as f64)),
                ("llc_bytes", Json::Num(roofs.llc_bytes as f64)),
                ("cache_assisted", Json::Bool(roofs.cache_assisted)),
                ("bytes", Json::str("computed")),
            ]),
        ),
        ("workloads", Json::obj(entries)),
        (
            "derived",
            Json::obj(derived.iter().map(|(n, v, u)| {
                (
                    *n,
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*u))]),
                )
            })),
        ),
        ("checks", Json::obj(checks)),
        ("correct", Json::Bool(all_correct)),
    ]);
    let dir = bench_dir().join("results");
    let path = dir.join(format!("{}.json", opts.out));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    let traced: Vec<&WorkloadResult> = passes.iter().map(|(_, t)| t).collect();
    let trace_path = dir.join(format!("{}.trace.jsonl", opts.out));
    write_trace(&trace_path, &traced)?;
    println!("wrote {} and {}", path.display(), trace_path.display());
    Ok(all_correct)
}
