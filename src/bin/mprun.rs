//! `hacc-mprun` — multi-process launcher for the socket transport.
//!
//! One binary, two roles:
//!
//! - **Launcher** (no `HACC_HUB` in the environment): runs the
//!   [`hacc::comm::hub`] rendezvous, spawns one child process per rank
//!   by re-executing itself, optionally SIGKILLs a victim mid-step per
//!   the fault plan, respawns it as a blank replacement, and writes a
//!   summary JSON when the world finishes.
//! - **Child** (with `HACC_HUB`): connects the socket transport and runs
//!   the selected scenario over the same transport-generic driver code
//!   the in-process machine uses.
//!
//! Scenarios:
//!
//! - `sim` — the 4-step online-resilience acceptance run (32³ mesh,
//!   Zel'dovich ICs): every step admitted through the heartbeat epoch
//!   barrier, a SIGKILLed rank detected, Tier-0 reconstructed from
//!   overload shells, and the respawned OS process rejoined as a blank
//!   replacement. Rank 0 writes final positions; every rank writes its
//!   recovery timeline and wire stats.
//! - `elastic` — the chaos-soak acceptance run: the same driver on a
//!   36³ mesh over 10 steps with a resize schedule. `--ranks` is the
//!   capacity, `--active` the starting world, and `--scale` (e.g.
//!   `6@3,3@7`) schedules grows into the parked reserve and shrinks
//!   back out, every resize epoch-fenced and count-certified — all
//!   while `--kill` SIGKILLs ranks per the fault plan. Artifacts match
//!   `sim`.
//! - `barrier` — a detection-latency probe: ranks run epoch barriers
//!   until the victim dies, then verify a receive from the dead rank
//!   fails with `RankFailed` (not a hang) and record how long detection
//!   took.
//! - `pencil` — distributed-FFT determinism over real sockets: four
//!   processes run the r2c pencil transform and write a per-rank
//!   spectrum hash so the harness can compare against an in-process run.
//!
//! ```text
//! hacc-mprun --ranks 4 --scenario sim --kill 1@3 --seed 9 --out out/mprun
//! ```

use hacc::comm::hub::{self, HubOptions};
use hacc::comm::socket::{SocketConfig, SocketTransport};
use hacc::comm::protocol::FenceAdmission;
use hacc::comm::{Comm, CommError, FaultPlan};
use hacc::core::{
    run_attempt_elastic, write_timeline_json, ResilienceConfig, ScaleSchedule, SimConfig,
    SolverKind, TimelineHeader,
};
use hacc::cosmo::{Cosmology, LinearPower, Transfer};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

struct Options {
    ranks: usize,
    scenario: String,
    seed: u64,
    kill: Option<(usize, u64)>,
    out: PathBuf,
    /// Elastic scenario: initially active world size (rest start parked).
    active: Option<usize>,
    /// Elastic scenario: resize schedule spec, e.g. `6@3,3@7`.
    scale: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        ranks: 4,
        scenario: "sim".to_string(),
        seed: 9,
        kill: None,
        out: PathBuf::from("out/mprun"),
        active: None,
        scale: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--ranks" => opts.ranks = value("--ranks").parse().expect("--ranks"),
            "--scenario" => opts.scenario = value("--scenario"),
            "--seed" => opts.seed = value("--seed").parse().expect("--seed"),
            "--kill" => {
                let spec = value("--kill");
                let (rank, step) = spec.split_once('@').expect("--kill RANK@STEP");
                opts.kill = Some((
                    rank.parse().expect("--kill rank"),
                    step.parse().expect("--kill step"),
                ));
            }
            "--out" => opts.out = PathBuf::from(value("--out")),
            "--active" => opts.active = Some(value("--active").parse().expect("--active")),
            "--scale" => opts.scale = Some(value("--scale")),
            "--help" | "-h" => {
                println!(
                    "usage: hacc-mprun [--ranks N] \
                     [--scenario sim|elastic|barrier|pencil] \
                     [--seed S] [--kill RANK@STEP] [--active N] \
                     [--scale TARGET@STEP[,..]] [--out DIR]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    opts
}

/// The acceptance geometry: identical to the in-process tier-0 scenario
/// (tests/resilience.rs `cfg32`), so the socket backend is held to the
/// same trajectory.
fn sim_config() -> SimConfig {
    SimConfig {
        ng: 32,
        box_len: 64.0,
        a_init: 0.2,
        a_final: 0.26,
        steps: 4,
        subcycles: 2,
        solver: SolverKind::TreePm,
        ..SimConfig::small_lcdm()
    }
}

/// Zel'dovich initial conditions, `np`³ particles in the 64 Mpc/h box.
fn zeldovich_ics(np: usize) -> hacc::ics::IcsRealization {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    hacc::ics::zeldovich(np, 64.0, &power, 0.2, 31)
}

/// The elastic acceptance geometry: a 36³ mesh (divisible by every
/// world size the 4→6→3 chaos schedule visits) over 10 steps, identical
/// to the in-process elastic scenario in tests/resilience.rs.
fn elastic_config() -> SimConfig {
    SimConfig {
        ng: 36,
        a_final: 0.32,
        steps: 10,
        ..sim_config()
    }
}

fn main() {
    if std::env::var("HACC_HUB").is_ok() {
        child_main();
    } else {
        launcher_main();
    }
}

// ---- launcher --------------------------------------------------------

fn launcher_main() {
    let opts = parse_args();
    std::fs::create_dir_all(&opts.out).expect("output dir");
    let ckpt = opts.out.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);

    let mut plan = FaultPlan::seeded(opts.seed);
    if let Some((rank, step)) = opts.kill {
        assert!(rank < opts.ranks, "--kill rank out of range");
        plan = plan.kill_rank_at_step(rank, step);
    }
    let mut hub_opts = HubOptions::new(opts.ranks);
    hub_opts.plan = plan;
    // The barrier scenario measures detection, not recovery: dead stays
    // dead so survivors can probe the corpse.
    hub_opts.respawn = matches!(opts.scenario.as_str(), "sim" | "elastic");
    // Elastic runs start a prefix of the capacity world; the rest park
    // in the detector as the reserve pool (the hub checks the range).
    hub_opts.active = opts.active;

    let exe = std::env::current_exe().expect("current exe");
    let scenario = opts.scenario.clone();
    let scale = opts.scale.clone().unwrap_or_default();
    let active = opts.active.unwrap_or(opts.ranks);
    let out = opts.out.clone();
    let started = Instant::now();
    let report = hub::run(hub_opts, move |rank, incarnation, hub_addr| {
        Command::new(&exe)
            .env("HACC_HUB", hub_addr)
            .env("HACC_RANK", rank.to_string())
            .env("HACC_RANKS", opts.ranks.to_string())
            .env("HACC_INCARNATION", incarnation.to_string())
            .env("HACC_SCENARIO", &scenario)
            .env("HACC_SEED", opts.seed.to_string())
            .env("HACC_SCALE", &scale)
            .env("HACC_ACTIVE", active.to_string())
            .env("HACC_OUT", &out)
            .env("HACC_CKPT", &ckpt)
            .spawn()
    })
    .expect("hub run");

    let pairs = |v: &[(usize, u64)], a: &str, b: &str| -> String {
        let items: Vec<String> = v
            .iter()
            .map(|&(r, s)| format!(r#"{{"{a}":{r},"{b}":{s}}}"#))
            .collect();
        format!("[{}]", items.join(","))
    };
    let respawned: Vec<String> = report.events("respawned").iter().map(|&(r, _)| r.to_string()).collect();
    let failures: Vec<String> = report
        .exit_failures
        .iter()
        .map(|&(r, c)| format!(r#"{{"rank":{r},"code":{c}}}"#))
        .collect();
    // The hub's timestamped lifecycle timeline: lets a harness assert
    // detection latency (killed → declared) and respawn turnaround from
    // the summary alone.
    let timeline: Vec<String> = report
        .timeline
        .iter()
        .map(|e| {
            format!(
                r#"{{"kind":"{}","rank":{},"step":{},"wall_ms":{}}}"#,
                e.kind, e.rank, e.step, e.wall_ms
            )
        })
        .collect();
    let summary = format!(
        concat!(
            r#"{{"ranks":{},"scenario":"{}","seed":{},"elapsed_ms":{},"#,
            r#""killed":{},"declared":{},"respawned":[{}],"exit_failures":[{}],"#,
            r#""timeline":[{}]}}"#,
            "\n"
        ),
        opts.ranks,
        opts.scenario,
        opts.seed,
        started.elapsed().as_millis(),
        pairs(&report.events("killed"), "rank", "step"),
        pairs(&report.events("declared"), "rank", "epoch"),
        respawned.join(","),
        failures.join(","),
        timeline.join(","),
    );
    std::fs::write(opts.out.join("hub_report.json"), &summary).expect("hub report");
    print!("{summary}");
    if !report.clean() {
        eprintln!("hacc-mprun: child failures: {:?}", report.exit_failures);
        std::process::exit(1);
    }
}

// ---- child -----------------------------------------------------------

fn child_main() {
    let cfg = SocketConfig::from_env().expect("child env");
    let out = PathBuf::from(std::env::var("HACC_OUT").expect("HACC_OUT"));
    let scenario = std::env::var("HACC_SCENARIO").unwrap_or_else(|_| "sim".into());
    let replacement = cfg.is_replacement();
    let comm = Comm::over_socket(SocketTransport::connect(cfg).expect("socket transport"));
    match scenario.as_str() {
        "sim" | "elastic" => child_driver(&comm, scenario == "elastic", replacement, &out),
        "barrier" => child_barrier(&comm, &out),
        "pencil" => child_pencil(&comm, &out),
        other => panic!("unknown scenario {other}"),
    }
    comm.shutdown();
}

fn env_seed() -> u64 {
    std::env::var("HACC_SEED").map_or(9, |s| s.parse().unwrap_or(9))
}

/// The driver scenarios: the transport-generic recovery driver, exactly
/// as the in-process machine runs it. `sim` never resizes and trims its
/// checkpoint directory to two sets; `elastic` starts `HACC_ACTIVE` of
/// the capacity world and follows `HACC_SCALE`, keeping every set for
/// the harness to read back — all while the hub SIGKILLs whatever the
/// fault plan names. Every rank leaves its recovery timeline (with the
/// policy header) and wire stats; rank 0 also its final positions.
fn child_driver(comm: &Comm, elastic: bool, replacement: bool, out: &Path) {
    let schedule = ScaleSchedule::parse(&std::env::var("HACC_SCALE").unwrap_or_default());
    let active: usize = std::env::var("HACC_ACTIVE")
        .map_or_else(|_| comm.size(), |s| s.parse().expect("HACC_ACTIVE"));
    let ckpt = PathBuf::from(std::env::var("HACC_CKPT").expect("HACC_CKPT"));
    let mut rc = ResilienceConfig::new(comm.size(), ckpt);
    let (cfg, ics) = if elastic {
        (elastic_config(), zeldovich_ics(18))
    } else {
        rc.retain = Some(2);
        (sim_config(), zeldovich_ics(16))
    };
    let (positions, events) =
        run_attempt_elastic(comm, cfg, &ics, &rc, &schedule, active, replacement);
    let rank = comm.rank();
    let header = TimelineHeader::for_config(&rc, Some(env_seed()));
    write_timeline_json(
        &out.join(format!("timeline_rank{rank}.json")),
        Some(&header),
        &events,
    )
    .expect("timeline artifact");
    std::fs::write(
        out.join(format!("wire_stats_rank{rank}.json")),
        format!("{}\n", comm.traffic_stats().to_json()),
    )
    .expect("wire stats artifact");
    if let Some(positions) = positions {
        let mut body = String::new();
        for (id, [x, y, z]) in positions {
            body.push_str(&format!("{id} {x} {y} {z}\n"));
        }
        std::fs::write(out.join("positions.txt"), body).expect("positions artifact");
    }
    comm.barrier();
}

/// Detection-latency probe: admit epochs until the victim dies, then
/// prove the failure surfaces as data, not as a hang.
fn child_barrier(comm: &Comm, out: &Path) {
    let rank = comm.rank();
    let start = Instant::now();
    for step in 1..=1000u64 {
        match comm.admit_step(step) {
            (FenceAdmission::Dead, _) => {
                // Only reachable if *this* rank was fenced; the SIGKILL
                // victim never runs this line.
                std::process::exit(0);
            }
            (FenceAdmission::Proceed, _) => {
                // A short pause keeps epochs slower than the detector's
                // scan, so the death lands mid-schedule, not at the end.
                std::thread::sleep(Duration::from_millis(5));
            }
            (FenceAdmission::Deaths, agreed) => {
                let detect_ms = start.elapsed().as_millis();
                let &(victim, epoch) = agreed.first().expect("failed set");
                // The dead rank must answer as an error, promptly.
                let probe = Instant::now();
                let got = comm.recv_timeout::<u8>(victim, 0xdead, Duration::from_secs(5));
                let probe_ms = probe.elapsed().as_millis();
                match got {
                    Err(CommError::RankFailed { rank: r, epoch: e }) => {
                        assert_eq!(r, victim, "probe blamed the wrong rank");
                        assert_eq!(e, epoch, "probe disagreed on the failure epoch");
                    }
                    other => panic!("probe of dead rank {victim}: expected RankFailed, got {other:?}"),
                }
                std::fs::write(
                    out.join(format!("detect_rank{rank}.json")),
                    format!(
                        concat!(
                            r#"{{"rank":{},"victim":{},"epoch":{},"step":{},"#,
                            r#""detect_ms":{},"probe_ms":{}}}"#,
                            "\n"
                        ),
                        rank, victim, epoch, step, detect_ms, probe_ms
                    ),
                )
                .expect("detection artifact");
                return;
            }
        }
    }
    panic!("barrier scenario: no failure observed in 1000 epochs");
}

/// Deterministic grid value at a global linear index; duplicated in
/// `tests/multiprocess.rs` so the in-process reference run feeds the
/// exact same field (splitmix-style bit mix, mapped to [-0.5, 0.5)).
fn pencil_grid_val(i: u64) -> f64 {
    let mut s = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    s ^= s >> 30;
    s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s ^= s >> 27;
    (s as f64 / u64::MAX as f64) - 0.5
}

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Distributed-FFT determinism over sockets: the r2c pencil spectrum,
/// with every transpose crossing a real TCP link, hashed per rank for
/// the harness to compare against an in-process run.
fn child_pencil(comm: &Comm, out: &Path) {
    use hacc::fft::{DistRealFft3, RealPencilFft};

    assert_eq!(comm.size(), 4, "pencil scenario is wired for 4 ranks");
    let n = 16usize;
    let fft = RealPencilFft::with_grid(comm, n, 2, 2);
    let rl = fft.real_layout();
    let mut local = vec![0.0f64; rl.len()];
    for (i, v) in local.iter_mut().enumerate() {
        let g = rl.global_coords(i);
        *v = pencil_grid_val(((g[0] * n + g[1]) * n + g[2]) as u64);
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for c in &fft.forward(local) {
        h = fnv(h, c.re.to_bits());
        h = fnv(h, c.im.to_bits());
    }

    let rank = comm.rank();
    std::fs::write(
        out.join(format!("pencil_rank{rank}.json")),
        format!("{{\"rank\":{rank},\"k_hash\":{h}}}\n"),
    )
    .expect("pencil artifact");
    comm.barrier();
}
