//! One world: a cold set of rank processes (or threads) that sets up,
//! warms up, runs the timed steps, checks its outputs and reports.
//!
//! This is the only file that drives the program. The timed pass calls
//! just the load-bearing surface listed in `README.md`.

use std::io::Write as _;

use hacc::comm::socket::{SocketConfig, SocketTransport};
use hacc::comm::{Comm, Machine, TrafficStats};
use hacc::core::{DistSimulation, SimConfig, Simulation, StepBreakdown};
use hacc::cosmo::{LinearPower, Transfer};
use hacc::domain::Particles;
use hacc::ics::{zeldovich, IcsRealization};
use hacc::pm::GridForceFit;
use hacc::short::ForceKernel;

use crate::probes::{Coords, Replay};
use crate::spec::{
    Backend, Workload, A_GROWTH, A_INIT, BOX_LEN, COUNTS, REPLAY_EVERY, WARMUP_STEPS,
};
use crate::trace::{Clock, Tracer, ROOT_SPAN};

/// Point-to-point tag of the harness's own go-ahead message.
const TAG_GO: u64 = 9100;
/// The `distributed_driver_tracks_serial` budget of the repository's
/// tests: 0.05 Mpc/h on a 2 Mpc/h cell.
pub const SERIAL_BUDGET_CELLS: f64 = 0.025;

pub struct WorldArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Timed steps to run.
    pub steps: usize,
}

/// What a rank tells the launcher, one record a line:
/// `@m rank name value`, `@d rank digest`, `@s ...` span lines, and
/// `@p message` from a panicking thread.
pub struct Report {
    rank: usize,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.lines.push(format!("@m {} {name} {value}", self.rank));
    }
}

/// Entry point of a world process.
pub fn world_main(args: &WorldArgs) {
    let clock = Clock::from_env();
    // Tell the launcher why a rank died, not only that it did.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        println!("@p {}", info.to_string().replace('\n', " "));
        default_hook(info);
    }));
    let lines = match args.workload.backend {
        Backend::Serial => run_rank(None, args, clock),
        Backend::InProc => {
            let (per_rank, _) =
                Machine::new(args.workload.ranks).run(|comm| run_rank(Some(&comm), args, clock));
            per_rank.concat()
        }
        Backend::Socket => {
            let cfg = SocketConfig::from_env()
                .expect("socket world started without the hub's environment");
            let comm = Comm::over_socket(SocketTransport::connect(cfg).expect("socket transport"));
            let lines = run_rank(Some(&comm), args, clock);
            comm.shutdown();
            lines
        }
    };
    let mut out = std::io::stdout().lock();
    for line in lines {
        writeln!(out, "{line}").expect("report stream");
    }
}

enum Engine<'a> {
    Serial(Box<Simulation>),
    Dist(Box<DistSimulation<'a>>),
}

impl Engine<'_> {
    fn step(&mut self) {
        match self {
            Engine::Serial(s) => s.step(s.a * A_GROWTH),
            Engine::Dist(s) => s.step(s.a * A_GROWTH),
        }
    }

    fn last_breakdown(&self) -> StepBreakdown {
        let steps = match self {
            Engine::Serial(s) => &s.stats.steps,
            Engine::Dist(s) => &s.stats.steps,
        };
        *steps.last().expect("a step ran")
    }

    fn coords(&self) -> Coords<'_> {
        match self {
            Engine::Serial(s) => {
                let (x, y, z) = s.positions();
                Coords {
                    x,
                    y,
                    z,
                    n_active: x.len(),
                }
            }
            Engine::Dist(s) => {
                let p = s.particles();
                Coords {
                    x: &p.x,
                    y: &p.y,
                    z: &p.z,
                    n_active: p.n_active,
                }
            }
        }
    }

    fn particles(&self) -> Option<&Particles> {
        match self {
            Engine::Serial(_) => None,
            Engine::Dist(s) => Some(s.particles()),
        }
    }

    /// Collective on the distributed engine.
    fn global_count(&self) -> usize {
        match self {
            Engine::Serial(s) => s.positions().0.len(),
            Engine::Dist(s) => s.global_count(),
        }
    }

    /// `(id, position)` of every particle, sorted by id, on rank 0.
    /// Collective on the distributed engine.
    fn gather(&self) -> Option<Vec<(u64, [f32; 3])>> {
        match self {
            Engine::Serial(s) => {
                let (x, y, z) = s.positions();
                Some(
                    (0..x.len())
                        .map(|i| (i as u64, [x[i], y[i], z[i]]))
                        .collect(),
                )
            }
            Engine::Dist(s) => s.gather_positions(),
        }
    }
}

/// Traffic counters this rank may read exactly: the in-process machine
/// keeps one set for all ranks, which rank 0 reads while the others are
/// held; each socket process keeps its own sends.
fn reads_traffic(backend: Backend, rank: usize) -> bool {
    backend == Backend::Socket || rank == 0
}

/// Stop every rank, read the traffic counters while nothing is in
/// flight, let the ranks go. Costs `p - 1` empty point-to-point
/// messages, which the calibration window subtracts again.
fn quiesce(comm: &Comm) -> TrafficStats {
    comm.barrier();
    if comm.rank() == 0 {
        let stats = comm.traffic_stats();
        for r in 1..comm.size() {
            comm.send::<u8>(r, TAG_GO, Vec::new());
        }
        stats
    } else {
        let stats = comm.traffic_stats();
        let _ = comm.recv::<u8>(0, TAG_GO);
        stats
    }
}

/// Counter values of one window, in the order of the `comm.*` entries
/// of `spec::COUNTS`.
fn traffic_delta(before: &TrafficStats, after: &TrafficStats) -> [i64; 7] {
    let f = |s: &TrafficStats| {
        [
            s.by_class.a2a.bytes,
            s.by_class.p2p.bytes,
            s.by_class.control.bytes,
            s.by_class.a2a.msgs + s.by_class.p2p.msgs + s.by_class.control.msgs,
            s.wire.bytes_on_wire,
            s.wire.frames_retried,
            s.wire.crc_rejects,
        ]
    };
    let (b, a) = (f(before), f(after));
    std::array::from_fn(|i| a[i] as i64 - b[i] as i64)
}

struct RankRun<'a> {
    comm: Option<&'a Comm>,
    clock: Clock,
    engine: Engine<'a>,
    particles: usize,
    tr: Tracer,
    rep: Report,
    steps_done: i64,
}

impl RankRun<'_> {
    fn barrier(&self) {
        if let Some(c) = self.comm {
            c.barrier();
        }
    }

    /// The per-step output check: the particle count is exact and every
    /// coordinate this rank holds is finite. Collective, and every rank
    /// gets the same verdict.
    fn check(&self) -> bool {
        let count_ok = self.engine.global_count() == self.particles;
        let c = self.engine.coords();
        let bad = [c.x, c.y, c.z]
            .iter()
            .any(|col| col.iter().any(|v| !v.is_finite()));
        let any_bad = match self.comm {
            Some(comm) => comm.allreduce_sum(f64::from(u8::from(bad))) > 0.0,
            None => bad,
        };
        count_ok && !any_bad
    }

    /// One step sample: barrier, step, barrier, so the slowest rank sets
    /// the time. The check runs after the clock stops.
    fn sampled_step(&mut self, timed: bool) {
        self.barrier();
        let t0 = self.clock.now_ns();
        self.engine.step();
        let arrived = self.clock.now_ns();
        self.barrier();
        let t1 = self.clock.now_ns();

        let b = self.engine.last_breakdown();
        let parts = [
            ("kernel_s", b.kernel),
            ("walk_s", b.walk),
            ("build_s", b.build),
            ("fft_s", b.fft),
            ("coarse_fft_s", b.coarse_fft),
            ("cic_s", b.cic),
            ("other_s", b.other),
        ]
        .map(|(k, d)| (k, d.as_secs_f64()));
        let step = self.steps_done;
        let id = self.tr.record(
            if timed { "step" } else { "warmup_step" },
            ROOT_SPAN,
            step,
            t0,
            t1,
            &parts,
        );
        self.tr.record("barrier_wait", id, step, arrived, t1, &[]);

        let ok = self.check();
        self.rep.metric("step_ok", f64::from(u8::from(ok)));
        if timed {
            self.rep.metric("step_s", (t1 - t0) as f64 / 1e9);
            self.rep.metric("arrive_ns", arrived as f64);
            for (name, secs) in parts {
                self.rep.metric(&format!("reported.{name}"), secs);
            }
            self.rep.metric("reported.total_s", b.total().as_secs_f64());
            self.rep.metric("short.interactions", b.interactions as f64);
            self.rep
                .metric("short.pair_evals", b.pair_interactions as f64);
        } else {
            self.rep.metric("warmup_step_s", (t1 - t0) as f64 / 1e9);
        }
        self.steps_done += 1;
    }
}

fn run_rank(comm: Option<&Comm>, args: &WorldArgs, clock: Clock) -> Vec<String> {
    let wl = args.workload;
    let rank = comm.map_or(0, Comm::rank);
    let cfg = wl.config(args.smoke);
    let secs = |ns: u64| ns as f64 / 1e9;

    let mut rep = Report {
        rank,
        lines: Vec::new(),
    };
    let mut tr = Tracer::new(args.trace, rank);

    // ---- set-up: bring-up, initial conditions, construction, warm-up.
    let setup_id = tr.reserve();
    let t_up = clock.now_ns();
    tr.record("setup.bringup", setup_id, -1, 0, t_up, &[]);
    rep.metric("setup.bringup_s", secs(t_up));

    let power = LinearPower::new(&cfg.cosmology, Transfer::EisensteinHuNoWiggle);
    let ics = zeldovich(wl.np(args.smoke), BOX_LEN, &power, A_INIT, args.seed);
    let t_ics = clock.now_ns();
    tr.record("ics.zeldovich", setup_id, -1, t_up, t_ics, &[]);
    rep.metric("ics.zeldovich_s", secs(t_ics - t_up));

    let engine = match comm {
        None => Engine::Serial(Box::new(Simulation::from_ics(cfg, &ics))),
        Some(c) => Engine::Dist(Box::new(DistSimulation::new(c, cfg, &ics))),
    };
    let t_built = clock.now_ns();
    tr.record("setup.construct", setup_id, -1, t_ics, t_built, &[]);
    rep.metric("setup.construct_s", secs(t_built - t_ics));

    let mut run = RankRun {
        comm,
        clock,
        engine,
        particles: ics.len(),
        tr,
        rep,
        steps_done: 0,
    };
    for _ in 0..WARMUP_STEPS {
        run.sampled_step(false);
    }
    run.barrier();
    let t_ready = clock.now_ns();
    run.tr
        .record_as(setup_id, "setup", ROOT_SPAN, -1, 0, t_ready);
    run.rep.metric("setup_s", secs(t_ready));

    if args.trace {
        check_against_serial(&mut run, &cfg, &ics);
    }
    drop(ics);

    // ---- the harness's own traffic, to subtract from the window's.
    let counted = comm.filter(|_| !args.trace);
    let harness = counted.map(|c| {
        let before = quiesce(c);
        for _ in 0..args.steps {
            c.barrier();
            c.barrier();
            run.check();
        }
        traffic_delta(&before, &quiesce(c))
    });

    // ---- the timed window.
    let kernel = args.trace.then(|| probe_kernel(&cfg));
    let before = counted.map(quiesce);
    for i in 0..args.steps {
        run.sampled_step(true);
        if let Some(kernel) = kernel.as_ref().filter(|_| (i + 1) % REPLAY_EVERY == 0) {
            replay(&mut run, &cfg, kernel);
        }
    }
    if let (Some(c), Some(before), Some(harness)) = (counted, before, harness) {
        let window = traffic_delta(&before, &quiesce(c));
        if reads_traffic(wl.backend, rank) {
            let names = COUNTS.iter().filter(|m| m.name.starts_with("comm."));
            for (m, (w, h)) in names.zip(window.iter().zip(&harness)) {
                run.rep.metric(m.name, (w - h) as f64 / args.steps as f64);
            }
        }
    }

    // ---- end-of-run outputs.
    if let Engine::Dist(sim) = &run.engine {
        run.rep.metric("domain.imbalance", sim.load_imbalance());
        run.rep.metric(
            "domain.overload_fraction",
            sim.particles().overload_fraction(),
        );
    }
    if let Some(all) = run.engine.gather() {
        let ok = all.len() == run.particles && all.windows(2).all(|w| w[0].0 < w[1].0);
        run.rep.metric("gather_ok", f64::from(u8::from(ok)));
        run.rep
            .lines
            .push(format!("@d {rank} {:016x}", digest(&all)));
    }
    run.rep.metric("peak_rss_kib", peak_rss_kib());

    let RankRun { tr, mut rep, .. } = run;
    rep.lines
        .extend(tr.spans.iter().map(crate::trace::Span::to_line));
    rep.lines
}

/// Traced pass only: the first steps of a distributed workload against
/// the serial engine on the same initial conditions. Rank 0 runs the
/// serial engine while the others wait.
fn check_against_serial(run: &mut RankRun, cfg: &SimConfig, ics: &IcsRealization) {
    if run.comm.is_none() {
        return;
    }
    let t0 = run.clock.now_ns();
    if let Some(got) = run.engine.gather() {
        let mut serial = Simulation::from_ics(*cfg, ics);
        for _ in 0..WARMUP_STEPS {
            serial.step(serial.a * A_GROWTH);
        }
        let (sx, sy, sz) = serial.positions();
        let side = BOX_LEN as f32;
        let mut worst = 0.0f32;
        for &(id, p) in &got {
            let i = id as usize;
            for (a, b) in [(p[0], sx[i]), (p[1], sy[i]), (p[2], sz[i])] {
                // Periodic distance; either side may hold an unwrapped coordinate.
                let d = (a - b).rem_euclid(side);
                worst = worst.max(d.min(side - d));
            }
        }
        let cells = f64::from(worst) * cfg.ng as f64 / BOX_LEN;
        run.rep.metric("check.serial_dev_cells", cells);
    }
    run.barrier();
    let t1 = run.clock.now_ns();
    run.tr
        .record("check.serial_reference", ROOT_SPAN, -1, t0, t1, &[]);
}

/// The short-range kernel the engines build in private, rebuilt from
/// the same public pieces, for the kernel probe.
fn probe_kernel(cfg: &SimConfig) -> ForceKernel {
    // Grid side and seed of the engines' own fit (`cached_grid_fit`).
    let fit = GridForceFit::measure(32, cfg.spectral, cfg.rcut_cells, 0x4841_4343);
    ForceKernel::new(fit.coeffs_f32(), cfg.rcut_cells as f32, fit.epsilon as f32)
}

fn replay(run: &mut RankRun, cfg: &SimConfig, kernel: &ForceKernel) {
    let id = run.tr.reserve();
    let step = run.steps_done - 1;
    run.barrier();
    let t0 = run.clock.now_ns();
    Replay {
        comm: run.comm,
        cfg,
        kernel,
        clock: run.clock,
        parent: id,
        step,
    }
    .run(
        &run.engine.coords(),
        run.engine.particles(),
        &mut run.tr,
        &mut run.rep,
    );
    run.barrier();
    run.tr
        .record_as(id, "replay", ROOT_SPAN, step, t0, run.clock.now_ns());
}

/// FNV-1a over `(id, position bits)` in id order.
fn digest(sorted: &[(u64, [f32; 3])]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (id, p) in sorted {
        eat(&id.to_le_bytes());
        for c in p {
            eat(&c.to_bits().to_le_bytes());
        }
    }
    h
}

/// `VmHWM` of this process, KiB; 0 where `/proc` does not have it.
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_ids_and_every_coordinate_bit() {
        let base = vec![(0u64, [1.0f32, 2.0, 3.0]), (1, [4.0, 5.0, 6.0])];
        let d = digest(&base);
        assert_eq!(d, digest(&base.clone()));
        let mut moved = base.clone();
        moved[1].1[2] = f32::from_bits(6.0f32.to_bits() + 1);
        assert_ne!(d, digest(&moved));
        let mut renamed = base.clone();
        renamed[0].0 = 7;
        assert_ne!(d, digest(&renamed));
        assert_ne!(
            digest(&[(0, [0.0, 0.0, 0.0])]),
            digest(&[(0, [-0.0, 0.0, 0.0])])
        );
    }
}
