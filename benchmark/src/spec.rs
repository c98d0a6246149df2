//! The fixed names: workloads, metrics, and the problem each workload runs.
//!
//! `BENCHMARK.json` repeats the workload and metric names; a test below
//! keeps the two in step. Later PRs are judged with these names, so
//! adding one is its own change and renaming one is not done.

use hacc::core::{SimConfig, SolverKind};
use hacc::pm::PmLevelConfig;

/// Box side, Mpc/h, of every workload.
pub const BOX_LEN: f64 = 128.0;
/// Starting scale factor of every workload.
pub const A_INIT: f64 = 0.25;
/// Each long-range step multiplies the scale factor by this, so
/// clustering, and with it the interaction count, grows step by step.
pub const A_GROWTH: f64 = 1.02;
/// Steps run before timing starts: caches fill and lazy set-up ends.
pub const WARMUP_STEPS: usize = 2;
/// Timed steps per world. Every world replays the same trajectory from
/// the same initial conditions, so however many worlds fit in the time
/// given, the timed steps are always these same ones.
pub const TIMED_STEPS: usize = 4;
/// Worlds per untraced run, at least: `setup_s` is a median over worlds.
pub const MIN_WORLDS: usize = 3;
/// Timed steps of the memory world, which only has to reach the peak.
pub const MEMORY_WORLD_STEPS: usize = 1;
/// A probe replay follows every this-many-th timed step of a traced world.
pub const REPLAY_EVERY: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The serial `Simulation`, one thread.
    Serial,
    /// `DistSimulation` on rank threads of one process (`Machine`).
    InProc,
    /// `DistSimulation` on rank processes over loopback TCP.
    Socket,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    pub backend: Backend,
    pub ranks: usize,
    pub solver: SolverKind,
    /// PM grid side, full size and `--smoke` size.
    pub ng: [usize; 2],
    /// Particles per side, full size and `--smoke` size.
    pub np: [usize; 2],
    pub subcycles: usize,
    pub two_level: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "treepm.inproc2",
        why: "The paper's BG/Q configuration on 2 in-process ranks: the short-range kernel does ~85% of the work, so kernel, walk, tree-build and per-sub-cycle allocation changes show here.",
        backend: Backend::InProc,
        ranks: 2,
        solver: SolverKind::TreePm,
        ng: [48, 16],
        np: [48, 16],
        subcycles: 4,
        two_level: false,
    },
    Workload {
        name: "treepm.serial",
        why: "Same problem through the serial Simulation, the plain 1-thread baseline: it uses the same layers differently (skin reuse, r2c solver), so a gain for one engine that costs the other shows.",
        backend: Backend::Serial,
        ranks: 1,
        solver: SolverKind::TreePm,
        ng: [48, 16],
        np: [48, 16],
        subcycles: 4,
        two_level: false,
    },
    Workload {
        name: "pm.inproc2",
        why: "PM-only on 2 in-process ranks: the short-range layer does nothing and the slab FFT plus Poisson solve dominate, so FFT, CIC and decomposition changes show and kernel changes must not.",
        backend: Backend::InProc,
        ranks: 2,
        solver: SolverKind::PmOnly,
        ng: [96, 32],
        np: [48, 16],
        subcycles: 1,
        two_level: false,
    },
    Workload {
        name: "pm.socket2",
        why: "pm.inproc2's exact problem on 2 OS processes over the CRC-framed loopback-TCP transport: the step-time difference to pm.inproc2 is the transport cost.",
        backend: Backend::Socket,
        ranks: 2,
        solver: SolverKind::PmOnly,
        ng: [96, 32],
        np: [48, 16],
        subcycles: 1,
        two_level: false,
    },
    Workload {
        name: "pm2l.socket2",
        why: "pm.socket2 with the two-level mesh: alltoallv bytes fall and halo bytes rise, which separates fewer transpose bytes from more halo traffic; the only workload on hacc-pm::twolevel.",
        backend: Backend::Socket,
        ranks: 2,
        solver: SolverKind::PmOnly,
        // Smoke: the two-level ghost planes need a 20-plane slab.
        ng: [96, 48],
        np: [48, 16],
        subcycles: 1,
        two_level: true,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn ng(&self, smoke: bool) -> usize {
        self.ng[usize::from(smoke)]
    }

    pub fn np(&self, smoke: bool) -> usize {
        self.np[usize::from(smoke)]
    }

    pub fn particles(&self, smoke: bool) -> usize {
        self.np(smoke).pow(3)
    }

    /// The driver configuration. Built on `small_lcdm()` so a new config
    /// field does not break the harness. The step schedule fields are
    /// not used: the harness calls `step(a * A_GROWTH)` itself.
    pub fn config(&self, smoke: bool) -> SimConfig {
        SimConfig {
            box_len: BOX_LEN,
            ng: self.ng(smoke),
            a_init: A_INIT,
            subcycles: self.subcycles,
            solver: self.solver,
            two_level: self.two_level.then(|| PmLevelConfig {
                coarsening: 2,
                ..PmLevelConfig::default()
            }),
            ..SimConfig::small_lcdm()
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`. `BENCHMARK.json` carries it for the
    /// driver and `--compare`; the tests keep the two in step.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the code sees. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 4] = [
    m("step_s", "s", "lower"),
    m("particle_substeps_per_s", "1/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Counts read from the program's public counters in the untraced pass.
/// They repeat exactly for a fixed seed.
pub const COUNTS: [Metric; 9] = [
    m("short.interactions", "count", "lower"),
    m("short.pair_evals", "count", "lower"),
    m("comm.a2a_bytes", "B", "lower"),
    m("comm.p2p_bytes", "B", "lower"),
    m("comm.control_bytes", "B", "lower"),
    m("comm.msgs", "count", "lower"),
    m("comm.wire_bytes", "B", "lower"),
    m("comm.frames_retried", "count", "lower"),
    m("comm.crc_rejects", "count", "lower"),
];

/// Times and rates from the traced pass, one or more per layer.
pub const LAYER_TIMES: [Metric; 35] = [
    m("short.kernel_s", "s", "lower"),
    m("short.walk_s", "s", "lower"),
    m("short.build_s", "s", "lower"),
    m("short.interactions_per_s", "1/s", "higher"),
    m("short.kernel_frac_of_peak", "ratio", "higher"),
    m("fft.slab_plan_s", "s", "lower"),
    m("fft.slab_c2c_s", "s", "lower"),
    m("fft.pencil_r2c_s", "s", "lower"),
    m("fft.serial_r2c_s", "s", "lower"),
    m("pm.poisson_dist_s", "s", "lower"),
    m("pm.solve_serial_s", "s", "lower"),
    m("pm.deposit_cic_ns", "ns", "lower"),
    m("pm.interpolate_cic_ns", "ns", "lower"),
    m("comm.alltoallv_gbs", "GB/s", "higher"),
    m("comm.ring_exchange_s", "s", "lower"),
    m("comm.allreduce_us", "us", "lower"),
    m("comm.step_skew_s", "s", "lower"),
    m("domain.imbalance", "ratio", "lower"),
    m("domain.refresh_s", "s", "lower"),
    m("domain.overload_fraction", "ratio", "lower"),
    m("reported.kernel_s", "s", "lower"),
    m("reported.walk_s", "s", "lower"),
    m("reported.build_s", "s", "lower"),
    m("reported.fft_s", "s", "lower"),
    m("reported.coarse_fft_s", "s", "lower"),
    m("reported.cic_s", "s", "lower"),
    m("reported.other_s", "s", "lower"),
    m("core.unaccounted_s", "s", "lower"),
    m("setup.bringup_s", "s", "lower"),
    m("setup.construct_s", "s", "lower"),
    m("ics.zeldovich_s", "s", "lower"),
    m("machine.peak_flops_1t", "flop/s", "higher"),
    m("machine.stream_triad_gbs", "GB/s", "higher"),
    m("replay_coverage", "ratio", "higher"),
    m("trace_overhead", "ratio", "lower"),
];

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    COUNTS.iter().chain(LAYER_TIMES.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().chain(per_layer()).map(|m| m.name));
        for n in &all {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why",
                w.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let b = benchmark_json();
        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(b.get("workloads").unwrap()), want);
        for (entry, w) in b.get("workloads").unwrap().as_arr().iter().zip(&WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
        }
        for (key, defs) in [
            ("end_to_end", END_TO_END.iter().collect::<Vec<_>>()),
            ("per_layer", per_layer().collect()),
        ] {
            let listed = b.get(key).unwrap();
            let want: Vec<&str> = defs.iter().map(|m| m.name).collect();
            assert_eq!(names(listed), want, "{key}");
            for (entry, def) in listed.as_arr().iter().zip(defs) {
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(def.better));
            }
        }
    }

    #[test]
    fn bounds_are_present_and_setup_has_the_largest() {
        let b = benchmark_json();
        let bound = |e: &Json| e.get("bound").and_then(Json::as_f64).expect("bound");
        let e2e = b.get("end_to_end").unwrap().as_arr();
        let setup = e2e
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"))
            .expect("setup_s");
        for e in e2e {
            assert!(bound(e) > 0.0 && bound(e) <= 0.25);
            assert!(bound(e) <= bound(setup));
        }
    }

    #[test]
    fn every_workload_fits_its_slab_geometry() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let cfg = w.config(smoke);
                assert_eq!(cfg.ng % w.ranks, 0, "{}", w.name);
                if w.backend != Backend::Serial {
                    // DistSimulation::new's own requirement.
                    let w_cells = cfg.rcut_cells + 1.5;
                    assert!((cfg.ng / w.ranks) as f64 > w_cells + 1.0, "{}", w.name);
                    if let Some(lv) = cfg.two_level {
                        let split =
                            hacc::pm::ForceSplit::new(cfg.ng, cfg.box_len, cfg.spectral, lv);
                        let ghosts = split.ghost_width() + w_cells.ceil() as usize + 1;
                        assert!(ghosts <= cfg.ng / w.ranks, "{} two-level ghosts", w.name);
                    }
                }
            }
        }
    }
}
