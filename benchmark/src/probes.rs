//! Per-layer probes and machine roofs.
//!
//! A replay calls each layer's public entry point once, from outside,
//! at the workload's sizes, on a copy of the rank's live particles. It
//! times what the step spends in that layer without touching the
//! program; the share of a step the probes cannot account for is
//! reported as `replay_coverage`.

use std::hint::black_box;

use hacc::comm::Comm;
use hacc::core::{SimConfig, SolverKind};
use hacc::domain::{gridhalo, refresh, Decomposition, Particles};
use hacc::fft::{Complex64, DistFft3, DistRealFft3, RealFft3, RealPencilFft, SlabFft};
use hacc::pm::{deposit_cic, interpolate_cic, DistPoisson, PmSolver};
use hacc::short::{ForceKernel, RcbTree, TreeScratch};

use crate::spec::BOX_LEN;
use crate::trace::{Clock, Tracer};
use crate::world::Report;

/// Tags for the probes' own ring traffic: point-to-point class, and
/// clear of the pairs `DistSimulation` uses (101..222).
const TAGS_PROBE_HALO: (u64, u64) = (9001, 9002);
const TAGS_PROBE_FOLD: (u64, u64) = (9003, 9004);

/// A rank's particle coordinates in box units: the active prefix, then
/// whatever the engine keeps beside it (overload replicas; nothing for
/// the serial engine).
pub struct Coords<'a> {
    pub x: &'a [f32],
    pub y: &'a [f32],
    pub z: &'a [f32],
    pub n_active: usize,
}

pub struct Replay<'a> {
    pub comm: Option<&'a Comm>,
    pub cfg: &'a SimConfig,
    pub kernel: &'a ForceKernel,
    pub clock: Clock,
    /// Parent span and step index for the probe spans.
    pub parent: u64,
    pub step: i64,
}

impl Replay<'_> {
    /// Time `f` as a child span of this replay; returns its result and
    /// its wall time in seconds.
    fn timed<T>(&self, tr: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = self.clock.now_ns();
        let out = f();
        let t1 = self.clock.now_ns();
        tr.record(name, self.parent, self.step, t0, t1, &[]);
        (out, (t1 - t0) as f64 / 1e9)
    }

    /// Run every probe; metrics go to `rep`, spans to `tr`. `parts` is
    /// the distributed engine's particle store, for the refresh probe.
    /// Collective: every rank calls it at the same point.
    pub fn run(&self, c: &Coords, parts: Option<&Particles>, tr: &mut Tracer, rep: &mut Report) {
        let ng = self.cfg.ng;
        let to_grid = (ng as f64 / BOX_LEN) as f32;
        let scaled = |v: &[f32]| -> Vec<f32> { v.iter().map(|&p| p * to_grid).collect() };
        let (gx, gy, gz) = (scaled(c.x), scaled(c.y), scaled(c.z));
        // Seconds of one step these probes account for.
        let mut covered = 0.0;

        if self.cfg.solver == SolverKind::TreePm {
            covered += self.short(&gx, &gy, &gz, parts.is_none(), tr, rep);
        }
        covered += self.mesh(&gx, &gy, &gz, c.n_active, tr, rep);
        if let (Some(comm), Some(parts)) = (self.comm, parts) {
            covered += self.distributed(comm, parts, tr, rep);
        }
        rep.metric("replay.covered_s", covered);
    }

    /// Tree build, walk and kernel on everything the rank holds, which
    /// is what the engine's short-range solve works on. The per-call
    /// times are scaled to a step: one build and one force pass per
    /// sub-cycle (the serial engine's skin reuse skips some builds; the
    /// probe shows what a build costs when it happens).
    fn short(
        &self,
        gx: &[f32],
        gy: &[f32],
        gz: &[f32],
        add_ghosts: bool,
        tr: &mut Tracer,
        rep: &mut Report,
    ) -> f64 {
        let ghosts;
        let (gx, gy, gz) = if add_ghosts {
            // The serial engine pads the periodic box with ghost images
            // itself (private code); the probe does the same outside.
            ghosts = with_ghosts(gx, gy, gz, self.cfg.ng as f32, self.cfg.rcut_cells as f32);
            (&ghosts[0][..], &ghosts[1][..], &ghosts[2][..])
        } else {
            (gx, gy, gz)
        };
        let mass = vec![1.0f32; gx.len()];
        let (tree, build_s) = self.timed(tr, "short.build", || {
            RcbTree::build(gx, gy, gz, &mass, self.cfg.tree)
        });
        let mut scratch = TreeScratch::default();
        let mut forces = [Vec::new(), Vec::new(), Vec::new()];
        let t0 = self.clock.now_ns();
        let pass = tree.forces_symmetric_into(self.kernel, 0.0, &mut scratch, &mut forces);
        let t1 = self.clock.now_ns();
        black_box(&forces);
        let (walk_s, kernel_s) = (pass.walk.as_secs_f64(), pass.kernel.as_secs_f64());
        tr.record(
            "short.forces",
            self.parent,
            self.step,
            t0,
            t1,
            &[
                ("walk_s", walk_s),
                ("kernel_s", kernel_s),
                ("directed", pass.directed as f64),
                ("particles", gx.len() as f64),
            ],
        );
        let per_step = self.cfg.subcycles as f64;
        rep.metric("short.build_s", build_s * per_step);
        rep.metric("short.walk_s", walk_s * per_step);
        rep.metric("short.kernel_s", kernel_s * per_step);
        rep.metric("short.interactions_per_s", pass.directed as f64 / kernel_s);
        (build_s + walk_s + kernel_s) * per_step
    }

    /// The rank-local mesh work: CIC deposit and interpolation per
    /// particle, the serial r2c transform and the serial Poisson solve.
    fn mesh(
        &self,
        gx: &[f32],
        gy: &[f32],
        gz: &[f32],
        n_active: usize,
        tr: &mut Tracer,
        rep: &mut Report,
    ) -> f64 {
        let ng = self.cfg.ng;
        let n3 = ng * ng * ng;
        let (ax, ay, az) = (&gx[..n_active], &gy[..n_active], &gz[..n_active]);
        let mut grid = vec![0.0f64; n3];
        let ((), deposit_s) = self.timed(tr, "pm.deposit_cic", || {
            deposit_cic(&mut grid, ng, ax, ay, az, 1.0);
        });
        let (vals, interp_s) = self.timed(tr, "pm.interpolate_cic", || {
            interpolate_cic(&grid, ng, ax, ay, az)
        });
        black_box(vals);
        rep.metric("pm.deposit_cic_ns", deposit_s * 1e9 / n_active as f64);
        rep.metric("pm.interpolate_cic_ns", interp_s * 1e9 / n_active as f64);

        // Density contrast of the rank's own particles as the source.
        let mean = n_active as f64 / n3 as f64;
        for v in &mut grid {
            *v = *v / mean - 1.0;
        }
        let rfft = RealFft3::new_cubic(ng);
        let mut spec = vec![Complex64::ZERO; rfft.spectrum_len()];
        let mut back = vec![0.0f64; n3];
        let ((), r2c_s) = self.timed(tr, "fft.serial_r2c", || {
            rfft.forward(&grid, &mut spec);
            rfft.backward(&mut spec, &mut back);
        });
        black_box(&back);
        rep.metric("fft.serial_r2c_s", r2c_s);

        let solver = PmSolver::new(ng, BOX_LEN, self.cfg.spectral);
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        // First call sizes the solver's workspace; time the second.
        solver.solve_forces_into(&grid, &mut out);
        let ((), solve_s) = self.timed(tr, "pm.solve_serial", || {
            solver.solve_forces_into(&grid, &mut out);
        });
        black_box(&out);
        rep.metric("pm.solve_serial_s", solve_s);

        if self.comm.is_some() {
            // Two long-range evaluations a step, three force components.
            2.0 * (deposit_s + 3.0 * interp_s)
        } else {
            // The serial engine keeps the end-of-step evaluation for the
            // next step's first half kick: one evaluation a step.
            deposit_s + 3.0 * interp_s + solve_s
        }
    }

    /// Everything that needs the workload's communicator.
    fn distributed(
        &self,
        comm: &Comm,
        parts: &Particles,
        tr: &mut Tracer,
        rep: &mut Report,
    ) -> f64 {
        let ng = self.cfg.ng;
        let p = comm.size();
        let lx = ng / p;
        let plane = ng * ng;

        // Mirrors `DistSimulation::new`: slabs along x, overload shell
        // of `rcut_cells + 1.5` cells.
        let w_cells = self.cfg.rcut_cells + 1.5;
        let decomp = Decomposition::new([p, 1, 1], BOX_LEN, w_cells * BOX_LEN / ng as f64);
        let mut copy = parts.clone();
        let ((), refresh_s) =
            self.timed(tr, "domain.refresh", || refresh(comm, &decomp, &mut copy));
        black_box(&copy);
        rep.metric("domain.refresh_s", refresh_s);

        let (slab, plan_s) = self.timed(tr, "fft.slab_plan", || SlabFft::new(comm, ng));
        rep.metric("fft.slab_plan_s", plan_s);
        let wave = |i: usize| (i as f64 * 0.618_033_988_749_895).sin();
        let local_len = slab.real_layout().len();
        let field: Vec<Complex64> = (0..local_len)
            .map(|i| Complex64::new(wave(i), 0.0))
            .collect();
        let (round, c2c_s) = self.timed(tr, "fft.slab_c2c", || slab.backward(slab.forward(field)));
        black_box(round);
        rep.metric("fft.slab_c2c_s", c2c_s);

        let pencil = RealPencilFft::new(comm, ng);
        let real: Vec<f64> = (0..pencil.real_layout().len()).map(wave).collect();
        let (round, r2c_s) = self.timed(tr, "fft.pencil_r2c", || {
            pencil.backward(pencil.forward(real))
        });
        black_box(round);
        rep.metric("fft.pencil_r2c_s", r2c_s);

        let source: Vec<f64> = (0..local_len).map(wave).collect();
        let poisson = DistPoisson::new(&slab, BOX_LEN, self.cfg.spectral);
        let (forces, poisson_s) =
            self.timed(tr, "pm.poisson_dist", || poisson.solve_forces(&source));
        rep.metric("pm.poisson_dist_s", poisson_s);

        // One long-range evaluation's ring traffic: the deposit fold
        // (two spill planes) and a force halo per component.
        let h = (w_cells.ceil() as usize) + 1;
        let ext = vec![1.0f64; (lx + 4) * plane];
        let ((), ring_s) = self.timed(tr, "comm.ring_exchange", || {
            black_box(gridhalo::fold_spill(comm, &ext, plane, 2, TAGS_PROBE_FOLD));
            for f in &forces {
                black_box(gridhalo::exchange_planes(
                    comm,
                    f,
                    plane,
                    h,
                    TAGS_PROBE_HALO,
                ));
            }
        });
        rep.metric("comm.ring_exchange_s", ring_s);

        // The slab transpose's exchange: an (ng/p)² × ng complex block
        // to every rank.
        let block = lx * lx * ng;
        let sends: Vec<Vec<Complex64>> = vec![vec![Complex64::new(1.0, -1.0); block]; p];
        let (got, a2a_s) = self.timed(tr, "comm.alltoallv", || comm.alltoallv(sends));
        black_box(got);
        let off_rank_bytes = (p * (p - 1) * block * std::mem::size_of::<Complex64>()) as f64;
        rep.metric("comm.alltoallv_gbs", off_rank_bytes / a2a_s / 1e9);

        const REDUCES: usize = 16;
        let (sum, reduce_s) = self.timed(tr, "comm.allreduce", || {
            (0..REDUCES)
                .map(|i| comm.allreduce_sum(i as f64))
                .sum::<f64>()
        });
        black_box(sum);
        rep.metric("comm.allreduce_us", reduce_s * 1e6 / REDUCES as f64);

        let solve = if self.cfg.two_level.is_some() {
            // The two-level engine never runs the single-level solve.
            0.0
        } else {
            2.0 * poisson_s
        };
        refresh_s + 2.0 * ring_s + solve
    }
}

/// Pad a periodic `[0, side)³` particle set with the images that lie
/// within `pad` of a face, so a non-periodic tree finds every partner.
fn with_ghosts(x: &[f32], y: &[f32], z: &[f32], side: f32, pad: f32) -> [Vec<f32>; 3] {
    let mut out = [x.to_vec(), y.to_vec(), z.to_vec()];
    let inside = |v: f32| v >= -pad && v < side + pad;
    for i in 0..x.len() {
        for shift in 1..27 {
            let s = [shift % 3, shift / 3 % 3, shift / 9].map(|d| [0.0, side, -side][d]);
            let q = [x[i] + s[0], y[i] + s[1], z[i] + s[2]];
            if q.iter().all(|&v| inside(v)) {
                for (col, v) in out.iter_mut().zip(q) {
                    col.push(v);
                }
            }
        }
    }
    out
}

/// Machine roofs: the denominators for kernel and FFT rates.
pub struct Roofs {
    pub peak_flops_1t: f64,
    pub triad_gbs: f64,
    pub triad_threads: usize,
    pub llc_bytes: usize,
    pub array_bytes: usize,
    /// The arrays are smaller than four times the last-level cache, so
    /// the cache helped and the figure is not a memory roof.
    pub cache_assisted: bool,
}

/// Largest cache of cpu0, from sysfs; 0 when it cannot be read.
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                b'G' => (&text[..text.len() - 1], 1 << 30),
                _ => (text, 1),
            };
            Some(digits.parse::<usize>().ok()? * scale)
        })
        .max()
        .unwrap_or(0)
}

fn mem_available_bytes() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<usize>().ok()? << 10)
}

/// Measure both roofs. `smoke` shrinks the work to a fraction of a
/// second and labels the bandwidth figure accordingly.
pub fn measure_roofs(smoke: bool) -> Roofs {
    let peak_flops_1t = hacc::machine::calibrate_peak_flops(1, if smoke { 30 } else { 200 });

    let llc = llc_bytes();
    let want = if smoke {
        8 << 20
    } else {
        (4 * llc).max(64 << 20)
    };
    // Three arrays, and never more than three eighths of free memory.
    let cap = mem_available_bytes().map_or(want, |avail| avail / 8);
    let array_bytes = want.min(cap);
    let n = array_bytes / 8;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let chunk = n.div_ceil(threads);
    let mut best = f64::INFINITY;
    // First pass touches every page of `a`; keep the best of the rest.
    for pass in 0..4 {
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        let dt = t0.elapsed().as_secs_f64();
        black_box(&a);
        if pass > 0 {
            best = best.min(dt);
        }
    }
    Roofs {
        peak_flops_1t,
        // Computed bytes: two arrays read, one written.
        triad_gbs: 3.0 * array_bytes as f64 / best / 1e9,
        triad_threads: threads,
        llc_bytes: llc,
        array_bytes,
        cache_assisted: array_bytes < 4 * llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghosts_cover_faces_edges_and_corners() {
        // One particle in a corner has 7 images within the pad, one on a
        // face has 1, one in the middle none.
        let x = [0.5, 0.5, 5.0];
        let y = [0.5, 5.0, 5.0];
        let z = [0.5, 5.0, 5.0];
        let g = with_ghosts(&x, &y, &z, 10.0, 1.0);
        assert_eq!(g[0].len(), 3 + 7 + 1);
        assert!(g
            .iter()
            .all(|c| c.iter().all(|&v| (-1.0..11.0).contains(&v))));
        assert!(g[0][3..]
            .iter()
            .zip(&g[1][3..])
            .zip(&g[2][3..])
            .any(|((&a, &b), &c)| { (a, b, c) == (10.5, 10.5, 10.5) }));
    }
}
