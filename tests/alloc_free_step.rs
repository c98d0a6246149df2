//! Proof that a steady-state `Simulation::step` (the one-rank engine's,
//! which sends no message) performs zero heap allocations: every buffer
//! a timestep needs — the deposit and force grids the slab CIC kernels
//! fill and gather in place, FFT line scratch and half-spectrum
//! workspaces, per-particle force arrays — is sized during warm-up and
//! reused thereafter.
//!
//! This lives in its own integration-test binary because it installs a
//! process-wide `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator and counts allocation events — and the
/// largest single request — while armed. Deallocations are free to
/// happen (dropping a warm-up buffer is not a steady-state cost);
/// `alloc`/`alloc_zeroed`/`realloc` are what we gate.
struct CountingAlloc;

// Armed and counted per thread: libtest's own threads allocate whenever
// they like, and a process-global counter would charge that to whichever
// test is armed. The vendored rayon is serial, so a step runs entirely
// on the thread that armed. Const-initialised `Cell`s of `Copy` types
// have no lazy init and no destructor, so touching them inside the
// allocator never allocates or recurses.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_if_armed(bytes: usize) {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        LARGEST.with(|c| c.set(c.get().max(bytes)));
    }
}

/// Zero this thread's counters and start counting.
fn arm() {
    ALLOCS.with(|c| c.set(0));
    LARGEST.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
}

/// The largest single allocation (bytes) since [`arm`].
fn largest() -> usize {
    LARGEST.with(Cell::get)
}

/// Stop counting; returns the allocations made since [`arm`].
fn disarm() -> u64 {
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

// SAFETY: pure pass-through to `System`; the wrapper adds only
// thread-local counter updates, never changes layouts or pointers, so the GlobalAlloc
// contract is exactly the system allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed(layout.size());
        // SAFETY: caller upholds `layout` validity (delegated contract).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_armed(layout.size());
        // SAFETY: caller upholds `layout` validity (delegated contract).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` come from our own `alloc`,
        // which is `System`'s (delegated contract).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`
        // (delegated contract).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Warm a simulation with the given solver, then assert two further
/// steps allocate nothing. `warm` extra steps run after the (counted)
/// cold step, so capacity-sizing growth is never charged to steady state.
fn assert_steady_state_alloc_free(solver: &str, warm: usize) {
    use hacc::core::{SimConfig, Simulation, SolverKind};
    use hacc::cosmo::{Cosmology, LinearPower, Transfer};

    let (solver, two_level) = match solver {
        "pm" => (SolverKind::PmOnly, None),
        "pm2" => (SolverKind::PmOnly, Some(hacc::pm::PmLevelConfig::default())),
        "p3m" => (SolverKind::P3m, None),
        "treepm" => (SolverKind::TreePm, None),
        other => panic!("unknown solver {other}"),
    };
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let a0 = 0.2;
    let ics = hacc::ics::zeldovich(16, 64.0, &power, a0, 11);
    let cfg = SimConfig {
        ng: 16,
        box_len: 64.0,
        a_init: a0,
        steps: 8,
        subcycles: 2,
        solver,
        two_level,
        ..SimConfig::small_lcdm()
    };
    let mut sim = Simulation::from_ics(cfg, &ics);

    // Recording a step pushes one `StepBreakdown`; give the stats vector
    // room up front so bookkeeping is not charged to the solvers.
    sim.stats.steps.reserve(16);

    // Warm-up: the first steps size every scratch buffer and fill the
    // FFT buffer pools. Count these too — a cold step MUST allocate, which
    // proves the counter is actually wired up.
    arm();
    let mut a = 0.21;
    sim.step(a);
    assert!(
        disarm() > 0,
        "warm-up step should allocate; the counter appears dead"
    );
    for _ in 0..warm {
        a += 0.01;
        sim.step(a);
    }

    arm();
    sim.step(a + 0.01);
    sim.step(a + 0.02);
    let n = disarm();
    assert_eq!(
        n, 0,
        "steady-state Simulation::step made {n} heap allocations"
    );
}

#[test]
fn steady_state_step_allocates_nothing() {
    assert_steady_state_alloc_free("pm", 1);
}

/// The serial FFT stack underneath the PM solve — split-radix twiddle
/// tables, batch-major tile panels and batched line scratch — must also
/// be alloc-free once warm: tables are built by `Fft1d::new` at plan
/// time and every pass buffer comes from the plan's `BufPool`. Checked
/// at a power-of-two and a mixed-radix (2·3·5) grid so the radix-4,
/// radix-2, radix-3 and radix-5 stage paths all run. A warm
/// `PmSolver::solve_forces_into` (the half-spectrum solve on the
/// one-rank world) rides along: its spectra and output grids are sized
/// by the first call.
#[test]
fn steady_state_serial_fft_allocates_nothing() {
    use hacc::fft::{Complex64, Fft3, RealFft3};
    use hacc::pm::{PmSolver, SpectralParams};

    for n in [16usize, 30] {
        let c2c = Fft3::new_cubic(n);
        let r2c = RealFft3::new_cubic(n);
        let pm = PmSolver::new(n, 64.0, SpectralParams::default());
        let nzh = n / 2 + 1;
        let mut grid: Vec<Complex64> = (0..n * n * n)
            .map(|i| Complex64::new(i as f64, (i % 7) as f64))
            .collect();
        let real: Vec<f64> = (0..n * n * n).map(|i| (i % 13) as f64).collect();
        let mut spec = vec![Complex64::ZERO; n * n * nzh];
        let mut back = vec![0.0f64; n * n * n];
        let mut forces: [Vec<f64>; 3] = Default::default();

        // Warm-up fills the buffer pools and sizes the solver's spectra.
        c2c.forward(&mut grid);
        c2c.backward(&mut grid);
        r2c.forward(&real, &mut spec);
        r2c.backward(&mut spec, &mut back);
        pm.solve_forces_into(&real, &mut forces);

        arm();
        c2c.forward(&mut grid);
        c2c.backward(&mut grid);
        r2c.forward(&real, &mut spec);
        r2c.backward(&mut spec, &mut back);
        pm.solve_forces_into(&real, &mut forces);
        let made = disarm();
        assert_eq!(made, 0, "warm n={n} serial FFTs and PM solve made {made} allocations");
    }
}

/// The chaining-mesh (P³M) short-range path: the tree cut at mesh
/// planes runs through the same persistent tree, `TreeScratch` and
/// fixed-point accumulator as TreePM, whose run block is sized from the
/// largest leaf at pass start — mesh leaves have no size bound. Extra
/// warm steps let the leaf-pair list reach its high-water size before
/// the counter arms.
#[test]
fn steady_state_p3m_step_allocates_nothing() {
    assert_steady_state_alloc_free("p3m", 3);
}

/// The RCB-tree (TreePM) short-range path: the persistent tree, its
/// chunk boxes and in-leaf ordering scratch, the tree coordinates with
/// their build-time copy, the shifted leaf-pair list and the
/// fixed-point force accumulator all live in the shared short-range
/// state / `TreeScratch`. Extra warm steps let the leaf-pair list reach
/// its high-water size before the counter arms.
#[test]
fn steady_state_treepm_step_allocates_nothing() {
    assert_steady_state_alloc_free("treepm", 3);
}

/// The distributed sub-cycle loop (drift → short-range force → kick)
/// allocates nothing. Everything a distributed step communicates —
/// refresh, deposit folds, transposes, force halos — happens once per
/// long-range step whatever the sub-cycle count, so a warm step's
/// allocation count is the same at 1 and at 4 sub-cycles exactly when
/// the three extra trips through the loop allocate nothing. The steps
/// are tiny so both runs see the same particles on the same ranks: the
/// per-step allocations (migration lists, message payloads) depend on
/// those counts, and a real trajectory would differ between the two.
/// TreePm and P³M on 2 ranks, and P³M on one rank — where a warm step
/// sends no message, so it allocates nothing at either count.
#[test]
fn distributed_subcycle_loop_allocates_nothing() {
    use hacc::comm::Machine;
    use hacc::core::{DistSimulation, SimConfig, SolverKind};
    use hacc::cosmo::{Cosmology, LinearPower, Transfer};

    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let a0 = 0.2;
    let ics = hacc::ics::zeldovich(16, 64.0, &power, a0, 11);
    let armed_step_allocs = |ranks: usize, solver: SolverKind, subcycles: usize| -> Vec<u64> {
        let cfg = SimConfig {
            ng: 32,
            box_len: 64.0,
            a_init: a0,
            subcycles,
            solver,
            ..SimConfig::small_lcdm()
        };
        let ics = ics.clone();
        let (counts, _) = Machine::new(ranks).run(move |comm| {
            let mut sim = DistSimulation::new(&comm, cfg, &ics);
            sim.stats.steps.reserve(8);
            // Warm-up sizes the tree, its scratch and the force buffers.
            sim.step(a0 + 1e-6);
            sim.step(a0 + 2e-6);
            arm();
            sim.step(a0 + 3e-6);
            disarm()
        });
        counts
    };
    for (ranks, solver) in [
        (2, SolverKind::TreePm),
        (2, SolverKind::P3m),
        (1, SolverKind::P3m),
    ] {
        let one = armed_step_allocs(ranks, solver, 1);
        let four = armed_step_allocs(ranks, solver, 4);
        if ranks == 1 {
            assert_eq!(
                (one, four),
                (vec![0], vec![0]),
                "{solver:?} on one rank: allocations of a warm step at 1 and 4 sub-cycles"
            );
            continue;
        }
        assert!(
            one.iter().all(|&n| n > 0),
            "{solver:?} on {ranks}: a step's communication allocates; the counter appears dead"
        );
        assert_eq!(
            one, four,
            "{solver:?} on {ranks}: per-rank allocations of a warm distributed step differ \
             between 1 and 4 sub-cycles"
        );
    }
}

/// After warm-up, a distributed PM-only step (ng 48 on 2 ranks) allocates
/// nothing as large as one rank's real slab (`lx·n²·8` B).
fn assert_distributed_pm_step_holds_its_grids(two_level: Option<hacc::pm::PmLevelConfig>) {
    use hacc::comm::Machine;
    use hacc::core::{DistSimulation, SimConfig, SolverKind};
    use hacc::cosmo::{Cosmology, LinearPower, Transfer};

    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    let a0 = 0.2;
    let ics = hacc::ics::zeldovich(16, 64.0, &power, a0, 11);
    let (ng, ranks) = (48usize, 2usize);
    let cfg = SimConfig {
        ng,
        box_len: 64.0,
        a_init: a0,
        subcycles: 1,
        solver: SolverKind::PmOnly,
        two_level,
        ..SimConfig::small_lcdm()
    };
    let (per_rank, _) = Machine::new(ranks).run(|comm| {
        let mut sim = DistSimulation::new(&comm, cfg, &ics);
        sim.stats.steps.reserve(8);
        sim.step(a0 + 1e-6);
        sim.step(a0 + 2e-6);
        arm();
        sim.step(a0 + 3e-6);
        let made = disarm();
        (made, largest())
    });
    let slab = (ng / ranks) * ng * ng * std::mem::size_of::<f64>();
    for (rank, &(made, big)) in per_rank.iter().enumerate() {
        assert!(
            made > 0,
            "a step's communication allocates; the counter appears dead"
        );
        assert!(
            big < slab,
            "rank {rank}: a warm PM step allocated {big} B at once, a real slab is {slab} B"
        );
    }
}

/// The distributed long-range pipeline holds its grids: after warm-up
/// a PM-only step allocates nothing as large as one rank's real slab —
/// the deposit slab, force grids, halo slabs, spectra and particle
/// accelerations are all held, and the elided z↔y transpose of the
/// `p × 1` pencil grid allocates no spectrum. What still allocates is
/// message traffic and the refresh lists: the transpose payloads (`1/p`
/// of a spectrum each) and message envelopes.
#[test]
fn distributed_pm_step_holds_its_grids() {
    assert_distributed_pm_step_holds_its_grids(None);
}

/// The two-level twin: the fine deposit and its ghost-padded lattice,
/// the coarse slabs and the local solver's workspaces are held too, so
/// a warm step's largest allocation is a message — the fine density
/// halo's `h_kernel + h_int` = 20 planes, under a slab's 24.
#[test]
fn distributed_two_level_step_holds_its_grids() {
    assert_distributed_pm_step_holds_its_grids(Some(hacc::pm::PmLevelConfig {
        coarsening: 2,
        ..hacc::pm::PmLevelConfig::default()
    }));
}

/// The two-level PM path at ng 16, a mesh too thin for the ghost-padded
/// complement across ranks: on one rank the fine complement solves on
/// the periodic `ng` lattice in the held deposit, both levels' grids
/// live in the engine's `PmState` and the solvers' spectra, and the
/// coarse gather adds straight onto the fine one in the acceleration
/// buffer, so a steady-state two-level step is as alloc-free as the
/// single-level one.
#[test]
fn steady_state_two_level_step_allocates_nothing() {
    assert_steady_state_alloc_free("pm2", 1);
}

/// The `TwoLevelPmSolver` itself, off the simulation loop: after one
/// warm solve both spectrum workspaces and every FFT pool buffer are
/// sized, and further solves must not touch the heap. Checked at a
/// power-of-two grid and at 30³ (odd 15³ coarse grid), so the
/// mixed-radix fine lines and the odd-Nyquist coarse path both run.
#[test]
fn steady_state_two_level_solver_allocates_nothing() {
    use hacc::pm::{PmLevelConfig, SpectralParams, TwoLevelPmSolver};

    for n in [16usize, 30] {
        let solver = TwoLevelPmSolver::new(n, 64.0, SpectralParams::default(), PmLevelConfig::default());
        let nc = n / 2;
        let fine: Vec<f64> = (0..n * n * n).map(|i| (i % 11) as f64 - 5.0).collect();
        let coarse: Vec<f64> = (0..nc * nc * nc).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut fine_out: [Vec<f64>; 3] = Default::default();
        let mut coarse_out: [Vec<f64>; 3] = Default::default();

        // Warm-up sizes the workspaces and fills the FFT pools.
        solver.solve_forces_into(&fine, &coarse, &mut fine_out, &mut coarse_out);

        arm();
        solver.solve_forces_into(&fine, &coarse, &mut fine_out, &mut coarse_out);
        let made = disarm();
        assert_eq!(made, 0, "warm n={n} two-level solve made {made} allocations");
    }
}
