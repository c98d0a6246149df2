//! Shared plumbing for the paper-reproduction harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index). This library holds the pieces
//! they share: reference simulation setup, table formatting, and the
//! measured-vs-modeled row printer.

use hacc_core::{SimConfig, Simulation, SolverKind};
use hacc_cosmo::{Cosmology, LinearPower, Transfer};

/// Default snapshot redshifts of the Fig. 9/10 science run.
pub const FIG10_REDSHIFTS: [f64; 6] = [5.5, 3.0, 1.9, 0.9, 0.4, 0.0];

/// Build the σ8-normalized ΛCDM linear power spectrum used everywhere.
#[must_use]
pub fn reference_power() -> LinearPower {
    LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle)
}

/// Configuration of the laptop-scale "science run" behind Figs. 2/9/10/11:
/// `np³` particles in a `box_len` Mpc/h box with a `2·np` PM grid.
#[must_use]
pub fn science_config(np: usize, box_len: f64, steps: usize, solver: SolverKind) -> SimConfig {
    SimConfig {
        cosmology: Cosmology::lcdm(),
        box_len,
        ng: 2 * np,
        a_init: 0.1,
        a_final: 1.0,
        steps,
        subcycles: 3,
        solver,
        spectral: hacc_pm::SpectralParams::default(),
        two_level: None,
        tree: hacc_short::TreeParams::default(),
        rcut_cells: 3.0,
        skin_cells: 0.25,
    }
}

/// Run the science configuration, invoking `snap` at (roughly) the
/// requested redshifts with the current state.
pub fn run_science_sim<F: FnMut(f64, &Simulation)>(
    np: usize,
    box_len: f64,
    steps: usize,
    solver: SolverKind,
    redshifts: &[f64],
    mut snap: F,
) -> Simulation {
    let cfg = science_config(np, box_len, steps, solver);
    let power = reference_power();
    let ics = hacc_ics::zeldovich(np, box_len, &power, cfg.a_init, 20120931);
    let mut sim = Simulation::from_ics(cfg, &ics);
    let mut pending: Vec<f64> = redshifts.iter().map(|&z| 1.0 / (1.0 + z)).collect();
    pending.sort_by(|a, b| a.total_cmp(b));
    sim.run(|a, s| {
        while let Some(&a_snap) = pending.first() {
            if a + 1e-9 >= a_snap {
                snap(1.0 / a - 1.0, s);
                pending.remove(0);
            } else {
                break;
            }
        }
    });
    sim
}

/// The process grids the distributed-FFT experiments compare on `ranks`
/// ranks: the slab-shaped `p × 1` (one column transpose) and
/// `dims_create`'s `p1 × p2` pencil grid, once when they coincide.
#[must_use]
pub fn fft_grids(ranks: usize) -> Vec<[usize; 2]> {
    let d = hacc_comm::dims_create(ranks, 2);
    let mut grids = vec![[ranks, 1]];
    if d != [ranks, 1] {
        grids.push([d[0], d[1]]);
    }
    grids
}

/// Time `reps` calls of `f` on this rank after one untimed warm call
/// (pools and message envelopes filled), each call starting at a barrier.
pub fn warm_reps(comm: &hacc_comm::Comm, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            comm.barrier();
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// The wall-clock of a distributed section from every rank's
/// [`warm_reps`]: the best repetition, each repetition counted at its
/// slowest rank.
#[must_use]
pub fn best_of_slowest(per_rank: &[Vec<f64>]) -> f64 {
    let reps = per_rank.first().map_or(0, Vec::len);
    (0..reps)
        .map(|i| per_rank.iter().map(|t| t[i]).fold(0.0, f64::max))
        .fold(f64::INFINITY, f64::min)
}

/// Flop rate of real-to-complex transforms of `n³` points taking `secs`
/// each, by the conventional count `2.5·N·log2 N` per r2c transform.
#[must_use]
pub fn r2c_flops(n: usize, secs: f64) -> f64 {
    let pts = (n * n * n) as f64;
    2.5 * pts * pts.log2() / secs
}

/// Print a formatted table: header row then aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format seconds adaptively (s / ms / µs / ns).
#[must_use]
pub fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.3} ns", secs * 1e9)
    }
}

/// Format a flop rate adaptively.
#[must_use]
pub fn fmt_flops(rate: f64) -> String {
    if rate >= 1e15 {
        format!("{:.2} PF/s", rate / 1e15)
    } else if rate >= 1e12 {
        format!("{:.2} TF/s", rate / 1e12)
    } else if rate >= 1e9 {
        format!("{:.2} GF/s", rate / 1e9)
    } else {
        format!("{:.2} MF/s", rate / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn science_config_consistent() {
        let cfg = science_config(16, 64.0, 10, SolverKind::TreePm);
        assert_eq!(cfg.ng, 32);
        assert_eq!(cfg.step_edges().len(), 11);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(2e-3), "2.000 ms");
        assert_eq!(fmt_time(2e-9), "2.000 ns");
        assert!(fmt_flops(3e15).contains("PF"));
        assert!(fmt_flops(3e10).contains("GF"));
    }
}
