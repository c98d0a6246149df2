//! Distributed spectral Poisson solvers.
//!
//! [`DistPoisson`] works over any complex [`DistFft3`] (slab or pencil):
//! the k-space kernel multiplication uses the transform's own k-layout
//! descriptor, so the same code runs on both decompositions — the
//! weak-scaling comparison of Fig. 6 and the test reference.
//! [`DistRealPoisson`] is the half-spectrum, table-driven solve, and the
//! crate's one single-term solve loop: the engine's single-level mesh
//! and coarse level, the serial [`crate::PmSolver`] and the two-level
//! oracle's coarse level are each one of these. The two-term loop of
//! the two-level complement is [`crate::LocalComplementSolver`]'s, so
//! there is one solve loop per kernel shape.

use std::sync::Mutex;

use hacc_fft::{Complex64, DistFft3, DistRealFft3, Layout3};

use crate::spectral::SpectralParams;

/// Distributed Poisson solve bound to a distributed FFT.
pub struct DistPoisson<'a, F: DistFft3 + ?Sized> {
    fft: &'a F,
    params: SpectralParams,
    /// Cell size Δ (box length / n).
    delta: f64,
}

impl<'a, F: DistFft3 + ?Sized> DistPoisson<'a, F> {
    /// Create a solver; `box_len` is the periodic box side.
    pub fn new(fft: &'a F, box_len: f64, params: SpectralParams) -> Self {
        DistPoisson {
            fft,
            params,
            delta: box_len / fft.n() as f64,
        }
    }

    /// Layout of the rank-local real-space block.
    #[must_use]
    pub fn real_layout(&self) -> Layout3 {
        self.fft.real_layout()
    }

    /// Solve for the three force component grids from the local source
    /// block (real layout in, real layout out).
    ///
    /// Cost: 1 forward + 3 inverse distributed FFTs, exactly the paper's
    /// "Poisson-solve" composition.
    #[must_use]
    pub fn solve_forces(&self, source: &[f64]) -> [Vec<f64>; 3] {
        let rl = self.fft.real_layout();
        assert_eq!(source.len(), rl.len(), "source does not match layout");
        let data: Vec<Complex64> = source.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let mut k_data = self.fft.forward(data);
        let kl = self.fft.k_layout();
        let (n, d) = (self.fft.n(), self.delta);
        let p = self.params;
        for (i, v) in k_data.iter_mut().enumerate() {
            let g = kl.global_coords(i);
            let scale = p.influence(g, n, d) * p.filter(g, n, d);
            *v = v.scale(scale);
        }
        let mut out: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (c, slot) in out.iter_mut().enumerate() {
            let mut comp = k_data.clone();
            for (i, v) in comp.iter_mut().enumerate() {
                let g = kl.global_coords(i);
                *v *= Complex64::new(0.0, -p.gradient(g[c], n, d));
            }
            let real = self.fft.backward(comp);
            *slot = real.iter().map(|v| v.re).collect();
        }
        out
    }

    /// Solve for the potential only (1 forward + 1 inverse FFT).
    #[must_use]
    pub fn solve_potential(&self, source: &[f64]) -> Vec<f64> {
        let rl = self.fft.real_layout();
        assert_eq!(source.len(), rl.len());
        let data: Vec<Complex64> = source.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let mut k_data = self.fft.forward(data);
        let kl = self.fft.k_layout();
        let (n, d) = (self.fft.n(), self.delta);
        let p = self.params;
        for (i, v) in k_data.iter_mut().enumerate() {
            let g = kl.global_coords(i);
            let scale = p.influence(g, n, d) * p.filter(g, n, d);
            *v = v.scale(scale);
        }
        self.fft
            .backward(k_data)
            .into_iter()
            .map(|v| v.re)
            .collect()
    }
}

/// Distributed half-spectrum force solve: a held [`DistRealFft3`] plus
/// the spectral tables in that transform's own k-layout, built once.
/// Against the c2c [`DistPoisson`] it moves half the transpose bytes and
/// evaluates no kernel per solve. [`Self::new`] carries the reference
/// response, [`Self::with_kernels`] the two-level split's coarse tables.
pub struct DistRealPoisson<F: DistRealFft3> {
    fft: F,
    /// Per-mode scalar over the local k block, in its row-major order.
    scalar: Vec<f64>,
    /// Gradient multiplier along each axis of the local k block.
    grad: [Vec<f64>; 3],
    ws: Mutex<Spectra>,
}

/// The two half-spectra a solve holds: the scaled potential and the
/// gradient product each inverse transform consumes.
#[derive(Default)]
pub(crate) struct Spectra {
    pub(crate) phi: Vec<Complex64>,
    pub(crate) comp: Vec<Complex64>,
}

impl<F: DistRealFft3> DistRealPoisson<F> {
    /// The reference response (influence × filter, Nyquist-zeroed
    /// gradient) on `fft`'s grid over a periodic box of side `box_len`.
    ///
    /// A Hermitian-consistent odd multiplier must vanish at the Nyquist
    /// index (k ≡ -k there). A complex solve reaches the same answer
    /// implicitly: a nonzero D(n/2) makes the Nyquist plane of -i·D·φ
    /// purely anti-Hermitian, and truncating the inverse transform to
    /// `.re` discards exactly that plane.
    pub fn new(fft: F, box_len: f64, params: SpectralParams) -> Self {
        let n = fft.n();
        let d = box_len / n as f64;
        Self::with_kernels(
            fft,
            |g| params.influence(g, n, d) * params.filter(g, n, d),
            |i| {
                if n.is_multiple_of(2) && i == n / 2 {
                    0.0
                } else {
                    params.gradient(i, n, d)
                }
            },
        )
    }

    /// Tabulate caller-supplied kernels: `scalar` at global mode indices
    /// and the 1-D `grad` multiplier at a global index along any axis
    /// (already zero at the Nyquist index, so the half-spectrum product
    /// stays Hermitian).
    pub fn with_kernels(
        fft: F,
        scalar: impl Fn([usize; 3]) -> f64,
        grad: impl Fn(usize) -> f64,
    ) -> Self {
        let kl = fft.k_layout();
        // Walked axis by axis: `Layout3::global_coords` per mode costs
        // three integer divisions and made the build 2.5× slower at 96³.
        let ([x0, y0, z0], [sx, sy, sz]) = (kl.origin, kl.size);
        let mut table = Vec::with_capacity(kl.len());
        for ix in x0..x0 + sx {
            for iy in y0..y0 + sy {
                table.extend((z0..z0 + sz).map(|iz| scalar([ix, iy, iz])));
            }
        }
        let grad = [0, 1, 2].map(|a| (0..kl.size[a]).map(|i| grad(kl.origin[a] + i)).collect());
        DistRealPoisson {
            fft,
            scalar: table,
            grad,
            ws: Mutex::default(),
        }
    }

    /// The scalar table over the local k block and the gradient table
    /// along each of its axes, as the solve loop reads them.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> (&[f64], &[Vec<f64>; 3]) {
        (&self.scalar, &self.grad)
    }

    /// The potential of the local block in place: `grid` holds the
    /// source on entry (real layout) and the potential `φ̂ = scalar·δ`
    /// on exit. Cost: 1 r2c forward + 1 c2r inverse.
    pub fn solve_potential_in_place(&self, grid: &mut Vec<f64>) {
        assert_eq!(
            grid.len(),
            self.fft.real_layout().len(),
            "source does not match layout"
        );
        let mut ws = self.ws.lock().expect("distributed pm workspace poisoned");
        let phi = &mut ws.phi;
        self.fft.forward_into(grid, phi);
        for (v, &s) in phi.iter_mut().zip(&self.scalar) {
            *v = v.scale(s);
        }
        self.fft.backward_into(phi, grid);
    }

    /// [`Self::solve_forces_in_place`] on a copy of `source`, into fresh
    /// grids.
    #[must_use]
    pub fn solve_forces(&self, source: &[f64]) -> [Vec<f64>; 3] {
        let mut grids = [source.to_vec(), Vec::new(), Vec::new()];
        self.solve_forces_in_place(&mut grids);
        grids
    }

    /// Solve for the three force component grids of the local block:
    /// `grids[0]` holds the source on entry (real layout), and all three
    /// hold the force components on exit (resized to the real layout).
    /// Cost: 1 r2c forward + 3 c2r inverse distributed FFTs on the
    /// half-spectrum, through the held spectra — the caller's three
    /// grids plus two spectra are the whole working set, and a warm
    /// solve allocates only the transform's message envelopes.
    pub fn solve_forces_in_place(&self, grids: &mut [Vec<f64>; 3]) {
        assert_eq!(
            grids[0].len(),
            self.fft.real_layout().len(),
            "source does not match layout"
        );
        let mut ws = self.ws.lock().expect("distributed pm workspace poisoned");
        let Spectra { phi, comp } = &mut *ws;
        self.fft.forward_into(&grids[0], phi);
        for (v, &s) in phi.iter_mut().zip(&self.scalar) {
            *v = v.scale(s);
        }
        let [_, sy, sz] = self.fft.k_layout().size;
        for (axis, slot) in grids.iter_mut().enumerate() {
            // F_c(k) = -i·D_c(k)·φ(k).
            let g = &self.grad[axis];
            comp.resize(phi.len(), Complex64::ZERO);
            let mul = |v: &Complex64, d: f64| Complex64::new(v.im * d, -v.re * d);
            for (row, (src, dst)) in phi.chunks(sz).zip(comp.chunks_mut(sz)).enumerate() {
                let at = [row / sy, row % sy];
                // The axis test stays out of the z loop, which then runs
                // branch-free.
                if axis < 2 {
                    let d = g[at[axis]];
                    for (v, c) in src.iter().zip(dst) {
                        *c = mul(v, d);
                    }
                } else {
                    for ((v, c), &d) in src.iter().zip(dst).zip(g) {
                        *c = mul(v, d);
                    }
                }
            }
            self.fft.backward_into(comp, slot);
        }
    }
}

// Not run under miri: every test here spins up a threads-as-ranks
// Machine (interpreter cost multiplies per rank thread) and the
// transpose path has no unsafe code; the serial 3-D FFT tests cover
// the unsafe strided pass under miri.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::solver::PmSolver;
    use hacc_comm::Machine;
    use hacc_fft::{PencilFft, RealPencilFft, SlabFft};

    fn rand_source(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        (0..n * n * n).map(|_| next()).collect()
    }

    /// Distributed (slab or pencil) force solve must equal the serial one.
    fn check_against_serial(n: usize, ranks: usize, pencil: bool) {
        let source = rand_source(n, 2 * n as u64 + 7);
        let serial = PmSolver::new(n, n as f64, SpectralParams::default());
        let want = serial.solve_forces(&source);

        let src = source.clone();
        let (results, _) = Machine::new(ranks).run(move |comm| {
            let run = |fft: &dyn DistFft3| {
                let solver_fft = fft;
                let rl = solver_fft.real_layout();
                let mut local = vec![0.0; rl.len()];
                for (i, v) in local.iter_mut().enumerate() {
                    let g = rl.global_coords(i);
                    *v = src[(g[0] * n + g[1]) * n + g[2]];
                }
                (rl, local)
            };
            if pencil {
                let fft = PencilFft::new(&comm, n);
                let (rl, local) = run(&fft);
                let solver = DistPoisson::new(&fft, n as f64, SpectralParams::default());
                (rl, solver.solve_forces(&local))
            } else {
                let fft = SlabFft::new(&comm, n);
                let (rl, local) = run(&fft);
                let solver = DistPoisson::new(&fft, n as f64, SpectralParams::default());
                (rl, solver.solve_forces(&local))
            }
        });
        for (rl, forces) in &results {
            for c in 0..3 {
                for (i, v) in forces[c].iter().enumerate() {
                    let g = rl.global_coords(i);
                    let w = want[c][(g[0] * n + g[1]) * n + g[2]];
                    assert!(
                        (v - w).abs() < 1e-9,
                        "n={n} ranks={ranks} pencil={pencil} c={c} {g:?}: {v} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn slab_matches_serial() {
        check_against_serial(8, 2, false);
        check_against_serial(12, 3, false);
    }

    #[test]
    fn pencil_matches_serial() {
        check_against_serial(8, 4, true);
        check_against_serial(12, 6, true);
    }

    /// The half-spectrum solve must equal the serial solver and the
    /// retained c2c reference per cell, on the `p × 1` grid the driver
    /// holds and on the default 2-D grid, for even, odd and 2·3·5 sides.
    #[test]
    fn real_pencil_matches_serial_and_c2c() {
        for (n, ranks) in [(8usize, 2usize), (9, 3), (12, 4), (30, 6), (8, 4)] {
            let source = rand_source(n, 5 * n as u64 + 1);
            let serial = PmSolver::new(n, n as f64, SpectralParams::default());
            let want = serial.solve_forces(&source);
            let src = source.clone();
            let (results, _) = Machine::new(ranks).run(move |comm| {
                let load = |rl: Layout3| -> Vec<f64> {
                    (0..rl.len())
                        .map(|i| {
                            let g = rl.global_coords(i);
                            src[(g[0] * n + g[1]) * n + g[2]]
                        })
                        .collect()
                };
                let params = SpectralParams::default();
                let c2c_fft = PencilFft::new(&comm, n);
                let c2c = DistPoisson::new(&c2c_fft, n as f64, params);
                let mut out = vec![(
                    c2c.real_layout(),
                    c2c.solve_forces(&load(c2c.real_layout())),
                )];
                for fft in [
                    RealPencilFft::with_grid(&comm, n, ranks, 1),
                    RealPencilFft::new(&comm, n),
                ] {
                    let rl = fft.real_layout();
                    let solver = DistRealPoisson::new(fft, n as f64, params);
                    out.push((rl, solver.solve_forces(&load(rl))));
                }
                out
            });
            // Reassemble each variant's global force grids: [c2c, r2c on
            // p × 1, r2c on the default grid].
            let mut global = vec![
                [
                    vec![0.0; n * n * n],
                    vec![0.0; n * n * n],
                    vec![0.0; n * n * n]
                ];
                3
            ];
            for per_rank in &results {
                for (grids, (rl, forces)) in global.iter_mut().zip(per_rank) {
                    for c in 0..3 {
                        for (i, &v) in forces[c].iter().enumerate() {
                            let g = rl.global_coords(i);
                            grids[c][(g[0] * n + g[1]) * n + g[2]] = v;
                        }
                    }
                }
            }
            for r2c in &global[1..] {
                for c in 0..3 {
                    for (i, v) in r2c[c].iter().enumerate() {
                        let (w, k) = (want[c][i], global[0][c][i]);
                        assert!(
                            (v - w).abs() < 1e-9 && (v - k).abs() < 1e-9,
                            "n={n} ranks={ranks} c={c} cell {i}: {v} vs serial {w}, c2c {k}"
                        );
                    }
                }
            }
        }
    }

    /// The half-spectrum potential, in place on the `p × 1` grid the
    /// driver holds, equals the serial solver's per cell on one rank
    /// and on two.
    #[test]
    fn real_potential_matches_serial() {
        let n = 12;
        let source = rand_source(n, 41);
        let want = PmSolver::new(n, n as f64, SpectralParams::default()).solve_potential(&source);
        for ranks in [1usize, 2] {
            let src = source.clone();
            let (results, _) = Machine::new(ranks).run(move |comm| {
                let fft = RealPencilFft::with_grid(&comm, n, ranks, 1);
                let rl = fft.real_layout();
                let mut grid: Vec<f64> = (0..rl.len())
                    .map(|i| {
                        let g = rl.global_coords(i);
                        src[(g[0] * n + g[1]) * n + g[2]]
                    })
                    .collect();
                DistRealPoisson::new(fft, n as f64, SpectralParams::default())
                    .solve_potential_in_place(&mut grid);
                (rl, grid)
            });
            for (rl, phi) in &results {
                for (i, v) in phi.iter().enumerate() {
                    let g = rl.global_coords(i);
                    let w = want[(g[0] * n + g[1]) * n + g[2]];
                    assert!((v - w).abs() < 1e-12, "ranks={ranks} {g:?}: {v} vs {w}");
                }
            }
        }
    }

    #[test]
    fn potential_matches_serial_pencil() {
        let n = 8;
        let source = rand_source(n, 3);
        let serial = PmSolver::new(n, n as f64, SpectralParams::default());
        let want = serial.solve_potential(&source);
        let src = source.clone();
        let (results, _) = Machine::new(4).run(move |comm| {
            let fft = PencilFft::new(&comm, n);
            let rl = fft.real_layout();
            let mut local = vec![0.0; rl.len()];
            for (i, v) in local.iter_mut().enumerate() {
                let g = rl.global_coords(i);
                *v = src[(g[0] * n + g[1]) * n + g[2]];
            }
            let solver = DistPoisson::new(&fft, n as f64, SpectralParams::default());
            (rl, solver.solve_potential(&local))
        });
        for (rl, phi) in &results {
            for (i, v) in phi.iter().enumerate() {
                let g = rl.global_coords(i);
                let w = want[(g[0] * n + g[1]) * n + g[2]];
                assert!((v - w).abs() < 1e-10);
            }
        }
    }
}
