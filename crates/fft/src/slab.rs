//! Slab-decomposed distributed 3-D FFT.
//!
//! The first version of HACC used a slab (1-D) decomposition, subject to
//! the limit `ranks ≤ N` (Section IV.A). A slab is the pencil
//! decomposition on a `p × 1` process grid, so [`SlabFft`] is the c2c
//! [`PencilFft`] on that grid: its z↔y transpose is the identity, and
//! its one x↔y transpose is the pencil's column transpose.
//!
//! Each rank owns `lx` contiguous x-planes of the global `n³` grid in
//! real space (`[lx][n][n]`) and `ly` contiguous y-planes in k space
//! (`[n][ly][n]`).

use hacc_comm::Comm;

use crate::complex::Complex64;
use crate::layout::{DistFft3, Layout3};
use crate::pencil::PencilFft;

/// Slab FFT bound to a communicator: the pencil FFT on a `p × 1` grid.
pub struct SlabFft<'a> {
    pencil: PencilFft<'a>,
}

impl<'a> SlabFft<'a> {
    /// Create a slab FFT of global side `n` over `comm`.
    /// Requires `comm.size() ≤ n`. Collective: every rank of `comm` must
    /// call it, as the pencil's row and column sub-communicators come
    /// from two `Comm::split`s.
    #[must_use]
    pub fn new(comm: &'a Comm, n: usize) -> Self {
        assert!(
            comm.size() <= n,
            "slab decomposition requires ranks ({}) <= N ({n})",
            comm.size()
        );
        SlabFft {
            pencil: PencilFft::with_grid(comm, n, comm.size(), 1),
        }
    }
}

impl DistFft3 for SlabFft<'_> {
    fn n(&self) -> usize {
        self.pencil.n()
    }

    fn real_layout(&self) -> Layout3 {
        self.pencil.real_layout()
    }

    fn k_layout(&self) -> Layout3 {
        self.pencil.k_layout()
    }

    fn forward(&self, data: Vec<Complex64>) -> Vec<Complex64> {
        self.pencil.forward(data)
    }

    fn backward(&self, data: Vec<Complex64>) -> Vec<Complex64> {
        self.pencil.backward(data)
    }

    fn comm(&self) -> &Comm {
        self.pencil.comm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim3::Fft3;
    use crate::layout::block_ranges;
    use hacc_comm::Machine;

    fn rand_grid(len: usize, seed: u64) -> Vec<Complex64> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        (0..len).map(|_| Complex64::new(next(), next())).collect()
    }

    /// Run the slab FFT on `ranks` ranks and compare with the serial 3-D FFT.
    fn check(n: usize, ranks: usize) {
        let global = rand_grid(n * n * n, 42 + n as u64);
        let mut want = global.clone();
        Fft3::new_cubic(n).forward(&mut want);

        let globals = global.clone();
        let (results, _) = Machine::new(ranks).run(move |comm| {
            let fft = SlabFft::new(&comm, n);
            let lay = fft.real_layout();
            let mut local = vec![Complex64::ZERO; lay.len()];
            for (i, v) in local.iter_mut().enumerate() {
                let g = lay.global_coords(i);
                *v = globals[(g[0] * n + g[1]) * n + g[2]];
            }
            (fft.k_layout(), fft.forward(local))
        });
        for (lay, k) in &results {
            for (i, v) in k.iter().enumerate() {
                let g = lay.global_coords(i);
                let w = want[(g[0] * n + g[1]) * n + g[2]];
                assert!((*v - w).abs() < 1e-8, "n={n} p={ranks} at {g:?}");
            }
        }
    }

    #[test]
    fn matches_serial_one_rank() {
        check(8, 1);
    }

    #[test]
    fn matches_serial_multi_rank() {
        check(8, 2);
        check(8, 4);
        check(12, 3);
    }

    #[test]
    fn uneven_split() {
        check(10, 3);
        check(9, 4);
    }

    /// Real space is split over x and k space over y, both by
    /// `block_ranges` over the ranks: the pencil's `p × 1` grid, not its
    /// `1 × p` one (which would split real space over y).
    #[test]
    fn layouts_are_x_slabs_then_y_slabs() {
        let (n, ranks) = (10, 3);
        let (lays, _) = Machine::new(ranks).run(move |comm| {
            let fft = SlabFft::new(&comm, n);
            (comm.rank(), fft.real_layout(), fft.k_layout())
        });
        let ranges = block_ranges(n, ranks);
        for (r, real, k) in lays {
            let (s0, len) = ranges[r];
            assert_eq!(real.origin, [s0, 0, 0], "rank {r}");
            assert_eq!(real.size, [len, n, n], "rank {r}");
            assert_eq!(k.origin, [0, s0, 0], "rank {r}");
            assert_eq!(k.size, [n, len, n], "rank {r}");
        }
    }

    #[test]
    fn roundtrip_distributed() {
        let n = 8;
        let (ok, _) = Machine::new(4).run(|comm| {
            let fft = SlabFft::new(&comm, n);
            let lay = fft.real_layout();
            let orig = rand_grid(lay.len(), 7 + comm.rank() as u64);
            let k = fft.forward(orig.clone());
            let back = fft.backward(k);
            back.iter()
                .zip(&orig)
                .all(|(a, b)| (*a - *b).abs() < 1e-10)
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn too_many_ranks_rejected() {
        let (_, _) = Machine::new(4).run(|comm| {
            let _ = SlabFft::new(&comm, 2);
        });
    }
}
