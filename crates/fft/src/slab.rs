//! Slab-decomposed distributed 3-D FFT.
//!
//! The first version of HACC used a slab (1-D) decomposition, subject to
//! the limit `ranks ≤ N` (Section IV.A); we reproduce it both as the
//! Roadrunner-era baseline of Fig. 6 and as a simpler correctness
//! cross-check for the pencil transform.
//!
//! Each rank owns `lx` contiguous x-planes of the global `n³` grid. The
//! forward transform performs local y/z FFTs, a global x↔y transpose
//! (`alltoallv`), local x FFTs, and a transpose back, so both real and
//! k-space data live in the same x-slab layout.

use hacc_comm::Comm;

use crate::complex::Complex64;
use crate::dim3::{pass_columns, pass_lines};
use crate::layout::{block_ranges, DistFft3, Layout3};
use crate::plan::Fft1d;
use crate::scratch::BufPool;

/// Slab FFT bound to a communicator.
pub struct SlabFft<'a> {
    comm: &'a Comm,
    n: usize,
    ranges: Vec<(usize, usize)>,
    plan: Fft1d,
    pool: BufPool,
}

impl<'a> SlabFft<'a> {
    /// Create a slab FFT of global side `n` over `comm`.
    /// Requires `comm.size() ≤ n`.
    #[must_use]
    pub fn new(comm: &'a Comm, n: usize) -> Self {
        assert!(
            comm.size() <= n,
            "slab decomposition requires ranks ({}) <= N ({n})",
            comm.size()
        );
        SlabFft {
            comm,
            n,
            ranges: block_ranges(n, comm.size()),
            plan: Fft1d::new(n),
            pool: BufPool::new(),
        }
    }

    fn my_range(&self) -> (usize, usize) {
        self.ranges[self.comm.rank()]
    }

    /// Local y/z (or inverse) FFTs on the x-slab `[lx][n][n]`: z lines,
    /// then y columns.
    fn fft_yz(&self, data: &mut [Complex64], inverse: bool) {
        pass_lines(&self.plan, data, inverse, &self.pool);
        pass_columns(&self.plan, data, self.n, inverse, &self.pool);
    }

    /// x-line FFTs in the y-slab layout `[n][ly][n]`.
    fn fft_x(&self, data: &mut [Complex64], inverse: bool) {
        let (_, ly) = self.my_range();
        pass_columns(&self.plan, data, ly * self.n, inverse, &self.pool);
    }

    /// Transpose x-slab `[lx][n][n]` → y-slab `[n][ly][n]`.
    fn to_y_slab(&self, data: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
        let (_, lx) = self.my_range();
        let sends: Vec<Vec<Complex64>> = self
            .ranges
            .iter()
            .map(|&(y0, lyr)| {
                let mut buf = Vec::with_capacity(lx * lyr * n);
                for ixl in 0..lx {
                    for iyl in 0..lyr {
                        let row = (ixl * n + y0 + iyl) * n;
                        buf.extend_from_slice(&data[row..row + n]);
                    }
                }
                buf
            })
            .collect();
        let recvs = self.comm.alltoallv(sends);
        let (_, ly) = self.my_range();
        let mut out = vec![Complex64::ZERO; n * ly * n];
        for (r, buf) in recvs.iter().enumerate() {
            let (x0, lxr) = self.ranges[r];
            let mut it = buf.iter();
            for ixl in 0..lxr {
                for iyl in 0..ly {
                    let dst = ((x0 + ixl) * ly + iyl) * n;
                    for v in out[dst..dst + n].iter_mut() {
                        *v = *it.next().expect("transpose payload size");
                    }
                }
            }
        }
        out
    }

    /// Transpose y-slab `[n][ly][n]` → x-slab `[lx][n][n]`.
    fn to_x_slab(&self, data: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
        let (_, ly) = self.my_range();
        let sends: Vec<Vec<Complex64>> = self
            .ranges
            .iter()
            .map(|&(x0, lxr)| {
                let mut buf = Vec::with_capacity(lxr * ly * n);
                for ixl in 0..lxr {
                    for iyl in 0..ly {
                        let row = ((x0 + ixl) * ly + iyl) * n;
                        buf.extend_from_slice(&data[row..row + n]);
                    }
                }
                buf
            })
            .collect();
        let recvs = self.comm.alltoallv(sends);
        let (_, lx) = self.my_range();
        let mut out = vec![Complex64::ZERO; lx * n * n];
        for (r, buf) in recvs.iter().enumerate() {
            let (y0, lyr) = self.ranges[r];
            let mut it = buf.iter();
            for ixl in 0..lx {
                for iyl in 0..lyr {
                    let dst = (ixl * n + y0 + iyl) * n;
                    for v in out[dst..dst + n].iter_mut() {
                        *v = *it.next().expect("transpose payload size");
                    }
                }
            }
        }
        out
    }
}

impl DistFft3 for SlabFft<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn real_layout(&self) -> Layout3 {
        let (x0, lx) = self.my_range();
        Layout3 {
            n: self.n,
            origin: [x0, 0, 0],
            size: [lx, self.n, self.n],
        }
    }

    fn k_layout(&self) -> Layout3 {
        self.real_layout()
    }

    fn forward(&self, mut data: Vec<Complex64>) -> Vec<Complex64> {
        assert_eq!(data.len(), self.real_layout().len());
        self.fft_yz(&mut data, false);
        let mut y = self.to_y_slab(&data);
        self.fft_x(&mut y, false);
        self.to_x_slab(&y)
    }

    fn backward(&self, data: Vec<Complex64>) -> Vec<Complex64> {
        let mut y = self.to_y_slab(&data);
        self.fft_x(&mut y, true);
        let mut out = self.to_x_slab(&y);
        self.fft_yz(&mut out, true);
        let inv = 1.0 / (self.n * self.n * self.n) as f64;
        for v in out.iter_mut() {
            *v = v.scale(inv);
        }
        out
    }

    fn comm(&self) -> &Comm {
        self.comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim3::Fft3;
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
            let k = fft.forward(local);
            (lay, k)
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
