//! Pencil-decomposed distributed 3-D FFT.
//!
//! The scalable FFT of Section IV.A: data partitioned across a 2-D
//! `P1 × P2` process grid (`ranks ≤ N²`), with the transform composed of
//! interleaved transposition and sequential 1-D FFT steps where "each
//! transposition only involves a subset of all tasks" — here the row and
//! column sub-communicators obtained by `Comm::split`.
//!
//! Layout sequence (forward):
//!
//! ```text
//! z-pencils [lx][ly][N]  --z FFT-->  --row transpose-->
//! y-pencils [lx][N][lz]  --y FFT-->  --column transpose-->
//! x-pencils [N][ly'][lz] --x FFT-->  k-space (x-pencil layout)
//! ```
//!
//! Note the two different y splittings: over `P2` in real space and over
//! `P1` in k space.
//!
//! Each transpose is one `alltoallv` on its sub-communicator, followed
//! by the line FFTs of the landed pencils.

use hacc_comm::{dims_create, Comm};

use crate::complex::Complex64;
use crate::dim3::{pass_columns, pass_lines};
use crate::layout::{block_ranges, DistFft3, DistRealFft3, Layout3};
use crate::plan::Fft1d;
use crate::real::{pass_c2r, pass_r2c};
use crate::scratch::BufPool;

/// Pencil FFT bound to a communicator arranged as a `P1 × P2` grid.
pub struct PencilFft<'a> {
    comm: &'a Comm,
    row_comm: Comm,
    col_comm: Comm,
    n: usize,
    p1: usize,
    p2: usize,
    /// x ranges over P1.
    x1: Vec<(usize, usize)>,
    /// y ranges over P2 (real space).
    y2: Vec<(usize, usize)>,
    /// y ranges over P1 (k space).
    y1: Vec<(usize, usize)>,
    /// z ranges over P2.
    z2: Vec<(usize, usize)>,
    plan: Fft1d,
    pool: BufPool,
}

impl<'a> PencilFft<'a> {
    /// Create a pencil FFT of global side `n`; the process grid is chosen
    /// by [`dims_create`]. Requires both grid dimensions ≤ `n`.
    #[must_use]
    pub fn new(comm: &'a Comm, n: usize) -> Self {
        let d = dims_create(comm.size(), 2);
        Self::with_grid(comm, n, d[0], d[1])
    }

    /// Create with an explicit `p1 × p2` process grid (`p1·p2 = ranks`).
    #[must_use]
    pub fn with_grid(comm: &'a Comm, n: usize, p1: usize, p2: usize) -> Self {
        assert_eq!(p1 * p2, comm.size(), "process grid must cover all ranks");
        assert!(
            p1 <= n && p2 <= n,
            "pencil decomposition requires grid dims ({p1},{p2}) <= N ({n})"
        );
        let my_p1 = comm.rank() / p2;
        let my_p2 = comm.rank() % p2;
        let row_comm = comm.split(my_p1 as u64, my_p2 as u64);
        let col_comm = comm.split(my_p2 as u64, my_p1 as u64);
        PencilFft {
            comm,
            row_comm,
            col_comm,
            n,
            p1: my_p1,
            p2: my_p2,
            x1: block_ranges(n, p1),
            y2: block_ranges(n, p2),
            y1: block_ranges(n, p1),
            z2: block_ranges(n, p2),
            plan: Fft1d::new(n),
            pool: BufPool::new(),
        }
    }

    fn lx(&self) -> usize {
        self.x1[self.p1].1
    }
    fn ly2(&self) -> usize {
        self.y2[self.p2].1
    }
    fn ly1(&self) -> usize {
        self.y1[self.p1].1
    }
    fn lz2(&self) -> usize {
        self.z2[self.p2].1
    }

    /// The z↔y (row) transpose is the identity when `P2 = 1`: a rank's
    /// z-pencils `[lx][n][nz]` already are its y-pencils.
    fn row_is_identity(&self) -> bool {
        self.row_comm.size() == 1
    }

    /// The y↔x (column) transpose is the identity when `P1 = 1`: the
    /// y-pencils `[n][n][lz]` already are the x-pencils.
    fn col_is_identity(&self) -> bool {
        self.col_comm.size() == 1
    }

    /// One transpose, in place on `data`: `pack(q, data, buf)` appends
    /// the payload for sub-communicator rank `q` to an empty buffer of
    /// `send_len(q)` capacity, the payloads go through one `alltoallv`,
    /// `data` is resized to `out_len` and `unpack(q, buf, data)` lands
    /// rank `q`'s payload. Payloads are the only transient buffers, each
    /// `1/P` of a spectrum: holding them between transforms would add a
    /// whole spectrum to the solve's resident set.
    fn transpose(
        &self,
        comm: &Comm,
        data: &mut Vec<Complex64>,
        out_len: usize,
        send_len: impl Fn(usize) -> usize,
        pack: impl Fn(usize, &[Complex64], &mut Vec<Complex64>),
        unpack: impl Fn(usize, &[Complex64], &mut [Complex64]),
    ) {
        let sends: Vec<Vec<Complex64>> = (0..comm.size())
            .map(|q| {
                let mut buf = Vec::with_capacity(send_len(q));
                pack(q, data, &mut buf);
                buf
            })
            .collect();
        let recvs = comm.alltoallv(sends);
        data.resize(out_len, Complex64::ZERO);
        for (q, buf) in recvs.iter().enumerate() {
            unpack(q, buf, data);
        }
    }

    /// Row transpose: z-pencils `[lx][ly2][nz]` → y-pencils `[lx][n][lz]`,
    /// where `nz` is the stored z extent (`n` for c2c, `nzh` for the
    /// half-spectrum) and `z_ranges` its split over `P2`.
    fn z_to_y(&self, data: &mut Vec<Complex64>, nz: usize, z_ranges: &[(usize, usize)]) {
        let (n, lx, ly) = (self.n, self.lx(), self.ly2());
        let lz = z_ranges[self.p2].1;
        self.transpose(
            &self.row_comm,
            data,
            lx * n * lz,
            |q| lx * ly * z_ranges[q].1,
            |q, src, buf| {
                let (z0, lzq) = z_ranges[q];
                for row in src.chunks_exact(nz) {
                    buf.extend_from_slice(&row[z0..z0 + lzq]);
                }
            },
            |q, buf, out| {
                let (y0, lyq) = self.y2[q];
                for (slab, src) in out.chunks_exact_mut(n * lz).zip(buf.chunks_exact(lyq * lz)) {
                    slab[y0 * lz..(y0 + lyq) * lz].copy_from_slice(src);
                }
            },
        );
    }

    /// Inverse of [`PencilFft::z_to_y`].
    fn y_to_z(&self, data: &mut Vec<Complex64>, nz: usize, z_ranges: &[(usize, usize)]) {
        let (n, lx, ly) = (self.n, self.lx(), self.ly2());
        let lz = z_ranges[self.p2].1;
        self.transpose(
            &self.row_comm,
            data,
            lx * ly * nz,
            |q| lx * self.y2[q].1 * lz,
            |q, src, buf| {
                let (y0, lyq) = self.y2[q];
                for slab in src.chunks_exact(n * lz) {
                    buf.extend_from_slice(&slab[y0 * lz..(y0 + lyq) * lz]);
                }
            },
            |q, buf, out| {
                let (z0, lzq) = z_ranges[q];
                for (row, src) in out.chunks_exact_mut(nz).zip(buf.chunks_exact(lzq)) {
                    row[z0..z0 + lzq].copy_from_slice(src);
                }
            },
        );
    }

    /// Column transpose: y-pencils `[lx][n][lz]` → x-pencils `[n][ly1][lz]`.
    fn y_to_x(&self, data: &mut Vec<Complex64>, lz: usize) {
        let (n, lx, ly) = (self.n, self.lx(), self.ly1());
        self.transpose(
            &self.col_comm,
            data,
            n * ly * lz,
            |q| lx * self.y1[q].1 * lz,
            |q, src, buf| {
                let (y0, lyq) = self.y1[q];
                for slab in src.chunks_exact(n * lz) {
                    buf.extend_from_slice(&slab[y0 * lz..(y0 + lyq) * lz]);
                }
            },
            |q, buf, out| {
                let (x0, lxq) = self.x1[q];
                out[x0 * ly * lz..(x0 + lxq) * ly * lz].copy_from_slice(buf);
            },
        );
    }

    /// Inverse of [`PencilFft::y_to_x`].
    fn x_to_y(&self, data: &mut Vec<Complex64>, lz: usize) {
        let (n, lx, ly) = (self.n, self.lx(), self.ly1());
        self.transpose(
            &self.col_comm,
            data,
            lx * n * lz,
            |q| self.x1[q].1 * ly * lz,
            |q, src, buf| {
                let (x0, lxq) = self.x1[q];
                buf.extend_from_slice(&src[x0 * ly * lz..(x0 + lxq) * ly * lz]);
            },
            |q, buf, out| {
                let (y0, lyq) = self.y1[q];
                for (slab, src) in out.chunks_exact_mut(n * lz).zip(buf.chunks_exact(lyq * lz)) {
                    slab[y0 * lz..(y0 + lyq) * lz].copy_from_slice(src);
                }
            },
        );
    }
}

impl DistFft3 for PencilFft<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn real_layout(&self) -> Layout3 {
        Layout3 {
            n: self.n,
            origin: [self.x1[self.p1].0, self.y2[self.p2].0, 0],
            size: [self.lx(), self.ly2(), self.n],
        }
    }

    fn k_layout(&self) -> Layout3 {
        Layout3 {
            n: self.n,
            origin: [0, self.y1[self.p1].0, self.z2[self.p2].0],
            size: [self.n, self.ly1(), self.lz2()],
        }
    }

    fn forward(&self, mut data: Vec<Complex64>) -> Vec<Complex64> {
        assert_eq!(data.len(), self.real_layout().len());
        let (plan, pool, lz) = (&self.plan, &self.pool, self.lz2());
        pass_lines(plan, &mut data, false, pool);
        if !self.row_is_identity() {
            self.z_to_y(&mut data, self.n, &self.z2);
        }
        pass_columns(plan, &mut data, lz, false, pool);
        if !self.col_is_identity() {
            self.y_to_x(&mut data, lz);
        }
        pass_columns(plan, &mut data, self.ly1() * lz, false, pool);
        data
    }

    fn backward(&self, mut data: Vec<Complex64>) -> Vec<Complex64> {
        assert_eq!(data.len(), self.k_layout().len());
        let (plan, pool, lz) = (&self.plan, &self.pool, self.lz2());
        pass_columns(plan, &mut data, self.ly1() * lz, true, pool);
        if !self.col_is_identity() {
            self.x_to_y(&mut data, lz);
        }
        pass_columns(plan, &mut data, lz, true, pool);
        if !self.row_is_identity() {
            self.y_to_z(&mut data, self.n, &self.z2);
        }
        pass_lines(plan, &mut data, true, pool);
        let inv = 1.0 / (self.n * self.n * self.n) as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
        data
    }

    fn comm(&self) -> &Comm {
        self.comm
    }
}

/// Real-to-complex pencil FFT over the Hermitian half-spectrum.
///
/// Reuses the complex pencil machinery with the z extent shrunk to
/// `nzh = n/2 + 1` after the local r2c z pass: the row transpose, y/x
/// line FFTs and column transpose all operate on `nzh`-deep pencils, so
/// both the communication volume and the y/x FFT work drop by nearly
/// half relative to the c2c path — the same saving the serial
/// [`crate::real::RealFft3`] realizes.
pub struct RealPencilFft<'a> {
    inner: PencilFft<'a>,
    nzh: usize,
    /// Half-spectrum z ranges over P2.
    zh2: Vec<(usize, usize)>,
}

impl<'a> RealPencilFft<'a> {
    /// Create a real pencil FFT of global side `n`; the process grid is
    /// chosen by [`dims_create`].
    #[must_use]
    pub fn new(comm: &'a Comm, n: usize) -> Self {
        let d = dims_create(comm.size(), 2);
        Self::with_grid(comm, n, d[0], d[1])
    }

    /// Create with an explicit `p1 × p2` process grid (`p1·p2 = ranks`).
    #[must_use]
    pub fn with_grid(comm: &'a Comm, n: usize, p1: usize, p2: usize) -> Self {
        let nzh = n / 2 + 1;
        assert!(
            p2 <= nzh,
            "real pencil decomposition requires P2 ({p2}) <= n/2+1 ({nzh})"
        );
        RealPencilFft {
            inner: PencilFft::with_grid(comm, n, p1, p2),
            nzh,
            zh2: block_ranges(nzh, p2),
        }
    }

    /// Local half-spectrum z extent.
    fn lzh(&self) -> usize {
        self.zh2[self.inner.p2].1
    }
}

impl DistRealFft3 for RealPencilFft<'_> {
    fn n(&self) -> usize {
        self.inner.n
    }

    fn nzh(&self) -> usize {
        self.nzh
    }

    fn real_layout(&self) -> Layout3 {
        self.inner.real_layout()
    }

    fn k_layout(&self) -> Layout3 {
        let f = &self.inner;
        Layout3 {
            n: f.n,
            origin: [0, f.y1[f.p1].0, self.zh2[f.p2].0],
            size: [f.n, f.ly1(), self.lzh()],
        }
    }

    fn forward_into(&self, data: &[f64], out: &mut Vec<Complex64>) {
        let f = &self.inner;
        assert_eq!(data.len(), self.real_layout().len());
        let (plan, pool, lz) = (&f.plan, &f.pool, self.lzh());
        out.resize(f.lx() * f.ly2() * self.nzh, Complex64::ZERO);
        pass_r2c(plan, data, out, pool);
        if !f.row_is_identity() {
            f.z_to_y(out, self.nzh, &self.zh2);
        }
        pass_columns(plan, out, lz, false, pool);
        if !f.col_is_identity() {
            f.y_to_x(out, lz);
        }
        pass_columns(plan, out, f.ly1() * lz, false, pool);
    }

    fn backward_into(&self, data: &mut Vec<Complex64>, out: &mut Vec<f64>) {
        let f = &self.inner;
        assert_eq!(data.len(), self.k_layout().len());
        let (plan, pool, lz) = (&f.plan, &f.pool, self.lzh());
        pass_columns(plan, data, f.ly1() * lz, true, pool);
        if !f.col_is_identity() {
            f.x_to_y(data, lz);
        }
        pass_columns(plan, data, lz, true, pool);
        if !f.row_is_identity() {
            f.y_to_z(data, self.nzh, &self.zh2);
        }
        out.resize(f.lx() * f.ly2() * f.n, 0.0);
        pass_c2r(plan, data, out, 1.0 / (f.n * f.n * f.n) as f64, pool);
    }

    fn comm(&self) -> &Comm {
        self.inner.comm
    }
}

// Not run under miri: every test here spins up a threads-as-ranks
// Machine (interpreter cost multiplies per rank thread), and the pencil
// runs no unsafe code — its line passes are the serial transform's.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::dim3::Fft3;
    use crate::real::RealFft3;
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

    fn check(n: usize, p1: usize, p2: usize) {
        let global = rand_grid(n * n * n, 1000 + n as u64);
        let mut want = global.clone();
        Fft3::new_cubic(n).forward(&mut want);

        let globals = global.clone();
        let (results, _) = Machine::new(p1 * p2).run(move |comm| {
            let fft = PencilFft::with_grid(&comm, n, p1, p2);
            let rl = fft.real_layout();
            let mut local = vec![Complex64::ZERO; rl.len()];
            for (i, v) in local.iter_mut().enumerate() {
                let g = rl.global_coords(i);
                *v = globals[(g[0] * n + g[1]) * n + g[2]];
            }
            let k = fft.forward(local);
            (fft.k_layout(), k)
        });
        for (lay, k) in &results {
            for (i, v) in k.iter().enumerate() {
                let g = lay.global_coords(i);
                let w = want[(g[0] * n + g[1]) * n + g[2]];
                assert!(
                    (*v - w).abs() < 1e-8,
                    "n={n} grid {p1}x{p2} at {g:?}: {v:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn single_rank() {
        check(6, 1, 1);
    }

    #[test]
    fn row_only_and_col_only() {
        check(8, 1, 4);
        check(8, 4, 1);
    }

    #[test]
    fn square_grids() {
        check(8, 2, 2);
        check(12, 3, 3);
    }

    #[test]
    fn rectangular_grid_uneven_sizes() {
        check(10, 2, 3);
        check(9, 3, 2);
    }

    #[test]
    fn more_ranks_than_n_allowed() {
        // 4x4 = 16 ranks on a 6³ grid: beyond slab's limit but fine here
        // as long as each grid dim ≤ n.
        check(6, 4, 4);
    }

    #[test]
    fn roundtrip_distributed() {
        let n = 8;
        let (ok, _) = Machine::new(6).run(|comm| {
            let fft = PencilFft::with_grid(&comm, n, 3, 2);
            let orig = rand_grid(fft.real_layout().len(), 5 + comm.rank() as u64);
            let k = fft.forward(orig.clone());
            assert_eq!(k.len(), fft.k_layout().len());
            let back = fft.backward(k);
            back.iter()
                .zip(&orig)
                .all(|(a, b)| (*a - *b).abs() < 1e-10)
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn k_layouts_tile_the_cube() {
        let n = 8;
        let (lays, _) = Machine::new(4).run(|comm| {
            let fft = PencilFft::with_grid(&comm, n, 2, 2);
            fft.k_layout()
        });
        let total: usize = lays.iter().map(|l| l.len()).sum();
        assert_eq!(total, n * n * n);
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn oversized_grid_dim_rejected() {
        let (_, _) = Machine::new(8).run(|comm| {
            let _ = PencilFft::with_grid(&comm, 4, 8, 1);
        });
    }

    fn rand_real(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) - 0.5
            })
            .collect()
    }

    fn check_real(n: usize, p1: usize, p2: usize) {
        let nzh = n / 2 + 1;
        let global = rand_real(n * n * n, 7000 + n as u64);
        let mut want = vec![Complex64::ZERO; n * n * nzh];
        RealFft3::new_cubic(n).forward(&global, &mut want);

        let globals = global.clone();
        let (results, _) = Machine::new(p1 * p2).run(move |comm| {
            let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
            let rl = fft.real_layout();
            let mut local = vec![0.0f64; rl.len()];
            for (i, v) in local.iter_mut().enumerate() {
                let g = rl.global_coords(i);
                *v = globals[(g[0] * n + g[1]) * n + g[2]];
            }
            let k = fft.forward(local);
            assert_eq!(k.len(), fft.k_layout().len());
            (fft.k_layout(), k)
        });
        let total: usize = results.iter().map(|(l, _)| l.len()).sum();
        assert_eq!(total, n * n * nzh, "half-spectrum tiles the k box");
        for (lay, k) in &results {
            for (i, v) in k.iter().enumerate() {
                let g = lay.global_coords(i);
                let w = want[(g[0] * n + g[1]) * nzh + g[2]];
                assert!(
                    (*v - w).abs() < 1e-8,
                    "n={n} grid {p1}x{p2} at {g:?}: {v:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn real_matches_serial_half_spectrum() {
        check_real(8, 2, 2);
        check_real(6, 1, 2);
        check_real(8, 1, 4);
    }

    #[test]
    fn real_matches_serial_non_power_of_two_and_odd() {
        check_real(10, 2, 3);
        check_real(9, 3, 2);
        check_real(7, 2, 2);
    }

    #[test]
    fn real_roundtrip_distributed() {
        for (n, p1, p2) in [(8usize, 3usize, 2usize), (9, 2, 2), (12, 2, 3)] {
            let (ok, _) = Machine::new(p1 * p2).run(move |comm| {
                let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
                let orig = rand_real(fft.real_layout().len(), 31 + comm.rank() as u64);
                let k = fft.forward(orig.clone());
                let back = fft.backward(k);
                back.iter()
                    .zip(&orig)
                    .all(|(a, b)| (*a - *b).abs() < 1e-12)
            });
            assert!(ok.iter().all(|&b| b), "roundtrip n={n} {p1}x{p2}");
        }
    }

    /// At the benchmark's sides the pencil r2c and c2r are bitwise
    /// serial [`crate::real::RealFft3`]: the same 1-D plans in the same
    /// axis order, while transposes only move data. Covered: the grids
    /// whose transposes are elided — `p × 1` (the engine's slab grid:
    /// z↔y is the identity), `1 × p` (y↔x is the identity) and `1 × 1`
    /// (both) — and `2 × 2`, `2 × 3` with both transposes. It holds
    /// wherever each rank's z lines pair up as the serial ones do (see
    /// DESIGN §13); an odd first global line index gives a line another
    /// r2c partner and ~1e-15 differences.
    #[test]
    fn pencil_r2c_is_bitwise_serial_at_benchmark_sides() {
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for n in [48usize, 96] {
            let flat = |c: [usize; 3]| (c[0] * n + c[1]) * n + c[2];
            let nzh = n / 2 + 1;
            let global = rand_real(n * n * n, 90 + n as u64);
            let serial = RealFft3::new_cubic(n);
            let mut want = vec![Complex64::ZERO; n * n * nzh];
            serial.forward(&global, &mut want);
            let mut back = vec![0.0; n * n * n];
            serial.backward(&mut want.clone(), &mut back);
            for (p1, p2) in [(1usize, 1usize), (2, 1), (3, 1), (1, 2), (1, 3), (2, 2), (2, 3)] {
                let (g, w) = (&global, &want);
                let (bitwise, _) = Machine::new(p1 * p2).run(|comm| {
                    let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
                    let (rl, kl) = (fft.real_layout(), fft.k_layout());
                    let local: Vec<f64> = (0..rl.len())
                        .map(|i| g[flat(rl.global_coords(i))])
                        .collect();
                    let spec: Vec<Complex64> = (0..kl.len())
                        .map(|i| {
                            let c = kl.global_coords(i);
                            w[(c[0] * n + c[1]) * nzh + c[2]]
                        })
                        .collect();
                    let k = fft.forward(local);
                    let real: Vec<u64> = fft.backward(spec.clone()).iter().map(|v| v.to_bits()).collect();
                    let want_real: Vec<u64> =
                        (0..rl.len()).map(|i| back[flat(rl.global_coords(i))].to_bits()).collect();
                    (bits(&k) == bits(&spec), real == want_real)
                });
                for (forward, backward) in bitwise {
                    assert!(
                        forward && backward,
                        "n={n} grid {p1}x{p2}: forward bitwise {forward}, backward bitwise {backward}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn real_pencil_rejects_p2_beyond_half_spectrum() {
        // n=6 → nzh=4; P2=6 would leave ranks with no half-spectrum z bins.
        let (_, _) = Machine::new(6).run(|comm| {
            let _ = RealPencilFft::with_grid(&comm, 6, 1, 6);
        });
    }
}
