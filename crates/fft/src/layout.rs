//! Distributed grid layouts.

use hacc_comm::Comm;

use crate::complex::Complex64;

/// A rank-local box of a global `n³` grid, stored row-major over `size`
/// (`z` fastest): `idx = (ix·size[1] + iy)·size[2] + iz` with `i?` local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout3 {
    /// Global grid points per side.
    pub n: usize,
    /// Global coordinates of the local origin.
    pub origin: [usize; 3],
    /// Local box size.
    pub size: [usize; 3],
}

impl Layout3 {
    /// Number of locally stored elements.
    #[must_use] 
    pub fn len(&self) -> usize {
        self.size[0] * self.size[1] * self.size[2]
    }

    /// True when the local box is empty.
    #[must_use] 
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local index of global coordinates (must lie inside the box).
    #[inline]
    #[must_use] 
    pub fn local_index(&self, g: [usize; 3]) -> usize {
        debug_assert!(self.contains(g), "{g:?} outside {self:?}");
        let l = [
            g[0] - self.origin[0],
            g[1] - self.origin[1],
            g[2] - self.origin[2],
        ];
        (l[0] * self.size[1] + l[1]) * self.size[2] + l[2]
    }

    /// Whether the box contains the global coordinates.
    #[inline]
    #[must_use] 
    pub fn contains(&self, g: [usize; 3]) -> bool {
        (0..3).all(|d| g[d] >= self.origin[d] && g[d] < self.origin[d] + self.size[d])
    }

    /// Global coordinates of local linear index `idx`.
    #[inline]
    #[must_use] 
    pub fn global_coords(&self, idx: usize) -> [usize; 3] {
        let iz = idx % self.size[2];
        let iy = (idx / self.size[2]) % self.size[1];
        let ix = idx / (self.size[1] * self.size[2]);
        [
            self.origin[0] + ix,
            self.origin[1] + iy,
            self.origin[2] + iz,
        ]
    }
}

/// Split `n` into `p` contiguous near-equal ranges `(start, len)`.
#[must_use] 
pub fn block_ranges(n: usize, p: usize) -> Vec<(usize, usize)> {
    let base = n / p;
    let rem = n % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for r in 0..p {
        let len = base + usize::from(r < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// A distributed 3-D FFT: forward maps the real-space layout to the
/// k-space layout (possibly different decompositions, as with pencils).
pub trait DistFft3 {
    /// Global grid side.
    fn n(&self) -> usize;
    /// Layout of real-space data on this rank.
    fn real_layout(&self) -> Layout3;
    /// Layout of k-space data on this rank after `forward`.
    fn k_layout(&self) -> Layout3;
    /// Unnormalized forward transform; consumes real-layout data, returns
    /// k-layout data.
    fn forward(&self, data: Vec<Complex64>) -> Vec<Complex64>;
    /// Normalized inverse transform; consumes k-layout data, returns
    /// real-layout data.
    fn backward(&self, data: Vec<Complex64>) -> Vec<Complex64>;
    /// The communicator the transform runs on.
    fn comm(&self) -> &Comm;
}

/// A distributed real-to-complex 3-D FFT over the Hermitian
/// half-spectrum: forward maps real-layout `f64` data to half-spectrum
/// k-layout data (`nzh = n/2 + 1` retained z bins — `Layout3::size[2]`
/// of the k layout is `nzh`-bounded while `n` stays the global real
/// side).
pub trait DistRealFft3 {
    /// Global grid side.
    fn n(&self) -> usize;
    /// Retained z bins, `n/2 + 1`.
    fn nzh(&self) -> usize;
    /// Layout of real-space data on this rank.
    fn real_layout(&self) -> Layout3;
    /// Layout of half-spectrum data on this rank after `forward` (z
    /// coordinates run over `0..nzh`).
    fn k_layout(&self) -> Layout3;
    /// Unnormalized forward r2c transform into `out` (resized to the
    /// k layout; once `out` is warm, only transpose messages allocate).
    fn forward_into(&self, data: &[f64], out: &mut Vec<Complex64>);
    /// Normalized inverse c2r transform into `out` (resized to the real
    /// layout). `data` is the transform's workspace: it is left holding
    /// an intermediate stage.
    fn backward_into(&self, data: &mut Vec<Complex64>, out: &mut Vec<f64>);
    /// Unnormalized forward r2c transform.
    fn forward(&self, data: Vec<f64>) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.forward_into(&data, &mut out);
        out
    }
    /// Normalized inverse c2r transform.
    fn backward(&self, mut data: Vec<Complex64>) -> Vec<f64> {
        let mut out = Vec::new();
        self.backward_into(&mut data, &mut out);
        out
    }
    /// The communicator the transform runs on.
    fn comm(&self) -> &Comm;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_exactly() {
        for n in [1, 7, 16, 100] {
            for p in [1, 2, 3, 7, 8] {
                let r = block_ranges(n, p);
                assert_eq!(r.len(), p);
                let total: usize = r.iter().map(|&(_, l)| l).sum();
                assert_eq!(total, n, "n={n} p={p}");
                // Contiguity.
                let mut next = 0;
                for &(s, l) in &r {
                    assert_eq!(s, next);
                    next += l;
                }
                // Balance: lengths differ by at most 1.
                let min = r.iter().map(|&(_, l)| l).min().unwrap();
                let max = r.iter().map(|&(_, l)| l).max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn layout_index_roundtrip() {
        let l = Layout3 {
            n: 16,
            origin: [4, 0, 8],
            size: [4, 16, 8],
        };
        for idx in 0..l.len() {
            let g = l.global_coords(idx);
            assert!(l.contains(g));
            assert_eq!(l.local_index(g), idx);
        }
        assert!(!l.contains([0, 0, 0]));
        assert!(!l.contains([8, 0, 8]));
    }
}
