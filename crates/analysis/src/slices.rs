//! Density slices, projections, and zoom statistics.
//!
//! Produces the data behind Figs. 2 and 9: 2-D projected density maps of
//! slabs of the simulation volume, nested zoom views, and summary
//! statistics of the density contrast (whose growth by ~five orders of
//! magnitude over the run is quoted in Section V).

use hacc_pm::deposit_cic;

/// A 2-D projected density map.
#[derive(Debug, Clone)]
pub struct DensitySlice {
    /// Pixels per side.
    pub res: usize,
    /// Projected mass per pixel, row-major `[x][y]`.
    pub pixels: Vec<f64>,
    /// Region covered: `(x0, y0, extent)` in box units.
    pub window: (f64, f64, f64),
}

impl DensitySlice {
    /// Project particles with `z ∈ [z0, z1)` onto an `res × res` map of
    /// the sub-window `(x0, y0) .. (x0+extent, y0+extent)` (periodic).
    #[allow(clippy::too_many_arguments)]
    #[must_use] 
    pub fn project(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        box_len: f64,
        z_range: (f64, f64),
        window: (f64, f64, f64),
        res: usize,
    ) -> Self {
        assert!(res >= 1);
        let (x0, y0, ext) = window;
        let mut pixels = vec![0.0f64; res * res];
        let scale = res as f64 / ext;
        for i in 0..xs.len() {
            let z = f64::from(zs[i]);
            if z < z_range.0 || z >= z_range.1 {
                continue;
            }
            // Position relative to the window, periodic-aware.
            let rel = |v: f32, o: f64| -> f64 {
                let mut d = f64::from(v) - o;
                d -= (d / box_len).floor() * box_len;
                d
            };
            let dx = rel(xs[i], x0);
            let dy = rel(ys[i], y0);
            if dx >= ext || dy >= ext {
                continue;
            }
            let px = ((dx * scale) as usize).min(res - 1);
            let py = ((dy * scale) as usize).min(res - 1);
            pixels[px * res + py] += 1.0;
        }
        DensitySlice {
            res,
            pixels,
            window,
        }
    }

    /// Maximum pixel value.
    pub fn max(&self) -> f64 {
        self.pixels.iter().copied().fold(0.0, f64::max)
    }

    /// Mean pixel value.
    #[must_use] 
    pub fn mean(&self) -> f64 {
        self.pixels.iter().sum::<f64>() / self.pixels.len() as f64
    }

    /// Maximum density contrast `max/mean` (∞-safe: 0 when empty).
    #[must_use] 
    pub fn max_contrast(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.max() / m
        }
    }

    /// Write as a plain-text PGM image (log-scaled) for quick inspection.
    pub fn write_pgm(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "P2\n{} {}\n255", self.res, self.res)?;
        let max = self.max().max(1.0);
        for px in 0..self.res {
            for py in 0..self.res {
                let v = self.pixels[px * self.res + py];
                let g = ((1.0 + v).ln() / (1.0 + max).ln() * 255.0) as u32;
                write!(f, "{g} ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }

    /// Write a binary PPM with a dark-violet → orange → white colormap
    /// (log-scaled density), approximating the paper's Fig. 2/9 renders.
    pub fn write_ppm(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "P6\n{} {}\n255", self.res, self.res)?;
        let max = self.max().max(1.0);
        let mut buf = Vec::with_capacity(self.res * self.res * 3);
        for px in 0..self.res {
            for py in 0..self.res {
                let v = self.pixels[px * self.res + py];
                let t = (1.0 + v).ln() / (1.0 + max).ln();
                let [r, g, b] = colormap(t);
                buf.extend_from_slice(&[r, g, b]);
            }
        }
        f.write_all(&buf)
    }
}

/// Piecewise-linear density colormap: black → violet → orange → white.
fn colormap(t: f64) -> [u8; 3] {
    let t = t.clamp(0.0, 1.0);
    // Control points (t, r, g, b).
    const STOPS: [(f64, f64, f64, f64); 4] = [
        (0.0, 0.02, 0.0, 0.08),
        (0.4, 0.35, 0.05, 0.55),
        (0.75, 0.95, 0.55, 0.15),
        (1.0, 1.0, 1.0, 0.95),
    ];
    let mut lo = STOPS[0];
    let mut hi = STOPS[STOPS.len() - 1];
    for w in STOPS.windows(2) {
        if t >= w[0].0 && t <= w[1].0 {
            lo = w[0];
            hi = w[1];
            break;
        }
    }
    let f = if hi.0 > lo.0 { (t - lo.0) / (hi.0 - lo.0) } else { 0.0 };
    let lerp = |a: f64, b: f64| ((a + f * (b - a)) * 255.0) as u8;
    [lerp(lo.1, hi.1), lerp(lo.2, hi.2), lerp(lo.3, hi.3)]
}

/// 3-D density-contrast statistics on a grid: returns
/// `(max δ, rms δ, fraction of empty cells)`.
#[must_use] 
pub fn density_contrast_stats(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    box_len: f64,
    mesh: usize,
) -> (f64, f64, f64) {
    let to_grid = mesh as f64 / box_len;
    let gx: Vec<f32> = xs.iter().map(|&v| (f64::from(v) * to_grid) as f32).collect();
    let gy: Vec<f32> = ys.iter().map(|&v| (f64::from(v) * to_grid) as f32).collect();
    let gz: Vec<f32> = zs.iter().map(|&v| (f64::from(v) * to_grid) as f32).collect();
    let mut grid = vec![0.0f64; mesh * mesh * mesh];
    deposit_cic(&mut grid, mesh, &gx, &gy, &gz, 1.0);
    let mean = xs.len() as f64 / grid.len() as f64;
    let mut max_delta: f64 = 0.0;
    let mut sum2 = 0.0;
    let mut empty = 0usize;
    for &v in &grid {
        let d = v / mean - 1.0;
        max_delta = max_delta.max(d);
        sum2 += d * d;
        if v == 0.0 {
            empty += 1;
        }
    }
    (
        max_delta,
        (sum2 / grid.len() as f64).sqrt(),
        empty as f64 / grid.len() as f64,
    )
}

/// Nested zoom levels: density contrast of progressively smaller windows
/// centered on the densest region (the Fig. 2 "zoom-in" series).
#[must_use] 
pub fn zoom_series(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    box_len: f64,
    levels: usize,
    res: usize,
) -> Vec<(f64, f64)> {
    // Find the densest pixel of the full-box projection.
    let full = DensitySlice::project(
        xs,
        ys,
        zs,
        box_len,
        (0.0, box_len),
        (0.0, 0.0, box_len),
        res,
    );
    let imax = full
        .pixels
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let cx = (imax / res) as f64 / res as f64 * box_len;
    let cy = (imax % res) as f64 / res as f64 * box_len;
    let mut out = Vec::new();
    let mut ext = box_len;
    for _ in 0..levels {
        let slice = DensitySlice::project(
            xs,
            ys,
            zs,
            box_len,
            (0.0, box_len),
            (cx - ext / 2.0, cy - ext / 2.0, ext),
            res,
        );
        out.push((ext, slice.max_contrast()));
        ext /= 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_counts_all_in_range() {
        let xs = vec![1.0f32, 5.0, 9.0];
        let ys = vec![1.0f32, 5.0, 9.0];
        let zs = vec![2.0f32, 5.0, 9.5];
        let s = DensitySlice::project(
            &xs,
            &ys,
            &zs,
            10.0,
            (0.0, 6.0),
            (0.0, 0.0, 10.0),
            4,
        );
        let total: f64 = s.pixels.iter().sum();
        assert_eq!(total, 2.0, "only z<6 particles counted");
    }

    #[test]
    fn window_respects_periodicity() {
        // Window starting near the box edge must wrap.
        let xs = vec![0.5f32];
        let ys = vec![0.5f32];
        let zs = vec![5.0f32];
        let s = DensitySlice::project(
            &xs,
            &ys,
            &zs,
            10.0,
            (0.0, 10.0),
            (9.0, 9.0, 2.0),
            2,
        );
        let total: f64 = s.pixels.iter().sum();
        assert_eq!(total, 1.0, "wrapped particle missed");
    }

    #[test]
    fn contrast_of_clustered_vs_uniform() {
        // Uniform lattice: contrast ~1. One clump: much larger.
        let mut ux = Vec::new();
        let mut uy = Vec::new();
        let mut uz = Vec::new();
        for i in 0..16 {
            for j in 0..16 {
                for k in 0..16 {
                    ux.push(i as f32 * 0.5 + 0.25);
                    uy.push(j as f32 * 0.5 + 0.25);
                    uz.push(k as f32 * 0.5 + 0.25);
                }
            }
        }
        let (dmax_u, _, _) = density_contrast_stats(&ux, &uy, &uz, 8.0, 8);
        assert!(dmax_u.abs() < 0.01, "uniform contrast {dmax_u}");
        let cx = vec![4.0f32; 4096];
        let (dmax_c, _, empty) = density_contrast_stats(&cx, &cx, &cx, 8.0, 8);
        assert!(dmax_c > 100.0, "clustered contrast {dmax_c}");
        assert!(empty > 0.9);
    }

    #[test]
    fn zoom_series_contrast_grows() {
        // A point clump: zooming in raises max/mean contrast until the
        // window contains mostly clump.
        let mut xs = vec![];
        let mut ys = vec![];
        let mut zs = vec![];
        // Background lattice.
        for i in 0..10 {
            for j in 0..10 {
                xs.push(i as f32 + 0.5);
                ys.push(j as f32 + 0.5);
                zs.push(5.0);
            }
        }
        // Tight clump.
        for _ in 0..500 {
            xs.push(3.3);
            ys.push(7.7);
            zs.push(5.0);
        }
        let series = zoom_series(&xs, &ys, &zs, 10.0, 3, 32);
        assert_eq!(series.len(), 3);
        assert!(series[0].0 > series[2].0);
        assert!(series[0].1 > 1.0);
    }

    #[test]
    fn pgm_output_wellformed() {
        let s = DensitySlice::project(
            &[1.0],
            &[1.0],
            &[1.0],
            4.0,
            (0.0, 4.0),
            (0.0, 0.0, 4.0),
            4,
        );
        let dir = std::env::temp_dir().join("hacc_slice_test.pgm");
        s.write_pgm(&dir).expect("write pgm");
        let content = std::fs::read_to_string(&dir).expect("read back");
        assert!(content.starts_with("P2\n4 4\n255"));
        let _ = std::fs::remove_file(&dir);
    }
}
