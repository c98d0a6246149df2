//! Initial conditions: Gaussian random fields and Lagrangian
//! perturbation theory (Zel'dovich and 2LPT).
//!
//! HACC science runs start from a realization of the linear matter power
//! spectrum at high redshift (the paper's test run starts at z = 25,
//! production at z ≈ 200) with particles displaced from a uniform grid. One
//! pipeline over the r2c half-spectrum serves both orders:
//!
//! 1. draw a unit white-noise field on the `n³` grid (deterministic from a
//!    seed) and r2c-transform it — Hermitian symmetry comes for free;
//! 2. scale each mode by `√(P(k)·n³/V)` to obtain `δ₀(k)` (the *linear*
//!    field normalized to z = 0);
//! 3. every real field is one multiplier on a spectrum and one c2r: the
//!    displacement `ψ₀(k) = i·(k/k²)·δ₀(k)` (so `δ₀ = -∇·ψ₀`) and, for
//!    2LPT, the potential's second derivatives and the second-order
//!    displacement;
//! 4. particles: `x = q + Σ D·ψ(q)`, momentum `p = Σ a²·Ḋ·ψ(q)` over the
//!    orders, in box-length/`1/H0` units, matching the driver's kick/drift
//!    maps.
//!
//! At a Nyquist index `k ≡ -k`, so a multiplier with an odd number of
//! `k` factors sitting at their Nyquist indices is zeroed there: that
//! keeps every product Hermitian, which is what taking the real part of a
//! full complex inverse transform does implicitly.

use hacc_cosmo::LinearPower;
use hacc_fft::{k_of_index, Complex64, RealFft3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A particle realization ready for the simulation driver.
#[derive(Debug, Clone)]
pub struct IcsRealization {
    /// Grid/particle count per side.
    pub n: usize,
    /// Box side in Mpc/h.
    pub box_len: f64,
    /// Starting scale factor.
    pub a_init: f64,
    /// Positions, Mpc/h, wrapped into `[0, box_len)`.
    pub x: Vec<f32>,
    /// Position y.
    pub y: Vec<f32>,
    /// Position z.
    pub z: Vec<f32>,
    /// Momenta `p = a²ẋ` in (Mpc/h)·H0.
    pub vx: Vec<f32>,
    /// Momentum y.
    pub vy: Vec<f32>,
    /// Momentum z.
    pub vz: Vec<f32>,
    /// rms displacement at `a_init`, Mpc/h.
    pub rms_displacement: f64,
}

impl IcsRealization {
    /// Number of particles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when empty (never, for valid construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Generate a Zel'dovich realization with one particle per grid cell.
///
/// `n` is both the IC grid and particle count per side (`n³` particles).
/// Deterministic in `seed`.
#[must_use]
pub fn zeldovich(
    n: usize,
    box_len: f64,
    power: &LinearPower,
    a_init: f64,
    seed: u64,
) -> IcsRealization {
    let lpt = Lagrangian::new(n, box_len, power, seed);
    let [first, _] = growth(power, a_init);
    place(n, box_len, a_init, &[(first, lpt.displacement(&lpt.delta))])
}

/// Generate a second-order Lagrangian perturbation theory (2LPT)
/// realization.
///
/// Zel'dovich (1LPT) starts develop transients that decay only as `1/a`;
/// production codes therefore add the second-order displacement
///
/// ```text
/// ∇²φ⁽²⁾ = Σ_{i<j} [ φ,ii φ,jj − (φ,ij)² ],   x = q + D ψ⁽¹⁾ + D₂ ψ⁽²⁾
/// ```
///
/// with `D₂ ≈ -3/7 · D² · Ωm(a)^(-1/143)` and momenta carrying the
/// corresponding `f₂ ≈ 2 Ωm^(6/11)` growth rate. All second derivatives
/// of the first-order potential are computed spectrally. The first order
/// is [`zeldovich`]'s, mode by mode.
#[must_use]
pub fn zeldovich_2lpt(
    n: usize,
    box_len: f64,
    power: &LinearPower,
    a_init: f64,
    seed: u64,
) -> IcsRealization {
    let lpt = Lagrangian::new(n, box_len, power, seed);
    // φ,ij(k) = k_i k_j δ₀(k)/k².
    let phi = |i: usize, j: usize| lpt.field(&lpt.delta, &[i, j], Complex64::ONE);
    let [pxx, pyy, pzz] = [0, 1, 2].map(|c| phi(c, c));
    let mut src: Vec<f64> = (0..pxx.len())
        .map(|i| pxx[i] * pyy[i] + pxx[i] * pzz[i] + pyy[i] * pzz[i])
        .collect();
    for (i, j) in [(0, 1), (0, 2), (1, 2)] {
        for (s, v) in src.iter_mut().zip(phi(i, j)) {
            *s -= v * v;
        }
    }
    // ψ⁽²⁾(k) = i k/k² · src(k): src is the right-hand side of the
    // Poisson-like equation for φ⁽²⁾, whose gradient is ψ⁽²⁾.
    let [first, second] = growth(power, a_init);
    let orders = [
        (first, lpt.displacement(&lpt.delta)),
        (second, lpt.displacement(&lpt.forward(&src))),
    ];
    place(n, box_len, a_init, &orders)
}

/// Regular (undisplaced) grid load — useful for force tests and as a
/// "cold" start.
#[must_use]
pub fn uniform_grid(n: usize, box_len: f64) -> IcsRealization {
    place(n, box_len, 1.0, &[])
}

/// The linear field every order starts from, with the r2c plan and the
/// per-axis wavenumbers its multipliers read.
struct Lagrangian {
    fft: RealFft3,
    /// `k` at each index along an axis.
    k: Vec<f64>,
    /// `δ₀(k)` on the half-spectrum.
    delta: Vec<Complex64>,
}

/// One retained mode: its index and wavevector.
struct Mode {
    idx: [usize; 3],
    k: [f64; 3],
    k2: f64,
}

impl Lagrangian {
    fn new(n: usize, box_len: f64, power: &LinearPower, seed: u64) -> Self {
        assert!(n >= 2 && box_len > 0.0);
        let n3 = n * n * n;
        let mut lpt = Lagrangian {
            fft: RealFft3::new_cubic(n),
            k: (0..n).map(|i| k_of_index(i, n, box_len)).collect(),
            delta: Vec::new(),
        };
        // White noise, unit variance, deterministic. ⟨|W(k)|²⟩ = n³; want
        // ⟨|δ(k)|²⟩ = n⁶ P(k)/V.
        let mut rng = StdRng::seed_from_u64(seed);
        let noise: Vec<f64> = (0..n3).map(|_| gaussian(&mut rng)).collect();
        let mut delta = lpt.forward(&noise);
        let volume = box_len * box_len * box_len;
        for (v, m) in delta.iter_mut().zip(lpt.modes()) {
            *v = if m.k2 == 0.0 {
                Complex64::ZERO
            } else {
                v.scale((power.p_of_k(m.k2.sqrt()) * n3 as f64 / volume).sqrt())
            };
        }
        lpt.delta = delta;
        lpt
    }

    /// The half-spectrum of a real field.
    fn forward(&self, field: &[f64]) -> Vec<Complex64> {
        let mut spec = vec![Complex64::ZERO; self.fft.spectrum_len()];
        self.fft.forward(field, &mut spec);
        spec
    }

    /// The real field whose spectrum is `unit·Π_{a ∈ axes} k_a/k² · spec`,
    /// zero at `k = 0`. A mode at axis `a`'s Nyquist index is its own
    /// mirror along `a`, so an odd number of such factors makes the product
    /// anti-Hermitian there: it is zeroed, which is what the real part of
    /// a full complex inverse transform keeps.
    fn field(&self, spec: &[Complex64], axes: &[usize], unit: Complex64) -> Vec<f64> {
        let n = self.k.len();
        let mut prod: Vec<Complex64> = spec
            .iter()
            .zip(self.modes())
            .map(|(&v, m)| {
                let nyquist = axes.iter().filter(|&&a| 2 * m.idx[a] == n).count();
                if m.k2 == 0.0 || nyquist % 2 == 1 {
                    Complex64::ZERO
                } else {
                    unit.scale(axes.iter().map(|&a| m.k[a]).product::<f64>() / m.k2) * v
                }
            })
            .collect();
        let mut out = vec![0.0; self.fft.len()];
        self.fft.backward(&mut prod, &mut out);
        out
    }

    /// `ψ_c(k) = i·k_c/k²·spec(k)` along each axis `c`.
    fn displacement(&self, spec: &[Complex64]) -> [Vec<f64>; 3] {
        [0, 1, 2].map(|c| self.field(spec, &[c], Complex64::I))
    }

    /// Every retained mode, in half-spectrum order `[n][n][n/2 + 1]`.
    fn modes(&self) -> impl Iterator<Item = Mode> + '_ {
        let (n, nzh) = (self.k.len(), self.fft.nzh());
        (0..self.fft.spectrum_len()).map(move |i| {
            let idx = [i / (n * nzh), i / nzh % n, i % nzh];
            let k = idx.map(|j| self.k[j]);
            Mode {
                idx,
                k,
                k2: k[0] * k[0] + k[1] * k[1] + k[2] * k[2],
            }
        })
    }
}

/// `(D, a²·Ḋ)` of the first and second Lagrangian orders at `a`: `D` and
/// `Ḋ = D·f·E` from the growth table, and the standard 2LPT fits
/// `D₂ ≈ -3/7·D²·Ωm(a)^(-1/143)`, `f₂ ≈ 2·Ωm(a)^(6/11)`.
fn growth(power: &LinearPower, a: f64) -> [(f64, f64); 2] {
    assert!(a > 0.0 && a <= 1.0);
    let (g, cosmo) = (power.growth(), power.cosmology());
    let d = g.d_of_a(a);
    let om = cosmo.omega_m_of_a(a);
    let d2 = -3.0 / 7.0 * d * d * om.powf(-1.0 / 143.0);
    let d2_dot = d2 * 2.0 * om.powf(6.0 / 11.0) * cosmo.e_of_a(a);
    [(d, a * a * g.d_dot(a)), (d2, a * a * d2_dot)]
}

/// One Lagrangian order: its `(D, a²·Ḋ)` and its displacement field `ψ`.
type Order = ((f64, f64), [Vec<f64>; 3]);

/// Particles on the `n³` cell centres `q` (x-major order), each displaced
/// by `Σ D·ψ(q)` with momentum `Σ a²·Ḋ·ψ(q)` over the orders.
fn place(n: usize, box_len: f64, a_init: f64, orders: &[Order]) -> IcsRealization {
    let n3 = n * n * n;
    let cell = box_len / n as f64;
    let mut cols: [Vec<f32>; 6] = std::array::from_fn(|_| Vec::with_capacity(n3));
    let mut disp2 = 0.0;
    for idx in 0..n3 {
        let q = [idx / (n * n), idx / n % n, idx % n].map(|i| (i as f64 + 0.5) * cell);
        for c in 0..3 {
            let (mut dsp, mut mom) = (0.0, 0.0);
            for ((d, p), psi) in orders {
                dsp += d * psi[c][idx];
                mom += p * psi[c][idx];
            }
            disp2 += dsp * dsp;
            cols[c].push(wrap(q[c] + dsp, box_len) as f32);
            cols[3 + c].push(mom as f32);
        }
    }
    let [x, y, z, vx, vy, vz] = cols;
    IcsRealization {
        n,
        box_len,
        a_init,
        x,
        y,
        z,
        vx,
        vy,
        vz,
        rms_displacement: (disp2 / n3 as f64).sqrt(),
    }
}

/// `v` wrapped into `[0, l)`.
fn wrap(v: f64, l: f64) -> f64 {
    let w = v - (v / l).floor() * l;
    if w >= l {
        0.0
    } else {
        w
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_cosmo::{Cosmology, Transfer};

    fn power() -> LinearPower {
        LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle)
    }

    #[test]
    fn deterministic_in_seed() {
        let p = power();
        let a = zeldovich(8, 100.0, &p, 0.05, 42);
        let b = zeldovich(8, 100.0, &p, 0.05, 42);
        assert_eq!(a.x, b.x);
        assert_eq!(a.vz, b.vz);
        let c = zeldovich(8, 100.0, &p, 0.05, 43);
        assert_ne!(a.x, c.x);
    }

    #[test]
    fn particle_count_and_bounds() {
        let p = power();
        let ics = zeldovich(16, 200.0, &p, 0.04, 1);
        assert_eq!(ics.len(), 16 * 16 * 16);
        for &v in ics.x.iter().chain(&ics.y).chain(&ics.z) {
            assert!((0.0..200.0).contains(&f64::from(v)), "position {v}");
        }
    }

    #[test]
    fn displacement_has_linear_amplitude() {
        // Same seed, different epoch: the rms displacement is D(a) times
        // that of ψ₀, and small against the cell at early times.
        let p = power();
        let early = zeldovich(16, 400.0, &p, 0.02, 9);
        let later = zeldovich(16, 400.0, &p, 0.2, 9);
        let (r_early, r_late) = (early.rms_displacement, later.rms_displacement);
        assert!(
            r_early > 0.0 && r_early < 0.02 * 400.0 / 16.0,
            "rms {r_early}"
        );
        let growth_ratio = p.growth().d_of_a(0.2) / p.growth().d_of_a(0.02);
        assert!(
            (r_late / r_early / growth_ratio - 1.0).abs() < 1e-12,
            "{} vs {growth_ratio}",
            r_late / r_early
        );
    }

    #[test]
    fn displacement_has_zero_mean() {
        // ψ has no k = 0 mode: the particles' mean displacement and mean
        // momentum vanish to f32 rounding.
        let p = power();
        let (n, l) = (16, 300.0);
        let ics = zeldovich(n, l, &p, 0.05, 3);
        let grid = uniform_grid(n, l);
        let pairs = [
            (&ics.x, &grid.x, &ics.vx),
            (&ics.y, &grid.y, &ics.vy),
            (&ics.z, &grid.z, &ics.vz),
        ];
        for (xs, qs, ps) in pairs {
            let count = ics.len() as f64;
            let dx = xs
                .iter()
                .zip(qs)
                .map(|(&x, &q)| {
                    let d = f64::from(x - q);
                    d - (d / l).round() * l
                })
                .sum::<f64>()
                / count;
            let p_mean = ps.iter().map(|&v| f64::from(v)).sum::<f64>() / count;
            let p_rms = (ps.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>() / count).sqrt();
            assert!(
                dx.abs() < 2e-6 * ics.rms_displacement,
                "mean displacement {dx}"
            );
            assert!(
                p_mean.abs() < 1e-8 * p_rms,
                "mean momentum {p_mean} vs rms {p_rms}"
            );
        }
    }

    #[test]
    fn displacements_small_at_high_z() {
        // At z = 25 (a ≈ 0.038), rms displacement ≪ mean inter-particle
        // spacing for a production-like configuration.
        let p = power();
        let ics = zeldovich(16, 128.0, &p, 1.0 / 26.0, 5);
        let spacing = 128.0 / 16.0;
        assert!(
            ics.rms_displacement < 0.5 * spacing,
            "rms displacement {} vs spacing {spacing}",
            ics.rms_displacement
        );
        assert!(ics.rms_displacement > 0.0);
    }

    #[test]
    fn momenta_scale_with_p_factor() {
        // Same seed, different epoch: momentum ratio = (a²Ḋ) ratio.
        let p = power();
        let a1 = zeldovich(8, 100.0, &p, 0.05, 77);
        let a2 = zeldovich(8, 100.0, &p, 0.1, 77);
        let g = p.growth();
        let f1 = 0.05f64.powi(2) * g.d_dot(0.05);
        let f2 = 0.1f64.powi(2) * g.d_dot(0.1);
        let want = (f2 / f1) as f32;
        for i in (0..a1.len()).step_by(97) {
            if a1.vx[i].abs() > 1e-6 {
                let r = a2.vx[i] / a1.vx[i];
                assert!((r - want).abs() < 0.02 * want.abs(), "{r} vs {want}");
            }
        }
    }

    #[test]
    fn continuity_relation_velocity_displacement() {
        // Zel'dovich: momentum ∝ displacement per particle
        // (p = a²Ḋψ, Δx = Dψ): check proportionality constant.
        let p = power();
        let a = 0.08;
        let ics = zeldovich(8, 100.0, &p, a, 11);
        let grid = uniform_grid(8, 100.0);
        let g = p.growth();
        let c = (a * a * g.d_dot(a) / g.d_of_a(a)) as f32;
        for i in 0..ics.len() {
            let mut dx = ics.x[i] - grid.x[i];
            // Undo periodic wrapping.
            if dx > 50.0 {
                dx -= 100.0;
            }
            if dx < -50.0 {
                dx += 100.0;
            }
            let want = c * dx;
            assert!(
                (ics.vx[i] - want).abs() < 5e-3 * want.abs().max(0.05),
                "i={i}: {} vs {want}",
                ics.vx[i]
            );
        }
    }

    #[test]
    fn two_lpt_close_to_zeldovich_at_high_z() {
        // The 2LPT correction scales as D² — tiny at early times.
        let p = power();
        let a = 0.02;
        let z1 = zeldovich(12, 150.0, &p, a, 8);
        let z2 = zeldovich_2lpt(12, 150.0, &p, a, 8);
        let mut max_d = 0.0f32;
        let l = 150.0f32;
        for i in 0..z1.len() {
            let mut d = (z1.x[i] - z2.x[i]).abs();
            d = d.min(l - d);
            max_d = max_d.max(d);
        }
        // Displacements at a=0.02 are ~0.1 Mpc/h; the 2nd-order piece is
        // suppressed by another factor D·(3/7) ≈ 0.01.
        assert!(max_d < 0.05, "max 1LPT vs 2LPT diff {max_d}");
        assert!(max_d > 0.0, "2LPT identical to 1LPT — correction missing");
    }

    #[test]
    fn two_lpt_correction_grows_with_d_squared() {
        let p = power();
        let seed = 4;
        let diff_at = |a: f64| -> f64 {
            let z1 = zeldovich(12, 150.0, &p, a, seed);
            let z2 = zeldovich_2lpt(12, 150.0, &p, a, seed);
            let l = 150.0f32;
            (0..z1.len())
                .map(|i| {
                    let mut d = (z1.x[i] - z2.x[i]).abs();
                    d = d.min(l - d);
                    f64::from(d * d)
                })
                .sum::<f64>()
                .sqrt()
        };
        let d_early = diff_at(0.05);
        let d_late = diff_at(0.2);
        let g = p.growth();
        let want = (g.d_of_a(0.2) / g.d_of_a(0.05)).powi(2);
        let got = d_late / d_early;
        assert!(
            (got / want - 1.0).abs() < 0.15,
            "2LPT correction growth {got}, D² ratio {want}"
        );
    }

    #[test]
    fn two_lpt_deterministic_and_in_box() {
        let p = power();
        let a = zeldovich_2lpt(8, 100.0, &p, 0.1, 5);
        let b = zeldovich_2lpt(8, 100.0, &p, 0.1, 5);
        assert_eq!(a.x, b.x);
        for &v in a.x.iter().chain(&a.y).chain(&a.z) {
            assert!((0.0..100.0).contains(&f64::from(v)));
        }
        assert!(a.vx.iter().all(|v| v.is_finite()));
    }

    /// The full-spectrum pipeline the half-spectrum one replaced: each
    /// field is the real part of a c2c inverse transform, with no Nyquist
    /// rule of its own.
    fn c2c_realization(
        n: usize,
        l: f64,
        p: &LinearPower,
        a: f64,
        seed: u64,
        lpt2: bool,
    ) -> IcsRealization {
        use hacc_fft::Fft3;
        let fft = Fft3::new_cubic(n);
        let kv = |i: usize| [i / (n * n), i / n % n, i % n].map(|j| k_of_index(j, n, l));
        let k2 = |k: [f64; 3]| k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut delta: Vec<Complex64> = (0..n * n * n)
            .map(|_| Complex64::new(gaussian(&mut rng), 0.0))
            .collect();
        fft.forward(&mut delta);
        for (i, v) in delta.iter_mut().enumerate() {
            let kk = k2(kv(i));
            let s = if kk == 0.0 {
                0.0
            } else {
                (p.p_of_k(kk.sqrt()) * (n * n * n) as f64 / (l * l * l)).sqrt()
            };
            *v = v.scale(s);
        }
        let field = |spec: &[Complex64], m: &dyn Fn([f64; 3]) -> Complex64| -> Vec<f64> {
            let mut c: Vec<Complex64> = spec
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    if k2(kv(i)) == 0.0 {
                        Complex64::ZERO
                    } else {
                        m(kv(i)) * v
                    }
                })
                .collect();
            fft.backward(&mut c);
            c.iter().map(|v| v.re).collect()
        };
        let psi = |spec: &[Complex64]| {
            [0, 1, 2].map(|c| field(spec, &|k| Complex64::new(0.0, k[c] / k2(k))))
        };
        let [first, second] = growth(p, a);
        let mut orders = vec![(first, psi(&delta))];
        if lpt2 {
            let phi =
                |i: usize, j: usize| field(&delta, &|k| Complex64::new(k[i] * k[j] / k2(k), 0.0));
            let d = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)].map(|(i, j)| phi(i, j));
            let mut src: Vec<Complex64> = (0..n * n * n)
                .map(|i| {
                    let s = d[0][i] * d[1][i] + d[0][i] * d[2][i] + d[1][i] * d[2][i]
                        - d[3][i] * d[3][i]
                        - d[4][i] * d[4][i]
                        - d[5][i] * d[5][i];
                    Complex64::new(s, 0.0)
                })
                .collect();
            fft.forward(&mut src);
            orders.push((second, psi(&src)));
        }
        place(n, l, a, &orders)
    }

    #[test]
    fn half_spectrum_matches_c2c_oracle() {
        // Even n has Nyquist planes on every axis; odd n has none.
        let p = power();
        let (l, a) = (150.0, 0.1);
        for n in [8, 9] {
            for lpt2 in [false, true] {
                let got = if lpt2 {
                    zeldovich_2lpt(n, l, &p, a, 6)
                } else {
                    zeldovich(n, l, &p, a, 6)
                };
                let want = c2c_realization(n, l, &p, a, 6, lpt2);
                let pos = [(&got.x, &want.x), (&got.y, &want.y), (&got.z, &want.z)];
                for (g, w) in pos {
                    for (i, (&g, &w)) in g.iter().zip(w).enumerate() {
                        let d = f64::from(g - w).abs();
                        let d = d.min(l - d);
                        assert!(
                            d <= 1e-6 * l,
                            "n={n} 2lpt={lpt2} i={i}: position {g} vs {w}"
                        );
                    }
                }
                let mom = [
                    (&got.vx, &want.vx),
                    (&got.vy, &want.vy),
                    (&got.vz, &want.vz),
                ];
                for (g, w) in mom {
                    for (i, (&g, &w)) in g.iter().zip(w).enumerate() {
                        assert!(
                            (g - w).abs() <= 1e-6 * w.abs(),
                            "n={n} 2lpt={lpt2} i={i}: momentum {g} vs {w}"
                        );
                    }
                }
                let rel = got.rms_displacement / want.rms_displacement - 1.0;
                assert!(rel.abs() < 1e-12, "rms displacement off by {rel}");
            }
        }
    }

    #[test]
    fn uniform_grid_is_uniform() {
        let g = uniform_grid(4, 8.0);
        assert_eq!(g.len(), 64);
        assert_eq!(g.x[0], 1.0);
        assert!(g.vx.iter().all(|&v| v == 0.0));
    }
}
