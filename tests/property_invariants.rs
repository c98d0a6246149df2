//! Property-based tests (proptest) over the core numerical invariants.

use hacc::fft::{Complex64, Fft1d, Fft3};
use hacc::pm::{deposit_cic, interpolate_cic};
use hacc::short::{ForceKernel, RcbTree, TreeParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FFT round-trip is the identity for arbitrary lengths and data —
    /// including primes (Bluestein) and mixed-radix composites.
    #[test]
    fn fft1d_roundtrip(
        n in 1usize..200,
        seed in any::<u64>(),
    ) {
        let plan = Fft1d::new(n);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let orig: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let mut data = orig.clone();
        let mut scratch = plan.make_scratch();
        plan.forward(&mut data, &mut scratch);
        plan.backward(&mut data, &mut scratch);
        for (a, b) in data.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// Parseval's theorem holds for arbitrary signals.
    #[test]
    fn fft1d_parseval(n in 2usize..128, seed in any::<u64>()) {
        let plan = Fft1d::new(n);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let orig: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let mut data = orig.clone();
        let mut scratch = plan.make_scratch();
        plan.forward(&mut data, &mut scratch);
        let t: f64 = orig.iter().map(|v| v.norm_sqr()).sum();
        let f: f64 = data.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((t - f).abs() < 1e-8 * t.max(1.0));
    }

    /// 3-D FFT linearity: F(a·x + y) = a·F(x) + F(y).
    #[test]
    fn fft3_linearity(seed in any::<u64>(), scale in -3.0f64..3.0) {
        let n = 6;
        let plan = Fft3::new_cubic(n);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let a: Vec<Complex64> = (0..n*n*n).map(|_| Complex64::new(next(), next())).collect();
        let b: Vec<Complex64> = (0..n*n*n).map(|_| Complex64::new(next(), next())).collect();
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let mut combo: Vec<Complex64> = a.iter().zip(&b)
            .map(|(x, y)| x.scale(scale) + *y).collect();
        plan.forward(&mut combo);
        for ((x, y), z) in fa.iter().zip(&fb).zip(&combo) {
            prop_assert!((x.scale(scale) + *y - *z).abs() < 1e-8);
        }
    }

    /// CIC deposit conserves total mass for any particle placement
    /// (including out-of-box positions that must wrap).
    #[test]
    fn cic_mass_conservation(
        positions in prop::collection::vec((-20.0f32..40.0, -20.0f32..40.0, -20.0f32..40.0), 1..200),
        mass in 0.1f64..10.0,
    ) {
        let n = 8;
        let xs: Vec<f32> = positions.iter().map(|p| p.0).collect();
        let ys: Vec<f32> = positions.iter().map(|p| p.1).collect();
        let zs: Vec<f32> = positions.iter().map(|p| p.2).collect();
        let mut grid = vec![0.0; n * n * n];
        deposit_cic(&mut grid, n, &xs, &ys, &zs, mass);
        let total: f64 = grid.iter().sum();
        prop_assert!((total - mass * xs.len() as f64).abs() < 1e-6 * total.max(1.0));
        prop_assert!(grid.iter().all(|&v| v >= 0.0));
    }

    /// CIC interpolation of a constant field returns the constant at any
    /// sampling position (partition of unity).
    #[test]
    fn cic_partition_of_unity(
        x in -5.0f32..15.0, y in -5.0f32..15.0, z in -5.0f32..15.0, c in -10.0f64..10.0,
    ) {
        let n = 6;
        let grid = vec![c; n * n * n];
        let v = interpolate_cic(&grid, n, &[x], &[y], &[z]);
        prop_assert!((f64::from(v[0]) - c).abs() < 1e-4 * c.abs().max(1.0));
    }

    /// The RCB tree's particle reordering is always a permutation, for
    /// any particle distribution and leaf size.
    #[test]
    fn rcb_partition_is_permutation(
        positions in prop::collection::vec((0.0f32..10.0, 0.0f32..10.0, 0.0f32..10.0), 1..300),
        leaf_size in 1usize..64,
    ) {
        let xs: Vec<f32> = positions.iter().map(|p| p.0).collect();
        let ys: Vec<f32> = positions.iter().map(|p| p.1).collect();
        let zs: Vec<f32> = positions.iter().map(|p| p.2).collect();
        let m = vec![1.0f32; xs.len()];
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size });
        let mut seen = vec![false; xs.len()];
        for p in tree.permutation() {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Tree forces obey Newton's third law in aggregate (net force ~ 0)
    /// for arbitrary clustered distributions.
    #[test]
    fn tree_forces_sum_to_zero(
        positions in prop::collection::vec((0.0f32..8.0, 0.0f32..8.0, 0.0f32..8.0), 2..150),
    ) {
        let xs: Vec<f32> = positions.iter().map(|p| p.0).collect();
        let ys: Vec<f32> = positions.iter().map(|p| p.1).collect();
        let zs: Vec<f32> = positions.iter().map(|p| p.2).collect();
        let m = vec![1.0f32; xs.len()];
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: 16 });
        let kernel = ForceKernel::newtonian(3.0, 1e-4);
        let (f, _) = tree.forces(&kernel);
        for (c, comp) in f.iter().enumerate() {
            let sum: f64 = comp.iter().map(|&v| f64::from(v)).sum();
            let mag: f64 = comp.iter().map(|&v| f64::from(v.abs())).sum::<f64>().max(1e-6);
            prop_assert!(sum.abs() < 1e-3 * mag.max(1.0), "component {} sum {}", c, sum);
        }
    }

    /// Kernel cutoff: the force factor is exactly zero at and beyond the
    /// cutoff, and finite below it.
    #[test]
    fn kernel_cutoff_respected(s in 0.0f32..20.0) {
        let k = ForceKernel::new([0.05, -0.01, 0.001, 0.0, 0.0, 0.0], 2.5, 1e-5);
        let f = k.factor(s);
        if s >= 2.5 * 2.5 || s == 0.0 {
            prop_assert_eq!(f, 0.0);
        } else {
            prop_assert!(f.is_finite());
        }
    }
}
