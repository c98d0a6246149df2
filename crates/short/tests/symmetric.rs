//! Property-based tests of the symmetric dual-tree walk: for arbitrary
//! particle distributions the Newton-3 chunk-pair evaluation must
//! reproduce the per-leaf (one-sided) walk to f32 tolerance, conserve total momentum,
//! and the Verlet-skin reuse path (stale tree + refreshed coordinates)
//! must match a fresh build as long as no particle drifted farther than
//! half the skin.

use hacc_short::{ForceKernel, RcbTree, TreeParams, TreeScratch};
use proptest::prelude::*;

/// Deterministic xorshift positions in `[0, side)³`.
fn particles(np: usize, side: f32, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) as f32 * side
    };
    let xs: Vec<f32> = (0..np).map(|_| next()).collect();
    let ys: Vec<f32> = (0..np).map(|_| next()).collect();
    let zs: Vec<f32> = (0..np).map(|_| next()).collect();
    (xs, ys, zs, vec![1.0; np])
}

/// Max relative force error between two force sets, normalized by the
/// largest force magnitude (pointwise relative error explodes where the
/// true force passes through zero).
fn max_rel_err(a: &[Vec<f32>; 3], b: &[Vec<f32>; 3]) -> f64 {
    let scale = a
        .iter()
        .flat_map(|c| c.iter())
        .map(|&v| f64::from(v.abs()))
        .fold(1e-12, f64::max);
    let mut worst = 0.0f64;
    for c in 0..3 {
        for (&x, &y) in a[c].iter().zip(&b[c]) {
            worst = worst.max(f64::from((x - y).abs()) / scale);
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Symmetric walk ≡ one-sided walk for random particle counts, box
    /// sides, cutoffs and leaf sizes.
    #[test]
    fn symmetric_matches_one_sided(
        np in 2usize..400,
        seed in any::<u64>(),
        side in 4.0f32..20.0,
        rcut in 1.0f32..4.0,
        leaf in 8usize..64,
    ) {
        let (xs, ys, zs, m) = particles(np, side, seed);
        let kernel = ForceKernel::newtonian(rcut, 1e-4);
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: leaf });
        let (want, one_sided) = tree.forces(&kernel);
        let (got, directed) = tree.forces_symmetric(&kernel);
        // The symmetric path evaluates a subset of the one-sided walk's
        // leaf coverage: it skips the np self terms and every chunk pair
        // the box test puts beyond the cutoff (`tile_oracle.rs` pins the
        // lower bound: no pair in range is ever dropped).
        prop_assert!(directed + np as u64 <= one_sided);
        prop_assert!(
            max_rel_err(&want, &got) < 2e-3,
            "symmetric vs one-sided forces diverge: {}",
            max_rel_err(&want, &got)
        );
    }

    /// Total momentum (ΣF, accumulated in f64) vanishes under the
    /// symmetric walk — Newton's third law holds pairwise by
    /// construction.
    #[test]
    fn symmetric_conserves_momentum(
        np in 2usize..300,
        seed in any::<u64>(),
        leaf in 8usize..48,
    ) {
        let (xs, ys, zs, m) = particles(np, 10.0, seed);
        let kernel = ForceKernel::newtonian(2.5, 1e-4);
        let tree = RcbTree::build(&xs, &ys, &zs, &m, TreeParams { leaf_size: leaf });
        let (f, _) = tree.forces_symmetric(&kernel);
        for (c, comp) in f.iter().enumerate() {
            let sum: f64 = comp.iter().map(|&v| f64::from(v)).sum();
            let mag: f64 = comp.iter().map(|&v| f64::from(v.abs())).sum();
            prop_assert!(
                sum.abs() <= 1e-5 * mag.max(1e-12),
                "component {c}: ΣF = {sum:e}, Σ|F| = {mag:e}"
            );
        }
    }

    /// Skin reuse: build once with a skin, drift every particle by less
    /// than skin/2 (several rounds), refresh coordinates in the stale
    /// topology, and compare against a fresh build at the drifted
    /// positions. The inflated pair list plus the kernel's exact cutoff
    /// must reproduce the fresh forces.
    #[test]
    fn skin_reuse_matches_fresh_build(
        np in 16usize..250,
        seed in any::<u64>(),
        skin in 0.15f32..0.8,
        rounds in 1usize..4,
    ) {
        let side = 8.0;
        let (mut xs, mut ys, mut zs, m) = particles(np, side, seed);
        let kernel = ForceKernel::newtonian(2.0, 1e-4);
        let params = TreeParams { leaf_size: 16 };

        let mut stale = RcbTree::new_empty(params);
        let mut scratch = TreeScratch::default();
        stale.rebuild(&xs, &ys, &zs, &m, &mut scratch);
        let gen0 = stale.generation();

        // Deterministic jitter < skin/2 per round, clamped inside the box
        // so the fresh-build reference sees the same coordinates.
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        // Per-component jitter bounded by 0.9·skin/(2√3) in total across
        // all rounds, so each particle's 3-D displacement stays below
        // 0.9·skin/2 < skin/2 and the inflated pair list remains valid.
        let amp = 0.9 * skin / (2.0 * 3.0f32.sqrt());
        let mut jit = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s as f64 / u64::MAX as f64) as f32 * 2.0 - 1.0) * amp
        };
        for _ in 0..rounds {
            for v in xs.iter_mut().chain(ys.iter_mut()).chain(zs.iter_mut()) {
                *v = (*v + jit() / rounds as f32).clamp(0.0, side - 1e-3);
            }
        }

        stale.refresh_positions(&xs, &ys, &zs);
        let mut got = [Vec::new(), Vec::new(), Vec::new()];
        let rep = stale.forces_symmetric_into(&kernel, skin, &mut scratch, &mut got);
        prop_assert_eq!(stale.generation(), gen0, "refresh must not rebuild");
        prop_assert!(rep.evals > 0 || np < 2);

        let fresh = RcbTree::build(&xs, &ys, &zs, &m, params);
        let (want, _) = fresh.forces_symmetric(&kernel);
        prop_assert!(
            max_rel_err(&want, &got) < 2e-3,
            "stale-tree skin walk diverges from fresh build: {}",
            max_rel_err(&want, &got)
        );
    }
}
