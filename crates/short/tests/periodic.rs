//! Periodic axes of the RCB tree against the f64 minimum-image oracle.
//!
//! The tree stores no image particles: a periodic axis pairs leaves by
//! their minimum-image box gap and hands the kernel a per-leaf-pair
//! shift. These cases pin each part of that: all three axes periodic, a
//! slab with x open, a box so small that one leaf spans more than
//! `P − reach` (a leaf meets its own images, under mixed-sign shifts
//! too), and a refreshed tree whose particles crossed a periodic face
//! since the build. The last test runs the benchmark's scale (48³
//! particles, one per cell) in release mode only.

mod common;

use common::{max_rel_err, oracle_at, Cloud};
use hacc_short::{ForceKernel, RcbTree, TreeParams, TreeScratch};

/// Deterministic xorshift positions in `[0, side[a])` per axis.
fn particles(np: usize, side: [f32; 3], seed: u64) -> Cloud {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) as f32
    };
    let mut c: Cloud = Default::default();
    for _ in 0..np {
        for (col, &l) in c.iter_mut().zip(&side) {
            // `x·l` can round up to `l` itself; keep the half-open box.
            col.push((next() * l).min(l * (1.0 - f32::EPSILON)));
        }
    }
    c
}

fn build(c: &Cloud, leaf_size: usize, periods: [f32; 3]) -> RcbTree {
    let mass = vec![1.0; c[0].len()];
    let mut tree = RcbTree::build(&c[0], &c[1], &c[2], &mass, TreeParams { leaf_size });
    tree.set_periods(periods);
    tree
}

/// The tree's forces (pair list widened by `slack`) on `targets` match
/// the minimum-image oracle over `periods` at the tree's current
/// coordinates `c`, and the kernel saw every directed pair inside the
/// cutoff.
fn assert_matches(
    tree: &RcbTree,
    k: &ForceKernel,
    slack: f32,
    periods: [f32; 3],
    c: &Cloud,
    targets: &[usize],
    what: &str,
) {
    let mut got = [Vec::new(), Vec::new(), Vec::new()];
    let rep = tree.forces_symmetric_into(k, slack, &mut TreeScratch::default(), &mut got);
    let (want, in_range) = oracle_at(k, c, periods.map(f64::from), targets);
    assert!(in_range > 0, "{what}: the case must have pairs in range");
    let got = got.map(|col| targets.iter().map(|&t| col[t]).collect::<Vec<f32>>());
    let err = max_rel_err(&want, &got);
    assert!(err < 2e-3, "{what}: tree vs minimum-image oracle, max rel err {err:.3e}");
    if targets.len() == c[0].len() {
        assert!(
            rep.directed >= in_range,
            "{what}: {} directed < {in_range} in range",
            rep.directed
        );
    }
}

fn all(n: usize) -> Vec<usize> {
    (0..n).collect()
}

#[test]
fn fully_periodic_box_matches_minimum_image_oracle() {
    let k = ForceKernel::newtonian(2.5, 1e-4);
    let p = 12.0;
    let c = particles(700, [p; 3], 3);
    let tree = build(&c, 24, [p; 3]);
    assert_matches(&tree, &k, 0.0, [p; 3], &c, &all(700), "periodic box");
}

#[test]
fn slab_with_open_x_matches_minimum_image_oracle() {
    // x open (the overloaded slab's axis), y and z periodic.
    let k = ForceKernel::newtonian(2.5, 1e-4);
    let c = particles(500, [10.0, 9.0, 9.0], 7);
    let periods = [0.0, 9.0, 9.0];
    let tree = build(&c, 24, periods);
    assert_matches(&tree, &k, 0.0, periods, &c, &all(500), "slab");
}

#[test]
fn leaf_wider_than_period_minus_reach_meets_its_own_images() {
    // P = 5.5 > 2·r_cut, and a leaf of the whole box spans more than
    // P − r_cut = 3 on every axis: the leaf pairs with itself under every
    // image shift, mixed signs included. Several leaves as well, so
    // shifted pairs of distinct leaves mix with shifted self pairs.
    let k = ForceKernel::newtonian(2.5, 1e-4);
    let p = 5.5;
    let c = particles(60, [p; 3], 11);
    let one = build(&c, 64, [p; 3]);
    assert_eq!(one.leaf_count(), 1);
    assert_matches(&one, &k, 0.0, [p; 3], &c, &all(60), "one leaf");
    let several = build(&c, 16, [p; 3]);
    assert!(several.leaf_count() > 1);
    assert_matches(&several, &k, 0.0, [p; 3], &c, &all(60), "several leaves");
}

#[test]
fn refresh_across_a_periodic_face_matches_oracle() {
    // Build, then move every particle by less than skin/2 — those near
    // the x = 0 and y = P faces outward through them — and refresh the
    // stale tree: coordinates stay continuous (unwrapped), and the
    // skin-widened minimum-image pair list still holds every pair.
    let k = ForceKernel::newtonian(2.0, 1e-4);
    let (p, skin) = (10.0f32, 0.6f32);
    let c0 = particles(600, [p; 3], 17);
    let mut tree = build(&c0, 24, [p; 3]);
    let step = 0.9 * skin / 2.0;
    let amp = step / 3.0f32.sqrt();
    let moved: Vec<[f32; 3]> = (0..600)
        .map(|i| {
            let [x, y, z] = [0, 1, 2].map(|a| c0[a][i]);
            let d = if x < step {
                [-step, 0.0, 0.0]
            } else if y > p - step {
                [0.0, step, 0.0]
            } else {
                let w = (i as f32 * 0.618).fract() * 2.0 - 1.0;
                [amp * w, -amp * w, amp * (1.0 - w.abs())]
            };
            [x + d[0], y + d[1], z + d[2]]
        })
        .collect();
    let c: Cloud = [0, 1, 2].map(|a| moved.iter().map(|m| m[a]).collect());
    let crossed = moved.iter().filter(|m| m[0] < 0.0 || m[1] >= p).count();
    assert!(crossed > 0, "some particle must cross a face");
    tree.refresh_positions(&c[0], &c[1], &c[2]);
    assert_matches(&tree, &k, skin, [p; 3], &c, &all(600), "refreshed across a face");
}

/// The benchmark's scale and density: 48³ particles in a 48-cell
/// periodic box, `r_cut = 3` cells and a 0.25-cell skin, the tree
/// refreshed after a jitter below half the skin; 2,000 targets spread
/// over the index range against all sources.
#[test]
#[ignore = "benchmark scale: run with --release -- --include-ignored"]
fn benchmark_scale_periodic_box_matches_sampled_oracle() {
    let k = ForceKernel::newtonian(3.0, 1e-4);
    let (p, skin) = (48.0f32, 0.25f32);
    let n = 48 * 48 * 48;
    let mut c = particles(n, [p; 3], 48);
    let mut tree = build(&c, 128, [p; 3]);
    let amp = 0.9 * skin / (2.0 * 3.0f32.sqrt());
    for (a, col) in c.iter_mut().enumerate() {
        for (i, v) in col.iter_mut().enumerate() {
            *v += amp * ((i * 7 + a * 3) as f32 * 0.618).fract().mul_add(2.0, -1.0);
        }
    }
    tree.refresh_positions(&c[0], &c[1], &c[2]);
    let targets: Vec<usize> = (0..2000).map(|i| i * n / 2000).collect();
    assert_matches(&tree, &k, skin, [p; 3], &c, &targets, "48³ sampled");
}
