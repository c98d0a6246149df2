//! The symmetric chunk path (leaf-pair walk → chunk-box cull → 8 × 8
//! rotation tile) against an oracle that shares no code with it: an f64
//! O(N²) sum over every pair inside the cutoff. Uniform, strongly
//! clustered and degenerate inputs, leaf sizes on both sides of the
//! chunk width, with and without a Verlet-skin refresh round.

mod common;

use common::{max_rel_err, oracle, Cloud};
use hacc_short::{ForceKernel, RcbTree, TreeParams, TreeScratch};

const LEAVES: [usize; 3] = [8, 24, 128];

fn xorshift(seed: u64) -> impl FnMut() -> f32 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) as f32
    }
}

fn uniform(np: usize, side: f32, seed: u64) -> Cloud {
    let mut u = xorshift(seed);
    let mut c: Cloud = Default::default();
    for _ in 0..np {
        for axis in c.iter_mut() {
            axis.push(u() * side);
        }
    }
    c
}

/// A few tight blobs (radius ≪ r_cut) far apart: most pairs are either
/// deep inside the cutoff or far outside it, leaves straddle blobs, and
/// chunk boxes range from tiny to box-sized.
fn clustered(np: usize, side: f32, seed: u64) -> Cloud {
    let mut u = xorshift(seed);
    let centers: Vec<[f32; 3]> = (0..4)
        .map(|_| [u() * side, u() * side, u() * side])
        .collect();
    let mut c: Cloud = Default::default();
    for i in 0..np {
        let center = centers[i % centers.len()];
        for (axis, mid) in c.iter_mut().zip(center) {
            axis.push(mid + (u() - 0.5) * 0.3);
        }
    }
    c
}

/// A kernel with every Horner coefficient live.
fn kernel(rcut: f32) -> ForceKernel {
    ForceKernel::new([0.1, -0.02, 0.003, -0.0004, 0.00005, -0.000006], rcut, 1e-4)
}

fn masses(c: &Cloud) -> Vec<f32> {
    vec![1.0; c[0].len()]
}

fn symmetric(tree: &RcbTree, k: &ForceKernel, slack: f32) -> ([Vec<f32>; 3], u64, u64) {
    let mut out: [Vec<f32>; 3] = Default::default();
    let rep = tree.forces_symmetric_into(k, slack, &mut TreeScratch::default(), &mut out);
    (out, rep.evals, rep.directed)
}

fn check_against_oracle(name: &str, c: &Cloud, k: &ForceKernel) {
    let (want, in_range) = oracle(k, c);
    for leaf in LEAVES {
        let tree = RcbTree::build(
            &c[0],
            &c[1],
            &c[2],
            &masses(c),
            TreeParams { leaf_size: leaf },
        );
        let (got, evals, directed) = symmetric(&tree, k, 0.0);
        assert_eq!(got[0].len(), c[0].len());
        assert_eq!(directed, 2 * evals);
        assert!(
            evals >= in_range,
            "{name} leaf {leaf}: {evals} evals < {in_range} pairs in range"
        );
        let err = max_rel_err(&want, &got);
        assert!(err < 2e-3, "{name} leaf {leaf}: force error {err:.2e}");
        // Newton-3 pairing: ΣF vanishes to f32 accumulation rounding.
        for comp in &got {
            let sum: f64 = comp.iter().map(|&v| f64::from(v)).sum();
            let mag: f64 = comp.iter().map(|&v| f64::from(v.abs())).sum();
            assert!(
                sum.abs() <= 1e-5 * mag.max(1.0),
                "{name} leaf {leaf}: ΣF = {sum:e}"
            );
        }
    }
}

#[test]
fn uniform_matches_f64_brute_force() {
    check_against_oracle("uniform", &uniform(700, 10.0, 11), &kernel(2.0));
}

#[test]
fn clustered_matches_f64_brute_force() {
    check_against_oracle("clustered", &clustered(600, 12.0, 23), &kernel(2.5));
}

/// Particle counts around the chunk width: no tail, one pad, seven pads.
#[test]
fn counts_around_the_chunk_width() {
    let k = kernel(3.0);
    for np in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 129] {
        let c = uniform(np, 2.5, 100 + np as u64);
        check_against_oracle(&format!("np={np}"), &c, &k);
    }
}

/// Everything inside one cutoff sphere: every real pair reaches the
/// kernel exactly once and no pad lane is ever counted.
#[test]
fn pads_never_count() {
    let k = kernel(3.0);
    for np in [2usize, 7, 9, 17, 100] {
        let c = uniform(np, 1.0, 7 + np as u64);
        for leaf in LEAVES {
            let tree = RcbTree::build(
                &c[0],
                &c[1],
                &c[2],
                &masses(&c),
                TreeParams { leaf_size: leaf },
            );
            let (_, evals, _) = symmetric(&tree, &k, 0.0);
            assert_eq!(evals, (np * (np - 1) / 2) as u64, "np={np} leaf={leaf}");
        }
    }
}

/// All particles coincident: every pair has `s = 0`, which the kernel's
/// select masks — the force is exactly zero, and the degenerate boxes
/// (zero extent at every level) must not hang the build or the ordering.
#[test]
fn coincident_particles_feel_nothing() {
    let k = kernel(2.0);
    for np in [9usize, 300] {
        let c: Cloud = [vec![1.5; np], vec![-2.0; np], vec![0.25; np]];
        for leaf in LEAVES {
            let tree = RcbTree::build(
                &c[0],
                &c[1],
                &c[2],
                &masses(&c),
                TreeParams { leaf_size: leaf },
            );
            let (got, _, _) = symmetric(&tree, &k, 0.0);
            assert!(
                got.iter().flatten().all(|&v| v == 0.0),
                "np={np} leaf={leaf}"
            );
        }
    }
}

/// A stale tree — leaf boxes frozen at build time, particles drifted by
/// less than half the skin, positions refreshed — still matches the
/// oracle at the *new* positions: the leaf list carries the skin, the
/// chunk boxes follow the particles.
#[test]
fn skin_refresh_round_matches_f64_brute_force() {
    let k = kernel(2.0);
    let skin = 0.4f32;
    for (name, mut c) in [
        ("uniform", uniform(600, 9.0, 31)),
        ("clustered", clustered(500, 9.0, 37)),
    ] {
        for leaf in LEAVES {
            let mut tree = RcbTree::new_empty(TreeParams { leaf_size: leaf });
            let mut scratch = TreeScratch::default();
            tree.rebuild(&c[0], &c[1], &c[2], &masses(&c), &mut scratch);
            // Per-component jitter under skin/(2√3): displacement < skin/2.
            let mut u = xorshift(leaf as u64 * 977);
            let amp = 0.95 * skin / (2.0 * 3.0f32.sqrt());
            for v in c.iter_mut().flatten() {
                *v += (2.0 * u() - 1.0) * amp;
            }
            tree.refresh_positions(&c[0], &c[1], &c[2]);
            let mut got: [Vec<f32>; 3] = Default::default();
            let rep = tree.forces_symmetric_into(&k, skin, &mut scratch, &mut got);
            let (want, in_range) = oracle(&k, &c);
            assert!(
                rep.evals >= in_range,
                "{name} leaf {leaf}: a pair in range was culled"
            );
            let err = max_rel_err(&want, &got);
            assert!(
                err < 2e-3,
                "{name} leaf {leaf}: force error {err:.2e} after refresh"
            );
        }
    }
}

/// Same tree, same bits — across repeated calls, and whether the scratch
/// is fresh or was last used by a different, larger problem (stale
/// accumulator contents outside the zeroed spans must never be read).
#[test]
fn bit_identical_across_calls_and_scratch_reuse() {
    let k = kernel(2.0);
    let c = clustered(500, 10.0, 41);
    let big = uniform(900, 10.0, 43);
    for leaf in LEAVES {
        let params = TreeParams { leaf_size: leaf };
        let tree = RcbTree::build(&c[0], &c[1], &c[2], &masses(&c), params);
        let (fresh, evals, _) = symmetric(&tree, &k, 0.0);

        let mut scratch = TreeScratch::default();
        let mut out: [Vec<f32>; 3] = Default::default();
        let other = RcbTree::build(&big[0], &big[1], &big[2], &masses(&big), params);
        other.forces_symmetric_into(&k, 0.3, &mut scratch, &mut out);
        for round in 0..2 {
            let rep = tree.forces_symmetric_into(&k, 0.0, &mut scratch, &mut out);
            assert_eq!(rep.evals, evals);
            assert_eq!(
                out, fresh,
                "leaf {leaf} round {round}: reused scratch changed the bits"
            );
        }
    }
}

/// The chunk cull is live and tight: on a uniform cloud at roughly the
/// benchmark's density per cutoff sphere, the kernel sees every pair in
/// range but no more than 8× that many. (The fat-leaf path without the
/// chunk level sat at 27×, so a silently disabled cull fails here.)
#[test]
fn list_efficiency_guard() {
    let k = kernel(3.0);
    let c = uniform(8000, 20.0, 53);
    let (_, in_range) = oracle(&k, &c);
    let tree = RcbTree::build(&c[0], &c[1], &c[2], &masses(&c), TreeParams::default());
    let (_, evals, _) = symmetric(&tree, &k, 0.0);
    assert!(evals >= in_range);
    assert!(
        evals <= 8 * in_range,
        "{evals} evaluations for {in_range} pairs in range: {:.1}×",
        evals as f64 / in_range as f64
    );
}
