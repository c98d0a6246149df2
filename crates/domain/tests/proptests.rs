//! Property-based tests of the overloading decomposition.

use hacc_comm::Machine;
use hacc_domain::{refresh, Decomposition, Packed, Particles};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every (wrapped) position has exactly one owner, and that owner's
    /// domain contains it.
    #[test]
    fn ownership_partition(
        dims in (1usize..4, 1usize..4, 1usize..3),
        pos in prop::collection::vec((-50.0f64..150.0, -50.0f64..150.0, -50.0f64..150.0), 1..40),
    ) {
        let d = Decomposition::new([dims.0, dims.1, dims.2], 100.0, 5.0);
        for &(x, y, z) in &pos {
            let p = [x, y, z];
            let owner = d.owner_of(p);
            prop_assert!(owner < d.ranks());
            let (lo, hi) = d.domain_of(owner);
            let w = [d.wrap(x), d.wrap(y), d.wrap(z)];
            for c in 0..3 {
                prop_assert!(w[c] >= lo[c] - 1e-9 && w[c] < hi[c] + 1e-9,
                    "wrapped {:?} outside owner domain [{:?}, {:?})", w, lo, hi);
            }
        }
    }

    /// Overload targets never include the owner (no self images, even
    /// along the one-block z axis), and every target's *expanded* domain
    /// contains the shifted position.
    #[test]
    fn overload_targets_consistent(
        pos in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0), 1..30),
    ) {
        let d = Decomposition::new([2, 2, 1], 100.0, 8.0);
        for &(x, y, z) in &pos {
            let p = [x, y, z];
            let owner = d.owner_of(p);
            for (rank, shift) in d.overload_targets(p) {
                prop_assert!(rank != owner, "self image {:?} of {:?}", shift, p);
                let (lo, hi) = d.domain_of(rank);
                for c in 0..3 {
                    let s = p[c] + shift[c];
                    prop_assert!(
                        s >= lo[c] - 8.0 - 1e-9 && s < hi[c] + 8.0 + 1e-9,
                        "shifted coord {} outside expanded domain [{}, {})",
                        s, lo[c] - 8.0, hi[c] + 8.0
                    );
                }
            }
        }
    }

    /// refresh conserves active particles and ids for arbitrary particle
    /// placements (including out-of-box positions that must migrate).
    #[test]
    fn refresh_conserves_particles(
        pos in prop::collection::vec((-20.0f32..120.0, -20.0f32..120.0, -20.0f32..120.0), 1..60),
    ) {
        let count = pos.len();
        let positions = pos.clone();
        let (res, _) = Machine::new(4).run(move |comm| {
            let d = Decomposition::new([4, 1, 1], 100.0, 6.0);
            let mut parts = Particles::default();
            if comm.rank() == 0 {
                for (i, &(x, y, z)) in positions.iter().enumerate() {
                    parts.push(Packed {
                        x, y, z,
                        vx: 0.0, vy: 0.0, vz: 0.0,
                        id: i as u64,
                    });
                }
                parts.n_active = positions.len();
            }
            refresh(&comm, &d, &mut parts);
            let mut ids: Vec<u64> = parts.id[..parts.n_active].to_vec();
            ids.sort_unstable();
            (parts.n_active, ids)
        });
        let total: usize = res.iter().map(|(n, _)| n).sum();
        prop_assert_eq!(total, count);
        let mut all: Vec<u64> = res.into_iter().flat_map(|(_, ids)| ids).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..count as u64).collect::<Vec<_>>());
    }
}
