//! Cartesian process topologies.
//!
//! HACC decomposes space into regular (non-cubic) 3-D blocks of ranks —
//! Table II lists geometries like `192x128x64`. `dims_create` factors a rank
//! count into a near-balanced grid the same way `MPI_Dims_create` does.

/// Factor `n` ranks into `ndims` near-equal dimensions, largest first
/// (the `MPI_Dims_create` contract).
#[must_use] 
pub fn dims_create(n: usize, ndims: usize) -> Vec<usize> {
    assert!(n > 0 && ndims > 0);
    let mut dims = vec![1usize; ndims];
    let mut rem = n;
    // Repeatedly peel the smallest prime factor and multiply it into the
    // currently smallest dimension.
    let mut factors = Vec::new();
    let mut f = 2;
    while f * f <= rem {
        while rem.is_multiple_of(f) {
            factors.push(f);
            rem /= f;
        }
        f += 1;
    }
    if rem > 1 {
        factors.push(rem);
    }
    // Largest factors first so they spread across dimensions.
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let i = (0..ndims).min_by_key(|&i| dims[i]).expect("ndims > 0");
        dims[i] *= f;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_create_balanced() {
        assert_eq!(dims_create(8, 3), vec![2, 2, 2]);
        assert_eq!(dims_create(16, 3), vec![4, 2, 2]);
        assert_eq!(dims_create(12, 3), vec![3, 2, 2]);
        assert_eq!(dims_create(7, 3), vec![7, 1, 1]);
        assert_eq!(dims_create(1, 3), vec![1, 1, 1]);
        assert_eq!(dims_create(6, 2), vec![3, 2]);
    }

    #[test]
    fn dims_create_product_invariant() {
        for n in 1..=64 {
            let d = dims_create(n, 3);
            assert_eq!(d.iter().product::<usize>(), n, "n = {n}");
        }
    }
}
