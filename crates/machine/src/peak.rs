//! Host peak-flops calibration.
//!
//! Fig. 5 reports the force kernel as a *percentage of node peak*. To frame
//! our measurements the same way we need the host's achievable peak; this
//! module measures it with a saturating chain of independent FMAs — the
//! same kind of upper bound the paper derives from QPX issue rates.

use std::time::Instant;

/// Independent vector FMA chains per burst iteration: eight hide a
/// 4-cycle FMA latency on two issue ports.
const CHAINS: usize = 8;

/// Measure achievable single-precision flops/s using `threads` OS threads,
/// each running independent FMA chains for roughly `millis` milliseconds.
///
/// Returns flops per second (an FMA counts as 2 flops).
#[must_use]
pub fn calibrate_peak_flops(threads: usize, millis: u64) -> f64 {
    assert!(threads > 0);
    let iters_guess: u64 = 4_000_000;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let mut total_flops = 0.0f64;
                let mut elapsed = 0.0f64;
                let mut iters = iters_guess;
                while elapsed * 1e3 < millis as f64 {
                    let start = Instant::now();
                    let (acc, lanes) = fma_burst(iters, 1.0 + t as f32 * 1e-7);
                    elapsed += start.elapsed().as_secs_f64();
                    // `lanes` × CHAINS × 2 flops per FMA per iteration.
                    total_flops += iters as f64 * lanes as f64 * CHAINS as f64 * 2.0;
                    std::hint::black_box(acc);
                    iters = iters.saturating_mul(2);
                }
                total_flops / elapsed
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("calibration thread"))
        .sum()
}

/// A burst of `iters` iterations over [`CHAINS`] interleaved FMA chains
/// at the widest width the force kernel dispatches to (`hacc-short`'s
/// `simd::detect`), and the lanes per FMA it ran: 16-lane AVX-512F
/// intrinsics where the CPU has AVX-512F, AVX2 and FMA (the symmetric
/// tile's width there), 8-lane AVX2+FMA ones where it has the last two,
/// else the 8-lane portable loop. The dispatch is what makes this a roof:
/// without the `fma` target feature `f32::mul_add` lowers to a libm call,
/// and the auto-vectorizer folds or scalarizes the lanes as it pleases.
fn fma_burst(iters: u64, seed: f32) -> (f32, usize) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the (std-cached) CPUID checks above confirmed
            // AVX-512F, the target feature the callee enables.
            return (unsafe { fma_burst_avx512(iters, seed) }, 16);
        }
        // SAFETY: the (std-cached) CPUID check above confirmed AVX2 and
        // FMA, exactly the target-feature set the callee enables.
        return (unsafe { fma_burst_avx2(iters, seed) }, 8);
    }
    (fma_burst_portable(iters, seed), 8)
}

/// First value of lane `i` of chain `k`. Every lane differs, so no
/// compiler can fold a chain's lanes into one scalar.
fn lane_seed(seed: f32, k: usize, i: usize) -> f32 {
    seed + 0.1 * k as f32 + 0.01 * i as f32
}

/// Per-chain multiplier and addend; alternating signs keep every
/// accumulator bounded however long the burst runs.
const MUL: [f32; 2] = [0.999_9, 1.000_1];
const ADD: [f32; 2] = [1e-9, -1e-9];

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,fma")]
#[inline(never)]
fn fma_burst_avx2(iters: u64, seed: f32) -> f32 {
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_set1_ps, _mm256_setr_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let mul = MUL.map(|m| _mm256_set1_ps(m));
    let add = ADD.map(|a| _mm256_set1_ps(a));
    let mut acc = std::array::from_fn::<_, CHAINS, _>(|k| {
        let l = |i| lane_seed(seed, k, i);
        _mm256_setr_ps(l(0), l(1), l(2), l(3), l(4), l(5), l(6), l(7))
    });
    for _ in 0..iters {
        for (k, chain) in acc.iter_mut().enumerate() {
            *chain = _mm256_fmadd_ps(*chain, mul[k % 2], add[k % 2]);
        }
    }
    let total = acc
        .into_iter()
        .fold(_mm256_setzero_ps(), |s, v| _mm256_add_ps(s, v));
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is exactly 8 f32s, matching the 256-bit store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), total) };
    lanes.iter().sum()
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
#[inline(never)]
fn fma_burst_avx512(iters: u64, seed: f32) -> f32 {
    use core::arch::x86_64::{
        _mm512_add_ps, _mm512_fmadd_ps, _mm512_reduce_add_ps, _mm512_set1_ps, _mm512_setr_ps,
        _mm512_setzero_ps,
    };
    let mul = MUL.map(|m| _mm512_set1_ps(m));
    let add = ADD.map(|a| _mm512_set1_ps(a));
    let mut acc = std::array::from_fn::<_, CHAINS, _>(|k| {
        let l = |i| lane_seed(seed, k, i);
        _mm512_setr_ps(
            l(0),
            l(1),
            l(2),
            l(3),
            l(4),
            l(5),
            l(6),
            l(7),
            l(8),
            l(9),
            l(10),
            l(11),
            l(12),
            l(13),
            l(14),
            l(15),
        )
    });
    for _ in 0..iters {
        for (k, chain) in acc.iter_mut().enumerate() {
            *chain = _mm512_fmadd_ps(*chain, mul[k % 2], add[k % 2]);
        }
    }
    let total = acc
        .into_iter()
        .fold(_mm512_setzero_ps(), |s, v| _mm512_add_ps(s, v));
    _mm512_reduce_add_ps(total)
}

#[inline(never)]
fn fma_burst_portable(iters: u64, seed: f32) -> f32 {
    let mut acc: [[f32; 8]; CHAINS] =
        std::array::from_fn(|k| std::array::from_fn(|i| lane_seed(seed, k, i)));
    for _ in 0..iters {
        for (k, chain) in acc.iter_mut().enumerate() {
            for lane in chain {
                *lane = lane.mul_add(MUL[k % 2], ADD[k % 2]);
            }
        }
    }
    acc.iter().flatten().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_returns_plausible_rate() {
        let f = calibrate_peak_flops(1, 30);
        // Any machine this runs on does between 100 MFlops and 1 TFlops
        // per core with this scalar-fallback kernel.
        assert!(f > 1e8 && f < 1e12, "calibrated {f} flops/s");
    }

    #[test]
    fn more_threads_not_slower() {
        let f1 = calibrate_peak_flops(1, 30);
        let f2 = calibrate_peak_flops(2, 30);
        assert!(f2 > 0.8 * f1, "1t {f1}, 2t {f2}");
    }
}
