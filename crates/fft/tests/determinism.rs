//! Cross-dispatch determinism: the AVX2+FMA kernels and the portable
//! fallback must produce **bitwise identical** spectra, so a simulation
//! gives the same answer on any node of a heterogeneous fleet (and a
//! forced-portable rerun reproduces a vectorized run exactly).
//!
//! Uses the process-global dispatch override, so every test that flips
//! it serializes on one mutex. The override panics when AVX2 hardware is
//! absent; those comparisons degrade to portable-vs-portable (trivially
//! equal) rather than failing on non-x86 or pre-AVX2 machines.

use hacc_fft::{Complex64, Fft1d, Fft3, FftSimdLevel, RealFft3};

use std::sync::Mutex;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Run `f` under a forced dispatch level, restoring auto-detect after.
fn with_level<T>(level: FftSimdLevel, f: impl FnOnce() -> T) -> T {
    hacc_fft::kernels::set_dispatch_override(Some(level));
    let out = f();
    hacc_fft::kernels::set_dispatch_override(None);
    out
}

fn rand_reals(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        })
        .collect()
}

fn rand_grid(len: usize, seed: u64) -> Vec<Complex64> {
    let re = rand_reals(len, seed);
    let im = rand_reals(len, seed ^ 0xdead_beef);
    re.into_iter()
        .zip(im)
        .map(|(a, b)| Complex64::new(a, b))
        .collect()
}

fn assert_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: bin {i} differs: {x:?} vs {y:?}"
        );
    }
}

/// Forced-portable and AVX2 3-D r2c spectra are bitwise identical at the
/// production grid sizes (64³, 96³, 128³ — pure radix-4/2 and mixed
/// 2^a·3 schedules) and at 60³ (2²·3·5: radix-4, -3 and -5 stages).
#[test]
fn real_3d_spectra_bitwise_identical_across_dispatch() {
    let _guard = OVERRIDE_LOCK.lock().expect("override lock");
    if !avx2_available() {
        eprintln!("AVX2 unavailable; skipping cross-dispatch comparison");
        return;
    }
    for n in [60usize, 64, 96, 128] {
        let nzh = n / 2 + 1;
        let data = rand_reals(n * n * n, 42 + n as u64);
        let run = |level| {
            with_level(level, || {
                let plan = RealFft3::new_cubic(n);
                let mut spec = vec![Complex64::ZERO; n * n * nzh];
                plan.forward(&data, &mut spec);
                spec
            })
        };
        let portable = run(FftSimdLevel::Portable);
        let vector = run(FftSimdLevel::Avx2Fma);
        assert_bits_eq(&portable, &vector, &format!("r2c n={n}"));
    }
}

/// Same for the c2c 3-D transform, forward and (normalized) backward.
#[test]
fn complex_3d_spectra_bitwise_identical_across_dispatch() {
    let _guard = OVERRIDE_LOCK.lock().expect("override lock");
    if !avx2_available() {
        eprintln!("AVX2 unavailable; skipping cross-dispatch comparison");
        return;
    }
    for n in [60usize, 64, 96] {
        let data = rand_grid(n * n * n, 7 + n as u64);
        let run = |level| {
            with_level(level, || {
                let plan = Fft3::new_cubic(n);
                let mut fwd = data.clone();
                plan.forward(&mut fwd);
                let mut back = fwd.clone();
                plan.backward(&mut back);
                (fwd, back)
            })
        };
        let (pf, pb) = run(FftSimdLevel::Portable);
        let (vf, vb) = run(FftSimdLevel::Avx2Fma);
        assert_bits_eq(&pf, &vf, &format!("c2c fwd n={n}"));
        assert_bits_eq(&pb, &vb, &format!("c2c back n={n}"));
    }
}

/// Prime/odd line sizes (5 hits the radix-5 Stockham stage; 7 and 33
/// fall back to the generic mixed-radix path) stay level-independent
/// and roundtrip through the batched entry point.
#[test]
fn odd_and_prime_line_sizes_deterministic_and_roundtrip() {
    let _guard = OVERRIDE_LOCK.lock().expect("override lock");
    for n in [5usize, 7, 33] {
        let plan = Fft1d::new(n);
        for batch in 1..=Fft1d::MAX_BATCH {
            let sig = rand_grid(n * batch, 1000 + (n * batch) as u64);
            let run = |level| {
                with_level(level, || {
                    let mut data = sig.clone();
                    let mut scratch = vec![Complex64::ZERO; plan.scratch_len_batch(batch)];
                    plan.transform_batch(&mut data, batch, &mut scratch, false);
                    data
                })
            };
            let portable = run(FftSimdLevel::Portable);
            if avx2_available() {
                let vector = run(FftSimdLevel::Avx2Fma);
                assert_bits_eq(&portable, &vector, &format!("n={n} batch={batch}"));
            }
            // Unnormalized inverse of the forward result recovers n × input.
            let mut back = portable;
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len_batch(batch)];
            plan.transform_batch(&mut back, batch, &mut scratch, true);
            for (a, b) in back.iter().zip(&sig) {
                let want = b.scale(n as f64);
                assert!(
                    (*a - want).abs() < 1e-9 * n as f64,
                    "roundtrip n={n} batch={batch}: {a:?} vs {want:?}"
                );
            }
        }
    }
}

/// A single Fourier mode lands in exactly its own bin with amplitude n,
/// through the batched split-radix path, independent of dispatch level.
#[test]
fn known_mode_lands_in_single_bin_all_levels() {
    let _guard = OVERRIDE_LOCK.lock().expect("override lock");
    let levels: &[FftSimdLevel] = if avx2_available() {
        &[FftSimdLevel::Portable, FftSimdLevel::Avx2Fma]
    } else {
        &[FftSimdLevel::Portable]
    };
    for &level in levels {
        with_level(level, || {
            for n in [16usize, 20, 24, 60] {
                let plan = Fft1d::new(n);
                let mode = 3 % n;
                let batch = 2;
                // Lane 0 carries the mode; lane 1 is zero.
                let mut data = vec![Complex64::ZERO; n * batch];
                for j in 0..n {
                    let phase = 2.0 * std::f64::consts::PI * (mode * j % n) as f64 / n as f64;
                    data[j * batch] = Complex64::cis(phase);
                }
                let mut scratch = vec![Complex64::ZERO; plan.scratch_len_batch(batch)];
                plan.transform_batch(&mut data, batch, &mut scratch, false);
                for k in 0..n {
                    let got = data[k * batch];
                    let want = if k == mode { n as f64 } else { 0.0 };
                    assert!(
                        (got.re - want).abs() < 1e-9 && got.im.abs() < 1e-9,
                        "{level:?} n={n} bin {k}: {got:?}"
                    );
                    let lane1 = data[k * batch + 1];
                    assert!(lane1.abs() < 1e-12, "{level:?} n={n} lane1 bin {k}");
                }
            }
        });
    }
}
