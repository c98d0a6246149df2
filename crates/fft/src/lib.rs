//! From-scratch FFTs for the HACC reproduction.
//!
//! The paper stresses that HACC's "performance and flexibility are not
//! dependent on vendor-supplied or other high-performance libraries"; its
//! 3-D parallel FFT couples high performance with a small memory footprint.
//! This crate mirrors that: a plan-based complex 1-D FFT (a SIMD
//! Stockham schedule for `2^a·3^b·5^c` lengths, Bluestein's chirp-z for
//! every other length), a cache-aware serial 3-D transform and its
//! real-to-complex twin, and one distributed decomposition over
//! [`hacc_comm`]: the **pencil**, a 2-D (x,y)-split with interleaved
//! transpose / 1-D FFT steps over row and column sub-communicators,
//! supporting `ranks ≤ N²` (the BG/P–BG/Q decomposition of Section IV.A),
//! in c2c and r2c forms. The **slab** (the original Roadrunner-era 1-D
//! x-split, limited to `ranks ≤ N`) is the c2c pencil on a `p × 1` grid.
//!
//! Conventions: forward transform is unnormalized
//! (`X[k] = Σ x[j]·exp(-2πi jk/N)`); `backward` divides by `N` so a
//! round-trip is the identity.
//!
//! The crate's only `unsafe` is the AVX2+FMA lowering of the Stockham
//! stages (`kernels::avx2` and its one dispatch call); the compiler
//! refuses it anywhere else.

#![deny(unsafe_code)]

pub mod complex;
pub mod dim3;
pub mod kernels;
pub mod pencil;
pub mod plan;
pub mod real;
pub mod scratch;
pub mod slab;
pub mod wavenumber;

pub use complex::Complex64;
pub use dim3::Fft3;
pub use kernels::FftSimdLevel;
pub use pencil::{PencilFft, RealPencilFft};
pub use plan::{fast_len, Fft1d};
pub use real::RealFft3;
pub use scratch::BufPool;
pub use slab::SlabFft;
pub use wavenumber::{k_index, k_of_index};
pub mod layout;
pub use layout::{block_ranges, DistFft3, DistRealFft3, Layout3};
