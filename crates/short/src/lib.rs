//! Short/close-range force solvers — the architecture-tuned layer of HACC
//! (Sections II–III of the paper).
//!
//! Two interchangeable solvers are provided, exactly as in the paper:
//!
//! * [`P3mSolver`] — direct particle–particle interactions organized by a
//!   chaining mesh (the Roadrunner / CPU-GPU path; "P³M");
//! * [`RcbTree`] — a recursive-coordinate-bisection tree with "fat"
//!   leaves whose pairs feed the polynomial force kernel in 8-particle
//!   chunks (the BG/Q path; "PPTreePM").
//!
//! Both evaluate the same pair force, paper Eq. 7:
//! `f_SR(s) = (s+ε)^{-3/2} − poly5(s)`, `s = r·r`, where `poly5` is the
//! fitted grid-force response from [`hacc_pm::GridForceFit`]. Particle
//! arithmetic is single precision (the mixed-precision design), stored as
//! structure-of-arrays for vectorization.

pub mod kernel;
pub mod p3m;
pub mod simd;
pub mod tree;

pub use kernel::{ForceKernel, FLOPS_PER_INTERACTION, FLOPS_PER_INTERACTION_ACTUAL};
pub use p3m::{P3mScratch, P3mSolver};
pub use simd::{force_on_best, SimdLevel, CHUNK};
pub use tree::{RcbTree, SymmetricReport, TreeParams, TreeScratch};
