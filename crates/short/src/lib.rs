//! Short/close-range force solvers — the architecture-tuned layer of HACC
//! (Sections II–III of the paper).
//!
//! Both of the paper's solvers are one [`RcbTree`] with two split rules,
//! behind one force pass:
//!
//! * [`RcbTree::new_empty`] — recursive coordinate bisection down to
//!   "fat" leaves of up to [`TreeParams::leaf_size`] particles (the BG/Q
//!   path; "PPTreePM");
//! * [`RcbTree::chaining_mesh`] — leaves that are the non-empty cells of
//!   a chaining mesh of side ≥ `r_cut` (the Roadrunner / CPU-GPU path;
//!   "P³M").
//!
//! Either way the walk lists the interacting leaf pairs, with image
//! shifts on periodic axes, and the pairs feed the polynomial force
//! kernel in 8-particle chunks. The pair force is paper Eq. 7:
//! `f_SR(s) = (s+ε)^{-3/2} − poly5(s)`, `s = r·r`, where `poly5` is the
//! fitted grid-force response from [`hacc_pm::GridForceFit`]. Particle
//! arithmetic is single precision (the mixed-precision design), stored as
//! structure-of-arrays for vectorization.

pub mod kernel;
pub mod simd;
pub mod tree;

pub use kernel::{ForceKernel, FLOPS_PER_INTERACTION, FLOPS_PER_INTERACTION_ACTUAL};
pub use simd::{SimdLevel, CHUNK};
pub use tree::{RcbTree, SymmetricReport, TreeParams, TreeScratch};
