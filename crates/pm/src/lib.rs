//! Spectrally filtered particle-mesh (PM) solver — HACC's long/medium-range
//! force component (Section II of the paper).
//!
//! Pipeline per "Poisson solve": Cloud-In-Cell deposit of the particles
//! onto the density grid → one forward 3-D FFT → multiplication by the
//! composed spectral kernel (isotropizing filter × 6th-order influence
//! function × 4th-order Super-Lanczos differencing per component) → one
//! inverse FFT per force component → CIC interpolation back to particles.
//!
//! The short-range solver (crates/short) subtracts the *grid force
//! response* measured from this solver (fitted to a 5th-order polynomial
//! in `s = r·r`, paper Eq. 7) so that short + long = Newtonian.

#![forbid(unsafe_code)]

pub mod cic;
pub mod dist;
pub mod response;
pub mod solver;
pub mod spectral;
pub mod twolevel;

pub use cic::{deposit_cic, deposit_tsc, interpolate_cic, interpolate_cic_into};
pub use dist::{DistPoisson, DistRealPoisson};
pub use response::GridForceFit;
pub use solver::PmSolver;
pub use spectral::SpectralParams;
pub use twolevel::{ForceSplit, LocalComplementSolver, PmLevelConfig, TwoLevelPmSolver};
