//! Analysis tools for simulation outputs: the quantities Section V of the
//! paper extracts from its science test run.
//!
//! * [`power`] — matter fluctuation power spectrum `P(k)` (Fig. 10);
//! * [`fof`] — friends-of-friends halo finder with hierarchical subhalo
//!   splitting (Fig. 11, cluster statistics);
//! * [`slices`] — density slices / projections and zoom statistics
//!   (Figs. 2 and 9);
//! * [`massfn`] — binned halo mass functions to compare against the
//!   Press–Schechter / Sheth–Tormen comparators in `hacc-cosmo`.

pub mod correlation;
pub mod fof;
pub mod massfn;
pub mod power;
pub mod profile;
pub mod slices;

pub use correlation::CorrelationFunction;
pub use fof::{FofFinder, Halo};
pub use massfn::MassFunctionEstimate;
pub use power::PowerSpectrum;
pub use profile::HaloProfile;
pub use slices::{density_contrast_stats, zoom_series, DensitySlice};

/// Coordinate `v` of a periodic box of side `l`, given up to one box
/// outside `[0, l)`, brought into it: the engines hand out positions up
/// to one step's drift outside the box. In-box values pass unchanged.
pub(crate) fn in_box(v: f64, l: f64) -> f64 {
    if v < 0.0 {
        v + l
    } else if v >= l {
        v - l
    } else {
        v
    }
}
