//! The HACC framework driver: force composition and time stepping.
//!
//! Assembles the substrates into the full code of the paper:
//!
//! * long/medium-range forces from the spectrally filtered PM solver
//!   (`hacc-pm`), common to all "architectures";
//! * short/close-range forces from an architecture-tunable local solver
//!   (`hacc-short`): an RCB tree with fat leaves ("PPTreePM", the BG/Q
//!   path) or cut into chaining-mesh cells for direct particle–particle
//!   sums ("P3M", the Roadrunner path) — or PM-only for smooth-field
//!   tests;
//! * the 2nd-order split-operator symplectic stepper of paper Eq. 6,
//!   `M_full = M_lr(t/2) (M_sr(t/nc))^nc M_lr(t/2)`, sub-cycling the
//!   short-range SKS (stream–kick–stream) maps inside long-range kicks
//!   while the slowly varying long-range force stays frozen;
//! * one engine at every rank count: [`DistSimulation`] on a
//!   communicator, and [`Simulation`], the serial API, is that engine
//!   on a process-wide one-rank world, whose steps send no message;
//! * mixed precision exactly as in the paper: particles and short-range
//!   arithmetic in f32, the spectral path in f64.
//!
//! Units: positions in Mpc/h; momenta `p = a²·dx/dt` with time in `1/H0`;
//! `∇²φ̂ = δ` solved by the PM layer, kicks scaled by `(3/2)·Ωm` and the
//! exact expansion-history integrals from `hacc-cosmo`.
//!
//! Long runs get fault tolerance from two layers on top of the stepper:
//! [`checkpoint`] (per-rank restart records through the CRC-validated
//! snapshot format) and [`resilient`] (a recovery driver that checkpoints
//! every K steps and restarts failed attempts from the last good set).
//! [`elastic`] builds planned world resizing on those same primitives:
//! the run can grow into reserve ranks or shrink out of retiring ones
//! at scheduled step boundaries, with every handover epoch-fenced,
//! count-certified, and abortable back to a pre-resize checkpoint.

pub mod checkpoint;
pub mod config;
pub mod dist;
pub mod elastic;
pub mod invariant;
pub mod resilient;
mod short;
pub mod sim;
mod slab;
pub mod stats;
mod stepper;

pub use checkpoint::{config_fingerprint, CheckpointError};
pub use config::{SimConfig, SolverKind};
pub use dist::DistSimulation;
pub use elastic::{run_attempt_elastic, run_elastic, ScalePlan, ScaleSchedule, WorldMeta};
pub use invariant::{InvariantConfig, InvariantMonitor, InvariantSample, InvariantVerdict};
pub use resilient::{
    run_resilient, write_timeline_json, AttemptOutput, RecoveryEvent,
    ResilienceConfig, ResilienceError, ResilientRun, TimelineHeader,
};
pub use sim::Simulation;
pub use stats::{RunStats, StepBreakdown};
