//! # qfr-core — QF-RAMAN in Rust
//!
//! End-to-end *ab initio*-style Raman spectra for large (bio)molecular
//! systems via Quantum Fragmentation, reproducing the pipeline of
//! "Pushing the Limit of Quantum Mechanical Simulation to the Raman
//! Spectra of a Biological System with 100 Million Atoms" (SC 2024):
//!
//! 1. build or load a system ([`qfr_geom`]: synthetic proteins, water
//!    boxes, solvated systems);
//! 2. decompose it into capped fragments, cap pairs and generalized
//!    concaps ([`qfr_fragment`], Eq. (1));
//! 3. run a per-fragment engine — the calibrated analytic force-field /
//!    bond-polarizability engine ([`qfr_model`]) or the model DFPT engine
//!    ([`qfr_dfpt`]) — in parallel over fragments;
//! 4. assemble the mass-weighted Hessian and polarizability-derivative
//!    vectors;
//! 5. evaluate `I(ω) ∝ dᵀ δ(ω − H) d` with the Lanczos/GAGQ solver
//!    ([`qfr_solver`], Section V-E) — no diagonalization of the global
//!    matrix.
//!
//! ```
//! use qfr_core::RamanWorkflow;
//! use qfr_geom::WaterBoxBuilder;
//!
//! let system = WaterBoxBuilder::new(8).seed(7).build();
//! let result = RamanWorkflow::new(system).sigma(20.0).run().unwrap();
//! assert!(result.spectrum.peak().is_some());
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops over dof blocks

pub mod checkpoint;
mod container;
pub mod modes;
mod pipeline;
pub mod report;
pub mod service;
pub mod shard;
pub mod workflow;

pub use modes::{normal_modes, NormalModes};
pub use report::{RamanResult, RecoverySummary, StageTimings};
pub use service::{RequestHandle, ServiceConfig, ServiceError, SpectrumRequest, SpectrumService};
pub use shard::{ShardPlan, ShardStore};
pub use workflow::{
    EngineKind, HessianOperator, RamanWorkflow, ResponseSource, RunPlan, ShardConfig, WorkflowError,
};
