//! # qfr-dfpt
//!
//! A self-contained model DFT/DFPT mini-engine reproducing the
//! *computational structure* of the per-fragment quantum calculation in
//! QF-RAMAN (the paper uses the FHI-aims all-electron NAO DFPT rewritten in
//! OpenCL; see DESIGN.md for the substitution rationale).
//!
//! The physical model: normalized s-type Gaussian orbitals (1 shell on H,
//! 2 on heavy atoms), a Gaussian-well external potential carrying the
//! valence charge of each atom, a Hartree term solved on a real-space grid
//! with the FFT Poisson solver, and LDA exchange. The SCF solves the
//! generalized eigenproblem via Cholesky/Löwdin orthogonalization.
//!
//! The DFPT layer implements the paper's four worker phases exactly
//! (Fig. 3, right):
//!
//! 1. response density matrix `P(1)` (sum-over-states with the SCF
//!    eigenpairs),
//! 2. real-space integration of the response density `n(1)(r)` —
//!    the GEMM-dominated phase of Table I,
//! 3. Poisson solve for the response potential `v(1)(r)` (FFT),
//! 4. response Hamiltonian `H(1)` — the second GEMM-dominated phase.
//!
//! Two BLAS paths are provided throughout: the *naive* path issues the
//! scattered GEMM sequences of Fig. 6 verbatim; the *symmetry-reduced* path
//! applies the paper's strength reduction (Section V-D). Both produce
//! identical results (tested) and both account FLOPs, which is how the
//! Fig. 9 speedups and Table I rates are regenerated.
//!
//! The dense hot loops (SCF density/Fock builds, the response phases
//! 1/2/4) do not call kernels directly: they *gather* kernel-tagged
//! [`qfr_linalg::batch::BatchJob`] streams and run each one through the
//! batched executor [`qfr_linalg::batch::execute_jobs`] — the paper's
//! elastic workload offloading executed for real (Section V-C, DESIGN.md
//! §10). The [`response::solve_responses`] set driver additionally gathers
//! the jobs of one ground state's three field directions in deterministic
//! lockstep; the engine runs each displaced geometry as its own pipeline.

#![forbid(unsafe_code)]

pub mod basis;
pub mod displacement;
pub mod engine;
pub mod grid;
pub mod response;
pub mod scf;

pub use basis::Basis;
pub use displacement::{displacement_cycle, CycleProfile, DisplacementConfig};
pub use engine::{DfptEngine, DfptEngineConfig};
pub use grid::RealSpaceGrid;
pub use response::{polarizability, solve_responses, ResponseConfig, ResponseResult};
pub use scf::{ScfConfig, ScfResult, ScfSolver};
