//! # qfr-linalg
//!
//! Self-contained dense/sparse linear algebra substrate for the QF-RAMAN
//! reproduction. The original QF-RAMAN code leans on vendor BLAS/LAPACK
//! (and OpenCL device kernels) for the per-fragment DFPT cycle and on a
//! Lanczos process over a huge sparse mass-weighted Hessian for the spectral
//! solve. This crate provides everything those layers need, built from
//! scratch:
//!
//! - [`DMatrix`] — a row-major dense `f64` matrix with the usual
//!   constructors, views and norms;
//! - [`gemm`] — general matrix multiply, one function per kernel (naive
//!   reference, cache-blocked, packed-panel), all FLOP-instrumented;
//! - [`pack`] / [`microkernel`] — the packed-panel GEMM floor (DESIGN.md
//!   §10): cache-blocked A/B panel packing and the `MR x NR`
//!   register-tiled microkernel behind `gemm::gemm_packed`;
//! - [`batch`] — *batched* dense algebra with stride-32 size classes: one
//!   kernel-tagged job type (GEMM + the SYRK/congruence family), one plan
//!   grouping jobs by padded class, one executor running the same kernels
//!   as every direct caller in one ordered parallel map — the building
//!   block of the paper's elastic workload offloading (Section V-C);
//! - [`syrk`] — the symmetric rank-k family (`syrk`, `symmetric_product`,
//!   similarity/congruence transforms) behind the Section V-D strength
//!   reduction: one triangle kernel at half the GEMM FLOPs, with the
//!   savings pinned in a deterministic counter;
//! - [`eigen`] — Householder tridiagonalization + implicit-shift QL symmetric
//!   eigensolver (and a tridiagonal fast path used by the Lanczos/GAGQ
//!   solver);
//! - [`cholesky`] / [`lu`] — factorizations used by the SCF and Poisson
//!   reference paths;
//! - [`sparse`] — CSR sparse matrices with parallel SpMV for the global
//!   3N x 3N Hessian;
//! - [`fft`] — radix-2 complex FFT (1-D and 3-D) powering the real-space
//!   Poisson solver of the DFPT response cycle;
//! - [`flops`] — global double-precision FLOP accounting used to regenerate
//!   Table I of the paper.
//!
//! Everything is pure safe Rust; the only parallelism primitives are rayon
//! parallel iterators, in line with the HPC-parallel idioms this project
//! follows.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops are the idiom in LA kernels

pub mod batch;
pub mod blas;
pub mod cholesky;
pub mod eigen;
pub mod fft;
pub mod flops;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod microkernel;
pub mod pack;
pub mod sparse;
pub mod syrk;
pub mod tridiag;
pub mod vecops;

pub use batch::{BatchClass, BatchJob, BatchKernel, BatchPlan, OffloadMode};
pub use eigen::SymmetricEigen;
pub use fft::Complex64;
pub use gemm::Trans;
pub use matrix::DMatrix;
pub use sparse::{CsrMatrix, TripletBuilder};
