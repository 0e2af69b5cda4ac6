//! # qfr-fragment
//!
//! The Quantum Fragmentation (QF) algorithm of the QF-RAMAN paper
//! (Section IV-A, Eq. (1)):
//!
//! - the protein is cut at every peptide bond except the first and last;
//!   each naked residue `a_k` is capped with its former neighbors, forming
//!   fragments `Cap*_{k-1} a_k Cap_{k+1}`;
//! - the doubly-counted cap pairs `Cap*_k Cap_{k+1}` are subtracted;
//! - every water molecule is a one-body fragment;
//! - *generalized concaps* add two-body corrections `E_ij - E_i - E_j` for
//!   every fragment pair within the distance threshold λ (4 Å): sequentially
//!   non-neighboring residues, residue–water, and water–water pairs;
//! - dangling bonds created by the cuts are terminated with link hydrogens.
//!
//! [`decompose::Decomposition`] enumerates the resulting signed job list,
//! [`fragment::FragmentStructure`] materializes each job's geometry for an
//! engine, and [`assemble`] folds per-fragment Hessian and polarizability-
//! derivative blocks into the global sparse operators that the Lanczos/GAGQ
//! spectral solver consumes. Systems that are not a single water-capped
//! residue chain (ligands, disulfide-bridged multi-chain proteins,
//! polymers) are decomposed by the general [`graph`] partitioner instead,
//! behind the same [`Decomposition`] interface.

#![forbid(unsafe_code)]

pub mod assemble;
pub mod decompose;
pub mod fragment;
pub mod graph;
pub mod key;
pub mod stats;

pub use assemble::{AssembledSystem, Coupling, MassWeighted, RowRangeAccumulator, MAX_ATOMS};
pub use decompose::{Decomposition, DecompositionParams};
pub use fragment::{FragmentEngine, FragmentJob, FragmentResponse, FragmentStructure, JobKind};
pub use graph::{partition_covalent, CovalentPartitioning, Partition};
pub use key::{exact_key, GeomKey};
pub use stats::DecompositionStats;
