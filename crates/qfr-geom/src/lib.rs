//! # qfr-geom
//!
//! Molecular geometry substrate for the QF-RAMAN reproduction: chemical
//! elements, 3-vector math, amino-acid residue templates with automatic
//! hydrogenation, synthetic protein and water-box builders, cell-list
//! neighbor search for the λ-threshold pair enumeration of Eq. (1), and
//! XYZ/PDB-lite file I/O.
//!
//! The paper evaluates on the SARS-CoV-2 spike protein (PDB 7DF3, 3,180
//! residues) solvated in an explicit water box totalling 101,299,008 atoms.
//! That structure is not shipped here; instead [`builder::ProteinBuilder`]
//! generates deterministic synthetic proteins whose residue-size
//! distribution (9–68 atoms per capped fragment, ≈19x per-fragment cost
//! spread) matches the paper's workload statistics, and
//! [`builder::WaterBoxBuilder`] produces water at liquid density. See
//! DESIGN.md ("Reproduction constraints and substitutions").

#![forbid(unsafe_code)]

pub mod builder;
pub mod covalent;
pub mod element;
pub mod embed;
pub mod io;
pub mod neighbor;
pub mod residue;
pub mod scenario;
pub mod system;
pub mod vec3;

pub use builder::{FoldStyle, ProteinBuilder, SolvatedSystem, WaterBoxBuilder};
pub use covalent::detect_bonds;
pub use element::Element;
pub use neighbor::CellList;
pub use residue::{ResidueKind, ResidueTemplate};
pub use scenario::{build_scenario, SCENARIO_NAMES};
pub use system::{Atom, Bond, BondAdjacency, MolecularSystem, ResidueSpan};
pub use vec3::Vec3;
