//! Atoms, bonds and the assembled molecular system.

use crate::element::Element;
use crate::residue::ResidueKind;
use crate::vec3::Vec3;

/// One atom: element + Cartesian position (Å).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Chemical element.
    pub element: Element,
    /// Position in Å.
    pub position: Vec3,
}

/// Force-field bond class; determines the stretch force constant and the
/// bond-polarizability parameters in `qfr-model`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BondClass {
    /// C–H stretch (≈2900 cm⁻¹ band of Fig. 12).
    CH,
    /// N–H stretch.
    NH,
    /// O–H stretch (water ≈3400 cm⁻¹ band).
    OH,
    /// S–H stretch.
    SH,
    /// C–C single bond.
    CCSingle,
    /// Aromatic / conjugated C–C (ring modes, Phe breathing ≈1030 cm⁻¹).
    CCAromatic,
    /// C–N single bond.
    CNSingle,
    /// Peptide (amide) C–N bond — the amide III region coupling.
    CNAmide,
    /// C=N double bond (His, Arg).
    CNDouble,
    /// C–O single bond.
    COSingle,
    /// Carbonyl C=O (amide I region ≈1650 cm⁻¹).
    CODouble,
    /// C–S single bond.
    CSSingle,
    /// Disulfide S–S.
    SSBond,
    /// Anything else.
    Other,
}

impl BondClass {
    /// Classifies from the two elements and the formal bond order; peptide
    /// bonds are flagged explicitly by the chain builder instead.
    pub fn classify(a: Element, b: Element, order: u8) -> BondClass {
        use Element::*;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        match (lo, hi, order) {
            (H, C, _) => BondClass::CH,
            (H, N, _) => BondClass::NH,
            (H, O, _) => BondClass::OH,
            (H, S, _) => BondClass::SH,
            (C, C, 1) => BondClass::CCSingle,
            (C, C, 2) => BondClass::CCAromatic,
            (C, N, 1) => BondClass::CNSingle,
            (C, N, 2) => BondClass::CNDouble,
            (C, O, 1) => BondClass::COSingle,
            (C, O, 2) => BondClass::CODouble,
            (C, S, _) => BondClass::CSSingle,
            (S, S, _) => BondClass::SSBond,
            _ => BondClass::Other,
        }
    }
}

/// A covalent bond between atoms `i` and `j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bond {
    /// First atom index.
    pub i: usize,
    /// Second atom index.
    pub j: usize,
    /// Formal order (1 or 2).
    pub order: u8,
    /// Force-field class.
    pub class: BondClass,
}

impl Bond {
    /// Constructs a bond, classifying it from the elements.
    pub fn new(i: usize, j: usize, order: u8, ei: Element, ej: Element) -> Self {
        Self { i, j, order, class: BondClass::classify(ei, ej, order) }
    }
}

/// A protein residue's span within the system's atom list. Hydrogens are
/// stored inside the span, immediately after their heavy atoms, so spans are
/// contiguous — which the fragmenter relies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidueSpan {
    /// Residue type.
    pub kind: ResidueKind,
    /// First atom index of the span.
    pub start: usize,
    /// Number of atoms in the span (heavy + hydrogens).
    pub len: usize,
    /// Absolute index of the backbone nitrogen.
    pub n_idx: usize,
    /// Absolute index of the alpha carbon.
    pub ca_idx: usize,
    /// Absolute index of the carbonyl carbon.
    pub c_idx: usize,
    /// Absolute index of the carbonyl oxygen.
    pub o_idx: usize,
}

impl ResidueSpan {
    /// Atom index range of this residue.
    pub fn atom_range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// A complete molecular system: an optional protein chain followed by zero
/// or more water molecules (3 atoms each, O first).
#[derive(Debug, Clone, Default)]
pub struct MolecularSystem {
    /// All atoms: protein residues first (contiguous spans), waters last.
    pub atoms: Vec<Atom>,
    /// All covalent bonds.
    pub bonds: Vec<Bond>,
    /// Protein residues in chain order (empty for pure water).
    pub residues: Vec<ResidueSpan>,
    /// Number of water molecules appended after the protein atoms.
    pub n_waters: usize,
}

impl MolecularSystem {
    /// Total atom count.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of protein atoms (those before the water block).
    pub fn protein_atom_count(&self) -> usize {
        self.atoms.len() - 3 * self.n_waters
    }

    /// First atom index of the water block.
    pub fn water_start(&self) -> usize {
        self.protein_atom_count()
    }

    /// Atom indices `[O, H, H]` of water molecule `w`.
    pub fn water_atoms(&self, w: usize) -> [usize; 3] {
        assert!(w < self.n_waters, "water index {w} out of {}", self.n_waters);
        let base = self.water_start() + 3 * w;
        [base, base + 1, base + 2]
    }

    /// Cartesian degrees of freedom (`3 * n_atoms`).
    pub fn dof(&self) -> usize {
        3 * self.atoms.len()
    }

    /// Per-atom masses in amu.
    pub fn masses(&self) -> Vec<f64> {
        self.atoms.iter().map(|a| a.element.mass()).collect()
    }

    /// Positions flattened to `[x0,y0,z0, x1,...]`.
    pub fn flat_positions(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dof());
        for a in &self.atoms {
            out.extend_from_slice(&a.position.to_array());
        }
        out
    }

    /// Minimum distance between any atom of `group_a` and any atom of
    /// `group_b` (brute force; use [`crate::neighbor`] for bulk queries).
    pub fn min_group_distance(&self, group_a: &[usize], group_b: &[usize]) -> f64 {
        let mut best = f64::INFINITY;
        for &i in group_a {
            for &j in group_b {
                best = best.min(self.atoms[i].position.dist(self.atoms[j].position));
            }
        }
        best
    }

    /// Number of covalent (non-water) atoms that belong to no residue span:
    /// ligands, cofactors, polymer chains. These sit between the residue
    /// block and the water block and are handled by the graph-based
    /// fragmenter rather than the chain/water fast path.
    pub fn nonresidue_atom_count(&self) -> usize {
        let res_total: usize = self.residues.iter().map(|r| r.len).sum();
        self.protein_atom_count().saturating_sub(res_total)
    }

    /// Sanity checks: bond indices in range, no self-bonds, residue spans
    /// contiguous and forming a prefix of the covalent (non-water) block,
    /// water block 3 atoms per molecule with O-H-H element pattern, every
    /// coordinate finite. Covalent atoms after the residue spans (ligands,
    /// polymer chains) are allowed. Returns a list of violations (empty =
    /// valid).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let n = self.atoms.len();
        for (i, a) in self.atoms.iter().enumerate() {
            let p = a.position;
            if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()) {
                errs.push(format!(
                    "atom {i} has non-finite coordinates ({}, {}, {})",
                    p.x, p.y, p.z
                ));
            }
        }
        for (k, b) in self.bonds.iter().enumerate() {
            if b.i >= n || b.j >= n {
                errs.push(format!("bond {k} index out of range"));
            } else if b.i == b.j {
                errs.push(format!("bond {k} is a self-bond"));
            }
        }
        let mut expected_start = 0;
        for (r, span) in self.residues.iter().enumerate() {
            if span.start != expected_start {
                errs.push(format!("residue {r} span not contiguous"));
            }
            expected_start = span.start + span.len;
            for idx in [span.n_idx, span.ca_idx, span.c_idx, span.o_idx] {
                if !(span.start..span.start + span.len).contains(&idx) {
                    errs.push(format!("residue {r} backbone index {idx} outside span"));
                }
            }
        }
        if expected_start > self.protein_atom_count() {
            errs.push("residue spans extend into the water block".to_string());
        }
        if 3 * self.n_waters > n {
            errs.push("water block larger than system".to_string());
        } else {
            for w in 0..self.n_waters {
                let [o, h1, h2] = self.water_atoms(w);
                if self.atoms[o].element != Element::O
                    || self.atoms[h1].element != Element::H
                    || self.atoms[h2].element != Element::H
                {
                    errs.push(format!("water {w} has wrong element pattern"));
                    break;
                }
            }
        }
        errs
    }
}

/// Per-atom incident-bond index over [`MolecularSystem::bonds`]: which bonds
/// touch an atom, without scanning the bond list. Compressed rows — atom
/// `a`'s bond ids are `ids[offsets[a]..offsets[a + 1]]`, ascending — built
/// in `O(atoms + bonds)`. The index holds positions in the bond list, so it
/// is valid for exactly the system it was built from.
#[derive(Debug, Clone)]
pub struct BondAdjacency {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl BondAdjacency {
    /// Indexes the bonds of `sys`. Every bond is listed once per endpoint
    /// (a self-bond once); an endpoint past the atom count, which
    /// [`MolecularSystem::validate`] reports, is incident to no atom.
    ///
    /// # Panics
    /// Panics if the bond count exceeds `u32::MAX` (the id type).
    pub fn new(sys: &MolecularSystem) -> Self {
        let n = sys.n_atoms();
        assert!(sys.bonds.len() <= u32::MAX as usize, "bond count exceeds u32 id range");
        let ends = |b: &Bond| {
            let second = (b.j != b.i).then_some(b.j);
            [Some(b.i), second].into_iter().flatten().filter(move |&a| a < n)
        };
        // Counting sort by atom: degrees, prefix sums, then a fill in bond
        // order, which leaves each atom's ids ascending.
        let mut offsets = vec![0usize; n + 1];
        for a in sys.bonds.iter().flat_map(ends) {
            offsets[a + 1] += 1;
        }
        for a in 0..n {
            offsets[a + 1] += offsets[a];
        }
        let mut next = offsets.clone();
        let mut ids = vec![0u32; offsets[n]];
        for (k, b) in sys.bonds.iter().enumerate() {
            for a in ends(b) {
                ids[next[a]] = k as u32;
                next[a] += 1;
            }
        }
        Self { offsets, ids }
    }

    /// Number of atoms indexed.
    pub fn n_atoms(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Positions in [`MolecularSystem::bonds`] of the bonds with an end at
    /// `atom`, ascending.
    pub fn incident(&self, atom: usize) -> &[u32] {
        &self.ids[self.offsets[atom]..self.offsets[atom + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn water_system(n: usize) -> MolecularSystem {
        let mut sys = MolecularSystem::default();
        for w in 0..n {
            let o = Vec3::new(3.0 * w as f64, 0.0, 0.0);
            sys.atoms.push(Atom { element: Element::O, position: o });
            sys.atoms.push(Atom { element: Element::H, position: o + Vec3::new(0.96, 0.0, 0.0) });
            sys.atoms.push(Atom { element: Element::H, position: o + Vec3::new(-0.24, 0.93, 0.0) });
            let base = 3 * w;
            sys.bonds.push(Bond::new(base, base + 1, 1, Element::O, Element::H));
            sys.bonds.push(Bond::new(base, base + 2, 1, Element::O, Element::H));
        }
        sys.n_waters = n;
        sys
    }

    #[test]
    fn water_indexing() {
        let sys = water_system(3);
        assert_eq!(sys.n_atoms(), 9);
        assert_eq!(sys.protein_atom_count(), 0);
        assert_eq!(sys.water_atoms(1), [3, 4, 5]);
        assert_eq!(sys.dof(), 27);
        assert!(sys.validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "water index")]
    fn water_index_out_of_range() {
        let sys = water_system(2);
        let _ = sys.water_atoms(2);
    }

    #[test]
    fn masses_and_positions() {
        let sys = water_system(1);
        let m = sys.masses();
        assert_eq!(m.len(), 3);
        assert!((m[0] - 15.999).abs() < 1e-9);
        assert!((m[1] - 1.008).abs() < 1e-9);
        let flat = sys.flat_positions();
        assert_eq!(flat.len(), 9);
        assert_eq!(flat[3], 0.96);
    }

    #[test]
    fn bond_classification() {
        assert_eq!(BondClass::classify(Element::C, Element::H, 1), BondClass::CH);
        assert_eq!(BondClass::classify(Element::H, Element::C, 1), BondClass::CH);
        assert_eq!(BondClass::classify(Element::C, Element::O, 2), BondClass::CODouble);
        assert_eq!(BondClass::classify(Element::C, Element::C, 2), BondClass::CCAromatic);
        assert_eq!(BondClass::classify(Element::S, Element::S, 1), BondClass::SSBond);
        assert_eq!(BondClass::classify(Element::N, Element::C, 2), BondClass::CNDouble);
        assert_eq!(BondClass::classify(Element::O, Element::O, 1), BondClass::Other);
    }

    #[test]
    fn min_group_distance() {
        let sys = water_system(2);
        let d = sys.min_group_distance(&[0, 1, 2], &[3, 4, 5]);
        // Closest pair: H1 of water0 at (0.96,0,0) vs H2 of water1 at
        // (2.76,0.93,0): sqrt(1.8^2 + 0.93^2) = 2.026.
        assert!((d - 2.026).abs() < 0.01, "d = {d}");
    }

    #[test]
    fn validation_catches_bad_bond() {
        let mut sys = water_system(1);
        sys.bonds.push(Bond::new(0, 0, 1, Element::O, Element::O));
        assert!(sys.validate().iter().any(|e| e.contains("self-bond")));
        sys.bonds.push(Bond::new(0, 99, 1, Element::O, Element::H));
        assert!(sys.validate().iter().any(|e| e.contains("out of range")));
    }

    #[test]
    fn adjacency_skips_what_validation_rejects() {
        let mut sys = water_system(2);
        sys.bonds.push(Bond::new(3, 3, 1, Element::O, Element::O));
        sys.bonds.push(Bond::new(4, 99, 1, Element::H, Element::H));
        let adj = BondAdjacency::new(&sys);
        assert_eq!(adj.n_atoms(), 6);
        assert_eq!(adj.incident(0), [0, 1]);
        assert_eq!(adj.incident(3), [2, 3, 4], "the self-bond is listed once");
        assert_eq!(adj.incident(4), [2, 5], "the in-range end of a dangling bond");
        assert_eq!(adj.incident(5), [3]);
    }

    #[test]
    fn validation_catches_bad_water_pattern() {
        let mut sys = water_system(1);
        sys.atoms[0].element = Element::C;
        assert!(sys.validate().iter().any(|e| e.contains("element pattern")));
    }

    #[test]
    fn nonresidue_atoms_between_residues_and_waters_are_valid() {
        // A ligand-style covalent block after the residue spans (here: a
        // residue-less system whose two leading atoms belong to no span)
        // must validate; spans reaching into the water block must not.
        let mut sys = water_system(2);
        sys.atoms.insert(0, Atom { element: Element::C, position: Vec3::new(-5.0, 0.0, 0.0) });
        sys.atoms.insert(1, Atom { element: Element::C, position: Vec3::new(-3.5, 0.0, 0.0) });
        for b in &mut sys.bonds {
            b.i += 2;
            b.j += 2;
        }
        sys.bonds.push(Bond::new(0, 1, 1, Element::C, Element::C));
        assert!(sys.validate().is_empty(), "{:?}", sys.validate());
        assert_eq!(sys.nonresidue_atom_count(), 2);
        // A span covering the ligand AND the first water atom overflows the
        // covalent block.
        sys.residues.push(ResidueSpan {
            kind: crate::residue::ResidueKind::Gly,
            start: 0,
            len: 3,
            n_idx: 0,
            ca_idx: 1,
            c_idx: 1,
            o_idx: 2,
        });
        assert!(sys.validate().iter().any(|e| e.contains("extend into the water block")));
    }
}
