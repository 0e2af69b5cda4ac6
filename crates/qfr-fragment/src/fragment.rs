//! Fragment jobs, materialized fragment structures, and the engine trait.

use qfr_geom::system::{Bond, BondClass};
use qfr_geom::{BondAdjacency, Element, MolecularSystem, Vec3};
use qfr_linalg::DMatrix;

/// What a signed fragment job represents in Eq. (1). Used for reporting,
/// scheduling statistics and debugging; the assembly only needs the
/// coefficient and atom list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// `Cap*_{k-1} a_k Cap_{k+1}` — capped fragment centred on residue `k`.
    CappedFragment {
        /// Centre residue index.
        k: usize,
    },
    /// `Cap*_k Cap_{k+1}` — subtracted cap pair.
    CapCap {
        /// First residue of the pair.
        k: usize,
    },
    /// Single water molecule one-body term (its net coefficient absorbs all
    /// `-E_w` monomer subtractions from two-body pairs it participates in).
    WaterMonomer {
        /// Water molecule index.
        w: usize,
    },
    /// Residue monomer subtraction (`-E_i` terms of the generalized concaps
    /// and residue–water pairs, merged per residue).
    ResidueMonomer {
        /// Residue index.
        r: usize,
    },
    /// Generalized concap dimer between non-neighboring residues.
    ConcapDimer {
        /// Lower residue index.
        i: usize,
        /// Higher residue index.
        j: usize,
    },
    /// Residue–water two-body dimer.
    ResidueWaterDimer {
        /// Residue index.
        r: usize,
        /// Water index.
        w: usize,
    },
    /// Water–water two-body dimer.
    WaterWaterDimer {
        /// Lower water index.
        a: usize,
        /// Higher water index.
        b: usize,
    },
    /// One-body term of a graph-partition fragment (general covalent
    /// systems; see `graph`). Its net coefficient absorbs the `-E_p`
    /// monomer subtractions of every two-body pair it participates in.
    GraphMonomer {
        /// Partition index.
        p: usize,
    },
    /// Two-body term between graph partitions within λ (or sharing cut
    /// bonds, which the dimer restores).
    GraphDimer {
        /// Lower partition index.
        p: usize,
        /// Higher partition index.
        q: usize,
    },
    /// Two-body term between a graph partition and a water molecule.
    GraphWaterDimer {
        /// Partition index.
        p: usize,
        /// Water molecule index.
        w: usize,
    },
}

/// A link hydrogen terminating a cut bond: placed along the direction of the
/// removed neighbor at the X–H bond length of the anchor element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkHydrogen {
    /// Global index of the anchor (kept) atom.
    pub anchor: usize,
    /// Position of the added hydrogen.
    pub position: Vec3,
}

/// One signed term of Eq. (1): a set of real atoms plus link hydrogens,
/// entering the global sums with `coefficient` (+1 or −1 before monomer
/// merging; merged monomers may carry larger negative integers).
#[derive(Debug, Clone)]
pub struct FragmentJob {
    /// Which Eq. (1) term this is.
    pub kind: JobKind,
    /// Signed multiplicity in the assembly.
    pub coefficient: f64,
    /// Global indices of the real atoms, ascending.
    pub atoms: Vec<usize>,
    /// Link hydrogens terminating cut bonds.
    pub link_hydrogens: Vec<LinkHydrogen>,
}

impl FragmentJob {
    /// Total atom count the engine will see (real + link H).
    pub fn size(&self) -> usize {
        self.atoms.len() + self.link_hydrogens.len()
    }

    /// Materializes the fragment geometry for an engine, carrying over the
    /// system's bonds (both endpoints inside the fragment, in bond-list
    /// order) and adding anchor–link-H bonds. A one-off: it indexes the
    /// whole bond list first; loops over many jobs build one
    /// [`BondAdjacency`] and call [`structure_with`](Self::structure_with).
    pub fn structure(&self, sys: &MolecularSystem) -> FragmentStructure {
        self.structure_with(sys, &BondAdjacency::new(sys))
    }

    /// [`structure`](Self::structure) in `O(fragment)`: only the bonds
    /// incident to the job's atoms are visited. `adjacency` must index
    /// `sys`.
    pub fn structure_with(
        &self,
        sys: &MolecularSystem,
        adjacency: &BondAdjacency,
    ) -> FragmentStructure {
        assert_eq!(adjacency.n_atoms(), sys.n_atoms(), "bond adjacency of another system");
        let mut elements = Vec::with_capacity(self.size());
        let mut positions = Vec::with_capacity(self.size());
        let mut global_map = Vec::with_capacity(self.size());
        // Global -> local, searched rather than hashed; sorted here because
        // nothing enforces the ascending order of `atoms`.
        let mut locals = Vec::with_capacity(self.atoms.len());
        for (local, &g) in self.atoms.iter().enumerate() {
            let a = &sys.atoms[g];
            elements.push(a.element);
            positions.push(a.position);
            global_map.push(Some(g));
            locals.push((g, local));
        }
        locals.sort_unstable();
        // The last local index of a repeated atom, as a map insert keeps.
        let local_of = |g: usize| {
            let (found, local) = *locals[..locals.partition_point(|&(a, _)| a <= g)].last()?;
            (found == g).then_some(local)
        };
        // Each inside bond is met from its `i` end; sorting by id restores
        // bond-list order, which fixes the force-field summation order and
        // every key derived from the structure.
        let mut inside: Vec<(u32, usize, usize)> = (self.atoms.iter())
            .flat_map(|&g| adjacency.incident(g).iter().map(move |&k| (g, k)))
            .filter(|&(g, k)| sys.bonds[k as usize].i == g)
            .filter_map(|(_, k)| {
                let b = &sys.bonds[k as usize];
                Some((k, local_of(b.i)?, local_of(b.j)?))
            })
            .collect();
        inside.sort_unstable();
        inside.dedup();
        let mut bonds: Vec<Bond> =
            inside.iter().map(|&(k, i, j)| Bond { i, j, ..sys.bonds[k as usize] }).collect();
        for lh in &self.link_hydrogens {
            let anchor_local =
                local_of(lh.anchor).expect("link hydrogen anchor must be a fragment atom");
            let h_local = elements.len();
            elements.push(Element::H);
            positions.push(lh.position);
            global_map.push(None);
            let anchor_el = sys.atoms[lh.anchor].element;
            bonds.push(Bond {
                i: anchor_local,
                j: h_local,
                order: 1,
                class: BondClass::classify(anchor_el, Element::H, 1),
            });
        }
        FragmentStructure { elements, positions, bonds, global_map }
    }
}

/// A materialized fragment: what an engine actually computes on.
#[derive(Debug, Clone)]
pub struct FragmentStructure {
    /// Per-atom elements (link hydrogens included, at the end).
    pub elements: Vec<Element>,
    /// Per-atom positions.
    pub positions: Vec<Vec3>,
    /// Covalent bonds with local indices and preserved classes.
    pub bonds: Vec<Bond>,
    /// Local atom → global atom; `None` for link hydrogens.
    pub global_map: Vec<Option<usize>>,
}

impl FragmentStructure {
    /// Atom count (including link hydrogens).
    pub fn n_atoms(&self) -> usize {
        self.elements.len()
    }

    /// Cartesian degrees of freedom.
    pub fn dof(&self) -> usize {
        3 * self.n_atoms()
    }

    /// Per-atom masses (amu).
    pub fn masses(&self) -> Vec<f64> {
        self.elements.iter().map(|e| e.mass()).collect()
    }
}

/// Per-fragment response data produced by an engine: everything Eq. (1)
/// needs from one QM (or model) calculation.
#[derive(Debug, Clone)]
pub struct FragmentResponse {
    /// Cartesian Hessian, `3m x 3m` over the fragment's atoms
    /// (`∂²E/∂r_I∂r_J`).
    pub hessian: DMatrix,
    /// Polarizability derivatives, `6 x 3m`: rows are the independent tensor
    /// components (xx, yy, zz, xy, xz, yz), columns the Cartesian dofs.
    pub dalpha: DMatrix,
    /// Dipole derivatives, `3 x 3m` (IR intensities).
    pub dmu: DMatrix,
}

impl FragmentResponse {
    /// Zero response of the right shape.
    pub fn zeros(n_atoms: usize) -> Self {
        Self {
            hessian: DMatrix::zeros(3 * n_atoms, 3 * n_atoms),
            dalpha: DMatrix::zeros(6, 3 * n_atoms),
            dmu: DMatrix::zeros(3, 3 * n_atoms),
        }
    }

    /// Validates shape consistency against a structure.
    pub fn check_shape(&self, frag: &FragmentStructure) {
        assert_eq!(self.hessian.shape(), (frag.dof(), frag.dof()), "hessian shape");
        assert_eq!(self.dalpha.shape(), (6, frag.dof()), "dalpha shape");
        assert_eq!(self.dmu.shape(), (3, frag.dof()), "dmu shape");
    }
}

/// An engine that can compute the response of one fragment. Implemented by
/// the force-field model engine (`qfr-model`) and the DFPT mini-engine
/// (`qfr-dfpt`).
pub trait FragmentEngine: Sync {
    /// Computes Hessian and polarizability derivatives of a fragment.
    fn compute(&self, frag: &FragmentStructure) -> FragmentResponse;

    /// Human-readable engine name (reporting).
    fn name(&self) -> &'static str;

    /// The distance (Å) past which this engine's Hessian couples no two
    /// real atoms more than two bonds apart: the promise the Eq. (1) fold
    /// lays out its pattern by ([`crate::assemble::Coupling`]). The default,
    /// `None`, promises nothing, and every pair a job holds gets a slot.
    fn coupling_cutoff(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_geom::WaterBoxBuilder;

    fn water_job(sys: &MolecularSystem, w: usize) -> FragmentJob {
        FragmentJob {
            kind: JobKind::WaterMonomer { w },
            coefficient: 1.0,
            atoms: sys.water_atoms(w).to_vec(),
            link_hydrogens: vec![],
        }
    }

    #[test]
    fn water_structure_extraction() {
        let sys = WaterBoxBuilder::new(3).seed(1).build();
        let job = water_job(&sys, 1);
        assert_eq!(job.size(), 3);
        let frag = job.structure(&sys);
        assert_eq!(frag.n_atoms(), 3);
        assert_eq!(frag.dof(), 9);
        assert_eq!(frag.elements[0], Element::O);
        assert_eq!(frag.bonds.len(), 2, "both O-H bonds carried over");
        assert_eq!(frag.global_map[0], Some(sys.water_atoms(1)[0]));
        let m = frag.masses();
        assert!((m[0] - 15.999).abs() < 1e-9);
    }

    #[test]
    fn dimer_structure_has_both_molecules_no_cross_bonds() {
        let sys = WaterBoxBuilder::new(2).seed(2).build();
        let mut atoms = sys.water_atoms(0).to_vec();
        atoms.extend(sys.water_atoms(1));
        let job = FragmentJob {
            kind: JobKind::WaterWaterDimer { a: 0, b: 1 },
            coefficient: 1.0,
            atoms,
            link_hydrogens: vec![],
        };
        let frag = job.structure(&sys);
        assert_eq!(frag.n_atoms(), 6);
        assert_eq!(frag.bonds.len(), 4, "two O-H bonds per molecule, no cross bonds");
    }

    #[test]
    fn link_hydrogen_appended_with_bond() {
        let sys = WaterBoxBuilder::new(1).seed(3).build();
        let o = sys.water_atoms(0)[0];
        let job = FragmentJob {
            kind: JobKind::WaterMonomer { w: 0 },
            coefficient: 1.0,
            atoms: vec![o], // orphan O
            link_hydrogens: vec![LinkHydrogen {
                anchor: o,
                position: sys.atoms[o].position + Vec3::new(0.96, 0.0, 0.0),
            }],
        };
        let frag = job.structure(&sys);
        assert_eq!(frag.n_atoms(), 2);
        assert_eq!(frag.elements[1], Element::H);
        assert_eq!(frag.global_map[1], None, "link H maps to no global atom");
        assert_eq!(frag.bonds.len(), 1);
        assert_eq!(frag.bonds[0].class, BondClass::OH);
    }

    #[test]
    fn response_shape_check() {
        let sys = WaterBoxBuilder::new(1).seed(4).build();
        let frag = water_job(&sys, 0).structure(&sys);
        let resp = FragmentResponse::zeros(3);
        resp.check_shape(&frag);
        assert_eq!(resp.hessian.shape(), (9, 9));
        assert_eq!(resp.dalpha.shape(), (6, 9));
    }

    #[test]
    #[should_panic(expected = "hessian shape")]
    fn response_shape_mismatch_panics() {
        let sys = WaterBoxBuilder::new(1).seed(5).build();
        let frag = water_job(&sys, 0).structure(&sys);
        FragmentResponse::zeros(2).check_shape(&frag);
    }
}
