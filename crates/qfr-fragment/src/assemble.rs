//! Assembly of per-fragment responses into the global operators of Eq. (1).
//!
//! Each job's Hessian block enters the global `3N x 3N` Hessian with the
//! job's coefficient, mapped through the fragment→global atom map; the six
//! polarizability- and three dipole-derivative rows assemble the same way
//! into global dof vectors. Link hydrogens have no global image: their rows
//! and columns are dropped (their double counting cancels between the
//! capped-fragment and cap-pair terms).
//!
//! The fold is written once, in [`RowRangeAccumulator::add`], over the rows
//! of one contiguous atom range: [`assemble`] is the range `0..n_atoms`, an
//! out-of-core shard its own. A `(row, col)` slot receives the same add
//! sequence from whichever accumulator owns its row, so a partition's rows
//! stack to the whole-system operator bit for bit. An engine that promises
//! a [`Coupling`] gets slots only for the pairs it can couple; every other
//! pair would fold to an exact zero, which `finish` drops anyway, so the
//! operator's bits do not depend on it. [`MassWeighted`] then
//! forms `H = M^{-1/2} E(2) M^{-1/2}` and `d = M^{-1/2} (∂α/∂ξ)` for the
//! Lanczos/GAGQ spectral solver (Eq. (5)).

use crate::fragment::{FragmentEngine, FragmentJob, FragmentResponse};
use qfr_geom::{BondAdjacency, MolecularSystem};
use qfr_linalg::CsrMatrix;
use std::ops::Range;

/// Largest system the operators index: `3·MAX_ATOMS` dofs fit the CSR
/// index type, `u32`.
pub const MAX_ATOMS: usize = (u32::MAX / 3) as usize;

/// The atom pairs an engine's Hessian can couple in one system
/// ([`FragmentEngine::coupling_cutoff`]): a block between two real atoms
/// is exactly zero unless they lie within `cutoff` Å of each other or
/// within two bonds in the system's bond graph.
#[derive(Debug, Clone, Copy)]
pub struct Coupling<'a> {
    cutoff: f64,
    system: &'a MolecularSystem,
    adjacency: &'a BondAdjacency,
}

impl<'a> Coupling<'a> {
    /// The coupling `engine` promises on `system`, or `None` when it
    /// promises none. `adjacency` must index `system`.
    pub fn of(
        engine: &dyn FragmentEngine,
        system: &'a MolecularSystem,
        adjacency: &'a BondAdjacency,
    ) -> Option<Self> {
        assert_eq!(adjacency.n_atoms(), system.n_atoms(), "bond adjacency of another system");
        Some(Self { cutoff: engine.coupling_cutoff()?, system, adjacency })
    }

    /// True when the contract lets atoms `a` and `b` couple. The distance
    /// is the one the engine measures: fragment positions are copies.
    pub fn admits(&self, a: usize, b: usize) -> bool {
        let at = |x: usize| self.system.atoms[x].position;
        at(a).dist(at(b)) <= self.cutoff
            || a == b
            || self.bonded(a).any(|n| n == b || self.bonded(n).any(|m| m == b))
    }

    /// The atoms bonded to `a`.
    fn bonded(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency.incident(a).iter().map(move |&k| {
            let bond = &self.system.bonds[k as usize];
            if bond.i == a {
                bond.j
            } else {
                bond.i
            }
        })
    }
}

/// Assembled (unweighted) operators over the rows of one atom range.
#[derive(Debug, Clone)]
pub struct AssembledSystem {
    /// Cartesian Hessian rows of [`atoms`](Self::atoms)
    /// (`3·|atoms| x 3N`, sparse; row 0 is dof `3·atoms.start`).
    pub hessian: CsrMatrix,
    /// Polarizability derivatives: six vectors over the range's dofs
    /// (components xx, yy, zz, xy, xz, yz).
    pub dalpha: [Vec<f64>; 6],
    /// Dipole derivatives: three vectors over the range's dofs (IR).
    pub dmu: [Vec<f64>; 3],
    /// Number of atoms `N` of the whole system.
    pub n_atoms: usize,
    /// The atoms whose rows are held: `0..n_atoms` from [`assemble`].
    pub atoms: Range<usize>,
}

/// The Eq. (1) fold over the rows of one contiguous atom range, in the
/// range's final CSR buffers: [`new`](Self::new) lays out a zeroed 3×3 block
/// for every atom pair a job holds and the coupling admits, [`add`](Self::add)
/// sums into it, and [`finish`](Self::finish) drops the exact zeros in place.
#[derive(Debug, Clone)]
pub struct RowRangeAccumulator {
    atoms: Range<usize>,
    n_atoms: usize,
    /// Owned atom `a`'s block columns, ascending, are the atoms
    /// `partners[row_ptr[3a] / 9..row_ptr[3a + 3] / 9]`, and row `3a + d`
    /// holds row `d` of each block. `col_idx` is empty until `finish`.
    partners: Vec<u32>,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    dalpha: [Vec<f64>; 6],
    dmu: [Vec<f64>; 3],
}

impl RowRangeAccumulator {
    /// Zeroed accumulator for the rows of `atoms` in an `n_atoms` system,
    /// with a slot for every atom pair some job of `jobs` holds and
    /// `coupling` admits (every such pair when it is `None`).
    ///
    /// # Panics
    /// Panics if the range reaches past `n_atoms`, `n_atoms` past
    /// [`MAX_ATOMS`], a job atom is not an atom of the system, or the
    /// coupling's system has another atom count.
    pub fn new(
        jobs: &[FragmentJob],
        atoms: Range<usize>,
        n_atoms: usize,
        coupling: Option<Coupling>,
    ) -> Self {
        assert!(atoms.start <= atoms.end && atoms.end <= n_atoms, "{atoms:?} out of {n_atoms}");
        assert!(n_atoms <= MAX_ATOMS, "3·{n_atoms} dofs exceed u32 index range");
        if let Some(c) = &coupling {
            assert_eq!(c.system.n_atoms(), n_atoms, "coupling of another system");
        }
        // Jobs by owned atom. Out of range, a row atom would pass for another
        // shard's and a column would reach the CSR arrays unchecked.
        let mut by_atom = vec![Vec::new(); atoms.len()];
        for (j, job) in jobs.iter().enumerate() {
            for &a in &job.atoms {
                assert!(a < n_atoms, "atom index out of {n_atoms} for {:?}", job.kind);
                if atoms.contains(&a) {
                    by_atom[a - atoms.start].push(j);
                }
            }
        }
        // Each owned atom's partners, listed once: `stamp[b]` is the last
        // owned atom that listed `b`.
        let (mut stamp, mut partners, mut row_ptr) = (vec![u32::MAX; n_atoms], Vec::new(), vec![0]);
        for (o, owned_jobs) in (0..).zip(by_atom) {
            let (first, a) = (partners.len(), atoms.start + o as usize);
            for &b in owned_jobs.into_iter().flat_map(|j| &jobs[j].atoms) {
                let fresh = std::mem::replace(&mut stamp[b], o) != o;
                if fresh && coupling.is_none_or(|c| c.admits(a, b)) {
                    partners.push(b as u32);
                }
            }
            partners[first..].sort_unstable();
            let width = 3 * (partners.len() - first);
            row_ptr.extend((1..=3).map(|da| 9 * first + da * width));
        }
        partners.shrink_to_fit();
        // Zeroed in one pass, not page by page where the fold first writes:
        // first touches in address order cost less than scattered ones.
        let (nnz, zeros) = (row_ptr[3 * atoms.len()], |_| vec![0.0; 3 * atoms.len()]);
        let (mut values, col_idx) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        values.resize(nnz, 0.0);
        let (dalpha, dmu) = (std::array::from_fn(zeros), std::array::from_fn(zeros));
        Self { partners, row_ptr, col_idx, values, dalpha, dmu, atoms, n_atoms }
    }

    /// True when `job` has an atom in the range: rows to [`add`](Self::add).
    pub fn touches(&self, job: &FragmentJob) -> bool {
        job.atoms.iter().any(|a| self.atoms.contains(a))
    }

    /// Folds one response in. `job` must be one of the jobs the accumulator
    /// was built from, and `resp` must cover its atoms in order (real atoms
    /// first, then link hydrogens), exactly as produced by engines running
    /// on [`crate::FragmentStructure`]. Callers add jobs in global job
    /// order: a `(row, col)` slot sums its addends in add order.
    ///
    /// A block whose atom pair has no slot must be exactly zero (`-0.0`
    /// counts), and is skipped: it would have left a zeroed slot as it was.
    ///
    /// # Panics
    /// Panics if a response matrix is not shaped for the job's atoms, or the
    /// job puts a non-zero block on an atom pair that has no slot: a pair no
    /// job of the accumulator's list holds, or one the coupling rules out.
    pub fn add(&mut self, job: &FragmentJob, resp: &FragmentResponse) {
        let m3 = 3 * job.size();
        assert_eq!(resp.hessian.shape(), (m3, m3), "hessian shape mismatch for {:?}", job.kind);
        assert_eq!(resp.dalpha.shape(), (6, m3), "dalpha shape mismatch for {:?}", job.kind);
        assert_eq!(resp.dmu.shape(), (3, m3), "dmu shape mismatch for {:?}", job.kind);
        let coeff = job.coefficient;
        for (la, &ga) in job.atoms.iter().enumerate() {
            if !self.atoms.contains(&ga) {
                continue;
            }
            let owned = ga - self.atoms.start;
            let rows = &self.row_ptr[3 * owned..3 * owned + 4];
            let cols = &self.partners[rows[0] / 9..rows[3] / 9];
            // Job atoms ascend: a column is most often the slot after the last.
            let mut k = 0;
            for (lb, &gb) in job.atoms.iter().enumerate() {
                let block = |da: usize| &resp.hessian.row(3 * la + da)[3 * lb..][..3];
                if cols.get(k).is_none_or(|&c| c as usize != gb) {
                    k = cols.partition_point(|&c| (c as usize) < gb);
                    if cols.get(k).is_none_or(|&c| c as usize != gb) {
                        let zero = (0..3).flat_map(block).all(|&v| v == 0.0);
                        assert!(
                            zero,
                            "{:?} is not in the accumulator's job list, or breaks its engine's \
                             coupling contract: atoms {ga} and {gb} have no slot",
                            job.kind
                        );
                        continue;
                    }
                }
                // A zero addend leaves a slot's bits as they are: a slot
                // starts at `+0.0` and is never `-0.0`.
                for (da, &row) in rows[..3].iter().enumerate() {
                    for (slot, v) in self.values[row + 3 * k..][..3].iter_mut().zip(block(da)) {
                        *slot += coeff * v;
                    }
                }
                k += 1;
            }
            let sources = (0..6).map(|c| resp.dalpha.row(c)).chain((0..3).map(|c| resp.dmu.row(c)));
            for (dvec, src) in self.dalpha.iter_mut().chain(&mut self.dmu).zip(sources) {
                for da in 0..3 {
                    dvec[3 * owned + da] += coeff * src[3 * la + da];
                }
            }
        }
    }

    /// Compresses the rows in place: slots that are exactly zero (never
    /// touched, or cancelled) are dropped, the rest move down in row order
    /// beside their column index, and both buffers shrink to what is kept.
    pub fn finish(self) -> AssembledSystem {
        let Self { atoms, n_atoms, partners, mut row_ptr, mut col_idx, mut values, dalpha, dmu } =
            self;
        let mut lo = 0;
        for owned in 0..atoms.len() {
            let hi = row_ptr[3 * owned + 3];
            let cols = &partners[lo / 9..hi / 9];
            for da in 0..3 {
                for (slot, &col) in (lo + 3 * da * cols.len()..).step_by(3).zip(cols) {
                    for (db, i) in (0..3).zip(slot..) {
                        if values[i] != 0.0 {
                            values[col_idx.len()] = values[i];
                            col_idx.push(3 * col + db);
                        }
                    }
                }
                row_ptr[3 * owned + da + 1] = col_idx.len();
            }
            lo = hi;
        }
        values.truncate(col_idx.len());
        values.shrink_to_fit();
        col_idx.shrink_to_fit();
        let hessian =
            CsrMatrix::from_raw_parts(3 * atoms.len(), 3 * n_atoms, row_ptr, col_idx, values);
        AssembledSystem { hessian, dalpha, dmu, n_atoms, atoms }
    }
}

/// Assembles job responses into global operators: the accumulator over
/// every atom. `responses[i]` must correspond to `jobs[i]`.
///
/// # Panics
/// Panics on length or shape mismatches.
pub fn assemble(
    jobs: &[FragmentJob],
    responses: &[FragmentResponse],
    n_atoms: usize,
) -> AssembledSystem {
    assert_eq!(jobs.len(), responses.len(), "one response per job required");
    let mut acc = RowRangeAccumulator::new(jobs, 0..n_atoms, n_atoms, None);
    jobs.iter().zip(responses).for_each(|(job, resp)| acc.add(job, resp));
    acc.finish()
}

/// Mass-weighted operators ready for the spectral solver.
#[derive(Debug, Clone)]
pub struct MassWeighted {
    /// Mass-weighted Hessian (`H_ij = E2_ij / sqrt(M_i M_j)`), sparse.
    pub hessian: CsrMatrix,
    /// Mass-weighted polarizability derivative vectors (per component).
    pub dalpha: [Vec<f64>; 6],
    /// Mass-weighted dipole derivative vectors (per Cartesian component).
    pub dmu: [Vec<f64>; 3],
}

impl MassWeighted {
    /// Mass-weighted copy of `asm`. `masses` are per atom (amu), one for
    /// every atom of the whole system; a dof uses its atom's mass.
    pub fn new(asm: &AssembledSystem, masses: &[f64]) -> Self {
        Self::in_place(asm.clone(), masses)
    }

    /// Mass-weights `asm` where it lies: every stored Hessian value becomes
    /// `v * w_i * w_j` and every derivative entry `v * w_i`, with
    /// `w = 1/sqrt(M)` of the dof's atom.
    pub fn in_place(asm: AssembledSystem, masses: &[f64]) -> Self {
        assert_eq!(masses.len(), asm.n_atoms, "mass count mismatch");
        let AssembledSystem { mut hessian, mut dalpha, mut dmu, atoms, .. } = asm;
        let w: Vec<f64> = masses.iter().flat_map(|&m| [1.0 / m.sqrt(); 3]).collect();
        let w_rows = &w[3 * atoms.start..3 * atoms.end];
        hessian.scale_rows_cols(w_rows, &w);
        for dvec in dalpha.iter_mut().chain(dmu.iter_mut()) {
            for (v, wi) in dvec.iter_mut().zip(w_rows) {
                *v *= wi;
            }
        }
        Self { hessian, dalpha, dmu }
    }

    /// The operator dimension (`3N`).
    pub fn dim(&self) -> usize {
        self.hessian.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{JobKind, LinkHydrogen};
    use qfr_geom::Vec3;
    use qfr_linalg::DMatrix;

    fn unit_response(n_atoms: usize, hval: f64, aval: f64) -> FragmentResponse {
        FragmentResponse {
            hessian: DMatrix::from_fn(
                3 * n_atoms,
                3 * n_atoms,
                |i, j| {
                    if i == j {
                        hval
                    } else {
                        0.0
                    }
                },
            ),
            dalpha: DMatrix::from_fn(6, 3 * n_atoms, |_, _| aval),
            dmu: DMatrix::from_fn(3, 3 * n_atoms, |_, _| aval),
        }
    }

    fn job(kind: JobKind, coeff: f64, atoms: Vec<usize>) -> FragmentJob {
        FragmentJob { kind, coefficient: coeff, atoms, link_hydrogens: vec![] }
    }

    #[test]
    fn overlapping_jobs_accumulate_with_coefficients() {
        // Two jobs over atoms {0,1} and {1,2}, plus a -1 monomer on atom 1:
        // diagonal coverage 1 everywhere.
        let jobs = vec![
            job(JobKind::WaterMonomer { w: 0 }, 1.0, vec![0, 1]),
            job(JobKind::WaterMonomer { w: 1 }, 1.0, vec![1, 2]),
            job(JobKind::WaterMonomer { w: 2 }, -1.0, vec![1]),
        ];
        let responses = vec![
            unit_response(2, 2.0, 1.0),
            unit_response(2, 2.0, 1.0),
            unit_response(1, 2.0, 1.0),
        ];
        let asm = assemble(&jobs, &responses, 3);
        let dense = asm.hessian.to_dense();
        for d in 0..9 {
            assert!((dense[(d, d)] - 2.0).abs() < 1e-12, "dof {d}");
        }
        for c in 0..6 {
            assert_eq!(asm.dalpha[c], vec![1.0; 9]);
        }
    }

    #[test]
    fn link_hydrogen_rows_dropped() {
        let j = FragmentJob {
            kind: JobKind::WaterMonomer { w: 0 },
            coefficient: 1.0,
            atoms: vec![0],
            link_hydrogens: vec![LinkHydrogen { anchor: 0, position: Vec3::ZERO }],
        };
        // Response over 2 atoms (real + link H), all entries 1.
        let resp = FragmentResponse {
            hessian: DMatrix::from_fn(6, 6, |_, _| 1.0),
            dalpha: DMatrix::from_fn(6, 6, |_, _| 1.0),
            dmu: DMatrix::from_fn(3, 6, |_, _| 1.0),
        };
        let asm = assemble(&[j], &[resp], 1);
        let dense = asm.hessian.to_dense();
        assert_eq!(dense.shape(), (3, 3));
        // Only the real-atom block survives.
        for i in 0..3 {
            for jj in 0..3 {
                assert_eq!(dense[(i, jj)], 1.0);
            }
        }
        assert_eq!(asm.dalpha[0], vec![1.0; 3]);
    }

    #[test]
    fn off_diagonal_blocks_map_correctly() {
        // One job on atoms {2, 5} with a distinctive off-diagonal entry.
        let mut h = DMatrix::zeros(6, 6);
        h[(0, 3)] = 7.0; // atom-local (0,x)-(1,x)
        h[(3, 0)] = 7.0;
        let resp = FragmentResponse {
            hessian: h,
            dalpha: DMatrix::zeros(6, 6),
            dmu: DMatrix::zeros(3, 6),
        };
        let asm = assemble(&[job(JobKind::WaterMonomer { w: 0 }, 1.0, vec![2, 5])], &[resp], 6);
        assert_eq!(asm.hessian.get(6, 15), 7.0); // (atom2,x)-(atom5,x)
        assert_eq!(asm.hessian.get(15, 6), 7.0);
        assert_eq!(asm.hessian.get(6, 6), 0.0);
    }

    #[test]
    fn exact_cancellation_produces_empty_matrix() {
        let jobs = vec![
            job(JobKind::WaterMonomer { w: 0 }, 1.0, vec![0]),
            job(JobKind::WaterMonomer { w: 0 }, -1.0, vec![0]),
        ];
        let responses = vec![unit_response(1, 3.0, 2.0), unit_response(1, 3.0, 2.0)];
        let asm = assemble(&jobs, &responses, 1);
        assert_eq!(asm.hessian.nnz(), 0);
        assert_eq!(asm.dalpha[0], vec![0.0; 3]);
    }

    #[test]
    fn mass_weighting_scales_correctly() {
        let jobs = vec![job(JobKind::WaterMonomer { w: 0 }, 1.0, vec![0, 1])];
        let responses = vec![unit_response(2, 4.0, 2.0)];
        let asm = assemble(&jobs, &responses, 2);
        let masses = [4.0, 16.0];
        let mw = MassWeighted::new(&asm, &masses);
        let dense = mw.hessian.to_dense();
        assert!((dense[(0, 0)] - 1.0).abs() < 1e-12, "4/sqrt(4*4)");
        assert!((dense[(3, 3)] - 0.25).abs() < 1e-12, "4/sqrt(16*16)");
        assert!((mw.dalpha[0][0] - 1.0).abs() < 1e-12, "2/sqrt(4)");
        assert!((mw.dalpha[0][3] - 0.5).abs() < 1e-12, "2/sqrt(16)");
        assert_eq!(mw.dim(), 6);
    }

    /// `finish` compacts in place: the matrix owns the accumulator's own
    /// buffers, so the operator is never held twice.
    #[test]
    fn finish_hands_over_its_own_buffers() {
        let jobs = vec![
            job(JobKind::WaterMonomer { w: 0 }, 1.0, vec![0, 1]),
            job(JobKind::WaterMonomer { w: 1 }, 1.0, vec![1, 2]),
        ];
        let mut acc = RowRangeAccumulator::new(&jobs, 0..3, 3, None);
        // Only diagonal entries are non-zero: most slots are dropped.
        acc.add(&jobs[0], &unit_response(2, 2.0, 1.0));
        acc.add(&jobs[1], &unit_response(2, 2.0, 1.0));
        let ptrs = (acc.row_ptr.as_ptr(), acc.col_idx.as_ptr(), acc.values.as_ptr());
        let asm = acc.finish();
        assert_eq!(asm.hessian.nnz(), 9);
        let (row_ptr, col_idx, values) = asm.hessian.raw_parts();
        assert_eq!((row_ptr.as_ptr(), col_idx.as_ptr(), values.as_ptr()), ptrs);
    }

    /// A job the accumulator was not built from may couple a pair it has no
    /// slot for; it is refused by name, not folded somewhere else.
    #[test]
    #[should_panic(expected = "WaterMonomer { w: 9 } is not in the accumulator's job list")]
    fn job_outside_the_list_panics() {
        let jobs = vec![job(JobKind::WaterMonomer { w: 0 }, 1.0, vec![0, 1])];
        let mut acc = RowRangeAccumulator::new(&jobs, 0..3, 3, None);
        acc.add(&job(JobKind::WaterMonomer { w: 9 }, 1.0, vec![1, 2]), &unit_response(2, 1.0, 1.0));
    }

    /// An engine that couples nothing farther apart than 4.5 Å.
    struct Coupled;

    impl FragmentEngine for Coupled {
        fn compute(&self, _: &crate::FragmentStructure) -> FragmentResponse {
            unreachable!("the fold never computes")
        }

        fn name(&self) -> &'static str {
            "coupled"
        }

        fn coupling_cutoff(&self) -> Option<f64> {
            Some(4.5)
        }
    }

    /// Atoms 0 and 1 bonded, 1 Å apart; atom 2 10 Å away and unbonded. A
    /// job over all three, with every diagonal block and block (0, 1) set.
    fn far_atom() -> (MolecularSystem, FragmentJob, FragmentResponse) {
        use qfr_geom::system::{Atom, Bond};
        use qfr_geom::Element;
        let mut system = MolecularSystem::default();
        for x in [0.0, 1.0, 10.0] {
            system.atoms.push(Atom { element: Element::O, position: Vec3::new(x, 0.0, 0.0) });
        }
        system.bonds.push(Bond::new(0, 1, 1, Element::O, Element::O));
        let mut resp = unit_response(3, 2.0, 1.0);
        resp.hessian[(0, 3)] = 0.5;
        resp.hessian[(3, 0)] = 0.5;
        (system, job(JobKind::WaterMonomer { w: 7 }, 1.0, vec![0, 1, 2]), resp)
    }

    /// The coupled pattern leaves out the pairs with atom 2. A zero block
    /// there, `-0.0` included, is skipped and the fold keeps the bits of
    /// the dense pattern.
    #[test]
    fn zero_blocks_outside_the_coupling_fold_to_the_dense_bits() {
        let (system, job, mut resp) = far_atom();
        resp.hessian[(2, 6)] = -0.0;
        resp.hessian[(7, 4)] = -0.0;
        let adjacency = BondAdjacency::new(&system);
        let coupling = Coupling::of(&Coupled, &system, &adjacency);
        let mut acc = RowRangeAccumulator::new(std::slice::from_ref(&job), 0..3, 3, coupling);
        assert_eq!(acc.values.len(), 9 * 5, "pairs (0, 0), (0, 1), (1, 0), (1, 1), (2, 2)");
        acc.add(&job, &resp);
        let want = assemble(&[job], &[resp], 3);
        let got = acc.finish();
        assert_eq!(got.hessian, want.hessian);
        assert_eq!(got.dalpha, want.dalpha);
    }

    /// A non-zero block on a pair the coupling rules out is an engine
    /// breaking its promise: refused by job and atom pair, not dropped.
    #[test]
    #[should_panic(expected = "WaterMonomer { w: 7 } is not in the accumulator's job list, or \
                               breaks its engine's coupling contract: atoms 1 and 2 have no slot")]
    fn non_zero_block_outside_the_coupling_panics() {
        let (system, job, mut resp) = far_atom();
        resp.hessian[(4, 8)] = 1e-300;
        let adjacency = BondAdjacency::new(&system);
        let coupling = Coupling::of(&Coupled, &system, &adjacency);
        let mut acc = RowRangeAccumulator::new(std::slice::from_ref(&job), 0..3, 3, coupling);
        acc.add(&job, &resp);
    }

    #[test]
    #[should_panic(expected = "one response per job")]
    fn length_mismatch_panics() {
        let jobs = vec![job(JobKind::WaterMonomer { w: 0 }, 1.0, vec![0])];
        let _ = assemble(&jobs, &[], 1);
    }

    /// Every response matrix is checked in both dimensions — `DMatrix`
    /// indexing bounds-checks `(i, j)` in debug builds only, so a misshaped
    /// response would otherwise be read from the wrong addresses in release
    /// — and every job atom against `n_atoms`, which arrives separately.
    #[test]
    #[should_panic(expected = "dmu shape mismatch")]
    fn shape_mismatch_panics() {
        let jobs = vec![job(JobKind::WaterMonomer { w: 0 }, 1.0, vec![0, 1])];
        let with = |edit: fn(&mut FragmentResponse)| {
            let mut resp = unit_response(2, 1.0, 1.0);
            edit(&mut resp);
            vec![resp]
        };
        let rejected = |responses: Vec<FragmentResponse>, n_atoms: usize, what: &str| {
            let caught = std::panic::catch_unwind(|| assemble(&jobs, &responses, n_atoms));
            let payload = caught.expect_err("a misshaped response was folded");
            let message = payload.downcast_ref::<String>().expect("formatted panic message");
            assert!(message.contains(what), "wrong rejection, expected {what}: {message}");
        };
        rejected(vec![unit_response(1, 1.0, 1.0)], 2, "hessian shape mismatch");
        // Right row count, wrong column count.
        rejected(with(|r| r.hessian = DMatrix::zeros(6, 4)), 2, "hessian shape mismatch");
        rejected(with(|r| r.dalpha = DMatrix::zeros(5, 6)), 2, "dalpha shape mismatch");
        // Atom 1 of a one-atom system: as a row it would pass for another
        // shard's, as a column it would land past the matrix.
        rejected(with(|_| ()), 1, "atom index out of 1 for WaterMonomer { w: 0 }");
        // A short dmu, with everything else in shape.
        let _ = assemble(&jobs, &with(|r| r.dmu = DMatrix::zeros(3, 5)), 2);
    }
}
