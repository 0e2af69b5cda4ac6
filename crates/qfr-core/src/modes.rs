//! Normal-mode analysis and band assignment.
//!
//! The paper assigns its Fig. 12 bands by literature correspondence ("the
//! Raman band around 1030 cm⁻¹ is related to the breathing modes of
//! phenylalanine residues"). This module *verifies* such assignments on our
//! systems: diagonalize the assembled mass-weighted Hessian (dense;
//! workstation-sized systems), then project each normal mode onto
//! bond-stretch internal coordinates to obtain its character — e.g. "the
//! modes under the 2900 cm⁻¹ band are C–H stretches" becomes a measurable
//! statement, tested in this module and exercised by the band-assignment
//! integration tests.

use qfr_fragment::{assemble, Decomposition, FragmentEngine, FragmentResponse, MassWeighted};
use qfr_geom::system::BondClass;
use qfr_geom::{BondAdjacency, MolecularSystem};
use qfr_linalg::eigen::symmetric_eigen;
use qfr_linalg::DMatrix;
use std::collections::HashMap;

/// Full normal-mode decomposition of a system (dense path).
#[derive(Debug, Clone)]
pub struct NormalModes {
    /// Harmonic frequencies in cm⁻¹, ascending (negative = imaginary).
    pub frequencies: Vec<f64>,
    /// Mass-weighted mode vectors as columns (`3N x 3N`).
    pub vectors: DMatrix,
    /// Atom count.
    pub n_atoms: usize,
}

/// Computes normal modes by direct diagonalization. Dense `O((3N)³)`:
/// intended for systems up to a few thousand atoms.
pub fn normal_modes(
    system: &MolecularSystem,
    decomposition: &Decomposition,
    engine: &dyn FragmentEngine,
) -> NormalModes {
    let adjacency = BondAdjacency::new(system);
    let responses: Vec<FragmentResponse> = (decomposition.jobs.iter())
        .map(|j| engine.compute(&j.structure_with(system, &adjacency)))
        .collect();
    let asm = assemble::assemble(&decomposition.jobs, &responses, system.n_atoms());
    let mw = MassWeighted::new(&asm, &system.masses());
    let eig = symmetric_eigen(&mw.hessian.to_dense());
    let frequencies =
        eig.eigenvalues.iter().map(|&l| qfr_model::eigenvalue_to_wavenumber(l)).collect();
    NormalModes { frequencies, vectors: eig.eigenvectors, n_atoms: system.n_atoms() }
}

impl NormalModes {
    /// Indices of modes inside a wavenumber window.
    pub fn modes_in_window(&self, lo: f64, hi: f64) -> Vec<usize> {
        self.frequencies
            .iter()
            .enumerate()
            .filter(|(_, &nu)| nu >= lo && nu < hi)
            .map(|(i, _)| i)
            .collect()
    }

    /// Participation ratio of mode `p`: `1 / (N Σ w_a²)` with `w_a` the
    /// per-atom weight — 1/N for a mode localized on one atom, →1 for a
    /// fully delocalized mode.
    pub fn participation_ratio(&self, p: usize) -> f64 {
        let mut weights = vec![0.0f64; self.n_atoms];
        for a in 0..self.n_atoms {
            for c in 0..3 {
                let v = self.vectors[(3 * a + c, p)];
                weights[a] += v * v;
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let sum_sq: f64 = weights.iter().map(|w| (w / total) * (w / total)).sum();
        1.0 / (self.n_atoms as f64 * sum_sq)
    }

    /// Projects mode `p` onto the bond-stretch internal coordinates of the
    /// system, returning the squared projection weight per bond class
    /// (normalized so the weights over all classes sum to the total stretch
    /// fraction of the mode; the remainder is bend/torsion/translation
    /// character).
    pub fn stretch_character(&self, system: &MolecularSystem, p: usize) -> HashMap<BondClass, f64> {
        let masses = system.masses();
        // Convert the mass-weighted mode back to Cartesian displacements.
        let cart: Vec<f64> =
            (0..3 * self.n_atoms).map(|i| self.vectors[(i, p)] / masses[i / 3].sqrt()).collect();
        let norm: f64 = cart.iter().map(|x| x * x).sum();
        let mut out: HashMap<BondClass, f64> = HashMap::new();
        // A NaN norm (degenerate eigenvector) must bail out here too;
        // a bare `norm <= 0.0` would let it through.
        if norm.is_nan() || norm <= 0.0 {
            return out;
        }
        for b in &system.bonds {
            let u = (system.atoms[b.j].position - system.atoms[b.i].position).try_normalized();
            let Some(u) = u else { continue };
            let ua = u.to_array();
            // Stretch coordinate derivative: û on atom j, −û on atom i.
            let mut proj = 0.0;
            for c in 0..3 {
                proj += ua[c] * (cart[3 * b.j + c] - cart[3 * b.i + c]);
            }
            // Each bond's squared stretch amplitude relative to the total
            // Cartesian norm (÷2 for the two-atom support overlap).
            *out.entry(b.class).or_insert(0.0) += proj * proj / (2.0 * norm);
        }
        out
    }

    /// Dominant stretch class of mode `p`, if any bond moves at all.
    pub fn dominant_stretch(&self, system: &MolecularSystem, p: usize) -> Option<(BondClass, f64)> {
        self.stretch_character(system, p).into_iter().max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_fragment::DecompositionParams;
    use qfr_geom::{ProteinBuilder, ResidueKind, WaterBoxBuilder};
    use qfr_model::ForceFieldEngine;

    fn modes_of(system: &MolecularSystem) -> NormalModes {
        let d = Decomposition::new(system, DecompositionParams::default());
        normal_modes(system, &d, &ForceFieldEngine::new())
    }

    #[test]
    fn water_stretch_band_is_oh_character() {
        let sys = WaterBoxBuilder::new(4).seed(1).build();
        let modes = modes_of(&sys);
        let stretch_modes = modes.modes_in_window(3100.0, 3800.0);
        assert!(!stretch_modes.is_empty(), "no O-H stretch modes found");
        for &p in &stretch_modes {
            let (class, w) = modes.dominant_stretch(&sys, p).unwrap();
            assert_eq!(class, BondClass::OH, "mode {p} at {} cm-1", modes.frequencies[p]);
            assert!(w > 0.2, "weak O-H character {w}");
        }
    }

    #[test]
    fn ch_band_in_alanine_is_ch_character() {
        let sys = ProteinBuilder::new(3).seed(2).sequence(vec![ResidueKind::Ala; 3]).build();
        let modes = modes_of(&sys);
        let ch_modes = modes.modes_in_window(2800.0, 3100.0);
        assert!(!ch_modes.is_empty(), "no C-H stretch modes");
        let mut ch_dominant = 0;
        for &p in &ch_modes {
            if let Some((BondClass::CH, _)) = modes.dominant_stretch(&sys, p) {
                ch_dominant += 1;
            }
        }
        assert!(
            ch_dominant * 2 > ch_modes.len(),
            "only {ch_dominant}/{} modes are C-H stretches",
            ch_modes.len()
        );
    }

    #[test]
    fn phe_ring_band_has_aromatic_character() {
        // The paper's 1030 cm⁻¹ assignment: Phe ring breathing.
        let sys = ProteinBuilder::new(3)
            .seed(3)
            .sequence(vec![ResidueKind::Gly, ResidueKind::Phe, ResidueKind::Gly])
            .build();
        let modes = modes_of(&sys);
        let window = modes.modes_in_window(950.0, 1150.0);
        assert!(!window.is_empty(), "no modes near 1030 cm-1");
        // Ring breathing distributes over six C-C stretch coordinates with
        // heavy mixing into the skeleton; a few-percent aromatic weight in
        // this window is the signature (the strong ring C=C stretches sit
        // near 1600-1700 cm-1 in this model, as in real benzene).
        let aromatic_present = window.iter().any(|&p| {
            modes.stretch_character(&sys, p).get(&BondClass::CCAromatic).copied().unwrap_or(0.0)
                > 0.02
        });
        assert!(aromatic_present, "no aromatic ring character in the 1030 cm-1 window");
    }

    #[test]
    fn acoustic_modes_are_delocalized_stretches_localized() {
        let sys = WaterBoxBuilder::new(6).seed(4).build();
        let modes = modes_of(&sys);
        // The lowest (acoustic/translational) modes spread over the system.
        let pr_low = modes.participation_ratio(0);
        // An O-H stretch mode lives on one molecule.
        let stretch = *modes.modes_in_window(3100.0, 3800.0).first().unwrap();
        let pr_stretch = modes.participation_ratio(stretch);
        assert!(pr_low > pr_stretch, "acoustic PR {pr_low} should exceed stretch PR {pr_stretch}");
        assert!(pr_stretch < 0.35, "stretch should be localized: {pr_stretch}");
    }

    #[test]
    fn degenerate_mode_vectors_do_not_panic() {
        // Regression: a zero or NaN mode vector made the mode's Cartesian
        // norm 0 or NaN, `proj*proj / (2*norm)` NaN, and `dominant_stretch`
        // panicked via `partial_cmp(...).expect("weights are finite")`.
        let sys = WaterBoxBuilder::new(1).seed(6).build();
        let dof = sys.dof();
        let mut zero_modes = NormalModes {
            frequencies: vec![0.0; dof],
            vectors: qfr_linalg::DMatrix::zeros(dof, dof),
            n_atoms: sys.n_atoms(),
        };
        assert_eq!(zero_modes.dominant_stretch(&sys, 0), None, "zero mode has no stretch");
        for i in 0..dof {
            zero_modes.vectors[(i, 0)] = f64::NAN;
        }
        assert_eq!(zero_modes.dominant_stretch(&sys, 0), None, "NaN mode has no stretch");
    }

    #[test]
    fn frequencies_sorted_and_finite() {
        let sys = WaterBoxBuilder::new(3).seed(5).build();
        let modes = modes_of(&sys);
        assert_eq!(modes.frequencies.len(), sys.dof());
        for w in modes.frequencies.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        assert!(modes.frequencies.iter().all(|f| f.is_finite()));
    }
}
