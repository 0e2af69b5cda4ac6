//! The force-field fragment engine.

use crate::dipole::dmu;
use crate::forcefield::{build_terms, hessian};
use crate::params::ForceFieldParams;
use crate::polarizability::dalpha;
use qfr_fragment::{FragmentEngine, FragmentResponse, FragmentStructure};

/// Fragments actually computed by this engine. Deterministic under
/// scheduling and checkpointing: a restarted run increments it only for the
/// jobs that were missing from the checkpoint.
static ENGINE_FRAGMENTS: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("model.engine.fragments");

/// Analytic engine producing Hessian + polarizability derivatives from the
/// calibrated harmonic force field and bond-polarizability model. Fast
/// enough to drive 10⁶-atom assemblies on a laptop; the DFPT mini-engine in
/// `qfr-dfpt` is the computationally faithful (and expensive) counterpart.
#[derive(Debug, Clone, Default)]
pub struct ForceFieldEngine {
    /// Parameter set (defaults are the calibrated values).
    pub params: ForceFieldParams,
}

impl ForceFieldEngine {
    /// The engine's [`FragmentEngine::name`].
    pub const NAME: &'static str = "force-field";

    /// Engine with default calibrated parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with custom parameters (ablation benches).
    pub fn with_params(params: ForceFieldParams) -> Self {
        Self { params }
    }
}

impl FragmentEngine for ForceFieldEngine {
    fn compute(&self, frag: &FragmentStructure) -> FragmentResponse {
        ENGINE_FRAGMENTS.incr();
        let terms = build_terms(frag, &self.params);
        let resp = FragmentResponse {
            hessian: hessian(frag, &terms),
            dalpha: dalpha(frag),
            dmu: dmu(frag),
        };
        resp.check_shape(frag);
        resp
    }

    fn name(&self) -> &'static str {
        Self::NAME
    }

    /// Stretches join bonded atoms, bends span at most two bonds, and
    /// non-bonded terms reach no further than the cutoff.
    fn coupling_cutoff(&self) -> Option<f64> {
        Some(self.params.nonbonded_cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_fragment::{Decomposition, DecompositionParams, JobKind};
    use qfr_geom::{ProteinBuilder, ResidueKind, WaterBoxBuilder};
    use qfr_linalg::eigen::symmetric_eigen;

    #[test]
    fn water_monomer_frequencies_hit_bands() {
        let sys = WaterBoxBuilder::new(1).seed(1).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let job = &d.jobs[0];
        let frag = job.structure(&sys);
        let resp = ForceFieldEngine::new().compute(&frag);

        // Mass weight and diagonalize.
        let masses = frag.masses();
        let n = frag.dof();
        let mut mw = resp.hessian.clone();
        for i in 0..n {
            for j in 0..n {
                mw[(i, j)] /= (masses[i / 3] * masses[j / 3]).sqrt();
            }
        }
        let eig = symmetric_eigen(&mw);
        let nus: Vec<f64> = eig
            .eigenvalues
            .iter()
            .map(|&l| crate::frequencies::eigenvalue_to_wavenumber(l))
            .filter(|&nu| nu > 100.0)
            .collect();
        assert_eq!(nus.len(), 3, "water has 3 vibrational modes: {nus:?}");
        // Bend near 1640, stretches near 3400 (the Fig. 12 water bands).
        assert!((1400.0..1900.0).contains(&nus[0]), "bend at {} cm-1", nus[0]);
        assert!(
            (3100.0..3700.0).contains(&nus[1]) && (3100.0..3800.0).contains(&nus[2]),
            "stretches at {} / {} cm-1",
            nus[1],
            nus[2]
        );
    }

    #[test]
    fn alanine_fragment_has_ch_band() {
        let sys = ProteinBuilder::new(3).seed(2).sequence(vec![ResidueKind::Ala; 3]).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let job = d.jobs.iter().find(|j| matches!(j.kind, JobKind::CappedFragment { .. })).unwrap();
        let frag = job.structure(&sys);
        let resp = ForceFieldEngine::new().compute(&frag);
        let masses = frag.masses();
        let mut mw = resp.hessian.clone();
        for i in 0..frag.dof() {
            for j in 0..frag.dof() {
                mw[(i, j)] /= (masses[i / 3] * masses[j / 3]).sqrt();
            }
        }
        let eig = symmetric_eigen(&mw);
        let nus: Vec<f64> = eig
            .eigenvalues
            .iter()
            .map(|&l| crate::frequencies::eigenvalue_to_wavenumber(l))
            .collect();
        // C-H stretch manifold near 2900-3000.
        assert!(nus.iter().any(|&nu| (2800.0..3100.0).contains(&nu)), "no C-H band found");
        // Amide I (C=O) near 1600-1800.
        assert!(nus.iter().any(|&nu| (1550.0..1850.0).contains(&nu)), "no amide I band found");
        // No imaginary modes beyond numerical noise.
        assert!(nus.iter().all(|&nu| nu > -1.0), "imaginary modes: {nus:?}");
    }

    #[test]
    fn response_is_deterministic() {
        let sys = WaterBoxBuilder::new(2).seed(3).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let frag = d.jobs[0].structure(&sys);
        let e = ForceFieldEngine::new();
        let r1 = e.compute(&frag);
        let r2 = e.compute(&frag);
        assert_eq!(r1.hessian.max_abs_diff(&r2.hessian), 0.0);
        assert_eq!(r1.dalpha.max_abs_diff(&r2.dalpha), 0.0);
    }

    #[test]
    fn engine_name() {
        assert_eq!(ForceFieldEngine::new().name(), "force-field");
    }
}
