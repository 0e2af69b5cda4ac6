//! IR absorption spectra and polarized Raman — companion observables of
//! the same Lanczos/GAGQ machinery.
//!
//! IR: `I_IR(ω) ∝ Σ_p |∂μ/∂Q_p|² δ(ω − ω_p) = Σ_c d_cᵀ δ(ω − H) d_c` with
//! `d_c` the mass-weighted dipole derivatives — three quadratures.
//!
//! Polarized Raman: from the same tensor functionals as Eq. (4), the
//! standard rotational invariants give
//! `I_∥ ∝ 45 ā² + 4 γ²` and `I_⊥ ∝ 3 γ²` with
//! `ā²(ω) = S_iso(ω)/9` and
//! `γ²(ω) = ½ (3 S_full(ω) − S_iso(ω))`,
//! where `S_iso` uses `d_xx + d_yy + d_zz` and `S_full` is the
//! multiplicity-weighted component sum. The depolarization ratio
//! `ρ(ω) = I_⊥ / I_∥` distinguishes totally symmetric modes (ρ < 3/4)
//! from the rest (ρ = 3/4).

use crate::gagq::Quadrature;
use crate::raman::{quadratures, raman_rules, RamanOptions, COMPONENT_MULTIPLICITY};
use crate::spectrum::SpectralDensity;
use qfr_linalg::sparse::MatVec;

/// IR spectrum from the mass-weighted Hessian and the three mass-weighted
/// dipole-derivative vectors.
pub fn ir_lanczos(h: &dyn MatVec, dmu: &[Vec<f64>; 3], opts: &RamanOptions) -> SpectralDensity {
    let starts: Vec<&[f64]> = dmu.iter().map(Vec::as_slice).collect();
    ir_from_rules(&quadratures(h, &starts, opts), opts)
}

/// Sum of the three dipole-component functionals.
pub(crate) fn ir_from_rules(rules: &[Quadrature], opts: &RamanOptions) -> SpectralDensity {
    let mut spec = SpectralDensity::zeros(opts.grid_lo, opts.grid_hi, opts.grid_points);
    for rule in rules {
        spec.accumulate_quadrature(rule, opts.sigma, 1.0, opts.acoustic_floor);
    }
    spec
}

/// Parallel / perpendicular Raman spectra and the depolarization ratio.
#[derive(Debug, Clone)]
pub struct PolarizedRaman {
    /// `I_∥(ω) ∝ 45 ā² + 4 γ²`.
    pub parallel: SpectralDensity,
    /// `I_⊥(ω) ∝ 3 γ²`.
    pub perpendicular: SpectralDensity,
}

impl PolarizedRaman {
    /// Depolarization ratio `ρ(ω) = I_⊥/I_∥` where the parallel intensity
    /// is above `threshold` (relative to its max); elsewhere 0.
    pub fn depolarization_ratio(&self, threshold: f64) -> SpectralDensity {
        let max = self.parallel.intensities.iter().cloned().fold(0.0_f64, f64::max);
        let cut = threshold * max;
        let mut out = self.parallel.clone();
        for (r, (&par, &perp)) in out
            .intensities
            .iter_mut()
            .zip(self.parallel.intensities.iter().zip(&self.perpendicular.intensities))
        {
            *r = if par > cut && par > 0.0 { perp / par } else { 0.0 };
        }
        out
    }
}

/// Computes the polarized Raman spectra from the same seven-column panel
/// as [`crate::raman::raman_lanczos`] (iso + 6 components), splitting the
/// invariants.
pub fn raman_polarized(
    h: &dyn MatVec,
    dalpha: &[Vec<f64>; 6],
    opts: &RamanOptions,
) -> PolarizedRaman {
    let rules = raman_rules(h, dalpha, &[], opts);
    let mut s_iso = SpectralDensity::zeros(opts.grid_lo, opts.grid_hi, opts.grid_points);
    s_iso.accumulate_quadrature(&rules[0], opts.sigma, 1.0, opts.acoustic_floor);

    let mut s_full = SpectralDensity::zeros(opts.grid_lo, opts.grid_hi, opts.grid_points);
    for (rule, &m) in rules[1..].iter().zip(&COMPONENT_MULTIPLICITY) {
        s_full.accumulate_quadrature(rule, opts.sigma, m, opts.acoustic_floor);
    }

    let mut parallel = SpectralDensity::zeros(opts.grid_lo, opts.grid_hi, opts.grid_points);
    let mut perpendicular = SpectralDensity::zeros(opts.grid_lo, opts.grid_hi, opts.grid_points);
    for i in 0..parallel.intensities.len() {
        let a_bar2 = s_iso.intensities[i] / 9.0;
        // γ² is a difference of two quadrature results: clamp tiny negative
        // excursions from independent Lanczos errors.
        let gamma2 = (0.5 * (3.0 * s_full.intensities[i] - s_iso.intensities[i])).max(0.0);
        parallel.intensities[i] = 45.0 * a_bar2 + 4.0 * gamma2;
        perpendicular.intensities[i] = 3.0 * gamma2;
    }
    PolarizedRaman { parallel, perpendicular }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_linalg::DMatrix;

    fn diag_problem() -> (DMatrix, [Vec<f64>; 6], [Vec<f64>; 3]) {
        // Two modes: one isotropic-active (breathing-like), one
        // anisotropic-only (depolarized); one IR-active.
        let l1 = (1000.0f64 / 1302.7914).powi(2);
        let l2 = (2000.0f64 / 1302.7914).powi(2);
        let mut h = DMatrix::zeros(4, 4);
        h[(0, 0)] = l1;
        h[(1, 1)] = l2;
        h[(2, 2)] = (3500.0f64 / 1302.7914).powi(2);
        h[(3, 3)] = (3600.0f64 / 1302.7914).powi(2);
        let mut dalpha: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; 4]);
        // Mode 0: pure isotropic (alpha_xx = alpha_yy = alpha_zz).
        dalpha[0][0] = 1.0;
        dalpha[1][0] = 1.0;
        dalpha[2][0] = 1.0;
        // Mode 1: pure off-diagonal (xy) -> fully depolarized.
        dalpha[3][1] = 1.0;
        let mut dmu: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; 4]);
        dmu[0][2] = 1.0; // mode 2 IR-active
        (h, dalpha, dmu)
    }

    fn opts() -> RamanOptions {
        RamanOptions { lanczos_steps: 4, sigma: 15.0, ..Default::default() }
    }

    #[test]
    fn ir_peak_at_active_mode_only() {
        let (h, _, dmu) = diag_problem();
        let spec = ir_lanczos(&h, &dmu, &opts());
        let peak = spec.peak().unwrap();
        assert!((peak - 3500.0).abs() < 15.0, "IR peak at {peak}");
        // No IR intensity at the Raman-only modes.
        let at = |nu: f64| {
            let i = spec.wavenumbers.iter().position(|&w| w >= nu).unwrap();
            spec.intensities[i]
        };
        assert!(at(1000.0) < 1e-9 * at(3500.0));
    }

    #[test]
    fn depolarization_separates_mode_symmetries() {
        let (h, dalpha, _) = diag_problem();
        let pol = raman_polarized(&h, &dalpha, &opts());
        let rho = pol.depolarization_ratio(0.001);
        let at = |s: &SpectralDensity, nu: f64| {
            let i = s.wavenumbers.iter().position(|&w| w >= nu).unwrap();
            s.intensities[i]
        };
        // Totally symmetric mode (pure isotropic): rho -> 0.
        assert!(at(&rho, 1000.0) < 0.05, "symmetric mode rho {}", at(&rho, 1000.0));
        // Pure anisotropic mode: rho = 3/4 exactly.
        assert!(
            (at(&rho, 2000.0) - 0.75).abs() < 0.02,
            "depolarized mode rho {}",
            at(&rho, 2000.0)
        );
    }

    #[test]
    fn parallel_plus_perpendicular_consistent_with_eq4() {
        // 45 ā² + 7 γ² (par + perp) is proportional to the paper's Eq. (4)
        // combination 1.5 (3ā)² + 10.5 [Σ m_c d_c²] when both exist.
        let (h, dalpha, _) = diag_problem();
        let pol = raman_polarized(&h, &dalpha, &opts());
        let total = crate::raman::raman_lanczos(&h, &dalpha, &opts());
        // Compare shapes: (par + perp) vs Eq.(4) total.
        let mut combined = pol.parallel.clone();
        for (c, p) in combined.intensities.iter_mut().zip(&pol.perpendicular.intensities) {
            *c += p;
        }
        let sim = combined.cosine_similarity(&total);
        assert!(sim > 0.98, "invariant combinations diverge: {sim}");
    }

    #[test]
    fn perpendicular_never_exceeds_three_quarters_parallel() {
        let (h, dalpha, _) = diag_problem();
        let pol = raman_polarized(&h, &dalpha, &opts());
        for (per, par) in pol.perpendicular.intensities.iter().zip(&pol.parallel.intensities) {
            assert!(*per <= 0.75 * par + 1e-9, "rho > 3/4: {per} vs {par}");
        }
    }
}
