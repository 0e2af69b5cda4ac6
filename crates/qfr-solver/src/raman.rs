//! Orientation-averaged Raman spectra (Eq. (4)) via Lanczos/GAGQ or dense
//! diagonalization.
//!
//! Eq. (4) of the paper:
//!
//! ```text
//! R_p ∝ (3/2) (Σ_i ∂α_ii/∂Q_p)² + (21/2) Σ_ij (∂α_ij/∂Q_p)²
//! ```
//!
//! Writing `d_c = ∂α_c/∂ξ` (mass-weighted Cartesian derivatives of tensor
//! component `c`), each squared mode sum becomes a matrix functional
//! `d_cᵀ δ(ω−H) d_c`, because `∂α/∂Q_p = d · e_p` (Eq. (2)) and the `e_p`
//! are the eigenvectors of `H`. The isotropic cross terms use the combined
//! vector `d_iso = d_xx + d_yy + d_zz`. Seven Lanczos columns of one panel
//! therefore yield the full orientation-averaged intensity without any
//! eigenvectors:
//!
//! ```text
//! I(ω) = (3/2) S_iso(ω)
//!      + (21/2) [S_xx + S_yy + S_zz + 2 (S_xy + S_xz + S_yz)](ω)
//! ```
//!
//! with `S_v(ω) = vᵀ g_σ(ω−H) v`.

use crate::gagq::{quadrature_rules, Quadrature, LANES};
use crate::lanczos::lanczos_panel;
use crate::spectrum::SpectralDensity;
use qfr_linalg::eigen::symmetric_eigen;
use qfr_linalg::sparse::MatVec;
use qfr_linalg::vecops;
use qfr_linalg::DMatrix;
use rayon::prelude::*;

/// Options for the spectral solve.
#[derive(Debug, Clone, Copy)]
pub struct RamanOptions {
    /// Lanczos steps per starting vector.
    pub lanczos_steps: usize,
    /// Gaussian smearing σ in cm⁻¹ (paper: 5 gas phase, 20 solvated).
    pub sigma: f64,
    /// Grid lower bound (cm⁻¹).
    pub grid_lo: f64,
    /// Grid upper bound (cm⁻¹).
    pub grid_hi: f64,
    /// Grid points.
    pub grid_points: usize,
    /// Use the GAGQ augmented rule (`false` = plain Gauss, for the
    /// ablation bench).
    pub use_gagq: bool,
    /// Modes below this wavenumber are dropped (acoustic filter, cm⁻¹).
    pub acoustic_floor: f64,
}

impl Default for RamanOptions {
    fn default() -> Self {
        Self {
            lanczos_steps: 120,
            sigma: 5.0,
            grid_lo: 0.0,
            grid_hi: 4000.0,
            grid_points: 2001,
            use_gagq: true,
            acoustic_floor: 12.0,
        }
    }
}

/// A computed Raman spectrum.
pub type RamanSpectrum = SpectralDensity;

/// Weight of each tensor component in the anisotropic sum of Eq. (4):
/// diagonal components once, off-diagonals twice (ij and ji).
pub(crate) const COMPONENT_MULTIPLICITY: [f64; 6] = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0];

/// The Gauss/GAGQ rule of every start vector, from one lockstep panel run;
/// groups of [`LANES`] rules solve as lanes of one eigensolve, the groups
/// in parallel.
pub(crate) fn quadratures(
    h: &dyn MatVec,
    starts: &[&[f64]],
    opts: &RamanOptions,
) -> Vec<Quadrature> {
    let mut results = lanczos_panel(h, starts, opts.lanczos_steps);
    (results.par_chunks_mut(LANES))
        .flat_map_iter(|group| quadrature_rules(group, opts.use_gagq))
        .collect()
}

/// Rules of the seven Raman start vectors — `d_iso = d_xx + d_yy + d_zz`,
/// then the six components — followed by those of `more`, all one panel.
pub(crate) fn raman_rules(
    h: &dyn MatVec,
    dalpha: &[Vec<f64>; 6],
    more: &[Vec<f64>],
    opts: &RamanOptions,
) -> Vec<Quadrature> {
    let mut d_iso = vec![0.0; dalpha[0].len()];
    for c in 0..3 {
        vecops::axpy(1.0, &dalpha[c], &mut d_iso);
    }
    let starts: Vec<&[f64]> =
        std::iter::once(&d_iso).chain(dalpha).chain(more).map(Vec::as_slice).collect();
    quadratures(h, &starts, opts)
}

/// Eq. (4) from the first seven of [`raman_rules`]: the isotropic part, then
/// every component with its multiplicity.
fn raman_from_rules(rules: &[Quadrature], opts: &RamanOptions) -> RamanSpectrum {
    let mut spec = SpectralDensity::zeros(opts.grid_lo, opts.grid_hi, opts.grid_points);
    spec.accumulate_quadrature(&rules[0], opts.sigma, 1.5, opts.acoustic_floor);
    for (rule, &mult) in rules[1..].iter().zip(&COMPONENT_MULTIPLICITY) {
        spec.accumulate_quadrature(rule, opts.sigma, 10.5 * mult, opts.acoustic_floor);
    }
    spec
}

/// Computes the Raman spectrum via Lanczos/GAGQ from the mass-weighted
/// Hessian operator and the six mass-weighted polarizability-derivative
/// vectors (components xx, yy, zz, xy, xz, yz).
pub fn raman_lanczos(h: &dyn MatVec, dalpha: &[Vec<f64>; 6], opts: &RamanOptions) -> RamanSpectrum {
    raman_from_rules(&raman_rules(h, dalpha, &[], opts), opts)
}

/// Raman and IR spectra from one ten-column panel: each Lanczos step is a
/// single pass over the operator. Bit-identical to [`raman_lanczos`] and
/// [`crate::ir_lanczos`] called one after the other.
pub fn raman_ir_lanczos(
    h: &dyn MatVec,
    dalpha: &[Vec<f64>; 6],
    dmu: &[Vec<f64>; 3],
    opts: &RamanOptions,
) -> (RamanSpectrum, SpectralDensity) {
    let rules = raman_rules(h, dalpha, dmu, opts);
    (raman_from_rules(&rules[..7], opts), crate::infrared::ir_from_rules(&rules[7..], opts))
}

/// Dense reference: diagonalizes the mass-weighted Hessian, forms
/// `∂α/∂Q_p = d · e_p` per mode, applies Eq. (4) and broadens. Only viable
/// for small systems; used to validate the Lanczos path.
pub fn raman_dense_reference(
    h: &DMatrix,
    dalpha: &[Vec<f64>; 6],
    opts: &RamanOptions,
) -> RamanSpectrum {
    let eig = symmetric_eigen(h);
    let n = h.rows();
    let mut sticks = Vec::with_capacity(n);
    for p in 0..n {
        let ep = eig.eigenvectors.col(p);
        let mut da_dq = [0.0f64; 6];
        for c in 0..6 {
            da_dq[c] = vecops::dot(&dalpha[c], &ep);
        }
        let iso = da_dq[0] + da_dq[1] + da_dq[2];
        let aniso: f64 = da_dq.iter().zip(&COMPONENT_MULTIPLICITY).map(|(d, m)| m * d * d).sum();
        let intensity = 1.5 * iso * iso + 10.5 * aniso;
        let nu = crate::spectrum::node_to_wavenumber(eig.eigenvalues[p]);
        sticks.push((nu, intensity));
    }
    let mut spec = SpectralDensity::zeros(opts.grid_lo, opts.grid_hi, opts.grid_points);
    spec.accumulate_sticks(&sticks, opts.sigma, opts.acoustic_floor);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic "mass-weighted Hessian": diagonal blocks with known
    /// eigenvalues, plus derivative vectors aligned with chosen modes.
    fn synthetic_problem(n: usize, seed: u64) -> (DMatrix, [Vec<f64>; 6]) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        // Random PSD matrix with spectrum spread over eigenvalue units
        // corresponding to 0..~3600 cm-1 (lambda in 0..7.6).
        let b = DMatrix::from_fn(n, n, |_, _| rnd());
        let mut h = qfr_linalg::blas::gram(&b);
        let scale = 7.6 / h.trace().max(1.0) * n as f64 / 4.0;
        h.scale_mut(scale);
        let dalpha: [Vec<f64>; 6] = std::array::from_fn(|_| (0..n).map(|_| rnd()).collect());
        (h, dalpha)
    }

    #[test]
    fn lanczos_matches_dense_reference() {
        let (h, dalpha) = synthetic_problem(40, 1);
        let opts =
            RamanOptions { lanczos_steps: 40, sigma: 40.0, grid_points: 401, ..Default::default() };
        let dense = raman_dense_reference(&h, &dalpha, &opts);
        let fast = raman_lanczos(&h, &dalpha, &opts);
        let sim = dense.cosine_similarity(&fast);
        assert!(sim > 0.999, "cosine similarity {sim}");
    }

    #[test]
    fn truncated_lanczos_still_close() {
        let (h, dalpha) = synthetic_problem(60, 2);
        let opts =
            RamanOptions { lanczos_steps: 25, sigma: 60.0, grid_points: 401, ..Default::default() };
        let dense = raman_dense_reference(&h, &dalpha, &opts);
        let fast = raman_lanczos(&h, &dalpha, &opts);
        let sim = dense.cosine_similarity(&fast);
        assert!(sim > 0.99, "cosine similarity {sim}");
    }

    #[test]
    fn both_sides_of_the_exhaustive_run_boundary() {
        let k = 20;
        let opts =
            RamanOptions { lanczos_steps: k, sigma: 40.0, grid_points: 401, ..Default::default() };
        // k >= n keeps the basis and reorthogonalizes: T is exact.
        for n in [k, k - 1] {
            let (h, dalpha) = synthetic_problem(n, 6);
            let sim = raman_dense_reference(&h, &dalpha, &opts)
                .cosine_similarity(&raman_lanczos(&h, &dalpha, &opts));
            assert!(sim > 0.9999, "n = {n}: cosine similarity {sim}");
        }
        // n = k + 1 is the smallest three-vector run. A truncated rule on a
        // tiny random matrix is not converged either way; what must hold
        // is that it is still a quadrature rule of the right mass.
        let (h, dalpha) = synthetic_problem(k + 1, 6);
        for d in &dalpha {
            let lz = crate::lanczos(&h, d, k);
            assert_eq!(lz.steps(), k);
            let norm2 = vecops::dot(d, d);
            for q in [crate::gauss_quadrature(&lz), crate::averaged_quadrature(&lz)] {
                let mass = q.apply(|_| 1.0);
                assert!((mass - norm2).abs() < 1e-8 * norm2, "mass {mass} vs {norm2}");
                assert!(q.weights.iter().all(|&w| w >= 0.0), "negative weight");
            }
        }
    }

    #[test]
    fn gagq_beats_plain_gauss_when_truncated() {
        let (h, dalpha) = synthetic_problem(80, 3);
        let base =
            RamanOptions { lanczos_steps: 12, sigma: 80.0, grid_points: 301, ..Default::default() };
        let dense = raman_dense_reference(&h, &dalpha, &base);
        let with_gagq = raman_lanczos(&h, &dalpha, &base);
        let without = raman_lanczos(&h, &dalpha, &RamanOptions { use_gagq: false, ..base });
        let sim_gagq = dense.cosine_similarity(&with_gagq);
        let sim_plain = dense.cosine_similarity(&without);
        assert!(sim_gagq >= sim_plain - 1e-6, "GAGQ {sim_gagq} worse than Gauss {sim_plain}");
    }

    #[test]
    fn intensities_nonnegative() {
        let (h, dalpha) = synthetic_problem(30, 4);
        let spec = raman_lanczos(&h, &dalpha, &RamanOptions::default());
        // Eq. (4) is a sum of squares; GAGQ weights are nonnegative, so the
        // diagonal-component functionals are too. Tiny negative excursions
        // can only come from floating-point noise.
        let min = spec.intensities.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = spec.intensities.iter().cloned().fold(0.0_f64, f64::max);
        assert!(min > -1e-9 * max.max(1.0), "negative intensity {min}");
    }

    #[test]
    fn zero_derivatives_give_zero_spectrum() {
        let (h, _) = synthetic_problem(20, 5);
        let dalpha: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; 20]);
        let spec = raman_lanczos(&h, &dalpha, &RamanOptions::default());
        assert!(spec.intensities.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_mode_lands_at_its_frequency() {
        // H diagonal with one Raman-active mode at lambda chosen for
        // 1000 cm-1.
        let lambda = (1000.0f64 / 1302.7914).powi(2);
        let mut h = DMatrix::zeros(5, 5);
        h[(0, 0)] = lambda;
        for i in 1..5 {
            h[(i, i)] = (3000.0f64 / 1302.7914).powi(2);
        }
        let mut dalpha: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; 5]);
        dalpha[0][0] = 1.0; // only alpha_xx couples, only mode 0
        let opts = RamanOptions { sigma: 10.0, lanczos_steps: 5, ..Default::default() };
        let spec = raman_lanczos(&h, &dalpha, &opts);
        let peak = spec.peak().unwrap();
        assert!((peak - 1000.0).abs() < 12.0, "peak at {peak}");
    }
}
