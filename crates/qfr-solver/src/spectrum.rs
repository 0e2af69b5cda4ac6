//! Spectral densities on a frequency grid.
//!
//! The regularized delta of Eq. (8), `g_σ(t) = exp(−t²/2σ²)/sqrt(2πσ²)`, is
//! applied to quadrature nodes after converting them from mass-weighted-
//! Hessian eigenvalue units to wavenumbers, so the smearing width σ is
//! specified directly in cm⁻¹ (the paper uses 5 cm⁻¹ for gas-phase spectra
//! and 20 cm⁻¹ for solvated ones).

use crate::gagq::Quadrature;

/// Converts an eigenvalue node to a signed wavenumber (duplicated from
/// `qfr-model` to keep this crate dependency-light; the constant is
/// `sqrt(100 N/m / amu)/(2πc)` in cm⁻¹).
pub(crate) fn node_to_wavenumber(lambda: f64) -> f64 {
    const C: f64 = 1302.7914;
    if lambda >= 0.0 {
        C * lambda.sqrt()
    } else {
        -C * (-lambda).sqrt()
    }
}

/// Normalized Gaussian `g_σ(t)`.
pub fn gaussian(t: f64, sigma: f64) -> f64 {
    let s2 = sigma * sigma;
    (-t * t / (2.0 * s2)).exp() / (2.0 * std::f64::consts::PI * s2).sqrt()
}

/// Broadening visits only grid points within this many σ of a stick: beyond
/// `sqrt(2 ln 1e16) σ` the Gaussian is below 1e-16 (an ulp) of its peak.
const WINDOW_SIGMAS: f64 = 8.584;

/// A spectral density sampled on a wavenumber grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralDensity {
    /// Grid in cm⁻¹ (ascending).
    pub wavenumbers: Vec<f64>,
    /// Intensity at each grid point (arbitrary units).
    pub intensities: Vec<f64>,
}

impl SpectralDensity {
    /// Zero density on a uniform grid `[lo, hi]` with `n` points.
    pub fn zeros(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 2 && hi > lo, "need an increasing grid of >= 2 points");
        let step = (hi - lo) / (n - 1) as f64;
        Self {
            wavenumbers: (0..n).map(|i| lo + step * i as f64).collect(),
            intensities: vec![0.0; n],
        }
    }

    /// Adds `amplitude * g_σ(ν − ν_j)` on the grid points within
    /// [`WINDOW_SIGMAS`]`·σ` of `ν_j`; sticks at or below `floor_cm` are
    /// skipped.
    fn add_stick(&mut self, nu_j: f64, amplitude: f64, sigma: f64, floor_cm: f64) {
        if nu_j <= floor_cm {
            return;
        }
        let reach = WINDOW_SIGMAS * sigma;
        let lo = self.wavenumbers.partition_point(|&nu| nu < nu_j - reach);
        let hi = self.wavenumbers.partition_point(|&nu| nu <= nu_j + reach);
        for (nu, out) in self.wavenumbers[lo..hi].iter().zip(&mut self.intensities[lo..hi]) {
            *out += amplitude * gaussian(nu - nu_j, sigma);
        }
    }

    /// Accumulates `scale * Σ_j w_j g_σ(ν − ν_j)` for a quadrature rule
    /// whose nodes are eigenvalues of the mass-weighted Hessian. Negative-
    /// wavenumber nodes (acoustic noise) below `floor_cm` are skipped.
    pub fn accumulate_quadrature(&mut self, q: &Quadrature, sigma: f64, scale: f64, floor_cm: f64) {
        for (&node, &w) in q.nodes.iter().zip(&q.weights) {
            self.add_stick(node_to_wavenumber(node), scale * w, sigma, floor_cm);
        }
    }

    /// Accumulates broadened sticks given directly as `(wavenumber,
    /// intensity)` pairs — the dense-reference path.
    pub fn accumulate_sticks(&mut self, sticks: &[(f64, f64)], sigma: f64, floor_cm: f64) {
        for &(nu_j, int) in sticks {
            self.add_stick(nu_j, int, sigma, floor_cm);
        }
    }

    /// Rescales so the maximum intensity is 1 (no-op for all-zero spectra).
    pub fn normalize_max(&mut self) {
        let max = self.intensities.iter().fold(0.0_f64, |m, &x| m.max(x));
        if max > 0.0 {
            for x in &mut self.intensities {
                *x /= max;
            }
        }
    }

    /// Wavenumber of the highest peak (`None` for an all-zero spectrum).
    pub fn peak(&self) -> Option<f64> {
        let (mut best, mut best_nu) = (0.0_f64, None);
        for (&nu, &i) in self.wavenumbers.iter().zip(&self.intensities) {
            if i > best {
                best = i;
                best_nu = Some(nu);
            }
        }
        best_nu
    }

    /// Local maxima above `threshold` (fraction of global max), as
    /// wavenumbers — the "characteristic bands" of Fig. 12.
    pub fn peaks_above(&self, threshold: f64) -> Vec<f64> {
        let max = self.intensities.iter().fold(0.0_f64, |m, &x| m.max(x));
        if max <= 0.0 {
            return vec![];
        }
        let cut = threshold * max;
        let mut out = Vec::new();
        for i in 1..self.intensities.len() - 1 {
            let (a, b, c) = (self.intensities[i - 1], self.intensities[i], self.intensities[i + 1]);
            if b >= cut && b >= a && b > c {
                out.push(self.wavenumbers[i]);
            }
        }
        out
    }

    /// Cosine similarity with another spectrum on the same grid — the
    /// shape-match metric used by EXPERIMENTS.md.
    pub fn cosine_similarity(&self, other: &SpectralDensity) -> f64 {
        assert_eq!(self.wavenumbers.len(), other.wavenumbers.len(), "grid mismatch");
        let dot: f64 = self.intensities.iter().zip(&other.intensities).map(|(a, b)| a * b).sum();
        let na: f64 = self.intensities.iter().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = other.intensities.iter().map(|x| x * x).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        dot / (na * nb)
    }

    /// Applies the thermal (Bose–Einstein) occupation factor used when
    /// comparing harmonic Stokes intensities with finite-temperature
    /// experiments: `I'(ν̃) = I(ν̃) · (n_B(ν̃) + 1)` with
    /// `n_B = 1/(exp(h c ν̃ / k T) − 1)`. Grid points at ν̃ ≤ 0 are left
    /// unchanged.
    pub fn apply_bose_factor(&mut self, temperature_k: f64) {
        assert!(temperature_k > 0.0, "temperature must be positive");
        const HC_OVER_K: f64 = 1.438777; // cm·K
        for (&nu, i) in self.wavenumbers.iter().zip(self.intensities.iter_mut()) {
            if nu > 0.0 {
                let x = HC_OVER_K * nu / temperature_k;
                let n_b = 1.0 / (x.exp() - 1.0);
                *i *= n_b + 1.0;
            }
        }
    }

    /// Simple text rendering (rows of `#` bars) for terminal output in the
    /// examples; `rows` bins are averaged from the grid.
    pub fn ascii_plot(&self, rows: usize, width: usize) -> String {
        let n = self.wavenumbers.len();
        let chunk = n.div_ceil(rows.max(1));
        let max = self.intensities.iter().fold(0.0_f64, |m, &x| m.max(x)).max(1e-300);
        let mut out = String::new();
        for (row, bin) in self.intensities.chunks(chunk).enumerate() {
            let avg: f64 = bin.iter().sum::<f64>() / bin.len() as f64;
            let bars = ((avg / max) * width as f64).round() as usize;
            let nu = self.wavenumbers[(row * chunk).min(n - 1)];
            out.push_str(&format!("{nu:>8.0} | {}\n", "#".repeat(bars)));
        }
        out
    }
}

/// Convenience: broadens sticks onto a fresh grid.
pub fn gaussian_broadening(
    sticks: &[(f64, f64)],
    lo: f64,
    hi: f64,
    n: usize,
    sigma: f64,
) -> SpectralDensity {
    let mut s = SpectralDensity::zeros(lo, hi, n);
    s.accumulate_sticks(sticks, sigma, 0.0);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_normalization() {
        // Integrate numerically over a wide grid.
        let sigma = 5.0;
        let step = 0.1;
        let total: f64 = (-2000..2000).map(|i| gaussian(i as f64 * step, sigma) * step).sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(gaussian(0.0, sigma) > gaussian(1.0, sigma));
    }

    #[test]
    fn sticks_become_peaks() {
        let s = gaussian_broadening(&[(1000.0, 1.0), (3000.0, 2.0)], 0.0, 4000.0, 801, 20.0);
        let peaks = s.peaks_above(0.25);
        assert_eq!(peaks.len(), 2);
        assert!((peaks[0] - 1000.0).abs() <= 5.0);
        assert!((peaks[1] - 3000.0).abs() <= 5.0);
        assert_eq!(s.peak(), Some(3000.0));
    }

    #[test]
    fn windowed_broadening_equals_the_full_sum() {
        let sticks: Vec<(f64, f64)> =
            (0..300).map(|j| (13.0 * j as f64 + 0.37, 1.0 + ((j * 7) % 11) as f64)).collect();
        for sigma in [5.0, 20.0, 60.0] {
            let windowed = gaussian_broadening(&sticks, 0.0, 4000.0, 2001, sigma);
            let full: Vec<f64> = (windowed.wavenumbers.iter())
                .map(|nu| sticks.iter().map(|&(nu_j, a)| a * gaussian(nu - nu_j, sigma)).sum())
                .collect();
            let max = full.iter().fold(0.0_f64, |m, &x| m.max(x));
            for (w, f) in windowed.intensities.iter().zip(&full) {
                assert!((w - f).abs() <= 1e-12 * max, "sigma {sigma}: {w} vs {f}");
            }
        }
    }

    #[test]
    fn floor_filters_acoustic_noise() {
        let mut s = SpectralDensity::zeros(0.0, 100.0, 11);
        s.accumulate_sticks(&[(-50.0, 10.0), (2.0, 10.0), (60.0, 1.0)], 5.0, 10.0);
        // Only the 60 cm-1 stick survives the 10 cm-1 floor.
        assert_eq!(s.peak(), Some(60.0));
    }

    #[test]
    fn normalization() {
        let mut s = gaussian_broadening(&[(50.0, 7.0)], 0.0, 100.0, 101, 5.0);
        s.normalize_max();
        let max = s.intensities.iter().fold(0.0_f64, |m, &x| m.max(x));
        assert!((max - 1.0).abs() < 1e-12);
        // Normalizing an empty spectrum is a no-op.
        let mut z = SpectralDensity::zeros(0.0, 1.0, 2);
        z.normalize_max();
        assert_eq!(z.intensities, vec![0.0, 0.0]);
        assert_eq!(z.peak(), None);
    }

    #[test]
    fn cosine_similarity_properties() {
        let a = gaussian_broadening(&[(100.0, 1.0)], 0.0, 200.0, 201, 10.0);
        let b = gaussian_broadening(&[(100.0, 3.0)], 0.0, 200.0, 201, 10.0);
        let c = gaussian_broadening(&[(180.0, 1.0)], 0.0, 200.0, 201, 5.0);
        assert!((a.cosine_similarity(&b) - 1.0).abs() < 1e-12, "scale invariant");
        assert!(a.cosine_similarity(&c) < 0.2, "disjoint peaks dissimilar");
        assert_eq!(a.cosine_similarity(&SpectralDensity::zeros(0.0, 200.0, 201)), 0.0);
    }

    #[test]
    fn quadrature_accumulation_converts_units() {
        // A single node at eigenvalue lambda with nu = 1302.79 sqrt(lambda).
        let lambda = 1.0;
        let q = crate::gagq::Quadrature { nodes: vec![lambda], weights: vec![2.0] };
        let mut s = SpectralDensity::zeros(1200.0, 1400.0, 201);
        s.accumulate_quadrature(&q, 10.0, 1.0, 0.0);
        let peak = s.peak().unwrap();
        assert!((peak - 1302.79).abs() < 2.0, "peak at {peak}");
    }

    #[test]
    fn bose_factor_boosts_low_frequencies() {
        let mut s = gaussian_broadening(&[(100.0, 1.0), (3000.0, 1.0)], 0.0, 3500.0, 701, 15.0);
        let at = |spec: &SpectralDensity, nu: f64| {
            let i = spec.wavenumbers.iter().position(|&w| w >= nu).unwrap();
            spec.intensities[i]
        };
        let before_low = at(&s, 100.0);
        let before_high = at(&s, 3000.0);
        s.apply_bose_factor(300.0);
        // Low-frequency Stokes intensity is thermally enhanced strongly;
        // at 3000 cm-1 and room temperature n_B is negligible.
        assert!(at(&s, 100.0) / before_low > 2.0, "low-freq boost missing");
        assert!((at(&s, 3000.0) / before_high - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn bose_rejects_nonpositive_temperature() {
        let mut s = SpectralDensity::zeros(0.0, 10.0, 3);
        s.apply_bose_factor(0.0);
    }

    #[test]
    fn ascii_plot_renders() {
        let s = gaussian_broadening(&[(500.0, 1.0)], 0.0, 1000.0, 101, 30.0);
        let plot = s.ascii_plot(10, 40);
        assert!(plot.lines().count() >= 10);
        assert!(plot.contains('#'));
    }

    #[test]
    #[should_panic(expected = "increasing grid")]
    fn bad_grid_rejected() {
        let _ = SpectralDensity::zeros(10.0, 5.0, 100);
    }
}
