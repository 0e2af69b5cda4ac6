//! Gauss and generalized averaged Gauss (GAGQ) quadrature rules from
//! Lanczos tridiagonal data.
//!
//! A k-step Lanczos run defines the k-node Gauss rule of the spectral
//! measure of `(H, d)`: nodes are the eigenvalues of `T_k`, weights the
//! squared first components of its eigenvectors. Spalević's generalized
//! averaged rule nearly doubles the degree of exactness by augmenting `T_k`
//! with its own reversal, coupled through the residual norm β_k, producing
//! a `(2k−1)`-node rule at the cost of one tridiagonal eigensolve — the
//! technique the paper adopts from Shao et al. \[35\] and
//! Reichel–Spalević–Tang \[36\].
//!
//! [`quadrature_rules`] solves the eigenproblems of many Lanczos results as
//! interleaved lanes of one batched QL ([`gauss_quadrature_nodes_batch`]);
//! each rule is bit-identical to its one-by-one solve.

use crate::lanczos::LanczosResult;
use qfr_linalg::tridiag::gauss_quadrature_nodes_batch;

/// A quadrature rule: paired nodes (eigenvalue units) and non-negative
/// weights, scaled so that applying it to `f == 1` yields `|d|²`.
#[derive(Debug, Clone)]
pub struct Quadrature {
    /// Quadrature nodes (ascending).
    pub nodes: Vec<f64>,
    /// Weights including the `|d|²` scaling.
    pub weights: Vec<f64>,
}

impl Quadrature {
    /// Applies the rule to a function: `Σ w_j f(θ_j) ≈ dᵀ f(H) d`.
    pub fn apply(&self, f: impl Fn(f64) -> f64) -> f64 {
        self.nodes.iter().zip(&self.weights).map(|(&x, &w)| w * f(x)).sum()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the rule has no nodes (zero starting vector).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Rules per batched eigensolve in the spectral solver. On ten 279-node
/// rules, one thread, 2 lanes ran 1.6× faster than one by one and 4 to 7
/// lanes 1.9–2.0×: by then the core is full, and more lanes only lengthen
/// the group.
pub const LANES: usize = 5;

static GAGQ_RULES: qfr_obs::Counter = qfr_obs::Counter::deterministic("solver.gagq.rules");

/// The Gauss (`gagq == false`) or averaged rule of every Lanczos result,
/// their tridiagonal eigensolves run as the lanes of one batch: rule `j`
/// is bit-identical to [`gauss_quadrature`] / [`averaged_quadrature`] of
/// `results[j]` whatever else the batch holds.
pub fn quadrature_rules(results: &[LanczosResult], gagq: bool) -> Vec<Quadrature> {
    let augmented: Vec<Option<(Vec<f64>, Vec<f64>)>> =
        results.iter().map(|lz| if gagq { augmented(lz) } else { None }).collect();
    let problems: Vec<(&[f64], &[f64])> = (results.iter().zip(&augmented))
        .map(|(lz, aug)| match aug {
            Some((diag, sub)) => (diag.as_slice(), sub.as_slice()),
            None => (lz.alpha.as_slice(), lz.beta.as_slice()),
        })
        .collect();
    GAGQ_RULES.add(results.len() as u64);
    (gauss_quadrature_nodes_batch(&problems).into_iter().zip(results))
        .map(|((nodes, mut weights), lz)| {
            let scale = lz.start_norm * lz.start_norm;
            for w in &mut weights {
                *w *= scale;
            }
            Quadrature { nodes, weights }
        })
        .collect()
}

fn one_rule(lz: &LanczosResult, gagq: bool) -> Quadrature {
    quadrature_rules(std::slice::from_ref(lz), gagq).pop().expect("one result, one rule")
}

/// The plain k-node Gauss rule from a Lanczos result.
pub fn gauss_quadrature(lz: &LanczosResult) -> Quadrature {
    one_rule(lz, false)
}

/// Spalević's generalized averaged rule with `2m−1` nodes from an `m`-step
/// Lanczos result (`m = lz.steps()`).
///
/// The augmented matrix is
/// `T̂ = tridiag(diag: α_1..α_m, α_{m-1}..α_1;
///              sub: β_1..β_{m-1}, β_m, β_{m-2}..β_1)`,
/// i.e. `T_m` glued to the reversal of `T_{m-1}` through the residual norm
/// β_m. Falls back to the plain Gauss rule when `m < 2` or when the Lanczos
/// run broke down (β_m = 0, meaning the Gauss rule is already exact).
pub fn averaged_quadrature(lz: &LanczosResult) -> Quadrature {
    one_rule(lz, true)
}

/// `(diag, sub)` of the averaged rule's `T̂`, or `None` where it falls back
/// to Gauss.
fn augmented(lz: &LanczosResult) -> Option<(Vec<f64>, Vec<f64>)> {
    let m = lz.steps();
    if m < 2 || lz.beta_last == 0.0 {
        return None;
    }
    let size = 2 * m - 1;
    let mut diag = Vec::with_capacity(size);
    diag.extend_from_slice(&lz.alpha);
    for j in (0..m - 1).rev() {
        diag.push(lz.alpha[j]);
    }
    let mut sub = Vec::with_capacity(size - 1);
    sub.extend_from_slice(&lz.beta); // β_1..β_{m-1}
    sub.push(lz.beta_last); // coupling β_m
    for j in (0..m.saturating_sub(2)).rev() {
        sub.push(lz.beta[j]); // β_{m-2}..β_1
    }
    debug_assert_eq!(diag.len(), size);
    debug_assert_eq!(sub.len(), size - 1);
    Some((diag, sub))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanczos::lanczos;
    use qfr_linalg::vecops;
    use qfr_linalg::DMatrix;

    fn sym_sample(n: usize, seed: u64) -> DMatrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut m = DMatrix::from_fn(n, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        m.symmetrize_mut();
        m
    }

    /// d^T H^p d computed exactly by repeated matvec.
    fn moment(a: &DMatrix, d: &[f64], p: usize) -> f64 {
        let mut v = d.to_vec();
        for _ in 0..p {
            v = a.matvec(&v);
        }
        vecops::dot(d, &v)
    }

    #[test]
    fn gauss_rule_total_mass() {
        let a = sym_sample(15, 1);
        let d = vec![2.0; 15];
        let q = gauss_quadrature(&lanczos(&a, &d, 5));
        // f == 1: total weight is |d|^2 = 60.
        assert!((q.apply(|_| 1.0) - 60.0).abs() < 1e-9);
        assert!(q.weights.iter().all(|&w| w >= -1e-12));
    }

    #[test]
    fn gauss_rule_exact_for_low_moments() {
        // A k-node Gauss rule integrates polynomials up to degree 2k-1.
        let a = sym_sample(18, 2);
        let d: Vec<f64> = (0..18).map(|i| 1.0 + 0.2 * i as f64).collect();
        let k = 4;
        let q = gauss_quadrature(&lanczos(&a, &d, k));
        for p in 0..=(2 * k - 1) {
            let exact = moment(&a, &d, p);
            let approx = q.apply(|x| x.powi(p as i32));
            assert!(
                (exact - approx).abs() < 1e-7 * exact.abs().max(1.0),
                "moment {p}: {exact} vs {approx}"
            );
        }
    }

    #[test]
    fn averaged_rule_has_2m_minus_1_nodes() {
        let a = sym_sample(20, 3);
        let d = vec![1.0; 20];
        let lz = lanczos(&a, &d, 6);
        let q = averaged_quadrature(&lz);
        assert_eq!(q.len(), 11);
        assert!((q.apply(|_| 1.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn averaged_rule_is_exact_beyond_gauss() {
        // The averaged rule integrates moments past the plain Gauss degree.
        let a = sym_sample(24, 4);
        let d: Vec<f64> = (0..24).map(|i| (1 + i % 3) as f64).collect();
        let k = 4;
        let lz = lanczos(&a, &d, k);
        let gauss = gauss_quadrature(&lz);
        let avg = averaged_quadrature(&lz);
        // Degree 2k (= 8): Gauss is no longer exact; averaged should be
        // substantially closer.
        let p = 2 * k;
        let exact = moment(&a, &d, p);
        let eg = (gauss.apply(|x| x.powi(p as i32)) - exact).abs();
        let ea = (avg.apply(|x| x.powi(p as i32)) - exact).abs();
        assert!(
            ea < 0.5 * eg || ea < 1e-7 * exact.abs(),
            "averaged {ea} not better than gauss {eg}"
        );
    }

    #[test]
    fn breakdown_falls_back_to_gauss() {
        let a = DMatrix::from_diagonal(&[1.0, 5.0, 9.0]);
        let d = vec![1.0, 0.0, 0.0];
        let lz = lanczos(&a, &d, 3);
        let q = averaged_quadrature(&lz);
        assert_eq!(q.len(), 1);
        assert!((q.nodes[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_lanczos_gives_empty_rule() {
        let a = DMatrix::identity(3);
        let lz = lanczos(&a, &[0.0; 3], 4);
        let q = averaged_quadrature(&lz);
        assert!(q.is_empty());
        assert_eq!(q.apply(|_| 1.0), 0.0);
    }

    #[test]
    fn gaussian_functional_matches_dense() {
        // d^T g(H) d for a Gaussian, GAGQ vs dense diagonalization.
        let n = 30;
        let a = sym_sample(n, 5);
        let d: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let sigma = 0.5_f64;
        let omega = 0.3_f64;
        let g = |x: f64| (-(omega - x) * (omega - x) / (2.0 * sigma * sigma)).exp();

        let eig = qfr_linalg::eigen::symmetric_eigen(&a);
        // exact = sum_j (v_j . d)^2 g(lambda_j)
        let mut exact = 0.0;
        for j in 0..n {
            let vj = eig.eigenvectors.col(j);
            let c = vecops::dot(&vj, &d);
            exact += c * c * g(eig.eigenvalues[j]);
        }
        let lz = lanczos(&a, &d, 14);
        let approx = averaged_quadrature(&lz).apply(g);
        assert!((exact - approx).abs() < 2e-3 * exact.abs().max(1.0), "{exact} vs {approx}");
    }
}
