//! The Lanczos process, advanced in lockstep over a panel of start vectors.
//!
//! A `k`-step Lanczos run on a symmetric operator `H` with starting vector
//! `q_1 = d/|d|` produces a tridiagonal `T_k` with
//! `H Q_k = Q_k T_k + β_k q_{k+1} e_kᵀ` (Eq. (6) of the paper). The
//! quadrature downstream reads `T_k` and nothing else, so the recurrence
//! holds three `dim × p` panels (`q_{j-1}`, `q_j`, `w`) for its `p` start
//! vectors and applies `H` to the whole panel once per step: one pass over
//! the operator's data serves every column. Without reorthogonalization
//! converged Ritz values reappear as ghosts, but a ghost only splits the
//! weight of the eigenvalue it copies between coincident nodes — a
//! σ-broadened Gauss/GAGQ sum cannot tell.
//!
//! Only a run long enough to exhaust the space (`k ≥ n`) needs more: there
//! `T` is meant to be *exact*, which rounding would spoil, and the basis is
//! at most `n × n ≤ k²` numbers per column — so those runs keep their
//! vectors and reorthogonalize twice against all of them. The choice is
//! read from `(k, n)`; nothing selects it.
//!
//! Every per-column reduction runs in ascending row index whatever `p` is,
//! so a column's `α/β` are the same bits in any panel, over any operator.

use qfr_linalg::sparse::MatVec;
use qfr_linalg::vecops;

static LANCZOS_RUNS: qfr_obs::Counter = qfr_obs::Counter::deterministic("solver.lanczos.runs");
static LANCZOS_STEPS: qfr_obs::Counter = qfr_obs::Counter::deterministic("solver.lanczos.steps");

/// A column has found an invariant subspace when its residual norm falls
/// to this fraction of the running `‖T‖` estimate (the largest `|α_j|`,
/// `β_j` seen so far) — both sides scale with `H`, neither with `d`.
const BREAKDOWN_REL: f64 = 1e-12;

/// Output of a Lanczos run.
#[derive(Debug, Clone, Default)]
pub struct LanczosResult {
    /// Diagonal entries α_1..α_m of `T` (m ≤ requested k on breakdown).
    pub alpha: Vec<f64>,
    /// Subdiagonal entries β_1..β_{m-1} of `T`.
    pub beta: Vec<f64>,
    /// The residual norm β_m coupling to q_{m+1} (0 on exact breakdown);
    /// the GAGQ augmentation consumes this.
    pub beta_last: f64,
    /// `|d|` of the starting vector (the functional is scaled by `|d|²`).
    pub start_norm: f64,
}

impl LanczosResult {
    /// Number of completed steps.
    pub fn steps(&self) -> usize {
        self.alpha.len()
    }
}

/// Runs `k` Lanczos steps of `h` starting from `d`: the one-column case of
/// [`lanczos_panel`], panicking as it does if `d.len() != h.dim()`.
pub fn lanczos(h: &dyn MatVec, d: &[f64], k: usize) -> LanczosResult {
    lanczos_panel(h, &[d], k).pop().expect("one result per start vector")
}

/// Runs `k` Lanczos steps of `h` from every start vector at once, one
/// [`MatVec::apply_panel`] per step; result `c` belongs to `starts[c]`.
///
/// A column stops early (fewer steps) on invariant-subspace breakdown and a
/// zero start vector yields an empty result with `start_norm == 0`; such
/// columns are frozen at zero while the rest advance.
///
/// # Panics
/// Panics if a start vector's length is not `h.dim()`.
pub fn lanczos_panel(h: &dyn MatVec, starts: &[&[f64]], k: usize) -> Vec<LanczosResult> {
    let (n, p) = (h.dim(), starts.len());
    if p == 0 {
        return Vec::new();
    }
    let mut q = vec![0.0; n * p];
    for (c, d) in starts.iter().enumerate() {
        assert_eq!(d.len(), n, "starting vector length mismatch");
        for (i, di) in d.iter().enumerate() {
            q[i * p + c] = *di;
        }
    }
    // One scalar per column, reused for every reduction and coefficient.
    let mut col = vec![0.0; p];
    vecops::panel_dot(&q, &q, &mut col);
    let mut out: Vec<LanczosResult> =
        col.iter().map(|s| LanczosResult { start_norm: s.sqrt(), ..Default::default() }).collect();
    let mut live: Vec<bool> = out.iter().map(|o| o.start_norm != 0.0 && k > 0).collect();
    if !live.contains(&true) {
        return out;
    }
    LANCZOS_RUNS.add(live.iter().filter(|&&l| l).count() as u64);

    for c in 0..p {
        col[c] = if live[c] { 1.0 / out[c].start_norm } else { 0.0 };
    }
    vecops::panel_scale(&col, &mut q);
    let (mut q_prev, mut w) = (vec![0.0; n * p], vec![0.0; n * p]);
    let mut basis = (k >= n).then(|| vec![q.clone()]);
    let mut neg_beta = vec![0.0; p];
    let mut t_norm = vec![0.0_f64; p];
    let negate = |v: &mut [f64]| v.iter_mut().for_each(|x| *x = -*x);

    for j in 0..k {
        h.apply_panel(p, &q, &mut w);
        vecops::panel_dot(&q, &w, &mut col);
        for c in (0..p).filter(|&c| live[c]) {
            out[c].alpha.push(col[c]);
            t_norm[c] = t_norm[c].max(col[c].abs());
        }
        // w <- w - a_j q_j - b_{j-1} q_{j-1}
        negate(&mut col);
        vecops::panel_axpy(&col, &q, &mut w);
        if j > 0 {
            vecops::panel_axpy(&neg_beta, &q_prev, &mut w);
        }
        if let Some(basis) = &basis {
            // Full reorthogonalization (twice is enough).
            for _ in 0..2 {
                for qi in basis {
                    vecops::panel_dot(qi, &w, &mut col);
                    negate(&mut col);
                    vecops::panel_axpy(&col, qi, &mut w);
                }
            }
        }
        vecops::panel_dot(&w, &w, &mut col);
        for c in 0..p {
            let b_j = col[c].sqrt();
            if live[c] && j + 1 == k {
                out[c].beta_last = b_j;
            }
            // Otherwise the column ends on an invariant subspace: T is
            // exact and beta_last stays 0.
            live[c] = live[c] && j + 1 < k && b_j > BREAKDOWN_REL * t_norm[c];
            if live[c] {
                out[c].beta.push(b_j);
                t_norm[c] = t_norm[c].max(b_j);
            }
            // 1/b_j turns w into q_{j+1}; 0 freezes a finished column.
            (neg_beta[c], col[c]) = if live[c] { (-b_j, 1.0 / b_j) } else { (0.0, 0.0) };
        }
        if !live.contains(&true) {
            break;
        }
        vecops::panel_scale(&col, &mut w);
        std::mem::swap(&mut q_prev, &mut q);
        std::mem::swap(&mut q, &mut w);
        if let Some(basis) = &mut basis {
            basis.push(q.clone());
        }
    }

    LANCZOS_STEPS.add(out.iter().map(|o| o.steps() as u64).sum());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_linalg::tridiag::tridiagonal_eigen;
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

    #[test]
    fn full_run_reproduces_spectrum() {
        // k = n Lanczos on a small matrix: T eigenvalues == A eigenvalues.
        let n = 12;
        let a = sym_sample(n, 1);
        let d: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.1).collect();
        let res = lanczos(&a, &d, n);
        assert_eq!(res.steps(), n);
        let (tvals, _) = tridiagonal_eigen(&res.alpha, &res.beta);
        let avals = qfr_linalg::eigen::symmetric_eigen(&a).eigenvalues;
        for (t, av) in tvals.iter().zip(&avals) {
            assert!((t - av).abs() < 1e-8, "{t} vs {av}");
        }
    }

    #[test]
    fn moments_match() {
        // d^T H^p d == |d|^2 (T^p)_{11} for p < k.
        let n = 20;
        let a = sym_sample(n, 2);
        let d: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let k = 6;
        let res = lanczos(&a, &d, k);
        // Build dense T.
        let m = res.steps();
        let mut t = DMatrix::zeros(m, m);
        for i in 0..m {
            t[(i, i)] = res.alpha[i];
            if i + 1 < m {
                t[(i, i + 1)] = res.beta[i];
                t[(i + 1, i)] = res.beta[i];
            }
        }
        // p = 3: d^T H^3 d.
        let hd = a.matvec(&d);
        let h2d = a.matvec(&hd);
        let h3d = a.matvec(&h2d);
        let lhs = vecops::dot(&d, &h3d);
        let t2 = qfr_linalg::gemm::matmul(&t, &t);
        let t3 = qfr_linalg::gemm::matmul(&t2, &t);
        let rhs = res.start_norm * res.start_norm * t3[(0, 0)];
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn breakdown_on_invariant_subspace() {
        // Start vector = eigenvector of a diagonal matrix -> 1 step.
        let a = DMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        let d = vec![1.0, 0.0, 0.0];
        let res = lanczos(&a, &d, 3);
        assert_eq!(res.steps(), 1);
        assert!((res.alpha[0] - 1.0).abs() < 1e-14);
        assert_eq!(res.beta_last, 0.0);
    }

    #[test]
    fn breakdown_test_ignores_the_scale_of_the_start_vectors() {
        // Regression: the threshold was `1e-12 * |d|`, compared with a
        // residual that scales with H — large start vectors "broke down"
        // after one step. Powers of two, so every scaled quantity is exact.
        let n = 40;
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.0 + 0.05 * i as f64;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        let dmu: [Vec<f64>; 3] =
            std::array::from_fn(|c| (0..n).map(|i| 1.0 + ((i * (c + 2)) % 5) as f64).collect());
        let opts = crate::RamanOptions { lanczos_steps: 10, sigma: 20.0, ..Default::default() };
        let base = lanczos_panel(&a, &dmu.each_ref().map(Vec::as_slice), 10);
        let base_spec = crate::ir_lanczos(&a, &dmu, &opts);
        assert!(base.iter().all(|r| r.steps() == 10));
        for s in [2.0_f64.powi(40), 2.0_f64.powi(-40)] {
            let scaled: [Vec<f64>; 3] = dmu.each_ref().map(|d| d.iter().map(|x| x * s).collect());
            let runs = lanczos_panel(&a, &scaled.each_ref().map(Vec::as_slice), 10);
            for (r, b) in runs.iter().zip(&base) {
                assert_eq!(r.alpha, b.alpha, "scale {s:e}");
                assert_eq!(r.beta, b.beta, "scale {s:e}");
                assert_eq!(r.beta_last, b.beta_last, "scale {s:e}");
                assert_eq!(r.start_norm, s * b.start_norm, "scale {s:e}");
            }
            let spec = crate::ir_lanczos(&a, &scaled, &opts);
            let squared: Vec<f64> = base_spec.intensities.iter().map(|x| s * s * x).collect();
            assert_eq!(spec.intensities, squared, "scale {s:e}");
        }
        assert!(base_spec.intensities.iter().any(|&x| x > 0.0));
    }

    #[test]
    fn zero_operator_breaks_down_instead_of_dividing_by_zero() {
        let res = lanczos(&DMatrix::zeros(5, 5), &[1.0; 5], 3);
        assert_eq!((res.steps(), res.alpha[0], res.beta_last), (1, 0.0, 0.0));
    }

    #[test]
    fn zero_start_vector() {
        let a = DMatrix::identity(4);
        let res = lanczos(&a, &[0.0; 4], 3);
        assert_eq!(res.steps(), 0);
        assert_eq!(res.start_norm, 0.0);
    }

    #[test]
    fn beta_last_positive_mid_spectrum() {
        let a = sym_sample(30, 3);
        let d = vec![1.0; 30];
        let res = lanczos(&a, &d, 5);
        assert_eq!(res.steps(), 5);
        assert_eq!(res.beta.len(), 4);
        assert!(res.beta_last > 0.0, "k << n must leave a residual");
        assert!((res.start_norm - (30.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn eigenvalue_interlacing() {
        // Lanczos Ritz values lie within the spectrum of A.
        let a = sym_sample(25, 4);
        let avals = qfr_linalg::eigen::symmetric_eigen(&a).eigenvalues;
        let (lo, hi) = (avals[0], avals[24]);
        let d = vec![1.0; 25];
        let res = lanczos(&a, &d, 8);
        let (tvals, _) = tridiagonal_eigen(&res.alpha, &res.beta);
        for t in tvals {
            assert!(t >= lo - 1e-9 && t <= hi + 1e-9, "Ritz value {t} outside [{lo},{hi}]");
        }
    }
}
