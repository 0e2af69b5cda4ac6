//! Dense symmetric eigensolver.
//!
//! Householder tridiagonalization (`tred2`) followed by implicit-shift QL
//! iteration (`tql2`), the classic EISPACK pair. This is the reference
//! diagonalizer used for per-fragment mass-weighted Hessians (at most a few
//! hundred rows) and as the ground truth the Lanczos+GAGQ spectral solver is
//! validated against. The tridiagonal stage is shared with
//! [`crate::tridiag`], which the GAGQ quadrature calls directly.

use crate::matrix::DMatrix;
use crate::tridiag::tql2;

/// Eigendecomposition of a real symmetric matrix: `A = V diag(w) V^T`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors stored as *columns*; column `j` pairs with
    /// `eigenvalues[j]`.
    pub eigenvectors: DMatrix,
}

impl SymmetricEigen {
    /// Rebuilds `V diag(w) V^T`; used by tests to verify the decomposition.
    pub fn reconstruct(&self) -> DMatrix {
        let n = self.eigenvalues.len();
        let v = &self.eigenvectors;
        let mut vd = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                vd[(i, j)] = v[(i, j)] * self.eigenvalues[j];
            }
        }
        crate::gemm::matmul(&vd, &v.transpose())
    }
}

/// Computes all eigenvalues and eigenvectors of a symmetric matrix.
///
/// # Panics
/// Panics if `a` is not square, or if the QL iteration fails to converge
/// (more than 50 sweeps on one eigenvalue — practically unreachable for
/// symmetric input).
pub fn symmetric_eigen(a: &DMatrix) -> SymmetricEigen {
    assert!(a.is_square(), "symmetric_eigen requires a square matrix");
    let n = a.rows();
    if n == 0 {
        return SymmetricEigen { eigenvalues: vec![], eigenvectors: DMatrix::zeros(0, 0) };
    }
    let mut v = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(&mut v, &mut d, &mut e);
    tql2(&mut d, &mut e, Some(&mut v));
    sort_by_eigenvalue(&mut d, &mut v);
    SymmetricEigen { eigenvalues: d, eigenvectors: v }
}

/// Householder reduction of `v` (symmetric, overwritten with the accumulated
/// orthogonal transform) to tridiagonal form. On exit `d` holds the diagonal
/// and `e[1..]` the subdiagonal (`e[0] = 0`). Ported from the EISPACK/JAMA
/// `tred2` routine.
pub fn tred2(v: &mut DMatrix, d: &mut [f64], e: &mut [f64]) {
    let n = v.rows();
    crate::flops::add((4 * n * n * n / 3) as u64);
    for j in 0..n {
        d[j] = v[(n - 1, j)];
    }

    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let mut scale = 0.0;
        let mut h = 0.0;
        for item in d.iter().take(i) {
            scale += item.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
                v[(j, i)] = 0.0;
            }
        } else {
            // Generate Householder vector.
            for item in d.iter_mut().take(i) {
                *item /= scale;
                h += *item * *item;
            }
            let f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for item in e.iter_mut().take(i) {
                *item = 0.0;
            }

            // Apply similarity transformation to remaining columns.
            for j in 0..i {
                let f = d[j];
                v[(j, i)] = f;
                let mut g = e[j] + v[(j, j)] * f;
                for k in (j + 1)..i {
                    g += v[(k, j)] * d[k];
                    e[k] += v[(k, j)] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let f = d[j];
                let g = e[j];
                for k in j..i {
                    let delta = f * e[k] + g * d[k];
                    v[(k, j)] -= delta;
                }
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate transformations.
    for i in 0..(n - 1) {
        v[(n - 1, i)] = v[(i, i)];
        v[(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = v[(k, i + 1)] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v[(k, i + 1)] * v[(k, j)];
                }
                for k in 0..=i {
                    let delta = g * d[k];
                    v[(k, j)] -= delta;
                }
            }
        }
        for k in 0..=i {
            v[(k, i + 1)] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = v[(n - 1, j)];
        v[(n - 1, j)] = 0.0;
    }
    v[(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// Sorts eigenvalues ascending, permuting eigenvector columns to match.
pub(crate) fn sort_by_eigenvalue(d: &mut [f64], v: &mut DMatrix) {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    // `total_cmp` orders NaN after every finite value instead of panicking,
    // so one degenerate eigenvalue cannot abort a whole assembly.
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    let sorted_d: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    d.copy_from_slice(&sorted_d);
    let old = v.clone();
    for (newj, &oldj) in order.iter().enumerate() {
        for i in 0..v.rows() {
            v[(i, newj)] = old[(i, oldj)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn nan_eigenvalue_sorts_last_instead_of_panicking() {
        // Regression: `sort_by_eigenvalue` used `partial_cmp(...).expect`
        // and aborted on the first NaN.
        let mut d = [f64::NAN, 1.0, -2.0];
        let mut v = DMatrix::identity(3);
        sort_by_eigenvalue(&mut d, &mut v);
        assert_eq!(d[0], -2.0);
        assert_eq!(d[1], 1.0);
        assert!(d[2].is_nan(), "NaN must sort after every finite eigenvalue");
        // Columns permuted to match: the -2 eigenvector was column 2.
        assert_eq!(v[(2, 0)], 1.0);
    }

    #[test]
    fn two_by_two_known() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = DMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = symmetric_eigen(&a);
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_trivial() {
        let a = DMatrix::from_diagonal(&[3.0, -1.0, 2.0]);
        let eig = symmetric_eigen(&a);
        assert!((eig.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        for n in [1, 2, 3, 5, 10, 25, 60] {
            let a = sym_sample(n, n as u64 + 7);
            let eig = symmetric_eigen(&a);
            let r = eig.reconstruct();
            assert!(
                r.max_abs_diff(&a) < 1e-9,
                "n={n}: reconstruction error {}",
                r.max_abs_diff(&a)
            );
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = sym_sample(30, 42);
        let eig = symmetric_eigen(&a);
        let v = &eig.eigenvectors;
        let vtv = crate::gemm::matmul(&v.transpose(), v);
        assert!(vtv.max_abs_diff(&DMatrix::identity(30)) < 1e-10);
    }

    #[test]
    fn eigenpairs_satisfy_av_equals_lv() {
        let a = sym_sample(20, 99);
        let eig = symmetric_eigen(&a);
        for j in 0..20 {
            let vj = eig.eigenvectors.col(j);
            let av = a.matvec(&vj);
            for i in 0..20 {
                assert!(
                    (av[i] - eig.eigenvalues[j] * vj[i]).abs() < 1e-9,
                    "residual too large at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let a = sym_sample(40, 5);
        let eig = symmetric_eigen(&a);
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = sym_sample(35, 77);
        let eig = symmetric_eigen(&a);
        let sum: f64 = eig.eigenvalues.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-9);
    }

    #[test]
    fn psd_gram_has_nonnegative_spectrum() {
        let b = sym_sample(15, 3);
        let a = crate::gemm::matmul(&b.transpose(), &b);
        let eig = symmetric_eigen(&a);
        assert!(eig.eigenvalues.iter().all(|&w| w > -1e-9));
    }

    #[test]
    fn empty_and_single() {
        let eig = symmetric_eigen(&DMatrix::zeros(0, 0));
        assert!(eig.eigenvalues.is_empty());
        let eig = symmetric_eigen(&DMatrix::from_vec(1, 1, vec![4.5]));
        assert_eq!(eig.eigenvalues, vec![4.5]);
        assert!((eig.eigenvectors[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn degenerate_eigenvalues_handled() {
        // Identity: all eigenvalues 1, any orthonormal basis valid.
        let eig = symmetric_eigen(&DMatrix::identity(6));
        for w in &eig.eigenvalues {
            assert!((w - 1.0).abs() < 1e-12);
        }
        let v = &eig.eigenvectors;
        let vtv = crate::gemm::matmul(&v.transpose(), v);
        assert!(vtv.max_abs_diff(&DMatrix::identity(6)) < 1e-12);
    }
}
