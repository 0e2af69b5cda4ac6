//! Symmetric tridiagonal eigensolver (implicit-shift QL).
//!
//! The Lanczos process (Section V-E of the paper) reduces the huge
//! mass-weighted Hessian to a small `k x k` tridiagonal matrix `T`; the GAGQ
//! augmentation produces a `(2k-1) x (2k-1)` tridiagonal `T_hat`. Both are
//! diagonalized here. [`tql2`] rotates the rows of whatever matrix it is
//! handed independently of each other, so [`tridiagonal_eigen`] passes the
//! identity and gets every eigenvector, while [`gauss_quadrature_nodes`] —
//! the quadrature needs eigenvalues and the *first row* of the eigenvector
//! matrix, nothing else — passes the single row `e_0ᵀ` and pays `O(n²)`
//! instead of `O(n³)` for the same bits.

use crate::matrix::DMatrix;

/// Maximum QL sweeps per eigenvalue before declaring non-convergence.
const MAX_ITER: usize = 50;

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
///
/// On entry `d` is the diagonal and `e[1..]` the subdiagonal (`e[0]`
/// arbitrary). On exit `d` holds the (unsorted) eigenvalues. When `v` is
/// `Some`, it must have `n` columns; they are rotated alongside, each row
/// on its own (pass identity to obtain tridiagonal eigenvectors, its first
/// row alone for their first components, `tred2` output to obtain
/// dense-matrix eigenvectors).
///
/// Ported from the EISPACK/JAMA `tql2` routine.
///
/// # Panics
/// Panics if the iteration fails to converge (pathological input such as
/// NaN entries).
pub fn tql2(d: &mut [f64], e: &mut [f64], mut v: Option<&mut DMatrix>) {
    let n = d.len();
    if n == 0 {
        return;
    }
    let mut rotations = 0u64;
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0_f64;
    let mut tst1 = 0.0_f64;
    let eps = f64::EPSILON;

    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                assert!(iter <= MAX_ITER, "tql2: no convergence after {MAX_ITER} iterations");

                // Form implicit shift.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for item in d.iter_mut().take(n).skip(l + 2) {
                    *item -= h;
                }
                f += h;

                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0_f64;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0_f64;
                let mut s2 = 0.0_f64;
                rotations += (m - l) as u64;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);

                    if let Some(vm) = v.as_deref_mut() {
                        let rows = vm.rows();
                        for k in 0..rows {
                            let h = vm[(k, i + 1)];
                            vm[(k, i + 1)] = s * vm[(k, i)] + c * h;
                            vm[(k, i)] = c * vm[(k, i)] - s * h;
                        }
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    // Per rotation: 17 scalar operations on (d, e) plus 6 per rotated row.
    crate::flops::add(rotations * (17 + 6 * v.map_or(0, |vm| vm.rows()) as u64));
}

/// QL on `(diag, sub)` with the rows of `v` rotated alongside; eigenvalues
/// ascending, the columns of `v` permuted to match.
fn sorted_ql(diag: &[f64], sub: &[f64], mut v: DMatrix) -> (Vec<f64>, DMatrix) {
    let n = diag.len();
    assert!(n == 0 || sub.len() == n - 1, "tridiagonal eigensolve: sub length must be n-1");
    let mut d = diag.to_vec();
    let mut e = vec![0.0; n];
    e[n.min(1)..].copy_from_slice(sub);
    tql2(&mut d, &mut e, Some(&mut v));
    crate::eigen::sort_by_eigenvalue(&mut d, &mut v);
    (d, v)
}

/// Eigendecomposition of a symmetric tridiagonal matrix given its diagonal
/// `diag` and subdiagonal `sub` (`sub.len() == diag.len() - 1`).
///
/// Returns eigenvalues (ascending) and the full eigenvector matrix
/// (columns).
pub fn tridiagonal_eigen(diag: &[f64], sub: &[f64]) -> (Vec<f64>, DMatrix) {
    sorted_ql(diag, sub, DMatrix::identity(diag.len()))
}

/// Eigenvalues (ascending) and squared first-row eigenvector weights of a
/// symmetric tridiagonal matrix — exactly the data a Gauss quadrature built
/// from a Lanczos `T` needs: `d^T f(H) d ~ |d|^2 * sum_j w_j f(lambda_j)` with
/// `w_j = (V_{0j})^2`. Only the first row is ever formed; nodes and weights
/// equal those read off [`tridiagonal_eigen`] bit for bit.
pub fn gauss_quadrature_nodes(diag: &[f64], sub: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = diag.len();
    let first_row = DMatrix::from_fn(n.min(1), n, |_, j| if j == 0 { 1.0 } else { 0.0 });
    let (vals, row) = sorted_ql(diag, sub, first_row);
    let weights = (0..n).map(|j| row[(0, j)] * row[(0, j)]).collect();
    (vals, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_from_tridiag(diag: &[f64], sub: &[f64]) -> DMatrix {
        let n = diag.len();
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
            if i + 1 < n {
                m[(i, i + 1)] = sub[i];
                m[(i + 1, i)] = sub[i];
            }
        }
        m
    }

    #[test]
    fn two_by_two() {
        let (vals, _) = tridiagonal_eigen(&[0.0, 0.0], &[1.0]);
        assert!((vals[0] + 1.0).abs() < 1e-14);
        assert!((vals[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn toeplitz_has_known_spectrum() {
        // Tridiagonal Toeplitz with diagonal a and off-diagonal b has
        // eigenvalues a + 2 b cos(pi k / (n+1)).
        let n = 12;
        let a = 2.0;
        let b = -1.0;
        let (vals, _) = tridiagonal_eigen(&vec![a; n], &vec![b; n - 1]);
        let mut expected: Vec<f64> = (1..=n)
            .map(|k| a + 2.0 * b * (std::f64::consts::PI * k as f64 / (n as f64 + 1.0)).cos())
            .collect();
        expected.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (v, e) in vals.iter().zip(&expected) {
            assert!((v - e).abs() < 1e-10, "{v} vs {e}");
        }
    }

    #[test]
    fn matches_dense_eigensolver() {
        let diag = [1.0, -2.0, 0.5, 3.0, 0.0, 1.5];
        let sub = [0.7, -0.3, 1.1, 0.2, -0.9];
        let (vals, vecs) = tridiagonal_eigen(&diag, &sub);
        let dense = dense_from_tridiag(&diag, &sub);
        let ref_eig = crate::eigen::symmetric_eigen(&dense);
        for (v, r) in vals.iter().zip(&ref_eig.eigenvalues) {
            assert!((v - r).abs() < 1e-10);
        }
        // Columns are eigenvectors of the dense matrix.
        for j in 0..diag.len() {
            let col = vecs.col(j);
            let av = dense.matvec(&col);
            for i in 0..diag.len() {
                assert!((av[i] - vals[j] * col[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn quadrature_weights_sum_to_one() {
        let diag = [0.3, 1.2, -0.4, 2.2, 0.9];
        let sub = [0.5, 0.8, 0.1, 1.3];
        let (_, w) = gauss_quadrature_nodes(&diag, &sub);
        let total: f64 = w.iter().sum();
        // First row of an orthogonal matrix has unit norm.
        assert!((total - 1.0).abs() < 1e-12);
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn quadrature_reproduces_moments() {
        // For f(x) = x^p with small p, e1^T T^p e1 == sum w_j lambda_j^p.
        let diag = [1.0, 2.0, 3.0];
        let sub = [0.5, 0.25];
        let t = dense_from_tridiag(&diag, &sub);
        let (nodes, w) = gauss_quadrature_nodes(&diag, &sub);
        // p = 2: (T^2)_{00} == integral of x^2 against the measure.
        let t2 = crate::gemm::matmul(&t, &t);
        let quad: f64 = nodes.iter().zip(&w).map(|(x, wi)| wi * x * x).sum();
        assert!((t2[(0, 0)] - quad).abs() < 1e-12);
    }

    #[test]
    fn zero_subdiagonal_gives_diagonal_entries() {
        let (vals, _) = tridiagonal_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert!((vals[0] - 1.0).abs() < 1e-14);
        assert!((vals[1] - 2.0).abs() < 1e-14);
        assert!((vals[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn empty_input() {
        let (vals, vecs) = tridiagonal_eigen(&[], &[]);
        assert!(vals.is_empty());
        assert_eq!(vecs.shape(), (0, 0));
    }

    #[test]
    fn single_entry() {
        let (vals, vecs) = tridiagonal_eigen(&[7.0], &[]);
        assert_eq!(vals, vec![7.0]);
        assert!((vecs[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }
}
