//! Symmetric tridiagonal eigensolver (implicit-shift QL), run as lanes.
//!
//! The Lanczos process (Section V-E of the paper) reduces the huge
//! mass-weighted Hessian to a small `k x k` tridiagonal matrix `T`; the GAGQ
//! augmentation produces a `(2k-1) x (2k-1)` tridiagonal `T_hat`. Both are
//! diagonalized here. The QL iteration rotates the rows of whatever matrix
//! it is handed independently of each other, so [`tridiagonal_eigen`] passes
//! the identity and gets every eigenvector, while [`gauss_quadrature_nodes`]
//! — the quadrature needs eigenvalues and the *first row* of the eigenvector
//! matrix, nothing else — passes the single row `e_0ᵀ` and pays `O(n²)`
//! instead of `O(n³)` for the same bits.
//!
//! Each QL is a `Lane`: one tridiagonal's `d`, `e` and rotated rows plus
//! its place in the EISPACK loop nest, resumable after every Givens
//! rotation. A rotation waits on the one before it (a `hypot` and two
//! divisions), so a single QL leaves the core mostly idle; `run_lanes`
//! advances every live lane by one rotation per turn and the independent
//! chains overlap. A lane performs the scalar loop's f64 operations in the
//! scalar loop's order, so its bits do not depend on which lanes run beside
//! it. [`tql2`] is the one-lane case, [`gauss_quadrature_nodes_batch`] the
//! many-lane first-row solve.

use crate::matrix::DMatrix;

/// Maximum QL sweeps per eigenvalue before declaring non-convergence.
const MAX_ITER: usize = 50;

/// One tridiagonal's QL iteration, stopped between two rotations.
///
/// The position is `l` (the eigenvalue being isolated), `m` (the end of its
/// unreduced block), `i` (the next rotation; the sweep ends after `i == l`)
/// and `iter` (sweeps spent on `l`); the rest are the scalars the EISPACK
/// loop carries from one rotation to the next. `l == n` once finished.
struct Lane<'a> {
    d: &'a mut [f64],
    e: &'a mut [f64],
    /// The rows rotated alongside, row-major with `n` columns.
    v: &'a mut [f64],
    rows: usize,
    l: usize,
    m: usize,
    i: usize,
    iter: usize,
    f: f64,
    tst1: f64,
    p: f64,
    c: f64,
    c2: f64,
    c3: f64,
    s: f64,
    s2: f64,
    el1: f64,
    dl1: f64,
    rotations: u64,
}

impl<'a> Lane<'a> {
    /// A lane on the diagonal `d` and subdiagonal `e[1..]` (`e[0]`
    /// arbitrary) with `v` (`rows × n`, row-major) rotated alongside,
    /// stopped before its first rotation.
    fn new(d: &'a mut [f64], e: &'a mut [f64], v: &'a mut [f64]) -> Self {
        let n = d.len();
        assert!(n == 0 || v.len() % n == 0, "tql2: rotated rows must have n columns");
        if n > 0 {
            e.copy_within(1..n, 0);
            e[n - 1] = 0.0;
        }
        let rows = v.len().checked_div(n).unwrap_or(0);
        let mut lane = Lane {
            d,
            e,
            v,
            rows,
            l: 0,
            m: 0,
            i: 0,
            iter: 0,
            f: 0.0,
            tst1: 0.0,
            p: 0.0,
            c: 0.0,
            c2: 0.0,
            c3: 0.0,
            s: 0.0,
            s2: 0.0,
            el1: 0.0,
            dl1: 0.0,
            rotations: 0,
        };
        lane.seek();
        lane
    }

    fn live(&self) -> bool {
        self.l < self.d.len()
    }

    /// Settles every eigenvalue from `l` on whose block is already split
    /// off and starts the first sweep of the next one that is not.
    fn seek(&mut self) {
        let n = self.d.len();
        while self.l < n {
            let l = self.l;
            self.tst1 = self.tst1.max(self.d[l].abs() + self.e[l].abs());
            let mut m = l;
            while m < n {
                if self.e[m].abs() <= f64::EPSILON * self.tst1 {
                    break;
                }
                m += 1;
            }
            if m > l {
                self.m = m;
                self.iter = 0;
                self.start_sweep();
                return;
            }
            self.d[l] += self.f;
            self.e[l] = 0.0;
            self.l += 1;
        }
    }

    /// Forms the implicit shift of a new sweep on `l`.
    fn start_sweep(&mut self) {
        let (l, m) = (self.l, self.m);
        let (d, e) = (&mut *self.d, &mut *self.e);
        self.iter += 1;
        assert!(self.iter <= MAX_ITER, "tql2: no convergence after {MAX_ITER} iterations");

        let g = d[l];
        let p = (d[l + 1] - g) / (2.0 * e[l]);
        let mut r = p.hypot(1.0);
        if p < 0.0 {
            r = -r;
        }
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        self.dl1 = d[l + 1];
        let h = g - d[l];
        for item in d.iter_mut().skip(l + 2) {
            *item -= h;
        }
        self.f += h;

        self.p = d[m];
        self.c = 1.0;
        self.c2 = 1.0;
        self.c3 = 1.0;
        self.el1 = e[l + 1];
        self.s = 0.0;
        self.s2 = 0.0;
        self.rotations += (m - l) as u64;
        self.i = m - 1;
    }

    /// The hypotenuse of the next rotation. The scalar loop computes it
    /// among the rotation's first steps from `p` and `e[i]`, which no
    /// earlier step of that rotation writes.
    #[inline(always)]
    fn hypot(&self) -> f64 {
        self.p.hypot(self.e[self.i])
    }

    /// The next Givens rotation of the implicit QL transformation, given
    /// its hypotenuse `r` (from [`Lane::hypot`]), then the end of the
    /// sweep if it was the last.
    #[inline(always)]
    fn rotate(&mut self, r: f64) {
        let i = self.i;
        let n = self.d.len();
        let (Some([di, di1]), Some([ei, ei1])) =
            (self.d.get_mut(i..i + 2), self.e.get_mut(i..i + 2))
        else {
            unreachable!("rotation index {i} outside the {n}-node tridiagonal");
        };
        let (p, c, s) = (self.p, self.c, self.s);
        self.c3 = self.c2;
        self.c2 = c;
        self.s2 = s;
        let g = c * *ei;
        let h = c * p;
        *ei1 = s * r;
        let s = *ei / r;
        let c = p / r;
        self.p = c * *di - s * g;
        *di1 = h + s * (c * g + s * *di);
        self.c = c;
        self.s = s;
        for k in 0..self.rows {
            let Some([vi, vi1]) = self.v.get_mut(k * n + i..k * n + i + 2) else {
                unreachable!("rotated row {k} shorter than {n}");
            };
            let h = *vi1;
            *vi1 = s * *vi + c * h;
            *vi = c * *vi - s * h;
        }
        if i > self.l {
            self.i = i - 1;
        } else {
            self.end_sweep();
        }
    }

    /// Closes a sweep: settles `l` and moves on if `e[l]` has become
    /// negligible, sweeps `l` again otherwise.
    fn end_sweep(&mut self) {
        let l = self.l;
        let p = -self.s * self.s2 * self.c3 * self.el1 * self.e[l] / self.dl1;
        self.e[l] = self.s * p;
        self.d[l] = self.c * p;
        if self.e[l].abs() <= f64::EPSILON * self.tst1 {
            self.d[l] += self.f;
            self.e[l] = 0.0;
            self.l += 1;
            self.seek();
        } else {
            self.start_sweep();
        }
    }
}

/// Runs every lane to completion, one rotation per live lane per turn,
/// then books each lane's FLOPs: per rotation, 17 scalar operations on
/// `(d, e)` plus 6 per rotated row. A turn first calls `hypot` for every
/// live lane, then finishes their rotations: the libm calls, the longest
/// part of each chain, sit next to each other where the core overlaps
/// them.
fn run_lanes(lanes: &mut [Lane]) {
    // One lane needs no turn bookkeeping; skipping it keeps `tql2` within
    // a few per cent of the scalar loop instead of about 9 % behind it.
    if let [lane] = lanes {
        while lane.live() {
            let r = lane.hypot();
            lane.rotate(r);
        }
    }
    let mut live: Vec<&mut Lane> = lanes.iter_mut().filter(|lane| lane.live()).collect();
    let mut r = Vec::with_capacity(live.len());
    while !live.is_empty() {
        r.clear();
        r.extend(live.iter().map(|lane| lane.hypot()));
        for (lane, &r) in live.iter_mut().zip(&r) {
            lane.rotate(r);
        }
        live.retain(|lane| lane.live());
    }
    for lane in lanes.iter().filter(|lane| !lane.d.is_empty()) {
        crate::flops::add(lane.rotations * (17 + 6 * lane.rows as u64));
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
///
/// On entry `d` is the diagonal and `e[1..]` the subdiagonal (`e[0]`
/// arbitrary). On exit `d` holds the (unsorted) eigenvalues. When `v` is
/// `Some`, it must have `n` columns; they are rotated alongside, each row
/// on its own (pass identity to obtain tridiagonal eigenvectors, its first
/// row alone for their first components, `tred2` output to obtain
/// dense-matrix eigenvectors).
///
/// Ported from the EISPACK/JAMA `tql2` routine; the one-lane case of the
/// lane driver.
///
/// # Panics
/// Panics if the iteration fails to converge (pathological input such as
/// NaN entries).
pub fn tql2(d: &mut [f64], e: &mut [f64], v: Option<&mut DMatrix>) {
    run_lanes(&mut [Lane::new(d, e, v.map_or(&mut [], DMatrix::as_mut_slice))]);
}

/// QL on every `(diag, sub)` with the rows of its `v` rotated alongside,
/// all as lanes of one run; eigenvalues ascending, the columns of each `v`
/// permuted to match.
fn sorted_ql<'a>(
    problems: impl Iterator<Item = (&'a [f64], &'a [f64], DMatrix)>,
) -> Vec<(Vec<f64>, DMatrix)> {
    let mut work: Vec<(Vec<f64>, Vec<f64>, DMatrix)> = problems
        .map(|(diag, sub, v)| {
            let n = diag.len();
            assert!(n == 0 || sub.len() == n - 1, "tridiagonal eigensolve: sub length must be n-1");
            let mut e = vec![0.0; n];
            e[n.min(1)..].copy_from_slice(sub);
            (diag.to_vec(), e, v)
        })
        .collect();
    run_lanes(
        &mut work.iter_mut().map(|(d, e, v)| Lane::new(d, e, v.as_mut_slice())).collect::<Vec<_>>(),
    );
    work.into_iter()
        .map(|(mut d, _, mut v)| {
            crate::eigen::sort_by_eigenvalue(&mut d, &mut v);
            (d, v)
        })
        .collect()
}

/// Eigendecomposition of a symmetric tridiagonal matrix given its diagonal
/// `diag` and subdiagonal `sub` (`sub.len() == diag.len() - 1`).
///
/// Returns eigenvalues (ascending) and the full eigenvector matrix
/// (columns).
pub fn tridiagonal_eigen(diag: &[f64], sub: &[f64]) -> (Vec<f64>, DMatrix) {
    let identity = DMatrix::identity(diag.len());
    sorted_ql(std::iter::once((diag, sub, identity))).pop().expect("one problem, one result")
}

/// Eigenvalues (ascending) and squared first-row eigenvector weights of a
/// symmetric tridiagonal matrix — exactly the data a Gauss quadrature built
/// from a Lanczos `T` needs: `d^T f(H) d ~ |d|^2 * sum_j w_j f(lambda_j)` with
/// `w_j = (V_{0j})^2`. Only the first row is ever formed; nodes and weights
/// equal those read off [`tridiagonal_eigen`] bit for bit. The one-problem
/// case of [`gauss_quadrature_nodes_batch`].
pub fn gauss_quadrature_nodes(diag: &[f64], sub: &[f64]) -> (Vec<f64>, Vec<f64>) {
    gauss_quadrature_nodes_batch(&[(diag, sub)]).pop().expect("one problem, one result")
}

/// [`gauss_quadrature_nodes`] of every `(diag, sub)`, solved as interleaved
/// lanes: result `j` is bit-identical to `gauss_quadrature_nodes` of
/// `problems[j]` whatever else the batch holds, and the FLOPs booked are
/// the sum of the one-by-one solves'.
pub fn gauss_quadrature_nodes_batch(problems: &[(&[f64], &[f64])]) -> Vec<(Vec<f64>, Vec<f64>)> {
    let first_rows = problems.iter().map(|&(diag, sub)| {
        let n = diag.len();
        (diag, sub, DMatrix::from_fn(n.min(1), n, |_, j| if j == 0 { 1.0 } else { 0.0 }))
    });
    sorted_ql(first_rows)
        .into_iter()
        .map(|(vals, row)| (vals, row.as_slice().iter().map(|x| x * x).collect()))
        .collect()
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
